"""A dropped instance is freed by reference counting alone.

An Instance caches |G|-sized arrays in its algebra and group (the
permutations, the DFT matrices, the slot gather).  A reference cycle
through any of its objects would keep all of them alive until the cyclic
collector runs, counted in the peak RSS and against RLIMIT_AS.  These tests
run the library's paths with the collector off, drop the instance, and
check that its algebra, field and group are gone at once, and that a
collection then finds no cqunits object among the unreachable ones.
"""

import gc
import weakref

import numpy as np
import pytest

from cqunits.cli import parse_element
from cqunits.unitgroup import (cayley, cayley_inv, centralizer_in_gamma, random_skew,
                               sample_disjoint_classes)
from cqunits.verifier import analyze, counting_certificate, m_gt_1_no_complement

CONFIGS = ("c7", "c19", "f11c5", "gf49", "gf49_c7cube", "c31sq")


def exercise(inst) -> list:
    """Runs the instance's paths and returns weak references to its algebra,
    field and group; every strong reference goes with this frame."""
    branch = analyze(inst).branch
    if branch == "counting":
        counting_certificate(inst)
    elif branch == "m_gt_1":
        m_gt_1_no_complement(inst)
    alg = inst.algebra
    assert centralizer_in_gamma(alg, parse_element("b + a1", inst)).kernel.basis.size
    for sub in alg.sym_skew_subspaces():
        assert sub.basis.shape == (sub.dim, alg.order)
    l = random_skew(alg, np.random.default_rng(5))
    assert cayley_inv(cayley(l)) == l
    b, one = alg.basis(inst.group.b()), alg.one()
    assert sample_disjoint_classes(alg, b, one, one, trials=1).identical_pair_hit
    return [weakref.ref(o) for o in (alg, inst.field, inst.group)]


def cqunits_garbage() -> list[str]:
    """The types of the cqunits objects that a collection finds unreachable."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sorted({f"{type(o).__module__}.{type(o).__qualname__}" for o in gc.garbage
                       if type(o).__module__.startswith("cqunits")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("name", CONFIGS)
def test_dropped_instance_is_freed_without_the_collector(name, config_instance):
    gc.collect()
    gc.disable()
    try:
        refs = exercise(config_instance(name))
        assert [r() for r in refs] == [None, None, None]
        assert cqunits_garbage() == []
    finally:
        gc.enable()
