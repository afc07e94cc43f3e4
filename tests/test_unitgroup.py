import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from conftest import CONFIGS

from cqunits import GroupAlgebra, _linalg, _memory, algebra, cli, make_field, make_group, unitgroup
from cqunits.cqstruct import FBCtx, ProjVec, from_projections
from cqunits.errors import (BadCentralizerElement, BudgetExceeded, MathDomainError, NotAUnit,
                            NotInGamma, NotInOnePlusGamma, NotSkew, NotUnitary)
from cqunits.unitgroup import (cayley, cayley_inv, centralizer_in_gamma, class_length,
                               random_gamma, random_skew,
                               random_unit_vfg, random_unitary_vfg,
                               sample_disjoint_classes)
from cqunits.cli import parse_element
from cqunits.verifier import Instance, analyze
from oracles import (ReferenceCentralizer, centralizer_of_b_orbit_form, contains_rows,
                     sqrt_relation_check)


@pytest.fixture(scope="module")
def b21(alg21):
    return alg21.basis(alg21.group.b())


@pytest.fixture(scope="module")
def rep_b(alg21, b21):
    return centralizer_in_gamma(alg21, b21)


def test_centralizer_of_one(alg21):
    rep = centralizer_in_gamma(alg21, alg21.one())
    assert rep.dim == 18
    assert rep.sym_dim == 9 and rep.skew_dim == 9


def test_centralizer_of_b(rep_b, alg21):
    assert rep_b.dim == 6  # p^n - 1
    assert rep_b.star_closed
    assert rep_b.sym_dim == 3 and rep_b.skew_dim == 3


def test_centralizer_requires_unit(alg21):
    a = alg21.basis(alg21.group.generator(1))
    ahat = alg21.zero()
    for ai in range(7):
        ahat = ahat + alg21.basis(alg21.group.elem([ai], 0))
    with pytest.raises(NotAUnit):
        centralizer_in_gamma(alg21, ahat)


def test_centralizer_membership(alg21, b21, rep_b, rng):
    # 1 + g commutes with b iff g is in the kernel: exhaustive on the basis,
    # random off-kernel elements must fail
    for i in range(rep_b.kernel.dim):
        g = alg21.elem(rep_b.kernel.basis[i])
        assert (alg21.one() + g) * b21 == b21 * (alg21.one() + g)
    misses = 0
    for _ in range(50):
        g = random_gamma(alg21, rng)
        if not contains_rows(rep_b.kernel, g.coeffs):
            misses += 1
            assert (alg21.one() + g) * b21 != b21 * (alg21.one() + g)
    assert misses > 0


def test_orbit_form_matches_kernel(alg21):
    span, equal = centralizer_of_b_orbit_form(alg21)
    assert span.dim == 6  # q * l = 3 * 2
    assert equal
    # double inclusion, explicitly
    rep = centralizer_in_gamma(alg21, alg21.basis(alg21.group.b()))
    assert contains_rows(span, rep.kernel.basis)
    assert contains_rows(rep.kernel, span.basis)


def test_centralizer_of_b_abelian(alg21):
    # all pairwise products of basis elements commute
    span, _ = centralizer_of_b_orbit_form(alg21)
    rows = span.basis
    for i in range(rows.shape[0]):
        for j in range(i + 1, rows.shape[0]):
            xi, xj = alg21.elem(rows[i]), alg21.elem(rows[j])
            assert xi * xj == xj * xi
    # hence the group 1 + C is abelian
    for i in range(rows.shape[0]):
        for j in range(i + 1, rows.shape[0]):
            u = alg21.one() + alg21.elem(rows[i])
            v = alg21.one() + alg21.elem(rows[j])
            assert u * v == v * u


def test_trivial_orbit_contributes_zero(alg21):
    # orbit sum of {e} minus its size is e - 1 = 0 in the algebra
    ehat = alg21.basis(0) - alg21.scalar(1)
    assert ehat.is_zero()


def test_class_length_examples(alg21, b21, rep_b):
    cl = class_length(alg21, b21, report=rep_b)
    assert (cl.p, cl.exponent) == (7, 12)
    cls = class_length(alg21, b21, starred=True, report=rep_b)
    assert (cls.p, cls.exponent) == (7, 6)
    assert cls.value ** 2 == cl.value
    one_cl = class_length(alg21, alg21.one())
    assert one_cl.value == 1


def test_class_length_not_unitary(alg21):
    two_b = alg21.basis(alg21.group.b()).scale(2)
    with pytest.raises(NotUnitary):
        class_length(alg21, two_b, starred=True)


def test_sqrt_relation(alg21, b21, rep_b):
    assert sqrt_relation_check(alg21, b21, rep_b)
    assert sqrt_relation_check(alg21, alg21.one())
    assert sqrt_relation_check(alg21, b21 * b21)
    with pytest.raises(NotUnitary):
        sqrt_relation_check(alg21, b21.scale(2))


def test_distinct_projection_units_share_centralizer_with_b(alg21, rep_b):
    # F[u] = FB forces C(u) = C(b); check a few distinct-projection units
    fb = alg21.fb
    for vals in ([1, 2, 4], [1, 3, 5], [1, 5, 2]):
        pv = ProjVec(fb, np.array(vals))
        if not pv.has_distinct_projections():
            continue
        u = from_projections(pv).lift(alg21)
        rep = centralizer_in_gamma(alg21, u)
        assert rep.kernel == rep_b.kernel


def test_cayley_examples(alg21):
    assert cayley(alg21.zero()) == alg21.one()
    a = alg21.basis(alg21.group.generator(1))
    ainv = alg21.basis(alg21.group.generator(1).inverse())
    l = ((a - alg21.one()) - (ainv - alg21.one())).scale(alg21.inv2)
    u = cayley(l)
    assert (u * u.star()) == alg21.one()
    assert (u - alg21.one()).in_gamma()
    assert cayley_inv(u) == l
    assert cayley_inv(alg21.one()).is_zero()


def test_cayley_rejections(alg21, b21):
    a = alg21.basis(alg21.group.generator(1))
    with pytest.raises(NotSkew):
        cayley(a - alg21.one())  # not skew
    sk = random_skew(alg21, np.random.default_rng(5))
    with pytest.raises(NotInGamma):
        cayley(sk + b21 - b21 * b21)  # skew but sticks out of gamma
    with pytest.raises(NotUnitary):
        cayley_inv(alg21.one() + (a - alg21.one()).scale(2))  # 1 + 2(a-1)
    with pytest.raises(NotInOnePlusGamma):
        cayley_inv(b21)  # unitary but not in 1 + gamma


def test_cayley_roundtrip_sampling(alg21, rng):
    for _ in range(100):
        l = random_skew(alg21, rng)
        u = cayley(l)
        assert cayley_inv(u) == l
        assert (u * u.star()) == alg21.one()
        assert (u - alg21.one()).in_gamma()


def test_cayley_round_trip_takes_24_products(config_instance, monkeypatch):
    # on c31sq (N = 61) each inverse forms the factors 1 + g^(2^i) for 2^i < 61,
    # two products each after 1 + g, and checks x x^-1 = 1: 11 products; cayley and
    # cayley_inv add one u u* = 1 check each, and no product, as 2 (1 + x)^-1 - 1
    # needs none
    alg = config_instance("c31sq").algebra
    l = random_skew(alg, np.random.default_rng(1))
    calls = []
    mul = alg.mul_coeffs

    def counting_mul(x, y):
        calls.append(1)
        return mul(x, y)

    monkeypatch.setattr(alg, "mul_coeffs", counting_mul)
    assert cayley_inv(cayley(l)) == l
    assert len(calls) == 24


def test_cayley_round_trip_takes_30_forward_transforms(config_instance, monkeypatch):
    # each inverse transforms 13 operands for its 11 products (every g^(2^i)
    # once), and each u u* = 1 check transforms its two factors
    alg = config_instance("c31sq").algebra
    l = random_skew(alg, np.random.default_rng(1))
    counts = {"products": 0, "transforms": 0}
    mul, spectrum = alg.mul_coeffs, alg._spectrum

    def counting_mul(x, y):
        counts["products"] += 1
        return mul(x, y)

    def counting_spectrum(c):
        counts["transforms"] += 1
        return spectrum(c)

    monkeypatch.setattr(alg, "mul_coeffs", counting_mul)
    monkeypatch.setattr(alg, "_spectrum", counting_spectrum)
    assert cayley_inv(cayley(l)) == l
    assert counts == {"products": 24, "transforms": 30}


def test_unitary_count_equals_skew_space(alg21):
    # |(1+gamma)_*| = |S2| = p^(f * dim S2) = 7^9; spot-verify the bijection:
    # random 1 + g is unitary iff its Cayley preimage path applies, and every
    # sampled unitary pulls back to a skew element
    s2 = alg21.sym_skew_subspaces()[1]
    assert s2.dim == 9
    rng = np.random.default_rng(99)
    unitary_hits = 0
    for _ in range(300):
        g = random_gamma(alg21, rng)
        u = alg21.one() + g
        if (u * u.star()) == alg21.one():
            unitary_hits += 1
            l = cayley_inv(u)
            assert l.star() == -l and l.in_gamma()
            assert cayley(l) == u
    # unitary elements are a 7^9 / 7^18 fraction of 1 + gamma, so hits are rare
    assert unitary_hits <= 10


def test_semidirect_split_of_units(alg21, rng):
    # every v in V(FG) factors uniquely as (1 + g) * w with w = rho(v)
    for _ in range(1000):
        v = random_unit_vfg(alg21, rng)
        assert v.augmentation() == alg21.field.one()
        w = alg21.from_b_coeffs(v.rho_coeffs())
        u = v * alg21.invert(w)
        assert (u - alg21.one()).in_gamma()
        assert u * w == v


def test_random_unitary_sampler(alg21, rng):
    for _ in range(200):
        v = random_unitary_vfg(alg21, rng)
        assert (v * v.star()) == alg21.one()
        assert v.augmentation() == alg21.field.one()


def test_sample_disjoint_validation(alg21, b21, rep_b):
    z_good = None
    for i in range(rep_b.kernel.dim):
        sk = alg21.elem(rep_b.kernel.basis[i]).sym_skew_split()[1]
        if not sk.is_zero():
            z_good = cayley(sk)
            break
    with pytest.raises(BadCentralizerElement):
        sample_disjoint_classes(alg21, b21, b21, z_good, trials=1)
    a = alg21.basis(alg21.group.generator(1))
    not_central = alg21.one() + (a - alg21.one())
    with pytest.raises(BadCentralizerElement):
        sample_disjoint_classes(alg21, b21, not_central, z_good, trials=1)
    with pytest.raises(MathDomainError, match="not w's"):
        sample_disjoint_classes(alg21, b21 * b21, z_good, z_good, trials=1, report=rep_b)


def test_sample_disjoint_sanity_and_bound(alg21, b21, rep_b):
    units = []
    for i in range(rep_b.kernel.dim):
        sk = alg21.elem(rep_b.kernel.basis[i]).sym_skew_split()[1]
        if sk.is_zero():
            continue
        u = cayley(sk)
        if u not in units:
            units.append(u)
        if len(units) == 2:
            break
    same = sample_disjoint_classes(alg21, b21, units[0], units[0], trials=5, seed=1)
    assert same.identical_pair_hit
    diff = sample_disjoint_classes(alg21, b21, units[0], units[1], trials=300, seed=1)
    assert not diff.identical_pair_hit
    assert diff.hits_v == 0 and diff.hits_vstar == 0
    assert diff.lower_bound_ok


def test_centralizer_intersection_identity(alg21, b21, rep_b, rng):
    # C(b z) = C(b) ^ C(z) realized at the dimension level: dim C(bz) <= dim C(b)
    for i in range(rep_b.kernel.dim):
        z = alg21.one() + alg21.elem(rep_b.kernel.basis[i])
        rep = centralizer_in_gamma(alg21, b21 * z)
        assert rep.dim <= rep_b.dim


def test_extension_field_centralizer():
    # same group over GF(49): dimensions over F are unchanged
    f49 = make_field(7, 2)
    alg = GroupAlgebra(f49, make_group(f49, 3, [7], [[2]]))
    rep = centralizer_in_gamma(alg, alg.basis(alg.group.b()))
    assert rep.dim == 6
    assert rep.sym_dim == 3 and rep.skew_dim == 3
    cl = class_length(alg, alg.basis(alg.group.b()), report=rep)
    assert (cl.p, cl.exponent) == (7, 2 * 12)


def test_star_closure_cross_check_raises(alg21, b21, rep_b, monkeypatch):
    # a membership test that contradicts the slice dimensions is an error: here
    # it finds no starred row in the span of its kernel, so C* = C is denied
    # while Sym and Skew still add up to C; reduce_against is the solver's only
    # call that the membership test makes, and _linalg's own calls are untouched
    assert rep_b.star_closed and rep_b.sym_dim + rep_b.skew_dim == rep_b.dim

    class NothingReduces:
        def __getattr__(self, name):
            return getattr(_linalg, name)

        @staticmethod
        def reduce_against(ctx, A, B, pivots):
            return np.eye(*A.shape, dtype=np.int64)

    monkeypatch.setattr(unitgroup, "_linalg", NothingReduces())
    with pytest.raises(MathDomainError, match="star closure False"):
        centralizer_in_gamma(alg21, b21)


def test_fb_units_skip_the_dense_operator(alg21, b21, rep_b, monkeypatch):
    # x in FB never asks for a block wider than q^2: when supp x generates
    # H = B its double cosets are B (width q) and the orbit(a) B (width
    # q^2, one pattern for all of them), and 1 has H = 1 (width 1, one
    # pattern); b z generates G, one block of |G|
    widths = []
    build = unitgroup._commutator_block

    def record(alg, x, D, local):
        widths.append(D.size)
        return build(alg, x, D, local)

    monkeypatch.setattr(unitgroup, "_commutator_block", record)
    assert centralizer_in_gamma(alg21, b21).kernel == rep_b.kernel
    for x in (b21 * b21, b21.scale(2) + alg21.one()):
        centralizer_in_gamma(alg21, x)
    assert widths == [alg21.q, alg21.q ** 2] * 3
    widths.clear()
    centralizer_in_gamma(alg21, alg21.one())
    assert widths == [1]
    z = alg21.one() + alg21.elem(rep_b.kernel.basis[0])
    widths.clear()
    centralizer_in_gamma(alg21, b21 * z)
    assert widths == [alg21.order]


def test_c31sq_centralizer_of_b_solves_one_block_per_pattern(config_instance, monkeypatch):
    # the 192 double cosets orbit(a) B are regular B x B-sets, one pattern in
    # canonical coordinates: C(b) builds B and one q^2 block, and right_kernel
    # runs on those two and three times on each of the two pair keys
    alg = config_instance("c31sq").algebra
    widths, kernels = [], []
    build, kernel = unitgroup._commutator_block, _linalg.right_kernel

    def record(alg, x, D, local):
        widths.append(D.size)
        return build(alg, x, D, local)

    def count(ctx, M):
        kernels.append(np.shape(M))
        return kernel(ctx, M)

    monkeypatch.setattr(unitgroup, "_commutator_block", record)
    monkeypatch.setattr(_linalg, "right_kernel", count)
    rep = centralizer_in_gamma(alg, alg.basis(alg.group.b()))
    assert (rep.dim, rep.sym_dim, rep.skew_dim, rep.star_closed) == (960, 480, 480, True)
    assert sorted(widths) == [alg.q, alg.q ** 2]
    assert len(kernels) <= 8


def test_centralizers_never_invert(alg21, b21, rep_b, monkeypatch):
    # both layouts solve x g - g x = 0, so neither needs x^-1
    z = alg21.one() + alg21.elem(rep_b.kernel.basis[0])
    dense = centralizer_in_gamma(alg21, b21 * z)

    def refuse(self, x):
        raise AssertionError("inverse computed")

    monkeypatch.setattr(GroupAlgebra, "invert", refuse)
    assert centralizer_in_gamma(alg21, b21).kernel == rep_b.kernel
    assert centralizer_in_gamma(alg21, b21 * z).kernel == dense.kernel


def test_oversized_dense_operator_is_refused(alg21, b21, rep_b, config_instance,
                                            monkeypatch):
    # one block per pattern is built at a time, so the blocks need
    # 8 (11 |G| + 5 m^2) bytes: the index arrays, the largest block (width m)
    # and its rref.  b z is one block of G (m = 21); b has the block B
    # (m = q = 3) and the orbit(a) B of width q^2 = 9
    need, need_fb = 8 * (11 * 21 + 5 * 21 ** 2), 8 * (11 * 21 + 5 * 9 ** 2)
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: need - 1)
    z = alg21.one() + alg21.elem(rep_b.kernel.basis[0])
    with pytest.raises(BudgetExceeded, match=f"about {need} bytes") as err:
        centralizer_in_gamma(alg21, b21 * z)
    assert err.value.exit_code == 4
    assert centralizer_in_gamma(alg21, b21).dim == 6  # the double cosets of B still fit
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: need)
    assert centralizer_in_gamma(alg21, b21 * z).dim <= 6
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: need_fb - 1)
    with pytest.raises(BudgetExceeded, match=f"about {need_fb} bytes"):
        centralizer_in_gamma(alg21, b21)
    # over GF(7^2) the batch update's f^2 = 4 digit-plane products, held
    # twice, and their f = 2 digits add 8 (2 f^2 + f) m^2 bytes: one block of
    # G (m = 147) on gf49, and its tracemalloc peak stays inside that
    need = 8 * (11 * 147 + (5 + 2 * 4 + 2) * 147 ** 2)
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: need)
    alg = config_instance("gf49").algebra
    b = alg.basis(alg.group.b())
    x = b * (alg.one() + alg.elem(centralizer_in_gamma(alg, b).kernel.basis[0]))
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(BudgetExceeded, match=f"about {need} bytes"):
        centralizer_in_gamma(alg, x)
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: need)
    tracemalloc.start()
    try:
        dim = centralizer_in_gamma(alg, x).dim
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < dim <= 48 and peak <= need


def test_oversized_lazy_basis_is_refused(config_instance, monkeypatch):
    # on gf49 (|G| = 147, f = 2) the 48 dense rows of C(b) and its 3 bound
    # rows need 8 ((48 + 3) (147 + 11 * 3 + 3 + 4) + 147 + e) + 8192 bytes:
    # the rows; their rho correction on the 3 columns of B, where the bound
    # rows lie, at c = 1 + f + 2 f^2 = 11 entries a row and column; E (3
    # entries a row) and four row numberings; the blocks' ascending columns;
    # the e = 3 * 3 + 4 * 3 * 9 entries of the kernels placed (B's, and the
    # orbit(a) B one re-echeloned in each of its 4 distinct column orders);
    # and 8 KiB of array headers.  The blocks themselves need
    # 8 (11 * 147 + 15 * 9^2)
    need = 8 * ((48 + 3) * (147 + 11 * 3 + 3 + 4) + 147 + 3 * 3 + 4 * 3 * 9) + 8192
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: need - 1)
    alg = config_instance("gf49").algebra
    rep = centralizer_in_gamma(alg, alg.basis(alg.group.b()))
    assert (rep.dim, rep.skew_dim, rep.star_closed) == (48, 24, True)
    with pytest.raises(BudgetExceeded, match=f"about {need} bytes") as err:
        rep.kernel.basis
    assert err.value.exit_code == 4
    assert cli.main(["sample-disjoint", "--config", str(CONFIGS / "gf49.cfg"),
                     "--trials", "1"]) == 4
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: need)
    assert rep.kernel.basis.shape == (48, 147)


def test_index_and_pair_arrays_are_refused_before_they_are_built(config_instance,
                                                                 monkeypatch):
    # on c31sq (|G| = 4805, q = 5): the involution's pairs need 25 (|G| - q)
    # + 4096 bytes, the pairs of S1 and S2 12 |G| + 8192, and the double
    # cosets of b (one generator) 8 * 13 |G|; each refusal comes before its
    # arrays, and at its estimate the work runs
    inst = config_instance("c31sq")
    alg, n = inst.algebra, inst.algebra.order
    b = alg.basis(alg.group.b())
    index_need = 8 * 13 * n
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: index_need - 1)
    solve = unitgroup._double_cosets

    def refuse(alg, x):
        raise AssertionError("the double cosets were built")

    monkeypatch.setattr(unitgroup, "_double_cosets", refuse)
    with pytest.raises(BudgetExceeded, match=f"index arrays need about {index_need} bytes"):
        centralizer_in_gamma(alg, b)
    monkeypatch.setattr(unitgroup, "_double_cosets", solve)
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: index_need)
    assert centralizer_in_gamma(alg, b).dim == 31 ** 2 - 1
    inst = config_instance("c31sq")
    alg = inst.algebra
    for need, cache in ((25 * (n - 5) + 4096, "_star_pairs"), (12 * n + 8192, "_sym_skew")):
        monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(BudgetExceeded, match=f"pairs.* need about {need} bytes"):
            inst.s2_dim
        assert getattr(alg, cache) is None
        monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: need)
        alg.gamma_star_pairs()
    assert inst.s2_dim == (n - 5) // 2


@pytest.mark.parametrize("name", sorted(c.stem for c in CONFIGS.glob("*.cfg")))
def test_pair_estimates_cover_their_builds(name, config_instance, monkeypatch):
    # the refusals' estimates cover the tracemalloc peaks of the involution's
    # pairs and of S1 and S2, with at most 30 % and 8 KB to spare: both are
    # within 0.1 % on c31four
    needs, peaks = [], []
    refuse = algebra.refuse_past_room
    monkeypatch.setattr(algebra, "refuse_past_room",
                        lambda need, what: needs.append(need) or refuse(need, what))
    alg = config_instance(name).algebra
    for build in (alg.gamma_star_pairs, alg.sym_skew_subspaces):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(needs) == 2
    for need, peak in zip(needs, peaks):
        assert peak <= need <= 1.3 * peak + 8192


@pytest.mark.parametrize("name, expr", [("c31sq", "b"), ("c31sq", "b + a1"),
                                        ("c31sq", "b + a1 + a2"), ("c197", "b + a1")])
def test_double_coset_estimate_covers_the_index_arrays(name, expr, config_instance,
                                                       monkeypatch):
    # the estimate covers the tracemalloc peak of the double cosets and their
    # canonical blocks with at most 40 % to spare: 1.33x for b on c31sq, where
    # the 13 arrays of the canonical blocks count, 1.07x for its three
    # generators b, a1 and a2, and 1.04x for c197's one block of all of G
    inst = config_instance(name)
    alg, x = inst.algebra, parse_element(expr, inst)
    alg.gamma_star_pairs()
    needs = []

    def record(need, what):
        needs.append(need)
        raise BudgetExceeded("recorded")

    monkeypatch.setattr(unitgroup, "refuse_past_room", record)
    with pytest.raises(BudgetExceeded, match="recorded"):
        centralizer_in_gamma(alg, x)
    tracemalloc.start()
    try:
        unitgroup._canonical_blocks(alg, alg.star_perm, *unitgroup._double_cosets(alg, x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (need,) = needs
    assert peak <= need <= 1.4 * peak


def test_address_space_limit_is_refused_up_front():
    # a soft RLIMIT_AS a little above what the process has mapped leaves too
    # little for the c31sq blocks of b + a1 (one of 155, six of 775, built
    # one at a time): exit 4 with the estimate, not a MemoryError deep in
    # the solver
    need = 8 * (11 * 4805 + 5 * 775 ** 2)
    child = textwrap.dedent(f"""
        import resource, sys
        from cqunits import cli
        argv = ["class-length", "b + a1", "--config", {str(CONFIGS / "c31sq.cfg")!r}, "--json"]
        with open("/proc/self/statm") as fh:
            mapped = int(fh.read().split()[0]) * resource.getpagesize()
        resource.setrlimit(resource.RLIMIT_AS, (mapped + {need // 2}, resource.RLIM_INFINITY))
        sys.exit(cli.main(argv))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(CONFIGS.parent / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 4, run.stderr + run.stdout
    assert f"about {need} bytes" in run.stdout + run.stderr
    assert "RLIMIT_AS" in run.stdout + run.stderr


def test_room_under_address_space_limit_is_never_negative(monkeypatch):
    # with less left under RLIMIT_AS than the 32 MB OpenBLAS maps at its first
    # gemm, work that runs gemms is charged that buffer down to 0 bytes; a
    # group build runs none and is not charged
    monkeypatch.setattr(_memory, "_left_under_rlimit", lambda: 12 << 20)
    _memory.refuse_past_room(12 << 20, "the index arrays")
    with pytest.raises(BudgetExceeded, match="more than the 0 bytes of address space left"):
        _memory.refuse_past_memory(1, "the commutator blocks")


@pytest.mark.parametrize("cap_kib", [240000, 250000])
def test_address_space_cap_never_ends_in_a_memory_error(cap_kib):
    # caps in the band where the 32 MB OpenBLAS maps at its first gemm decides
    # between room and none (with two BLAS threads, as the benchmark runs):
    # the run finishes or is refused up front (exit 0 or 4), never exit 5
    child = textwrap.dedent(f"""
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, ({cap_kib * 1024}, resource.RLIM_INFINITY))
        from cqunits import cli
        argv = ["class-length", "b + a1", "--config", {str(CONFIGS / "c31sq.cfg")!r}, "--json"]
        sys.exit(cli.main(argv))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(filter(None, [
        str(CONFIGS.parent / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode in (0, 4), run.stderr + run.stdout


@pytest.mark.parametrize("name", ["gf49", "c31sq"])
def test_lazy_basis_estimate_covers_its_build(name, config_instance, monkeypatch):
    # tracemalloc sees numpy's buffers: one build of C(b) or S2 peaks at the
    # estimate plus at most 10 % of bookkeeping; on c31sq so does C(b + a1),
    # whose rows are rho-corrected on a block of 155 and whose six blocks of
    # 775 are re-echeloned in six column orders
    estimates = []
    refuse = algebra.refuse_past_memory
    monkeypatch.setattr(algebra, "refuse_past_memory",
                        lambda need, what: estimates.append(need) or refuse(need, what))
    inst = config_instance(name)
    alg = inst.algebra
    # a throwaway read first, so first-use caches of rref and the field are
    # not in the measured peaks
    centralizer_in_gamma(alg, alg.basis(alg.group.b(2))).kernel.basis
    subs = [centralizer_in_gamma(alg, alg.basis(alg.group.b())).kernel,
            alg.sym_skew_subspaces()[1]]
    if name == "c31sq":
        subs.append(centralizer_in_gamma(alg, parse_element("b + a1", inst)).kernel)
    for sub in subs:
        tracemalloc.start()
        try:
            sub.basis
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimates[-1] <= peak <= 1.1 * estimates[-1]


def test_c31sq_rho_coupled_rows_are_pinned(config_instance):
    # the rows of C(b + a1) on c31sq: seven blocks, six column orders
    # re-echeloned, and the rho correction on the block of 155
    inst = config_instance("c31sq")
    kernel = centralizer_in_gamma(inst.algebra, parse_element("b + a1", inst)).kernel
    basis = kernel.basis
    assert basis.shape == (960, 4805) and basis.dtype == np.int64 and basis.flags.c_contiguous
    assert hashlib.sha256(basis.tobytes()).hexdigest() == (
        "80df63f89bd944bce0445b7c095213f0f5efe9f9c2dd21fa8ad40d81c90c727b")
    assert hashlib.sha256(np.asarray(kernel.pivots, dtype=np.int64).tobytes()).hexdigest() == (
        "838034b5b78a5fa003fc610e4746c7424eef43c75ecff938e92abbd62b47f82e")


def test_block_leak_is_an_error(alg21, b21, monkeypatch):
    # a term that leaves its double coset means the block structure is wrong:
    # every element its own block is closed under the involution, but b h
    # leaves the block of h
    monkeypatch.setattr(unitgroup, "_double_cosets",
                        lambda alg, x: (np.arange(alg.order), np.arange(alg.order)))
    with pytest.raises(MathDomainError, match="leaves its double coset"):
        centralizer_in_gamma(alg21, b21)


def test_every_reader_checks_the_involution(f7, g21, rep_b):
    # an identity "involution" on c7 has fixed points; before the one check
    # the dense path read it unchecked and reported sym_dim 8, skew_dim 0
    inst = Instance(f7, 3, g21)
    alg = inst.algebra
    alg.gamma_star_perm = lambda: np.arange(alg.gamma_dim())
    with pytest.raises(MathDomainError, match="does not pair"):
        centralizer_in_gamma(alg, alg.basis(alg.group.generator(1)))
    with pytest.raises(MathDomainError, match="does not pair"):
        inst.s2_dim
    # rep_b (same group, unpatched algebra) isolates the read of dim S2
    with pytest.raises(MathDomainError, match="does not pair"):
        class_length(alg, alg.basis(alg.group.b()), starred=True, report=rep_b)


@pytest.mark.parametrize("name", ["c7", "gf49"])
def test_starred_class_length_counts_pairs(name, config_instance, monkeypatch):
    # the reference reads dim S2 off the rows of S2, built from its blocks
    ref = config_instance(name).algebra
    b = ref.basis(ref.group.b())
    expect = ref.field.f * (ref.sym_skew_subspaces()[1].basis.shape[0]
                            - centralizer_in_gamma(ref, b).skew_dim)

    def refuse(self):
        raise AssertionError("S1/S2 reached")

    monkeypatch.setattr(GroupAlgebra, "sym_skew_subspaces", refuse)
    alg = config_instance(name).algebra
    assert class_length(alg, alg.basis(alg.group.b()), starred=True).exponent == expect


def assert_matches_reference(alg, x, max_entries=None):
    """dims, slices and star closure against the gamma-coordinate solver, and
    the lazy basis bit for bit with its pivots when it has at most
    max_entries entries (default: always)."""
    rep, ref = centralizer_in_gamma(alg, x), ReferenceCentralizer(alg, x)
    assert ((rep.dim, rep.sym_dim, rep.skew_dim, rep.star_closed)
            == (ref.dim, ref.sym_dim, ref.skew_dim, ref.star_closed))
    if max_entries is None or rep.dim * alg.order <= max_entries:
        assert rep.kernel == ref.kernel


@pytest.mark.parametrize("name", ["c7", "c31sq", "c61sq", "gf49", "gf49_c7cube",
                                  "gf81_c3e8", "c43cube"])
def test_b_matches_the_gamma_coordinate_solver(name, config_instance):
    # C(b) on every counting config against the orbit-block solver that the
    # double cosets replaced; rows where C(b) has at most 5 * 10^6 entries
    # (c7, c31sq, gf49, gf49_c7cube)
    inst = config_instance(name)
    assert analyze(inst).branch == "counting"
    alg = inst.algebra
    b = alg.basis(alg.group.b())
    assert_matches_reference(alg, b, max_entries=5 * 10 ** 6)


@pytest.mark.parametrize("name", ["c7", "c19", "f11c5", "gf49", "gf49_c7cube"])
@pytest.mark.parametrize("expr", ["b + a1", "1 + a1"])
def test_units_off_fb_match_the_gamma_coordinate_solver(name, expr, config_instance):
    # b + a1 generates a proper subgroup on the C_p^2 and C_p^3 configs and
    # G on the cyclic ones; 1 + a1 generates <a1>, so B is not in H and the
    # rho correction couples the blocks
    inst = config_instance(name)
    assert_matches_reference(inst.algebra, parse_element(expr, inst))
