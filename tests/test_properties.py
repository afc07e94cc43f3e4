"""Written-down bases against the general Subspace path, on random instances.

gamma, S1, S2 and the centralizer kernels are built in canonical form
without row reduction; the reference is `Subspace(field, rows)`, which
row reduces whatever rows it is given.  Kernels of units in FB come from
the orbit blocks; they are also compared with the kernel of the dense
operator.  Instances are drawn with p <= 13, q | p - 1, A = C_p or C_p^2
and action diag(w^e1, w^e2).
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cqunits import _linalg, cli
from cqunits.algebra import Subspace
from cqunits.group import orbits
from cqunits.unitgroup import (_conjugation_matrix_gamma, centralizer_in_gamma,
                               random_fb_unit_coeffs,
                               random_unit_vfg, random_unitary_vfg,
                               sqrt_relation_check)
from cqunits.verifier import make_instance

# full-support units make the conjugation operator cost |G|^3 (times f);
# they are only drawn on the small instances
FULL_SUPPORT_MAX_COST = 150

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GF49_CFG = "p=7\nf=2\nq=3\nA=7,7\naction=2,0;0,4\n"


def assert_reference(sub: Subspace, rows=None):
    """`sub` is bit-identical to the general path on `rows` (default: its basis)."""
    ref = Subspace(sub.field, sub.basis if rows is None else rows)
    assert sub.pivots == ref.pivots
    assert np.array_equal(sub.basis, ref.basis)


def check_gamma_slices(alg):
    gamma = alg.gamma_basis()
    s1, s2 = alg.sym_skew_subspaces()
    assert_reference(gamma)
    # S1, S2 against the symmetric/skew parts of gamma under the ambient star
    rows = gamma.basis
    starred = rows[:, alg.group.inv_perm]
    assert_reference(s1, alg.field.vadd(rows, starred))
    assert_reference(s2, alg.field.vsub(rows, starred))
    assert s1.dim == s2.dim == alg.gamma_dim() // 2
    return s1, s2


def dense_kernel(alg, x) -> Subspace:
    """The centralizer kernel from the dense |G|^2 operator, for any unit x."""
    K = _linalg.right_kernel(alg.field, _conjugation_matrix_gamma(alg, x, alg.invert(x)))
    return Subspace(alg.field, alg.gamma_expand(K), reduced=True)


def check_kernel(alg, x, s1, s2):
    rep = centralizer_in_gamma(alg, x)
    assert_reference(rep.kernel)
    if not x.coeffs[alg.q:].any():  # the orbit-block path against the dense one
        assert rep.kernel == dense_kernel(alg, x)  # basis and pivots
    assert rep.sym_dim == rep.kernel.intersect(s1).dim
    assert rep.skew_dim == rep.kernel.intersect(s2).dim
    return rep


def order_q_root(p, q):
    return next(w for w in range(2, p) if pow(w, q, p) == 1)


@st.composite
def instances(draw):
    p, q = draw(st.sampled_from([(7, 3), (11, 5), (13, 3)]))
    rank = draw(st.integers(1, 2))
    exps = draw(st.lists(st.integers(1, q - 1), min_size=rank, max_size=rank))
    w = order_q_root(p, q)
    action = [[pow(w, e, p) if i == j else 0 for j, e in enumerate(exps)]
              for i in range(rank)]
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return make_instance(p, 1, q, [p] * rank, action), seed


def sample_units(alg, rng):
    """1, b, b^2, a random and a random unitary unit: lifted from FB, and on
    small instances also with full support in V(FG) and V*(FG)."""
    units = {"one": alg.one(), "b": alg.basis(alg.group.b()),
             "b2": alg.basis(alg.group.b(2)),
             "fb": alg.from_b_coeffs(random_fb_unit_coeffs(alg, rng)),
             "fb_unitary": alg.from_b_coeffs(random_fb_unit_coeffs(alg, rng, unitary=True))}
    if alg.order * alg.field.f <= FULL_SUPPORT_MAX_COST:
        units["vfg"] = random_unit_vfg(alg, rng)
        units["vfg_unitary"] = random_unitary_vfg(alg, rng)
    return units


def check_all(alg, seed):
    s1, s2 = check_gamma_slices(alg)
    reps = {name: check_kernel(alg, x, s1, s2)
            for name, x in sample_units(alg, np.random.default_rng(seed)).items()}
    assert reps["b"].dim == alg.q * orbits(alg.group).l
    for name in ("fb_unitary", "vfg_unitary"):
        if name in reps:
            rep = reps[name]
            assert rep.star_closed and rep.sym_dim + rep.skew_dim == rep.dim
    assert sqrt_relation_check(alg, reps["fb_unitary"].x, reps["fb_unitary"])


@settings(max_examples=10, deadline=None, database=None)
@given(instances())
def test_written_down_bases_match_reference(case):
    inst, seed = case
    check_all(inst.algebra, seed)


@pytest.mark.parametrize("name", ["c7", "f11c5", "c19", "gf49"])
def test_config_bases_match_reference(name):
    text = GF49_CFG if name == "gf49" else (CONFIGS / f"{name}.cfg").read_text()
    check_all(cli.parse_config(text).algebra, seed=7)


def test_gf49_block_weights_leave_the_prime_field():
    # the gf49 case above must exercise block weights x_i y_k outside GF(7)
    alg = cli.parse_config(GF49_CFG).algebra
    fld = alg.field
    units = sample_units(alg, np.random.default_rng(7))
    weights = {fld.mul(int(xi), int(yk))
               for name in ("fb", "fb_unitary")
               for xi in units[name].coeffs[:alg.q]
               for yk in alg.invert(units[name]).coeffs[:alg.q]}
    assert any(w >= fld.p for w in weights)


def test_inst31_block_kernel_of_b_matches_dense(inst31):
    # the 192 orbit blocks of b against the one 4800 x 4800 dense operator
    alg = inst31.algebra
    b = alg.basis(alg.group.b())
    rep = inst31.b_centralizer
    assert rep.kernel == dense_kernel(alg, b)
    assert (rep.dim, rep.sym_dim, rep.skew_dim) == (960, 480, 480)
