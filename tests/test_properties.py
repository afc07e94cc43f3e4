"""Written-down bases against the general Subspace path, on random instances.

gamma, S1, S2 and the centralizer kernels are built in canonical form
without row reduction, and the involution on gamma is checked against
`AlgElem.star`; the reference is `Subspace(field, rows)`, which
row reduces whatever rows it is given.  S1, S2 and the kernels are kept
in block form: their `dim` is checked before any rows exist, and the rows
built on first read against the same subspaces written down densely
(`slice_rows`, `eager_rows`).  Kernels of units in FB come from
the orbit blocks; they are also compared with the kernel of the same
builder over one block of all of gamma, and each orbit block entrywise
with that one block.  The FFT product is checked against the full-table
product, or against `mul_reference` over GF(p^f) with f > 1, which has no
table.  Instances are drawn with p <= 13, q | p - 1, A = C_p, C_p^2 or
(for p = 7) C_49 x C_7, and an upper-triangular action whose diagonal
entries have order q; so sigma need not act on the characters of A
coordinate by coordinate.
"""


from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import mul_reference

from cqunits import _linalg as L
from cqunits.algebra import Subspace
from cqunits.group import orbits
from cqunits.unitgroup import (_block_centralizer, _commutator_blocks, _orbit_blocks,
                               centralizer_in_gamma, random_fb_unit_coeffs,
                               random_unit_vfg, random_unitary_vfg)
from cqunits.verifier import make_instance
from oracles import gamma_basis, intersect, sqrt_relation_check

# full-support units are one block of all of gamma: its commutator
# g -> x g - g x (no inverse) costs |G|^2, but its rref costs |G|^3; they
# are only drawn on the small instances
FULL_SUPPORT_MAX_COST = 150


def assert_reference(sub: Subspace, rows=None):
    """`sub` is bit-identical to the general path on `rows` (default: its basis)."""
    ref = Subspace(sub.field, sub.basis if rows is None else rows)
    assert sub.pivots == ref.pivots
    assert np.array_equal(sub.basis, ref.basis)


def assert_lazy_rows(sub: Subspace, ref: Subspace):
    """`sub` is in block form with no rows built yet; its `dim` matches the
    rows built on first read, which equal `ref` in basis and pivots."""
    assert sub.blocks is not None and "_echelon" not in vars(sub)
    dim = sub.dim
    assert sub.basis.shape[0] == dim
    assert sub.pivots == ref.pivots
    assert np.array_equal(sub.basis, ref.basis)


def eager_rows(sub: Subspace) -> Subspace:
    """The block form's rows placed one block at a time (`np.ix_`), sorted by
    pivot descending and expanded to FG, as the centralizer solver wrote
    them down before the rows were built lazily."""
    alg, coords, kernels, which = sub.blocks
    piv = np.concatenate([coords[t][L.right_pivots(kernels[u])] for t, u in enumerate(which)])
    dest = np.empty(piv.size, dtype=np.int64)
    dest[np.argsort(-piv)] = np.arange(piv.size)
    K = np.zeros((piv.size, alg.gamma_dim()), dtype=np.int64)
    r = 0
    for t, u in enumerate(which):
        d = kernels[u].shape[0]
        K[np.ix_(dest[r:r + d], coords[t])] = kernels[u]
        r += d
    return Subspace(alg.field, alg.gamma_expand(K), reduced=True)


def slice_rows(alg, sign) -> Subspace:
    """S1 (sign 1) or S2 (sign the code of -1) written down densely over the pairs
    (hi, pi[hi]), as `sym_skew_subspaces` did before its block form."""
    pi, hi = alg.gamma_star_pairs()
    K = np.zeros((hi.size, pi.size), dtype=np.int64)
    K[np.arange(hi.size), hi] = 1
    K[np.arange(hi.size), pi[hi]] = sign
    return Subspace(alg.field, alg.gamma_expand(K), reduced=True)


def check_gamma_slices(alg):
    gamma = gamma_basis(alg)
    s1, s2 = alg.sym_skew_subspaces()
    assert_lazy_rows(s1, slice_rows(alg, 1))
    assert_lazy_rows(s2, slice_rows(alg, alg.field.neg(1)))
    assert_reference(gamma)
    # S1, S2 against the symmetric/skew parts of gamma under the ambient star
    rows = gamma.basis
    starred = np.stack([alg.elem(row).star().coeffs for row in rows])
    assert_reference(s1, alg.field.vadd(rows, starred))
    assert_reference(s2, alg.field.vsub(rows, starred))
    assert s1.dim == s2.dim == alg.gamma_dim() // 2
    assert alg.gamma_star_pairs()[1].size == s2.dim
    # gamma_star_perm() is the permutation AlgElem.star induces on gamma's rows
    coords = np.array(gamma.pivots) - alg.q  # row t is (a-1)b^j at coordinate coords[t]
    row_of = np.empty_like(coords)
    row_of[coords] = np.arange(coords.size)
    assert np.array_equal(starred, rows[row_of[alg.gamma_star_perm()[coords]]])
    return s1, s2


def one_block(alg) -> np.ndarray:
    """The partition of gamma into one block, the layout for any unit."""
    return np.arange(alg.gamma_dim())[None, :]


def placed_operator(alg, x, coords) -> np.ndarray:
    """The blocks of g -> x g - g x over the partition coords, placed at
    their coordinates in one gamma x gamma matrix."""
    dim = alg.gamma_dim()
    l, m = coords.shape
    block_of = np.empty(dim, dtype=np.int64)
    block_of[coords] = np.arange(l)[:, None]
    local = np.empty(dim, dtype=np.int64)
    local[coords] = np.arange(m)
    blocks = _commutator_blocks(alg, x, coords, block_of, local)
    placed = np.zeros((dim, dim), dtype=np.int64)
    for t in range(l):
        placed[np.ix_(coords[t], coords[t])] = blocks[t]
    return placed


def dense_kernel(alg, x) -> Subspace:
    """The centralizer kernel from one block of all of gamma, for any unit x."""
    return _block_centralizer(alg, x, one_block(alg))[0]


def assert_blocks_match_dense(alg, x):
    """The orbit blocks of x in FB, placed at their coordinates, are the
    one-block operator entry for entry, with nothing off the blocks."""
    assert np.array_equal(placed_operator(alg, x, _orbit_blocks(alg)),
                          placed_operator(alg, x, one_block(alg)))


def check_kernel(alg, x, s1, s2):
    rep = centralizer_in_gamma(alg, x)
    assert rep.dim == rep.kernel.dim
    assert_lazy_rows(rep.kernel, eager_rows(rep.kernel))
    assert_reference(rep.kernel)
    if not x.coeffs[alg.q:].any():  # the orbit blocks against one block
        assert_blocks_match_dense(alg, x)
        assert rep.kernel == dense_kernel(alg, x)  # basis and pivots
    assert rep.sym_dim == intersect(rep.kernel, s1).dim
    assert rep.skew_dim == intersect(rep.kernel, s2).dim
    return rep


def order_q_root(p, q):
    return next(w for w in range(2, p) if pow(w, q, p) == 1)


@st.composite
def instances(draw):
    p, q = draw(st.sampled_from([(7, 3), (11, 5), (13, 3)]))
    factors = draw(st.sampled_from([[p], [p, p]] + ([[p * p, p]] if p == 7 else [])))
    exps = draw(st.lists(st.integers(1, q - 1), min_size=len(factors), max_size=len(factors)))
    w = order_q_root(p, q)
    # w^e lifted to an element of order q mod p^k is (w^e)^(p^(k-1))
    action = [[pow(w, e * n // p, n) if i == j else 0 for j in range(len(factors))]
              for i, (e, n) in enumerate(zip(exps, factors))]
    if len(factors) == 2 and exps[0] != exps[1]:
        # sigma(a2) gains a1^u; u n2 must vanish mod n1, and sigma^q = 1
        # needs distinct diagonal entries mod p
        action[0][1] = draw(st.integers(0, p - 1)) * (factors[0] // factors[1])
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return make_instance(p, 1, q, factors, action), seed


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


def check_fft_product(alg, seed):
    """_mul_fft against the full-table product (`mul_reference` for f > 1,
    which builds no table), associative, with 1 as identity."""
    rng = np.random.default_rng(seed)
    fft = alg._mul_fft
    x, y, z = (rng.integers(0, alg.field.size, alg.order) for _ in range(3))
    reference = alg._mul_table_path if alg.field.f == 1 else partial(mul_reference, alg)
    if alg.field.f > 1:
        assert alg._mul_flat is None
    assert np.array_equal(fft(x, y), reference(x, y))
    assert np.array_equal(fft(x, x), reference(x, x))  # a square transforms x once
    assert np.array_equal(fft(fft(x, y), z), fft(x, fft(y, z)))
    one = alg.one().coeffs
    assert np.array_equal(fft(x, one), x) and np.array_equal(fft(one, x), x)


@settings(max_examples=10, deadline=None, database=None)
@given(instances())
def test_fft_product_matches_table(case):
    inst, seed = case
    check_fft_product(inst.algebra, seed)


@pytest.mark.parametrize("name", ["c7", "f11c5", "c19", "gf49"])
def test_config_fft_product_matches_table(name, config_instance):
    for seed in range(5):
        check_fft_product(config_instance(name).algebra, seed)


@settings(max_examples=10, deadline=None, database=None)
@given(instances())
def test_written_down_bases_match_reference(case):
    inst, seed = case
    check_all(inst.algebra, seed)


@pytest.mark.parametrize("name", ["c7", "f11c5", "c19", "gf49"])
def test_config_bases_match_reference(name, config_instance):
    check_all(config_instance(name).algebra, seed=7)


def test_gf49_block_weights_leave_the_prime_field(config_instance):
    # the gf49 case above must exercise block weights x_i outside GF(7)
    alg = config_instance("gf49").algebra
    units = sample_units(alg, np.random.default_rng(7))
    weights = {int(xi) for name in ("fb", "fb_unitary") for xi in units[name].coeffs[:alg.q]}
    assert any(w >= alg.field.p for w in weights)


@pytest.mark.parametrize("name", ["c7", "gf49"])
def test_dense_operator_matches_products(name, config_instance):
    # column t of the operator is x e - e x for the gamma basis row e at
    # coordinate t, read off its a != e coefficients; every unit in the
    # one-block layout, the units in FB also in the orbit-block layout
    alg = config_instance(name).algebra
    rng = np.random.default_rng(7)
    b = alg.basis(alg.group.b())
    z = alg.one() + alg.elem(centralizer_in_gamma(alg, b).kernel.basis[0])
    units = {"vfg": random_unit_vfg(alg, rng), "vfg_unitary": random_unitary_vfg(alg, rng),
             "bz": b * z}
    in_fb = {"one": alg.one(), "b": b, "b2": b * b,
             "fb": alg.from_b_coeffs(random_fb_unit_coeffs(alg, rng))}
    gamma = gamma_basis(alg)
    coords = np.array(gamma.pivots) - alg.q
    for tag, x in {**units, **in_fb}.items():
        expect = np.zeros((alg.gamma_dim(), alg.gamma_dim()), dtype=np.int64)
        for t, row in zip(coords, gamma.basis):
            e = alg.elem(row)
            expect[:, t] = (x * e - e * x).coeffs[alg.q:]
        assert np.array_equal(placed_operator(alg, x, one_block(alg)), expect), tag
        if tag in in_fb:
            assert np.array_equal(placed_operator(alg, x, _orbit_blocks(alg)), expect), tag


def test_inst31_block_kernel_of_b_matches_dense(inst31):
    # the 192 orbit blocks of b against one 4800 x 4800 block
    alg = inst31.algebra
    b = alg.basis(alg.group.b())
    rep = inst31.b_centralizer
    assert rep.kernel == dense_kernel(alg, b)
    assert (rep.dim, rep.sym_dim, rep.skew_dim) == (960, 480, 480)
