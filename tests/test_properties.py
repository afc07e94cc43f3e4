"""Written-down bases against the general Subspace path, on random instances.

gamma, S1, S2 and the centralizer kernels are built in canonical form
without row reduction, and the involution on gamma is checked against
`AlgElem.star`; the reference is `Subspace(field, rows)`, which
row reduces whatever rows it is given.  S1, S2 and the kernels are kept
in block form: their `dim` is checked before any rows exist, and the rows
built on first read against the same subspaces written down densely by
another route (`slice_rows`, `eager_rows`: the block kernels placed one
block at a time and met with gamma).  Kernels come from the double cosets
of H = <supp x>, solved once per pattern in canonical coordinates; those
coordinates are checked against the walk over (h_i, h_j) that defines them,
and the kernels are also compared with the kernel of the same solver over
one block of all of G, each pattern's block, placed at every block of the
pattern, entrywise with that one block, and dims, slices, star closure and
rows with the gamma-coordinate solver the double cosets replaced
(`ReferenceCentralizer`).  The units drawn include 1 + a1, supported in A,
b + a1 and b + a_r, which on C_p^2 lie in a proper subgroup containing b,
and b z for z in 1 + C(b).  The FFT product is checked
against the full-table product, or against `mul_reference` over GF(p^f)
with f > 1, which has no table.  Instances are drawn with p <= 13,
q | p - 1, A = C_p, C_p^2 or (for p = 7) C_49 x C_7, and an
upper-triangular action whose diagonal entries have order q; so sigma need
not act on the characters of A coordinate by coordinate.
"""


from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import mul_reference

from cqunits.algebra import Subspace
from cqunits.group import orbits
from cqunits.unitgroup import (_block_centralizer, _canonical_blocks, _commutator_block,
                               _double_cosets, centralizer_in_gamma, random_fb_unit_coeffs,
                               random_unit_vfg, random_unitary_vfg)
from cqunits.verifier import make_instance
from oracles import (ReferenceCentralizer, gamma_basis, gamma_expand, intersect,
                     sqrt_relation_check, written_down)

# full-support units are one block of all of G: its commutator
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


def eager_rows(alg, sub: Subspace) -> Subspace:
    """The block form of `sub`, a subspace of alg's gamma, written down densely
    by another route: the block kernels placed one block at a time (their sum W
    must be direct), then the meet of W with gamma (`intersect`) instead of the
    rho correction."""
    n, q, groups, kernels, rank = sub.blocks
    assert (n, q) == (alg.order, alg.q)
    rows = []
    for C, which in groups.values():
        for D, u in zip(C, np.asarray(which).tolist()):
            W = np.zeros((kernels[u].shape[0], alg.order), dtype=np.int64)
            W[:, D] = kernels[u]
            rows.append(W)
    W = Subspace(alg.field, np.vstack(rows))
    assert W.dim == sum(r.shape[0] for r in rows)
    meet = intersect(W, gamma_basis(alg))
    assert meet.dim == W.dim - rank
    return meet


def slice_rows(alg, sign) -> Subspace:
    """S1 (sign 1) or S2 (sign the code of -1) written down densely over the pairs
    (hi, pi[hi]) of gamma coordinates, as `sym_skew_subspaces` did before its
    block form."""
    pi, hi = alg.gamma_star_pairs()
    K = np.zeros((hi.size, pi.size), dtype=np.int64)
    K[np.arange(hi.size), hi] = 1
    K[np.arange(hi.size), pi[hi]] = sign
    return written_down(alg.field, gamma_expand(alg, K))


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


def involution(alg) -> np.ndarray:
    """g -> g^-1 on the indices of G, as the solver reads it."""
    return np.concatenate([-np.arange(alg.q) % alg.q, alg.gamma_star_pairs()[0] + alg.q])


def one_block(alg) -> tuple[np.ndarray, np.ndarray]:
    """The double and left cosets of H = G: one block of all of G, a partition
    every unit respects, in ascending order."""
    return np.zeros(alg.order, dtype=np.int64), np.zeros(alg.order, dtype=np.int64)


def placed_operator(alg, x, label, cosets) -> np.ndarray:
    """The blocks of y -> x y - y x over the blocks of label, as the solver
    builds them: one per pattern, in canonical coordinates, placed at the group
    indices of every block of that pattern in one |G| x |G| matrix."""
    cols, starts, local, _, _, which = _canonical_blocks(alg, involution(alg), label, cosets)
    ends = np.append(starts[1:], alg.order)
    blocks = [_commutator_block(alg, x, cols[starts[r]:ends[r]], local)
              for r in np.unique(which, return_index=True)[1]]
    placed = np.zeros((alg.order, alg.order), dtype=np.int64)
    for t, u in enumerate(which.tolist()):
        D = cols[starts[t]:ends[t]]
        placed[np.ix_(D, D)] = blocks[u]
    return placed


def dense_kernel(alg, x) -> Subspace:
    """The centralizer kernel from one block of all of G, for any unit x."""
    return _block_centralizer(alg, x, involution(alg), *one_block(alg))[0]


def assert_blocks_match_dense(alg, x):
    """The double-coset blocks of x, one per pattern placed at the group indices
    of each block of it, are the one-block operator entry for entry, with
    nothing off the blocks."""
    assert np.array_equal(placed_operator(alg, x, *_double_cosets(alg, x)),
                          placed_operator(alg, x, *one_block(alg)))


def assert_canonical_blocks(alg, x):
    """The solver's coordinates of the double cosets of H = <supp x> against a
    written-down walk over (i, j): block t is the first occurrences of
    h_i g_t h_j in lexicographic order, g_t its first element, the partner's
    g_t^-1 where it comes later.  Returns (regular blocks other than H, other
    blocks, self-paired blocks)."""
    G, star = alg.group, involution(alg)
    label, cosets = _double_cosets(alg, x)
    cols, starts, local, block_of, partner, _ = _canonical_blocks(alg, star, label, cosets)
    ends = np.append(starts[1:], alg.order)
    H = np.flatnonzero(label == 0)
    assert np.array_equal(cols[:H.size], H)  # H is block 0, in ascending order
    assert set(np.flatnonzero(x.coeffs)) <= set(H.tolist())
    counts = [0, 0, 0]
    for t in range(starts.size):
        g, D = int(cols[starts[t]]), cols[starts[t]:ends[t]]
        walk = G.mul_idx(G.mul_idx(H[:, None], g), H).ravel()  # over (i, j), row-major
        assert np.array_equal(D, walk[np.sort(np.unique(walk, return_index=True)[1])])
        assert np.array_equal(local[D], np.arange(D.size)) and np.all(block_of[D] == t)
        assert np.array_equal(np.sort(D), np.flatnonzero(label == label[g]))
        p = int(partner[t])
        assert block_of[star[g]] == p
        if p < t:
            assert cols[starts[p]] == star[g]
        counts[0] += t > 0 and D.size == H.size ** 2
        counts[1] += t > 0 and D.size < H.size ** 2
        counts[2] += p == t
    return counts


def check_kernel(alg, x, s1, s2):
    rep = centralizer_in_gamma(alg, x)
    assert rep.dim == rep.kernel.dim
    assert_lazy_rows(rep.kernel, eager_rows(alg, rep.kernel))
    assert_reference(rep.kernel)
    assert_blocks_match_dense(alg, x)
    assert_canonical_blocks(alg, x)
    assert rep.kernel == dense_kernel(alg, x)  # basis and pivots
    ref = ReferenceCentralizer(alg, x)
    assert ((rep.dim, rep.sym_dim, rep.skew_dim, rep.star_closed)
            == (ref.dim, ref.sym_dim, ref.skew_dim, ref.star_closed))
    assert rep.kernel == ref.kernel
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
    """1, b, b^2, a random and a random unitary unit lifted from FB; 1 + a1,
    supported in A; b + a1 and b + a_r, which on C_p^2 lie in a proper
    subgroup containing b; b z for z = 1 + the first row of C(b), one block
    of G; and on small instances also units with full support in V(FG) and
    V*(FG)."""
    b = alg.basis(alg.group.b())
    gens = [alg.basis(alg.group.generator(k + 1)) for k in range(len(alg.group.abelian.factors))]
    units = {"one": alg.one(), "b": b, "b2": alg.basis(alg.group.b(2)),
             "fb": alg.from_b_coeffs(random_fb_unit_coeffs(alg, rng)),
             "fb_unitary": alg.from_b_coeffs(random_fb_unit_coeffs(alg, rng, unitary=True)),
             "one_a1": alg.one() + gens[0], "b_a1": b + gens[0], "b_ar": b + gens[-1]}
    z = alg.one() + alg.elem(centralizer_in_gamma(alg, b).kernel.basis[0])
    units["bz"] = b * z
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
    """_mul_fft against the full-table product (`mul_reference` where the
    algebra builds no table: for f > 1 or past its table limit), associative,
    with 1 as identity."""
    rng = np.random.default_rng(seed)
    fft = alg._mul_fft
    x, y, z = (rng.integers(0, alg.field.size, alg.order) for _ in range(3))
    has_table = alg._mul_flat is not None
    reference = alg._mul_table_path if has_table else partial(mul_reference, alg)
    if alg.field.f > 1:
        assert not has_table
    assert np.array_equal(fft(x, y), reference(x, y))
    assert np.array_equal(fft(x, x), reference(x, x))  # a square transforms x once
    assert np.array_equal(fft(fft(x, y), z), fft(x, fft(y, z)))
    one = alg.one().coeffs
    assert np.array_equal(fft(x, one), x) and np.array_equal(fft(one, x), x)


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(instances())
def test_fft_product_matches_table(case):
    inst, seed = case
    check_fft_product(inst.algebra, seed)


@pytest.mark.parametrize("name", ["c7", "f11c5", "c19", "gf49"])
def test_config_fft_product_matches_table(name, config_instance):
    for seed in range(5):
        check_fft_product(config_instance(name).algebra, seed)


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
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


@pytest.mark.parametrize("name", ["c7", "f11c5", "c19", "gf49"])
def test_canonical_coordinates_match_the_walk(name, config_instance):
    # (regular blocks besides H, other blocks besides H, self-paired blocks):
    # b has H = B and the (|G| - q) / q^2 regular B a B; 1 + a1 has H = <a1>
    # and non-regular double cosets besides it, as b + a1 has on gf49 (where
    # <a1> is sigma-stable, so H = <a1> B is a proper subgroup); b z generates
    # G, one block.  An odd-order group has no self-paired double coset but H:
    # an element taking D to D^-1 and back would have even order
    alg = config_instance(name).algebra
    b, a1 = alg.basis(alg.group.b()), alg.basis(alg.group.generator(1))
    z = alg.one() + alg.elem(centralizer_in_gamma(alg, b).kernel.basis[0])
    regular, others = [(alg.order - alg.q) // alg.q ** 2, 0, 1], [0, alg.q - 1, 1]
    expect = {"b": regular, "b_a1": [0, 2, 1] if name == "gf49" else [0, 0, 1],
              "one_a1": [0, 20, 1] if name == "gf49" else others, "bz": [0, 0, 1]}
    for tag, x in {"b": b, "b_a1": b + a1, "one_a1": alg.one() + a1, "bz": b * z}.items():
        assert assert_canonical_blocks(alg, x) == expect[tag], tag


@pytest.mark.parametrize("name", ["c7", "gf49"])
def test_dense_operator_matches_products(name, config_instance):
    # column h of the operator is x h - h x for the group element h; every
    # unit in the one-block layout and in the layout of its double cosets
    alg = config_instance(name).algebra
    rng = np.random.default_rng(7)
    b = alg.basis(alg.group.b())
    a1 = alg.basis(alg.group.generator(1))
    z = alg.one() + alg.elem(centralizer_in_gamma(alg, b).kernel.basis[0])
    units = {"vfg": random_unit_vfg(alg, rng), "vfg_unitary": random_unitary_vfg(alg, rng),
             "bz": b * z, "one": alg.one(), "b": b, "b2": b * b,
             "fb": alg.from_b_coeffs(random_fb_unit_coeffs(alg, rng)),
             "one_a1": alg.one() + a1, "b_a1": b + a1}
    for tag, x in units.items():
        expect = np.zeros((alg.order, alg.order), dtype=np.int64)
        for h in range(alg.order):
            e = alg.basis(h)
            expect[:, h] = (x * e - e * x).coeffs
        assert np.array_equal(placed_operator(alg, x, *one_block(alg)), expect), tag
        cosets = _double_cosets(alg, x)
        assert np.array_equal(placed_operator(alg, x, *cosets), expect), tag


def test_inst31_block_kernel_of_b_matches_dense(inst31):
    # the 192 double cosets orbit(a) B of size q^2 and B itself against one
    # 4805 x 4805 block
    alg = inst31.algebra
    b = alg.basis(alg.group.b())
    rep = inst31.b_centralizer
    assert rep.kernel == dense_kernel(alg, b)
    assert (rep.dim, rep.sym_dim, rep.skew_dim) == (960, 480, 480)
