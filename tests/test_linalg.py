import weakref

import numpy as np
import pytest

from cqunits import _linalg as L
from cqunits import make_field, unitgroup
from cqunits.algebra import Subspace
from cqunits.cli import parse_element
from cqunits.errors import BudgetExceeded
from cqunits.field import _DIVISION_FREE_ENTRIES

from oracles import in_rowspace


def naive_rref(p, M):
    # classical single-pass oracle, no batching
    M = M.copy() % p
    m, n = M.shape
    piv, r = [], 0
    for c in range(n):
        if r == m:
            break
        rows = [i for i in range(r, m) if M[i, c]]
        if not rows:
            continue
        M[[r, rows[0]]] = M[[rows[0], r]]
        M[r] = (M[r] * pow(int(M[r, c]), -1, p)) % p
        for i in range(m):
            if i != r and M[i, c]:
                M[i] = (M[i] - M[i, c] * M[r]) % p
        piv.append(c)
        r += 1
    return M[:r], piv


def structured(p, rng):
    """A matrix that takes every branch of the per-pivot elimination: row swaps,
    all-zero and duplicate columns, and rows that vanish mid-elimination."""
    M = rng.integers(0, p, (30, 40)).astype(np.int64)
    M[:4, :3] = 0  # the first rows lack the first pivots: swaps
    M[:, [7, 21]] = 0
    M[:, 9], M[:, 30] = M[:, 8], M[:, 2]
    M[10:20] = (3 * M[:10] + M[20:30]) % p  # zero once rows 0-9 and 20-29 are pivots
    return M


@pytest.mark.parametrize("p", [7, 31, 197])
def test_rref_matches_naive(p, rng, monkeypatch):
    # over GF(p) the elimination updates the live rows as one slab, reduced by
    # mod_p: by % up to _DIVISION_FREE_ENTRIES entries, by quotients past it;
    # so are the batch products (the 400 rows take three batches)
    fld = make_field(p)
    slabs, reduced, products = [], [], []
    mod_p, matmul = fld.mod_p, L.matmul_mod

    def record(x, scratch=None):
        slabs.append(x.size)
        reduced.append(weakref.ref(x))
        return mod_p(x, scratch)

    def product(ctx, A, B):
        products.append(matmul(ctx, A, B))
        return products[-1]

    monkeypatch.setattr(fld, "mod_p", record)
    monkeypatch.setattr(L, "matmul_mod", product)
    cases = [rng.integers(0, p, shape).astype(np.int64)
             for shape in [(5, 8), (20, 13), (400, 150), (37, 37)]]
    for M in cases + [structured(p, rng)]:
        R1, p1 = L.rref(fld, M)
        R2, p2 = naive_rref(p, M)
        assert p1 == p2
        assert np.array_equal(R1, R2)
    assert min(slabs) <= _DIVISION_FREE_ENTRIES < max(slabs)
    big = [P for P in products if P.size > _DIVISION_FREE_ENTRIES]
    assert big and all(any(r() is P for r in reduced) for P in big)


@pytest.mark.parametrize("expr", ["b", "b + a1"])
def test_rref_of_commutator_blocks(expr, config_instance):
    # the blocks c31sq's centralizers solve (5 and 25 wide for b, 155 and 775
    # for b + a1), and their transposes
    inst = config_instance("c31sq")
    alg, x = inst.algebra, parse_element(expr, inst)
    star = np.concatenate([alg.fb.star_perm, alg.gamma_star_pairs()[0] + alg.q])
    cols, starts, local, _, _, which = unitgroup._canonical_blocks(
        alg, star, *unitgroup._double_cosets(alg, x))
    ends = np.append(starts[1:], alg.order)
    for t in np.unique(which, return_index=True)[1]:
        B = unitgroup._commutator_block(alg, x, cols[starts[t]:ends[t]], local)
        for M in (B, B.T):
            R1, p1 = L.rref(inst.field, M)
            R2, p2 = naive_rref(31, M)
            assert p1 == p2 and np.array_equal(R1, R2)


def test_rref_batch_boundaries(rng):
    fld = make_field(7)
    # taller than one batch, rank deficient
    A = rng.integers(0, 7, (50, 300)).astype(np.int64)
    cases = [np.vstack([A, (3 * A) % 7, rng.integers(0, 7, (300, 300))])]
    # the first batch seeds the echelon rows and only later batches are merged:
    # an all-zero first batch, exactly one batch, one row past it, and a second
    # batch that the first one's rows reduce to zero
    local, B = np.random.default_rng(11), L._RREF_BATCH
    cases += [np.vstack([np.zeros((B, 40), dtype=np.int64), local.integers(0, 7, (30, 40))]),
              local.integers(0, 7, (B, 200)), local.integers(0, 7, (B + 1, 200)),
              local.integers(0, 7, (B + 1, 60))]
    for M in cases:
        R1, p1 = L.rref(fld, M)
        R2, p2 = naive_rref(7, M)
        assert p1 == p2 and np.array_equal(R1, R2)


def test_right_kernel(rng):
    fld = make_field(31)
    M = rng.integers(0, 31, (40, 60)).astype(np.int64)
    K = L.right_kernel(fld, M)
    assert K.shape[0] == 60 - L.rank(fld, M)
    assert not ((M @ K.T) % 31).any()
    # kernel of the zero map is everything
    Z = np.zeros((18, 18), dtype=np.int64)
    assert L.right_kernel(fld, Z).shape[0] == 18
    # kernel of the identity is nothing
    assert L.right_kernel(fld, np.eye(18, dtype=np.int64)).shape[0] == 0
    # canonically: of a wide zero matrix, the unit rows in descending free column;
    # of a tall matrix of full column rank, no row over all of its columns
    assert np.array_equal(L.right_kernel(fld, np.zeros((5, 9), dtype=np.int64)),
                          np.eye(9, dtype=np.int64)[::-1])
    T = np.vstack([np.eye(7, dtype=np.int64), np.random.default_rng(12).integers(0, 31, (5, 7))])
    assert L.right_kernel(fld, T).shape == (0, 7)


def reversed_rref(fld, rows):
    """Reference canonical form: rref with pivots taken from the right."""
    R, piv = L.rref(fld, rows[:, ::-1])
    n = rows.shape[1]
    return R[:, ::-1], [n - 1 - c for c in piv]


@pytest.mark.parametrize("p,f", [(7, 1), (31, 1), (7, 2)])
def test_right_kernel_is_canonical(p, f, rng):
    fld = make_field(p, f)
    n = 24
    random = [rng.integers(0, fld.size, (m, n)).astype(np.int64) for m in (5, 17, 30)]
    low_rank = L.matmul_mod(fld, rng.integers(0, fld.size, (20, 3)),
                            rng.integers(0, fld.size, (3, n)))
    cases = random + [low_rank, np.zeros((6, n), dtype=np.int64),
                      np.eye(n, dtype=np.int64)]
    for M in cases:
        K = L.right_kernel(fld, M)
        assert K.shape == (n - L.rank(fld, M), n)
        assert not L.matmul_mod(fld, M, K.T).any()
        R, piv = reversed_rref(fld, K)
        assert np.array_equal(K, R)
        assert piv == sorted(piv, reverse=True)
    # the zero map: the whole space, pivots descending
    assert np.array_equal(L.right_kernel(fld, np.zeros((6, n), dtype=np.int64)),
                          np.eye(n, dtype=np.int64)[::-1])


@pytest.mark.parametrize("f", [1, 2])
def test_right_echelon_mirrors_rref(f, rng):
    # rref of the mirrored columns read back mirrored, on full-rank,
    # rank-deficient (also across rref batches), all-zero and zero-row
    # inputs; a dense Subspace is exactly that form
    fld = make_field(7, f)
    full = rng.integers(0, fld.size, (12, 20))
    tall = rng.integers(0, fld.size, (40, 30))
    deficient = np.vstack([tall, fld.vadd(tall[:10], fld.vmul(3, tall[10:20]))] * 5)
    for M in (full, full.T, deficient, np.zeros((6, 9), dtype=np.int64),
              np.zeros((0, 9), dtype=np.int64)):
        R, piv = L.right_echelon(fld, M)
        Rm, pm = L.rref(fld, M[:, ::-1])
        assert piv == [M.shape[1] - 1 - c for c in pm]
        assert np.array_equal(R, Rm[:, ::-1]) and R.flags.c_contiguous
        assert R.shape == (len(piv), M.shape[1])
        assert L.right_pivots(R).tolist() == piv == sorted(piv, reverse=True)
        assert all(R[i, c] == 1 and np.count_nonzero(R[:, c]) == 1 for i, c in enumerate(piv))
        sub = Subspace(fld, M)
        assert sub.pivots == piv and np.array_equal(sub.basis, R)
        assert (sub.dim, sub.ambient) == (len(piv), M.shape[1])
    assert len(L.right_echelon(fld, deficient)[1]) == 30


def test_rank_nullity(rng):
    fld = make_field(7)
    for _ in range(20):
        M = rng.integers(0, 7, (30, 45)).astype(np.int64)
        assert L.rank(fld, M) + L.right_kernel(fld, M).shape[0] == 45


def test_matmul_mod_int_chunking(rng):
    # an inner dimension of 9100 at p = 999983 takes the bound (p-1)^2 * inner
    # past 2^53 (from 9008 on), so the product is summed in chunks
    fld, inner = make_field(999983), 9100
    assert (fld.p - 1) ** 2 * inner >= L._F64_LIMIT
    A = rng.integers(fld.p - 50, fld.p, (4, inner)).astype(np.int64)
    B = rng.integers(0, fld.p, (inner, 4)).astype(np.int64)
    expect = (A.astype(object) @ B.astype(object)) % fld.p  # exact big-int oracle
    assert np.array_equal(L.matmul_mod(fld, A, B), expect.astype(np.int64))


def test_products_refuse_primes_past_exact_float64(rng):
    # a product of two entries is exact in float64 up to p - 1 = 94906265;
    # past it GF(100000007) read a rank-10 matrix as rank 23 and got about half
    # of a 50 x 4 by 4 x 50 product wrong, so such a p is refused, not answered
    for p in (94906297, 100000007):  # the first prime past the bound, and a larger one
        fld = make_field(p)
        M = rng.integers(0, p, (200, 10)) @ rng.integers(0, p, (10, 40)) % p
        for solve in (lambda: L.rank(fld, M), lambda: Subspace(fld, M).dim,
                      lambda: L.matmul_mod(fld, M[:50, :4], M[:4, :50])):
            with pytest.raises(BudgetExceeded, match="94906265"):
                solve()
    fld = make_field(94906249)  # the largest prime admitted
    A = rng.integers(fld.p - 9, fld.p, (50, 4))
    B = rng.integers(fld.p - 9, fld.p, (4, 50))
    expect = (A.astype(object) @ B.astype(object)) % fld.p
    assert np.array_equal(L.matmul_mod(fld, A, B), expect.astype(np.int64))
    U, V = rng.integers(0, fld.p, (200, 10)), rng.integers(0, fld.p, (10, 40))
    M = (U.astype(object) @ V.astype(object) % fld.p).astype(np.int64)
    assert L.rank(fld, M) == Subspace(fld, M).dim == 10


def test_solve_right(rng):
    fld = make_field(23)
    A = rng.integers(0, 23, (12, 9)).astype(np.int64)
    x = rng.integers(0, 23, 9).astype(np.int64)
    b = (A @ x) % 23
    sol = L.solve_right(fld, A, b)
    assert sol is not None
    assert np.array_equal((A @ sol) % 23, b)
    # inconsistent system
    A2 = np.zeros((3, 2), dtype=np.int64)
    assert L.solve_right(fld, A2, np.array([1, 0, 0])) is None


def test_generic_path_extension_field(f49, rng):
    # small rref over GF(49) cross-checked against a pure-python elimination
    M = rng.integers(0, 49, (8, 10)).astype(np.int64)
    R, piv = L.rref(f49, M)
    # every pivot column is elementary
    for i, c in enumerate(piv):
        col = R[:, c]
        assert col[i] == 1 and not np.any(np.delete(col, i))
    # row space is preserved: each original row reduces to zero
    assert in_rowspace(f49, M, R, piv)
    K = L.right_kernel(f49, M)
    if K.shape[0]:
        prod = L.matmul_mod(f49, M, K.T)
        assert not prod.any()


def test_reduce_against(rng):
    fld = make_field(7)
    M = rng.integers(0, 7, (10, 20)).astype(np.int64)
    R, piv = L.rref(fld, M)
    combo = (rng.integers(0, 7, (5, 10)) @ M) % 7
    assert in_rowspace(fld, combo, R, piv)
    outside = combo.copy()
    outside[0, piv[0]] = 0  # perturbing a pivot coordinate of a member
    outside[0] = (outside[0] + 1) % 7
    assert not in_rowspace(fld, outside, R, piv)


# --- one path for every field: digit-plane products and the batched rref -------


def scalar_matmul(fld, A, B):
    """A @ B entry by entry through the scalar field.mul / field.add."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for k in range(A.shape[1]):
                acc = fld.add(acc, fld.mul(int(A[i, k]), int(B[k, j])))
            out[i, j] = acc
    return out


@pytest.mark.parametrize("p,f", [(7, 2), (3, 4), (5, 3)])
def test_matmul_mod_extension_field_matches_scalar(p, f, rng, monkeypatch):
    fld = make_field(p, f)
    for m, k, n in [(6, 9, 5), (1, 1, 1), (4, 0, 3), (3, 5, 0), (0, 4, 2)]:
        A = rng.integers(0, fld.size, (m, k)).astype(np.int64)
        B = rng.integers(0, fld.size, (k, n)).astype(np.int64)
        C = L.matmul_mod(fld, A, B)
        assert C.shape == (m, n)
        assert np.array_equal(C, scalar_matmul(fld, A, B))
    # the chunked inner dimension: 2 plane columns per exact float64 chunk
    A = rng.integers(0, fld.size, (5, 9)).astype(np.int64)
    B = rng.integers(0, fld.size, (9, 4)).astype(np.int64)
    monkeypatch.setattr(L, "_F64_LIMIT", 3 * (p - 1) ** 2)
    assert np.array_equal(L.matmul_mod(fld, A, B), scalar_matmul(fld, A, B))


@pytest.mark.parametrize("p,f", [(7, 2), (3, 4)])
def test_rref_extension_field_across_batches(p, f, rng):
    # rank deficient and taller than two batches: the batched rref equals one
    # per-pivot elimination of the whole matrix, bit for bit
    fld = make_field(p, f)
    rows = 2 * L._RREF_BATCH + 57
    basis = rng.integers(0, fld.size, (70, 90)).astype(np.int64)
    M = L.matmul_mod(fld, rng.integers(0, fld.size, (rows, 70)), basis)
    M[::40] = rng.integers(0, fld.size, (M[::40].shape[0], 90))  # rank at most 80
    R, piv = L.rref(fld, M)
    R2, piv2 = L._rref_generic(fld, M.copy())
    assert piv == piv2 and np.array_equal(R, R2)
    assert 70 < len(piv) <= 80
    K = L.right_kernel(fld, M)
    assert K.shape[0] == 90 - len(piv) and not L.matmul_mod(fld, M, K.T).any()


@pytest.mark.parametrize("p,f", [(7, 2), (3, 4)])
def test_reduce_against_extension_field(p, f, rng):
    fld = make_field(p, f)
    M = rng.integers(0, fld.size, (12, 30)).astype(np.int64)
    R, piv = L.rref(fld, M)
    combo = L.matmul_mod(fld, rng.integers(0, fld.size, (6, 12)), M)
    assert not L.reduce_against(fld, combo, R, piv).any()
    v = rng.integers(0, fld.size, (4, 30)).astype(np.int64)
    residue = L.reduce_against(fld, v, R, piv)
    # the residue is zero on the pivots and differs from v by a member
    assert not residue[:, piv].any()
    assert in_rowspace(fld, fld.vsub(v, residue), R, piv)
    assert np.array_equal(L.reduce_against(fld, v, R[:0], []), v)
