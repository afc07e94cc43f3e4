"""Dense exact linear algebra over GF(p^f) on integer code arrays.

Matrices are int64 arrays of field codes.  There is one per-pivot
elimination, written in field ops.  For prime fields the row reduction is
batched: each block of rows is reduced against the established echelon
rows with one BLAS matmul and then eliminated per pivot, which keeps the
n^3 work inside matmuls.  Products are computed in float32/float64 only
when every intermediate value is exactly representable ((p-1)^2 * inner
< 2^24 or 2^53); above that the inner dimension is chunked.  Extension
fields run the per-pivot elimination on the whole matrix (they only occur
at small dimensions here).

rref pivots on the leftmost column, lowest row index first, independent of
row batching.  Subspace bases and `right_kernel` use its mirror image, with
pivots taken from the right (see `algebra.Subspace`).
"""

from __future__ import annotations

import numpy as np

_F32_LIMIT = 2 ** 24
_F64_LIMIT = 2 ** 53
_RREF_BATCH = 160  # rows reduced per BLAS update in _rref_prime


def _mm_prime(p: int, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B mod p with exact float matmuls, entries of A, B in [0, p)."""
    inner = A.shape[1]
    if inner == 0 or A.shape[0] == 0 or B.shape[1] == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    bound = (p - 1) * (p - 1) * inner
    if bound < _F32_LIMIT:
        C = A.astype(np.float32) @ B.astype(np.float32)
        return np.rint(C).astype(np.int64) % p
    if bound < _F64_LIMIT:
        C = A.astype(np.float64) @ B.astype(np.float64)
        return np.rint(C).astype(np.int64) % p
    step = max(1, _F64_LIMIT // ((p - 1) * (p - 1)) - 1)
    acc = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for lo in range(0, inner, step):
        C = A[:, lo:lo + step].astype(np.float64) @ B[lo:lo + step].astype(np.float64)
        acc = (acc + np.rint(C).astype(np.int64)) % p
    return acc


def matmul_mod(ctx, A, B) -> np.ndarray:
    A = np.ascontiguousarray(A, dtype=np.int64)
    B = np.ascontiguousarray(B, dtype=np.int64)
    if ctx.f == 1:
        return _mm_prime(ctx.p, A % ctx.p, B % ctx.p)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for k in range(A.shape[1]):
        out = ctx.vadd(out, ctx.vmul(A[:, k][:, None], B[k][None, :]))
    return out


def _rref_prime(ctx, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    p = ctx.p
    m, n = M.shape
    R = np.zeros((0, n), dtype=np.int64)
    pivots: list[int] = []
    for lo in range(0, m, _RREF_BATCH):
        U = M[lo:lo + _RREF_BATCH] % p
        if pivots:
            U = (U - _mm_prime(p, U[:, pivots], R)) % p
        Ur, Upiv = _rref_generic(ctx, np.ascontiguousarray(U))
        if not Upiv:
            continue
        if pivots:
            R = (R - _mm_prime(p, R[:, Upiv], Ur)) % p
        R = np.vstack([R, Ur])
        pivots += Upiv
        order = np.argsort(pivots, kind="stable")
        R = R[order]
        pivots = [pivots[i] for i in order]
    return R, pivots


def _rref_generic(ctx, U: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Per-pivot reduced row echelon form of U, in place, in field ops."""
    m, n = U.shape
    piv: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(U[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            U[[r, k]] = U[[k, r]]
        U[r] = ctx.vmul(U[r], ctx.inv(int(U[r, c])))
        rows = np.nonzero(U[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            U[rows] = ctx.vsub(U[rows], ctx.vmul(U[rows, c][:, None], U[r][None, :]))
        piv.append(c)
        r += 1
    return U[:r], piv


def rref(ctx, M) -> tuple[np.ndarray, list[int]]:
    """Canonical reduced row echelon form; zero rows dropped.

    Returns (R, pivots) with R[i, pivots[i]] = 1 and pivot columns zero
    elsewhere, rows ordered by pivot column.
    """
    M = np.ascontiguousarray(M, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    if M.shape[0] == 0:
        return M.copy(), []
    if ctx.f == 1:
        return _rref_prime(ctx, M)
    return _rref_generic(ctx, M.copy())


def rank(ctx, M) -> int:
    return len(rref(ctx, M)[1])


def right_kernel(ctx, M) -> np.ndarray:
    """Basis of {x : M @ x = 0}, canonical with pivots taken from the right.

    Row i is 1 at free column fc_i of rref(M) and nonzero elsewhere only at
    pivots of rref(M) left of fc_i: already reduced, rows in descending fc_i.
    """
    R, piv = rref(ctx, M)  # R keeps all n columns, even with no rows
    free = np.setdiff1d(np.arange(R.shape[1]), piv)[::-1]
    K = np.zeros((free.size, R.shape[1]), dtype=np.int64)
    K[np.arange(free.size), free] = 1
    K[:, piv] = ctx.vneg(R[:, free].T)
    return K


def right_pivots(K: np.ndarray) -> np.ndarray:
    """Column of the rightmost nonzero entry of each row of K."""
    return K.shape[1] - 1 - np.argmax(K[:, ::-1] != 0, axis=1)


def reduce_against(ctx, V, R, pivots) -> np.ndarray:
    """Residue of the rows of V after reduction against rref rows R."""
    V = np.ascontiguousarray(V, dtype=np.int64)
    if not pivots or V.shape[0] == 0:
        return V % ctx.p if ctx.f == 1 else V.copy()
    if ctx.f == 1:
        return (V - _mm_prime(ctx.p, V[:, pivots] % ctx.p, R)) % ctx.p
    out = V.copy()
    for i, pc in enumerate(pivots):
        out = ctx.vsub(out, ctx.vmul(out[:, pc][:, None], R[i][None, :]))
    return out


def in_rowspace(ctx, V, R, pivots) -> bool:
    return not np.any(reduce_against(ctx, V, R, pivots))


def solve_right(ctx, A, b):
    """One solution x of A @ x = b, or None if the system is inconsistent."""
    A = np.ascontiguousarray(A, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64).reshape(-1, 1)
    aug = np.hstack([A, b])
    R, piv = rref(ctx, aug)
    n = A.shape[1]
    if n in piv:
        return None
    x = np.zeros(n, dtype=np.int64)
    for i, pc in enumerate(piv):
        x[pc] = R[i, n]
    return x
