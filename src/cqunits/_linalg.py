"""Dense exact linear algebra over GF(p^f) on integer code arrays.

Matrices are int64 arrays of field codes in [0, p^f).  There is one
product and one rref for every field.  `matmul_mod` decodes both operands
into their f digit planes over GF(p), stacks them, and multiplies all f^2
plane pairs with one exact float matmul (`_mm_prime`), then contracts the
plane products with the field's structure tensor (for f = 1 the plane
stack is the matrix itself).  Products are computed in float32/float64
only when every intermediate value is exactly representable
((p-1)^2 * inner < 2^24 or 2^53), past that with the inner dimension
chunked, and are refused once (p-1)^2 >= 2^53.  The row reduction is
batched: the first batch with a pivot is eliminated per pivot
(`_rref_generic`; over GF(p) in place on the codes, for f > 1 in the
field's vector ops) and seeds the echelon rows, already in pivot order, so
a matrix of at most `_RREF_BATCH` rows needs no merge; each later batch is
reduced against the echelon rows with one such product, eliminated the
same way, and the echelon rows are reduced against its new rows with
another and merged in pivot order, which keeps the n^3 work inside
matmuls.  Every GF(p) result is reduced by the field's `mod_p`.

rref pivots on the leftmost column, lowest row index first, independent of
row batching.  `right_echelon`, the one rref on mirrored columns, is its
mirror image, with pivots taken from the right: the canonical form of
`algebra.Subspace` bases.  `right_kernel` is canonical in the same sense.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded

_F32_LIMIT = 2 ** 24
_F64_LIMIT = 2 ** 53
_RREF_BATCH = 160  # rows reduced per BLAS update in _rref_batched


def _mm_prime(ctx, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B mod p with exact float matmuls, entries of A, B in [0, p); refused
    (BudgetExceeded) past p - 1 = floor(sqrt(2^53)) = 94906265."""
    p, inner = ctx.p, A.shape[1]
    if (p - 1) ** 2 >= _F64_LIMIT:
        raise BudgetExceeded(f"GF({p}) products are not exact in float64 past "
                             f"p - 1 = {math.isqrt(_F64_LIMIT - 1)}")
    bound = (p - 1) * (p - 1) * inner
    if bound < _F64_LIMIT:
        dtype = np.float32 if bound < _F32_LIMIT else np.float64
        C = A.astype(dtype) @ B.astype(dtype)
        return ctx.mod_p(np.rint(C, out=C).astype(np.int64))
    step = max(1, _F64_LIMIT // ((p - 1) * (p - 1)) - 1)
    acc = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for lo in range(0, inner, step):
        C = A[:, lo:lo + step].astype(np.float64) @ B[lo:lo + step].astype(np.float64)
        acc += np.rint(C, out=C).astype(np.int64)
        ctx.mod_p(acc)
    return acc


def matmul_mod(ctx, A, B) -> np.ndarray:
    """A @ B over GF(p^f) for code arrays A (m x k) and B (k x n).

    For f > 1 the digit planes of A are stacked as rows and those of B as
    columns, one `_mm_prime` multiplies every plane pair, and the structure
    tensor contracts the f^2 plane products to the f digits of the product.
    """
    A = np.ascontiguousarray(A, dtype=np.int64)
    B = np.ascontiguousarray(B, dtype=np.int64)
    f = ctx.f
    if f == 1:  # the plane stack is the matrix itself
        return _mm_prime(ctx, A, B)
    (m, k), n = A.shape, B.shape[1]
    planes = _mm_prime(ctx, np.moveaxis(ctx.decode(A), 2, 0).reshape(f * m, k),
                       ctx.decode(B).reshape(k, n * f))
    digits = np.tensordot(planes.reshape(f, m, n, f), ctx._tensor, axes=([0, 3], [0, 1]))
    return ctx.encode(digits)


def _rref_batched(ctx, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
    R, pivots = np.zeros((0, M.shape[1]), dtype=np.int64), []
    for lo in range(0, M.shape[0], _RREF_BATCH):
        U = M[lo:lo + _RREF_BATCH] % ctx.size
        if not pivots:  # the first batch with a pivot is already in pivot order
            R, pivots = _rref_generic(ctx, U)
            continue
        Ur, Upiv = _rref_generic(ctx, reduce_against(ctx, U, R, pivots))
        if not Upiv:
            continue
        R = np.vstack([reduce_against(ctx, R, Ur, Upiv), Ur])
        pivots += Upiv
        order = np.argsort(pivots, kind="stable")
        R = R[order]
        pivots = [pivots[i] for i in order]
    return R, pivots


def _rref_generic(ctx, U: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Per-pivot reduced row echelon form of U, in place.

    Over GF(p) the codes are eliminated in place: the pivot row is scaled
    once, and the live rows (nonzero in the pivot column) are updated as one
    slab from column c on, both reduced by `mod_p`.  For f > 1 each pivot
    takes the field's vector ops."""
    m, n = U.shape
    p, prime = ctx.p, ctx.f == 1
    piv: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = U[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            U[[r, k]] = U[[k, r]]
        row = U[r, c:]  # a view; U[r, :c] is 0
        rows = U[:, c].nonzero()[0]
        rows = rows[rows != r]
        if prime:
            row *= pow(int(row[0]), -1, p)
            ctx.mod_p(row)
            if rows.size:
                slab = U[rows, c:]
                slab -= slab[:, :1] * row
                U[rows, c:] = ctx.mod_p(slab)
        else:
            row[:] = ctx.vmul(row, ctx.inv(int(row[0])))
            if rows.size:
                U[rows, c:] = ctx.vsub(U[rows, c:], ctx.vmul(U[rows, c][:, None], row[None, :]))
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
    return _rref_batched(ctx, M)


def right_echelon(ctx, M) -> tuple[np.ndarray, list[int]]:
    """rref(M[:, ::-1]) read back in M's column order: row i is 1 at pivots[i],
    its rightmost nonzero column, pivot columns are zero elsewhere, and rows
    come in descending pivot order."""
    M = np.asarray(M, dtype=np.int64)
    R, piv = rref(ctx, M[:, ::-1])
    return np.ascontiguousarray(R[:, ::-1]), [M.shape[1] - 1 - c for c in piv]


def rank(ctx, M) -> int:
    return len(rref(ctx, M)[1])


def right_kernel(ctx, M) -> np.ndarray:
    """Basis of {x : M @ x = 0}, canonical with pivots taken from the right.

    Row i is 1 at free column fc_i of rref(M) and nonzero elsewhere only at
    pivots of rref(M) left of fc_i: already reduced, rows in descending fc_i.
    """
    R, piv = rref(ctx, M)  # R keeps all n columns, even with no rows
    free = np.delete(np.arange(R.shape[1]), piv)[::-1]
    K = np.zeros((free.size, R.shape[1]), dtype=np.int64)
    K[np.arange(free.size), free] = 1
    K[:, piv] = ctx.vneg(R[:, free].T)
    return K


def right_pivots(K: np.ndarray) -> np.ndarray:
    """Column of the rightmost nonzero entry of each row of K."""
    return K.shape[1] - 1 - np.argmax(K[:, ::-1] != 0, axis=1)


def reduce_against(ctx, V, R, pivots) -> np.ndarray:
    """Residue of the rows of V after reduction against rref rows R."""
    V = np.asarray(V, dtype=np.int64)
    return ctx.vsub(V, matmul_mod(ctx, V[:, pivots], R))


def solve_right(ctx, A, b):
    """One solution x of A @ x = b, or None if the system is inconsistent."""
    A = np.ascontiguousarray(A, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64).reshape(-1, 1)
    R, piv = rref(ctx, np.hstack([A, b]))
    n = A.shape[1]
    if n in piv:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[piv] = R[:, n]
    return x
