"""The group algebra FG as an exact dense coefficient ring.

AlgElem is a `CoeffElem`, the element core that `cqstruct` shares with
FB, of length |G| and indexed by the group element index; this module
adds what is particular to FG (rho, gamma, the product, the inverse).
The algebra owns its FB layer as `GroupAlgebra.fb`, whose circulant
solve inverts rho(x) for `invert` and `is_unit`.  Small groups over a
prime field multiply through the full multiplication table with one
exact float64 scatter-add (`_mul_table_path`).  Every other algebra, and every one over GF(p^f)
with f > 1, uses the FFT: A is indexed row-major over its invariant
factors, so a product in FA is a multi-dimensional cyclic convolution;
sigma acts on spectra by permuting the characters of A, so each product
takes one inverse transform (`_mul_fft`).
Both routes carry exactness bounds checked when the algebra is built, and
every FFT product also checks its rounding distances against its bound.

The ideal generated by {a - 1 : a in A} is called gamma throughout; it
is the kernel of the projection rho onto FB and is nilpotent, with an
index read off the invariant factors of A.  That is what makes inversion
by repeated squaring and the Cayley transform work.
"""

from __future__ import annotations

import math
import os
from functools import cached_property

import numpy as np

from . import _linalg
from .cqstruct import CoeffElem, FBCtx
from .errors import BudgetExceeded, MathDomainError, NotAUnit
from .field import FieldCtx
from .group import GroupElem, GroupSpec


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def refuse_past_memory(need: int, what: str) -> None:
    """BudgetExceeded when `need` bytes for `what` exceed physical memory."""
    have = _physical_memory_bytes()
    if need > have:
        raise BudgetExceeded(f"{what} need about {need} bytes, "
                             f"more than the {have} bytes of physical memory")


class Subspace:
    """A row space over GF(p^f), stored as its canonical reduced echelon basis.

    Pivots are taken from the right: the basis is rref(rows[:, ::-1]) read
    back in ambient column order, each row 1 at its rightmost nonzero column,
    rows in descending pivot order.  `reduced=True` passes such a basis as is.

    A subspace of gamma may come in block form, rows None and blocks =
    (alg, coords, kernels, which): the rows of the canonical kernel
    kernels[which[t]] placed at coords[t], the rows of coords (ascending)
    partitioning gamma's coordinates.  `dim` is read off the blocks;
    `basis` and `pivots` are built on first read, once (`_echelon`).
    """

    def __init__(self, field: FieldCtx, rows, reduced: bool = False, blocks=None):
        self.field = field
        self.blocks = blocks
        if blocks is not None:
            alg, _, kernels, which = blocks
            self.ambient = alg.order
            self.dim = sum(kernels[u].shape[0] for u in which.tolist())
            return
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        n = rows.shape[1]
        if reduced:
            self._echelon = rows, _linalg.right_pivots(rows).tolist()
        else:
            R, piv = _linalg.rref(field, rows[:, ::-1])
            self._echelon = np.ascontiguousarray(R[:, ::-1]), [n - 1 - c for c in piv]
        self.ambient = n
        self.dim = self.basis.shape[0]

    @property
    def basis(self) -> np.ndarray:
        return self._echelon[0]

    @property
    def pivots(self) -> list[int]:
        return self._echelon[1]

    @cached_property
    def _echelon(self):
        """The block form's canonical basis and pivots: the kernel rows placed
        at their blocks' disjoint coordinates, sorted by pivot descending,
        then `gamma_expand` (whose a = e slice lies left of every pivot).
        Refused up front (BudgetExceeded) when its arrays for d = dim rows
        would not fit in physical memory: the placed rows (8 d dim gamma
        bytes), the |G|-wide copy (8 d |G|) and, for f > 1, the two int64
        temporaries of `vsum`'s digit decode (16 f d dim gamma).
        """
        alg, coords, kernels, which = self.blocks
        width, f = alg.gamma_dim(), self.field.f
        refuse_past_memory(8 * self.dim * (alg.order + (1 + (2 * f if f > 1 else 0)) * width),
                           "the dense basis rows")
        parts = [(np.flatnonzero(which == u), k) for u, k in kernels.items()]
        piv = np.concatenate([coords[ts][:, _linalg.right_pivots(k)].ravel() for ts, k in parts])
        dest = np.empty(piv.size, dtype=np.int64)
        dest[np.argsort(-piv)] = np.arange(piv.size)
        K = np.zeros((piv.size, width), dtype=np.int64)
        r = 0
        for ts, k in parts:  # block ts[i]'s row j goes to dest[r + i d + j]
            n = ts.size * k.shape[0]
            K[dest[r:r + n].reshape(ts.size, -1, 1), coords[ts][:, None, :]] = k
            r += n
        return alg.gamma_expand(K), (np.sort(piv)[::-1] + alg.q).tolist()

    def contains(self, vec) -> bool:
        return self.contains_rows(np.asarray(vec, dtype=np.int64)[None, :])

    def contains_rows(self, rows) -> bool:
        return _linalg.in_rowspace(self.field, rows, self.basis, self.pivots)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.pivots == other.pivots
                and np.array_equal(self.basis, other.basis))

    def __hash__(self):
        return hash((tuple(self.pivots), self.basis.tobytes()))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rref [[A A], [B 0]]; zero-left rows give the meet."""
        n = self.ambient
        top = np.hstack([self.basis, self.basis])
        bot = np.hstack([other.basis, np.zeros_like(other.basis)])
        R, piv = _linalg.rref(self.field, np.vstack([top, bot]))
        keep = [i for i, pc in enumerate(piv) if pc >= n]
        return Subspace(self.field, R[keep][:, n:])

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def kernel_of(subspace: Subspace, op) -> Subspace:
    """Kernel of a linear operator on a subspace, given by its action on basis rows.

    `op` maps an ambient row vector to an ambient row vector and must send
    the subspace into itself.
    """
    B = subspace.basis
    images = np.stack([np.asarray(op(B[i]), dtype=np.int64) for i in range(B.shape[0])]) \
        if B.shape[0] else np.zeros((0, subspace.ambient), dtype=np.int64)
    if images.shape[0] and not subspace.contains_rows(images):
        raise MathDomainError("operator does not map the subspace into itself")
    coords = images[:, subspace.pivots] if B.shape[0] else images
    C = _linalg.right_kernel(subspace.field, coords.T)
    return Subspace(subspace.field, _linalg.matmul_mod(subspace.field, C, B))


class AlgElem(CoeffElem):
    """One element of FG: a CoeffElem indexed by the group element index."""

    __slots__ = ()

    def rho_coeffs(self) -> np.ndarray:
        """Length-q code array of the image under rho: FG -> FB."""
        sliced = self.coeffs.reshape(self.ctx.group.abelian.order, self.ctx.group.q)
        return np.asarray(self.ctx.field.vsum(sliced, axis=0), dtype=np.int64)

    def in_gamma(self) -> bool:
        return not self.rho_coeffs().any()

    def is_unit(self) -> bool:
        return self.ctx.fb.inverse_coeffs(self.rho_coeffs()) is not None

    def sym_skew_split(self) -> tuple["AlgElem", "AlgElem"]:
        """(x + x*)/2 and (x - x*)/2; requires odd p."""
        st = self.star()
        half = self.ctx.inv2
        return (self + st).scale(half), (self - st).scale(half)


_EPS = 2.0 ** -53  # float64 unit roundoff


def fft_error_bound(magnitude: int, axis_lengths, f: int, q: int) -> float:
    """A-priori bound on the rounding error of one `_mul_fft` product.

    After Percival (Math. Comp. 72, 2003): a length-2^n FFT convolution
    of x and y in float64 is off by less than
    |x| |y| ((1 + e)^3n (1 + e sqrt 5)^(3n+1) (1 + b)^3n - 1) in the
    Euclidean norm, e the unit roundoff and b the error of the twiddle
    factors (b = e: pocketfft computes them to within an ulp).  n is taken
    as the sum of the axis lengths, not of their logs, because pocketfft
    runs prime-radix passes as direct DFTs.  A slot of the product sums q
    such convolutions x_i * (y_j o sigma^i) before one inverse transform;
    the gather by sigma^i is exact and keeps |y_j|, so their errors add,
    and `magnitude` = (p - 1)^2 |A| q times the largest tensor column sum
    bounds sum_i |x_i| |y_j|.  q + f^2 more factors (1 + e) cover the sum
    over the slots and the tensor sum between the transforms.
    """
    n = sum(axis_lengths)
    log_growth = ((6 * n + f * f + q) * math.log1p(_EPS)
                  + (3 * n + 1) * math.log1p(_EPS * 5 ** 0.5))
    return magnitude * math.expm1(log_growth)


class GroupAlgebra:
    """Pairing of a FieldCtx with a GroupSpec, with cached mult machinery."""

    def __init__(self, field: FieldCtx, group: GroupSpec):
        """Refuses (BudgetExceeded) an algebra whose products could be inexact.

        The route a product takes is checked.  Where a table is built
        (f = 1, |G| <= `GroupSpec._FULL_TABLE_LIMIT`), the table path's
        float64 sums must stay below 2^53.  For `_mul_fft`, the bound
        `fft_error_bound` on the rounding error of one product must stay
        below 1/4, so that rounding to the nearest integer is exact; it
        depends on p, q, |A|, the axis lengths of A, the field tensor and the
        float64 unit roundoff.  The algebra also builds its FB layer `fb`.
        """
        self.field = field
        self.group = group
        self.order = group.order
        self.q = group.q
        self.star_perm = group.inv_perm
        self.inv2 = field.from_code(field.inv(2))
        self.fb = FBCtx(field, group.q)
        # for f > 1 the FFT product is faster even at |G| = 147 (gf49), so
        # no table is built
        table = group.mul_table if field.f == 1 else None
        self._mul_flat = table.ravel() if table is not None else None
        # a table product digit sums |G| products of digits < p
        bound = (field.p - 1) ** 2 * self.order
        if self._mul_flat is not None and bound >= _linalg._F64_LIMIT:
            raise BudgetExceeded(f"FG products would sum up to {bound}, past exact float64")
        # each FFT product digit sums q |A| products of digits < p, each spread
        # over the field tensor's entries (a single 1 when f = 1)
        spread = int(field._tensor.sum(axis=(0, 1)).max())
        magnitude = (field.p - 1) ** 2 * group.abelian.order * self.q * spread
        self._fft_bound = fft_error_bound(magnitude, group.abelian.factors, field.f, self.q)
        if self._fft_bound >= 0.25:
            raise BudgetExceeded(f"FFT products could be off by {self._fft_bound:.3g}, "
                                 "past the 1/4 that rounding corrects")
        self._gamma = None
        self._star_pairs = None
        self._sym_skew = None

    # --- element constructors ------------------------------------------------

    def elem(self, coeffs) -> AlgElem:
        return AlgElem(self, coeffs)

    def zero(self) -> AlgElem:
        return AlgElem(self, np.zeros(self.order, dtype=np.int64))

    def one(self) -> AlgElem:
        return self.basis(0)

    def scalar(self, c) -> AlgElem:
        coeffs = np.zeros(self.order, dtype=np.int64)
        coeffs[0] = self.field.elem(c).code
        return AlgElem(self, coeffs)

    def basis(self, g) -> AlgElem:
        idx = g.idx if isinstance(g, GroupElem) else int(g)
        coeffs = np.zeros(self.order, dtype=np.int64)
        coeffs[idx] = 1
        return AlgElem(self, coeffs)

    def monomial(self, g: int) -> str:
        return repr(GroupElem(self.group, g))

    def from_b_coeffs(self, bcoeffs) -> AlgElem:
        """Lift sum c_j b^j of FB into FG (the natural inclusion)."""
        bcoeffs = np.asarray(bcoeffs, dtype=np.int64)
        if bcoeffs.shape != (self.q,):
            raise MathDomainError(f"expected {self.q} coefficients")
        coeffs = np.zeros(self.order, dtype=np.int64)
        coeffs[: self.q] = bcoeffs
        return AlgElem(self, coeffs)

    # --- multiplication -------------------------------------------------------

    def mul_coeffs(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self._mul_flat is not None:
            return self._mul_table_path(x, y)
        return self._mul_fft(x, y)

    def _mul_table_path(self, x, y):
        """x y over a prime field: the float64 sums of x[g] y[h] at
        mul_table[g, h], one bincount.  __init__ bounds them below 2^53, so
        they are exact."""
        sums = np.bincount(self._mul_flat, weights=np.outer(x, y).ravel().astype(np.float64),
                           minlength=self.order)
        return np.rint(sums).astype(np.int64) % self.field.p

    def _mul_fft(self, x, y):
        """x y with one batched inverse FFT over A's invariant-factor axes.

        x_i a b^i * y_j c b^j = (a + sigma^-i(c)) b^(i+j): slot i + j gains
        x_i * (y_j o sigma^i) in FA, whose spectrum is x_i's times a gather
        of y_j's (`GroupSpec.char_gather`).  x and y are transformed once
        each (once in all for a square, y is x), the products of the nonzero
        slots of x are summed per slot in the frequency domain, the f^2
        digit-plane products combined with the field tensor, and one irfftn
        of q slices inverts them.  The rounding distances are checked
        against the a-priori bound of __init__ (MathDomainError past it).
        """
        q, f = self.q, self.field.f
        shape = self.group.abelian.factors
        half = (*shape[:-1], shape[-1] // 2 + 1)  # the characters rfftn stores
        na, axes = self.group.abelian.order, tuple(range(2, 2 + len(shape)))
        idx, conj = self.group.char_gather

        def spectrum(c):  # (q, f, H): slot, digit, stored character of A
            planes = np.moveaxis(self.field.decode(c.reshape(na, q)), 0, -1)
            return np.fft.rfftn(planes.reshape(q, f, *shape), axes=axes).reshape(q, f, -1)

        FX = spectrum(x)
        FY = FX if y is x else spectrum(y)
        acc = np.zeros((q, f, f, FY.shape[2]), dtype=FY.dtype)  # slot, digit pair, character
        for i in np.flatnonzero(x.reshape(na, q).any(axis=0)):
            G = FY[(np.arange(q) - i) % q][..., idx[i]]  # at slot i + j: y_j o sigma^i
            G[..., conj[i]] = G[..., conj[i]].conj()
            acc += FX[i][:, None] * G[:, None]
        P = self.field._tensor.reshape(f * f, f).T @ acc.reshape(q, f * f, -1)
        R = np.fft.irfftn(P.reshape(q, f, *half), s=shape, axes=axes).reshape(q, f, na)
        Z = np.rint(R)
        worst = float(np.abs(R - Z).max())
        if worst > self._fft_bound:
            raise MathDomainError(f"FFT product rounding distance {worst:.3g} exceeds "
                                  f"its bound {self._fft_bound:.3g}")
        codes = self.field.encode(np.moveaxis(Z.astype(np.int64), 1, -1))  # (q, |A|)
        return codes.T.reshape(self.order)

    # --- inversion --------------------------------------------------------------

    def invert(self, x: AlgElem) -> AlgElem:
        """Exact inverse: W = rho(x)^-1 in FB, then (x W)^-1 = (1 - g)^-1 by squaring.

        x is a unit of FG iff rho(x) is a unit of FB, because 1 + gamma
        consists of units.  g = 1 - x W lies in gamma, so g^(2^k) = 0 once
        2^k >= nilpotency_index(), and (1 - g)^-1 = prod_k (1 + g^(2^k)):
        about 2 log2(N) products instead of N.
        """
        winv = self.fb.inverse_coeffs(x.rho_coeffs())
        if winv is None:
            raise NotAUnit("rho(x) is not invertible in FB")
        W = self.from_b_coeffs(winv)
        g = self.one() - x * W
        inv_u = self.one()
        for _ in range(self.nilpotency_index().bit_length()):
            if g.is_zero():
                break
            inv_u = inv_u + inv_u * g
            g = g * g
        if not g.is_zero():
            raise MathDomainError("1 - x rho(x)^-1 is not nilpotent within the index of gamma")
        result = W * inv_u
        if (x * result) != self.one():
            raise MathDomainError("computed inverse fails x * x^-1 = 1")
        return result

    # --- gamma machinery -----------------------------------------------------------

    def gamma_dim(self) -> int:
        return self.order - self.q

    def gamma_expand(self, K: np.ndarray) -> np.ndarray:
        """Rows of gamma-coordinates -> ambient FG rows (rho of each row is 0)."""
        K = np.atleast_2d(np.asarray(K, dtype=np.int64))
        rows = K.shape[0]
        amb = np.zeros((rows, self.order), dtype=np.int64)
        amb[:, self.q:] = K
        sums = self.field.vsum(K.reshape(rows, self.group.abelian.order - 1, self.q), axis=1)
        amb[:, : self.q] = self.field.vneg(sums)
        return amb

    def gamma_star_perm(self) -> np.ndarray:
        """The involution as a permutation of the gamma basis (a-1)b^j: the
        group's inversion on the indices a b^j with a != e, shifted by q."""
        return self.group.inv_perm[self.q:] - self.q

    def gamma_star_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(pi, hi): pi = gamma_star_perm(), checked to be a fixed-point-free
        involution (else MathDomainError), and the larger ends hi of its
        2-cycles (hi, pi[hi]), descending.  Every reader of pi goes through here."""
        if self._star_pairs is None:
            pi = self.gamma_star_perm()
            k = np.arange(self.gamma_dim())
            if not np.array_equal(pi[pi], k) or np.any(pi == k):
                raise MathDomainError("the involution does not pair the gamma basis")
            self._star_pairs = (pi, k[pi < k][::-1])
        return self._star_pairs

    def gamma_basis(self) -> Subspace:
        """gamma as a canonical Subspace: gamma_expand of the identity, rows (a-1)b^j.

        gamma_expand keeps a canonical gamma-coordinate basis canonical: the
        a = e slice 0..q-1 that it fills in lies left of every pivot.  The
        rows are written straight into one |G|-wide array.
        """
        if self._gamma is None:
            dim = self.gamma_dim()
            rows, c = np.arange(dim), np.arange(dim)[::-1]  # pivots descending
            basis = np.zeros((dim, self.order), dtype=np.int64)
            basis[rows, self.q + c] = 1
            basis[rows, c % self.q] = self.field.neg(1)
            self._gamma = Subspace(self.field, basis, reduced=True)
        return self._gamma

    def sym_skew_subspaces(self) -> tuple[Subspace, Subspace]:
        """The symmetric and skew slices S1, S2 of gamma, in block form.

        The blocks are the pairs [pi[hi], hi] of gamma_star_pairs(), each
        with the one kernel row [1, 1] (S1) or [-1, 1] (S2): the canonical
        bases e_hi +/- e_pi[hi], rows in descending hi.  So dim S2 is the
        number of pairs, and reading it builds no rows.
        """
        if self._sym_skew is None:
            pi, hi = self.gamma_star_pairs()
            coords, which = np.stack([pi[hi], hi], axis=1), np.zeros(hi.size, dtype=np.int64)
            self._sym_skew = tuple(
                Subspace(self.field, None, blocks=(self, coords, {0: np.array([[sign, 1]])}, which))
                for sign in (1, self.field.neg(1)))
        return self._sym_skew

    def nilpotency_index(self) -> int:
        """Smallest N with gamma^N = 0: 1 + sum_i (p^e_i - 1) over A = prod C_(p^e_i).

        A is normal, so omega(A) FG = FG omega(A) and gamma^N = omega(A)^N FG,
        which vanishes exactly when omega(A)^N does in FA.  There
        FA = F[x_1..x_r]/(x_i^(p^e_i)) with x_i = a_i - 1, whose top monomial
        prod x_i^(p^e_i - 1) has degree sum_i (p^e_i - 1) (Jennings).
        """
        return 1 + sum(m - 1 for m in self.group.abelian.factors)

    def one_plus_gamma_exponent(self) -> int:
        """Smallest power p^k that annihilates 1 + gamma elementwise.

        (1 + g)^(p^k) = 1 + g^(p^k) for a single element g, so the group
        exponent is the least p^k at or above the nilpotency index of gamma.
        """
        N = self.nilpotency_index()
        k, power = 0, 1
        while power < N:
            power *= self.field.p
            k += 1
        return self.field.p ** k

    def __repr__(self):
        return f"GroupAlgebra(GF({self.field.p}^{self.field.f})[{self.group!r}])"
