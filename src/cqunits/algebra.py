"""The group algebra FG as an exact dense coefficient ring.

AlgElem holds one length-|G| array of field codes indexed by the group
element index.  Products run through exact integer scatter-adds: small
groups use the full multiplication table, larger ones convolve the q
A-slices through the A-addition table so no |G| x |G| table is needed.
Both accumulate in float64 through one scatter-convolution helper, whose
exactness bound is checked once when the algebra is built.

The ideal generated by {a - 1 : a in A} is called gamma throughout; it
is the kernel of the projection rho onto FB and is nilpotent, which is
what makes geometric-series inversion and the Cayley transform work.
"""

from __future__ import annotations

import numpy as np

from . import _linalg
from .errors import BudgetExceeded, CtxMismatch, MathDomainError, NotAUnit
from .field import FieldCtx
from .group import GroupElem, GroupSpec


class Subspace:
    """A row space over GF(p^f), stored as its canonical reduced echelon basis.

    Pivots are taken from the right: the basis is rref(rows[:, ::-1]) read
    back in ambient column order, each row 1 at its rightmost nonzero column,
    rows in descending pivot order.  `reduced=True` passes such a basis as is.
    """

    def __init__(self, field: FieldCtx, rows, reduced: bool = False):
        self.field = field
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        n = rows.shape[1]
        if reduced:
            self.basis = rows
            self.pivots = _linalg.right_pivots(rows).tolist()
        else:
            R, piv = _linalg.rref(field, rows[:, ::-1])
            self.basis = np.ascontiguousarray(R[:, ::-1])
            self.pivots = [n - 1 - c for c in piv]
        self.ambient = n

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

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


class AlgElem:
    """One element of FG; coefficient array is treated as immutable."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "GroupAlgebra", coeffs):
        self.ctx = ctx
        c = np.ascontiguousarray(coeffs, dtype=np.int64)
        if c.shape != (ctx.order,):
            raise MathDomainError(f"coefficient array must have length {ctx.order}")
        c.setflags(write=False)
        self.coeffs = c

    def _check(self, other):
        if isinstance(other, AlgElem):
            if other.ctx is not self.ctx:
                raise CtxMismatch("elements of different group algebras")
            return other
        if isinstance(other, int):
            return self.ctx.scalar(other)
        raise TypeError(f"cannot combine AlgElem with {type(other).__name__}")

    def __add__(self, other):
        other = self._check(other)
        return AlgElem(self.ctx, self.ctx.field.vadd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return AlgElem(self.ctx, self.ctx.field.vsub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return AlgElem(self.ctx, self.ctx.field.vneg(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, AlgElem):
            if other.ctx is not self.ctx:
                raise CtxMismatch("elements of different group algebras")
            return AlgElem(self.ctx, self.ctx.mul_coeffs(self.coeffs, other.coeffs))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "AlgElem":
        code = self.ctx.field.elem(c).code
        return AlgElem(self.ctx, self.ctx.field.vmul(self.coeffs, np.int64(code)))

    def __pow__(self, e: int) -> "AlgElem":
        if e < 0:
            return self.ctx.invert(self) ** (-e)
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, AlgElem) and other.ctx is self.ctx
                and np.array_equal(other.coeffs, self.coeffs))

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def star(self) -> "AlgElem":
        """The involution extending g -> g^-1."""
        return AlgElem(self.ctx, self.coeffs[self.ctx.group.inv_perm])

    def augmentation(self):
        return self.ctx.field.from_code(int(self.ctx.field.vsum(self.coeffs, axis=0)))

    def rho_coeffs(self) -> np.ndarray:
        """Length-q code array of the image under rho: FG -> FB."""
        sliced = self.coeffs.reshape(self.ctx.group.abelian.order, self.ctx.group.q)
        return np.asarray(self.ctx.field.vsum(sliced, axis=0), dtype=np.int64)

    def in_gamma(self) -> bool:
        return not self.rho_coeffs().any()

    def is_unit(self) -> bool:
        return self.ctx.fb_inverse_coeffs(self.rho_coeffs()) is not None

    def sym_skew_split(self) -> tuple["AlgElem", "AlgElem"]:
        """(x + x*)/2 and (x - x*)/2; requires odd p."""
        st = self.star()
        half = self.ctx.inv2
        return (self + st).scale(half), (self - st).scale(half)

    def support(self):
        for g in np.nonzero(self.coeffs)[0]:
            yield GroupElem(self.ctx.group, int(g)), self.ctx.field.from_code(int(self.coeffs[g]))

    def __repr__(self):
        return f"AlgElem({self.format()})"

    def format(self) -> str:
        """Grammar-compatible rendering, e.g. '5 + 5*b + 3*a1^2*b^2'."""
        field = self.ctx.field
        parts = []
        for g, c in self.support():
            if field.f == 1:
                cs = str(c.code)
            else:
                cs = "[" + ",".join(str(d) for d in c.coeffs) + "]"
            gs = repr(g)
            if gs == "1":
                parts.append(cs)
            elif c.code == 1:
                parts.append(gs)
            else:
                parts.append(f"{cs}*{gs}")
        return " + ".join(parts) if parts else "0"


class GroupAlgebra:
    """Pairing of a FieldCtx with a GroupSpec, with cached mult machinery."""

    _TABLE_MUL_LIMIT = 1500

    def __init__(self, field: FieldCtx, group: GroupSpec):
        self.field = field
        self.group = group
        self.order = group.order
        self.q = group.q
        self.inv2 = field.from_code(field.inv(2))
        # the largest float64 sum in _scatter_conv: |G| products of digits < p,
        # each spread over the field tensor's entries (a single 1 when f = 1)
        bound = (field.p - 1) ** 2 * self.order * int(field._tensor.sum(axis=(0, 1)).max())
        if bound >= _linalg._F64_LIMIT:
            raise BudgetExceeded(f"FG products would sum up to {bound}, past exact float64")
        self._mul_flat = (group.mul_table.ravel()
                          if group.mul_table is not None and group.order <= self._TABLE_MUL_LIMIT
                          else None)
        self._a_add_flat = group.a_add.ravel()
        self._gamma = None
        self._star_pairs = None
        self._sym_skew = None
        self._nilpotency = None

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
        return self._mul_slice_path(x, y)

    def _scatter_conv(self, index, size, x, y) -> np.ndarray:
        """Float64 sums of x[g] y[h] at index[g * len(y) + h], unreduced: shape
        (size,) for f = 1, else (size, f) digits; __init__ bounds them exactly."""
        f = self.field.f
        if f == 1:
            return np.bincount(index, weights=np.outer(x, y).ravel().astype(np.float64),
                               minlength=size)
        O = np.einsum("gi,hj,ijk->ghk", self.field.decode(x), self.field.decode(y),
                      self.field._tensor)
        return np.stack([np.bincount(index, weights=O[:, :, k].ravel().astype(np.float64),
                                     minlength=size) for k in range(f)], axis=1)

    def _reduce(self, sums: np.ndarray) -> np.ndarray:
        """Field codes of exact float64 sums from `_scatter_conv`."""
        digits = np.rint(sums).astype(np.int64) % self.field.p
        return digits if self.field.f == 1 else self.field.encode(digits)

    def _mul_table_path(self, x, y):
        return self._reduce(self._scatter_conv(self._mul_flat, self.order, x, y))

    def _mul_slice_path(self, x, y):
        q, na = self.q, self.group.abelian.order
        xs = x.reshape(na, q)
        ys = y.reshape(na, q)
        sig = self.group.sigma_pows
        acc = np.zeros((q, na) + ((self.field.f,) if self.field.f > 1 else ()))
        for i in range(q):
            xi = xs[:, i]
            if not xi.any():
                continue
            Yp = np.empty_like(ys)
            Yp[sig[(q - i) % q]] = ys
            for j in range(q):
                yj = Yp[:, j]
                if yj.any():
                    acc[(i + j) % q] += self._scatter_conv(self._a_add_flat, na, xi, yj)
        return self._reduce(acc).T.reshape(self.order)

    # --- inversion --------------------------------------------------------------

    def fb_inverse_coeffs(self, w: np.ndarray):
        """Inverse of sum w_j b^j inside FB, or None if it is not a unit."""
        q = self.q
        M = np.empty((q, q), dtype=np.int64)
        for k in range(q):
            M[:, k] = np.roll(w, k)  # column k = coefficients of b^k * w
        e0 = np.zeros(q, dtype=np.int64)
        e0[0] = 1
        return _linalg.solve_right(self.field, M, e0)

    def invert(self, x: AlgElem) -> AlgElem:
        """Exact inverse: FB-inverse of rho(x), then a geometric series in gamma.

        x is a unit of FG iff rho(x) is a unit of FB, because 1 + gamma
        consists of units (gamma is nilpotent).
        """
        winv = self.fb_inverse_coeffs(x.rho_coeffs())
        if winv is None:
            raise NotAUnit("rho(x) is not invertible in FB")
        W = self.from_b_coeffs(winv)
        u = x * W  # in 1 + gamma
        neg_g = self.one() - u
        inv_u = self.one()
        term = self.one()
        for _ in range(self.gamma_dim() + 2):
            term = term * neg_g
            if term.is_zero():
                break
            inv_u = inv_u + term
        else:
            raise NotAUnit("geometric series did not terminate")
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
        """The symmetric and skew slices S1, S2 of gamma, written down.

        Over the pairs (hi, pi[hi]) of gamma_star_pairs() S1 and S2 have the
        canonical bases e_hi + e_pi[hi] and e_hi - e_pi[hi], rows in descending
        hi; so dim S2 is the number of pairs, and reading it needs no basis.
        """
        if self._sym_skew is None:
            pi, hi = self.gamma_star_pairs()
            rows = np.arange(hi.size)

            def slice_basis(sign):
                K = np.zeros((hi.size, pi.size), dtype=np.int64)
                K[rows, hi] = 1
                K[rows, pi[hi]] = sign
                return Subspace(self.field, self.gamma_expand(K), reduced=True)

            self._sym_skew = (slice_basis(1), slice_basis(self.field.neg(1)))
        return self._sym_skew

    def nilpotency_index(self) -> int:
        """Smallest N with gamma^N = 0, via radical powers inside FA."""
        if self._nilpotency is None:
            na = self.group.abelian.order
            gens = []
            for k in range(len(self.group.abelian.factors)):
                v = np.zeros(na, dtype=np.int64)
                v[self.group.elem([1 if i == k else 0
                                   for i in range(len(self.group.abelian.factors))]).a_index] = 1
                v[0] = self.field.neg(1)
                gens.append(v)
            basis = np.zeros((na - 1, na), dtype=np.int64)
            basis[:, 1:] = np.eye(na - 1, dtype=np.int64)
            basis[:, 0] = self.field.neg(1)
            N = 1
            R, piv = _linalg.rref(self.field, basis)
            while R.shape[0]:
                prods = [self._conv_a(R[i], g) for i in range(R.shape[0]) for g in gens]
                R, piv = _linalg.rref(self.field, np.stack(prods))
                N += 1
            self._nilpotency = N
        return self._nilpotency

    def _conv_a(self, u, v):
        return self._reduce(self._scatter_conv(self._a_add_flat, self.group.abelian.order,
                                               u, v))

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
