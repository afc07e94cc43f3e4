"""The group algebra FG as an exact dense coefficient ring.

AlgElem is a `CoeffElem`, the element core that `cqstruct` shares with
FB, of length |G| and indexed by the group element index, and
`GroupAlgebra` is a `CoeffRing` like FB's context; this module adds what
is particular to FG (rho, gamma, the product, the inverse).
The algebra holds its FB layer as `GroupAlgebra.fb`, whose circulant
solve inverts rho(x) for `invert` and `is_unit`.  Groups of order up to
`_TABLE_ORDER` over a prime field multiply through the full multiplication
table with one exact float64 scatter-add (`_mul_table_path`).  Every other
algebra, and every one over GF(p^f) with f > 1, uses discrete Fourier
transforms: A is indexed row-major over its invariant factors, so a product
in FA is a multi-dimensional cyclic convolution, transformed by one gemm per
axis with the algebra's DFT matrices; sigma acts on spectra by permuting the
characters of A, so each product takes one inverse transform (`_mul_fft`).
An operand used in several products is transformed once (`transform`, a
`Spectrum`), as `invert` does with each power of g, and a product's
temporaries live in work arrays the algebra builds once (`_work`).
The algebra builds its DFT matrices, gather and work arrays itself; the
table is the group's cached `mul_table`.
Both routes carry exactness bounds checked when the algebra is built, and
every transform product also checks its rounding distances against its bound.

The ideal generated by {a - 1 : a in A} is called gamma throughout; it
is the kernel of the projection rho onto FB and is nilpotent, with an
index read off the invariant factors of A.  That is what makes inversion
by repeated squaring and the Cayley transform work.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _linalg
from ._memory import refuse_past_memory, refuse_past_room
from .cqstruct import CoeffElem, CoeffRing, FBCtx
from .errors import BudgetExceeded, CtxMismatch, MathDomainError, NotAUnit
from .field import FieldCtx
from .group import GroupElem, GroupSpec


def rho_images(field: FieldCtx, q: int, K: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rho of the rows of K placed at the group indices cols, shape (..., m)
    for K of width m: the entry at a b^j goes to b^j.  Shape (..., rows, q)."""
    return field.encode(np.einsum("dmf,...mq->...dqf", field.decode(K),
                                  (cols[..., None] % q == np.arange(q)).astype(np.int64)))


def distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) over the distinct rows of the 2-d int64 array keys, numbered
    in order of first occurrence: the index of each one's first occurrence, and
    the number of every row's."""
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    _, first, inverse = np.unique(keys.view(np.dtype((np.void, 8 * keys.shape[1]))).ravel(),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return first[order], number[inverse.ravel()]


class Subspace:
    """A row space over GF(p^f), stored as its canonical reduced echelon basis.

    Pivots are taken from the right (`_linalg.right_echelon`): each row is 1
    at its rightmost nonzero column, rows in descending pivot order.

    A subspace of gamma may come in block form, rows None and blocks =
    (ambient, q, groups, kernels, rank): ker rho (of that rank) from FG
    (|G| = ambient) onto FB (q = |B|) on the block kernels.  groups maps a
    width m to (C, which): block t is kernels[which[t]] at the group indices
    C[t], in the column order it was solved in (for a centralizer, the
    canonical coordinates of its double cosets); blocks need not cover G.
    `dim` is read off the kernel shapes.  `basis` and `pivots` are built on
    first read (`_echelon`); the block form stays as it was built.  It holds
    only those two integers of its algebra, not the algebra itself: an
    algebra caching its own subspaces (`sym_skew_subspaces`) then makes no
    reference cycle, and is freed as soon as it is dropped.
    """

    def __init__(self, field: FieldCtx, rows, blocks=None):
        self.field = field
        self.blocks = blocks
        if blocks is not None:
            self.ambient, _, groups, kernels, rank = blocks
            heights = np.array([k.shape[0] for k in kernels])
            self.dim = sum(int(heights[which].sum()) for _, which in groups.values()) - rank
            return
        self._echelon = _linalg.right_echelon(field, rows)
        self.ambient = self.basis.shape[1]
        self.dim = self.basis.shape[0]

    @property
    def basis(self) -> np.ndarray:
        return self._echelon[0]

    @property
    def pivots(self) -> list[int]:
        return self._echelon[1]

    @cached_property
    def _echelon(self):
        """The block form's canonical basis and pivots, in one pass over each
        width's distinct (kernel, ascending column order) pairs: each kernel is
        re-echeloned in that order once (not at all where the order already
        ascends).  With the block rows in ascending pivot order and
        E = rref(rho(rows)^T), the basis (the canonical kernel of
        c -> c rho(rows), times the rows) is free row i less E[k, i] times
        the k-th bound row.  K holds the free rows in descending pivot order,
        then the bound ones, and is corrected in place on the columns S of
        the blocks that hold bound rows.

        Refused (BudgetExceeded) past
        8 ((dim + rank) (|G| + c |S| + rank + 4) + |G| + e) + 8192 bytes: the
        rows, bound ones included; the correction (c = 3, or 1 + f + 2 f^2 for
        f > 1); E and four row numberings; the blocks' ascending columns; the
        e entries of the kernels placed; and the small arrays' headers."""
        n, q, groups, kernels, rank = self.blocks
        fld, f = self.field, self.field.f
        parts = []  # (kernel, its blocks' columns in ascending order)
        for m, (C, which) in groups.items():
            order = np.argsort(C, axis=1)
            C = np.take_along_axis(C, order, axis=1)
            first, number = distinct_rows(np.column_stack([which, order]))
            for j, r in enumerate(first.tolist()):
                k = kernels[which[r]]
                if np.any(order[r] != np.arange(m)):
                    k = _linalg.right_echelon(fld, k[:, order[r]])[0]
                parts.append((k, C[number == j]))
        # rows are numbered part by part, block by block; up sorts them by pivot
        piv = np.concatenate([C[:, _linalg.right_pivots(k)].ravel() for k, C in parts])
        up = np.argsort(piv)
        E, bound = _linalg.rref(fld, np.concatenate(
            [rho_images(fld, q, k, C).reshape(-1, q) for k, C in parts])[up].T)
        if len(bound) != rank:
            raise MathDomainError(f"rho has rank {len(bound)} on the block kernels, not {rank}")
        free = np.delete(np.arange(piv.size), bound)
        d, dest = free.size, np.empty(piv.size, dtype=np.int64)
        dest[up[free]], dest[up[bound]] = np.arange(d)[::-1], d + np.arange(rank)
        at = np.cumsum([0] + [C.shape[0] * k.shape[0] for k, C in parts])
        rows = [dest[lo:hi].reshape(C.shape[0], k.shape[0])
                for (k, C), lo, hi in zip(parts, at, at[1:])]
        S = np.concatenate([C[np.any(r >= d, axis=1)].ravel() for (_, C), r in zip(parts, rows)])
        c = 3 if f == 1 else 1 + f + 2 * f * f
        e = sum(k.size for k, _ in parts)
        refuse_past_memory(8 * ((d + rank) * (n + c * S.size + rank + 4) + n + e) + 8192,
                           "the dense basis rows")
        K = np.zeros((d + rank, n), dtype=np.int64)  # free rows, then bound ones
        for (k, C), r in zip(parts, rows):
            K[r[:, :, None], C[:, None, :]] = k
        if rank and d:
            K[:d, S] = fld.vsub(K[:d, S], _linalg.matmul_mod(fld, E[:, free[::-1]].T, K[d:, S]))
        return K[:d], piv[up[free[::-1]]].tolist()

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.pivots == other.pivots
                and np.array_equal(self.basis, other.basis))

    def __hash__(self):
        return hash((tuple(self.pivots), self.basis.tobytes()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class Spectrum(NamedTuple):
    """A code array transformed for `GroupAlgebra._mul_fft`: its spectra F, of
    shape (f, q, H) (digit, slot, stored character of A), and its nonzero slots."""

    F: np.ndarray
    slots: np.ndarray


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
_GATHER_BYTES = 1 << 22  # `_mul_fft` gathers y's spectra for this many bytes of slots at once
# the largest |G| whose f = 1 products go through the table: per product of random full
# operands on one BLAS thread, the table takes 0.029 ms against the transform's 0.035 ms
# at |G| = 93, 0.040 against 0.036 at 111, and 15.6 against 0.14 at 1379 (c197)
_TABLE_ORDER = 100


def fft_error_bound(magnitude: int, axis_lengths, f: int, q: int) -> float:
    """A-priori bound on the rounding error of one `_mul_fft` product.

    Each transform is a direct DFT, one gemm per axis of A: every real part of
    its outputs is a dot product of at most 2n real terms, so an axis of
    length n is off by at most beta(n) sum|w||v| at each output, with
    beta(n) = mu + (1 + mu) sqrt 2 gamma(2n), gamma(k) = k e / (1 - k e), e
    the unit roundoff (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, sections 3.1 and 3.6), and mu a bound on
    |w^ - w| for the twiddles, computed as cos and sin of the reduced angle
    2 pi (jk mod n) / n to within gamma(3) 2 pi + 8 e (and, on the inverse
    last axis, times 2 / |A| to within gamma(2) more).  As |w| = 1, an axis
    is off by at most sqrt(n) beta(n) times the exact norm, so x's and y's
    spectra are off by at most d = prod_axes (1 + sqrt(n) beta(n)) - 1
    times theirs in the Euclidean norm.  Cauchy-Schwarz over the characters
    (sigma's gather permutes them, conjugation keeps moduli) bounds the l1
    norm of the exact slot products by |A| `magnitude`, and of their error
    by ((1 + d)^2 - 1) |A| `magnitude`; `magnitude` = (p - 1)^2 |A| q times
    the largest tensor column sum bounds sum_i sum_ab T_abc |x_ia| |y_jb|.
    The tensor contraction (f terms) and the sum over the q slots and f
    digits (2 f q real terms) add factors (1 + gamma(f)) and
    (1 + sqrt 2 gamma(2 f q)).  The inverse maps an l1 norm of the spectrum
    over |A| to each output and is off by prod_axes (1 + beta(n)) - 1 of
    that, so one product is off by at most

      magnitude ((1 + d)^2 prod_axes (1 + beta(n)) (1 + gamma(f)) (1 + sqrt 2 gamma(2 f q)) - 1).
    """
    def gamma(k):
        return k * _EPS / (1 - k * _EPS)

    mu = 2 ** 0.5 * ((2 * math.pi * gamma(3) + 8 * _EPS) * (1 + gamma(2)) + gamma(2))
    beta = [mu + (1 + mu) * 2 ** 0.5 * gamma(2 * n) for n in axis_lengths]
    log_growth = (sum(math.log1p(b) + 2 * math.log1p(n ** 0.5 * b)
                      for n, b in zip(axis_lengths, beta))
                  + math.log1p(gamma(f)) + math.log1p(2 ** 0.5 * gamma(2 * f * q)))
    return magnitude * math.expm1(log_growth)


class GroupAlgebra(CoeffRing):
    """Pairing of a FieldCtx with a GroupSpec, with cached mult machinery.

    Transform products share the algebra's work arrays, so one algebra must
    not multiply in two threads at once."""

    elem_type = AlgElem

    def __init__(self, field: FieldCtx, group: GroupSpec, fb: FBCtx | None = None):
        """Refuses (BudgetExceeded) an algebra whose products could be inexact.

        The route a product takes is checked.  Where a table is built
        (f = 1, |G| <= `_TABLE_ORDER`), the table path's
        float64 sums must stay below 2^53.  For `_mul_fft`, the bound
        `fft_error_bound` on the rounding error of one product must stay
        below 1/4, so that rounding to the nearest integer is exact; it
        depends on p, q, |A|, the axis lengths of A, the field tensor and the
        float64 unit roundoff.  The algebra's FB layer is `fb`, built here
        unless the caller passes the `FBCtx(field, group.q)` it already holds.
        A field whose characteristic is not the group's p is refused (CtxMismatch).
        """
        self.field = field
        self.group = group
        self.order = group.order
        self.q = group.q
        self.star_perm = group.inv_perm
        self.inv2 = field.from_code(field.inv(2))
        if field.p != group.p:
            raise CtxMismatch(f"the field has characteristic {field.p}, the group p = {group.p}")
        if fb is None:
            fb = FBCtx(field, group.q)
        elif fb.field.signature != field.signature or fb.q != group.q:
            raise CtxMismatch("the FB layer belongs to another field or q")
        self.fb = fb
        # past _TABLE_ORDER, and for f > 1 even at |G| = 147 (gf49), the transform
        # product is the faster one, so no table is built
        table = field.f == 1 and self.order <= _TABLE_ORDER
        self._mul_flat = group.mul_table.ravel() if table else None
        # a table product digit sums |G| products of digits < p
        bound = (field.p - 1) ** 2 * self.order
        if self._mul_flat is not None and bound >= _linalg._F64_LIMIT:
            raise BudgetExceeded(f"FG products would sum up to {bound}, past exact float64")
        # each transform product digit sums q |A| products of digits < p, each spread
        # over the field tensor's entries (a single 1 when f = 1)
        spread = int(field._tensor.sum(axis=(0, 1)).max())
        magnitude = (field.p - 1) ** 2 * group.abelian.order * self.q * spread
        self._fft_bound = fft_error_bound(magnitude, group.abelian.factors, field.f, self.q)
        if self._fft_bound >= 0.25:
            raise BudgetExceeded(f"FFT products could be off by {self._fft_bound:.3g}, "
                                 "past the 1/4 that rounding corrects")
        self._star_pairs = None
        self._sym_skew = None

    @cached_property
    def _dft(self):
        """((forward, inverse), gather): the DFT matrices over A's invariant-factor
        axes and the slot gather, built on the first `_mul_fft`.  Refused
        (BudgetExceeded) before any of them is built, past 32 sum_lead m^2 + 32 n h
        for the matrices and 32 n h for the temporaries that build the last axis's
        (the peak on c197's single axis), 8 q^2 H for the gather index, the bytes of
        the work arrays (`_work_shapes`: 16 f q |A| + 48 f q H, 16 f q H per
        gathered result slot, 16 f q H more with a lead axis and 16 f^2 q H with
        f > 1) and 8 spectra of 16 f q H bytes for a product (n the last axis,
        h = n // 2 + 1, H = h prod_lead m characters).

        For each axis but the last, of length m: W[j, k] = exp(-2 pi i (jk mod m) / m)
        (complex, symmetric) and its conjugate.  For the last axis: the real (n, 2h)
        matrix whose columns 2k, 2k + 1 are cos and -sin of 2 pi (tk mod n) / n, so
        real rows times it are their half spectra as interleaved complex pairs; and
        the real (2h, n) matrix with rows c_k cos and -c_k sin of the same angles over
        |A| (c_0 = 1, else 2), which takes an interleaved Hermitian half spectrum,
        already inverted on the other axes, back to real rows and divides by |A|.
        All are C-contiguous.

        The gather is a (q, q, H) index into a (2, q, H) array [spectra of the y_j;
        their conjugates]: at [s, i] it reads y_(s - i) o sigma^i, the factor slot s
        takes from x's slot i.  At the stored character k, y o sigma^t has y's spectrum at
        k' = k o sigma^-t, conjugated where k' is not stored; k'_j = n_j sum_l k_l
        c_jl / n_l mod n_j, c_j the exponents of sigma^-t(e_j).
        """
        G, q = self.group, self.q
        *lead, n = G.abelian.factors
        h = n // 2 + 1
        H = math.prod(lead) * h
        work = sum(math.prod(shape) * np.dtype(dtype).itemsize
                   for shape, dtype in self._work_shapes().values())
        refuse_past_memory(32 * sum(m * m for m in lead) + 64 * n * h
                           + 8 * q ** 2 * H + work + 8 * 16 * self.field.f * q * H,
                           "the DFT matrices, the slot gather and the work arrays")

        def angles(rows, cols, m):
            return 2 * np.pi / m * (np.outer(np.arange(rows), np.arange(cols)) % m)

        forward = [np.cos(t) - 1j * np.sin(t) for t in (angles(m, m, m) for m in lead)]
        inverse = [W.conj() for W in forward]
        theta = angles(n, h, n)
        last = np.empty((n, 2 * h))
        last[:, 0::2], last[:, 1::2] = np.cos(theta), -np.sin(theta)
        weight = np.where(np.arange(h) == 0, 1.0, 2.0)[:, None] / G.abelian.order
        back = np.empty((2 * h, n))
        back[0::2], back[1::2] = weight * np.cos(theta.T), -weight * np.sin(theta.T)

        facs = np.asarray(G.abelian.factors, dtype=np.int64)
        k = np.indices((*lead, h)).reshape(facs.size, -1).T
        units = [G.generator(j + 1).idx // q for j in range(facs.size)]
        c = G.a_exps[G.sigma_pows[-np.arange(q) % q][:, units]]  # t, j, l
        kt = k @ np.swapaxes(c * facs[:, None] // facs, 1, 2) % facs  # t, k, j
        conj = kt[..., -1] > n // 2
        kt[conj] = -kt[conj] % facs
        chars = np.ravel_multi_index(tuple(np.moveaxis(kt, -1, 0)), (*lead, h)) + conj * q * H
        shift = (np.arange(q)[:, None] - np.arange(q)) % q  # [s, i] -> s - i
        gather = np.add(shift[:, :, None] * H, chars[None, :, :],
                        out=np.empty((q, q, H), dtype=np.int64))
        return (forward + [last], inverse + [back]), gather

    def _gather_slots(self) -> int:
        """How many result slots `_mul_fft` gathers at once: all q unless their
        f q^2 H spectra pass `_GATHER_BYTES` (c43cube: one at a time)."""
        *lead, n = self.group.abelian.factors
        H = math.prod(lead) * (n // 2 + 1)
        return min(self.q, max(1, _GATHER_BYTES // (16 * self.field.f * self.q * H)))

    def _work_shapes(self) -> dict:
        """name -> (shape, dtype) of the work arrays of a transform product.

        "rows" holds the real digit planes of a code array (forward) and of a
        product (inverse), "half" their half spectra on the last axis (with a
        lead axis only: without one the forward half spectrum is the kept
        spectrum), "FYc" [FY; conj FY] per digit, "G" the spectra gathered for
        `_gather_slots` result slots, "P" their sums over x's slots and "Z"
        the rounded rows; over an extension field "FXT" holds x's spectra
        contracted with the field tensor."""
        q, f, na = self.q, self.field.f, self.group.abelian.order
        *lead, n = self.group.abelian.factors
        H = math.prod(lead) * (n // 2 + 1)
        shapes = {"rows": ((f * q, na), np.float64), "FYc": ((f, 2, q, H), np.complex128),
                  "G": ((f, self._gather_slots(), q, H), np.complex128),
                  "P": ((q, f, H), np.complex128), "Z": ((f * q, na), np.float64)}
        if lead:
            shapes["half"] = ((f * q, H), np.complex128)
        if f > 1:
            shapes["FXT"] = ((f, f, q, H), np.complex128)
        return shapes

    @cached_property
    def _work(self) -> dict:
        """The work arrays of `_work_shapes`, built once after `_dft` (whose
        refusal counts them) and reused by every transform product."""
        self._dft
        return {name: np.empty(shape, dtype=dtype)
                for name, (shape, dtype) in self._work_shapes().items()}

    # --- element constructors ------------------------------------------------

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

    def mul_coeffs(self, x, y) -> np.ndarray:
        """x y, each a code array or what `transform` made of one."""
        if self._mul_flat is not None:
            return self._mul_table_path(x, y)
        return self._mul_fft(x, y)

    def transform(self, c: np.ndarray):
        """The code array c as an operand of `mul_coeffs`, for use in more than
        one product: its `Spectrum` on the transform route, c on the table route."""
        return c if self._mul_flat is not None else self._spectrum(c)

    def _mul_table_path(self, x, y):
        """x y over a prime field: the float64 sums of x[g] y[h] at the index
        of g h in the table, one bincount.  __init__ bounds them below 2^53,
        so they are exact."""
        sums = np.bincount(self._mul_flat, weights=np.outer(x, y).ravel().astype(np.float64),
                           minlength=self.order)
        return self.field.mod_p(np.rint(sums).astype(np.int64))

    def _along_lead(self, S, mats, out=None):
        """The DFT mats[a] along lead axis a of S, of shape (f q, *lead, ...); the
        last gemm writes into out (a C-contiguous array of its size) if given."""
        *lead, _ = self.group.abelian.factors
        rows = self.field.f * self.q
        for a, W in enumerate(mats[:-1]):
            shape = (rows * math.prod(lead[:a]), lead[a], -1)
            last = out is not None and a == len(lead) - 1
            S = np.matmul(W, S.reshape(shape), out=out.reshape(shape) if last else None)
        return S

    def _spectrum(self, c: np.ndarray) -> Spectrum:
        """The forward transform of the code array c: one real gemm takes the
        last axis of its float digit planes (the "rows" work array) to the
        stored half spectrum, one complex gemm per other axis does the rest
        (the matrices of `_dft`).  Over a prime field the codes are the
        digits, copied into the planes with no `FieldCtx.decode`.  The
        spectrum is a fresh array, never a view of a work array: with no lead
        axis it is the last-axis gemm's own output."""
        q, f, na = self.q, self.field.f, self.group.abelian.order
        n = self.group.abelian.factors[-1]
        forward = self._dft[0][0]
        work = self._work
        c = c.reshape(na, q)
        planes = work["rows"]
        planes.reshape(f, q, na)[...] = (c if f == 1 else self.field.decode(c)).T
        half = work.get("half")  # complex (f q, H): the real (f q prod_lead m, 2h) gemm output
        if half is not None:
            half = half.view(np.float64).reshape(-1, 2 * (n // 2 + 1))
        half = np.matmul(planes.reshape(-1, n), forward[-1], out=half)
        F = self._along_lead(half.view(np.complex128), forward).reshape(f, q, -1)
        # at the trivial character every matrix entry is 1 (and -0), so F[d, i, 0] is 0
        # exactly where digit d of slot i is zero, and at least 1 elsewhere
        return Spectrum(F, F[:, :, 0].real.any(axis=0).nonzero()[0])

    def _mul_fft(self, x, y):
        """x y through the group's per-axis DFT matrices over A's invariant-factor axes.

        x_i a b^i * y_j c b^j = (a + sigma^-i(c)) b^(i+j): slot i + j gains
        x_i * (y_j o sigma^i) in FA, whose spectrum is x_i's times a gather
        of y_j's.  x and y are code arrays or `Spectrum`s (`transform`); a
        code array is transformed here (`_spectrum`), once for a square (y is
        x).  The field tensor is contracted into x's spectra on its nonzero
        slots; the gather of `_dft` reads every y_j o sigma^i off [y's
        spectra; their conjugates], `_gather_slots` result slots at a time
        (all q unless |A| q^2 f is large), and the products are summed over
        x's nonzero slots.  The inverse gemms take the q slices back to
        integers; the rounding distances are checked against the a-priori
        bound of __init__ (MathDomainError past it).

        Every temporary lives in the algebra's work arrays (`_work`) and is
        filled through `out=`, so a product allocates only its output and
        the spectra of its code-array operands: per-product temporaries lie
        above glibc's mmap threshold on c61sq, and were mapped and unmapped
        again, about 370 minor page faults a product.  `np.take` gathers with
        mode "wrap" (under "raise" numpy buffers `out`).  Over a prime field
        (f = 1) the tensor [[1]] is not contracted, one same-shape multiply
        per result slot (numpy buffers a broadcast complex multiply) and one
        sum over x's slots replace the einsum of f > 1, and the rounded sums
        are reduced as x - (x // p) p (`FieldCtx.mod_p`, the quotients in the
        spent rounding distances), with no `FieldCtx.encode`.  The work
        arrays make an algebra's products unsafe to run in two threads at once.
        """
        q, f, na = self.q, self.field.f, self.group.abelian.order
        *lead, n = self.group.abelian.factors
        (_, inverse), gather = self._dft
        H = gather.shape[2]
        work = self._work
        X = x if isinstance(x, Spectrum) else self._spectrum(x)
        Y = X if y is x else y if isinstance(y, Spectrum) else self._spectrum(y)
        nz = X.slots
        whole = nz.size == q  # x on every slot: its spectra and gather rows are read as views
        FXn = X.F if whole else X.F[:, nz]
        if f > 1:  # FXT[b, c, i, k] = sum_a T[a, b, c] FX[a, i, k]
            T = np.ascontiguousarray(self.field._tensor.transpose(1, 2, 0).reshape(f * f, f),
                                     dtype=np.float64)
            FXT = work["FXT"].reshape(-1)[:f * f * nz.size * H].reshape(f, f, nz.size, H)
            np.matmul(T, FXn.view(np.float64).reshape(f, -1),
                      out=FXT.view(np.float64).reshape(f * f, -1))
        FYc, G, P = work["FYc"], work["G"], work["P"]
        FYc[:, 0] = Y.F
        np.conjugate(Y.F, out=FYc[:, 1])
        step = G.shape[1]
        for lo in range(0, q, step):
            w = min(step, q - lo)
            Gw = G.reshape(-1)[:f * w * nz.size * H].reshape(f, w, nz.size, H)
            FYc.reshape(f, -1).take(gather[lo:lo + w] if whole else gather[lo:lo + w, nz],
                                    axis=1, mode="wrap", out=Gw)
            if f == 1:
                for Gs in Gw[0]:
                    np.multiply(Gs, FXn[0], out=Gs)
                np.add.reduce(Gw[0], axis=1, out=P[lo:lo + w, 0])
            else:
                np.einsum("bcik,bsik->sck", FXT, Gw, out=P[lo:lo + w])
        R = self._along_lead(P.reshape(q * f, *lead, -1), inverse, out=work.get("half"))
        R = np.matmul(R.view(np.float64).reshape(-1, 2 * (n // 2 + 1)), inverse[-1],
                      out=work["rows"].reshape(-1, n))
        Z = np.rint(R, out=work["Z"].reshape(R.shape))
        worst = float(np.abs(np.subtract(R, Z, out=R), out=R).max())
        if worst > self._fft_bound:
            raise MathDomainError(f"FFT product rounding distance {worst:.3g} exceeds "
                                  f"its bound {self._fft_bound:.3g}")
        if f == 1:  # the rounded sums are the codes, less multiples of p
            codes = np.empty((na, q), dtype=np.int64)
            codes[...] = Z.reshape(q, na).T
            return self.field.mod_p(codes, scratch=R.view(np.int64).reshape(na, q)).reshape(-1)
        codes = self.field.encode(np.moveaxis(Z.reshape(q, f, na).astype(np.int64), 1, -1))
        return codes.T.reshape(self.order)

    # --- inversion --------------------------------------------------------------

    def invert(self, x: AlgElem) -> AlgElem:
        """Exact inverse: W = rho(x)^-1 in FB, then (x W)^-1 = (1 - g)^-1 by squaring.

        x is a unit of FG iff rho(x) is a unit of FB, because 1 + gamma
        consists of units.  g = 1 - x W lies in gamma.  With the factors
        1 + g^(2^i) for 2^i < N = nilpotency_index(), x x^-1 = 1 - g^(2^k) for
        the first 2^k >= N, so the check x x^-1 = 1 is the one nilpotency guard.
        A scalar rho(x) (as rho(1 + l) = 1 for l in gamma) is inverted in F with
        no circulant solve and W scales: then two products per factor after
        1 + g, and the check, at most 11 on c31sq (N = 61) and 5 on c7 (N = 7).
        Otherwise x W and W (1 - g)^-1 add two products.  Each g^(2^i) is
        transformed once (`transform`): its spectrum serves both the square
        g^(2^(i+1)) and the product by the running inverse, so on c31sq the 11
        products take 13 forward transforms, not 22.
        """
        rho = x.rho_coeffs()
        if rho[1:].any():
            winv = self.fb.inverse_coeffs(rho)
            if winv is None:
                raise NotAUnit("rho(x) is not invertible in FB")
            W, c = self.from_b_coeffs(winv), None
        elif rho[0]:
            W, c = None, self.field.from_code(self.field.inv(int(rho[0])))  # W is the scalar c
        else:
            raise NotAUnit("rho(x) is not invertible in FB")
        g = self.one() - (x * W if c is None else x.scale(c))
        inv_u, k, t = self.one() + g, 2, self.transform(g.coeffs)  # t: g^(2^i) transformed
        while k < self.nilpotency_index() and not g.is_zero():
            g, k = self.elem(self.mul_coeffs(t, t)), 2 * k
            if not g.is_zero():
                t = self.transform(g.coeffs)
                inv_u = inv_u + self.elem(self.mul_coeffs(inv_u.coeffs, t))
        result = W * inv_u if c is None else inv_u.scale(c)
        if (x * result) != self.one():
            raise MathDomainError("x * x^-1 != 1: 1 - x rho(x)^-1 is not nilpotent "
                                  "within the index of gamma")
        return result

    # --- gamma machinery -----------------------------------------------------------

    def gamma_dim(self) -> int:
        return self.order - self.q

    def gamma_star_perm(self) -> np.ndarray:
        """The involution as a permutation of the gamma basis (a-1)b^j: the
        group's inversion on the indices a b^j with a != e, shifted by q."""
        return self.group.inv_perm[self.q:] - self.q

    def gamma_star_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(pi, hi): pi = gamma_star_perm(), checked to be a fixed-point-free
        involution (else MathDomainError), and the larger ends hi of its
        2-cycles (hi, pi[hi]), descending.  Every reader of pi goes through here.
        Refused (BudgetExceeded) before pi is built past 25 (|G| - q) + 4096
        bytes: three int64 arrays over gamma (pi, the coordinates and pi[pi])
        and a mask, the tracemalloc peak on c31four."""
        if self._star_pairs is None:
            refuse_past_room(25 * self.gamma_dim() + 4096, "the involution's pairs")
            pi = self.gamma_star_perm()
            k = np.arange(self.gamma_dim())
            if not np.array_equal(pi[pi], k) or np.any(pi == k):
                raise MathDomainError("the involution does not pair the gamma basis")
            self._star_pairs = (pi, k[pi < k][::-1])
        return self._star_pairs

    def sym_skew_subspaces(self) -> tuple[Subspace, Subspace]:
        """S1 and S2 of gamma in block form, with no solve, on the involution's
        pairs {g^-1, g}: B's (b^j, b^(q-j)), 0 < j < q/2, then those off B (g =
        hi + q, hi of gamma_star_pairs()).  S1 is e and g^-1 + g (rho of rank
        (q + 1)/2), S2 is g - g^-1 (rank (q - 1)/2), so dim S2 is the pairs off B.
        Refused (BudgetExceeded) before the pairs are built past 12 |G| + 8192
        bytes: the pairs and pi[hi], the tracemalloc peak."""
        if self._sym_skew is None:
            pi, hi = self.gamma_star_pairs()
            refuse_past_room(12 * self.order + 8192, "the pairs of S1 and S2")
            q, fld, j = self.q, self.field, np.arange(1, (self.q + 1) // 2)
            pairs = np.empty((j.size + hi.size, 2), dtype=np.int64)  # g^-1 < g in each row
            pairs[:j.size, 0], pairs[:j.size, 1] = j, q - j
            pairs[j.size:, 0], pairs[j.size:, 1] = pi[hi], hi
            pairs[j.size:] += q
            e, pair = np.zeros((1, 1), dtype=np.int64), {2: (pairs, np.broadcast_to(0, len(pairs)))}
            self._sym_skew = tuple(Subspace(fld, None, blocks=(self.order, q, *form)) for form in (
                ({1: (e, e[0] + 1), **pair}, [np.array([[1, 1]]), e + 1], j.size + 1),
                (pair, [np.array([[fld.neg(1), 1]])], j.size)))
        return self._sym_skew

    def nilpotency_index(self) -> int:
        """Smallest N with gamma^N = 0: 1 + sum_i (p^e_i - 1) over A = prod C_(p^e_i).

        A is normal, so omega(A) FG = FG omega(A) and gamma^N = omega(A)^N FG,
        which vanishes exactly when omega(A)^N does in FA.  There
        FA = F[x_1..x_r]/(x_i^(p^e_i)) with x_i = a_i - 1, whose top monomial
        prod x_i^(p^e_i - 1) has degree sum_i (p^e_i - 1) (Jennings).
        """
        return 1 + sum(m - 1 for m in self.group.abelian.factors)

    def __repr__(self):
        return f"GroupAlgebra(GF({self.field.p}^{self.field.f})[{self.group!r}])"
