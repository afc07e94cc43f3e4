"""The semisimple commutative layer FB = F[C_q] for q | p^f - 1.

FB splits as F^q through the primitive idempotents e_j, with b acting on
e_j by the eigenvalue omega^j.  Units are classified by their projection
vectors (u_0, ..., u_{q-1}); the normalized, symmetric and unitary unit
groups are enumerated in exponent coordinates (discrete logs base zeta of
the projections), where subgroup searches reduce to lattice arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import sympy

from .algebra import AlgElem, GroupAlgebra
from .errors import (BudgetExceeded, CtxMismatch, HypothesisFail, MathDomainError,
                     NotAUnit, NotUnitary, RepeatedProjections)
from .field import FieldCtx, FieldElem, QDecomp

DEFAULT_BUDGET = 10 ** 7


class FBCtx:
    """F[C_q] with its idempotent/projection tables precomputed."""

    def __init__(self, field: FieldCtx, q: int):
        self.field = field
        self.q = q
        self.qdecomp = QDecomp(field, q)
        self.omega = self.qdecomp.omega
        w = self.omega.code
        # omega_pow[k] = code of omega^k, k taken mod q
        self.omega_pow = np.array([field.pow(w, k) for k in range(q)], dtype=np.int64)
        self.inv_q = field.inv(q % field.p)
        # projection matrix: proj_j(u) = sum_t u_t omega^(j t)
        jt = (np.arange(q)[:, None] * np.arange(q)[None, :]) % q
        self.proj_matrix = self.omega_pow[jt]
        # idempotent coefficients: e_j = (1/q) sum_t omega^(-j t) b^t
        self.idem_matrix = field.vmul(self.omega_pow[(-jt) % q], np.int64(self.inv_q))
        self.star_perm = np.array([0] + list(range(q - 1, 0, -1)), dtype=np.int64)

    def elem(self, coeffs) -> "FBElem":
        return FBElem(self, coeffs)

    def zero(self) -> "FBElem":
        return FBElem(self, np.zeros(self.q, dtype=np.int64))

    def one(self) -> "FBElem":
        c = np.zeros(self.q, dtype=np.int64)
        c[0] = 1
        return FBElem(self, c)

    def b(self, j: int = 1) -> "FBElem":
        c = np.zeros(self.q, dtype=np.int64)
        c[j % self.q] = 1
        return FBElem(self, c)

    def _matvec(self, M, v):
        """Field-exact M @ v for small code matrices."""
        return self.field.vsum(self.field.vmul(M, v[None, :]), axis=1)

    def __repr__(self):
        return f"FBCtx(GF({self.field.p}^{self.field.f})[C{self.q}])"


class FBElem:
    """Element of FB as a length-q coefficient array (index = power of b)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FBCtx, coeffs):
        self.ctx = ctx
        c = np.ascontiguousarray(coeffs, dtype=np.int64)
        if c.shape != (ctx.q,):
            raise MathDomainError(f"expected {ctx.q} coefficients")
        c.setflags(write=False)
        self.coeffs = c

    def _check(self, other):
        if isinstance(other, FBElem):
            if other.ctx is not self.ctx:
                raise CtxMismatch("elements of different FB contexts")
            return other
        if isinstance(other, int):
            c = np.zeros(self.ctx.q, dtype=np.int64)
            c[0] = self.ctx.field.elem(other).code
            return FBElem(self.ctx, c)
        raise TypeError(f"cannot combine FBElem with {type(other).__name__}")

    def __add__(self, other):
        other = self._check(other)
        return FBElem(self.ctx, self.ctx.field.vadd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FBElem(self.ctx, self.ctx.field.vsub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return FBElem(self.ctx, self.ctx.field.vneg(self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, FBElem):
            return self.scale(other)
        other = self._check(other)
        q, f = self.ctx.q, self.ctx.field.f
        if f == 1:
            full = np.convolve(self.coeffs, other.coeffs)
            folded = full[:q].copy()
            folded[: q - 1] += full[q:]
            return FBElem(self.ctx, folded % self.ctx.field.p)
        out = np.zeros(q, dtype=np.int64)
        for i in range(q):
            if self.coeffs[i]:
                term = self.ctx.field.vmul(other.coeffs, np.int64(self.coeffs[i]))
                out[(i + np.arange(q)) % q] = self.ctx.field.vadd(
                    out[(i + np.arange(q)) % q], term)
        return FBElem(self.ctx, out)

    __rmul__ = __mul__

    def scale(self, c) -> "FBElem":
        code = self.ctx.field.elem(c).code
        return FBElem(self.ctx, self.ctx.field.vmul(self.coeffs, np.int64(code)))

    def __pow__(self, e: int) -> "FBElem":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FBElem":
        pv = projections(self)
        if not pv.is_unit():
            raise NotAUnit("element has a zero projection")
        return from_projections(pv.inverse())

    def star(self) -> "FBElem":
        return FBElem(self.ctx, self.coeffs[self.ctx.star_perm])

    def augmentation(self) -> FieldElem:
        return self.ctx.field.from_code(int(self.ctx.field.vsum(self.coeffs, axis=0)))

    def lift(self, alg: GroupAlgebra) -> AlgElem:
        return alg.from_b_coeffs(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, FBElem) and other.ctx is self.ctx
                and np.array_equal(other.coeffs, self.coeffs))

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def format(self) -> str:
        f = self.ctx.field
        parts = []
        for t in range(self.ctx.q):
            code = int(self.coeffs[t])
            if not code:
                continue
            cs = str(code) if f.f == 1 else "[" + ",".join(
                str(d) for d in f.elem(code).coeffs) + "]"
            if t == 0:
                parts.append(cs)
            elif code == 1:
                parts.append("b" if t == 1 else f"b^{t}")
            else:
                parts.append(f"{cs}*b" if t == 1 else f"{cs}*b^{t}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FBElem({self.format()})"


class ProjVec:
    """Projection vector (u_0, ..., u_{q-1}) of an FB element: u e_j = u_j e_j."""

    __slots__ = ("ctx", "values")

    def __init__(self, ctx: FBCtx, values):
        self.ctx = ctx
        v = np.ascontiguousarray(values, dtype=np.int64)
        if v.shape != (ctx.q,):
            raise MathDomainError(f"expected {ctx.q} projections")
        v.setflags(write=False)
        self.values = v

    def __getitem__(self, i: int) -> FieldElem:
        return self.ctx.field.from_code(int(self.values[i % self.ctx.q]))

    def is_unit(self) -> bool:
        return bool(np.all(self.values != 0))

    def is_normalized(self) -> bool:
        return int(self.values[0]) == 1

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.values, self.values[self.ctx.star_perm]))

    def is_unitary(self) -> bool:
        if not self.is_unit():
            return False
        f = self.ctx.field
        prod = f.vmul(self.values, self.values[self.ctx.star_perm])
        return bool(np.all(prod == 1))

    def has_distinct_projections(self) -> bool:
        return len(set(self.values.tolist())) == self.ctx.q

    def order(self) -> int:
        """Multiplicative order: lcm of the projection orders in F^x."""
        if not self.is_unit():
            raise NotAUnit("zero projection, no multiplicative order")
        return math.lcm(*(self.ctx.field.order_of(int(v)) for v in self.values))

    def mul(self, other: "ProjVec") -> "ProjVec":
        return ProjVec(self.ctx, self.ctx.field.vmul(self.values, other.values))

    def inverse(self) -> "ProjVec":
        if not self.is_unit():
            raise NotAUnit("zero projection is not invertible")
        f = self.ctx.field
        return ProjVec(self.ctx, np.array([f.inv(int(v)) for v in self.values],
                                          dtype=np.int64))

    def to_unit(self) -> FBElem:
        return from_projections(self)

    def __eq__(self, other):
        return (isinstance(other, ProjVec) and other.ctx is self.ctx
                and np.array_equal(other.values, self.values))

    def __repr__(self):
        return f"ProjVec({tuple(int(v) for v in self.values)})"


@dataclass
class UnitClass:
    is_unit: bool
    is_normalized: bool
    is_symmetric: bool
    is_unitary: bool
    has_distinct_projections: bool
    order: int | None


class Idempotents:
    """The q primitive idempotents of FB, e_j with b e_j = omega^j e_j."""

    def __init__(self, ctx: FBCtx):
        self.ctx = ctx
        self.items = [FBElem(ctx, ctx.idem_matrix[j]) for j in range(ctx.q)]

    def __getitem__(self, j: int) -> FBElem:
        return self.items[j % self.ctx.q]

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def verify(self) -> dict:
        """Exact checks: orthogonal idempotents, partition of unity,
        eigenvalue property, star reversal."""
        ctx = self.ctx
        q = ctx.q
        checks = {
            "idempotent": all((e * e) == e for e in self.items),
            "orthogonal": all(not (self.items[i] * self.items[j]).coeffs.any()
                              for i in range(q) for j in range(q) if i != j),
            "partition_of_unity": sum(self.items[1:], self.items[0]) == ctx.one(),
            "eigenvalue": all((ctx.b() * self.items[j])
                              == self.items[j].scale(ctx.field.from_code(int(ctx.omega_pow[j])))
                              for j in range(q)),
            "star_reversal": all(self.items[j].star() == self.items[(q - j) % q]
                                 for j in range(q)),
        }
        return checks


def idempotents(fb: FBCtx) -> Idempotents:
    return Idempotents(fb)


def projections(u: FBElem) -> ProjVec:
    """u_j with u e_j = u_j e_j; evaluation of the coefficients at omega^j."""
    return ProjVec(u.ctx, u.ctx._matvec(u.ctx.proj_matrix, u.coeffs))


def from_projections(v: ProjVec) -> FBElem:
    """Inverse of `projections`: sum v_j e_j."""
    ctx = v.ctx
    coeffs = ctx.field.vsum(ctx.field.vmul(ctx.idem_matrix, v.values[:, None]), axis=0)
    return FBElem(ctx, coeffs)


def classify_unit(u: FBElem) -> UnitClass:
    pv = projections(u)
    return UnitClass(
        is_unit=pv.is_unit(),
        is_normalized=pv.is_normalized(),
        is_symmetric=pv.is_symmetric(),
        is_unitary=pv.is_unitary(),
        has_distinct_projections=pv.has_distinct_projections(),
        order=pv.order() if pv.is_unit() else None,
    )


def b_polynomial(u: FBElem) -> list[FieldElem]:
    """Coefficients c_0..c_{q-1} with b = sum c_k u^k, via exact interpolation.

    Exists iff u has q distinct projections: then p(x) is the polynomial
    of degree < q through the points (u_j, omega^j).
    """
    ctx = u.ctx
    fld = ctx.field
    pv = projections(u)
    if not pv.has_distinct_projections():
        raise RepeatedProjections("u has repeated projections, so F[u] is a proper subalgebra")
    q = ctx.q
    xs = [int(v) for v in pv.values]
    ys = [int(ctx.omega_pow[j]) for j in range(q)]
    coeffs = [0] * q  # polynomial accumulator, code arithmetic
    for i in range(q):
        # Lagrange basis polynomial for node i, times y_i
        num = [1]
        denom = 1
        for j in range(q):
            if j == i:
                continue
            num = _poly_mul_codes(fld, num, [fld.neg(xs[j]), 1])
            denom = fld.mul(denom, fld.sub(xs[i], xs[j]))
        scale = fld.mul(ys[i], fld.inv(denom))
        for k, c in enumerate(num):
            coeffs[k] = fld.add(coeffs[k], fld.mul(c, scale))
    result = [fld.from_code(c) for c in coeffs]
    # verify b = sum c_k u^k exactly
    acc = ctx.zero()
    upow = ctx.one()
    for c in result:
        acc = acc + upow.scale(c)
        upow = upow * u
    if acc != ctx.b():
        raise MathDomainError("interpolated polynomial failed verification")
    return result


def _poly_mul_codes(fld: FieldCtx, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = fld.add(out[i + j], fld.mul(x, y))
    return out


def span_dimension(u: FBElem) -> int:
    """dim of F[u] inside FB = rank of {1, u, ..., u^(q-1)}."""
    from . import _linalg
    rows = []
    upow = u.ctx.one()
    for _ in range(u.ctx.q):
        rows.append(upow.coeffs)
        upow = upow * u
    return _linalg.rank(u.ctx.field, np.stack(rows))


# ---------------------------------------------------------------------------
# enumeration of V(FB), V+(FB), V*(FB) in exponent coordinates


@dataclass
class VFBEnumeration:
    """Normalized units as exponent tuples of their projections u_1..u_{q-1}.

    Exponents are discrete logs base zeta; u_0 = 1 throughout.
    """

    ctx: FBCtx
    which: str
    order: int
    exps: np.ndarray  # (order, q-1) int64

    def proj_values(self, i: int) -> np.ndarray:
        return zeta_powers(self.ctx.field, self.exps[i])

    def unit(self, i: int) -> FBElem:
        return from_projections(ProjVec(self.ctx, self.proj_values(i)))

    def units(self):
        return (self.unit(i) for i in range(self.order))


def mirror_exps(free, N: int, sign: int) -> np.ndarray:
    """Expand free exponents e_1..e_h (last axis) to (e_1, ..., e_{2h}) with
    e_{2h+1-i} = sign * e_i mod N (sign +1 symmetric, -1 unitary)."""
    free = np.asarray(free, dtype=np.int64)
    return np.concatenate([free, (sign * free[..., ::-1]) % N], axis=-1)


def zeta_powers(field: FieldCtx, exps) -> np.ndarray:
    """Projection values (1, zeta^e_1, ..., zeta^e_{q-1}) of a normalized unit
    of FB from its exponents."""
    return np.array([1] + [field.pow(field.zeta.code, int(e) % field.order) for e in exps],
                    dtype=np.int64)


def enumerate_VFB(fb: FBCtx, which: str = "V", budget: int = DEFAULT_BUDGET) -> VFBEnumeration:
    """Exhaustive exponent-coordinate lists of V, V+ or V*.

    |V| = (p^f-1)^(q-1) and |V+| = |V*| = (p^f-1)^((q-1)/2).
    """
    N = fb.field.order
    q = fb.q
    h = (q - 1) // 2
    if which == "V":
        size = N ** (q - 1)
        if size > budget:
            raise BudgetExceeded(f"|V| = {size} exceeds budget {budget}")
        grids = np.meshgrid(*([np.arange(N)] * (q - 1)), indexing="ij")
        exps = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    elif which in ("V+", "V*"):
        size = N ** h
        if size > budget:
            raise BudgetExceeded(f"|{which}| = {size} exceeds budget {budget}")
        grids = np.meshgrid(*([np.arange(N)] * h), indexing="ij")
        free = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
        exps = mirror_exps(free, N, +1 if which == "V+" else -1)
    else:
        raise MathDomainError(f"unknown unit family {which!r}; expected V, V+ or V*")
    return VFBEnumeration(fb, which, exps.shape[0], exps)


@dataclass
class HallReport:
    """Hall 2'-parts of V+, V* and V in exponent coordinates."""

    odd_v_order: int
    odd_plus_order: int
    odd_star_order: int
    intersection_trivial: bool
    product_is_odd_part: bool


def hall_2prime_decomposition(fb: FBCtx, budget: int = DEFAULT_BUDGET) -> HallReport:
    """Check (V)_2' = (V+)_2' x (V*)_2' by explicit set arithmetic."""
    N = fb.field.order
    t2 = N & -N  # 2-part of N
    q = fb.q

    def odd_part(enum):
        return {tuple(e) for e in enum.exps.tolist() if all(x % t2 == 0 for x in e)}

    odd_v = odd_part(enumerate_VFB(fb, "V", budget))
    odd_plus = odd_part(enumerate_VFB(fb, "V+", budget))
    odd_star = odd_part(enumerate_VFB(fb, "V*", budget))
    inter = odd_plus & odd_star
    product = {tuple(int(t) for t in (np.array(x) + np.array(y)) % N)
               for x in odd_plus for y in odd_star}
    return HallReport(
        odd_v_order=len(odd_v),
        odd_plus_order=len(odd_plus),
        odd_star_order=len(odd_star),
        intersection_trivial=(inter == {tuple([0] * (q - 1))}),
        product_is_odd_part=(product == odd_v),
    )


# ---------------------------------------------------------------------------
# the distinct-projection unitary unit construction


def distinct_projection_unit(n: ProjVec, qd: QDecomp) -> ProjVec:
    """Multiply an order-q unitary n by a unitary eta-power filling v so the
    product has q distinct projections.

    Needs m = 1 and s - 2 >= q - 3 (equivalently s + 1 >= q): the q - 3
    open positions are filled with distinct powers of eta avoiding 1 and -1,
    in inverse-closed pairs, after reindexing so n's first non-trivial
    projection pair sits at positions (1, q-1).
    """
    ctx = n.ctx
    fld = ctx.field
    q = ctx.q
    if qd.m != 1:
        raise HypothesisFail(f"construction requires m = 1, got m = {qd.m}")
    if qd.s - 2 < q - 3:
        raise HypothesisFail(
            f"need s - 2 >= q - 3 to fill the projections; s = {qd.s}, q = {q}")
    if not n.is_unitary() or not n.is_normalized():
        raise NotUnitary("n must be a normalized unitary unit")
    if n.order() != q:
        raise MathDomainError(f"n must have order exactly q = {q}, got {n.order()}")
    pivot = next((i for i in range(1, q) if int(n.values[i]) != 1), None)
    if pivot is None:  # order q forces a non-trivial projection
        raise MathDomainError("n of order q has no non-trivial projection")

    eta = qd.eta.code
    canonical = np.ones(q, dtype=np.int64)
    for t in range(2, (q - 1) // 2 + 1):
        val = fld.pow(eta, t - 1)
        canonical[t] = val
        canonical[q - t] = fld.inv(val)
    v = np.ones(q, dtype=np.int64)
    for t in range(q):
        v[(pivot * t) % q] = canonical[t]
    w = ProjVec(ctx, fld.vmul(v, n.values))
    if not (w.is_unitary() and w.has_distinct_projections()):
        raise MathDomainError("constructed w is not unitary with distinct projections")
    return w


# ---------------------------------------------------------------------------
# subgroup enumeration of Z_N^k and the complement search in V*(FB)


def _divisors(n: int) -> list[int]:
    return sorted(int(d) for d in sympy.divisors(n))


def _diag_tuples(N: int, k: int, det: int):
    """All tuples (d_1..d_k) of divisors of N with product det."""
    if k == 0:
        if det == 1:
            yield ()
        return
    for d in _divisors(N):
        if det % d == 0:
            for rest in _diag_tuples(N, k - 1, det // d):
                yield (d,) + rest


def _hnf_candidates(N: int, k: int, det: int, budget: int):
    """Column-style HNF matrices H (upper triangular, 0 <= H[i][j] < H[i][i]
    for j > i) with diagonal product det and N * H^-1 integral."""
    count = 0
    for diag in _diag_tuples(N, k, det):
        off_positions = [(i, j) for i in range(k) for j in range(i + 1, k)]
        ranges = [range(diag[i]) for i, _ in off_positions]
        for combo in itertools.product(*ranges):
            count += 1
            if count > budget:
                raise BudgetExceeded(f"subgroup enumeration exceeded budget {budget}")
            H = sympy.zeros(k, k)
            for i in range(k):
                H[i, i] = diag[i]
            for (i, j), val in zip(off_positions, combo):
                H[i, j] = val
            adj = H.adjugate()
            if all((N * adj[i, j]) % det == 0 for i in range(k) for j in range(k)):
                yield np.array(H.tolist(), dtype=np.int64)


def subgroups_of_order(N: int, k: int, order: int,
                       budget: int = DEFAULT_BUDGET) -> list[dict]:
    """All subgroups of Z_N^k of the given order, as element sets.

    Each entry has 'hnf' (generating matrix, columns are generators) and
    'elements' (frozenset of exponent tuples).
    """
    total = N ** k
    if total % order != 0:
        return []
    det = total // order
    out = []
    for H in _hnf_candidates(N, k, det, budget):
        if order > budget:
            raise BudgetExceeded(f"subgroup of order {order} exceeds budget {budget}")
        ranges = [np.arange(N // H[j, j]) for j in range(k)]
        grids = np.meshgrid(*ranges, indexing="ij")
        ts = np.stack([g.ravel() for g in grids], axis=1)
        elems = (ts @ H.T) % N
        elems_set = frozenset(map(tuple, elems.tolist()))
        if len(elems_set) != order:
            raise MathDomainError(f"HNF subgroup has {len(elems_set)} elements, not {order}")
        out.append({"hnf": H, "elements": elems_set})
    return out


@dataclass
class ComplementSearch:
    """Result of the exhaustive complement search for B inside V*(FB)."""

    q: int
    s: int
    m: int
    vstar_order: int
    b_exps: tuple[int, ...]
    complements: list = dc_field(default_factory=list)
    no_complement: bool = False

    @property
    def all_certified(self) -> bool:
        return bool(self.complements) and all(c["witness"] is not None
                                              for c in self.complements)


def b_exponent_coords(fb: FBCtx) -> tuple[int, ...]:
    """b as an exponent tuple in V*(FB) ~ (Z_N)^((q-1)/2): dlog of omega^i."""
    N = fb.field.order
    q = fb.q
    return tuple((i * (N // q)) % N for i in range(1, (q - 1) // 2 + 1))


def complement_search_B_in_VstarFB(fb: FBCtx,
                                   budget: int = DEFAULT_BUDGET) -> ComplementSearch:
    """Exhaustively find all N <= V*(FB) with N . B = V*(FB) and N ^ B = 1.

    For m > 1 the search provably comes back empty; for m = 1 every
    complement is scanned for a unit with q distinct projections.
    """
    qd = fb.qdecomp
    N = fb.field.order
    q = fb.q
    k = (q - 1) // 2
    vstar_order = N ** k
    if vstar_order > budget:
        raise BudgetExceeded(f"|V*(FB)| = {vstar_order} exceeds budget {budget}")
    b_exps = b_exponent_coords(fb)
    result = ComplementSearch(q=q, s=qd.s, m=qd.m, vstar_order=vstar_order, b_exps=b_exps)
    for sub in subgroups_of_order(N, k, vstar_order // q, budget):
        if b_exps in sub["elements"]:
            continue  # meets B non-trivially, so not a complement
        witness = None
        for elem in sorted(sub["elements"]):
            vals = zeta_powers(fb.field, mirror_exps(elem, N, -1))
            if len(set(vals.tolist())) == q:
                witness = elem
                break
        result.complements.append({"hnf": sub["hnf"], "elements": sub["elements"],
                                   "witness": witness})
    result.no_complement = not result.complements
    return result


def order_q_subgroups_in_cyclic_qm(fb: FBCtx, budget: int = DEFAULT_BUDGET) -> bool:
    """Check every order-q subgroup of V*(FB) lies in a cyclic subgroup of
    order q^m (the structural reason B has no complement when m > 1)."""
    qd = fb.qdecomp
    N = fb.field.order
    q, m = fb.q, qd.m
    k = (q - 1) // 2
    step = N // q ** m
    # the Sylow q-subgroup: coordinates are multiples of N / q^m
    coords = [np.arange(q ** m) * step] * k
    grids = np.meshgrid(*coords, indexing="ij")
    sylow = np.stack([g.ravel() for g in grids], axis=1)
    cyclic_qm = []
    for z in sylow:
        order = math.lcm(*(N // math.gcd(N, int(e)) if e else 1 for e in z)) if z.any() else 1
        if order == q ** m:
            cyclic_qm.append(frozenset(tuple((t * z) % N) for t in range(q ** m)))
    for sub in subgroups_of_order(N, k, q, budget):
        if not any(sub["elements"] <= cyc for cyc in cyclic_qm):
            return False
    return True
