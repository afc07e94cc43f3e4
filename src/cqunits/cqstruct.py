"""The element core of the package, and the semisimple layer FB = F[C_q].

`CoeffElem` is the one implementation of ring arithmetic on coefficient
arrays over GF(p^f): FG's `AlgElem` (in `algebra`) and FB's `FBElem` are
both CoeffElems, and differ only in their context, a `CoeffRing` that
supplies `field`, `order`, `elem_type`, `mul_coeffs`, `star_perm`,
`invert` and `monomial`, and inherits `elem`, `zero`, `scalar` and `one`.
FB sits below FG: the group algebra owns one `FBCtx` as
`GroupAlgebra.fb`, and an FBElem lifts into FG through `from_b_coeffs`.

For q | p^f - 1, FB splits as F^q through the primitive idempotents e_j,
with b acting on e_j by the eigenvalue omega^j.  Units are classified by
their projection vectors (u_0, ..., u_{q-1}); the normalized, symmetric
and unitary unit groups are enumerated in exponent coordinates (discrete
logs base zeta of the projections).

In those coordinates V*(FB) is H = (Z_N)^k with N = p^f - 1 and
k = (q-1)/2, and B = <b> has prime order q.  A subgroup of prime order in
a finite abelian group is a direct summand exactly when it is pure, that
is when b is not in qH (L. Fuchs, Abelian Groups, Springer 2015).  b's
coordinates are i N / q, so b lies in qH exactly when q^2 | N (m > 1):
then B has no complement.  For m = 1 a complement has index q, so it
contains qH and is the kernel of a functional phi: H/qH = F_q^k -> F_q
with phi(b) != 0; there are q^(k-1) of them, and none is enumerated.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _linalg
from .errors import (BudgetExceeded, CtxMismatch, HypothesisFail, MathDomainError,
                     NotAUnit, NotUnitary, RepeatedProjections)
from .field import FieldCtx, FieldElem, QDecomp, power

DEFAULT_BUDGET = 10 ** 7


class CoeffElem:
    """An element of a coefficient ring over GF(p^f), held as one immutable
    code array indexed by monomial.

    The context `ctx` is a `CoeffRing`, which supplies `field`, `order` (the
    array length), `elem_type`, `mul_coeffs(x, y)`, `star_perm` (the
    involution on monomials), `invert(x)` and `monomial(i)` (the name of
    monomial i, "1" for the identity), and builds `scalar(c)` and `one()`.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        c = np.ascontiguousarray(coeffs, dtype=np.int64)
        if c.shape != (ctx.order,):
            raise MathDomainError(f"expected {ctx.order} coefficients")
        c.setflags(write=False)
        self.coeffs = c

    def _new(self, coeffs):
        return type(self)(self.ctx, coeffs)

    def _check(self, other):
        if isinstance(other, CoeffElem):
            if other.ctx is not self.ctx:
                raise CtxMismatch("elements of different rings")
            return other
        if isinstance(other, int):
            return self.ctx.scalar(other)
        raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")

    def __add__(self, other):
        return self._new(self.ctx.field.vadd(self.coeffs, self._check(other).coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        return self._new(self.ctx.field.vsub(self.coeffs, self._check(other).coeffs))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return self._new(self.ctx.field.vneg(self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, CoeffElem):
            return self.scale(other)
        return self._new(self.ctx.mul_coeffs(self.coeffs, self._check(other).coeffs))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        code = self.ctx.field.elem(c).code
        return self._new(self.ctx.field.vmul(self.coeffs, np.int64(code)))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, operator.mul) if e else self.ctx.one()

    def inverse(self):
        return self.ctx.invert(self)

    def star(self):
        """The involution extending g -> g^-1 on the monomials."""
        return self._new(self.coeffs[self.ctx.star_perm])

    def augmentation(self) -> FieldElem:
        return self.ctx.field.from_code(int(self.ctx.field.vsum(self.coeffs, axis=0)))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __eq__(self, other):
        return (isinstance(other, CoeffElem) and other.ctx is self.ctx
                and np.array_equal(other.coeffs, self.coeffs))

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def format(self) -> str:
        """Grammar-compatible rendering, e.g. '5 + 5*b + 3*a1^2*b^2'."""
        field = self.ctx.field
        parts = []
        for i in np.flatnonzero(self.coeffs).tolist():
            c = field.from_code(int(self.coeffs[i]))
            cs = str(c.code) if field.f == 1 else "[" + ",".join(map(str, c.coeffs)) + "]"
            mono = self.ctx.monomial(i)
            if mono == "1":
                parts.append(cs)
            elif c.code == 1:
                parts.append(mono)
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"{type(self).__name__}({self.format()})"


class CoeffRing:
    """The element constructors of a CoeffElem context (see `CoeffElem` for
    what a subclass supplies)."""

    elem_type: type[CoeffElem]

    def elem(self, coeffs) -> CoeffElem:
        return self.elem_type(self, coeffs)

    def zero(self) -> CoeffElem:
        return self.elem(np.zeros(self.order, dtype=np.int64))

    def scalar(self, c) -> CoeffElem:
        coeffs = np.zeros(self.order, dtype=np.int64)
        coeffs[0] = self.field.elem(c).code
        return self.elem(coeffs)

    def one(self) -> CoeffElem:
        return self.scalar(1)


class FBElem(CoeffElem):
    """Element of FB as a length-q coefficient array (index = power of b)."""

    __slots__ = ()

    def lift(self, alg):
        """The same element inside FG, for a group algebra `alg` over FB's field and q."""
        return alg.from_b_coeffs(self.coeffs)


class FBCtx(CoeffRing):
    """F[C_q] with its idempotent/projection tables precomputed."""

    elem_type = FBElem

    def __init__(self, field: FieldCtx, q: int):
        self.field = field
        self.q = self.order = q
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
        self._shift = (np.arange(q) - np.arange(q)[:, None]) % q  # b^i b^(k-i) = b^k

    def b(self, j: int = 1) -> "FBElem":
        c = np.zeros(self.q, dtype=np.int64)
        c[j % self.q] = 1
        return FBElem(self, c)

    def monomial(self, t: int) -> str:
        return "1" if t == 0 else "b" if t == 1 else f"b^{t}"

    def mul_coeffs(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The circulant product: coefficient k of x y is sum_i x_i y_(k-i)."""
        fld = self.field
        return fld.vsum(fld.vmul(x[:, None], y[self._shift]), axis=0)

    def inverse_coeffs(self, w: np.ndarray):
        """Inverse of sum w_j b^j inside FB, or None if it is not a unit."""
        q = self.q
        M = w[self._shift.T]  # column k = coefficients of b^k * w = np.roll(w, k)
        e0 = np.zeros(q, dtype=np.int64)
        e0[0] = 1
        return _linalg.solve_right(self.field, M, e0)

    def invert(self, x: "FBElem") -> "FBElem":
        inv = self.inverse_coeffs(x.coeffs)
        if inv is None:
            raise NotAUnit("element is not a unit of FB")
        return FBElem(self, inv)

    def _matvec(self, M, v):
        """Field-exact M @ v for small code matrices."""
        return self.field.vsum(self.field.vmul(M, v[None, :]), axis=1)

    def __repr__(self):
        return f"FBCtx(GF({self.field.p}^{self.field.f})[C{self.q}])"


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
    of degree < q through the points (u_j, omega^j), the one solution of
    the Vandermonde system with rows (u_j^k)_k and right side omega^j.
    """
    ctx = u.ctx
    fld = ctx.field
    pv = projections(u)
    if not pv.has_distinct_projections():
        raise RepeatedProjections("u has repeated projections, so F[u] is a proper subalgebra")
    V = np.ones((ctx.q, ctx.q), dtype=np.int64)  # V[j, k] = u_j^k
    for k in range(1, ctx.q):
        V[:, k] = fld.vmul(V[:, k - 1], pv.values)
    result = [fld.from_code(int(c)) for c in _linalg.solve_right(fld, V, ctx.omega_pow)]
    # verify b = sum c_k u^k exactly
    acc = ctx.zero()
    upow = ctx.one()
    for c in result:
        acc = acc + upow.scale(c)
        upow = upow * u
    if acc != ctx.b():
        raise MathDomainError("interpolated polynomial failed verification")
    return result


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

    def unit(self, i: int) -> FBElem:
        return from_projections(ProjVec(self.ctx, zeta_powers(self.ctx.field, self.exps[i])))


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
# complements of B in V*(FB) ~ Z_N^k, decided by q-height


@dataclass
class ComplementSearch:
    """The complements of B in V*(FB): HNF generators (columns), order and a
    witness, the least element with q distinct projections, for each."""

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
    step = fb.field.order // fb.q
    return tuple(i * step for i in range(1, (fb.q - 1) // 2 + 1))


def _least_witness(N: int, q: int, phi: tuple[int, ...], x=(), used=frozenset({0})):
    """The least x (lexicographic) extending the prefix with phi . x = 0 mod q
    and 0, +-x_1, ..., +-x_k distinct mod N, or None."""
    if len(x) == len(phi):
        return x if sum(c * e for c, e in zip(phi, x)) % q == 0 else None
    for e in range(N):
        pair = {e, -e % N}
        if len(pair) == 2 and not pair & used:
            if (found := _least_witness(N, q, phi, x + (e,), used | pair)) is not None:
                return found
    return None


def complement_search_B_in_VstarFB(fb: FBCtx,
                                   budget: int = DEFAULT_BUDGET) -> ComplementSearch:
    """All N <= V*(FB) with N . B = V*(FB) and N ^ B = 1: none when m > 1.

    For m = 1, the kernel of phi = e_r - sum_(j>r) h_j e_j for each phi(b) != 0,
    as the identity HNF with H[r][r] = q and H[r][j] = h_j; r from k-1 down,
    then h lexicographic."""
    qd = fb.qdecomp
    N, q, k = fb.field.order, fb.q, (fb.q - 1) // 2
    vstar_order = N ** k
    result = ComplementSearch(q=q, s=qd.s, m=qd.m, vstar_order=vstar_order,
                              b_exps=b_exponent_coords(fb), no_complement=N % q ** 2 == 0)
    if result.no_complement:
        return result
    if vstar_order > budget:
        raise BudgetExceeded(f"|V*(FB)| = {vstar_order} exceeds budget {budget}")
    for r in range(k - 1, -1, -1):
        for h in itertools.product(range(q), repeat=k - 1 - r):
            phi = (0,) * r + (1,) + tuple(-t % q for t in h)
            if sum(c * e for c, e in zip(phi, result.b_exps)) % q == 0:
                continue  # b lies in the kernel, so it meets B
            H = np.eye(k, dtype=np.int64)
            H[r, r], H[r, r + 1:] = q, h
            result.complements.append({"hnf": H, "order": vstar_order // q,
                                       "witness": _least_witness(N, q, phi)})
    return result


def order_q_subgroups_in_cyclic_qm(fb: FBCtx) -> bool:
    """B lies in a cyclic subgroup of order q^m of V*(FB), as every order-q
    subgroup of its Sylow q-subgroup (Z_(q^m))^k does: the unit y with
    exponents i N / q^m (i = 1..k, mirrored) is checked, with circulant
    products, to be unitary and to have y^(q^(m-1)) = b."""
    N, q, m = fb.field.order, fb.q, fb.qdecomp.m
    exps = mirror_exps(np.arange(1, (q - 1) // 2 + 1) * (N // q ** m), N, -1)
    y = from_projections(ProjVec(fb, zeta_powers(fb.field, exps)))
    return y ** (q ** (m - 1)) == fb.b() and y * y.star() == fb.one()
