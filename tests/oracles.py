"""Reference implementations that the tests compare the package against.

None of this is reached by the CLI or the certificate.  The subgroup
enumeration of Z_N^k (Hermite normal forms with a sympy adjugate, every
subgroup an explicit set of exponent tuples) and the scan of the Sylow
q-subgroup are the exhaustive routes to what `cqstruct` decides in closed
form; they are only usable for small N.  The dense subspace helpers
(gamma as a written-down basis, the Zassenhaus meet, kernels of operators
on a subspace) and the closed forms for C_gamma(b), the exponent of
1 + gamma and the square-root law are what the block-form solver of
`unitgroup` is checked against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from cqunits import _linalg
from cqunits.algebra import AlgElem, GroupAlgebra, Subspace
from cqunits.cqstruct import (DEFAULT_BUDGET, ComplementSearch, FBCtx, FBElem,
                              b_exponent_coords, enumerate_VFB, mirror_exps,
                              zeta_powers)
from cqunits.errors import BudgetExceeded, MathDomainError, NotUnitary
from cqunits.field import prime_factors
from cqunits.group import orbits
from cqunits.unitgroup import CentralizerReport, centralizer_in_gamma


def span_dimension(u: FBElem) -> int:
    """dim of F[u] inside FB = rank of {1, u, ..., u^(q-1)}."""
    rows = []
    upow = u.ctx.one()
    for _ in range(u.ctx.q):
        rows.append(upow.coeffs)
        upow = upow * u
    return _linalg.rank(u.ctx.field, np.stack(rows))


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
# subgroup enumeration of Z_N^k


def _divisors(n: int) -> list[int]:
    divs = [1]
    for r in prime_factors(n):
        power, powers = 1, []
        while n % (power * r) == 0:
            power *= r
            powers.append(power)
        divs += [d * pw for d in divs for pw in powers]
    return sorted(divs)


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
    import sympy
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


def hnf_elements(H: np.ndarray, N: int) -> frozenset:
    """The subgroup of Z_N^k generated by the columns of the HNF matrix H."""
    k = H.shape[0]
    ranges = [np.arange(N // H[j, j]) for j in range(k)]
    grids = np.meshgrid(*ranges, indexing="ij")
    ts = np.stack([g.ravel() for g in grids], axis=1)
    return frozenset(map(tuple, ((ts @ H.T) % N).tolist()))


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
        elems_set = hnf_elements(H, N)
        if len(elems_set) != order:
            raise MathDomainError(f"HNF subgroup has {len(elems_set)} elements, not {order}")
        out.append({"hnf": H, "elements": elems_set})
    return out


# ---------------------------------------------------------------------------
# the exhaustive complement search in V*(FB) and the Sylow scan


def complement_search_B_in_VstarFB(fb: FBCtx,
                                   budget: int = DEFAULT_BUDGET) -> ComplementSearch:
    """Exhaustively find all N <= V*(FB) with N . B = V*(FB) and N ^ B = 1,
    each complement with its element set and the lexicographically least
    element with q distinct projections."""
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


# --- GF(p)[x] through sympy's galoistools ---------------------------------------
# The field's own list helpers replaced these calls; they stay here as the
# independent route the helpers are checked against.


def _hi_lo(poly):
    """Low-to-high coefficients -> the high-to-low, trimmed list galoistools takes."""
    from sympy.polys.galoistools import gf_strip
    return gf_strip([int(c) for c in reversed(poly)])


def galois_is_irreducible(poly, p: int) -> bool:
    """Irreducibility over Z_p by `gf_irreducible_p`; constants are not irreducible."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p
    hl = _hi_lo([c % p for c in poly])
    return len(hl) > 1 and gf_irreducible_p(hl, p, ZZ)


def galois_structure_tensor(field) -> np.ndarray:
    """T[i, j] = the coefficients of z^(i+j) mod the modulus, by `gf_rem`."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_rem
    f, m = field.f, _hi_lo(field.modulus)
    T = np.zeros((f, f, f), dtype=np.int64)
    for i in range(f):
        for j in range(f):
            r = gf_rem([1] + [0] * (i + j), m, field.p, ZZ)[::-1]
            T[i, j, :len(r)] = r
    return T


def galois_inverse(field, code: int) -> int | None:
    """The inverse of a field code by `gf_gcdex`, or None when it has none."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_gcdex
    s, _, h = gf_gcdex(_hi_lo(field.from_code(code).coeffs), _hi_lo(field.modulus),
                       field.p, ZZ)
    return field.from_coeffs(s[::-1]).code if h == [1] else None


# --- dense subspaces of FG and closed forms for centralizers -------------------


def gamma_basis(alg: GroupAlgebra) -> Subspace:
    """gamma as a canonical Subspace: gamma_expand of the identity, rows (a-1)b^j.

    gamma_expand keeps a canonical gamma-coordinate basis canonical: the
    a = e slice 0..q-1 that it fills in lies left of every pivot.  The
    rows are written straight into one |G|-wide array.
    """
    dim = alg.gamma_dim()
    rows, c = np.arange(dim), np.arange(dim)[::-1]  # pivots descending
    basis = np.zeros((dim, alg.order), dtype=np.int64)
    basis[rows, alg.q + c] = 1
    basis[rows, c % alg.q] = alg.field.neg(1)
    return Subspace(alg.field, basis, reduced=True)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Zassenhaus: rref [[A A], [B 0]]; zero-left rows give the meet."""
    n = s1.ambient
    top = np.hstack([s1.basis, s1.basis])
    bot = np.hstack([s2.basis, np.zeros_like(s2.basis)])
    R, piv = _linalg.rref(s1.field, np.vstack([top, bot]))
    keep = [i for i, pc in enumerate(piv) if pc >= n]
    return Subspace(s1.field, R[keep][:, n:])


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


def one_plus_gamma_exponent(alg: GroupAlgebra) -> int:
    """Smallest power p^k that annihilates 1 + gamma elementwise.

    (1 + g)^(p^k) = 1 + g^(p^k) for a single element g, so the group
    exponent is the least p^k at or above the nilpotency index of gamma.
    """
    N = alg.nilpotency_index()
    k, power = 0, 1
    while power < N:
        power *= alg.field.p
        k += 1
    return alg.field.p ** k


def centralizer_of_b_orbit_form(alg: GroupAlgebra) -> tuple[Subspace, bool]:
    """Span of {b^t (orbit_sum - orbit_size)} and its equality with the kernel.

    These elements commute with b, and the span has dimension q * l with
    l the number of non-trivial orbits; equality with the conjugation
    kernel of b is verified by comparing canonical bases.
    """
    q = alg.q
    rows = []
    neg_q = alg.field.neg(q % alg.field.p)
    for _, members in orbits(alg.group).nontrivial:
        for t in range(q):
            row = np.zeros(alg.order, dtype=np.int64)
            for a in members:
                row[a * q + t] = 1
            row[t] = neg_q  # the -|O| * b^t term sits on the e slot
            rows.append(row)
    span = Subspace(alg.field, np.stack(rows)) if rows else Subspace(
        alg.field, np.zeros((0, alg.order), dtype=np.int64))
    b_report = centralizer_in_gamma(alg, alg.basis(alg.group.b()))
    return span, span == b_report.kernel


def sqrt_relation_check(alg: GroupAlgebra, x: AlgElem,
                        report: CentralizerReport | None = None) -> bool:
    """dim C_gamma(x) = 2 * dim(C ^ S2) for unitary x in FB.

    A failure here would contradict the symmetric/skew centralizer
    bijection, so the mismatch is reported rather than suppressed.
    """
    if (x * x.star()) != alg.one():
        raise NotUnitary("the square-root law applies to unitary units")
    if report is None:
        report = centralizer_in_gamma(alg, x)
    return report.dim == 2 * report.skew_dim
