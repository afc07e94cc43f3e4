"""Reference implementations that the tests compare the package against.

None of this is reached by the CLI or the certificate.  The subgroup
enumeration of Z_N^k (Hermite normal forms with a sympy adjugate, every
subgroup an explicit set of exponent tuples) and the scan of the Sylow
q-subgroup are the exhaustive routes to what `cqstruct` decides in closed
form; they are only usable for small N.  The dense subspace helpers
(gamma as a written-down basis, the Zassenhaus meet, kernels of operators
on a subspace) and the closed forms for C_gamma(b), the exponent of
1 + gamma and the square-root law are what the block-form solver of
`unitgroup` is checked against.  So is `reference_centralizer`, the solver
it replaced: the commutator in gamma coordinates, over the q^2 x q^2
sigma-orbit blocks for x in FB and over one block of all of gamma
otherwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from cqunits import _linalg
from cqunits.algebra import AlgElem, GroupAlgebra, Subspace, refuse_past_memory
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


def written_down(field, rows: np.ndarray) -> Subspace:
    """A Subspace of rows already in its canonical form (right pivots, rows in
    descending pivot order), taken as they are instead of row reduced."""
    sub = Subspace(field, rows[:0])
    sub._echelon = rows, _linalg.right_pivots(rows).tolist()
    sub.dim = rows.shape[0]
    return sub


def gamma_expand(alg: GroupAlgebra, K: np.ndarray) -> np.ndarray:
    """Rows of gamma-coordinates -> ambient FG rows (rho of each row is 0).

    Column t of K is the gamma basis element (a-1)b^j with a b^j at index
    t + q; the a = e slice gets minus the sum over a of each b^j's entries.
    """
    K = np.atleast_2d(np.asarray(K, dtype=np.int64))
    rows = K.shape[0]
    amb = np.zeros((rows, alg.order), dtype=np.int64)
    amb[:, alg.q:] = K
    sums = alg.field.vsum(K.reshape(rows, alg.group.abelian.order - 1, alg.q), axis=1)
    amb[:, : alg.q] = alg.field.vneg(sums)
    return amb


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
    return written_down(alg.field, basis)


def in_rowspace(ctx, V, R, pivots) -> bool:
    """Whether every row of V lies in the span of the rref rows R."""
    return not np.any(_linalg.reduce_against(ctx, V, R, pivots))


def contains_rows(sub: Subspace, rows) -> bool:
    """Whether every row (or the one vector) lies in sub; entries are read as
    codes mod p^f."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64)) % sub.field.size
    return in_rowspace(sub.field, rows, sub.basis, sub.pivots)


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
    if images.shape[0] and not contains_rows(subspace, images):
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


# --- the gamma-coordinate centralizer solver ------------------------------------


def orbit_blocks(alg: GroupAlgebra) -> np.ndarray:
    """Gamma indices of the (a-1)b^j with a in each nontrivial sigma-orbit,
    ascending per orbit: shape (l, q^2), row t = block t's local coordinates."""
    q = alg.q
    members = np.array([m for _, m in orbits(alg.group).nontrivial], dtype=np.int64)
    coords = ((members - 1)[:, :, None] * q + np.arange(q)).reshape(len(members), q * q)
    return np.sort(coords, axis=1)


def gamma_commutator_blocks(alg: GroupAlgebra, x: AlgElem, coords: np.ndarray) -> np.ndarray:
    """The diagonal blocks of g -> x g - g x on gamma over the partition coords.

    Column t is x e - e x for the gamma basis row e = h - b^j, where h = t + q
    is the index of a b^j.  For each g in supp x the four index products
    g h, g b^j, h g and b^j g each give every column one target.  Rows with
    a = e are determined by the others and dropped; a kept term outside its
    column's block raises MathDomainError.
    """
    G, fld, q = alg.group, alg.field, alg.q
    l, m = coords.shape
    block_of = np.empty(alg.gamma_dim(), dtype=np.int64)
    block_of[coords] = np.arange(l)[:, None]
    local = np.empty(alg.gamma_dim(), dtype=np.int64)
    local[coords] = np.arange(m)
    h = coords + q
    bj = h % q
    rows, src = np.broadcast_arrays(np.arange(l)[:, None], np.arange(m))
    blocks = np.zeros((l, m, m), dtype=np.int64)
    for g in np.flatnonzero(x.coeffs):
        for tgt, op in ((G.mul_idx(g, h), fld.vadd), (G.mul_idx(g, bj), fld.vsub),
                        (G.mul_idx(h, g), fld.vsub), (G.mul_idx(bj, g), fld.vadd)):
            kept = tgt >= q
            t, r, src_k = tgt[kept] - q, rows[kept], src[kept]
            if np.any(block_of[t] != r):
                raise MathDomainError("a commutator term leaves its orbit block")
            tl = local[t]
            blocks[r, tl, src_k] = op(blocks[r, tl, src_k], x.coeffs[g])
    return blocks


def _star_slices(field, K: np.ndarray, perm: np.ndarray) -> tuple[int, int, bool]:
    """(dim - rank(K[:, perm] - K), dim - rank(K[:, perm] + K), whether the
    row space of K is closed under the column permutation perm)."""
    dim = K.shape[0]
    starred = K[:, perm]
    sym_dim = dim - _linalg.rank(field, field.vsub(starred, K))
    skew_dim = dim - _linalg.rank(field, field.vadd(starred, K))
    star_closed = in_rowspace(field, starred, K, _linalg.right_pivots(K).tolist())
    return sym_dim, skew_dim, star_closed


class ReferenceCentralizer:
    """C_gamma(x) in gamma coordinates, block by block over coords (default:
    `orbit_blocks` for x in FB, one block of all of gamma otherwise).

    Each block's kernel is solved with `right_kernel`.  The involution
    permutes the gamma coordinates (`gamma_star_pairs`) and must map every
    block onto one block; the slices are counted over each block together
    with that one.  `kernel` places the kernel rows at their blocks'
    coordinates, sorts them by pivot and expands them to FG, on first read.
    """

    def __init__(self, alg: GroupAlgebra, x: AlgElem, coords: np.ndarray | None = None):
        fld, dim = alg.field, alg.gamma_dim()
        if coords is None:
            coords = (orbit_blocks(alg) if not x.coeffs[alg.q:].any()
                      else np.arange(dim)[None, :])
        l, m = coords.shape
        refuse_past_memory(8 * (l + 4) * m * m, "the reference commutator blocks")
        blocks = gamma_commutator_blocks(alg, x, coords)
        first = {}  # equal blocks are solved once
        kernels = [first[b] if b in first else first.setdefault(b, _linalg.right_kernel(fld, blk))
                   for blk in blocks for b in [blk.tobytes()]]
        del blocks, first
        self.alg, self.coords, self.kernels = alg, coords, kernels
        self.dim = sum(k.shape[0] for k in kernels)

        block_of = np.empty(dim, dtype=np.int64)
        block_of[coords] = np.arange(l)[:, None]
        local = np.empty(dim, dtype=np.int64)
        local[coords] = np.arange(m)
        pi = alg.gamma_star_pairs()[0]
        partner = block_of[pi[coords[:, 0]]]
        if np.any(block_of[pi[coords]] != partner[:, None]):
            raise MathDomainError("the involution does not map each block onto one block")
        self.sym_dim = self.skew_dim = 0
        self.star_closed = True
        for t in np.flatnonzero(partner >= np.arange(l)).tolist():
            pair = [t] if partner[t] == t else [t, partner[t]]
            cols = pi[coords[pair].ravel()]
            perm = np.where(block_of[cols] == t, 0, m) + local[cols]
            Kc = np.vstack([np.pad(kernels[u], ((0, 0), (i * m, (len(pair) - 1 - i) * m)))
                            for i, u in enumerate(pair)])
            sym, skew, closed = _star_slices(fld, Kc, perm)
            self.sym_dim += sym
            self.skew_dim += skew
            self.star_closed = self.star_closed and closed

    @cached_property
    def kernel(self) -> Subspace:
        alg, coords, kernels = self.alg, self.coords, self.kernels
        piv = np.concatenate([coords[t][_linalg.right_pivots(k)] for t, k in enumerate(kernels)])
        order = np.argsort(-piv)
        rows = np.concatenate([np.full(k.shape[0], t) for t, k in enumerate(kernels)])[order]
        within = np.concatenate([np.arange(k.shape[0]) for k in kernels])[order]
        K = np.zeros((piv.size, alg.gamma_dim()), dtype=np.int64)
        for r, (t, i) in enumerate(zip(rows.tolist(), within.tolist())):
            K[r, coords[t]] = kernels[t][i]
        return written_down(alg.field, gamma_expand(alg, K))


# --- the generic double-coset search --------------------------------------------


def reference_double_cosets(alg: GroupAlgebra, x: AlgElem) -> tuple[np.ndarray, np.ndarray]:
    """(least index of H g H, least index of g H) for every g, H = <supp x>, by
    orbit squaring over all of G with no closed form: each round adds the first
    support element outside H as a generator, as multipliers h -> s h and
    h -> h s, and lowers the label along every multiplier, squaring each, until
    it is constant on their cycles (|G| is odd, so squaring keeps the cycles)."""
    G, n = alg.group, alg.order

    def least(label, steps):
        steps, old = list(steps), None
        while not np.array_equal(label, old):
            old = label
            for i, P in enumerate(steps):
                label, steps[i] = np.minimum(label, label[P]), P[P]
            label = label[label]
        return label

    h, supp = np.arange(n), np.flatnonzero(x.coeffs)
    label, left, right = h, [], []
    while (outside := supp[label[supp] != 0]).size:
        s = int(outside[0])
        left.append(G.mul_idx(s, h))
        right.append(G.mul_idx(h, s))
        label = least(label, left + right)
    return label, least(h, right)
