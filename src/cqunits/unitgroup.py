"""Structure of V(FG) = (1 + gamma) x| V(FB): centralizers, class lengths,
the Cayley correspondence, and sampling evidence for class disjointness.

Centralizers inside 1 + gamma are computed as exact kernels of the
commutator g -> x g - g x on gamma; for a unit x it vanishes exactly where
x g x^-1 = g, so no inverse of x is formed.  Class lengths come out as
prime powers p^(f * (dim gamma - dim C)), which is the only feasible exact
route (|1 + gamma| is astronomically large); starred ones use dim S2, the
number of pairs of the checked involution on gamma.  There is one solver:
with H = <supp x>, the commutator maps each F[HgH] into itself (the
double-coset splitting of FG as an (FH, FH)-bimodule; Curtis and Reiner,
Methods of Representation Theory I, 1981, section 10).  Each double coset
D = H g H is written in canonical coordinates (i, j) -> h_i g h_j, with g^-1
for D^-1, and the commutator's matrix on D depends only on how H acts on
those coordinates, so one block is built and solved per such pattern: with
C_A(b) = e, every B a B is a regular B x B-set, and C(b) is B and one q^2
block whatever |A| is.  gamma is the kernel of rho: a b^j -> b^j, so
dim C_gamma(x) is the sum of the block kernel dims less the rank of rho on
them, and the symmetric/skew slices are counted over each pair (D, D^-1)
with the same correction.  The kernel stays in block form
(`algebra.Subspace`); blocks, or a dense basis, that would not fit in
memory are refused up front.  All sampling is seeded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from ._memory import refuse_past_memory
from .algebra import AlgElem, GroupAlgebra, Subspace, distinct_rows, rho_images
from .cqstruct import ProjVec, from_projections, mirror_exps, zeta_powers
from .errors import (BadCentralizerElement, MathDomainError, NotAUnit,
                     NotInGamma, NotInOnePlusGamma, NotSkew, NotUnitary)


# ---------------------------------------------------------------------------
# commutator operators and centralizers


def _multipliers(alg: GroupAlgebra, g: int) -> tuple[np.ndarray, np.ndarray]:
    """h -> g h and h -> h g as permutations of G's indices."""
    h = np.arange(alg.order)
    return alg.group.mul_idx(g, h), alg.group.mul_idx(h, g)


def _least_in_orbits(label: np.ndarray, steps: list) -> np.ndarray:
    """label lowered to the least index of each orbit of the group the permutations
    steps generate, squaring each step every round; |G| is odd, so a squared step
    keeps its cycles, and label stops changing only when it is constant on them."""
    old = None
    while not np.array_equal(label, old):
        old = label
        for i, P in enumerate(steps):
            label, steps[i] = np.minimum(label, label[P]), P[P]
        label = label[label]
    return label


def _double_cosets(alg: GroupAlgebra, x: AlgElem) -> tuple[np.ndarray, np.ndarray]:
    """(least index of H g H, least index of g H) for every g, H = <supp x>, reached
    by products with generators from supp x; a support element outside the block of
    e, H itself, is the next generator."""
    label, steps, right, supp = np.arange(alg.order), [], [], np.flatnonzero(x.coeffs)
    while (outside := supp[label[supp] != 0]).size:
        steps += _multipliers(alg, int(outside[0]))
        right.append(steps[-1])
        label = _least_in_orbits(label, steps)
    return label, _least_in_orbits(np.arange(alg.order), right)


def _canonical_blocks(alg: GroupAlgebra, star: np.ndarray, label: np.ndarray,
                      cosets: np.ndarray):
    """(cols, starts, local, block_of, partner, which): the blocks of label, H = the
    block of e, in canonical coordinates, and the pattern of each.

    With h_0 < h_1 < ... the elements of H, block t lists the first occurrences of
    h_i g_t h_j over (i, j) in lexicographic order at cols[starts[t]:...], and
    local[g] is g's place there: its new left cosets h_i g_t H in order of i, each
    in order of j (cosets[g] = least index of g H).  g_t is the block's least
    element, or the inverse of its partner's where the partner (the block of
    g_t^-1) comes first, so star is one coordinate map on every regular pair.
    Blocks come by size, then least element; H, the smallest, is block 0.
    h_i g_t h_j is (h_i g_t) h_j, and h_i g_t = g' h_u for the lead g' of its
    coset, so H acts on block t's coordinates on the left through the k = |H|
    places local[h_i g_t] and on the right the same way in every block: blocks
    with equal places have one matrix for every x in FH, and share a pattern
    which[t].  (As supp x generates H, these are the blocks whose index
    patterns local[s C] and local[C s] agree for every s in supp x.)"""
    n, H = alg.order, np.flatnonzero(label == 0)
    least = np.flatnonzero(label == np.arange(n))  # each block's least element, ascending
    number = np.empty(n, dtype=np.int64)
    number[least] = np.arange(least.size)
    block_of = number[label]
    sizes = np.bincount(block_of)
    order = np.lexsort((least, sizes))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    least, sizes, block_of = least[order], sizes[order], rank[block_of]
    partner = block_of[star[least]]
    if np.any(block_of[star] != partner[block_of]):
        raise MathDomainError("the involution does not map each block onto one block")
    rep, first = least.copy(), np.flatnonzero(partner > np.arange(least.size))
    rep[partner[first]] = star[least[first]]
    lead = alg.group.mul_idx(H, rep[:, None]).ravel()  # h_i g_t; each g H lies in one row
    new = lead[np.sort(np.unique(cosets[lead], return_index=True)[1])]
    cols = alg.group.mul_idx(new[:, None], H).ravel()
    starts = np.cumsum(sizes) - sizes
    local = np.full(n, -1)
    local[cols] = np.arange(n) - np.repeat(starts, sizes)
    if np.any(local < 0) or np.any(block_of[cols] != np.repeat(np.arange(starts.size), sizes)):
        raise MathDomainError("the canonical coordinates do not number each block")
    which = distinct_rows(local[lead].reshape(starts.size, H.size))[1]
    return cols, starts, local, block_of, partner, which


def _commutator_block(alg: GroupAlgebra, x: AlgElem, D: np.ndarray,
                      local: np.ndarray) -> np.ndarray:
    """y -> x y - y x on F[D], column c at D[c] and row local[g] at g: an
    (m, m) block for the m group indices D."""
    fld, m = alg.field, D.size
    block = np.zeros((m, m), dtype=np.int64)
    for s in np.flatnonzero(x.coeffs).tolist():
        for image, op in ((alg.group.mul_idx(s, D), fld.vadd), (alg.group.mul_idx(D, s), fld.vsub)):
            at = (local[image], np.arange(m))
            block[at] = op(block[at], x.coeffs[s])
    return block


def _block_centralizer(alg: GroupAlgebra, x: AlgElem, star: np.ndarray, label: np.ndarray,
                       cosets: np.ndarray):
    """Kernel, slice dims and star closure of g -> x g - g x on gamma over the
    blocks of label, H g H with supp x in H, in canonical coordinates
    (`_canonical_blocks`).  One block per pattern is built and solved, one at a
    time, so this is refused (BudgetExceeded) past 8 (11 |G| + (5 + planes) m^2)
    bytes for the index arrays, the largest block (width m) and its rref (planes
    = 2 f^2 + f for f > 1).  C_gamma = ker rho on the sum W of the block kernels;
    on a pair (D, D^-1) with kernel K, C ^ Sym = N K for N the left kernel of
    K* - K, and C* = C iff C lies in the sum of the C_P ^ C_P*."""
    fld, q, n, f = alg.field, alg.q, alg.order, alg.field.f
    if np.any(label[np.flatnonzero(x.coeffs)] != 0):
        raise MathDomainError("a commutator term leaves its double coset")
    cols, starts, local, block_of, partner, which = _canonical_blocks(alg, star, label, cosets)
    sizes = np.diff(starts, append=n)
    refuse_past_memory(8 * (11 * n + (5 + (2 * f * f + f) * (f > 1)) * int(sizes[-1]) ** 2),
                       "the commutator blocks")
    kernels = [_linalg.right_kernel(fld, _commutator_block(
        alg, x, cols[starts[t]:starts[t] + sizes[t]], local))
        for t in np.unique(which, return_index=True)[1].tolist()]  # each pattern's first
    by_size = {m: (T, cols[starts[T[0]]:starts[T[-1]] + m].reshape(-1, m))  # a view
               for m in sizes[np.diff(sizes, prepend=0) > 0].tolist()  # sizes ascend
               for T in [np.flatnonzero(sizes == m)]}
    sym, skew, stable, images = [], [], [], []  # per distinct pair: (count * dim, rho of it)
    for m, (T, C) in by_size.items():
        P = partner[T]
        for Tp, w in ((T[P == T], m), (T[P > T], 2 * m)):  # self-paired blocks, then pairs
            L = C[Tp - T[0]]
            if w > m:
                L = np.hstack([L, C[partner[Tp] - T[0]]])
            # a pair is known by its kernels and, per column, star's permutation and
            # the b-exponent, as perm q + exponent
            code = local[star[L]]
            code[block_of[star[L]] != Tp[:, None]] += m
            code *= q
            code += L % q
            del L
            keys = np.column_stack([which[Tp], which[partner[Tp]], code])
            del code
            once, key_of = distinct_rows(keys)
            for key, c in zip(keys[once], np.bincount(key_of, minlength=once.size).tolist()):
                ks = [kernels[u] for u in key[:1 + (w > m)]]
                K = np.zeros((sum(map(len, ks)), w), dtype=np.int64)  # block-diagonal over the pair
                top = 0
                for i, k in enumerate(ks):
                    K[top:top + len(k), i * m:(i + 1) * m] = k
                    top += len(k)
                R, starred = rho_images(fld, q, K, key[2:] % q), K[:, key[2:] // q]
                for out, A in ((sym, lambda: fld.vsub(starred, K)),
                               (skew, lambda: fld.vadd(starred, K)),
                               (stable, lambda: _linalg.reduce_against(
                                   fld, starred, K, _linalg.right_pivots(K).tolist()))):
                    N = _linalg.right_kernel(fld, A().T)  # {c K : c A = 0} and its rho
                    out.append((c * N.shape[0], _linalg.matmul_mod(fld, N, R)))
                images.append(R)
    rank = _linalg.rank(fld, np.vstack(images))
    kernel = Subspace(fld, None, blocks=(alg.order, q, cols, starts, kernels, which, rank))
    sym_dim, skew_dim = (sum(d for d, _ in out) - _linalg.rank(fld, np.vstack([i for _, i in out]))
                         for out in (sym, skew))
    star_closed = kernel.dim == (sum(d for d, _ in stable)
                                 - _linalg.rank(fld, np.vstack([i for _, i in stable])))
    if star_closed != (sym_dim + skew_dim == kernel.dim):
        raise MathDomainError(f"star closure {star_closed} contradicts slice "
                              f"dims {sym_dim} + {skew_dim} of {kernel.dim}")
    return kernel, sym_dim, skew_dim, star_closed


@dataclass
class CentralizerReport:
    """Exact kernel of the commutator g -> x g - g x on gamma, with star slices,
    all read off its blocks; `kernel.basis` is built on first read."""

    x: AlgElem
    kernel: Subspace
    dim: int
    star_closed: bool
    sym_dim: int
    skew_dim: int


def centralizer_in_gamma(alg: GroupAlgebra, x: AlgElem) -> CentralizerReport:
    """Solutions of x g = g x inside gamma: the kernel of g -> x g - g x.

    1 + g commutes with x iff g does, so this also describes
    C_(1+gamma)(x).  The operator is linear in x and needs no inverse; x
    must still be a unit (NotAUnit otherwise).  The involution g -> g^-1 on G
    (`alg.star_perm`) is checked once, through `gamma_star_pairs`.  The slices
    C ^ S1 and C ^ S2 sum to dim iff C is star-closed, which is
    cross-checked by another route.
    """
    if not x.is_unit():
        raise NotAUnit("rho(x) is not invertible in FB")
    alg.gamma_star_pairs()
    kernel, sym_dim, skew_dim, star_closed = _block_centralizer(
        alg, x, alg.star_perm, *_double_cosets(alg, x))
    return CentralizerReport(x=x, kernel=kernel, dim=kernel.dim, star_closed=star_closed,
                             sym_dim=sym_dim, skew_dim=skew_dim)


@dataclass
class ClassLength:
    """|Cl_x| as the exact prime power p^exponent (and the starred variant)."""

    p: int
    exponent: int
    starred: bool

    @property
    def value(self) -> int:
        return self.p ** self.exponent

    def __repr__(self):
        tag = "Cl*" if self.starred else "Cl"
        return f"|{tag}| = {self.p}^{self.exponent}"


def class_length(alg: GroupAlgebra, x: AlgElem, starred: bool = False,
                 report: CentralizerReport | None = None) -> ClassLength:
    """|Cl_x| = |1+gamma| / |C_(1+gamma)(x)| as an exact prime power.

    The starred variant is the class inside the unitary subgroup:
    |Cl*_x| = |S2| / |C ^ S2| at the dimension level, with dim S2 the number
    of pairs of the checked involution (`gamma_star_pairs`); x must be unitary.
    """
    if report is None:
        report = centralizer_in_gamma(alg, x)
    f = alg.field.f
    if not starred:
        return ClassLength(alg.field.p, f * (alg.gamma_dim() - report.dim), False)
    if (x * x.star()) != alg.one():
        raise NotUnitary("starred class length requires a unitary unit")
    s2_dim = alg.gamma_star_pairs()[1].size
    return ClassLength(alg.field.p, f * (s2_dim - report.skew_dim), True)


# ---------------------------------------------------------------------------
# the Cayley correspondence between skew elements and unitary units


def _cayley_map(x: AlgElem) -> AlgElem:
    """(1 - x)(1 + x)^-1 = (1 + x)^-1 (1 - x) = 2 (1 + x)^-1 - 1: one inverse and no
    product; the map is its own inverse, so it serves both directions.  rho(1 + x)
    is a scalar both ways (1 for x in gamma, 2 for x in 1 + gamma), so the inverse
    takes at most 11 products on c31sq and 5 on c7."""
    w = x.ctx.invert(x.ctx.one() + x)
    return w + w - x.ctx.one()


def cayley(l: AlgElem) -> AlgElem:
    """u = (1 - l)(1 + l)^-1 for skew l in gamma; u is unitary in 1 + gamma.

    The inverse and the u u* = 1 check take 12 products on c31sq, so a round
    trip through `cayley_inv` takes 24."""
    alg = l.ctx
    if l.star() != -l:
        raise NotSkew("cayley requires star(l) = -l")
    if not l.in_gamma():
        raise NotInGamma("cayley requires l in gamma")
    u = _cayley_map(l)
    if (u * u.star()) != alg.one():
        raise MathDomainError("cayley produced a non-unitary u")
    return u


def cayley_inv(u: AlgElem) -> AlgElem:
    """The skew preimage l = (1 + u)^-1 (1 - u); inverse of `cayley`.

    The u u* = 1 check and the inverse take 12 products on c31sq, as in `cayley`."""
    alg = u.ctx
    if (u * u.star()) != alg.one():
        raise NotUnitary("cayley_inv requires a unitary unit")
    if not (u - alg.one()).in_gamma():
        raise NotInOnePlusGamma("cayley_inv requires u in 1 + gamma")
    l = _cayley_map(u)
    if l.star() != -l or not l.in_gamma():
        raise MathDomainError("cayley_inv produced an l that is not skew in gamma")
    return l


# ---------------------------------------------------------------------------
# seeded samplers


def random_gamma(alg: GroupAlgebra, rng: np.random.Generator) -> AlgElem:
    """Uniform element of gamma: a random vector minus the lift of its rho."""
    codes = rng.integers(0, alg.field.size, alg.order, dtype=np.int64)
    v = alg.elem(codes)
    return v - alg.from_b_coeffs(v.rho_coeffs())


def random_skew(alg: GroupAlgebra, rng: np.random.Generator) -> AlgElem:
    return random_gamma(alg, rng).sym_skew_split()[1]


def random_fb_unit_coeffs(alg: GroupAlgebra, rng: np.random.Generator,
                          unitary: bool = False) -> np.ndarray:
    """Coefficients of a random normalized unit of FB (unitary on request).

    Projections are zeta^e for random exponents, mirrored with negated
    exponents in the unitary case; u_0 = 1 keeps the augmentation 1.
    """
    N = alg.field.order
    if unitary:
        exps = mirror_exps(rng.integers(0, N, (alg.q - 1) // 2), N, -1)
    else:
        exps = rng.integers(0, N, alg.q - 1)
    return from_projections(ProjVec(alg.fb, zeta_powers(alg.field, exps))).coeffs


def random_unit_vfg(alg: GroupAlgebra, rng: np.random.Generator) -> AlgElem:
    """Random element of V(FG) as (1 + gamma) times a lifted FB unit."""
    one_plus = alg.one() + random_gamma(alg, rng)
    return one_plus * alg.from_b_coeffs(random_fb_unit_coeffs(alg, rng))


def random_unitary_vfg(alg: GroupAlgebra, rng: np.random.Generator) -> AlgElem:
    """Random element of V*(FG) = (1+gamma)_* x| V*(FB), via a Cayley unit."""
    u = cayley(random_skew(alg, rng))
    return u * alg.from_b_coeffs(random_fb_unit_coeffs(alg, rng, unitary=True))


# ---------------------------------------------------------------------------
# disjoint conjugacy class evidence


@dataclass
class DisjointClassEvidence:
    seed: int
    trials: int
    identical_pair_hit: bool
    hits_v: int
    hits_vstar: int
    dim_c_w: int
    dim_c_wz1: int
    lower_bound_ok: bool


def sample_disjoint_classes(alg: GroupAlgebra, w: AlgElem, z1: AlgElem, z2: AlgElem,
                            trials: int, seed: int = 0,
                            report: CentralizerReport | None = None) -> DisjointClassEvidence:
    """Search for a conjugator sending w z1 to w z2; none should exist for z1 != z2.

    Runs `trials` random conjugations by elements of V(FG) and another
    `trials` by elements of V*(FG) (the identity is always tried first,
    which is what makes the z1 = z2 sanity case hit immediately), and
    checks the exact class-length lower bound dim C(w z1) <= dim C(w).
    `report`, if given, is w's centralizer report, which is then not solved again.
    """
    if report is not None and report.x != w:
        raise MathDomainError("the centralizer report is not w's")
    b_elem = alg.basis(alg.group.b())
    for tag, z in (("z1", z1), ("z2", z2)):
        if not (z - alg.one()).in_gamma():
            raise BadCentralizerElement(f"{tag} is not in 1 + gamma")
        if (z * b_elem) != (b_elem * z):
            raise BadCentralizerElement(f"{tag} does not centralize b")
        if (z * z.star()) != alg.one():
            raise BadCentralizerElement(f"{tag} is not unitary")

    rng = np.random.default_rng(seed)
    target = w * z2
    source = w * z1
    hit_identity = source == target

    def run(sampler):
        # v^-1 s v = t iff s v = v t, which needs no inversion per trial
        hits = 0
        for _ in range(trials):
            v = sampler(alg, rng)
            if source * v == v * target:
                hits += 1
        return hits

    hits_v = run(random_unit_vfg)
    hits_vstar = run(random_unitary_vfg)

    rep_w = report if report is not None else centralizer_in_gamma(alg, w)
    rep_wz1 = centralizer_in_gamma(alg, source)
    return DisjointClassEvidence(
        seed=seed, trials=trials, identical_pair_hit=hit_identity,
        hits_v=hits_v, hits_vstar=hits_vstar,
        dim_c_w=rep_w.dim, dim_c_wz1=rep_wz1.dim,
        lower_bound_ok=rep_wz1.dim <= rep_w.dim)
