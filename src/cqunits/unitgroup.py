"""Structure of V(FG) = (1 + gamma) x| V(FB): centralizers, class lengths,
the Cayley correspondence, and sampling evidence for class disjointness.

Centralizers inside 1 + gamma are computed as exact kernels of the
commutator g -> x g - g x on gamma; for a unit x it vanishes exactly where
x g x^-1 = g, so no inverse of x is formed.  Class lengths come out as
prime powers p^(f * (dim gamma - dim C)), which is the only feasible exact
route (|1 + gamma| is astronomically large); starred ones use dim S2, the
number of pairs of the checked involution on gamma.  There is one solver:
the operator is built from index products over a partition of gamma into
blocks it maps into themselves, each distinct block is solved once, and
its symmetric/skew slices are counted over each block and the block the
involution maps it onto.  For x in FB the blocks are the q^2 x q^2 ones
over the sigma-orbits of A; any other x is one block of all of gamma.  The
kernel stays in that block form (`algebra.Subspace`): dimensions are read
off the blocks, and the dense basis is built only when a caller reads its
rows.  Blocks, or a dense basis, that would not fit in physical memory are
refused up front.  All sampling is seeded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .algebra import AlgElem, GroupAlgebra, Subspace, refuse_past_memory
from .cqstruct import ProjVec, from_projections, mirror_exps, zeta_powers
from .errors import (BadCentralizerElement, MathDomainError, NotAUnit,
                     NotInGamma, NotInOnePlusGamma, NotSkew, NotUnitary)
from .group import orbits


# ---------------------------------------------------------------------------
# commutator operators and centralizers


def _orbit_blocks(alg: GroupAlgebra) -> np.ndarray:
    """Gamma indices of the (a-1)b^j with a in each nontrivial sigma-orbit,
    ascending per orbit: shape (l, q^2), row t = block t's local coordinates."""
    q = alg.q
    members = np.array([m for _, m in orbits(alg.group).nontrivial], dtype=np.int64)
    coords = ((members - 1)[:, :, None] * q + np.arange(q)).reshape(len(members), q * q)
    return np.sort(coords, axis=1)


def _commutator_blocks(alg: GroupAlgebra, x: AlgElem, coords: np.ndarray,
                       block_of: np.ndarray, local: np.ndarray) -> np.ndarray:
    """The diagonal blocks of g -> x g - g x on gamma over the partition coords.

    Column t is x e - e x for the gamma basis row e = h - b^j, where h = t + q
    is the index of a b^j.  For each g in supp x the four index products
    g h, g b^j, h g and b^j g each give every column one target, so no
    fancy-indexed update collides.  Rows with a = e are determined by the
    others and dropped; a kept term outside its column's block raises
    MathDomainError.
    """
    G, fld, q = alg.group, alg.field, alg.q
    l, m = coords.shape
    h = coords + q
    bj = h % q
    rows, src = np.broadcast_arrays(np.arange(l)[:, None], np.arange(m))
    blocks = np.zeros((l, m, m), dtype=np.int64)
    for g in np.flatnonzero(x.coeffs):
        for tgt, op in ((G.mul_idx(g, h), fld.vadd), (G.mul_idx(g, bj), fld.vsub),
                        (G.mul_idx(h, g), fld.vsub), (G.mul_idx(bj, g), fld.vadd)):
            kept = tgt >= q
            t, r, s = tgt[kept] - q, rows[kept], src[kept]
            if np.any(block_of[t] != r):
                raise MathDomainError("a commutator term leaves its orbit block")
            tl = local[t]
            blocks[r, tl, s] = op(blocks[r, tl, s], x.coeffs[g])
    return blocks


def _star_slices(field, K: np.ndarray, perm: np.ndarray) -> tuple[int, int, bool]:
    """(dim of the symmetric slice, dim of the skew slice, star-closed) of the
    row space of the canonical basis K, whose coordinates the involution
    permutes by perm: dim - rank(K[:, perm] -/+ K), cross-checked against
    the direct star-closure test."""
    dim = K.shape[0]
    pivots = _linalg.right_pivots(K).tolist()
    starred = K[:, perm]
    sym_dim = dim - _linalg.rank(field, field.vsub(starred, K))
    skew_dim = dim - _linalg.rank(field, field.vadd(starred, K))
    star_closed = _linalg.in_rowspace(field, starred, K, pivots)
    if star_closed != (sym_dim + skew_dim == dim):
        raise MathDomainError(f"star closure {star_closed} contradicts slice "
                              f"dims {sym_dim} + {skew_dim} of {dim}")
    return sym_dim, skew_dim, star_closed


def _block_centralizer(alg: GroupAlgebra, x: AlgElem, coords: np.ndarray):
    """Kernel, slice dims and star closure of g -> x g - g x, one block at a time.

    coords partitions the gamma coordinates into l blocks of size m, and
    the operator must map each block into itself.  It is refused up front
    (BudgetExceeded) when its 8 (l + 4) m^2 bytes would not fit in physical
    memory: the l blocks, and the rref's echelon rows, their vstack copy and
    the matmul and modulo temporaries for one of them.  For f > 1 the rref's
    batch update also holds the f^2 digit-plane products of the echelon rows
    twice (the float product and its rounding, or the plane products and the
    copy the tensor contraction makes) and their f contracted digits, so
    another 8 (2 f^2 + f) m^2 bytes are counted.  Each distinct block
    is solved once, and the kernel is returned in block form over coords
    (`Subspace`), which builds no rows.  The involution must map every
    block onto a single block; the slices are counted over each block
    together with that one (for the orbit blocks O and O^-1, for one block
    itself alone).
    """
    fld, dim, f = alg.field, alg.gamma_dim(), alg.field.f
    l, m = coords.shape
    planes = 2 * f * f + f if f > 1 else 0
    refuse_past_memory(8 * (l + 4 + planes) * m * m, "the commutator blocks")
    block_of = np.empty(dim, dtype=np.int64)
    block_of[coords] = np.arange(l)[:, None]
    local = np.empty(dim, dtype=np.int64)
    local[coords] = np.arange(m)
    blocks = _commutator_blocks(alg, x, coords, block_of, local)
    first = {}  # a block's bytes -> the first block equal to it
    which = np.array([first.setdefault(blk.tobytes(), t) for t, blk in enumerate(blocks)])
    del first  # a dense block's bytes are as large as the block
    kernels = {u: _linalg.right_kernel(fld, blocks[u]) for u in np.unique(which).tolist()}
    del blocks
    kernel = Subspace(fld, None, blocks=(alg, coords, kernels, which))

    pi = alg.gamma_star_pairs()[0]
    partner = block_of[pi[coords[:, 0]]]
    if np.any(block_of[pi[coords]] != partner[:, None]):
        raise MathDomainError("the involution does not map each block onto one block")
    slices, count = {}, Counter()  # blocks with equal kernels and pi are solved once
    for t in np.nonzero(partner >= np.arange(l))[0]:
        pair = [t] if partner[t] == t else [t, partner[t]]
        cols = pi[coords[pair].ravel()]
        perm = np.where(block_of[cols] == t, 0, m) + local[cols]
        key = (tuple(which[pair]), perm.tobytes())
        count[key] += 1
        if key not in slices:
            ks = [kernels[u] for u in key[0]]  # block-diagonal over the pair
            Kc = np.vstack([np.pad(k, ((0, 0), (i * m, (len(ks) - 1 - i) * m)))
                            for i, k in enumerate(ks)])
            slices[key] = _star_slices(fld, Kc, perm)
    sym_dim = sum(count[key] * sym for key, (sym, _, _) in slices.items())
    skew_dim = sum(count[key] * skew for key, (_, skew, _) in slices.items())
    star_closed = all(closed for _, _, closed in slices.values())
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
    must still be a unit (NotAUnit otherwise).  The support of x picks the
    block partition for `_block_centralizer`: for x in FB (supported on B)
    the operator is block-diagonal over the sigma-orbits of A, so it is
    solved as (|A|-1)/q blocks of size q^2; any other x is one block of all
    of gamma.  The kernel basis K, canonical in gamma coordinates, is kept
    as its blocks.  The involution permutes the coordinates by pi, so the
    slices C ^ S1 and C ^ S2 have dimensions dim - rank(K[:, pi] - K) and
    dim - rank(K[:, pi] + K), counted block by block.  They sum to dim iff
    C is star-closed, which is cross-checked directly.
    """
    if not x.is_unit():
        raise NotAUnit("rho(x) is not invertible in FB")
    coords = (_orbit_blocks(alg) if not x.coeffs[alg.q:].any()
              else np.arange(alg.gamma_dim())[None, :])
    kernel, sym_dim, skew_dim, star_closed = _block_centralizer(alg, x, coords)
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


def cayley(l: AlgElem) -> AlgElem:
    """u = (1 - l)(1 + l)^-1 for skew l in gamma; u is unitary in 1 + gamma."""
    alg = l.ctx
    if l.star() != -l:
        raise NotSkew("cayley requires star(l) = -l")
    if not l.in_gamma():
        raise NotInGamma("cayley requires l in gamma")
    u = (alg.one() - l) * alg.invert(alg.one() + l)
    if (u * u.star()) != alg.one():
        raise MathDomainError("cayley produced a non-unitary u")
    return u


def cayley_inv(u: AlgElem) -> AlgElem:
    """The skew preimage l = (1 + u)^-1 (1 - u); inverse of `cayley`."""
    alg = u.ctx
    if (u * u.star()) != alg.one():
        raise NotUnitary("cayley_inv requires a unitary unit")
    if not (u - alg.one()).in_gamma():
        raise NotInOnePlusGamma("cayley_inv requires u in 1 + gamma")
    l = alg.invert(alg.one() + u) * (alg.one() - u)
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
                            trials: int, seed: int = 0) -> DisjointClassEvidence:
    """Search for a conjugator sending w z1 to w z2; none should exist for z1 != z2.

    Runs `trials` random conjugations by elements of V(FG) and another
    `trials` by elements of V*(FG) (the identity is always tried first,
    which is what makes the z1 = z2 sanity case hit immediately), and
    checks the exact class-length lower bound dim C(w z1) <= dim C(w).
    """
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

    rep_w = centralizer_in_gamma(alg, w)
    rep_wz1 = centralizer_in_gamma(alg, source)
    return DisjointClassEvidence(
        seed=seed, trials=trials, identical_pair_hit=hit_identity,
        hits_v=hits_v, hits_vstar=hits_vstar,
        dim_c_w=rep_w.dim, dim_c_wz1=rep_wz1.dim,
        lower_bound_ok=rep_wz1.dim <= rep_w.dim)
