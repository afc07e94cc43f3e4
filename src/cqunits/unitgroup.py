"""Structure of V(FG) = (1 + gamma) x| V(FB): centralizers, class lengths,
the Cayley correspondence, and sampling evidence for class disjointness.

Centralizers inside 1 + gamma are computed as exact kernels of the
conjugation operator on gamma; class lengths come out as prime powers
p^(f * (dim gamma - dim C)), which is the only feasible exact route
(|1 + gamma| is astronomically large); starred ones use dim S2, the number
of pairs of the checked involution on gamma.  For x in FB the operator is
block-diagonal over the sigma-orbits of A, so it is built and solved one
q^2 x q^2 block at a time, and its symmetric/skew slices are counted over
each pair of blocks that the involution swaps.  Any other x takes the
dense |G|^2 operator, which is refused up front when it would not fit in
physical memory.  All sampling is seeded.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .algebra import AlgElem, GroupAlgebra, Subspace
from .cqstruct import FBCtx, ProjVec, from_projections, mirror_exps, zeta_powers
from .errors import (BadCentralizerElement, BudgetExceeded, MathDomainError, NotInGamma,
                     NotInOnePlusGamma, NotSkew, NotUnitary)
from .group import orbits


def fb_ctx(alg: GroupAlgebra) -> FBCtx:
    """The FB layer of this algebra, built once and cached on it."""
    ctx = getattr(alg, "_fb_ctx", None)
    if ctx is None:
        ctx = FBCtx(alg.field, alg.q)
        alg._fb_ctx = ctx
    return ctx


# ---------------------------------------------------------------------------
# conjugation operators and centralizers


# gamma x gamma int64 arrays the dense path holds at once besides the |G|^2
# digits: M, the copy made when reducing digits to codes, and the rref's
# echelon rows with the matmul and modulo temporaries that update them
_DENSE_GAMMA_COPIES = 4


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _dense_operator_bytes(alg: GroupAlgebra) -> int:
    """Bytes the dense path holds at its peak: the |G|^2 conjugation digits
    (f per entry) and _DENSE_GAMMA_COPIES gamma x gamma arrays, all int64."""
    n, dim = alg.order, alg.gamma_dim()
    return 8 * (alg.field.f * n * n + _DENSE_GAMMA_COPIES * dim * dim)


def _conjugation_matrix_gamma(alg: GroupAlgebra, x: AlgElem, xinv: AlgElem) -> np.ndarray:
    """Matrix of g -> x g x^-1 - g on gamma, in the (a-1)b^j coordinate system.

    Refuses up front with BudgetExceeded when the dense path would not fit
    in physical memory.
    """
    need, have = _dense_operator_bytes(alg), _physical_memory_bytes()
    if need > have:
        raise BudgetExceeded(f"the dense conjugation operator needs about {need} bytes, "
                             f"more than the {have} bytes of physical memory")
    G, fld = alg.group, alg.field
    n, q = alg.order, alg.q
    sup_y = np.nonzero(xinv.coeffs)[0]
    g = np.arange(n, dtype=np.int64)
    # D[:, h] holds the digits of x h x^-1; one |supp x^-1| x |G| block of
    # targets tgt[k] = x_i * g * y_k (group indices), weights w[k] = x_i y_k
    D = np.zeros((n, n, fld.f), dtype=np.int64)
    for i in np.nonzero(x.coeffs)[0]:
        tgt = G._mul_idx_arrays(G._mul_idx_arrays(i, g)[None, :], sup_y[:, None])
        w = fld.decode(fld.vmul(x.coeffs[i], xinv.coeffs[sup_y]))
        for k in range(sup_y.size):
            D[tgt[k], g] += w[k]
    # restrict to gamma: column for basis (a-1)b^j is conj column of a b^j
    # minus the conj column of b^j; rows with a = e are determined and dropped
    M = D[q:, q:]
    for j in range(q):
        M[:, j::q] -= D[q:, j][:, None]
    diag = np.arange(n - q)
    M[diag, diag, 0] -= 1
    return np.ascontiguousarray(fld.encode(M))


def _orbit_blocks(alg: GroupAlgebra) -> np.ndarray:
    """Gamma indices of the (a-1)b^j with a in each nontrivial sigma-orbit,
    ascending per orbit: shape (l, q^2), row t = block t's local coordinates."""
    q = alg.q
    members = np.array([m for _, m in orbits(alg.group).nontrivial], dtype=np.int64)
    coords = ((members - 1)[:, :, None] * q + np.arange(q)).reshape(len(members), q * q)
    return np.sort(coords, axis=1)


def _conjugation_blocks(alg: GroupAlgebra, x: AlgElem, xinv: AlgElem, coords: np.ndarray,
                        block_of: np.ndarray, local: np.ndarray) -> np.ndarray:
    """The q^2 x q^2 diagonal blocks of the gamma operator of x in FB.

    b^i (a-1) b^j b^k = (sigma^-i(a) - 1) b^(i+j+k), so every term x_i y_k
    permutes each block's coordinates and no fancy-indexed add collides.
    """
    fld, q = alg.field, alg.q
    l, m = coords.shape
    a, j = coords // q + 1, coords % q
    rows, src = np.arange(l)[:, None], np.arange(m)
    blocks = np.zeros((l, m, m), dtype=np.int64)
    for i in np.nonzero(x.coeffs[:q])[0]:
        moved = (alg.group.sigma_pows[(q - i) % q][a] - 1) * q
        for k in np.nonzero(xinv.coeffs[:q])[0]:
            tgt = moved + (i + j + k) % q
            if np.any(block_of[tgt] != rows):
                raise MathDomainError("a conjugation term leaves its orbit block")
            w = fld.mul(int(x.coeffs[i]), int(xinv.coeffs[k]))
            tl = local[tgt]
            blocks[rows, tl, src] = fld.vadd(blocks[rows, tl, src], w)
    blocks[:, src, src] = fld.vsub(blocks[:, src, src], 1)
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


def _block_centralizer(alg: GroupAlgebra, x: AlgElem, xinv: AlgElem):
    """Kernel, slice dims and star closure for x in FB, one orbit block at a time.

    Each distinct block is solved once.  The blocks have disjoint
    coordinates, so their kernel rows, placed at those coordinates and
    sorted by pivot descending, are the canonical basis.  The involution
    swaps the blocks in pairs (O and O^-1, never O itself for odd p and q),
    so the slices are counted over each pair.
    """
    fld, dim = alg.field, alg.gamma_dim()
    coords = _orbit_blocks(alg)
    l, m = coords.shape
    block_of = np.empty(dim, dtype=np.int64)
    block_of[coords] = np.arange(l)[:, None]
    local = np.empty(dim, dtype=np.int64)
    local[coords] = np.arange(m)
    blocks = _conjugation_blocks(alg, x, xinv, coords, block_of, local)
    distinct, which = np.unique(blocks.reshape(l, m * m), axis=0, return_inverse=True)
    which = which.reshape(l)
    kernels = [_linalg.right_kernel(fld, blk.reshape(m, m)) for blk in distinct]
    pivots = [_linalg.right_pivots(k) for k in kernels]

    piv = np.concatenate([coords[t][pivots[u]] for t, u in enumerate(which)])
    dest = np.empty(piv.size, dtype=np.int64)
    dest[np.argsort(-piv)] = np.arange(piv.size)
    K = np.zeros((piv.size, dim), dtype=np.int64)
    r = 0
    for t, u in enumerate(which):
        d = kernels[u].shape[0]
        K[np.ix_(dest[r:r + d], coords[t])] = kernels[u]
        r += d

    pi = alg.gamma_star_pairs()[0]
    partner = block_of[pi[coords[:, 0]]]
    if np.any(block_of[pi[coords]] != partner[:, None]) or np.any(partner == np.arange(l)):
        raise MathDomainError("the involution does not swap the orbit blocks in pairs")
    slices, count = {}, Counter()  # pairs with equal kernels and pi are solved once
    for t in np.nonzero(partner > np.arange(l))[0]:
        pair = [t, partner[t]]
        cols = pi[coords[pair].ravel()]
        perm = np.where(block_of[cols] == t, 0, m) + local[cols]
        key = (tuple(which[pair]), perm.tobytes())
        count[key] += 1
        if key not in slices:
            k0, k1 = (kernels[u] for u in key[0])
            Kc = np.zeros((len(k0) + len(k1), 2 * m), dtype=np.int64)
            Kc[:len(k0), :m], Kc[len(k0):, m:] = k0, k1
            slices[key] = _star_slices(fld, Kc, perm)
    sym_dim = sum(count[key] * sym for key, (sym, _, _) in slices.items())
    skew_dim = sum(count[key] * skew for key, (_, skew, _) in slices.items())
    star_closed = all(closed for _, _, closed in slices.values())
    return K, sym_dim, skew_dim, star_closed


@dataclass
class CentralizerReport:
    """Exact kernel of the conjugation operator on gamma, with star slices."""

    x: AlgElem
    kernel: Subspace
    dim: int
    star_closed: bool
    sym_dim: int
    skew_dim: int


def centralizer_in_gamma(alg: GroupAlgebra, x: AlgElem) -> CentralizerReport:
    """Solutions of x g = g x inside gamma, as an exact kernel.

    1 + g commutes with x iff g does, so this also describes
    C_(1+gamma)(x).  For x in FB (supported on B) the operator is
    block-diagonal over the sigma-orbits of A: it is built and solved as
    (|A|-1)/q blocks of size q^2, with no |G|^2 array.  Any other x takes
    the dense operator, refused up front if it would not fit in memory.
    Either way the kernel basis K is canonical in gamma coordinates, which
    the involution permutes by pi, so the slices C ^ S1 and C ^ S2 have
    dimensions dim - rank(K[:, pi] - K) and dim - rank(K[:, pi] + K).  They
    sum to dim iff C is star-closed, which is cross-checked directly.  The
    block path counts both over each pair of blocks that pi swaps.
    """
    xinv = alg.invert(x)  # raises NotAUnit for non-units
    q = alg.q
    if not x.coeffs[q:].any():
        if xinv.coeffs[q:].any():
            raise MathDomainError("the inverse of an element of FB leaves FB")
        K, sym_dim, skew_dim, star_closed = _block_centralizer(alg, x, xinv)
    else:
        K = _linalg.right_kernel(alg.field, _conjugation_matrix_gamma(alg, x, xinv))
        sym_dim, skew_dim, star_closed = _star_slices(alg.field, K, alg.gamma_star_pairs()[0])
    kernel = Subspace(alg.field, alg.gamma_expand(K), reduced=True)
    return CentralizerReport(x=x, kernel=kernel, dim=kernel.dim, star_closed=star_closed,
                             sym_dim=sym_dim, skew_dim=skew_dim)


def centralizer_of_b_orbit_form(alg: GroupAlgebra) -> tuple[Subspace, bool]:
    """Span of {b^t (orbit_sum - orbit_size)} and its equality with the kernel.

    These elements commute with b, and the span has dimension q * l with
    l the number of non-trivial orbits; equality with the conjugation
    kernel of b is verified by comparing canonical bases.
    """
    G = alg.group
    q = alg.q
    table = orbits(G)
    rows = []
    neg_q = alg.field.neg(q % alg.field.p)
    for rep, members in table.nontrivial:
        for t in range(q):
            row = np.zeros(alg.order, dtype=np.int64)
            for a in members:
                row[a * q + t] = 1
            row[t] = neg_q  # the -|O| * b^t term sits on the e slot
            rows.append(row)
    span = Subspace(alg.field, np.stack(rows)) if rows else Subspace(
        alg.field, np.zeros((0, alg.order), dtype=np.int64))
    b_report = centralizer_in_gamma(alg, alg.basis(G.b()))
    return span, span == b_report.kernel


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
    return from_projections(ProjVec(fb_ctx(alg), zeta_powers(alg.field, exps))).coeffs


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
