"""Structure of V(FG) = (1 + gamma) x| V(FB): centralizers, class lengths,
the Cayley correspondence, and sampling evidence for class disjointness.

Centralizers inside 1 + gamma are computed as exact kernels of the
conjugation operator on gamma; class lengths come out as prime powers
p^(f * (dim gamma - dim C)), which is the only feasible exact route
(|1 + gamma| is astronomically large).  All sampling is seeded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .algebra import AlgElem, GroupAlgebra, Subspace
from .cqstruct import FBCtx, ProjVec, from_projections
from .errors import (BadCentralizerElement, MathDomainError, NotInGamma,
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


def _conjugation_matrix_gamma(alg: GroupAlgebra, x: AlgElem, xinv: AlgElem) -> np.ndarray:
    """Matrix of g -> x g x^-1 - g on gamma, in the (a-1)b^j coordinate system."""
    G = alg.group
    n, q, f = alg.order, alg.q, alg.field.f
    sup_x = np.nonzero(x.coeffs)[0]
    sup_y = np.nonzero(xinv.coeffs)[0]
    g = np.arange(n, dtype=np.int64)
    # tgt[i, k, :] = sup_x[i] * g * sup_y[k] as group indices
    left = G._mul_idx_arrays(sup_x[:, None, None], g[None, None, :])
    tgt = G._mul_idx_arrays(left, sup_y[None, :, None])
    if f == 1:
        C = np.zeros((n, n), dtype=np.int64)
        for i in range(len(sup_x)):
            for k in range(len(sup_y)):
                wgt = alg.field.mul(int(x.coeffs[sup_x[i]]), int(xinv.coeffs[sup_y[k]]))
                C[tgt[i, k], g] += wgt
        C %= alg.field.p
    else:
        digits = np.zeros((n, n, f), dtype=np.int64)
        for i in range(len(sup_x)):
            for k in range(len(sup_y)):
                wgt = alg.field.mul(int(x.coeffs[sup_x[i]]), int(xinv.coeffs[sup_y[k]]))
                digits[tgt[i, k], g] += alg.field.decode(wgt)
        C = alg.field.encode(digits)
    # restrict to gamma: column for basis (a-1)b^j is conj column of a b^j
    # minus the conj column of b^j; rows with a = e are determined and dropped
    dim = n - q
    cols = np.arange(dim, dtype=np.int64)
    M = alg.field.vsub(C[q:, q:], C[q:, : q][:, cols % q])
    M = alg.field.vsub(M, np.eye(dim, dtype=np.int64))
    return np.ascontiguousarray(M)


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
    C_(1+gamma)(x).  The kernel basis K from `right_kernel` is canonical in
    gamma coordinates, which the involution permutes by pi, so the slices
    C ^ S1 and C ^ S2 have dimensions dim - rank(K[:, pi] - K) and
    dim - rank(K[:, pi] + K).  They sum to dim iff C is star-closed, which
    is cross-checked directly.
    """
    xinv = alg.invert(x)  # raises NotAUnit for non-units
    M = _conjugation_matrix_gamma(alg, x, xinv)
    K = _linalg.right_kernel(alg.field, M)
    kernel = Subspace(alg.field, alg.gamma_expand(K), reduced=True)
    dim = kernel.dim
    starred = K[:, alg.gamma_star_perm()]
    sym_dim = dim - _linalg.rank(alg.field, alg.field.vsub(starred, K))
    skew_dim = dim - _linalg.rank(alg.field, alg.field.vadd(starred, K))
    star_closed = kernel.contains_rows(kernel.basis[:, alg.group.inv_perm])
    if star_closed != (sym_dim + skew_dim == dim):
        raise MathDomainError(f"star closure {star_closed} contradicts slice "
                              f"dims {sym_dim} + {skew_dim} of {dim}")
    return CentralizerReport(x=x, kernel=kernel, dim=dim, star_closed=star_closed,
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
    |Cl*_x| = |S2| / |C ^ S2| at the dimension level; it requires x unitary.
    """
    if report is None:
        report = centralizer_in_gamma(alg, x)
    f = alg.field.f
    if not starred:
        return ClassLength(alg.field.p, f * (alg.gamma_dim() - report.dim), False)
    if (x * x.star()) != alg.one():
        raise NotUnitary("starred class length requires a unitary unit")
    s2_dim = alg.sym_skew_subspaces()[1].dim
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
    fb = fb_ctx(alg)
    fld = alg.field
    q = alg.q
    N = fld.order
    vals = np.ones(q, dtype=np.int64)
    if unitary:
        exps = rng.integers(0, N, (q - 1) // 2)
        for i, e in enumerate(exps, start=1):
            vals[i] = fld.pow(fld.zeta.code, int(e))
            vals[q - i] = fld.pow(fld.zeta.code, -int(e) % N)
    else:
        exps = rng.integers(0, N, q - 1)
        for i, e in enumerate(exps, start=1):
            vals[i] = fld.pow(fld.zeta.code, int(e))
    return from_projections(ProjVec(fb, vals)).coeffs


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
