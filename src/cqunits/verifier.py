"""End-to-end instance analysis and the exact counting certificate.

For an instance (GF(p^f), q, A, action) the theorem machinery has two
branches: m > 1 is settled by the q-height of b in V*(FB) (B is not pure,
so it has no complement; see `cqstruct`), and m = 1 with s + 1 >= q and
2n >= f(q-1) by the counting inequality

    (q-1) |(1+gamma)_*|  >  (|(1+gamma)_*| / |A|) ((sq)^((q-1)/2) / q - 1),

whose two sides are carried as factored prime powers.  They share
p^(f s2 - n), so L > R is decided as (q-1) p^n > inner in small integers.
Each side is also built as an exact Decimal, L's from R's power times p^n,
so one libmpdec power serves both: it prints the report's decimal, and
its comparison must agree with the factored decision.
Dimensions entering the certificate are exact, not formula shortcuts:
kernel dimensions from the unitgroup layer's solve over the double cosets
of <supp b> = B, and dim S2 from S2 in block form over the pairs of the
checked involution.  Both are read off their blocks; no dense row of
either subspace is built.

A report carries only checks that could read False, each against a route
of its own; what a definition or an earlier raise guarantees is no check.
"""

from __future__ import annotations

import decimal
from dataclasses import asdict, dataclass, field as dc_field
from functools import cached_property

from .algebra import GroupAlgebra
from .cqstruct import DEFAULT_BUDGET, FBCtx, order_q_subgroups_in_cyclic_qm
from .errors import BranchMismatch, MathDomainError, ParseError
from .field import FieldCtx, QDecomp, make_field
from .group import GroupSpec, make_group
from .unitgroup import CentralizerReport, centralizer_in_gamma


class Instance:
    """One verified problem instance, with the expensive artifacts cached."""

    def __init__(self, field: FieldCtx, q: int, group: GroupSpec,
                 budget: int = DEFAULT_BUDGET, seed: int = 0):
        for key, n in (("budget", budget), ("seed", seed)):
            if n < 0:
                raise ParseError(f"key {key!r} expects an integer >= 0, got {n}")
        self.field = field
        self.q = q
        self.group = group
        self.qdecomp = QDecomp(field, q)  # enforces q | p^f - 1
        self.n = group.n
        self.budget = budget
        self.seed = seed

    @cached_property
    def fb(self) -> FBCtx:
        # FB needs no group algebra: the m > 1 branch reads only this
        return FBCtx(self.field, self.q)

    @cached_property
    def algebra(self) -> GroupAlgebra:
        return GroupAlgebra(self.field, self.group, self.fb)

    @cached_property
    def s2_dim(self) -> int:
        # S2's block form reads dim as the pair count of gamma_star_pairs()
        # and builds no rows; the read stays on sym_skew_subspaces because
        # perfbench's traced smoke checks reach that span only through it
        return self.algebra.sym_skew_subspaces()[1].dim

    @cached_property
    def b_centralizer(self) -> CentralizerReport:
        return centralizer_in_gamma(self.algebra, self.algebra.basis(self.group.b()))

    def as_dict(self) -> dict:
        qd = self.qdecomp
        return {
            "p": self.field.p, "f": self.field.f, "q": self.q,
            "modulus": list(self.field.modulus),
            "A": list(self.group.abelian.factors),
            "action": self.group.action.matrix.tolist(),
            "n": self.n,
            "zeta": self.field.zeta.code, "omega": qd.omega.code,
            "eta": qd.eta.code, "s": qd.s, "m": qd.m,
        }


def make_instance(p: int, f: int, q: int, factors, action, modulus=None,
                  budget: int = DEFAULT_BUDGET, seed: int = 0) -> Instance:
    field = make_field(p, f, modulus)
    QDecomp(field, q)  # diagnose q before validating the action
    group = make_group(field, q, factors, action)
    return Instance(field, q, group, budget=budget, seed=seed)


@dataclass
class Analysis:
    p: int
    f: int
    q: int
    n: int
    s: int
    m: int
    conditions: dict
    branch: str  # "m_gt_1" | "counting" | "silent"
    note: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def analyze(inst: Instance) -> Analysis:
    """Pick the applicable branch from (s, m, n, f, q), or report silence."""
    qd = inst.qdecomp
    conds = {
        "m_gt_1": qd.m > 1,
        "s_plus_1_ge_q": qd.s + 1 >= inst.q,
        "two_n_ge_f_q_minus_1": 2 * inst.n >= inst.field.f * (inst.q - 1),
    }
    note = ""
    if conds["m_gt_1"]:
        branch = "m_gt_1"
    elif conds["s_plus_1_ge_q"] and conds["two_n_ge_f_q_minus_1"]:
        branch = "counting"
        if inst.q == 3:
            note = ("q = 3: the counting inequality is evaluated directly; "
                    "this case is also covered by an independent earlier result")
    else:
        branch = "silent"
        note = "hypotheses not met; no verdict is claimed"
    return Analysis(p=inst.field.p, f=inst.field.f, q=inst.q, n=inst.n,
                    s=qd.s, m=qd.m, conditions=conds, branch=branch, note=note)


# exact big-integer arithmetic: a rounding or an overflow raises, never passes
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.InvalidOperation,
                                decimal.DivisionByZero, decimal.Overflow])
_RESIDUE_PRIMES = (2 ** 61 - 1, 2 ** 31 - 1, 2 ** 19 - 1)


class FactoredInt:
    """cofactor * p^exp, built once as an exact Decimal and printed from it.

    libmpdec multiplies large Decimals by number-theoretic transforms and
    prints them in linear time, where CPython's str() of an int is
    quadratic.  The Decimal is never converted back to int (that is
    quadratic too).  `power`, the Decimal p^exp, is kept: `shift` builds
    cofactor * p^(exp + k) from it with one product instead of a second
    power, as the certificate builds L from R's.  `residues_agree` checks
    the Decimal against modular powers in int arithmetic, which shares no
    code with libmpdec.  `value` and `recompute_slow` are the int routes,
    read only by tests.
    """

    def __init__(self, p: int, exp: int, cofactor: int):
        if exp < 0:
            raise MathDomainError(f"FactoredInt needs exp >= 0, not {exp}")
        self.p = p
        self.exp = exp
        self.cofactor = cofactor

    @cached_property
    def power(self) -> decimal.Decimal:
        return _EXACT.power(self.p, self.exp)

    @cached_property
    def decimal(self) -> decimal.Decimal:
        return _EXACT.multiply(self.power, self.cofactor)

    def shift(self, k: int, cofactor: int) -> "FactoredInt":
        """cofactor * p^(exp + k) for k >= 0, its power this one's times p^k."""
        out = FactoredInt(self.p, self.exp + k, cofactor)
        out.power = _EXACT.multiply(self.power, self.p ** k)
        return out

    @cached_property
    def value(self) -> int:
        return self.cofactor * self.p ** self.exp

    def recompute_slow(self) -> int:
        """cofactor * p^exp by square-and-multiply over the bits of exp,
        without `**` or `pow`, so it does not share `value`'s route."""
        acc, square, e = self.cofactor, self.p, self.exp
        while e:
            if e & 1:
                acc = acc * square
            e >>= 1
            if e:
                square = square * square
        return acc

    def residues_agree(self) -> bool:
        """The Decimal's residues modulo fixed primes are cofactor * p^exp's.

        libmpdec's remainder takes the dividend's sign, hence the `% m`."""
        return all(int(_EXACT.remainder(self.decimal, m)) % m
                   == self.cofactor * pow(self.p, self.exp, m) % m
                   for m in _RESIDUE_PRIMES)

    def __str__(self):
        return str(self.decimal)

    def as_dict(self) -> dict:
        return {"dec": str(self), "p": self.p, "exp": self.exp, "cofactor": self.cofactor}

    def __repr__(self):
        if self.cofactor == 1:
            return f"{self.p}^{self.exp}"
        return f"{self.cofactor}*{self.p}^{self.exp}"

    def __eq__(self, other):
        return isinstance(other, FactoredInt) and self.decimal == other.decimal


@dataclass
class Certificate:
    """Exact big-integer report for one m = 1 counting instance."""

    p: int
    f: int
    q: int
    n: int
    s: int
    m: int
    gamma_dim: int
    s2_dim: int
    centralizer_dim: int
    centralizer_skew_dim: int
    class_length_exponent: int
    starred_class_length_exponent: int
    L: FactoredInt
    R: FactoredInt
    a_order: int
    intermediate_bound: int
    intermediate_ok: bool
    counting_ok: bool
    verdict: str
    checks: dict = dc_field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "p": self.p, "f": self.f, "q": self.q, "n": self.n,
            "s": self.s, "m": self.m,
            "dims": {
                "gamma": self.gamma_dim, "s2": self.s2_dim,
                "centralizer_of_b": self.centralizer_dim,
                "centralizer_of_b_skew": self.centralizer_skew_dim,
            },
            "class_length": {"p": self.p, "exp": self.class_length_exponent},
            "starred_class_length": {"p": self.p,
                                     "exp": self.starred_class_length_exponent},
            "L": self.L.as_dict(), "R": self.R.as_dict(),
            "A_order": self.a_order,
            "intermediate_bound": str(self.intermediate_bound),
            "intermediate_ok": self.intermediate_ok,
            "counting_ok": self.counting_ok,
            "checks": dict(self.checks),
            "verdict": self.verdict,
        }


def counting_certificate(inst: Instance) -> Certificate:
    """The m = 1 counting contradiction, from exact kernel dimensions.

    L = (q-1) |(1+gamma)_*| bounds the union of the starred classes from
    below; R = |N_* \\ (1+gamma)_*| counts the ambient set a hypothetical
    complement would have to fit them into.  L > R is the contradiction.

    `checks` compares the block solve's dim C(b) with p^n - 1, reads the
    kernel's star closure and dim = 2 skew, and each Decimal's residues with
    int arithmetic.  dim gamma = q (p^n - 1) (by definition), 2 dim S2 = dim
    gamma (a pair count, raised on otherwise), |Cl_b| = |Cl*_b|^2 (which is
    dim = 2 skew) and the union bound's exponent sum (by definition) are not.
    """
    analysis = analyze(inst)
    if analysis.branch != "counting":
        raise BranchMismatch(
            f"counting certificate needs m = 1, s+1 >= q and 2n >= f(q-1); "
            f"analysis gives branch {analysis.branch!r}")
    p, f, q, n, s = inst.field.p, inst.field.f, inst.q, inst.n, inst.qdecomp.s

    gamma_dim = inst.algebra.gamma_dim()
    s2_dim = inst.s2_dim
    rep = inst.b_centralizer
    cl_exp = f * (gamma_dim - rep.dim)
    cl_star_exp = f * (s2_dim - rep.skew_dim)

    power = (s * q) ** ((q - 1) // 2)
    if power % q:
        raise MathDomainError("(sq)^((q-1)/2) should be divisible by q")
    inner = power // q - 1
    R = FactoredInt(p, f * s2_dim - n, inner)
    L = R.shift(n, q - 1)  # (q-1) p^(f s2), its Decimal from R's power
    checks = {
        "centralizer_dim_formula": rep.dim == p ** n - 1,
        "b_kernel_star_closed": rep.star_closed,
        "sqrt_law_for_b": rep.dim == 2 * rep.skew_dim,
        "L_recompute": L.residues_agree(),
        "R_recompute": R.residues_agree(),
    }

    a_order = p ** n
    intermediate_ok = a_order > inner
    # L and R share p^(f s2 - n), so L > R exactly when (q-1) p^n > inner
    counting_ok = (q - 1) * a_order > inner
    if (L.decimal > R.decimal) != counting_ok:
        raise MathDomainError(
            f"L > R is {counting_ok} in factored form but "
            f"{not counting_ok} for the exact decimals")
    verdict = ("NoNormalComplement"
               if intermediate_ok and counting_ok and all(checks.values())
               else "Inconclusive")
    return Certificate(
        p=p, f=f, q=q, n=n, s=s, m=1,
        gamma_dim=gamma_dim, s2_dim=s2_dim,
        centralizer_dim=rep.dim, centralizer_skew_dim=rep.skew_dim,
        class_length_exponent=cl_exp, starred_class_length_exponent=cl_star_exp,
        L=L, R=R, a_order=a_order, intermediate_bound=inner,
        intermediate_ok=intermediate_ok, counting_ok=counting_ok,
        verdict=verdict, checks=checks)


@dataclass
class MGt1Report:
    q: int
    s: int
    m: int
    vstar_order: int
    structural_ok: bool
    verdict: str

    def as_dict(self) -> dict:
        return {"q": self.q, "s": self.s, "m": self.m,
                "vstar_order": self.vstar_order,
                "structural_scan_ok": self.structural_ok,
                "verdict": self.verdict}


def m_gt_1_no_complement(inst: Instance) -> MGt1Report:
    """B has no complement in V*(FB) ~ (Z_N)^k when m > 1.

    b's coordinates are multiples of N/q, and q^2 | N puts b in q V*(FB),
    so B = <b> is not pure and not a direct summand.  The structural check
    decides: b = y^(q^(m-1)) for a unitary y, in circulant products.  The
    complement search, which with m > 1 restates q^2 | N, is not run.
    """
    qd = inst.qdecomp
    if qd.m <= 1:
        raise BranchMismatch(f"m = {qd.m}: the q-height branch needs m > 1")
    structural_ok = order_q_subgroups_in_cyclic_qm(inst.fb)
    return MGt1Report(q=inst.q, s=qd.s, m=qd.m,
                      vstar_order=inst.field.order ** ((inst.q - 1) // 2),
                      structural_ok=structural_ok,
                      verdict="NoNormalComplement" if structural_ok else "Inconclusive")
