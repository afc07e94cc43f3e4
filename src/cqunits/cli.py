"""Command line front end: config parsing, element expressions, reports.

Config files are `key=value` lines ('#' comments); element expressions
follow
    expr   := ['-'] term (('+'|'-') term)*
    term   := coeff ('*' mono)? | mono
    mono   := factor ('*' factor)*
    factor := gen ('^' ['-'] int)?
    gen    := 'b' | 'a'<digits> | '1'
    coeff  := int | '[' int (',' int)* ']'
with '^' binding tighter than '*' tighter than '+'/'-'; integer literals
are reduced mod p and bracketed lists are z-polynomial coefficients for
f > 1.  Exit codes: 0 ok, 1 hypothesis violation, 2 parse error, 3
math/domain error, 4 budget exceeded, 5 internal error.

Each subcommand handler `_cmd_*(args, inst)` returns its result (the JSON
report's "result") and its text lines, and prints nothing; `main` emits
them once and maps every error, also one raised while emitting, to its
exit code.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback
from dataclasses import asdict

import numpy as np

from . import cqstruct, unitgroup, verifier
from .algebra import AlgElem
from .errors import (INTERNAL_ERROR_EXIT, INTERNAL_ERROR_SLUG, MathDomainError,
                     ParseError, ToolkitError)
from .group import orbits

REQUIRED_KEYS = ("p", "f", "q", "A", "action")
OPTIONAL_KEYS = ("modulus", "budget", "seed")


# ---------------------------------------------------------------------------
# config files


def parse_config(text: str) -> verifier.Instance:
    """key=value lines -> fully validated Instance."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", line=lineno, column=1)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in REQUIRED_KEYS + OPTIONAL_KEYS:
            raise ParseError(f"unknown key {key!r}", line=lineno, column=1)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", line=lineno, column=1)
        if not val:
            raise ParseError(f"empty value for {key!r}", line=lineno, column=1)
        values[key] = val
    missing = [k for k in REQUIRED_KEYS if k not in values]
    if missing:
        raise ParseError(f"missing required key(s): {', '.join(missing)}")

    def to_int(key, s):
        try:
            return int(s)
        except ValueError:
            raise ParseError(f"key {key!r} expects an integer, got {s!r}") from None

    p = to_int("p", values["p"])
    f = to_int("f", values["f"])
    q = to_int("q", values["q"])
    factors = [to_int("A", x) for x in values["A"].split(",")]
    action = [[to_int("action", x) for x in row.split(",")]
              for row in values["action"].split(";")]
    modulus = ([to_int("modulus", x) for x in values["modulus"].split(",")]
               if "modulus" in values else None)
    # make_instance refuses a negative budget or seed
    budget = to_int("budget", values["budget"]) if "budget" in values else cqstruct.DEFAULT_BUDGET
    seed = to_int("seed", values["seed"]) if "seed" in values else 0
    return verifier.make_instance(p, f, q, factors, action, modulus=modulus,
                                  budget=budget, seed=seed)


# ---------------------------------------------------------------------------
# element expressions


# one token a match: an int, a<k> (value k), b or a symbol; \S catches the rest
_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|a(?P<a>\d+)|(?P<sym>[-+*^\[\],b])|(?P<bad>\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, 1-based column) tokens ending in an 'end' sentinel; an a<k>
    token sits at the column of its 'a'."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value, column = m[kind], m.start(kind) + (kind != "a")
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", line=1, column=column)
        toks.append((value if kind == "sym" else kind, value, column))
    return toks + [("end", "", len(text) + 1)]


class ExprSemanticError(MathDomainError):
    slug = "expression-semantic"


def parse_element(text: str, inst: verifier.Instance) -> AlgElem:
    """Parse a group-algebra element expression against an instance."""
    alg, group, f = inst.algebra, inst.group, inst.field.f
    toks, pos = _tokenize(text), 0

    def take(*kinds):
        nonlocal pos
        if toks[pos][0] in kinds:
            pos += 1
            return toks[pos - 1]

    def need(kind) -> str:
        if not (tok := take(kind)):
            tok = toks[pos]
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}", line=1, column=tok[2])
        return tok[1]

    def signed_int() -> int:
        return (-1 if take("-") else 1) * int(need("int"))

    acc, op = alg.zero(), take("-") or ("+",)
    while op:  # the expression: signed terms
        kind, value, _ = toks[pos]
        coeff, g, more = None, None, True
        # a term: a coefficient, unless a bare '1' starts a power of the identity
        if kind == "[" or (kind == "int" and not (value == "1" and toks[pos + 1][0] == "^")):
            if take("["):
                items = [signed_int()]
                while take(","):
                    items.append(signed_int())
                need("]")
                if len(items) > f:
                    raise ExprSemanticError(
                        f"bracket list of length {len(items)} exceeds f = {f}")
                coeff = alg.field.from_coeffs(items + [0] * (f - len(items)))
            else:
                coeff = alg.field.elem(int(need("int")))
            more = take("*")
        while more:  # a factor: gen ('^' signed int)?
            kind, value, column = toks[pos]
            if kind == "a":
                k, r = int(value), len(group.abelian.factors)
                if not 1 <= k <= r:
                    raise ExprSemanticError(
                        f"generator a{k} out of range; A has {r} invariant factor(s)")
                h = group.generator(k)
            elif kind == "b" or (kind, value) == ("int", "1"):
                h = group.b() if kind == "b" else group.identity()
            else:
                raise ParseError(f"expected a generator, got {value!r}", line=1, column=column)
            pos += 1
            h = h ** signed_int() if take("^") else h
            g = h if g is None else g * h
            # the next factor is read only past a '*' and before a generator, so
            # any other '*' is left as trailing input
            nxt = toks[pos + 1] if toks[pos][0] == "*" else ("end",)
            more = nxt[0] in ("a", "b") or nxt[:2] == ("int", "1")
            pos += more
        term = (alg.scalar(coeff) if g is None else
                alg.basis(g) if coeff is None else alg.basis(g).scale(coeff))
        acc = acc + (term if op[0] == "+" else -term)
        op = take("+", "-")
    if (tok := toks[pos])[0] != "end":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", line=1, column=tok[2])
    return acc


# ---------------------------------------------------------------------------
# rendering


def _fb_elem_of(inst: verifier.Instance, x: AlgElem) -> cqstruct.FBElem:
    return cqstruct.FBElem(inst.fb, x.rho_coeffs())


def _field_value(inst, code: int):
    if inst.field.f == 1:
        return int(code)
    return list(inst.field.from_code(code).coeffs)


def _projvec_list(inst, pv: cqstruct.ProjVec):
    return [_field_value(inst, int(v)) for v in pv.values]


def _emit(args, inst, result: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps({"instance": inst.as_dict(), "command": args.command, "result": result,
                          "provenance": {"seed": inst.seed, "budget": inst.budget}},
                         sort_keys=True))
    else:
        qd = inst.qdecomp
        print(f"# GF({inst.field.p}^{inst.field.f}), q={inst.q}, "
              f"zeta={inst.field.zeta.code}, omega={qd.omega.code}, "
              f"s={qd.s}, m={qd.m}, eta={qd.eta.code}")
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommand handlers: (args, inst) -> (result, text lines)


def _cmd_idempotents(args, inst):
    idem = cqstruct.idempotents(inst.fb)
    checks = idem.verify()
    result = {"idempotents": [e.format() for e in idem], "checks": checks}
    lines = [f"e_{j} = {e.format()}" for j, e in enumerate(idem)]
    lines.append("checks: " + ", ".join(f"{k}={v}" for k, v in checks.items()))
    return result, lines


def _cmd_project(args, inst):
    u = _fb_elem_of(inst, parse_element(args.expr, inst))
    result = {"rho": u.format(), "projections": _projvec_list(inst, cqstruct.projections(u))}
    tup = "(" + ", ".join(str(v) for v in result["projections"]) + ")"
    return result, [f"rho(x) = {u.format()}", f"projections = {tup}"]


def _cmd_classify(args, inst):
    u = _fb_elem_of(inst, parse_element(args.expr, inst))
    result = asdict(cqstruct.classify_unit(u))
    return result, [", ".join(f"{k}={v}" for k, v in result.items())]


def _cmd_bpoly(args, inst):
    u = _fb_elem_of(inst, parse_element(args.expr, inst))
    codes = [c.code for c in cqstruct.b_polynomial(u)]  # raises unless b = p(u)
    # does the same polynomial also send b back to u?  p(b) has p's coefficients
    result = {"coefficients": [_field_value(inst, c) for c in codes],
              "u_equals_p_of_b": cqstruct.FBElem(inst.fb, codes) == u}
    return result, [f"b = p(u) with p coefficients (deg 0..q-1): {result['coefficients']}",
                    f"u = p(b): {result['u_equals_p_of_b']}"]


def _cmd_orbits(args, inst):
    table = orbits(inst.group)
    reps = [{"representative": list(map(int, inst.group.a_exps[rep])),
             "size": len(members)} for rep, members in table.orbits]
    result = {"orbit_count": len(table.orbits), "nontrivial_orbits": table.l,
              "orbits": reps}
    return result, [f"{len(table.orbits)} orbits, l = {table.l} nontrivial of size {inst.q}"]


def _prime_power(cl):
    return {"p": cl.p, "exp": cl.exponent,
            "dec": str(verifier.FactoredInt(cl.p, cl.exponent, 1))}


def _cmd_class_length(args, inst):
    x = parse_element(args.expr, inst)
    rep = unitgroup.centralizer_in_gamma(inst.algebra, x)
    cl = unitgroup.class_length(inst.algebra, x, report=rep)
    result = {"centralizer_dim": rep.dim, "sym_dim": rep.sym_dim, "skew_dim": rep.skew_dim,
              "class_length": _prime_power(cl)}
    lines = [f"dim C_gamma(x) = {rep.dim}", f"{cl!r}"]
    if args.unitary:
        cls = unitgroup.class_length(inst.algebra, x, starred=True, report=rep)
        result["starred_class_length"] = _prime_power(cls)
        lines.append(f"{cls!r}")
    return result, lines


def _cmd_cayley(args, inst):
    u = unitgroup.cayley(parse_element(args.expr, inst))
    return {"unit": u.format()}, [f"u = {u.format()}"]


def _cmd_cayley_inv(args, inst):
    l = unitgroup.cayley_inv(parse_element(args.expr, inst))
    return {"skew": l.format()}, [f"l = {l.format()}"]


_ENUM_CAP = 50


def _cmd_enumerate(args, inst):
    enum = cqstruct.enumerate_VFB(inst.fb, args.family, budget=inst.budget)
    shown = min(enum.order, _ENUM_CAP)
    elements = [{"exponents": list(map(int, enum.exps[i])),
                 "element": enum.unit(i).format()} for i in range(shown)]
    result = {"family": args.family, "order": enum.order,
              "elements": elements, "truncated": enum.order > shown}
    return result, [f"|{args.family}(FB)| = {enum.order}",
                    *(f"  {e['element']}" for e in elements[:10])]


def _cmd_complement_search(args, inst):
    res = cqstruct.complement_search_B_in_VstarFB(inst.fb, budget=inst.budget)
    comps = [{"generators": c["hnf"].T.tolist(),  # rows are generators
              "order": c["order"],
              "witness_exponents": list(map(int, c["witness"])) if c["witness"] else None}
             for c in res.complements]
    result = {"vstar_order": res.vstar_order, "s": res.s, "m": res.m,
              "no_complement": res.no_complement,
              "complements": comps,
              "all_certified": res.all_certified if res.complements else None}
    lines = [f"|V*(FB)| = {res.vstar_order}, s = {res.s}, m = {res.m}"]
    if res.no_complement:
        lines.append("NoComplement: B has no complement in V*(FB)")
    else:
        lines.append(f"{len(comps)} complement(s) found")
        if result["all_certified"]:
            lines.append("every complement contains a unit with q distinct projections")
    return result, lines


def _cmd_distinct_unit(args, inst):
    vals = np.ones(inst.q, dtype=np.int64)
    vals[1] = inst.fb.qdecomp.omega.code
    vals[-1] = inst.field.inv(vals[1])
    n = cqstruct.ProjVec(inst.fb, vals)
    # raises unless w's projections are distinct and w is unitary
    w = cqstruct.distinct_projection_unit(n, inst.fb.qdecomp)
    result = {"n_projections": _projvec_list(inst, n),
              "w_projections": _projvec_list(inst, w),
              "w": w.to_unit().format()}
    return result, [f"n = {tuple(result['n_projections'])}",
                    f"w = {tuple(result['w_projections'])}"]


def _cmd_verify(args, inst):
    analysis = verifier.analyze(inst)
    result = {"analysis": analysis.as_dict()}
    lines = [f"branch: {analysis.branch}  (s={analysis.s}, m={analysis.m})"]
    if analysis.note:
        lines.append(analysis.note)
    if analysis.branch == "m_gt_1":
        rep = verifier.m_gt_1_no_complement(inst)
        result.update(m_gt_1=rep.as_dict(), verdict=rep.verdict)
        lines.append(f"verdict: {rep.verdict}")
    elif analysis.branch == "counting":
        cert = verifier.counting_certificate(inst)
        result.update(certificate=cert.as_dict(), verdict=cert.verdict)
        lines += [f"L = {cert.L!r} > R = {cert.R!r}: {cert.counting_ok}",
                  f"verdict: {cert.verdict}"]
    else:
        result["verdict"] = "TheoremSilent"
        lines.append("verdict: TheoremSilent (no claim)")
    return result, lines


def _cmd_certificate(args, inst):
    cert = verifier.counting_certificate(inst)
    return cert.as_dict(), [
        f"dims: gamma={cert.gamma_dim}, S2={cert.s2_dim}, "
        f"C(b)={cert.centralizer_dim}, skew={cert.centralizer_skew_dim}",
        f"|Cl_b| = {cert.p}^{cert.class_length_exponent}, "
        f"|Cl*_b| = {cert.p}^{cert.starred_class_length_exponent}",
        f"L = {cert.L!r}, R = {cert.R!r}",
        f"|A| = {cert.a_order} > {cert.intermediate_bound}: {cert.intermediate_ok}",
        f"verdict: {cert.verdict}",
    ]


def _cmd_sample_disjoint(args, inst):
    alg = inst.algebra
    units = []
    for row in inst.b_centralizer.kernel.basis:
        sk = alg.elem(row).sym_skew_split()[1]
        if not sk.is_zero() and (u := unitgroup.cayley(sk)) not in units:
            units.append(u)
        if len(units) == 2:
            break
    if len(units) < 2:
        raise MathDomainError("could not derive two distinct centralizer units")
    ev = unitgroup.sample_disjoint_classes(alg, alg.basis(inst.group.b()), units[0], units[1],
                                           trials=args.trials, seed=inst.seed,
                                           report=inst.b_centralizer)
    return asdict(ev), [
        f"trials = {ev.trials} per family, hits: V={ev.hits_v}, V*={ev.hits_vstar}",
        f"dim C(w z1) = {ev.dim_c_wz1} <= dim C(w) = {ev.dim_c_w}: {ev.lower_bound_ok}"]


# ---------------------------------------------------------------------------


def _count(text: str) -> int:
    """--trials, --seed and --budget: an int >= 0; a non-integer is reported as
    type=int reports it."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="instance config file")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--budget", type=_count, default=None,
                        help="enumeration budget override")
    common.add_argument("--seed", type=_count, default=None, help="sampler seed override")

    parser = argparse.ArgumentParser(
        prog="cqunits",
        description="exact unit-group computations in F[A x| C_q]")
    sub = parser.add_subparsers(dest="command", required=True)
    # built on each call, so a handler patched on the module is the one that runs
    for name, fn, takes_expr in (
            ("idempotents", _cmd_idempotents, False), ("project", _cmd_project, True),
            ("classify", _cmd_classify, True), ("bpoly", _cmd_bpoly, True),
            ("cayley", _cmd_cayley, True), ("cayley-inv", _cmd_cayley_inv, True),
            ("orbits", _cmd_orbits, False), ("class-length", _cmd_class_length, True),
            ("enumerate", _cmd_enumerate, False),
            ("complement-search", _cmd_complement_search, False),
            ("distinct-unit", _cmd_distinct_unit, False), ("verify", _cmd_verify, False),
            ("certificate", _cmd_certificate, False),
            ("sample-disjoint", _cmd_sample_disjoint, False)):
        sp = sub.add_parser(name, parents=[common])
        if takes_expr:
            sp.add_argument("expr")
        sp.set_defaults(fn=fn)
    sub.choices["class-length"].add_argument(
        "--unitary", action="store_true",
        help="also report the class length in the unitary subgroup")
    sub.choices["enumerate"].add_argument("family", choices=["V", "V+", "V*"])
    sub.choices["sample-disjoint"].add_argument(
        "--trials", type=_count, default=1000, help="sampling trials per family")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        inst = parse_config(text)
        if args.budget is not None:
            inst.budget = args.budget
        if args.seed is not None:
            inst.seed = args.seed
        _emit(args, inst, *args.fn(args, inst))
        return 0
    except ToolkitError as e:
        slug, code, message = e.slug, e.exit_code, e.message
    except Exception as e:
        traceback.print_exc()
        slug, code, message = INTERNAL_ERROR_SLUG, INTERNAL_ERROR_EXIT, f"{type(e).__name__}: {e}"
    if args.json:
        print(json.dumps({"error": {"code": slug, "exit": code, "message": message}},
                         sort_keys=True), file=sys.stderr)
    else:
        print(f"error[{slug}]: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
