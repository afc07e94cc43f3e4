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
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import numpy as np

from . import cqstruct, unitgroup, verifier
from .algebra import AlgElem
from .errors import (INTERNAL_ERROR_EXIT, INTERNAL_ERROR_SLUG, MathDomainError,
                     ParseError, ToolkitError)
from .group import GroupElem

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
    budget = to_int("budget", values["budget"]) if "budget" in values else cqstruct.DEFAULT_BUDGET
    seed = to_int("seed", values["seed"]) if "seed" in values else 0
    return verifier.make_instance(p, f, q, factors, action, modulus=modulus,
                                  budget=budget, seed=seed)


# ---------------------------------------------------------------------------
# element expressions


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []  # (kind, value, column)
        i = 0
        while i < len(text):
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("int", text[i:j], i + 1))
                i = j
            elif c == "a" and i + 1 < len(text) and text[i + 1].isdigit():
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("gen_a", text[i + 1:j], i + 1))
                i = j
            elif c == "b":
                self.toks.append(("gen_b", "b", i + 1))
                i += 1
            elif c in "+-*^[],":
                self.toks.append((c, c, i + 1))
                i += 1
            else:
                raise ParseError(f"unexpected character {c!r}", line=1, column=i + 1)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else ("end", "", len(self.text) + 1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}", line=1, column=tok[2])
        return tok


class ExprSemanticError(MathDomainError):
    slug = "expression-semantic"


def parse_element(text: str, inst: verifier.Instance) -> AlgElem:
    """Parse a group-algebra element expression against an instance."""
    alg = inst.algebra
    toks = _Tokens(text)

    def parse_int(signed=False):
        sign = 1
        if signed and toks.peek()[0] == "-":
            toks.next()
            sign = -1
        tok = toks.expect("int")
        return sign * int(tok[1])

    def parse_coeff():
        tok = toks.peek()
        if tok[0] == "[":
            toks.next()
            items = [parse_int(signed=True)]
            while toks.peek()[0] == ",":
                toks.next()
                items.append(parse_int(signed=True))
            toks.expect("]")
            if len(items) > inst.field.f:
                raise ExprSemanticError(
                    f"bracket list of length {len(items)} exceeds f = {inst.field.f}")
            return alg.field.from_coeffs(items + [0] * (inst.field.f - len(items)))
        return alg.field.elem(parse_int())

    def parse_gen() -> GroupElem:
        tok = toks.next()
        if tok[0] == "gen_b":
            return inst.group.b()
        if tok[0] == "gen_a":
            k = int(tok[1])
            r = len(inst.group.abelian.factors)
            if not 1 <= k <= r:
                raise ExprSemanticError(
                    f"generator a{k} out of range; A has {r} invariant factor(s)")
            return inst.group.generator(k)
        if tok[0] == "int" and tok[1] == "1":
            return inst.group.identity()
        raise ParseError(f"expected a generator, got {tok[1]!r}", line=1, column=tok[2])

    def parse_factor() -> GroupElem:
        g = parse_gen()
        if toks.peek()[0] == "^":
            toks.next()
            return g ** parse_int(signed=True)
        return g

    def parse_mono() -> GroupElem:
        g = parse_factor()
        while toks.peek()[0] == "*":
            save = toks.pos
            toks.next()
            nxt = toks.peek()
            if nxt[0] in ("gen_a", "gen_b") or (nxt[0] == "int" and nxt[1] == "1"):
                g = g * parse_factor()
            else:
                toks.pos = save
                break
        return g

    def parse_term() -> AlgElem:
        tok = toks.peek()
        if tok[0] in ("int", "[") and not (tok[0] == "int" and _starts_mono(toks)):
            c = parse_coeff()
            if toks.peek()[0] == "*":
                toks.next()
                g = parse_mono()
                return alg.basis(g).scale(c)
            return alg.scalar(c)
        g = parse_mono()
        return alg.basis(g)

    def _starts_mono(toks: _Tokens) -> bool:
        # a bare '1' followed by '*gen' or '^' acts as the identity generator
        tok = toks.peek()
        if tok[0] != "int" or tok[1] != "1":
            return False
        nxt = toks.toks[toks.pos + 1] if toks.pos + 1 < len(toks.toks) else ("end", "", 0)
        return nxt[0] == "^"

    acc = alg.zero()
    sign = 1
    if toks.peek()[0] == "-":
        toks.next()
        sign = -1
    term = parse_term()
    acc = acc + (term if sign == 1 else -term)
    while toks.peek()[0] in ("+", "-"):
        op = toks.next()[0]
        term = parse_term()
        acc = acc + (term if op == "+" else -term)
    tok = toks.peek()
    if tok[0] != "end":
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


def _emit(args, inst, command: str, result: dict, text_lines: list[str]) -> None:
    if args.json:
        doc = {
            "instance": inst.as_dict(),
            "command": command,
            "result": result,
            "provenance": {"seed": args.seed if args.seed is not None else inst.seed,
                           "budget": args.budget if args.budget is not None else inst.budget},
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        qd = inst.qdecomp
        print(f"# GF({inst.field.p}^{inst.field.f}), q={inst.q}, "
              f"zeta={inst.field.zeta.code}, omega={qd.omega.code}, "
              f"s={qd.s}, m={qd.m}, eta={qd.eta.code}")
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_idempotents(args, inst):
    idem = cqstruct.idempotents(inst.fb)
    checks = idem.verify()
    result = {"idempotents": [e.format() for e in idem],
              "checks": checks}
    lines = [f"e_{j} = {e.format()}" for j, e in enumerate(idem)]
    lines.append("checks: " + ", ".join(f"{k}={v}" for k, v in checks.items()))
    _emit(args, inst, "idempotents", result, lines)
    return 0


def _cmd_project(args, inst):
    x = parse_element(args.expr, inst)
    u = _fb_elem_of(inst, x)
    pv = cqstruct.projections(u)
    result = {"rho": u.format(), "projections": _projvec_list(inst, pv)}
    tup = "(" + ", ".join(str(v) for v in result["projections"]) + ")"
    _emit(args, inst, "project", result,
          [f"rho(x) = {u.format()}", f"projections = {tup}"])
    return 0


def _cmd_classify(args, inst):
    u = _fb_elem_of(inst, parse_element(args.expr, inst))
    uc = cqstruct.classify_unit(u)
    result = {"is_unit": uc.is_unit, "is_normalized": uc.is_normalized,
              "is_symmetric": uc.is_symmetric, "is_unitary": uc.is_unitary,
              "has_distinct_projections": uc.has_distinct_projections,
              "order": uc.order}
    _emit(args, inst, "classify", result,
          [", ".join(f"{k}={v}" for k, v in result.items())])
    return 0


def _cmd_bpoly(args, inst):
    u = _fb_elem_of(inst, parse_element(args.expr, inst))
    coeffs = cqstruct.b_polynomial(u)
    # does the same polynomial also send b back to u?
    b = inst.fb.b()
    acc = inst.fb.zero()
    pw = inst.fb.one()
    for c in coeffs:
        acc = acc + pw.scale(c)
        pw = pw * b
    result = {"coefficients": [_field_value(inst, c.code) for c in coeffs],
              "b_equals_p_of_u": True,
              "u_equals_p_of_b": acc == u}
    _emit(args, inst, "bpoly", result,
          [f"b = p(u) with p coefficients (deg 0..q-1): {result['coefficients']}",
           f"u = p(b): {result['u_equals_p_of_b']}"])
    return 0


def _cmd_orbits(args, inst):
    from .group import orbits as group_orbits
    table = group_orbits(inst.group)
    reps = [{"representative": list(map(int, inst.group.a_exps[rep])),
             "size": len(members)} for rep, members in table.orbits]
    result = {"orbit_count": len(table.orbits), "nontrivial_orbits": table.l,
              "orbits": reps}
    _emit(args, inst, "orbits", result,
          [f"{len(table.orbits)} orbits, l = {table.l} nontrivial of size {inst.q}"])
    return 0


def _cmd_class_length(args, inst):
    x = parse_element(args.expr, inst)
    rep = unitgroup.centralizer_in_gamma(inst.algebra, x)
    cl = unitgroup.class_length(inst.algebra, x, report=rep)
    result = {"centralizer_dim": rep.dim,
              "sym_dim": rep.sym_dim, "skew_dim": rep.skew_dim,
              "class_length": {"p": cl.p, "exp": cl.exponent, "dec": verifier.to_decimal(cl.value)}}
    lines = [f"dim C_gamma(x) = {rep.dim}", f"{cl!r}"]
    if args.unitary:
        cls = unitgroup.class_length(inst.algebra, x, starred=True, report=rep)
        result["starred_class_length"] = {"p": cls.p, "exp": cls.exponent,
                                          "dec": verifier.to_decimal(cls.value)}
        lines.append(f"{cls!r}")
    _emit(args, inst, "class-length", result, lines)
    return 0


def _cmd_cayley(args, inst):
    l = parse_element(args.expr, inst)
    u = unitgroup.cayley(l)
    result = {"unit": u.format()}
    _emit(args, inst, "cayley", result, [f"u = {u.format()}"])
    return 0


def _cmd_cayley_inv(args, inst):
    u = parse_element(args.expr, inst)
    l = unitgroup.cayley_inv(u)
    result = {"skew": l.format()}
    _emit(args, inst, "cayley-inv", result, [f"l = {l.format()}"])
    return 0


_ENUM_CAP = 50


def _cmd_enumerate(args, inst):
    budget = args.budget if args.budget is not None else inst.budget
    enum = cqstruct.enumerate_VFB(inst.fb, args.family, budget=budget)
    shown = min(enum.order, _ENUM_CAP)
    elements = [{"exponents": list(map(int, enum.exps[i])),
                 "element": enum.unit(i).format()} for i in range(shown)]
    result = {"family": args.family, "order": enum.order,
              "elements": elements, "truncated": enum.order > shown}
    _emit(args, inst, "enumerate", result,
          [f"|{args.family}(FB)| = {enum.order}",
           *(f"  {e['element']}" for e in elements[:10])])
    return 0


def _cmd_complement_search(args, inst):
    budget = args.budget if args.budget is not None else inst.budget
    res = cqstruct.complement_search_B_in_VstarFB(inst.fb, budget=budget)
    comps = []
    for c in res.complements:
        comps.append({
            "generators": c["hnf"].T.tolist(),  # rows are generators
            "order": c["order"],
            "witness_exponents": list(map(int, c["witness"])) if c["witness"] else None,
        })
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
    _emit(args, inst, "complement-search", result, lines)
    return 0


def _cmd_distinct_unit(args, inst):
    fb = inst.fb
    q = inst.q
    vals = np.ones(q, dtype=np.int64)
    vals[1] = fb.qdecomp.omega.code
    vals[q - 1] = inst.field.inv(vals[1])
    n = cqstruct.ProjVec(fb, vals)
    w = cqstruct.distinct_projection_unit(n, fb.qdecomp)
    result = {"n_projections": _projvec_list(inst, n),
              "w_projections": _projvec_list(inst, w),
              "w": w.to_unit().format(),
              "distinct": w.has_distinct_projections(),
              "unitary": w.is_unitary()}
    _emit(args, inst, "distinct-unit", result,
          [f"n = {tuple(result['n_projections'])}",
           f"w = {tuple(result['w_projections'])}  (distinct={result['distinct']})"])
    return 0


def _cmd_verify(args, inst):
    analysis = verifier.analyze(inst)
    result = {"analysis": analysis.as_dict()}
    lines = [f"branch: {analysis.branch}  (s={analysis.s}, m={analysis.m})"]
    if analysis.note:
        lines.append(analysis.note)
    if analysis.branch == "m_gt_1":
        rep = verifier.m_gt_1_no_complement(inst)
        result["m_gt_1"] = rep.as_dict()
        result["verdict"] = rep.verdict
        lines.append(f"verdict: {rep.verdict}")
    elif analysis.branch == "counting":
        cert = verifier.counting_certificate(inst)
        result["certificate"] = cert.as_dict()
        result["verdict"] = cert.verdict
        lines.append(f"L = {cert.L!r} > R = {cert.R!r}: {cert.counting_ok}")
        lines.append(f"verdict: {cert.verdict}")
    else:
        result["verdict"] = "TheoremSilent"
        lines.append("verdict: TheoremSilent (no claim)")
    _emit(args, inst, "verify", result, lines)
    return 0


def _cmd_certificate(args, inst):
    cert = verifier.counting_certificate(inst)
    result = cert.as_dict()
    lines = [
        f"dims: gamma={cert.gamma_dim}, S2={cert.s2_dim}, "
        f"C(b)={cert.centralizer_dim}, skew={cert.centralizer_skew_dim}",
        f"|Cl_b| = {cert.p}^{cert.class_length_exponent}, "
        f"|Cl*_b| = {cert.p}^{cert.starred_class_length_exponent}",
        f"L = {cert.L!r}, R = {cert.R!r}",
        f"|A| = {cert.a_order} > {cert.intermediate_bound}: {cert.intermediate_ok}",
        f"verdict: {cert.verdict}",
    ]
    _emit(args, inst, "certificate", result, lines)
    return 0


def _cmd_sample_disjoint(args, inst):
    alg = inst.algebra
    seed = args.seed if args.seed is not None else inst.seed
    trials = args.trials
    w = alg.basis(inst.group.b())
    rep = unitgroup.centralizer_in_gamma(alg, w)
    units = []
    for i in range(rep.kernel.dim):
        sk = alg.elem(rep.kernel.basis[i]).sym_skew_split()[1]
        if sk.is_zero():
            continue
        u = unitgroup.cayley(sk)
        if u not in units:
            units.append(u)
        if len(units) == 2:
            break
    if len(units) < 2:
        raise MathDomainError("could not derive two distinct centralizer units")
    ev = unitgroup.sample_disjoint_classes(alg, w, units[0], units[1],
                                           trials=trials, seed=seed)
    result = {"seed": ev.seed, "trials": ev.trials,
              "hits_v": ev.hits_v, "hits_vstar": ev.hits_vstar,
              "identical_pair_hit": ev.identical_pair_hit,
              "dim_c_w": ev.dim_c_w, "dim_c_wz1": ev.dim_c_wz1,
              "lower_bound_ok": ev.lower_bound_ok}
    _emit(args, inst, "sample-disjoint", result,
          [f"trials = {ev.trials} per family, hits: V={ev.hits_v}, V*={ev.hits_vstar}",
           f"dim C(w z1) = {ev.dim_c_wz1} <= dim C(w) = {ev.dim_c_w}: {ev.lower_bound_ok}"])
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="instance config file")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--budget", type=int, default=None,
                        help="enumeration budget override")
    common.add_argument("--seed", type=int, default=None, help="sampler seed override")

    parser = argparse.ArgumentParser(
        prog="cqunits",
        description="exact unit-group computations in F[A x| C_q]")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("idempotents", parents=[common]).set_defaults(fn=_cmd_idempotents)
    for name, fn in (("project", _cmd_project), ("classify", _cmd_classify),
                     ("bpoly", _cmd_bpoly), ("cayley", _cmd_cayley),
                     ("cayley-inv", _cmd_cayley_inv)):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("expr")
        sp.set_defaults(fn=fn)
    sub.add_parser("orbits", parents=[common]).set_defaults(fn=_cmd_orbits)
    sp = sub.add_parser("class-length", parents=[common])
    sp.add_argument("expr")
    sp.add_argument("--unitary", action="store_true",
                    help="also report the class length in the unitary subgroup")
    sp.set_defaults(fn=_cmd_class_length)
    sp = sub.add_parser("enumerate", parents=[common])
    sp.add_argument("family", choices=["V", "V+", "V*"])
    sp.set_defaults(fn=_cmd_enumerate)
    sub.add_parser("complement-search", parents=[common]).set_defaults(
        fn=_cmd_complement_search)
    sub.add_parser("distinct-unit", parents=[common]).set_defaults(fn=_cmd_distinct_unit)
    sub.add_parser("verify", parents=[common]).set_defaults(fn=_cmd_verify)
    sub.add_parser("certificate", parents=[common]).set_defaults(fn=_cmd_certificate)
    sp = sub.add_parser("sample-disjoint", parents=[common])
    sp.add_argument("--trials", type=int, default=1000, help="sampling trials per family")
    sp.set_defaults(fn=_cmd_sample_disjoint)
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
        return args.fn(args, inst)
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
