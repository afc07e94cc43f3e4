import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import cqunits
from cqunits import cli
from cqunits.cli import main, parse_config, parse_element
from cqunits.errors import ParseError

C7_CFG = "p=7\nf=1\nq=3\nA=7\naction=2\n"
F11_CFG = "p=11\nf=1\nq=5\nA=11\naction=3\n"


@pytest.fixture()
def c7_path(tmp_path):
    path = tmp_path / "c7.cfg"
    path.write_text(C7_CFG)
    return str(path)


@pytest.fixture()
def f11_path(tmp_path):
    path = tmp_path / "f11c5.cfg"
    path.write_text(F11_CFG)
    return str(path)


# --- config parsing -----------------------------------------------------------


def test_parse_config_roundtrip():
    inst = parse_config(C7_CFG)
    assert (inst.field.p, inst.field.f, inst.q) == (7, 1, 3)
    assert inst.group.order == 21


def test_parse_config_comments_and_spacing():
    inst = parse_config("# comment\n p = 7 \nf=1\nq=3\nA=7\naction=2 # trailing\n")
    assert inst.field.p == 7


def test_parse_config_errors():
    with pytest.raises(ParseError) as ei:
        parse_config("p=7\nq=3\n")
    assert "missing" in str(ei.value)
    with pytest.raises(ParseError) as ei:
        parse_config("p=7\nbogus=1\n")
    assert ei.value.line == 2
    with pytest.raises(ParseError):
        parse_config("p=7\np=11\nf=1\nq=3\nA=7\naction=2\n")
    with pytest.raises(ParseError):
        parse_config("p seven\n")


def test_parse_config_hypothesis_violation_exit(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("p=7\nf=1\nq=5\nA=7\naction=2\n")
    code = main(["verify", "--config", str(path)])
    assert code == 1
    assert "q-does-not-divide" in capsys.readouterr().err


@pytest.mark.parametrize("A, action, slug", [("0", "2", "not-prime"),  # once a hang
                                             ("7,7", "2,0;0", "not-automorphism")])
def test_malformed_group_exits_1(tmp_path, capsys, deadline, A, action, slug):
    path = tmp_path / "bad.cfg"
    path.write_text(f"p=7\nf=1\nq=3\nA={A}\naction={action}\n")
    assert main(["verify", "--config", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["code"] == slug


# --- element expressions --------------------------------------------------------


def test_parse_element_examples():
    inst = parse_config(F11_CFG)
    u = parse_element("2*b + 3*b^2 + 8*b^3 + 10*b^4", inst)
    assert u.rho_coeffs().tolist() == [0, 2, 3, 8, 10]
    inst7 = parse_config(C7_CFG)
    x = parse_element("1 - a1", inst7)
    assert x.augmentation().is_zero()
    assert parse_element("b^0", inst7) == inst7.algebra.one()
    assert parse_element("b^-1", inst7) == inst7.algebra.basis(inst7.group.b(2))
    assert parse_element("-b", inst7) == -inst7.algebra.basis(inst7.group.b())
    assert parse_element("a1^2*b", inst7) == inst7.algebra.basis(
        inst7.group.elem([2], 1))
    assert parse_element("-3", inst7) == inst7.algebra.scalar(-3)


def test_parse_element_syntax_errors():
    inst = parse_config(C7_CFG)
    for text in ("2*b + + 3", "b^", "2*", "[1,2", "b b", "a", "@"):
        with pytest.raises(ParseError):
            parse_element(text, inst)


# input -> the element it gives, by its printed form, or the exact ParseError text
PARSE_EDGE_CASES = [
    ("1^2*b", "b"),  # a bare '1' before '^' is the identity generator
    ("2*1", "2"),
    ("1^-1", "1"),
    ("2 * a1 ^ 3", "2*a1^3"),
    ("a1^2*b*1", "a1^2*b"),
    ("b*2", "unexpected trailing input '*' at line 1, column 2"),
    ("a1*[", "unexpected trailing input '*' at line 1, column 3"),
    (" 101+[a2-", "expected 'int', got '2' at line 1, column 7"),  # a<k> sits at its 'a'
    ("--b", "expected a generator, got '-' at line 1, column 2"),
    ("[]", "expected 'int', got ']' at line 1, column 2"),
    ("b^-1^2", "unexpected trailing input '^' at line 1, column 5"),
    ("  @", "unexpected character '@' at line 1, column 3"),
    ("", "expected a generator, got '' at line 1, column 1"),
]


@pytest.mark.parametrize("text, expected", PARSE_EDGE_CASES)
def test_parse_element_edge_cases(text, expected):
    inst = parse_config(C7_CFG)
    if "line 1" not in expected:
        assert parse_element(text, inst).format() == expected
        return
    with pytest.raises(ParseError) as ei:
        parse_element(text, inst)
    assert str(ei.value) == expected


def test_parse_element_semantic_errors():
    from cqunits.cli import ExprSemanticError
    inst = parse_config(C7_CFG)
    with pytest.raises(ExprSemanticError):
        parse_element("a2", inst)  # only one invariant factor
    with pytest.raises(ExprSemanticError):
        parse_element("[1,2]*b", inst)  # bracket longer than f = 1


def test_parse_element_extension_field():
    inst = parse_config("p=7\nf=2\nq=3\nA=7\naction=2\n")
    x = parse_element("[2,1]*a1 + b", inst)
    assert x.coeffs[inst.group.elem([1], 0).idx] == inst.field.from_coeffs([2, 1]).code


def test_parse_print_roundtrip_random():
    inst = parse_config(C7_CFG)
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = inst.algebra.elem(rng.integers(0, 7, 21))
        assert parse_element(x.format(), inst) == x


# --- subcommands ------------------------------------------------------------------


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cmd_idempotents(capsys, c7_path):
    code, doc = run_json(capsys, ["idempotents", "--config", c7_path])
    assert code == 0
    assert doc["command"] == "idempotents"
    assert doc["result"]["idempotents"] == [
        "5 + 5*b + 5*b^2", "5 + 6*b + 3*b^2", "5 + 3*b + 6*b^2"]
    assert all(doc["result"]["checks"].values())
    assert doc["instance"]["omega"] == 2


def test_cmd_project_paper_unit(capsys, f11_path):
    code, doc = run_json(capsys, ["project", "2*b+3*b^2+8*b^3+10*b^4",
                                  "--config", f11_path])
    assert code == 0
    assert doc["result"]["projections"] == [1, 4, 9, 5, 3]


def test_cmd_classify_and_bpoly(capsys, f11_path):
    code, doc = run_json(capsys, ["classify", "2*b+3*b^2+8*b^3+10*b^4",
                                  "--config", f11_path])
    assert code == 0
    assert doc["result"]["is_unitary"] and doc["result"]["order"] == 5
    code, doc = run_json(capsys, ["bpoly", "2*b+3*b^2+8*b^3+10*b^4",
                                  "--config", f11_path])
    assert code == 0
    assert doc["result"]["coefficients"] == [0, 2, 3, 8, 10]
    assert doc["result"]["u_equals_p_of_b"] is True


def test_cmd_certificate_json(capsys, c7_path):
    code, doc = run_json(capsys, ["certificate", "--config", c7_path])
    assert code == 0
    res = doc["result"]
    assert res["L"] == {"dec": str(2 * 7 ** 9), "p": 7, "exp": 9, "cofactor": 2}
    assert res["R"] == {"dec": str(7 ** 8), "p": 7, "exp": 8, "cofactor": 1}
    assert res["verdict"] == "NoNormalComplement"


def test_cmd_verify_branches(capsys, tmp_path, c7_path):
    code, doc = run_json(capsys, ["verify", "--config", c7_path])
    assert code == 0 and doc["result"]["verdict"] == "NoNormalComplement"
    p19 = tmp_path / "c19.cfg"
    p19.write_text("p=19\nf=1\nq=3\nA=19\naction=7\n")
    code, doc = run_json(capsys, ["verify", "--config", str(p19)])
    assert code == 0 and doc["result"]["verdict"] == "NoNormalComplement"
    silent = tmp_path / "silent.cfg"
    silent.write_text("p=11\nf=1\nq=5\nA=11,11\naction=3,0;0,9\n")
    code, doc = run_json(capsys, ["verify", "--config", str(silent)])
    assert code == 0 and doc["result"]["verdict"] == "TheoremSilent"


def test_cmd_enumerate_and_budget(capsys, f11_path):
    code, doc = run_json(capsys, ["enumerate", "V*", "--config", f11_path])
    assert code == 0 and doc["result"]["order"] == 100
    code = main(["enumerate", "V", "--config", f11_path, "--budget", "100", "--json"])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["code"] == "budget-exceeded"


def test_cmd_class_length(capsys, c7_path):
    code, doc = run_json(capsys, ["class-length", "b", "--unitary",
                                  "--config", c7_path])
    assert code == 0
    assert doc["result"]["class_length"] == {"p": 7, "exp": 12, "dec": str(7 ** 12)}
    assert doc["result"]["starred_class_length"]["exp"] == 6


def test_class_length_gf49_c7cube_matches_its_gf7_twin(capsys, tmp_path):
    # the commutator of b + a1 has GF(7) entries, so its kernel keeps its
    # dimension over GF(7^2); the gf49 rref crosses batch boundaries
    cube = CONFIG_DIR / "gf49_c7cube.cfg"
    twin = tmp_path / "c7cube.cfg"
    twin.write_text(cube.read_text().replace("f = 2", "f = 1"))
    results = []
    for path in (cube, twin):
        code, doc = run_json(capsys, ["class-length", "b + a1", "--config", str(path)])
        assert code == 0
        results.append(doc["result"])
    assert [r["centralizer_dim"] for r in results] == [342, 342]
    assert [r["class_length"]["exp"] for r in results] == [1368, 684]  # f (1026 - 342)
    assert results[0]["sym_dim"] == results[1]["sym_dim"]
    assert results[0]["skew_dim"] == results[1]["skew_dim"]


def test_cmd_cayley_roundtrip(capsys, c7_path):
    code, doc = run_json(capsys, ["cayley", "4*a1 - 4*a1^6", "--config", c7_path])
    assert code == 0
    unit_text = doc["result"]["unit"]
    code, doc2 = run_json(capsys, ["cayley-inv", unit_text, "--config", c7_path])
    assert code == 0
    inst = parse_config(C7_CFG)
    assert parse_element(doc2["result"]["skew"], inst) == parse_element(
        "4*a1 - 4*a1^6", inst)


def test_cmd_distinct_unit(capsys, tmp_path):
    p31 = tmp_path / "c31.cfg"
    p31.write_text("p=31\nf=1\nq=5\nA=31,31\naction=16,0;0,8\n")
    code, doc = run_json(capsys, ["distinct-unit", "--config", str(p31)])
    assert code == 0
    w = doc["result"]["w_projections"]
    assert w == [1, 16, 26, 6, 2]
    # distinct, and unitary: u_j u_(q-j) = 1 in GF(31)
    assert len(set(w)) == 5
    assert all(w[j] * w[-j] % 31 == 1 for j in range(5))


def test_cmd_sample_disjoint(capsys, c7_path):
    code, doc = run_json(capsys, ["sample-disjoint", "--config", c7_path,
                                  "--trials", "50", "--seed", "7"])
    assert code == 0
    res = doc["result"]
    assert res["hits_v"] == 0 and res["hits_vstar"] == 0
    assert res["lower_bound_ok"]


def test_sample_disjoint_solves_b_centralizer_once(capsys, c7_path, monkeypatch):
    # C(b) is solved once, for the instance, and handed to the sampler as w's
    # report: two solves (b, w z1), and the same JSON as the sampler solving C(w)
    from cqunits import unitgroup, verifier
    solved = []
    solve = unitgroup.centralizer_in_gamma

    def counting_solve(alg, x):
        solved.append(x)
        return solve(alg, x)

    monkeypatch.setattr(unitgroup, "centralizer_in_gamma", counting_solve)
    monkeypatch.setattr(verifier, "centralizer_in_gamma", counting_solve)
    argv = ["sample-disjoint", "--config", c7_path, "--trials", "20", "--seed", "7"]
    code, doc = run_json(capsys, argv)
    assert code == 0 and len(solved) == 2
    b = solved[0]
    assert b.format() == "b" and solved[1] != b
    sample = unitgroup.sample_disjoint_classes
    monkeypatch.setattr(unitgroup, "sample_disjoint_classes",
                        lambda *a, report, **kw: sample(*a, **kw))
    solved.clear()
    assert run_json(capsys, argv) == (0, doc) and len(solved) == 3


def test_trials_belongs_to_sample_disjoint(capsys, c7_path):
    # the other subcommands have no --trials, so argparse rejects it (exit 2)
    with pytest.raises(SystemExit) as exc:
        main(["cayley", "4*a1 - 4*a1^6", "--config", c7_path, "--trials", "5"])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_negative_trials_is_a_usage_error(capsys, tmp_path, c7_path):
    # --trials, --seed and --budget take one non-negative int type
    for flag in ("--trials", "--seed", "--budget"):
        with pytest.raises(SystemExit) as exc:
            main(["sample-disjoint", "--config", c7_path, "--trials", "1", flag, "-5"])
        assert exc.value.code == 2
        assert f"argument {flag}: expected an integer >= 0, got -5" in capsys.readouterr().err
    # the config keys too: a parse error, not numpy's ValueError (exit 5) or exit 4
    for key in ("seed", "budget"):
        path = tmp_path / f"{key}.cfg"
        path.write_text(C7_CFG + f"{key} = -3\n")
        assert main(["sample-disjoint", "--trials", "1", "--config", str(path), "--json"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == "parse-error"
        assert f"key {key!r} expects an integer >= 0, got -3" in err["message"]


@pytest.mark.parametrize("argv", [["classify", "2*b+3*b^2+8*b^3+10*b^4"], ["verify"],
                                  ["sample-disjoint", "--trials", "20", "--seed", "5"]])
def test_handler_returns_what_main_emits(capsys, f11_path, argv):
    # a handler prints nothing; main emits its result and text lines once
    args = cli.build_parser().parse_args(argv + ["--config", f11_path])
    inst = parse_config(F11_CFG)
    inst.seed = 5  # main writes --seed 5 into the instance
    result, lines = args.fn(args, inst)
    assert capsys.readouterr() == ("", "")
    code, doc = run_json(capsys, argv + ["--config", f11_path])
    assert code == 0 and doc["result"] == json.loads(json.dumps(result))
    assert main(argv + ["--config", f11_path]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == lines


def test_json_byte_stable(capsys, c7_path):
    main(["certificate", "--config", c7_path, "--json"])
    first = capsys.readouterr().out
    main(["certificate", "--config", c7_path, "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_exit_codes_partition(capsys, c7_path, tmp_path):
    # parse error -> 2
    assert main(["project", "2*b + + 3", "--config", c7_path]) == 2
    # semantic error -> 3
    assert main(["project", "a9", "--config", c7_path]) == 3
    # domain error -> 3 (cayley of a non-skew element)
    assert main(["cayley", "a1", "--config", c7_path]) == 3
    # missing config file -> 2
    assert main(["orbits", "--config", str(tmp_path / "nope.cfg")]) == 2
    capsys.readouterr()


def test_internal_error_exit(capsys, monkeypatch, c7_path):
    # a crash that is not a ToolkitError gets its own exit code, not 1
    def broken(args, inst):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_orbits", broken)
    assert main(["orbits", "--config", c7_path, "--json"]) == 5
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err
    body = json.loads(err.strip().splitlines()[-1])
    assert body == {"error": {"code": "internal-error", "exit": 5,
                              "message": "RuntimeError: boom"}}
    assert main(["orbits", "--config", c7_path]) == 5
    assert "error[internal-error]: RuntimeError: boom" in capsys.readouterr().err


# --- the runtime needs no sympy -----------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
NO_SYMPY_RUNS = [["certificate", "c31sq"], ["certificate", "c61sq"],
                 ["verify", "c7"], ["verify", "f11c5"], ["verify", "c19"],
                 ["complement-search", "c7"], ["complement-search", "f11c5"],
                 ["complement-search", "c31sq"],
                 ["verify", "gf49"], ["certificate", "gf49"], ["complement-search", "gf49"],
                 ["class-length", "gf49", "b + a1"], ["cayley", "gf49", "a1 - a1^6"],
                 ["project", "gf49", "[0,1]*b + [2,3]*a1"], ["enumerate", "gf49", "V*"],
                 ["certificate", "gf81_c3e8"]]

# Builds c31sq's and gf49's algebras in a fresh interpreter, checks that sympy
# was never imported, then blocks it (`import sympy` raises ImportError) and
# runs the commands; prints one [exit code, stdout] pair per run as JSON.
NO_SYMPY_SCRIPT = """
import contextlib, io, json, sys
from cqunits import cli
configs, runs = sys.argv[1], json.loads(sys.argv[2])
for name in ("c31sq", "gf49"):
    cli.parse_config(open(f"{configs}/{name}.cfg").read()).algebra
    assert "sympy" not in sys.modules, f"building {name} imported sympy"
sys.modules["sympy"] = None
out = []
for command, name, *expr in runs:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([command, *expr, "--config", f"{configs}/{name}.cfg", "--json"])
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def test_runtime_needs_no_sympy(capsys):
    src = str(Path(cqunits.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_SCRIPT, str(CONFIG_DIR), json.dumps(NO_SYMPY_RUNS)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert len(blocked) == len(NO_SYMPY_RUNS)
    for (command, name, *expr), (code, out) in zip(NO_SYMPY_RUNS, blocked):
        expected = main([command, *expr, "--config", str(CONFIG_DIR / f"{name}.cfg"), "--json"])
        assert (code, out) == (expected, capsys.readouterr().out), (command, name)


@pytest.mark.parametrize("name", ["c19", "c197"])
def test_m_gt_1_verify_builds_no_group_algebra(monkeypatch, capsys, name):
    # the q-height verdict reads only FB, which the instance holds on its own
    built = []

    def parse_and_keep(text):
        built.append(parse_config(text))
        return built[-1]

    monkeypatch.setattr(cli, "parse_config", parse_and_keep)
    code, doc = run_json(capsys, ["verify", "--config", str(CONFIG_DIR / f"{name}.cfg")])
    assert code == 0 and doc["result"]["verdict"] == "NoNormalComplement"
    assert "fb" in built[0].__dict__ and "algebra" not in built[0].__dict__
    assert built[0].algebra.fb is built[0].fb


def test_verify_c197_decides_m_gt_1_without_enumerating(capsys):
    # |V*(FB)| = 196^3; the q-height decision enumerates no subgroup
    t0 = time.perf_counter()
    code, doc = run_json(capsys, ["verify", "--config", str(CONFIG_DIR / "c197.cfg")])
    elapsed = time.perf_counter() - t0
    assert code == 0 and doc["result"]["verdict"] == "NoNormalComplement"
    rep = doc["result"]["m_gt_1"]
    assert rep["m"] == 2 and rep["vstar_order"] == 196 ** 3
    assert rep["structural_scan_ok"] is True
    assert elapsed < 2.0, f"verify on c197 took {elapsed:.2f} s"
