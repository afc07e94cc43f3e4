import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from cqunits import verifier
from cqunits.algebra import Subspace
from cqunits.cqstruct import complement_search_B_in_VstarFB
from cqunits.errors import (BranchMismatch, MathDomainError, NotFixedPointFree,
                            ParseError, QDoesNotDivide)
from cqunits.field import is_prime
from cqunits.verifier import (FactoredInt, Instance, analyze, counting_certificate,
                              m_gt_1_no_complement, make_instance)


def test_analyze_counting_branch(inst7):
    a = analyze(inst7)
    assert (a.s, a.m) == (2, 1)
    assert a.conditions == {"m_gt_1": False, "s_plus_1_ge_q": True,
                            "two_n_ge_f_q_minus_1": True}
    assert a.branch == "counting"
    assert "q = 3" in a.note  # flagged as directly evaluated for q = 3


def test_analyze_m_gt_1(inst19):
    a = analyze(inst19)
    assert a.m == 2 and a.branch == "m_gt_1"


def test_analyze_silent():
    # (11, 1, 5) with A = C_11^2: s + 1 = 3 < 5, so no branch applies
    inst = make_instance(11, 1, 5, [11, 11], [[3, 0], [0, 9]])
    a = analyze(inst)
    assert a.branch == "silent"
    assert not a.conditions["s_plus_1_ge_q"]


def test_analyze_counting_branch_is_where_both_inequalities_hold():
    # the arithmetic grid: odd primes p < 200 and q < 30 with q | p^f - 1
    # (f <= 4), m = 1 and s + 1 >= q, and n < 40 with ord_q(p) | n, the
    # degree a fixed-point-free sigma of order q on C_p^n needs.  analyze
    # reads only p, f, q, n, s and m, so it is given stand-ins, not fields.
    # Where 2n >= f(q-1), counting is picked and p^n > (sq)^((q-1)/2)/q - 1
    # (intermediate_ok) holds; everywhere else that inequality fails, so
    # (q-1) p^n > inner (counting_ok) alone is no certificate
    inside = outside = counting_alone = 0
    for p in filter(is_prime, range(3, 200)):
        for q in filter(is_prime, range(3, 30)):
            if q == p:
                continue
            d = next(k for k in range(1, q) if pow(p, k, q) == 1)
            for f in range(1, 5):
                order = p ** f - 1
                s = order // q
                if order % q or s % q == 0 or s + 1 < q:
                    continue
                inner = (s * q) ** ((q - 1) // 2) // q - 1
                for n in range(d, 40, d):
                    stand_in = SimpleNamespace(q=q, n=n, field=SimpleNamespace(p=p, f=f),
                                               qdecomp=SimpleNamespace(s=s, m=1))
                    counting = 2 * n >= f * (q - 1)
                    assert (analyze(stand_in).branch == "counting") == counting, (p, f, q, n)
                    assert (p ** n > inner) == counting, (p, f, q, n)
                    if counting:
                        inside += 1
                    else:
                        outside += 1
                        counting_alone += (q - 1) * p ** n > inner
    assert (inside, outside, counting_alone) == (5674, 1761, 41)


def test_instance_hypothesis_gate():
    with pytest.raises(QDoesNotDivide):
        make_instance(7, 1, 5, [7], [[2]])
    with pytest.raises(NotFixedPointFree):
        make_instance(31, 1, 5, [31, 31], [[16, 0], [0, 1]])


@pytest.mark.parametrize("key", ["seed", "budget"])
def test_instance_refuses_a_negative_seed_or_budget(key):
    # the library entry point refuses them, not only the CLI and the config parser
    with pytest.raises(ParseError, match=f"key '{key}' expects an integer >= 0, got -1"):
        make_instance(7, 1, 3, [7], [[2]], **{key: -1})
    assert getattr(make_instance(7, 1, 3, [7], [[2]], **{key: 0}), key) == 0


def test_certificate_c7(inst7):
    cert = counting_certificate(inst7)
    assert cert.gamma_dim == 18 and cert.s2_dim == 9
    assert cert.centralizer_dim == 6 and cert.centralizer_skew_dim == 3
    assert (cert.L.p, cert.L.exp, cert.L.cofactor) == (7, 9, 2)
    assert cert.L.value == 2 * 7 ** 9
    assert (cert.R.p, cert.R.exp, cert.R.cofactor) == (7, 8, 1)
    assert cert.R.value == 7 ** 8
    assert cert.a_order == 7 and cert.intermediate_bound == 1
    assert cert.intermediate_ok and cert.counting_ok
    assert all(cert.checks.values())
    assert cert.verdict == "NoNormalComplement"


@pytest.mark.parametrize("name, dims", [("c31sq", (2400, 960, 480)),
                                        ("c61sq", (9300, 3720, 1860)),
                                        ("gf81_c3e8", (16400, 6560, 3280)),
                                        ("gf25_c5sq", (36, 24, 12))])
def test_certificate_reads_block_dimensions(name, dims, config_instance, monkeypatch):
    # S2 and C(b) stay in block form, so the certificate writes down no rows;
    # dense rows of c61sq or gf81_c3e8 would take gigabytes
    def refuse(self):
        raise AssertionError("dense rows built")

    monkeypatch.setattr(Subspace, "_echelon", property(refuse))
    cert = counting_certificate(config_instance(name))
    assert (cert.s2_dim, cert.centralizer_dim, cert.centralizer_skew_dim) == dims
    assert all(cert.checks.values())
    assert cert.verdict == "NoNormalComplement"


def test_certificate_branch_mismatch(inst19):
    with pytest.raises(BranchMismatch):
        counting_certificate(inst19)


def test_certificate_refuses_low_n():
    # GF(49), q = 3, A = C_7: 2n = 2 < f(q-1) = 4
    inst = make_instance(7, 2, 3, [7], [[2]])
    a = analyze(inst)
    assert a.branch == "silent"
    with pytest.raises(BranchMismatch):
        counting_certificate(inst)


def test_m_gt_1_report(inst19):
    rep = m_gt_1_no_complement(inst19)
    assert rep.vstar_order == 18
    assert complement_search_B_in_VstarFB(inst19.fb).no_complement
    assert rep.structural_ok
    assert rep.verdict == "NoNormalComplement"


def test_m_gt_1_decides_beyond_the_budget(config_instance):
    # m > 1 enumerates nothing, so |V*| = 18 > budget = 10 is no refusal
    inst = config_instance("c19")
    inst.budget = 10
    rep = m_gt_1_no_complement(inst)
    assert rep.vstar_order == 18
    search = complement_search_B_in_VstarFB(inst.fb, budget=inst.budget)
    assert search.no_complement and not search.complements
    assert rep.structural_ok and rep.verdict == "NoNormalComplement"


@pytest.mark.parametrize("name", ["c19", "c197"])
def test_structural_scan_reads_circulant_products(name, config_instance, monkeypatch):
    # the check multiplies in FB: y^(q^(m-1)) = b and y y* = 1 hold, and a wrong
    # circulant product makes it fail and the verdict Inconclusive
    inst = config_instance(name)
    rep = m_gt_1_no_complement(inst)
    assert inst.qdecomp.m == 2 and rep.structural_ok and rep.verdict == "NoNormalComplement"
    fld = inst.fb.field
    mul = inst.fb.mul_coeffs
    monkeypatch.setattr(inst.fb, "mul_coeffs", lambda x, y: fld.vadd(mul(x, y), x))
    rep = m_gt_1_no_complement(inst)
    assert complement_search_B_in_VstarFB(inst.fb).no_complement and not rep.structural_ok
    assert rep.verdict == "Inconclusive"


def test_m_gt_1_branch_mismatch(inst7):
    with pytest.raises(BranchMismatch):
        m_gt_1_no_complement(inst7)


def test_factored_int_paths():
    x = FactoredInt(7, 9, 2)
    assert x.value == 2 * 7 ** 9
    assert x.recompute_slow() == x.value
    assert x.residues_agree()
    assert x.as_dict() == {"dec": str(2 * 7 ** 9), "p": 7, "exp": 9, "cofactor": 2}
    big = FactoredInt(31, 2400, 4)
    assert big.recompute_slow() == big.value
    assert str(big) == str(big.value) and len(str(big)) > 3500  # ~3600 decimal digits


def test_factored_int_negative_exponent_is_a_domain_error():
    # refused when built, before anything can expand p^-1 as a Decimal
    with pytest.raises(MathDomainError, match="exp >= 0"):
        FactoredInt(7, -1, 2)


def test_factored_int_recompute_at_large_exponent():
    # c43cube's L (C_43^3 x| C_7 over GF(43), s2_dim = 278271): the int
    # routes that the tests use as references agree at this size
    L = FactoredInt(43, 278271, 6)
    assert L.recompute_slow() == L.value
    assert FactoredInt(43, 0, 6).recompute_slow() == 6
    assert FactoredInt(43, 1, 6).recompute_slow() == 6 * 43


def test_q5_specialization_analysis():
    # q = 5, p = (s 5^m + 1) > 11, n >= 2: the hypotheses select a branch
    # p = 41 = 8*5 + 1: m = 1, s + 1 = 9 >= 5, 2n = 4 >= 4 -> counting
    inst41 = make_instance(41, 1, 5, [41, 41], [[10, 0], [0, 18]])
    assert analyze(inst41).branch == "counting"
    # p = 101 = 4*25 + 1: m = 2 -> q-height branch, and it really is empty
    inst101 = make_instance(101, 1, 5, [101, 101], [[36, 0], [0, 84]])
    a = analyze(inst101)
    assert a.branch == "m_gt_1" and a.m == 2
    rep = m_gt_1_no_complement(inst101)
    assert rep.vstar_order == 100 ** 2
    assert complement_search_B_in_VstarFB(inst101.fb).no_complement and rep.structural_ok
    assert rep.verdict == "NoNormalComplement"
    # p = 11 itself is excluded: s + 1 = 3 < 5
    assert analyze(make_instance(11, 1, 5, [11, 11], [[3, 0], [0, 9]])).branch == "silent"


def test_consistency_union_bound(inst7):
    # (q-1) |C_*(b)| |Cl*_b| = (q-1) |(1+gamma)_*| as exact integers
    cert = counting_certificate(inst7)
    q, p, f = cert.q, cert.p, cert.f
    c_star = p ** (f * cert.centralizer_skew_dim)
    cl_star = p ** cert.starred_class_length_exponent
    one_plus_gamma_star = p ** (f * cert.s2_dim)
    assert (q - 1) * c_star * cl_star == (q - 1) * one_plus_gamma_star


def test_to_decimal_lifts_and_restores_limit():
    # 31^3840 has 5727 digits, above str()'s default cap of 4300; the
    # Decimal route prints them and leaves the cap as it was
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError):
            str(31 ** 3840)
        dec = str(FactoredInt(31, 3840, 1))
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)
    assert len(dec) == 5727 and dec[-6:] == str(pow(31, 3840, 10 ** 6)).zfill(6)


def test_factored_int_beyond_decimal_limit():
    d = FactoredInt(31, 3840, 1).as_dict()
    assert (d["p"], d["exp"], d["cofactor"]) == (31, 3840, 1)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert d["dec"] == str(31 ** 3840) and len(d["dec"]) == 5727
    finally:
        sys.set_int_max_str_digits(before)


def test_factored_int_decimal_is_str_on_large_integers():
    # cofactor * 2^exp of the given bit lengths, and odd bases, digit for
    # digit against str() with the cap lifted
    rng = random.Random(20)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for bits in (1, 127, 128, 129, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 90_000, 166_000):
            k = min(bits, 40)
            for x in (FactoredInt(2, bits - 1, 1), FactoredInt(2, bits, 1),
                      FactoredInt(2, bits - k, rng.getrandbits(k) | 1 << (k - 1)),
                      FactoredInt(3, bits // 2, -1), FactoredInt(43, bits // 6, 6)):
                assert str(x) == str(x.value) and x.residues_agree()
        assert str(FactoredInt(43, 0, 6)) == "6" and str(FactoredInt(7, 5, 0)) == "0"
        assert str(FactoredInt(10, 50_000, 1)) == "1" + "0" * 50_000
    finally:
        sys.set_int_max_str_digits(before)


def test_factored_int_at_millions_of_digits():
    # L of C_31^4 x| C_5 over GF(31) (|G| = 4 617 605): 3.4 M digits, built
    # and printed without an int of that size
    start = time.perf_counter()
    x = FactoredInt(31, 2_308_800, 4)
    dec = str(x)
    assert x.residues_agree()
    assert time.perf_counter() - start < 5
    assert dec[-30:] == str(4 * pow(31, 2_308_800, 10 ** 30) % 10 ** 30).zfill(30)
    assert dec[0] != "0" and x.decimal.as_tuple().exponent == 0


def test_certificate_json_is_pinned(config_instance):
    # the c43cube report, byte for byte as the int routes printed it
    doc = json.dumps(counting_certificate(config_instance("c43cube")).as_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "3579e985b31325a458d973cfd04cfd876d3111148f18f54a83e7c2b2c0a68e30")


@pytest.mark.parametrize("name", ["c31sq", "c43cube"])
def test_certificate_L_from_R_power(name, config_instance):
    # L's Decimal is R's power times p^n times q - 1: equal to L built alone
    cert = counting_certificate(config_instance(name))
    L, R = cert.L, cert.R
    assert (L.p, L.exp, L.cofactor) == (R.p, R.exp + cert.n, cert.q - 1)
    assert L.decimal == FactoredInt(L.p, L.exp, L.cofactor).decimal


class _OffByOnePower:
    """verifier._EXACT with every power one too large, its calls counted."""

    def __init__(self, exact):
        self.exact, self.calls = exact, 0

    def power(self, a, b):
        self.calls += 1
        return self.exact.add(self.exact.power(a, b), 1)

    def __getattr__(self, name):
        return getattr(self.exact, name)


@pytest.mark.parametrize("name", ["c31sq", "c43cube"])
def test_certificate_shared_power_is_checked(name, config_instance, monkeypatch):
    # one power serves both sides, so a wrong one is seen by both int routes
    wrong = _OffByOnePower(verifier._EXACT)
    monkeypatch.setattr(verifier, "_EXACT", wrong)
    cert = counting_certificate(config_instance(name))
    assert wrong.calls == 1
    assert not cert.checks["L_recompute"] and not cert.checks["R_recompute"]
    assert cert.counting_ok and cert.verdict == "Inconclusive"


def _misreport(**change):
    """b's centralizer report with the named fields moved off their solved values."""
    def patch(monkeypatch, inst):
        rep = inst.b_centralizer
        wrong = replace(rep, **{k: move(getattr(rep, k)) for k, move in change.items()})
        monkeypatch.setattr(Instance, "b_centralizer", property(lambda self: wrong))
    return patch


def _off_by_one(cofactor):
    """The Decimal of the side with this cofactor one too large; on c7 L > R still holds."""
    def patch(monkeypatch, inst):
        exact = FactoredInt.decimal.func
        monkeypatch.setattr(FactoredInt, "decimal", property(
            lambda self: exact(self) + int(self.cofactor == cofactor)))
    return patch


# each certificate check, and a wrong route that only it can see (c7: L = 2*7^9, R = 7^8)
CHECK_BREAKERS = {
    "centralizer_dim_formula": _misreport(dim=lambda d: d + 2, skew_dim=lambda d: d + 1),
    "b_kernel_star_closed": _misreport(star_closed=lambda ok: False),
    "sqrt_law_for_b": _misreport(skew_dim=lambda d: d + 1),
    "L_recompute": _off_by_one(2),
    "R_recompute": _off_by_one(1),
}


@pytest.mark.parametrize("key", list(CHECK_BREAKERS))
def test_certificate_check_is_live(key, inst7, monkeypatch):
    CHECK_BREAKERS[key](monkeypatch, inst7)
    cert = counting_certificate(inst7)
    assert set(cert.checks) == set(CHECK_BREAKERS)
    assert [k for k, ok in cert.checks.items() if not ok] == [key]
    assert cert.counting_ok and cert.verdict == "Inconclusive"


def test_decision_disagreement_raises(inst7, monkeypatch):
    # negated Decimals reverse L > R against the factored decision
    exact = FactoredInt.decimal.func
    monkeypatch.setattr(FactoredInt, "decimal", property(lambda self: -exact(self)))
    with pytest.raises(MathDomainError, match="factored form"):
        counting_certificate(inst7)


def test_guards_raise_under_python_O():
    # result guards are raised errors, so `python -O` cannot skip them:
    # a wrong inverse makes cayley's unitarity check fail
    code = """
import numpy as np
from cqunits import GroupAlgebra, make_field, make_group
from cqunits.errors import MathDomainError
from cqunits.unitgroup import cayley, random_skew
assert False, "asserts are live"
f = make_field(7)
alg = GroupAlgebra(f, make_group(f, 3, [7], [[2]]))
l = random_skew(alg, np.random.default_rng(0))
alg.invert = lambda x: x  # then u = 2 (1 + l) - 1 = 1 + 2 l and u u* = 1 - 4 l^2
try:
    cayley(l)
except MathDomainError as e:
    print("raised", e.slug)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised domain-error"
