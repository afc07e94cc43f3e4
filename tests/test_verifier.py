import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqunits.algebra import GroupAlgebra
from cqunits.errors import (BranchMismatch, NotFixedPointFree, QDoesNotDivide)
from cqunits.verifier import (FactoredInt, analyze, counting_certificate,
                              m_gt_1_no_complement, make_instance, to_decimal)


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


def test_instance_hypothesis_gate():
    with pytest.raises(QDoesNotDivide):
        make_instance(7, 1, 5, [7], [[2]])
    with pytest.raises(NotFixedPointFree):
        make_instance(31, 1, 5, [31, 31], [[16, 0], [0, 1]])


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
                                        ("gf81_c3e8", (16400, 6560, 3280))])
def test_certificate_reads_block_dimensions(name, dims, config_instance, monkeypatch):
    # S2 and C(b) stay in block form, so the certificate writes down no rows;
    # dense rows of c61sq or gf81_c3e8 would take gigabytes
    def refuse(self, K):
        raise AssertionError("dense rows built")

    monkeypatch.setattr(GroupAlgebra, "gamma_expand", refuse)
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
    assert rep.search.no_complement
    assert rep.structural_ok
    assert rep.verdict == "NoNormalComplement"


def test_m_gt_1_branch_mismatch(inst7):
    with pytest.raises(BranchMismatch):
        m_gt_1_no_complement(inst7)


def test_factored_int_paths():
    x = FactoredInt(7, 9, 2)
    assert x.value == 2 * 7 ** 9
    assert x.recompute_slow() == x.value
    assert x.as_dict() == {"dec": str(2 * 7 ** 9), "p": 7, "exp": 9, "cofactor": 2}
    big = FactoredInt(31, 2400, 4)
    assert big.recompute_slow() == big.value
    assert len(str(big.value)) > 3500  # ~3600 decimal digits


def test_q5_specialization_analysis():
    # q = 5, p = (s 5^m + 1) > 11, n >= 2: the hypotheses select a branch
    # p = 41 = 8*5 + 1: m = 1, s + 1 = 9 >= 5, 2n = 4 >= 4 -> counting
    inst41 = make_instance(41, 1, 5, [41, 41], [[10, 0], [0, 18]])
    assert analyze(inst41).branch == "counting"
    # p = 101 = 4*25 + 1: m = 2 -> exhaustive branch, and it really is empty
    inst101 = make_instance(101, 1, 5, [101, 101], [[36, 0], [0, 84]])
    a = analyze(inst101)
    assert a.branch == "m_gt_1" and a.m == 2
    rep = m_gt_1_no_complement(inst101)
    assert rep.search.no_complement and rep.structural_ok
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
    before = sys.get_int_max_str_digits()
    big = 31 ** 3840  # 5727 digits, above the default cap of 4300
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError):
            str(big)
        dec = to_decimal(big)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)
    assert len(dec) == 5727 and dec[-6:] == str(big % 10 ** 6).zfill(6)


def test_factored_int_beyond_decimal_limit():
    d = FactoredInt(31, 3840, 1).as_dict()
    assert (d["p"], d["exp"], d["cofactor"]) == (31, 3840, 1)
    assert d["dec"] == to_decimal(31 ** 3840) and len(d["dec"]) == 5727


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
alg.invert = lambda x: alg.one()
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
