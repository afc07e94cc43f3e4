import json

import numpy as np
import pytest

from cqunits import cli, make_field, q_decompose
from cqunits.cqstruct import FBCtx, idempotents
from cqunits.errors import (BudgetExceeded, MathDomainError, NotPrime, QDoesNotDivide,
                            ReducibleModulus, ZeroInverse)
from cqunits.field import (FieldCtx, _is_irreducible, _poly_divmod, _poly_mul, _poly_powmod,
                           is_prime, power, prime_factors)
from conftest import CONFIGS
from oracles import (_divisors, galois_inverse, galois_is_irreducible,
                     galois_structure_tensor)


def brute_order(a, one):
    # independent oracle: direct powering
    k, acc = 1, a
    while acc != one:
        acc = acc * a
        k += 1
        assert k <= 10 ** 7
    return k


def test_make_field_7(f7):
    assert f7.zeta.code == 3
    assert f7.order == 6
    assert brute_order(f7.zeta, f7.one()) == 6


def test_make_field_11(f11):
    # 2 is the least primitive root mod 11
    assert f11.zeta.code == 2
    assert brute_order(f11.zeta, f11.one()) == 10


def test_reducible_modulus_rejected():
    # x^2 - 1 has roots mod 7
    with pytest.raises(ReducibleModulus):
        make_field(7, 2, [6, 0, 1])


def test_make_field_rejects():
    with pytest.raises(NotPrime):
        make_field(6)
    with pytest.raises(NotPrime):
        make_field(2)
    with pytest.raises(MathDomainError):
        make_field(7, 0)
    with pytest.raises(ReducibleModulus):
        make_field(7, 2, [1, 1])  # not degree 2


def test_field_ops_examples(f7, f11):
    three = f7.elem(3)
    assert three.inverse() == f7.elem(5)  # 3*5 = 15 = 1 mod 7
    assert f11.elem(2).order() == 10
    assert three ** 6 == f7.one()
    with pytest.raises(ZeroInverse):
        f7.zero().inverse()


def test_mixed_field_operands(f7, f11):
    from cqunits.errors import CtxMismatch
    with pytest.raises(CtxMismatch):
        f7.elem(1) + f11.elem(1)


def test_q_decompose_examples(f7, f19, f31):
    q = q_decompose(f7, 3)
    assert (q.s, q.m) == (2, 1)
    assert q.omega.code == 2 and f7.elem(2) ** 3 == f7.one()
    q19 = q_decompose(f19, 3)
    assert (q19.s, q19.m) == (2, 2)
    q31 = q_decompose(f31, 5)
    assert (q31.s, q31.m) == (6, 1)
    assert q31.eta.code == 26 and q31.eta.order() == 6


def test_q_decompose_rejects(f7):
    with pytest.raises(QDoesNotDivide):
        q_decompose(f7, 5)
    with pytest.raises(QDoesNotDivide):
        q_decompose(f7, 2)


def test_qdecomp_invariants(f7, f11, f13, f19, f31):
    for fld, q in ((f7, 3), (f11, 5), (f13, 3), (f19, 3), (f31, 5)):
        d = q_decompose(fld, q)
        assert fld.order == d.s * q ** d.m
        assert d.s % q != 0
        assert d.omega ** q == fld.one() and d.omega != fld.one()
        assert d.eta ** d.s == fld.one()
        if d.s > 1:
            assert d.eta.order() == d.s


def test_zeta_order_is_full(f7, f31, f49):
    for fld in (f7, f31, f49):
        assert fld.zeta.order() == fld.order
        # zeta^d != 1 for every proper divisor d
        import sympy
        for d in sympy.divisors(fld.order)[:-1]:
            assert fld.zeta ** d != fld.one()


def test_field_axioms_random(f7, f31, f49, rng):
    for fld in (f7, f31, f49):
        codes = rng.integers(0, fld.size, (1000, 3))
        for a_, b_, c_ in codes:
            a, b, c = fld.from_code(a_), fld.from_code(b_), fld.from_code(c_)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if a.code:
                assert a * a.inverse() == fld.one()


def test_extension_field_basics(f49):
    assert f49.size == 49
    assert _is_irreducible(list(f49.modulus), 7)
    z = f49.zeta
    assert z.order() == 48
    # Frobenius: (a + b)^7 = a^7 + b^7
    a, b = f49.from_code(13), f49.from_code(38)
    assert (a + b) ** 7 == a ** 7 + b ** 7


def test_power_takes_the_binary_method_products():
    # left-to-right: bit_length(e) - 1 squarings and popcount(e) - 1 other products
    m, x = 1_000_003, 123_457
    for e in range(1, 257):
        calls = []

        def mul(a, b):
            calls.append(1)
            return a * b % m

        assert power(x, e, mul) == pow(x, e, m)
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1
    with pytest.raises(MathDomainError):
        power(x, 0, mul)


def test_poly_powmod_matches_repeated_products():
    m = [1, 1, 0, 1]  # x^3 + x + 1, irreducible over Z_5
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = [int(c) for c in rng.integers(0, 5, 5)]
        acc = _poly_divmod(a, m, 5)[1]
        for e in range(1, 30):
            assert _poly_powmod(a, e, m, 5) == acc
            acc = _poly_divmod(_poly_mul(acc, a, 5), m, 5)[1]


@pytest.mark.parametrize("f", [1, 2])
def test_pow_at_zero_and_negative_exponents(f, monkeypatch):
    fld = make_field(7, f)
    calls = []
    mul = fld.mul

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(fld, "mul", counting_mul)
    assert all(fld.pow(a, 0) == 1 for a in range(fld.size))
    assert not calls  # x^0 takes no product
    for a in range(1, fld.size):
        for e in range(1, 9):
            assert fld.pow(a, -e) == fld.pow(fld.inv(a), e)
            assert mul(fld.pow(a, -e), fld.pow(a, e)) == 1


def test_vectorized_ops_match_scalar(f7, f49, rng):
    for fld in (f7, f49):
        a = rng.integers(0, fld.size, 200)
        b = rng.integers(0, fld.size, 200)
        va = fld.vadd(a, b)
        vm = fld.vmul(a, b)
        for i in range(200):
            assert va[i] == fld.add(int(a[i]), int(b[i]))
            assert vm[i] == fld.mul(int(a[i]), int(b[i]))


@pytest.mark.parametrize("p", [7, 31, 61, 197])
def test_division_free_reduction_matches_remainder(p, monkeypatch):
    # past _DIVISION_FREE_ENTRIES the f = 1 ops reduce as x - (x // p) p, in
    # chunks of _REDUCE_CHUNK entries, and below it by `%=`; on either side of
    # both gates they give `%`'s results, negative entries and kp - 1, kp,
    # kp + 1 included
    from cqunits import field as field_mod
    fld = make_field(p)
    gate = field_mod._DIVISION_FREE_ENTRIES
    monkeypatch.setattr(field_mod, "_REDUCE_CHUNK", 4 * gate)  # chunked at 4 gate + 1
    rng = np.random.default_rng(p)
    k = rng.integers(-3 * p, 3 * p, 64)
    edges = np.concatenate([k * p - 1, k * p, k * p + 1])
    for size in (gate - 1, gate, gate + 1, 4 * gate + 1, 3 * 4 * gate + 7):
        a = np.concatenate([edges, rng.integers(-p * p, p * p, size)])[:size]
        b = rng.permutation(a)
        assert a.min() < 0 < a.max()
        for got, want in ((fld.vadd(a, b), (a + b) % p), (fld.vsub(a, b), (a - b) % p),
                          (fld.vneg(a), (-a) % p), (fld.vmul(a, b), (a * b) % p),
                          (fld.mod_p(a.copy()), a % p)):
            assert got.shape == want.shape and np.array_equal(got, want)
        M = np.stack([a, b, -a])
        for axis in (0, 1):
            assert np.array_equal(fld.vsum(M, axis), M.sum(axis=axis) % p)
        for M2 in (np.stack([a, b]).T, np.asfortranarray(np.stack([a, b, b]).T)):
            assert np.array_equal(fld.mod_p(M2.copy(order="K")), M2 % p)
        scratch = np.empty_like(a)
        assert np.array_equal(fld.mod_p(a.copy(), scratch=scratch), a % p)
        x = a.copy()
        assert fld.mod_p(x) is x  # in place on either side of the gate
    assert fld.add(p - 1, 2) == 1 and fld.neg(3) == p - 3 and fld.mul(p - 1, p - 1) == 1
    # integers, numpy scalars and 0-d arrays reach mod_p as non-arrays (so does
    # the vsum of a 1-d array): reduced, and of the type `%` would give
    a = np.asarray(edges[:9])
    for x, y in ((p - 1, 2 * p + 3), (np.int64(-p - 1), np.int64(3 * p - 1)),
                 (np.asarray(-2 * p + 1), np.asarray(p * p + 4))):
        for got, want in ((fld.vadd(x, y), (x + y) % p), (fld.vsub(x, y), (x - y) % p),
                          (fld.vneg(x), (-np.asarray(x)) % p),
                          (fld.vmul(x, y), (np.int64(x) * np.int64(y)) % p),
                          (fld.mod_p(np.int64(x)), np.int64(x) % p),
                          (fld.vsum(a, 0), a.sum() % p)):
            assert type(got) is type(want) and not isinstance(got, np.ndarray)
            assert got == want and 0 <= got < p


def test_field_refuses_p_whose_products_overflow_int64():
    # (p-1)^2 must fit in int64: over GF(4294967311) an int64 vmul(p-1, p-1)
    # wrapped to 4294967087 and the FB idempotents read as not idempotent
    for p in (3037000507, 4294967311):  # p - 1 past 3037000499
        with pytest.raises(BudgetExceeded, match="3037000499"):
            FieldCtx(p)
    for p in (4000000000, 4294967313):  # past the bound, but the input is wrong first
        with pytest.raises(NotPrime):
            FieldCtx(p)
    fld = make_field(3037000493)  # the largest prime admitted
    x = np.full(3, fld.p - 1)
    assert np.array_equal(fld.vmul(x, x), [1, 1, 1]) and fld.vmul(fld.p - 1, fld.p - 2) == 2
    fld = make_field(3037000391)  # the largest admitted with 5 | p - 1
    assert all(idempotents(FBCtx(fld, 5)).verify().values())


def test_irreducibility_high_degree():
    # full test path (degree > 3)
    f = make_field(3, 5)
    assert f.size == 243
    assert f.zeta.order() == 242


def test_no_irreducible_modulus_is_an_error(monkeypatch):
    # the search for a default modulus raises rather than asserts
    monkeypatch.setattr("cqunits.field._is_irreducible", lambda poly, p: False)
    with pytest.raises(MathDomainError, match="no monic irreducible of degree 2"):
        make_field(7, 2)


def gauss_count(p, f):
    # monic irreducibles of degree f over Z_p: (1/f) sum_{d | f} mu(d) p^(f/d)
    import sympy
    return sum(sympy.mobius(d) * p ** (f // d) for d in sympy.divisors(f)) // f


def test_default_moduli_zeta_and_inverses_pinned():
    # the default modulus is the smallest irreducible one and zeta the first
    # primitive code: every field code a report prints depends on both
    for (p, f), modulus, zeta in (((7, 2), (1, 0, 1), 9), ((3, 4), (2, 1, 0, 0, 1), 3),
                                  ((5, 3), (1, 1, 0, 1), 9), ((31, 2), (1, 0, 1), 35)):
        fld = make_field(p, f)
        assert fld.modulus == modulus and fld.zeta.code == zeta
        for a in range(1, fld.size):
            assert fld.mul(a, fld.inv(a)) == 1
    for (p, f), expected in (((3, 4), 18), ((5, 3), 40), ((7, 2), 21), ((3, 5), 48)):
        found = sum(_is_irreducible([(c // p ** j) % p for j in range(f)] + [1], p)
                    for c in range(p ** f))
        assert found == gauss_count(p, f) == expected


def test_irreducibility_edge_cases():
    assert not _is_irreducible([3], 7)  # constants are not irreducible
    assert not _is_irreducible([0, 0, 0], 7)
    assert _is_irreducible([5, 1], 7)  # every linear polynomial is
    assert _is_irreducible([1, 0, 1, 0, 0], 7)  # trailing zeros are trimmed


def test_field_ctx_checks_its_modulus():
    # x^2 - 1 = (x - 1)(x + 1): built directly it used to hand out the zero
    # divisor 1 + x as zeta, with a reported order of 48
    with pytest.raises(ReducibleModulus, match="reducible"):
        FieldCtx(7, 2, (6, 0, 1))
    with pytest.raises(ReducibleModulus, match="monic of degree 2"):
        FieldCtx(7, 2, (1, 1))
    with pytest.raises(ReducibleModulus, match="monic of degree 2"):
        FieldCtx(7, 2, (1, 0, 2))
    with pytest.raises(NotPrime):
        FieldCtx(9, 1, (0, 1))
    with pytest.raises(MathDomainError, match="f must be >= 1"):
        FieldCtx(7, 0, (1,))
    fld = FieldCtx(7, 2, (1, 0, 1))
    assert fld.signature == make_field(7, 2).signature
    assert fld.zeta == make_field(7, 2).zeta
    assert brute_order(fld.zeta, fld.one()) == fld.zeta.order() == 48


def test_zero_divisor_has_no_inverse():
    # the constructor refuses a reducible modulus, so inv's gcd check is
    # reached by swapping one into a built field: x^2 - 1 = (x - 1)(x + 1)
    fld = make_field(7, 2)
    fld.modulus = (6, 0, 1)
    with pytest.raises(ZeroInverse, match="element is not invertible"):
        fld.inv(13)  # the code of x - 1
    assert fld.inv(2) == 4  # a nonzero constant still inverts


def test_from_coeffs_rejects_too_many_coefficients(f7, f49):
    # more than f coefficients used to give a code outside [0, p^f)
    for fld in (f7, f49):
        with pytest.raises(MathDomainError, match="at most"):
            fld.from_coeffs([1, 2, 3])
        with pytest.raises(MathDomainError, match="at most"):
            fld.elem([1, 2, 3])
    assert f49.elem([1, 2]).code == 15 and f49.elem([3]).code == 3
    assert f7.elem([4]).code == 4


@pytest.mark.parametrize("p,f", [(7, 2), (3, 4), (5, 3), (31, 2)])
def test_vmul_log_tables_match_tensor(p, f):
    # every pair of elements, zero included, against the structure-tensor einsum
    fld = make_field(p, f)
    a = np.arange(fld.size)
    assert fld._logs is None  # built on the first product, not with the field
    got = fld.vmul(a[:, None], a[None, :])
    assert np.array_equal(got, fld._vmul_tensor(a[:, None], a[None, :]))
    assert not got[0].any() and not got[:, 0].any()


def test_vmul_above_log_table_limit_uses_tensor(monkeypatch):
    from cqunits import field as F
    monkeypatch.setattr(F, "_LOG_TABLE_LIMIT", 48)
    fld = make_field(7, 2)
    a = np.arange(fld.size)
    assert np.array_equal(fld.vmul(a, a[::-1]), fld._vmul_tensor(a, a[::-1]))
    assert fld._logs is None


# --- GF(p)[x] helpers against sympy's galoistools ----------------------------


def test_irreducibility_matches_galoistools():
    # every monic polynomial of degree 0-5 over Z_3 and Z_5, <= 3 over Z_7 and Z_11
    checked = 0
    for p, top in ((3, 5), (5, 5), (7, 3), (11, 3)):
        for d in range(top + 1):
            for c in range(p ** d):
                poly = [(c // p ** j) % p for j in range(d)] + [1]
                assert _is_irreducible(poly, p) == galois_is_irreducible(poly, p), (p, poly)
                checked += 1
    assert checked == 6134


def test_structure_tensor_matches_galoistools():
    fields = [cli.parse_config(path.read_text()).field for path in sorted(CONFIGS.glob("*.cfg"))]
    fields = [fld for fld in fields if fld.f > 1] + [make_field(3, 5), make_field(3, 8)]
    assert [(fld.p, fld.f) for fld in fields] == [(5, 2), (7, 2), (7, 2), (3, 4), (3, 5), (3, 8)]
    for fld in fields:
        assert np.array_equal(fld._tensor, galois_structure_tensor(fld)), fld


@pytest.mark.parametrize("p,f", [(7, 2), (3, 4), (5, 3), (31, 2)])
def test_inverse_matches_galoistools(p, f):
    fld = make_field(p, f)
    for a in range(1, fld.size):
        assert fld.inv(a) == galois_inverse(fld, a), a


# --- integer helpers against sympy -------------------------------------------


def test_integer_helpers_match_sympy():
    import sympy
    orders = [cli.parse_config(path.read_text()).field.order
              for path in sorted(CONFIGS.glob("*.cfg"))]
    assert 42 in orders and 80 in orders  # c43cube, gf81_c3e8
    extra = [10009, 999983, 3 ** 4 - 1, 3 ** 8 - 1, 7 ** 2 - 1] + orders
    for n in list(range(1, 5001)) + extra:
        assert is_prime(n) == sympy.isprime(n), n
        assert prime_factors(n) == tuple(sorted(sympy.factorint(n))), n
        assert _divisors(n) == [int(d) for d in sympy.divisors(n)], n
    assert not is_prime(0) and not is_prime(-7)


@pytest.mark.parametrize("p, q, slug, message", [
    (6, 3, "not-prime", "p = 6 is not prime"),
    (2, 3, "not-prime", "p = 2 is rejected: odd characteristic is assumed throughout"),
    (7, 2, "q-does-not-divide", "q = 2 must be an odd prime"),
    (7, 9, "q-does-not-divide", "q = 9 must be an odd prime"),
    (7, 1, "q-does-not-divide", "q = 1 must be an odd prime"),
])
def test_prime_rejections_keep_errors_and_exits(tmp_path, capsys, p, q, slug, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"p={p}\nf=1\nq={q}\nA=7\naction=2\n")
    assert cli.main(["verify", "--config", str(path), "--json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": {"code": slug, "exit": 1, "message": message}}
