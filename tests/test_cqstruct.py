import itertools
import math

import numpy as np
import pytest

from cqunits import _linalg, make_field
from cqunits.algebra import AlgElem
from cqunits.cqstruct import (FBCtx, FBElem, ProjVec, b_polynomial, b_exponent_coords,
                              classify_unit, complement_search_B_in_VstarFB,
                              distinct_projection_unit, enumerate_VFB,
                              from_projections, idempotents,
                              order_q_subgroups_in_cyclic_qm, projections)
from cqunits.errors import (BudgetExceeded, HypothesisFail, MathDomainError,
                            NotAUnit, QDoesNotDivide, RepeatedProjections)

import oracles
from oracles import (hall_2prime_decomposition, hnf_elements, span_dimension,
                     subgroups_of_order)


@pytest.fixture(scope="module")
def fb7(f7):
    return FBCtx(f7, 3)


@pytest.mark.parametrize("name", ["c7", "f11c5", "gf49"])
def test_fb_product_is_rho_of_fg_product(name, config_instance):
    # the circulant product in FB against the FG product of the lifts
    alg = config_instance(name).algebra
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = (FBElem(alg.fb, rng.integers(0, alg.field.size, alg.q)) for _ in range(2))
        assert np.array_equal((x * y).coeffs, (x.lift(alg) * y.lift(alg)).rho_coeffs())


@pytest.mark.parametrize("name", ["c7", "c19", "f11c5", "gf49", "c31sq"])
def test_fb_format_is_the_lift_and_parses_back(name, config_instance):
    # FB text must be FG text: the same coefficients, read back by the parser
    from cqunits.cli import parse_element
    inst = config_instance(name)
    alg = inst.algebra
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = inst.fb.elem(rng.integers(0, alg.field.size, alg.q))
        assert u.format() == alg.from_b_coeffs(u.coeffs).format()
        assert np.array_equal(parse_element(u.format(), inst).rho_coeffs(), u.coeffs)


@pytest.mark.parametrize("name", ["c7", "f11c5", "gf49"])
def test_fb_inverse_matches_projections(name, config_instance):
    # the circulant solve against inverting each projection
    fb = config_instance(name).fb
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = fb.elem(rng.integers(0, fb.field.size, fb.q))
        pv = projections(u)
        if not pv.is_unit():
            with pytest.raises(NotAUnit):
                u.inverse()
            continue
        assert u.inverse() == from_projections(pv.inverse())
        assert u * u.inverse() == fb.one() and u ** -2 == (u * u).inverse()


@pytest.mark.parametrize("p, q", [(7, 3), (11, 5), (29, 7)])
def test_fb_inverse_circulant_is_the_roll_construction(p, q, monkeypatch):
    # the circulant inverse_coeffs solves has column k = b^k w = np.roll(w, k)
    fb = FBCtx(make_field(p), q)
    w = np.random.default_rng(q).integers(1, p, q)
    matrices = []
    solve = _linalg.solve_right

    def recording_solve(ctx, M, b):
        matrices.append(np.array(M))
        return solve(ctx, M, b)

    monkeypatch.setattr(_linalg, "solve_right", recording_solve)
    fb.inverse_coeffs(w)
    assert np.array_equal(matrices[0], np.stack([np.roll(w, k) for k in range(q)], axis=1))


def counted(monkeypatch, obj, name):
    """Wrap obj.name to record its calls; returns the list of calls."""
    calls, fn = [], getattr(obj, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(obj, name, counting)
    return calls


@pytest.mark.parametrize("p, q, b_cubed, structural", [(19, 3, 2, 3), (197, 7, 2, 5)])
def test_powers_take_the_binary_method_products(p, q, b_cubed, structural, monkeypatch):
    # b^3: one squaring and one product; the structural check on c19 (m = 2, y^3)
    # takes 2 + the unitarity product, on c197 (m = 2, y^7) 2 squarings + 2 + 1
    fb = FBCtx(make_field(p), q)
    b = fb.b()
    calls = counted(monkeypatch, fb, "mul_coeffs")
    cube = b ** 3
    assert len(calls) == b_cubed
    assert cube == b * b * b
    calls.clear()
    assert order_q_subgroups_in_cyclic_qm(fb)
    assert len(calls) == structural


def test_zero_and_negative_powers(config_instance, monkeypatch):
    # x^0 is the identity with no product; x^-e is the inverse's e-th power
    inst = config_instance("c7")
    alg, g = inst.algebra, inst.group
    b = alg.basis(g.elem([0], 1))
    for ctx, x in ((inst.fb, inst.fb.b() + 2), (alg, b + alg.basis(g.elem([1], 0)))):
        calls = counted(monkeypatch, ctx, "mul_coeffs")
        assert x ** 0 == ctx.one() and not calls
        for e in range(1, 6):
            assert x ** -e == x.inverse() ** e
            assert x ** -e * x ** e == ctx.one()
    a1 = g.elem([1], 2)
    calls = counted(monkeypatch, g, "mul_idx")
    assert a1 ** 0 == g.elem([0], 0) and not calls
    for e in range(1, 25):
        assert a1 ** -e == a1.inverse() ** e
        assert (a1 ** -e) * (a1 ** e) == g.elem([0], 0)


@pytest.mark.parametrize("name, c", [("c7", -3), ("gf49", [2, 5])])
def test_shared_constructors_keep_types_and_values(name, c, config_instance):
    inst = config_instance(name)
    code = inst.field.elem(c).code
    for ctx, kind in ((inst.fb, FBElem), (inst.algebra, AlgElem)):
        one, zero, sc = ctx.one(), ctx.zero(), ctx.scalar(c)
        assert all(type(x) is kind and x.ctx is ctx for x in (one, zero, sc))
        assert one.coeffs.tolist() == [1] + [0] * (ctx.order - 1)
        assert zero.coeffs.tolist() == [0] * ctx.order
        assert sc.coeffs.tolist() == [code] + [0] * (ctx.order - 1)
        assert type(ctx.elem(sc.coeffs)) is kind and ctx.elem(sc.coeffs) == sc
    assert inst.fb.one() == inst.fb.b(0) and inst.algebra.one() == inst.algebra.basis(0)


@pytest.fixture(scope="module")
def fb11(f11):
    return FBCtx(f11, 5)


@pytest.fixture(scope="module")
def fb31(f31):
    return FBCtx(f31, 5)


@pytest.fixture(scope="module")
def fb19(f19):
    return FBCtx(f19, 3)


def test_fbctx_requires_split(f7):
    with pytest.raises(QDoesNotDivide):
        FBCtx(f7, 5)


def test_idempotents_f7c3(fb7):
    E = idempotents(fb7)
    assert [e.coeffs.tolist() for e in E] == [[5, 5, 5], [5, 6, 3], [5, 3, 6]]
    assert all(E.verify().values())


@pytest.mark.parametrize("spec", [(7, 3), (11, 5), (13, 3), (19, 3), (31, 5)])
def test_idempotent_suite_corpus(spec):
    p, q = spec
    fb = FBCtx(make_field(p), q)
    E = idempotents(fb)
    assert all(E.verify().values())
    # direct eigenvalue check: b e_j = omega^j e_j by explicit multiplication
    b = fb.b()
    for j in range(q):
        assert b * E[j] == E[j].scale(fb.field.from_code(int(fb.omega_pow[j])))


def test_projection_examples(fb7, fb11):
    assert projections(fb7.one()).values.tolist() == [1, 1, 1]
    bvec = projections(fb7.b())
    assert bvec.values.tolist() == [fb7.field.pow(fb7.omega.code, j) for j in range(3)]
    # the flagship F11C5 unit
    u = fb11.elem([0, 2, 3, 8, 10])
    pv = projections(u)
    assert pv.values.tolist() == [1, 4, 9, 5, 3]
    w = fb11.omega.code
    assert pv.values.tolist() == [1, w, fb11.field.pow(w, 3),
                                  fb11.field.pow(w, 2), fb11.field.pow(w, 4)]


def test_paper_unit_convention(fb11):
    # regression pin: zeta = 2 mod 11, omega = 4 reproduce the displayed unit
    assert fb11.field.zeta.code == 2
    assert fb11.omega.code == 4
    u = from_projections(ProjVec(fb11, np.array([1, 4, 9, 5, 3])))
    assert u.coeffs.tolist() == [0, 2, 3, 8, 10]


def test_from_projections_roundtrip_exhaustive_f7(fb7):
    # projections/from_projections are mutually inverse: exhaustive at q=3, p=7
    for coeffs in itertools.product(range(7), repeat=3):
        u = fb7.elem(list(coeffs))
        assert from_projections(projections(u)) == u
    for vals in itertools.product(range(7), repeat=3):
        pv = ProjVec(fb7, np.array(vals))
        assert projections(from_projections(pv)) == pv


def test_from_projections_roundtrip_random(fb11, fb31, rng):
    for fb in (fb11, fb31):
        for _ in range(10_000):
            u = fb.elem(rng.integers(0, fb.field.p, fb.q))
            assert from_projections(projections(u)) == u


def test_from_projections_examples(fb7):
    assert from_projections(ProjVec(fb7, np.array([1, 1, 1]))) == fb7.one()
    w = fb7.omega.code
    bvals = np.array([fb7.field.pow(w, j) for j in range(3)])
    assert from_projections(ProjVec(fb7, bvals)) == fb7.b()
    nonunit = from_projections(ProjVec(fb7, np.array([0, 1, 1])))
    E = idempotents(fb7)
    assert (nonunit * E[0]).coeffs.tolist() == [0, 0, 0]
    with pytest.raises(NotAUnit):
        nonunit.inverse()


def test_classify_examples(fb7, fb11):
    cb = classify_unit(fb7.b())
    assert cb.is_unitary and not cb.is_symmetric and cb.order == 3
    u = fb11.elem([0, 2, 3, 8, 10])
    cu = classify_unit(u)
    assert cu.is_unitary and cu.has_distinct_projections and cu.order % 5 == 0
    # symmetric but not unitary unless the value squares to 1
    z = fb7.field.zeta.code
    sym = from_projections(ProjVec(fb7, np.array([1, z, z])))
    cs = classify_unit(sym)
    assert cs.is_symmetric and not cs.is_unitary


def test_classify_order_matches_direct_powering(fb7, fb11, rng):
    for fb in (fb7, fb11):
        for _ in range(100):
            exps = rng.integers(0, fb.field.order, fb.q)
            vals = np.array([fb.field.pow(fb.field.zeta.code, int(e)) for e in exps])
            u = from_projections(ProjVec(fb, vals))
            k = classify_unit(u).order
            assert u ** k == fb.one()
            for r in {d for d in (2, 3, 5, 7) if k % d == 0}:
                assert u ** (k // r) != fb.one()


def test_unit_flags_agree_with_algebra_exhaustive(fb7):
    # all 36 normalized units of V(F7 C3)
    enum = enumerate_VFB(fb7, "V")
    count_star = count_plus = 0
    for i in range(enum.order):
        u = enum.unit(i)
        uc = classify_unit(u)
        assert uc.is_unit and uc.is_normalized
        assert uc.is_unitary == ((u * u.star()) == fb7.one())
        assert uc.is_symmetric == (u.star() == u)
        count_star += uc.is_unitary
        count_plus += uc.is_symmetric
    assert count_star == 6 and count_plus == 6


def test_b_polynomial_examples(fb7, fb11):
    assert [c.code for c in b_polynomial(fb7.b())] == [0, 1, 0]
    u = fb11.elem([0, 2, 3, 8, 10])
    coeffs = b_polynomial(u)
    assert [c.code for c in coeffs] == [0, 2, 3, 8, 10]
    # u = p(b) as well (the involutive swap)
    acc, pw = fb11.zero(), fb11.one()
    for c in coeffs:
        acc = acc + pw.scale(c)
        pw = pw * fb11.b()
    assert acc == u
    with pytest.raises(RepeatedProjections):
        b_polynomial(fb11.one())


def test_span_lemma_equivalence(fb7):
    # distinct projections <=> dim F[u] = q, exhaustively over V(F7 C3)
    enum = enumerate_VFB(fb7, "V")
    for i in range(enum.order):
        u = enum.unit(i)
        distinct = projections(u).has_distinct_projections()
        assert (span_dimension(u) == 3) == distinct
        if not distinct:
            with pytest.raises(RepeatedProjections):
                b_polynomial(u)


def test_enumerate_orders(fb7, fb11):
    assert enumerate_VFB(fb7, "V").order == 36
    assert enumerate_VFB(fb7, "V+").order == 6
    assert enumerate_VFB(fb7, "V*").order == 6
    assert enumerate_VFB(fb11, "V").order == 10_000
    assert enumerate_VFB(fb11, "V+").order == 100
    assert enumerate_VFB(fb11, "V*").order == 100


def test_enumerate_budget(fb11):
    with pytest.raises(BudgetExceeded):
        enumerate_VFB(fb11, "V", budget=100)
    with pytest.raises(MathDomainError):
        enumerate_VFB(fb11, "W")


def test_enumerated_families_are_correct(fb7):
    star_units = {enumerate_VFB(fb7, "V*").unit(i) for i in range(6)}
    plus_units = {enumerate_VFB(fb7, "V+").unit(i) for i in range(6)}
    enum = enumerate_VFB(fb7, "V")
    for i in range(enum.order):
        u = enum.unit(i)
        assert ((u * u.star()) == fb7.one()) == (u in star_units)
        assert (u.star() == u) == (u in plus_units)


def test_hall_2prime(fb7, fb11):
    rep = hall_2prime_decomposition(fb7)
    assert rep.odd_v_order == 9
    assert rep.odd_plus_order == 3 and rep.odd_star_order == 3
    assert rep.intersection_trivial and rep.product_is_odd_part
    rep11 = hall_2prime_decomposition(fb11)
    assert rep11.odd_v_order == 625
    assert rep11.odd_plus_order == 25 and rep11.odd_star_order == 25
    assert rep11.intersection_trivial and rep11.product_is_odd_part


def test_plus_meet_star_elementary_2group(fb7, fb11, fb31, fb19, f13):
    for fb in (fb7, fb11, fb31, fb19, FBCtx(f13, 3)):
        enum = enumerate_VFB(fb, "V*")
        for i in range(enum.order):
            u = enum.unit(i)
            if u.star() == u:  # in the intersection with V+
                assert u * u == fb.one()


def test_distinct_projection_unit_f31(fb31):
    w_code = fb31.omega.code
    n = ProjVec(fb31, np.array([1, w_code, 1, 1, fb31.field.inv(w_code)]))
    w = distinct_projection_unit(n, fb31.qdecomp)
    assert w.values.tolist() == [1, 16, 26, 6, 2]
    assert w.is_unitary() and w.has_distinct_projections()


def test_distinct_projection_unit_reindexing(fb31):
    # the non-trivial pair at positions (2, 3) must be handled by the index map
    w_code = fb31.omega.code
    n = ProjVec(fb31, np.array([1, 1, w_code, fb31.field.inv(w_code), 1]))
    w = distinct_projection_unit(n, fb31.qdecomp)
    assert w.is_unitary() and w.has_distinct_projections()
    assert int(w.values[2]) == fb31.field.mul(1, w_code)  # v is 1 at the pivot


def test_distinct_projection_unit_all_order5(fb31):
    # every order-5 unitary n is fixed up, for all 24 of them
    N = fb31.field.order
    step = N // 5
    for e1 in range(5):
        for e2 in range(5):
            if (e1, e2) == (0, 0):
                continue
            vals = np.array([1,
                             fb31.field.pow(fb31.field.zeta.code, e1 * step),
                             fb31.field.pow(fb31.field.zeta.code, e2 * step),
                             fb31.field.pow(fb31.field.zeta.code, (-e2 * step) % N),
                             fb31.field.pow(fb31.field.zeta.code, (-e1 * step) % N)])
            n = ProjVec(fb31, vals)
            w = distinct_projection_unit(n, fb31.qdecomp)
            assert w.has_distinct_projections() and w.is_unitary()


def test_distinct_projection_unit_hypothesis_fail(fb11):
    # s = 2, q = 5: s + 1 = 3 < 5
    w_code = fb11.omega.code
    n = ProjVec(fb11, np.array([1, w_code, 1, 1, fb11.field.inv(w_code)]))
    with pytest.raises(HypothesisFail):
        distinct_projection_unit(n, fb11.qdecomp)


def test_distinct_projection_unit_q3(fb7):
    # q = 3: no positions to fill, w = n works whenever n has order 3
    w_code = fb7.omega.code
    n = ProjVec(fb7, np.array([1, w_code, fb7.field.inv(w_code)]))
    w = distinct_projection_unit(n, fb7.qdecomp)
    assert w.values.tolist() == n.values.tolist()
    assert w.has_distinct_projections()


def test_distinct_projection_unit_m_gt_1(fb19):
    w_code = fb19.omega.code
    n = ProjVec(fb19, np.array([1, w_code, fb19.field.inv(w_code)]))
    with pytest.raises(HypothesisFail):
        distinct_projection_unit(n, fb19.qdecomp)


def brute_force_subgroups(N, k, order):
    """Oracle: all subgroups of Z_N^k of the given order by closure over
    generator pairs (feasible for tiny groups only)."""
    import itertools as it
    elems = list(it.product(range(N), repeat=k))
    found = set()
    for g1 in elems:
        for g2 in elems:
            sub = {tuple(0 for _ in range(k))}
            frontier = [g1, g2]
            for gen in frontier:
                new = set()
                for x in sub:
                    cur = x
                    for _ in range(N):
                        cur = tuple((a + b) % N for a, b in zip(cur, gen))
                        new.add(cur)
                sub |= new
            # close under addition
            changed = True
            while changed:
                changed = False
                for x in list(sub):
                    for y in list(sub):
                        z = tuple((a + b) % N for a, b in zip(x, y))
                        if z not in sub:
                            sub.add(z)
                            changed = True
            if len(sub) == order:
                found.add(frozenset(sub))
    return found


def test_subgroup_enumeration_against_bruteforce():
    # Z_6 x Z_6, all orders: HNF enumeration matches generator-closure oracle
    for order in (1, 2, 3, 4, 6, 9, 12, 36):
        hnf = {s["elements"] for s in subgroups_of_order(6, 2, order)}
        brute = brute_force_subgroups(6, 2, order)
        assert hnf == brute, order


def test_complement_search_f19(fb19):
    res = complement_search_B_in_VstarFB(fb19)
    assert res.vstar_order == 18 and res.m == 2
    assert res.no_complement
    assert order_q_subgroups_in_cyclic_qm(fb19)


def test_complement_search_f7(fb7):
    res = complement_search_B_in_VstarFB(fb7)
    assert res.vstar_order == 6 and res.m == 1
    assert len(res.complements) == 1
    # the complement is the order-2 subgroup of V* ~ C_6
    elems = hnf_elements(res.complements[0]["hnf"], fb7.field.order)
    assert elems == frozenset({(0,), (3,)})
    assert res.complements[0]["order"] == 2


def test_complement_search_f31(fb31):
    res = complement_search_B_in_VstarFB(fb31)
    assert res.vstar_order == 900
    # complements of a C_5 direct factor: |Hom(V*/B, C_5)| = 5 of them
    assert len(res.complements) == 5
    assert res.all_certified
    b = b_exponent_coords(fb31)
    N = fb31.field.order
    for comp in res.complements:
        elems = hnf_elements(comp["hnf"], N)
        assert len(elems) == 180 == comp["order"]
        assert b not in elems
        # N . B covers V*: 180 * 5 distinct products
        products = {tuple((np.array(e) + t * np.array(b)) % N)
                    for e in elems for t in range(5)}
        assert len(products) == 900


# (p, f, q): m = 2 on GF(19), GF(101), GF(37) and GF(151), m = 1 elsewhere.
# GF(71) with q = 7 (11 s) and GF(127) with q = 7 (minutes) are left out for
# time: the oracle builds every index-q subgroup as a set.
ORACLE_FIELDS = [(7, 1, 3), (19, 1, 3), (11, 1, 5), (7, 2, 3), (31, 1, 5), (41, 1, 5),
                 (61, 1, 5), (101, 1, 5), (13, 1, 3), (43, 1, 7), (29, 1, 7),
                 (71, 1, 5), (37, 1, 3), (151, 1, 5), (3, 4, 5)]


@pytest.mark.parametrize("p,f,q", ORACLE_FIELDS)
def test_complements_match_hnf_oracle(p, f, q):
    fb = FBCtx(make_field(p, f), q)
    N, k, m = fb.field.order, (q - 1) // 2, fb.qdecomp.m
    res = complement_search_B_in_VstarFB(fb)
    ref = oracles.complement_search_B_in_VstarFB(fb)
    assert res.no_complement == ref.no_complement == (m > 1)
    assert len(res.complements) == len(ref.complements) == (q ** (k - 1) if m == 1 else 0)
    for comp, want in zip(res.complements, ref.complements):
        assert np.array_equal(comp["hnf"], want["hnf"])
        elems = hnf_elements(comp["hnf"], N)
        assert elems == want["elements"] and len(elems) == comp["order"]
        assert res.b_exps not in elems
        assert comp["witness"] == want["witness"]
        assert comp["witness"] is None or comp["witness"] in elems
    assert order_q_subgroups_in_cyclic_qm(fb)
    if k <= 2:  # the Sylow scan takes 27 s on GF(29) with q = 7
        assert oracles.order_q_subgroups_in_cyclic_qm(fb)


def test_complement_search_budget(fb31):
    with pytest.raises(BudgetExceeded):
        complement_search_B_in_VstarFB(fb31, budget=100)
