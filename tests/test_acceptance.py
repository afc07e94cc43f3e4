"""Acceptance criteria, one test per criterion, with stated runtime budgets.

Each test registers a PASS/FAIL line that the terminal summary echoes.
The big instance (C_31 x C_31 x| C_5 over GF(31)) is session-cached so the
dimension computations of criterion 7 are reused by criterion 10.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import record_criterion

from cqunits import make_field
from cqunits.cqstruct import (FBCtx, ProjVec, b_polynomial,
                              complement_search_B_in_VstarFB,
                              distinct_projection_unit, enumerate_VFB,
                              from_projections, idempotents,
                              order_q_subgroups_in_cyclic_qm, projections)
from cqunits.errors import RepeatedProjections
from cqunits.unitgroup import (cayley, cayley_inv, centralizer_in_gamma, class_length,
                               random_gamma, random_skew, sample_disjoint_classes)
from cqunits.verifier import counting_certificate, m_gt_1_no_complement
from oracles import (centralizer_of_b_orbit_form, contains_rows, gamma_basis,
                     hall_2prime_decomposition, sqrt_relation_check)


@pytest.fixture
def crit(request):
    def start(number: int, description: str):
        request.node._acceptance_criterion = (number, description)

        def done():
            record_criterion(number, description)

        return done

    return start


def test_criterion_01_idempotent_suite(crit):
    done = crit(1, "idempotent suite exact on all five corpus fields, < 1 s")
    t0 = time.perf_counter()
    for p, q in ((7, 3), (11, 5), (13, 3), (19, 3), (31, 5)):
        fb = FBCtx(make_field(p), q)
        E = idempotents(fb)
        items = E.items
        for i in range(q):
            assert items[i] * items[i] == items[i]
            for j in range(q):
                if i != j:
                    assert not (items[i] * items[j]).coeffs.any()
        total = items[0]
        for e in items[1:]:
            total = total + e
        assert total == fb.one()
        b = fb.b()
        for j in range(q):
            assert b * items[j] == items[j].scale(fb.field.from_code(int(fb.omega_pow[j])))
        for j in range(q):
            assert items[j].star() == items[(q - j) % q]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"idempotent suite took {elapsed:.2f} s"
    done()


def test_criterion_02_proposition_orders(crit):
    done = crit(2, "unit group orders 36/6/6 and 10^4/100/100, Hall 2'-parts, < 10 s")
    t0 = time.perf_counter()
    fb7 = FBCtx(make_field(7), 3)
    fb11 = FBCtx(make_field(11), 5)
    assert enumerate_VFB(fb7, "V").order == 36 == (7 - 1) ** 2
    assert enumerate_VFB(fb7, "V+").order == 6
    assert enumerate_VFB(fb7, "V*").order == 6
    assert enumerate_VFB(fb11, "V").order == 10_000 == (11 - 1) ** 4
    assert enumerate_VFB(fb11, "V+").order == 100
    assert enumerate_VFB(fb11, "V*").order == 100
    rep = hall_2prime_decomposition(fb7)
    assert rep.intersection_trivial and rep.product_is_odd_part
    assert rep.odd_v_order == 9 == rep.odd_plus_order * rep.odd_star_order
    rep11 = hall_2prime_decomposition(fb11)
    assert rep11.intersection_trivial and rep11.product_is_odd_part
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"order checks took {elapsed:.2f} s"
    done()


def test_criterion_03_flagship_unit(crit):
    done = crit(3, "F11C5 unit is unitary with u = p(b) and b = p(u), exact")
    fb = FBCtx(make_field(11), 5)
    u = fb.elem([0, 2, 3, 8, 10])
    assert (u * u.star()) == fb.one()  # unitary, by direct algebra
    coeffs = b_polynomial(u)  # raises unless b = p(u) verifies
    assert [c.code for c in coeffs] == [0, 2, 3, 8, 10]
    acc, pw = fb.zero(), fb.one()
    for c in coeffs:
        acc = acc + pw.scale(c)
        pw = pw * fb.b()
    assert acc == u  # u = p(b) with the same polynomial
    done()


def _batched_rank_mod_p(p: int, mats: np.ndarray) -> np.ndarray:
    """Vectorized Gaussian elimination rank of a stack of small matrices."""
    mats = mats.copy() % p
    count, m, n = mats.shape
    inv_table = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    row = np.zeros(count, dtype=np.int64)
    for c in range(n):
        col = mats[:, :, c]
        cand = (col != 0) & (np.arange(m)[None, :] >= row[:, None])
        has = cand.any(axis=1)
        idxs = np.nonzero(has)[0]
        if not idxs.size:
            continue
        r = row[idxs]
        pr = np.argmax(cand[idxs], axis=1)
        tmp = mats[idxs, r].copy()
        mats[idxs, r] = mats[idxs, pr]
        mats[idxs, pr] = tmp
        inv = inv_table[mats[idxs, r, c]]
        mats[idxs, r] = (mats[idxs, r] * inv[:, None]) % p
        factors = mats[idxs, :, c].copy()
        factors[np.arange(idxs.size), r] = 0
        mats[idxs] = (mats[idxs] - factors[:, :, None] * mats[idxs, r][:, None, :]) % p
        row[idxs] += 1
    return row


def test_criterion_04_span_lemma_at_scale(crit):
    done = crit(4, "span lemma over F31C5: 200 verified polynomials, all "
                   "repeated-projection units have dim F[u] < 5")
    p, q, N = 31, 5, 30
    fld = make_field(p)
    fb = FBCtx(fld, q)
    rng = np.random.default_rng(31)

    # 200 random units with distinct projections: b_polynomial verifies b = p(u)
    count = 0
    while count < 200:
        exps = rng.integers(0, N, q - 1)
        vals = np.array([1] + [fld.pow(fld.zeta.code, int(e)) for e in exps])
        pv = ProjVec(fb, vals)
        if not pv.has_distinct_projections():
            continue
        coeffs = b_polynomial(from_projections(pv))  # self-verifying
        assert len(coeffs) == q
        count += 1

    # every unit of V(F31 C5): projections from exponent tuples
    zpow = np.array([fld.pow(fld.zeta.code, e) for e in range(N)], dtype=np.int64)
    grids = np.meshgrid(*([np.arange(N)] * (q - 1)), indexing="ij")
    exps = np.stack([g.ravel() for g in grids], axis=1)
    vals = np.hstack([np.ones((exps.shape[0], 1), dtype=np.int64), zpow[exps]])
    srt = np.sort(vals, axis=1)
    repeated = (np.diff(srt, axis=1) == 0).any(axis=1)
    assert int(repeated.sum()) == 30 ** 4 - 29 * 28 * 27 * 26  # 239,976

    # coefficients u = sum_j vals_j e_j via the idempotent matrix, then powers
    # by direct cyclic convolution: an oracle independent of projections
    coeffs_all = (vals @ fb.idem_matrix) % p  # (count, q); e_j rows
    conv_idx = (np.arange(q)[None, :] - np.arange(q)[:, None]) % q  # (k-i) % q

    def conv(x, y):
        return np.einsum("ni,nik->nk", x, y[:, conv_idx]) % p

    ranks = np.empty(vals.shape[0], dtype=np.int64)
    one_row = np.zeros(q, dtype=np.int64)
    one_row[0] = 1
    chunk = 100_000
    for lo in range(0, vals.shape[0], chunk):
        u = coeffs_all[lo:lo + chunk]
        u2 = conv(u, u)
        u3 = conv(u2, u)
        u4 = conv(u3, u)
        mats = np.stack([np.broadcast_to(one_row, u.shape), u, u2, u3, u4], axis=1)
        ranks[lo:lo + chunk] = _batched_rank_mod_p(p, mats)
    assert (ranks[repeated] < 5).all()
    assert (ranks[~repeated] == 5).all()

    # the API error path on a seeded sample of repeated-projection units
    rep_rows = np.nonzero(repeated)[0]
    sample = rng.choice(rep_rows, size=2000, replace=False)
    for i in sample:
        with pytest.raises(RepeatedProjections):
            b_polynomial(fb.elem(coeffs_all[i]))
    done()


def test_criterion_05_centralizer_class_length(crit, inst7):
    done = crit(5, "C7x|C3/F7 dims: gamma 18, C(b) 6 = orbit span, |Cl_b| 7^12, "
                   "S1/S2 9/9, skew slice 3, |Cl*_b| 7^6, < 5 s")
    t0 = time.perf_counter()
    alg = inst7.algebra
    assert gamma_basis(alg).dim == 18
    rep = inst7.b_centralizer
    assert rep.dim == 6
    span, equal = centralizer_of_b_orbit_form(alg)
    assert equal and span.dim == 6
    assert contains_rows(span, rep.kernel.basis)          # double inclusion
    assert contains_rows(rep.kernel, span.basis)
    s1, s2 = alg.sym_skew_subspaces()
    assert s1.dim == 9 and s2.dim == 9
    assert rep.skew_dim == 3
    b = alg.basis(alg.group.b())
    cl = class_length(alg, b, report=rep)
    cls = class_length(alg, b, starred=True, report=rep)
    assert cl.value == 7 ** 12
    assert cls.value == 7 ** 6 and cls.value ** 2 == cl.value
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 5 took {elapsed:.2f} s"
    done()


def test_criterion_06_cayley_bijection(crit, inst7):
    done = crit(6, "500 seeded skew round trips and 500 unitary pullbacks, "
                   "exact, < 30 s")
    t0 = time.perf_counter()
    alg = inst7.algebra
    rng = np.random.default_rng(606)
    seen = set()
    for _ in range(500):
        l = random_skew(alg, rng)
        u = cayley(l)
        assert (u * u.star()) == alg.one()
        assert (u - alg.one()).in_gamma()
        assert cayley_inv(u) == l
        seen.add(u.coeffs.tobytes())
    for _ in range(500):
        u = cayley(random_skew(alg, rng))
        l = cayley_inv(u)
        assert l.star() == -l and l.in_gamma()
        assert cayley(l) == u
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 6 took {elapsed:.2f} s"
    done()


def _seeded_distinct_projection_units(alg, count, seed):
    fld = alg.field
    fb = alg.fb
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        exps = rng.integers(0, fld.order, (alg.q - 1) // 2)
        vals = np.ones(alg.q, dtype=np.int64)
        for i, e in enumerate(exps, start=1):
            vals[i] = fld.pow(fld.zeta.code, int(e))
            vals[alg.q - i] = fld.pow(fld.zeta.code, -int(e) % fld.order)
        pv = ProjVec(fb, vals)
        if not pv.has_distinct_projections():
            continue
        u = from_projections(pv).lift(alg)
        if any(u == v for v in out):
            continue
        out.append(u)
    return out


def test_criterion_07_square_root_law(crit, inst7, inst31):
    done = crit(7, "square-root law for 1, b, b^2 and 3 seeded units in both "
                   "corpus groups (dim 4800 kernels), < 10 min")
    t0 = time.perf_counter()
    for inst in (inst7, inst31):
        alg = inst.algebra
        b = alg.basis(alg.group.b())
        units = [alg.one(), b, b * b]
        units += _seeded_distinct_projection_units(alg, 3, seed=707)
        for x in units:
            rep = (inst.b_centralizer if x == b else centralizer_in_gamma(alg, x))
            assert rep.star_closed
            assert rep.dim == 2 * rep.skew_dim, (inst.field.p, rep.dim, rep.skew_dim)
            assert sqrt_relation_check(alg, x, rep)
    assert inst7.b_centralizer.dim == 6
    assert inst31.b_centralizer.dim == 960  # p^n - 1 at gamma dimension 4800
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"criterion 7 took {elapsed:.1f} s"
    done()


def test_criterion_08_m_gt_1_branch(crit, inst19):
    done = crit(8, "(19,3): no complement of B in V*(F19C3) ~ C18; order-3 "
                   "subgroups sit in cyclic C9, < 1 s")
    t0 = time.perf_counter()
    rep = m_gt_1_no_complement(inst19)
    assert complement_search_B_in_VstarFB(inst19.fb).no_complement
    assert rep.structural_ok
    assert rep.verdict == "NoNormalComplement"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 8 took {elapsed:.2f} s"
    done()


def test_criterion_09_m_1_complement_scan(crit, inst31):
    done = crit(9, "(31,5): every complement of B in V*(F31C5) has a 5-distinct-"
                   "projection unit; constructor output always distinct, < 5 min")
    t0 = time.perf_counter()
    fb = inst31.fb
    res = complement_search_B_in_VstarFB(fb, budget=inst31.budget)
    assert res.vstar_order == 900
    assert res.complements, "m = 1 must yield at least one complement"
    assert res.all_certified
    for comp in res.complements:
        assert comp["witness"] is not None
    # the constructor succeeds on every order-5 unitary n (24 of them)
    N = fb.field.order
    step = N // 5
    for e1, e2 in itertools.product(range(5), repeat=2):
        if (e1, e2) == (0, 0):
            continue
        vals = np.array([1,
                         fb.field.pow(fb.field.zeta.code, e1 * step),
                         fb.field.pow(fb.field.zeta.code, e2 * step),
                         fb.field.pow(fb.field.zeta.code, (-e2 * step) % N),
                         fb.field.pow(fb.field.zeta.code, (-e1 * step) % N)])
        w = distinct_projection_unit(ProjVec(fb, vals), fb.qdecomp)
        assert w.has_distinct_projections()
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 9 took {elapsed:.1f} s"
    done()


def test_criterion_10_theorem_certificates(crit, inst7, inst31):
    done = crit(10, "certificates: 2*7^9 > 7^8 with |A|=7>1; 4*31^2400 > "
                    "179*31^2398 with |A|=961>179; exact big integers, < 1 s")
    # warm the cached dimensions (criterion 7 computes them on a full run)
    for inst in (inst7, inst31):
        _ = inst.s2_dim
        _ = inst.b_centralizer
    t0 = time.perf_counter()
    c7 = counting_certificate(inst7)
    assert (c7.L.cofactor, c7.L.p, c7.L.exp) == (2, 7, 9)
    assert (c7.R.cofactor, c7.R.p, c7.R.exp) == (1, 7, 8)
    assert c7.L.value == 2 * 7 ** 9 and c7.R.value == 7 ** 8
    assert c7.a_order == 7 and c7.intermediate_bound == 6 // 3 - 1 == 1
    assert c7.L.value > c7.R.value and c7.intermediate_ok
    assert c7.verdict == "NoNormalComplement"
    assert all(c7.checks.values())

    c31 = counting_certificate(inst31)
    assert (c31.L.cofactor, c31.L.p, c31.L.exp) == (4, 31, 2400)
    assert (c31.R.cofactor, c31.R.p, c31.R.exp) == (179, 31, 2398)
    assert c31.intermediate_bound == (30 ** 2) // 5 - 1 == 179
    assert c31.a_order == 961 > 179
    assert c31.L.value == 4 * 31 ** 2400
    assert c31.R.value == 179 * 31 ** 2398
    assert c31.L.value > c31.R.value
    assert c31.L.recompute_slow() == c31.L.value  # log-free product chain
    assert c31.R.recompute_slow() == c31.R.value
    assert c31.verdict == "NoNormalComplement"
    assert all(c31.checks.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"certificate arithmetic took {elapsed:.2f} s"
    done()


def test_criterion_11_disjoint_class_evidence(crit, inst7):
    done = crit(11, "seed 42: 10^4 + 10^4 conjugation trials x 10 pairs, zero "
                    "hits; dim C(wz) <= dim C(w) for 100 z, < 2 min")
    t0 = time.perf_counter()
    alg = inst7.algebra
    b = alg.basis(alg.group.b())
    rep = inst7.b_centralizer

    # five distinct unitary elements of the centralizer, giving 10 pairs
    units = []
    rng = np.random.default_rng(42)
    while len(units) < 5:
        coeffs = rng.integers(0, 7, rep.kernel.dim)
        g = alg.elem((coeffs @ rep.kernel.basis) % 7)
        sk = g.sym_skew_split()[1]
        if sk.is_zero():
            continue
        u = cayley(sk)
        if any(u == v for v in units):
            continue
        units.append(u)
    pairs = list(itertools.combinations(units, 2))
    assert len(pairs) == 10
    for z1, z2 in pairs:
        ev = sample_disjoint_classes(alg, b, z1, z2, trials=10_000, seed=42)
        assert not ev.identical_pair_hit
        assert ev.hits_v == 0 and ev.hits_vstar == 0
        assert ev.lower_bound_ok

    # lower-bound leg on 100 sampled centralizer elements
    for _ in range(100):
        coeffs = rng.integers(0, 7, rep.kernel.dim)
        z = alg.one() + alg.elem((coeffs @ rep.kernel.basis) % 7)
        rz = centralizer_in_gamma(alg, b * z)
        assert rz.dim <= rep.dim
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 11 took {elapsed:.1f} s"
    done()
