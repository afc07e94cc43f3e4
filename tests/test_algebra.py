import tracemalloc

import numpy as np
import pytest

from cqunits import GroupAlgebra, Subspace, make_field, make_group
from cqunits import _linalg as L
from cqunits import _memory, algebra
from cqunits.errors import BudgetExceeded, CtxMismatch, MathDomainError, NotAUnit
from cqunits.field import FieldCtx
from cqunits.unitgroup import random_gamma
from cqunits.verifier import make_instance

from conftest import CONFIGS, mul_reference
from oracles import (contains_rows, gamma_basis, intersect, kernel_of,
                     one_plus_gamma_exponent)


def random_elem(alg, rng):
    return alg.elem(rng.integers(0, alg.field.size, alg.order))


@pytest.fixture(scope="module")
def alg49():
    f49 = make_field(7, 2)
    return GroupAlgebra(f49, make_group(f49, 3, [7], [[2]]))


@pytest.fixture(scope="module")
def alg_c7sq(f7):
    # A = C_7 x C_7 over GF(7): nilpotency index 1 + 6 + 6 = 13
    return GroupAlgebra(f7, make_group(f7, 3, [7, 7], [[2, 0], [0, 4]]))


@pytest.fixture(scope="module")
def alg_c49(f7):
    # A = C_49 (an exponent e = 2) over GF(7), 18^3 = 1 mod 49: index 49
    return GroupAlgebra(f7, make_group(f7, 3, [49], [[18]]))


def radical_power_nilpotency(alg):
    """Independent oracle: smallest N with omega(A)^N = 0, each power row
    reduced inside FA lifted into FG (coefficients on the b^0 slice)."""
    q, na = alg.q, alg.group.abelian.order
    one = alg.one().coeffs
    gens = [alg.field.vsub(alg.basis(alg.group.generator(k + 1)).coeffs, one)
            for k in range(len(alg.group.abelian.factors))]
    rows = np.zeros((na - 1, alg.order), dtype=np.int64)  # a - 1 for every a != e
    rows[np.arange(na - 1), q * np.arange(1, na)] = 1
    rows[:, 0] = alg.field.neg(1)
    R, _ = L.rref(alg.field, rows)
    N = 1
    while R.shape[0]:
        R, _ = L.rref(alg.field, np.stack([alg.mul_coeffs(r, g) for r in R for g in gens]))
        N += 1
    return N


def regular_rep_inverse(alg, x):
    """Independent oracle: invert the left-multiplication matrix column of 1."""
    n = alg.order
    M = np.zeros((n, n), dtype=np.int64)
    for g in range(n):
        col = alg.mul_coeffs(x.coeffs, alg.basis(g).coeffs)
        M[:, g] = col
    e0 = np.zeros(n, dtype=np.int64)
    e0[0] = 1
    sol = L.solve_right(alg.field, M, e0)
    return None if sol is None else alg.elem(sol)


def test_mul_identity_and_group_relation(alg21):
    rngl = np.random.default_rng(7)
    x = random_elem(alg21, rngl)
    assert alg21.one() * x == x
    b = alg21.basis(alg21.group.b())
    assert b * b * b == alg21.one()  # b * b^{q-1} = 1


def test_mul_lifted_idempotents_orthogonal(alg21):
    # e_0 * e_1 = 0 inside FG, with the idempotents lifted from FB
    from cqunits.cqstruct import FBCtx, idempotents
    E = idempotents(FBCtx(alg21.field, 3))
    e0, e1 = E[0].lift(alg21), E[1].lift(alg21)
    assert (e0 * e1).is_zero()
    assert e0 * e0 == e0


def test_mul_table_vs_fft_paths(alg21, rng):
    # the two product routes must agree
    for _ in range(50):
        x, y = random_elem(alg21, rng), random_elem(alg21, rng)
        assert np.array_equal(alg21._mul_table_path(x.coeffs, y.coeffs),
                              alg21._mul_fft(x.coeffs, y.coeffs))


def sparse_elem(alg, rng, size=12):
    coeffs = np.zeros(alg.order, dtype=np.int64)
    coeffs[rng.choice(alg.order, size, replace=False)] = rng.integers(1, alg.field.size, size)
    return alg.elem(coeffs)


@pytest.fixture(scope="module")
def alg_c31sq(inst31):
    return inst31.algebra


@pytest.fixture(scope="module")
def alg_gf49_c7e4():
    # |G| = 7203, f = 2: above the table limit with a nontrivial field tensor
    return make_instance(7, 2, 3, [7] * 4, np.diag([2, 4, 2, 4]), modulus=[1, 0, 1]).algebra


@pytest.fixture(scope="module")
def alg_c49x7():
    # A = C_49 x C_7 with an upper-triangular action: sigma^t permutes the
    # characters of A, but not coordinate by coordinate
    return make_instance(7, 1, 3, [49, 7], [[18, 7], [0, 2]]).algebra


@pytest.fixture(scope="module")
def alg_gf81_c3e8():
    # GF(3^4), A = C_3^8, q = 5, |G| = 32805
    C = [[0, 0, 0, 2], [1, 0, 0, 2], [0, 1, 0, 2], [0, 0, 1, 2]]  # x^4 + x^3 + x^2 + x + 1
    return make_instance(3, 4, 5, [3] * 8, np.kron(np.eye(2, dtype=np.int64), C)).algebra


@pytest.fixture(scope="module")
def alg_c7x49():
    # A = C_7 x C_49: the p^2 axis is the last one, the one transformed to its half spectrum
    return make_instance(7, 1, 3, [7, 49], [[2, 0], [0, 18]]).algebra


@pytest.fixture(scope="module")
def alg_c61sq(config_instance):
    return config_instance("c61sq").algebra


@pytest.fixture(scope="module")
def alg_c197(config_instance):
    # one axis of 197, the longest a config transforms
    return config_instance("c197").algebra


@pytest.fixture(scope="module")
def alg_inst101():
    return make_instance(101, 1, 5, [101, 101], [[36, 0], [0, 84]]).algebra


@pytest.mark.parametrize("name", ["alg_c31sq", "alg_gf49_c7e4"])
def test_mul_fft_against_index_reference(name, request, rng):
    alg = request.getfixturevalue(name)
    assert alg._mul_flat is None  # mul_coeffs is the FFT product here
    for _ in range(2):
        x, y = sparse_elem(alg, rng), random_elem(alg, rng)
        assert np.array_equal(alg._mul_fft(x.coeffs, y.coeffs),
                              mul_reference(alg, x.coeffs, y.coeffs))
        x, y, z = (random_elem(alg, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * alg.one() == x and alg.one() * x == x


@pytest.mark.parametrize("name", ["alg_c49x7", "alg_c7x49", "alg_gf81_c3e8", "alg_c61sq",
                                  "alg_c197", "alg_inst101"])
def test_mul_fft_sparse_x_against_index_reference(name, request, rng):
    # only the nonzero slots of x enter the frequency-domain sum
    alg = request.getfixturevalue(name)
    slots = np.zeros(alg.order, dtype=np.int64)  # x on the slots b^0 and b^2 only
    slots[rng.choice(alg.order // alg.q, 12, replace=False) * alg.q + [0, 2] * 6] = 1
    for x in (sparse_elem(alg, rng, 1).coeffs, sparse_elem(alg, rng, 12).coeffs,
              alg.field.vmul(slots, rng.integers(1, alg.field.size, alg.order))):
        y = random_elem(alg, rng).coeffs
        assert np.array_equal(alg._mul_fft(x, y), mul_reference(alg, x, y))
        assert np.array_equal(alg._mul_fft(x, x), mul_reference(alg, x, x))
    if alg._mul_flat is not None:
        x, y = random_elem(alg, rng).coeffs, random_elem(alg, rng).coeffs
        assert np.array_equal(alg._mul_fft(x, y), alg._mul_table_path(x, y))


@pytest.mark.parametrize("name", ["alg_c31sq", "alg_c197"])
def test_mul_fft_over_a_prime_field_skips_the_digit_planes(name, request, rng, monkeypatch):
    # for f = 1 the codes are the digits: no decode before the transforms and no
    # encode after them (c197's single axis has no lead DFT)
    alg = request.getfixturevalue(name)
    one_slot = np.zeros(alg.order, dtype=np.int64)  # x on the slot b^2 only
    one_slot[rng.choice(alg.order // alg.q, 6, replace=False) * alg.q + 2] = 3
    cases = []
    for x in (one_slot, sparse_elem(alg, rng, 12).coeffs, random_elem(alg, rng).coeffs):
        y = random_elem(alg, rng).coeffs
        cases.append((x, y, mul_reference(alg, x, y), mul_reference(alg, x, x)))

    def refuse(*args):
        raise AssertionError("the product decoded or encoded digit planes")

    monkeypatch.setattr(FieldCtx, "decode", refuse)
    monkeypatch.setattr(FieldCtx, "encode", refuse)
    for x, y, xy, xx in cases:
        assert np.array_equal(alg._mul_fft(x, y), xy)
        assert np.array_equal(alg._mul_fft(x, x), xx)


@pytest.mark.parametrize("name", ["alg_c31sq", "alg_c197", "alg_c49x7", "alg_gf49_c7e4"])
def test_transformed_operands_multiply_exactly(name, request, rng):
    # a Spectrum from `transform` serves any number of products, as either
    # factor, and is never a view of the algebra's work arrays: c197 has no
    # lead axis, so there its spectrum is the last-axis gemm's own output
    alg = request.getfixturevalue(name)
    one_slot = np.zeros(alg.order, dtype=np.int64)  # x on the slot b^1 only
    one_slot[rng.choice(alg.order // alg.q, 6, replace=False) * alg.q + 1] = 2
    xs = [sparse_elem(alg, rng).coeffs, one_slot, random_elem(alg, rng).coeffs,
          random_elem(alg, rng).coeffs]
    full = alg.order <= 1500  # the reference takes |supp x| |G| entries
    want = {(i, j): mul_reference(alg, xs[i], xs[j]) if i < 2 or full
            else alg._mul_fft(xs[i], xs[j]) for i in range(4) for j in range(4)}
    T = [alg.transform(c) for c in xs]
    assert all(isinstance(t, algebra.Spectrum) for t in T)
    for (i, j), xy in want.items():
        for a, b in ((T[i], T[j]), (T[i], xs[j]), (xs[i], T[j])):
            assert np.array_equal(alg.mul_coeffs(a, b), xy)
        if i == j:
            assert np.array_equal(alg.mul_coeffs(xs[i], xs[i]), xy)
    assert not any(np.shares_memory(t.F, w) for t in T for w in alg._work.values())


@pytest.mark.parametrize("name", ["alg_c31sq", "alg_c61sq"])
def test_products_allocate_only_their_output_and_spectra(name, request, rng):
    # after a warm-up product, a product (and a square) allocates its output
    # and its operands' spectra, and no temporary besides: those live in the
    # algebra's work arrays, so none is mapped and unmapped per product
    alg = request.getfixturevalue(name)
    x, y = (random_elem(alg, rng).coeffs for _ in range(2))
    alg.mul_coeffs(x, y)
    H = alg._dft[1].shape[2]
    assert alg._work["G"].shape == (1, alg.q, alg.q, H)  # every result slot at once
    budget = 8 * alg.order + 2 * 16 * alg.q * H + 4096
    tracemalloc.start()
    try:
        for a, b in ((x, y), (x, x)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            alg.mul_coeffs(a, b)
            assert tracemalloc.get_traced_memory()[1] - before <= budget
    finally:
        tracemalloc.stop()


def test_fft_bound_admits_configs_and_large_instances(config_instance, alg_gf81_c3e8, alg_inst101):
    # the bound covers q slot products summed before one inverse transform;
    # every algebra built here must still pass it
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        assert config_instance(cfg.stem).algebra._fft_bound < 0.25
    assert alg_gf81_c3e8._fft_bound < 0.25
    assert alg_inst101.order == 51005 and alg_inst101._fft_bound < 0.25


def test_mul_fft_checks_rounding(alg21, monkeypatch):
    # an inverse transform off by 0.4 is caught by the per-product distance check:
    # a1 a1 has digit sum 1 on slot b^0, so its constant row adds 0.4 there
    x = alg21.basis(alg21.group.generator(1)).coeffs
    assert np.array_equal(alg21._mul_fft(x, x), alg21._mul_table_path(x, x))
    (forward, inverse), gather = alg21._dft
    back = inverse[-1].copy()
    back[0] += 0.4
    monkeypatch.setitem(alg21.__dict__, "_dft", ((forward, inverse[:-1] + [back]), gather))
    with pytest.raises(MathDomainError, match="rounding distance"):
        alg21._mul_fft(x, x)


def structure_arrays(group):
    """The names of the arrays a group holds: its structure, and its `mul_table`
    once an algebra on the table route has read it."""
    return {k for k, v in vars(group).items() if isinstance(v, np.ndarray)}


STRUCTURE = {"a_exps", "sigma_pows", "inv_perm"}


def test_algebra_builds_no_dft_matrix(f49):
    # the matrices and the gather index come with the first product, not with
    # the algebra (whose construction the benchmark's setup times), and only
    # the algebra holds them
    group = make_group(f49, 3, [7, 7], [[2, 0], [0, 4]])
    alg = GroupAlgebra(f49, group)
    assert "_dft" not in alg.__dict__
    x = alg.basis(group.generator(1)) + alg.basis(group.b())
    assert x * x == x * alg.basis(group.generator(1)) + x * alg.basis(group.b())
    assert "_dft" in alg.__dict__
    assert structure_arrays(group) == STRUCTURE


@pytest.mark.parametrize("name, table", [("c7", True), ("c19", True), ("f11c5", True),
                                         ("c7sq", False), ("c197", False)])
def test_product_route_by_order(name, table, config_instance, monkeypatch, rng):
    # f = 1 algebras of order up to _TABLE_ORDER multiply through the table and
    # larger ones (|G| = 147 over GF(7), c197 at 1379) through the transforms;
    # either way the product is the one a table built here from mul_idx gives,
    # and the group holds none of the transform's arrays afterwards
    f7 = make_field(7)
    alg = (GroupAlgebra(f7, make_group(f7, 3, [7, 7], [[2, 0], [0, 4]])) if name == "c7sq"
           else config_instance(name).algebra)
    assert (alg._mul_flat is not None) == table == (alg.order <= algebra._TABLE_ORDER)
    g = np.arange(alg.order)
    mul = alg.group.mul_idx(g[:, None], g)
    if table:
        assert np.array_equal(alg._mul_flat, mul.ravel())

    def refuse(*args):
        raise AssertionError("the product took the other route")

    monkeypatch.setattr(alg, "_mul_fft" if table else "_mul_table_path", refuse)
    p = alg.field.p
    for _ in range(3):
        x, y = (rng.integers(0, p, alg.order) for _ in range(2))
        expect = np.zeros(alg.order, dtype=np.int64)
        np.add.at(expect, mul.ravel(), np.outer(x, y).ravel())
        assert np.array_equal(alg.mul_coeffs(x, y), expect % p)
    assert structure_arrays(alg.group) == STRUCTURE | ({"mul_table"} if table else set())


def test_dft_memory_is_refused_up_front(f7, monkeypatch):
    # the matrices, the gather index and a product's spectra pass the memory
    # refusal before any of them is built
    group = make_group(f7, 3, [7, 7], [[2, 0], [0, 4]])
    alg = GroupAlgebra(f7, group)
    one = alg.one().coeffs
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: 1000)
    with pytest.raises(BudgetExceeded, match="DFT matrices"):
        alg._mul_fft(one, one)
    assert "_dft" not in alg.__dict__
    monkeypatch.undo()
    assert np.array_equal(alg._mul_fft(one, one), one)
    assert alg._dft[1].shape == (3, 3, 7 * 4)
    assert structure_arrays(group) == STRUCTURE


@pytest.mark.parametrize("name, slots", [("c31sq", 5), ("c197", 7), ("gf49_c7cube", 3),
                                         ("c43cube", 1)])
def test_dft_refusal_counts_the_work_arrays(name, slots, config_instance, monkeypatch):
    # the matrices (and the temporaries that build the last axis's), the
    # gather index, the work arrays (with a lead axis the "half" array too,
    # not on c197's single axis; "G" for `_gather_slots` result slots, one on
    # c43cube; "FXT" over GF(49)) and a product's spectra are refused past
    # their estimate and built at it, and the first product stays inside it
    built = config_instance(name).algebra
    alg = GroupAlgebra(built.field, built.group)
    q, f, na = alg.q, alg.field.f, alg.group.abelian.order
    *lead, n = alg.group.abelian.factors
    h = n // 2 + 1
    H = int(np.prod(lead)) * h
    arrays = (16 * f * q * na + 48 * f * q * H + 16 * f * slots * q * H
              + (16 * f * q * H if lead else 0) + (16 * f * f * q * H if f > 1 else 0))
    need = (32 * sum(m * m for m in lead) + 64 * n * h + 8 * q * q * H + arrays
            + 8 * 16 * f * q * H)
    assert alg._gather_slots() == slots
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(BudgetExceeded, match="work arrays"):
        alg._dft
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: need)
    if na > 10 ** 4:  # c43cube: the refusal and the work arrays, no product
        assert sum(a.nbytes for a in alg._work.values()) == arrays
        return
    rng = np.random.default_rng(4)
    x, y = sparse_elem(alg, rng).coeffs, random_elem(alg, rng).coeffs
    tracemalloc.start()
    try:
        xy = alg._mul_fft(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need
    assert sum(a.nbytes for a in alg._work.values()) == arrays
    assert np.array_equal(xy, mul_reference(alg, x, y))


def test_fft_exactness_bound(f7, monkeypatch):
    # C_10009 x| C_3: the conservative bound (axis length 10009) passes 1/4
    f = make_field(10009)
    w = next(w for w in range(2, 10009) if pow(w, 3, 10009) == 1)
    with pytest.raises(BudgetExceeded, match="FFT"):
        GroupAlgebra(f, make_group(f, 3, [10009], [[w]]))
    # and a machine epsilon that pushes the c7 bound to 1/4 refuses it too
    group = make_group(f7, 3, [7], [[2]])
    scale = 0.25 / GroupAlgebra(f7, group)._fft_bound
    monkeypatch.setattr(algebra, "_EPS", algebra._EPS * scale * 1.01)
    with pytest.raises(BudgetExceeded, match="FFT"):
        GroupAlgebra(f7, group)
    monkeypatch.setattr(algebra, "_EPS", algebra._EPS / 1.01 * 0.99)
    GroupAlgebra(f7, group)


def test_gf81_c3e8_builds_and_multiplies(alg_gf81_c3e8, rng):
    # the A-addition table this used to build was 2.57 GiB; the FFT product
    # needs no table at all
    alg = alg_gf81_c3e8
    G = alg.group
    assert alg.order == 32805 and alg._mul_flat is None
    x = random_elem(alg, rng)
    assert x * alg.one() == x
    s = sparse_elem(alg, rng)
    assert np.array_equal((s * x).coeffs, mul_reference(alg, s.coeffs, x.coeffs))
    g, h = G.elem([1, 0, 2, 0, 0, 1, 1, 2], 3), G.elem([0, 2, 1, 1, 0, 0, 2, 1], 4)
    assert alg.basis(g) * alg.basis(h) == alg.basis(g * h)


def test_mul_associative_random(alg21, alg49, rng):
    for alg in (alg21, alg49):
        for _ in range(25):
            x, y, z = (random_elem(alg, rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)


def test_ctx_mismatch(alg21, alg49):
    with pytest.raises(CtxMismatch):
        alg21.one() * alg49.one()


def test_star_examples(alg21):
    assert alg21.one().star() == alg21.one()
    b = alg21.basis(alg21.group.b())
    assert b.star() == b * b  # star(b) = b^{q-1}


def test_star_paper_reversal_f11c5():
    f11 = make_field(11)
    G = make_group(f11, 5, [11], [[3]])
    alg = GroupAlgebra(f11, G)
    u = alg.from_b_coeffs([0, 2, 3, 8, 10])
    assert u.star() == alg.from_b_coeffs([0, 10, 8, 3, 2])


def test_star_antiautomorphism(alg21, alg49, rng):
    for alg in (alg21, alg49):
        for _ in range(500):
            x, y = random_elem(alg, rng), random_elem(alg, rng)
            assert (x * y).star() == y.star() * x.star()
        x = random_elem(alg, rng)
        assert x.star().star() == x


def test_augmentation(alg21, rng):
    g = alg21.basis(5)
    assert g.augmentation() == alg21.field.one()
    for _ in range(200):
        x, y = random_elem(alg21, rng), random_elem(alg21, rng)
        assert (x * y).augmentation() == x.augmentation() * y.augmentation()
    x = random_elem(alg21, rng)
    assert (x - alg21.scalar(x.augmentation())).augmentation().is_zero()


def test_rho_examples(alg21, rng):
    # a b^j maps to b^j
    for j in range(3):
        x = alg21.basis(alg21.group.elem([4], j))
        expect = np.zeros(3, dtype=np.int64)
        expect[j] = 1
        assert np.array_equal(x.rho_coeffs(), expect)
    # rho is an algebra homomorphism onto FB
    for _ in range(500):
        x, y = random_elem(alg21, rng), random_elem(alg21, rng)
        lhs = (x * y).rho_coeffs()
        xb, yb = alg21.from_b_coeffs(x.rho_coeffs()), alg21.from_b_coeffs(y.rho_coeffs())
        assert np.array_equal(lhs, (xb * yb).rho_coeffs())
    # rho o (natural inclusion) = identity on FB
    for _ in range(50):
        w = rng.integers(0, 7, 3)
        assert np.array_equal(alg21.from_b_coeffs(w).rho_coeffs(), w % 7)


def test_gamma_basis(alg21, f31):
    sub = gamma_basis(alg21)
    assert sub.dim == 18  # 21 - 3
    a = alg21.basis(alg21.group.generator(1))
    b = alg21.basis(alg21.group.b())
    assert contains_rows(sub, (b * (a - alg21.one())).coeffs)
    assert not contains_rows(sub, b.coeffs)
    G31 = make_group(f31, 5, [31, 31], [[16, 0], [0, 8]])
    alg31 = GroupAlgebra(f31, G31)
    assert gamma_basis(alg31).dim == 4800  # 4805 - 5


def test_gamma_ideal_closure(alg21):
    # gamma is star-closed and multiplication-closed, exhaustively at dim 18
    sub = gamma_basis(alg21)
    rows = sub.basis
    assert contains_rows(sub, rows[:, alg21.group.inv_perm])
    prods = []
    for i in range(rows.shape[0]):
        for j in range(rows.shape[0]):
            prods.append(alg21.mul_coeffs(rows[i], rows[j]))
    assert contains_rows(sub, np.stack(prods))
    # and it is a two-sided ideal: closed under multiplication by G
    for g in range(21):
        eg = alg21.basis(g).coeffs
        left = np.stack([alg21.mul_coeffs(eg, rows[i]) for i in range(rows.shape[0])])
        right = np.stack([alg21.mul_coeffs(rows[i], eg) for i in range(rows.shape[0])])
        assert contains_rows(sub, left) and contains_rows(sub, right)


def test_invert_examples(alg21):
    g = alg21.basis(alg21.group.elem([3], 2))
    ginv = alg21.invert(g)
    assert ginv == alg21.basis(alg21.group.elem([3], 2).inverse())
    a = alg21.basis(alg21.group.generator(1))
    u = alg21.one() + (a - alg21.one())
    ui = alg21.invert(u)
    assert u * ui == alg21.one() and ui * u == alg21.one()
    # the A-sum annihilates (a - 1), so it cannot be a unit
    ahat = alg21.zero()
    for ai in range(7):
        ahat = ahat + alg21.basis(alg21.group.elem([ai], 0))
    assert (ahat * (a - alg21.one())).is_zero()
    with pytest.raises(NotAUnit):
        alg21.invert(ahat)


def test_invert_against_regular_representation(alg21, alg49, alg_c49, rng):
    # the spec's regular-representation solve, kept as an oracle
    for alg in (alg21, alg49, alg_c49):
        for _ in range(10):
            x = random_elem(alg, rng)
            oracle = regular_rep_inverse(alg, x)
            if oracle is None:
                with pytest.raises(NotAUnit):
                    alg.invert(x)
            else:
                assert alg.invert(x) == oracle


def test_invert_is_log_depth(inst19, config_instance, rng, monkeypatch):
    # (1 - g)^-1 by squaring: at most 2 per bit of N, plus x W, W (1 - g)^-1
    # and the x x^-1 = 1 check
    for alg in (inst19.algebra, config_instance("gf49").algebra):
        bound = 2 * alg.nilpotency_index().bit_length() + 3
        units = [x for x in (random_elem(alg, rng) for _ in range(8)) if x.is_unit()][:3]
        assert units
        calls = []
        mul = alg.mul_coeffs

        def counting_mul(x, y):
            calls.append(1)
            return mul(x, y)

        monkeypatch.setattr(alg, "mul_coeffs", counting_mul)
        for x in units:
            calls.clear()
            alg.invert(x)  # checks x x^-1 = 1 itself
            assert 0 < len(calls) <= bound


def test_invert_scales_by_a_scalar_rho_inverse(inst19, monkeypatch, rng):
    # rho(2 + l) = 2 for l in gamma, so W = 1/2: x W and W (1 - g)^-1 are
    # scalings, and no product takes W as an operand
    alg = inst19.algebra
    W = alg.scalar(alg.field.from_code(alg.field.inv(2))).coeffs
    x = alg.scalar(2) + random_gamma(alg, rng)
    operands = []
    mul = alg.mul_coeffs

    def recording_mul(a, b):
        operands.extend([a, b])
        return mul(a, b)

    monkeypatch.setattr(alg, "mul_coeffs", recording_mul)
    inv = alg.invert(x)  # checks x x^-1 = 1 itself
    assert operands and not any(np.array_equal(a, W) for a in operands)
    assert inv.rho_coeffs().tolist() == W[:alg.q].tolist()


@pytest.mark.parametrize("name", ["c7", "c31sq", "gf49"])
def test_invert_solves_no_circulant_for_a_scalar_rho(name, config_instance, rng, monkeypatch):
    # rho(1 + l) = 1 and rho(2 + l) = 2 are inverted in F; b + a1 still takes the
    # circulant solve, and rho(x) = 0 is no unit (c7 multiplies by its table)
    alg = config_instance(name).algebra
    solves = []
    solve = alg.fb.inverse_coeffs

    def recording_solve(w):
        solves.append(w)
        return solve(w)

    monkeypatch.setattr(alg.fb, "inverse_coeffs", recording_solve)
    for x in (alg.one() + random_gamma(alg, rng), alg.scalar(2) + random_gamma(alg, rng)):
        inv = alg.invert(x)  # checks x x^-1 = 1 itself
        assert x * inv == alg.one() and not solves
    a1, b = alg.basis(alg.group.generator(1)), alg.basis(alg.group.b())
    with pytest.raises(NotAUnit):
        alg.invert(a1 - alg.one())
    assert not solves
    x = b + a1
    inv = alg.invert(x)
    assert x * inv == alg.one() and inv * x == alg.one() and len(solves) == 1


@pytest.mark.parametrize("name,products", [("c31sq", 11), ("c7", 5)])
def test_invert_of_one_plus_gamma_takes_exact_products(name, products, config_instance,
                                                       monkeypatch):
    # rho(1 + l) = 1: the factors 1 + g^(2^i) for 2^i < N (N = 61 on c31sq, 7 on
    # c7), two products each after 1 + g, and the x x^-1 = 1 check
    alg = config_instance(name).algebra
    x = alg.one() + random_gamma(alg, np.random.default_rng(2))
    calls = []
    mul = alg.mul_coeffs

    def counting_mul(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(alg, "mul_coeffs", counting_mul)
    inv = alg.invert(x)
    assert len(calls) == products
    monkeypatch.undo()
    assert x * inv == alg.one()


def test_invert_of_one_plus_gamma_transforms_each_operand_once(config_instance, monkeypatch):
    # on c31sq each g^(2^i) is transformed once, for its square and for the
    # product by the running inverse: 1 + 5 + 5 forward transforms in the
    # loop (g, its five squares, the five running inverses) and 2 for the
    # x x^-1 = 1 check, 13 for the 11 products
    alg = config_instance("c31sq").algebra
    x = alg.one() + random_gamma(alg, np.random.default_rng(2))
    counts = {"products": 0, "transforms": 0}
    mul, spectrum = alg.mul_coeffs, alg._spectrum

    def counting_mul(a, b):
        counts["products"] += 1
        return mul(a, b)

    def counting_spectrum(c):
        counts["transforms"] += 1
        return spectrum(c)

    monkeypatch.setattr(alg, "mul_coeffs", counting_mul)
    monkeypatch.setattr(alg, "_spectrum", counting_spectrum)
    inv = alg.invert(x)
    assert counts == {"products": 11, "transforms": 13}
    monkeypatch.undo()
    assert x * inv == alg.one()


def test_invert_reports_non_nilpotent_gamma(alg21, monkeypatch):
    # a wrong index is caught as a raised error, not a silent wrong inverse
    a = alg21.basis(alg21.group.generator(1))
    monkeypatch.setattr(alg21, "nilpotency_index", lambda: 1)
    with pytest.raises(MathDomainError, match="not nilpotent"):
        alg21.invert(a + a)


def test_unit_iff_rho_unit(alg21, rng):
    # v is a unit of FG iff rho(v) is a unit of FB (gamma is nilpotent)
    for _ in range(100):
        x = random_elem(alg21, rng)
        assert x.is_unit() == (regular_rep_inverse(alg21, x) is not None)


def test_nilpotency_index_against_radical_powers(inst7, inst19, inst11, alg_c7sq, alg_c49):
    for alg, N in ((inst7.algebra, 7), (inst19.algebra, 19), (inst11.algebra, 11),
                   (alg_c7sq, 13), (alg_c49, 49)):
        assert alg.nilpotency_index() == N
        assert radical_power_nilpotency(alg) == N


def test_nilpotency_index_closed_form(config_instance, inst31):
    # 1 + sum (p^e_i - 1), on instances too large for the radical-power oracle
    assert config_instance("gf49").algebra.nilpotency_index() == 13
    assert inst31.algebra.nilpotency_index() == 61


def test_one_plus_gamma_exponent(alg21, alg49):
    assert alg21.nilpotency_index() == 7  # Aug(F7 C7)^7 = 0, ^6 != 0
    assert one_plus_gamma_exponent(alg21) == 7
    assert one_plus_gamma_exponent(alg49) == 7
    # exponent divides p^ceil(log_p(dim gamma + 1))
    import math
    bound = 7 ** math.ceil(math.log(alg21.gamma_dim() + 1, 7))
    assert bound % one_plus_gamma_exponent(alg21) == 0


def test_one_plus_gamma_exponent_sampled(alg21, rng):
    # (1 + g)^(p^k) = 1 for 500 sampled g, and fails at k - 1 for some g
    from cqunits.unitgroup import random_gamma
    e = one_plus_gamma_exponent(alg21)
    p = alg21.field.p
    failures_at_lower = 0
    for _ in range(500):
        g = random_gamma(alg21, rng)
        assert (alg21.one() + g) ** e == alg21.one()
        if (alg21.one() + g) ** (e // p) != alg21.one():
            failures_at_lower += 1
    assert failures_at_lower > 0


def test_abelian_c_p_exponent(f7):
    # FA with A = C_7: gamma = Aug(FA), exponent is exactly p
    # (realized inside FG for any valid q; use the ambient 21-dim algebra)
    G = make_group(f7, 3, [7], [[2]])
    alg = GroupAlgebra(f7, G)
    a = alg.basis(alg.group.generator(1))
    g = a - alg.one()
    assert (alg.one() + g) ** 7 == alg.one()
    assert (alg.one() + g) ** 1 != alg.one()


def test_sym_skew_split(alg21, rng):
    one = alg21.one()
    x = alg21.basis(alg21.group.generator(1)) - one
    s1, s2 = x.sym_skew_split()
    assert s1 + s2 == x
    assert s1.star() == s1
    assert s2.star() == -s2
    sym = (x + x.star()).scale(alg21.inv2)
    assert s1 == sym
    y = random_elem(alg21, rng)
    t1, t2 = y.sym_skew_split()
    assert t1 + t2 == y and t1.star() == t1 and t2.star() == -t2
    # symmetric input is fixed
    z = y + y.star()
    assert z.sym_skew_split() == (z, alg21.zero())


def test_sym_skew_subspace_dims(alg21):
    s1, s2 = alg21.sym_skew_subspaces()
    assert s1.dim == 9 and s2.dim == 9  # q (p^n - 1) / 2
    # independent oracle: rank of the +/- eigenprojector images of star
    rows = gamma_basis(alg21).basis
    starred = rows[:, alg21.group.inv_perm]
    half = np.int64(alg21.inv2.code)
    sym = alg21.field.vmul(alg21.field.vadd(rows, starred), half)
    skew = alg21.field.vmul(alg21.field.vsub(rows, starred), half)
    assert L.rank(alg21.field, sym) == 9
    assert L.rank(alg21.field, skew) == 9
    assert contains_rows(s1, sym) and contains_rows(s2, skew)


def test_kernel_of(alg21):
    gamma = gamma_basis(alg21)
    zero_map = lambda row: np.zeros_like(row)
    assert kernel_of(gamma, zero_map).dim == 18
    ident_minus_ident = lambda row: (row - row) % 7
    assert kernel_of(gamma, ident_minus_ident).dim == 18
    # conjugation-by-b minus identity on gamma has kernel of dim p^n - 1 = 6
    b = alg21.basis(alg21.group.b())
    binv = alg21.invert(b)

    def conj_minus_id(row):
        x = alg21.elem(row)
        return ((b * x * binv) - x).coeffs

    assert kernel_of(gamma, conj_minus_id).dim == 6


def test_contains_reads_integers_as_field_codes(alg21, alg49):
    # rows are reduced to codes mod p^f before the exact float product,
    # whose bound holds only for entries below p
    for alg in (alg21, alg49):
        size = alg.field.size
        a, b = alg.basis(alg.group.generator(1)), alg.basis(alg.group.b())
        sub = gamma_basis(alg)
        v = (b * (a - alg.one())).coeffs
        assert contains_rows(sub, v + size * 10 ** 9) and contains_rows(sub, v - size)
        assert not contains_rows(sub, b.coeffs + size * 10 ** 9)


def test_subspace_equality_and_intersection(alg21, rng):
    rows = rng.integers(0, 7, (6, 21)).astype(np.int64)
    s = Subspace(alg21.field, rows)
    shuffled = Subspace(alg21.field, rows[::-1])
    assert s == shuffled  # canonical basis is order independent
    s1, s2 = alg21.sym_skew_subspaces()
    meet = intersect(s1, s2)
    assert meet.dim == 0
    gamma = gamma_basis(alg21)
    assert intersect(s1, gamma).dim == s1.dim


def test_format_roundtrip(alg21, alg49, rng):
    from cqunits.verifier import Instance
    from cqunits.cli import parse_element
    for alg in (alg21, alg49):
        inst = Instance(alg.field, alg.q, alg.group)
        inst.__dict__["algebra"] = alg  # reuse the fixture's algebra
        for _ in range(100):
            x = random_elem(alg, rng)
            assert parse_element(x.format(), inst) == x


def test_scatter_exactness_bound(f7, f49, monkeypatch):
    # the table path sums |G| = 21 products of digits up to (p-1)^2 = 36
    group = make_group(f7, 3, [7], [[2]])
    monkeypatch.setattr(L, "_F64_LIMIT", 36 * 21)
    with pytest.raises(BudgetExceeded):
        GroupAlgebra(f7, group)
    monkeypatch.setattr(L, "_F64_LIMIT", 36 * 21 + 1)
    GroupAlgebra(f7, group)
    # f > 1 builds no table, so its bound does not apply: over GF(49) (each
    # product spread over tensor entries summing to 7) the algebra builds at
    # the limit a table would have reached
    monkeypatch.setattr(L, "_F64_LIMIT", 36 * 21 * 7)
    assert GroupAlgebra(f49, make_group(f49, 3, [7], [[2]]))._mul_flat is None


def test_sym_skew_requires_fixed_point_free_involution(f7, g21):
    alg = GroupAlgebra(f7, g21)
    alg.gamma_star_perm = lambda: np.arange(alg.gamma_dim())
    with pytest.raises(MathDomainError):
        alg.sym_skew_subspaces()


def test_algebra_refuses_a_field_of_another_characteristic(f7, f13):
    # GF(13)[C_7 x| C_3] would call b + a1 a unit, then fail in invert as "not
    # nilpotent within the index of gamma": its a - 1 are not nilpotent
    with pytest.raises(CtxMismatch, match="characteristic 13"):
        GroupAlgebra(f13, make_group(f7, 3, [7], [[2]]))


def test_algebra_shares_only_its_own_fb(f7, f13, g21):
    from cqunits import FBCtx
    fb = FBCtx(f7, 3)
    assert GroupAlgebra(f7, g21, fb).fb is fb
    with pytest.raises(CtxMismatch):
        GroupAlgebra(f7, g21, FBCtx(f13, 3))
