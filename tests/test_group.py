import itertools
import tracemalloc

import numpy as np
import pytest

from cqunits import GroupAlgebra, _memory, cli, group, make_field, make_group, orbits, verifier
from cqunits.errors import (ActionOrderWrong, BudgetExceeded, CtxMismatch, NotAutomorphism,
                            NotFixedPointFree, NotPrime)
from cqunits.verifier import make_instance
from conftest import CONFIGS


def test_make_group_c7_c3(f7, g21):
    assert g21.order == 21
    assert g21.n == 1 and g21.q == 3
    # a -> a^2 has order 3 on C_7 and fixes only e: checked exhaustively
    sigma = g21.sigma_pows[1]
    assert sorted(sigma.tolist()) == list(range(7))
    assert [i for i in range(7) if sigma[i] == i] == [0]


def test_make_group_rejections(f7, f31, deadline):
    with pytest.raises(ActionOrderWrong):
        make_group(f7, 3, [7], [[1]])  # identity action
    with pytest.raises(ActionOrderWrong):
        make_group(f7, 3, [7], [[3]])  # 3 has order 6 mod 7
    with pytest.raises(NotFixedPointFree):
        make_group(f31, 3, [31, 31], [[5, 0], [0, 1]])  # second factor fixed
    with pytest.raises(NotAutomorphism):
        make_group(f7, 3, [7, 7], [[2, 0]])  # wrong matrix shape
    with pytest.raises(NotAutomorphism, match="ragged rows"):
        make_group(f7, 3, [7, 7], [[2, 0], [0]])
    with pytest.raises(NotAutomorphism):
        make_group(f7, 3, [7], [[0]])  # not invertible
    with pytest.raises(NotPrime):
        make_group(f7, 7, [7], [[2]])  # q = p
    with pytest.raises(NotPrime):
        make_group(f7, 9, [7], [[2]])  # q not prime
    for factor in (0, -7, 1):  # 0 once divided by p forever
        with pytest.raises(NotPrime, match="not a positive power of p"):
            make_group(f7, 3, [factor], [[2]])


def test_make_group_c31_squared(f31):
    G = make_group(f31, 5, [31, 31], [[16, 0], [0, 8]])
    assert G.order == 5 * 961
    # eigenvalues != 1 means only the identity is fixed; checked exhaustively
    sigma = G.sigma_pows[1]
    assert np.count_nonzero(sigma == np.arange(961)) == 1


def test_multiply_examples(g21):
    e = g21.identity()
    a = g21.generator(1)
    b = g21.b()
    for j in range(3):
        for ai in range(7):
            x = g21.elem([ai], j)
            assert e * x == x and x * e == x
    # b a b^-1 = sigma^-1(a) = a^4 (the inverse of squaring mod 7)
    assert b * a * b.inverse() == a ** 4
    # and sigma(a) = b^-1 a b = a^2
    assert b.inverse() * a * b == a ** 2


def test_multiply_associative_exhaustive(g21):
    mul = g21.mul_table
    for x, y, z in itertools.product(range(21), repeat=3):
        assert mul[mul[x, y], z] == mul[x, mul[y, z]]


@pytest.mark.parametrize("p,q,factors,action", [
    (7, 3, [7], [[2]]),        # order 21
    (13, 3, [13], [[3]]),      # order 39
    (11, 5, [11], [[3]]),      # order 55
    (19, 3, [19], [[7]]),      # order 57
    (7, 3, [7, 7], [[2, 0], [0, 4]]),  # order 147
])
def test_corpus_groups_group_axioms_exhaustive(p, q, factors, action):
    # exhaustive associativity and inverses on every test group of order <= 200
    G = make_group(make_field(p), q, factors, action)
    assert G.order <= 200
    mul = G.mul_table
    n = G.order
    x = np.arange(n)
    left = mul[mul[x[:, None, None], x[None, :, None]], x[None, None, :]]
    right = mul[x[:, None, None], mul[x[None, :, None], x[None, None, :]]]
    assert np.array_equal(left, right)
    inv = G.inv_perm
    assert np.array_equal(mul[x, inv[x]], np.zeros(n, dtype=np.int64))
    assert np.array_equal(mul[inv[x], x], np.zeros(n, dtype=np.int64))


def test_inverses_exhaustive(g21):
    for g in g21.elements():
        assert g * g.inverse() == g21.identity()
        assert g.inverse() * g == g21.identity()


def test_mixed_group_operands(f7, g21):
    other = make_group(f7, 3, [7], [[4]])
    with pytest.raises(CtxMismatch):
        next(g21.elements()) * next(other.elements())


def test_orbits_c7(g21):
    table = orbits(g21)
    members = [m for _, m in table.orbits]
    assert members[0] == (0,)
    assert sorted(map(sorted, members[1:])) == [[1, 2, 4], [3, 5, 6]]
    assert table.l == 2


def test_orbit_count_formula(f7, f31, f11):
    for fld, q, factors, action in (
        (f7, 3, [7], [[2]]),
        (f11, 5, [11], [[3]]),
        (f31, 5, [31, 31], [[16, 0], [0, 8]]),
    ):
        G = make_group(fld, q, factors, action)
        table = orbits(G)
        assert table.l == (G.abelian.order - 1) // q
        for _, members in table.nontrivial:
            assert len(members) == q


def test_orbits_sigma_invariant(g21, f31):
    for G in (g21, make_group(f31, 5, [31, 31], [[16, 0], [0, 8]])):
        table = orbits(G)
        sigma = G.sigma_pows[1]
        for rep, members in table.orbits:
            assert set(int(sigma[m]) for m in members) == set(members)
            # listed from its least element, in the order sigma walks it
            assert rep == members[0] == min(members)
            assert [int(sigma[m]) for m in members] == list(members[1:] + members[:1])
        reps = [rep for rep, _ in table.orbits]
        assert reps == sorted(reps)
        assert sorted(m for _, ms in table.orbits for m in ms) == list(range(G.abelian.order))


def test_c31sq_orbit_count(f31):
    G = make_group(f31, 5, [31, 31], [[16, 0], [0, 8]])
    assert orbits(G).l == 960 // 5


def test_action_matrix_reduced_mod_orders(f7):
    # entries outside [0, order) reduce on input
    G1 = make_group(f7, 3, [7], [[2]])
    G2 = make_group(f7, 3, [7], [[9]])  # 9 = 2 mod 7
    assert np.array_equal(G1.action.matrix, G2.action.matrix)


def test_element_index_roundtrip(g21):
    for idx in range(21):
        g = g21.elements()
        from cqunits.group import GroupElem
        e = GroupElem(g21, idx)
        assert e.a_index * 3 + e.b_exp == idx
        assert g21.elem(list(e.a_exps), e.b_exp).idx == idx


def test_mixed_factor_group(f7):
    # A = C_7 x C_49 with an order-3 action only on the homocyclic layer is
    # not fixed-point-free; a valid example needs both factors moved
    with pytest.raises(NotFixedPointFree):
        make_group(f7, 3, [7, 7], [[2, 0], [0, 1]])
    # diag(2, 4) works on C_7 x C_7: both squaring maps have order 3
    G = make_group(f7, 3, [7, 7], [[2, 0], [0, 4]])
    assert G.order == 147
    assert orbits(G).l == 48 // 3


def test_algebra_above_table_limit_builds_no_table():
    # |G| = 2883, past the algebra's table limit: no |G|^2 table is built that
    # products would not use
    inst = make_instance(31, 1, 3, [31, 31], [[5, 0], [0, 25]])
    alg, G = inst.algebra, inst.group
    assert alg._mul_flat is None and "mul_table" not in vars(G)
    b, a = G.b(), G.generator(1)
    assert alg.basis(b) * alg.basis(a) == alg.basis(G.mul_idx(b.idx, a.idx))


def algebra_of(name, config_instance):
    """The config's algebra, or for c49x7 (A = C_49 x C_7, upper-triangular action,
    a lead axis of 49) one built here."""
    if name != "c49x7":
        return config_instance(name).algebra
    f7 = make_field(7)
    return GroupAlgebra(f7, make_group(f7, 3, [49, 7], [[18, 7], [0, 2]]))


@pytest.mark.parametrize("name", ["c7", "c19", "f11c5", "c31sq", "gf49", "c49x7"])
def test_char_gather_is_the_spectrum_of_sigma_t(name, config_instance):
    # the algebra's gather at [s, i], read off [spectra of the y_j; their conjugates],
    # against rfftn of y_(s - i)[sigma_pows[i]]; c49x7 mixes the coordinates
    alg = algebra_of(name, config_instance)
    G, q = alg.group, alg.q
    shape = G.abelian.factors
    ys = np.random.default_rng(3).random((q, G.abelian.order))
    FY = np.stack([np.fft.rfftn(y.reshape(shape)).ravel() for y in ys])
    gather = alg._dft[1]
    assert gather.shape == (q, q, FY.shape[1])
    spectra = np.concatenate([FY, FY.conj()]).ravel()
    for i in range(q):
        for s in range(q):
            expect = np.fft.rfftn(ys[(s - i) % q][G.sigma_pows[i]].reshape(shape)).ravel()
            assert np.abs(spectra[gather[s, i]] - expect).max() <= 1e-9 * np.abs(expect).max()


@pytest.mark.parametrize("name", ["c7", "c31sq", "gf49_c7cube", "c49x7"])
def test_dft_matrices_give_rfftn_and_back(name, config_instance):
    # the algebra's forward gemms give rfftn's stored half spectrum, and its
    # inverse gemms take it back; c49x7 has a lead axis of 49
    alg = algebra_of(name, config_instance)
    G = alg.group
    *lead, n = shape = G.abelian.factors
    forward, inverse = alg._dft[0]
    assert all(W.flags.c_contiguous for W in forward + inverse)

    def along_lead(S, mats):
        for a, W in enumerate(mats[:-1]):
            S = np.matmul(W, S.reshape(int(np.prod(lead[:a])), lead[a], -1))
        return S.reshape(-1, n // 2 + 1)

    y = np.random.default_rng(5).random(G.abelian.order)
    S = along_lead((y.reshape(-1, n) @ forward[-1]).view(np.complex128), forward)
    expect = np.fft.rfftn(y.reshape(shape)).reshape(S.shape)
    assert np.abs(S - expect).max() <= 1e-12 * G.abelian.order
    back = along_lead(S, inverse).view(np.float64) @ inverse[-1]
    assert np.abs(back.ravel() - y).max() <= 1e-12 * G.abelian.order


def exponent_row_product(G, x, y):
    """Index of x y from whole exponent rows of A, the reference for `mul_idx`,
    which sums one axis of A at a time."""
    q = G.q
    a1, i, a2, j = x // q, x % q, y // q, y % q
    c = G.sigma_pows[(q - i) % q, a2]
    return G._encode_a(G.a_exps[a1] + G.a_exps[c]) * q + (i + j) % q


@pytest.mark.parametrize("name", ["c7", "c19", "f11c5", "c197"])
def test_row_block_table_matches_the_broadcast_table(name, config_instance):
    # the table, one mul_idx broadcast, is the one whole broadcast of exponent
    # rows built, entry for entry, and the algebra reads it where it takes the
    # table route (not on c197)
    alg = config_instance(name).algebra
    G = alg.group
    g = np.arange(G.order)
    x, y = np.meshgrid(g, g, indexing="ij")
    assert np.array_equal(G.mul_table, exponent_row_product(G, x, y))
    if alg._mul_flat is not None:
        assert np.shares_memory(alg._mul_flat, G.mul_table)


@pytest.mark.parametrize("name", ["c31sq", "c43cube", "gf81_c3e8"])
def test_mul_idx_matches_exponent_rows_past_the_table(name, config_instance):
    # the table test stops at |G| = 1379; here two and three axes of A and a
    # companion action, on broadcast pairs (the first and last b-exponents and
    # elements included), on scalar pairs, and on one element against all of G
    G = config_instance(name).group
    local, n, q = np.random.default_rng(13), G.order, G.q
    x = np.concatenate([[0, 1, q - 1, n - 1], local.integers(0, n, 36)])[:, None]
    y = np.concatenate([[0, q - 1, n - q, n - 1], local.integers(0, n, 56)])[None, :]
    assert np.array_equal(G.mul_idx(x, y), exponent_row_product(G, x, y))
    for g1, g2 in local.integers(0, n, (20, 2)).tolist():
        got = G.mul_idx(g1, g2)
        assert np.ndim(got) == 0 and got == exponent_row_product(G, np.array(g1), np.array(g2))
    h, g = np.arange(n), int(local.integers(n))
    assert np.array_equal(G.mul_idx(g, h), exponent_row_product(G, np.array(g), h))
    assert np.array_equal(G.mul_idx(h, g), exponent_row_product(G, h, np.array(g)))


@pytest.mark.parametrize("name", sorted(c.stem for c in CONFIGS.glob("*.cfg")))
def test_group_estimate_covers_its_build(name, monkeypatch):
    # the refusal's estimate covers the tracemalloc peak of building each
    # config's group, with at most 30 % and 8 KB to spare: 1.03x on gf49_c7cube
    # and gf81_c3e8, 1.04x on c31four and c43cube, 1.09x on c31sq
    needs, peaks = [], []

    def build(*args):
        tracemalloc.start()
        try:
            spec = make_group(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return spec

    monkeypatch.setattr(verifier, "make_group", build)
    monkeypatch.setattr(group, "refuse_past_room", lambda need, what: needs.append(need))
    cli.parse_config((CONFIGS / f"{name}.cfg").read_text())
    (need,), (peak,) = needs, peaks
    assert peak <= need <= 1.3 * peak + 8192


def test_oversized_group_is_refused_before_its_arrays(f31, monkeypatch):
    # A = C_31^5, q = 5 (|G| = 143 145 755): a_exps alone is 1.07 GiB, and
    # under a 1.5 GB cap numpy's MemoryError ended the run with exit 5
    monkeypatch.setattr(_memory, "_physical_memory_bytes", lambda: 1_500_000_000)
    action = np.diag([16, 16, 16, 16, 8]).tolist()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=r"\|G\| = 143145755 need about 5496805184 "):
            make_group(f31, 5, [31] * 5, action)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # |A| = 31^13 is past int64: the order is exact (np.prod wrapped it to 5.97e18)
    with pytest.raises(BudgetExceeded, match=rf"\|G\| = {5 * 31 ** 13} need"):
        make_group(f31, 5, [31] * 13, np.diag([16] * 12 + [8]).tolist())
