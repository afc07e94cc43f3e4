import tracemalloc

import numpy as np
import pytest

from conftest import CONFIGS

from cqunits import GroupAlgebra, _linalg, algebra, cli, make_field, make_group, unitgroup
from cqunits.cqstruct import FBCtx, ProjVec, from_projections
from cqunits.errors import (BadCentralizerElement, BudgetExceeded, MathDomainError, NotAUnit,
                            NotInGamma, NotInOnePlusGamma, NotSkew, NotUnitary)
from cqunits.unitgroup import (cayley, cayley_inv, centralizer_in_gamma,
                               centralizer_of_b_orbit_form, class_length,
                               random_gamma, random_skew,
                               random_unit_vfg, random_unitary_vfg,
                               sample_disjoint_classes, sqrt_relation_check)
from cqunits.verifier import Instance


@pytest.fixture(scope="module")
def b21(alg21):
    return alg21.basis(alg21.group.b())


@pytest.fixture(scope="module")
def rep_b(alg21, b21):
    return centralizer_in_gamma(alg21, b21)


def test_centralizer_of_one(alg21):
    rep = centralizer_in_gamma(alg21, alg21.one())
    assert rep.dim == 18
    assert rep.sym_dim == 9 and rep.skew_dim == 9


def test_centralizer_of_b(rep_b, alg21):
    assert rep_b.dim == 6  # p^n - 1
    assert rep_b.star_closed
    assert rep_b.sym_dim == 3 and rep_b.skew_dim == 3


def test_centralizer_requires_unit(alg21):
    a = alg21.basis(alg21.group.generator(1))
    ahat = alg21.zero()
    for ai in range(7):
        ahat = ahat + alg21.basis(alg21.group.elem([ai], 0))
    with pytest.raises(NotAUnit):
        centralizer_in_gamma(alg21, ahat)


def test_centralizer_membership(alg21, b21, rep_b, rng):
    # 1 + g commutes with b iff g is in the kernel: exhaustive on the basis,
    # random off-kernel elements must fail
    for i in range(rep_b.kernel.dim):
        g = alg21.elem(rep_b.kernel.basis[i])
        assert (alg21.one() + g) * b21 == b21 * (alg21.one() + g)
    misses = 0
    for _ in range(50):
        g = random_gamma(alg21, rng)
        if not rep_b.kernel.contains(g.coeffs):
            misses += 1
            assert (alg21.one() + g) * b21 != b21 * (alg21.one() + g)
    assert misses > 0


def test_orbit_form_matches_kernel(alg21):
    span, equal = centralizer_of_b_orbit_form(alg21)
    assert span.dim == 6  # q * l = 3 * 2
    assert equal
    # double inclusion, explicitly
    rep = centralizer_in_gamma(alg21, alg21.basis(alg21.group.b()))
    assert span.contains_rows(rep.kernel.basis)
    assert rep.kernel.contains_rows(span.basis)


def test_centralizer_of_b_abelian(alg21):
    # all pairwise products of basis elements commute
    span, _ = centralizer_of_b_orbit_form(alg21)
    rows = span.basis
    for i in range(rows.shape[0]):
        for j in range(i + 1, rows.shape[0]):
            xi, xj = alg21.elem(rows[i]), alg21.elem(rows[j])
            assert xi * xj == xj * xi
    # hence the group 1 + C is abelian
    for i in range(rows.shape[0]):
        for j in range(i + 1, rows.shape[0]):
            u = alg21.one() + alg21.elem(rows[i])
            v = alg21.one() + alg21.elem(rows[j])
            assert u * v == v * u


def test_trivial_orbit_contributes_zero(alg21):
    # orbit sum of {e} minus its size is e - 1 = 0 in the algebra
    ehat = alg21.basis(0) - alg21.scalar(1)
    assert ehat.is_zero()


def test_class_length_examples(alg21, b21, rep_b):
    cl = class_length(alg21, b21, report=rep_b)
    assert (cl.p, cl.exponent) == (7, 12)
    cls = class_length(alg21, b21, starred=True, report=rep_b)
    assert (cls.p, cls.exponent) == (7, 6)
    assert cls.value ** 2 == cl.value
    one_cl = class_length(alg21, alg21.one())
    assert one_cl.value == 1


def test_class_length_not_unitary(alg21):
    two_b = alg21.basis(alg21.group.b()).scale(2)
    with pytest.raises(NotUnitary):
        class_length(alg21, two_b, starred=True)


def test_sqrt_relation(alg21, b21, rep_b):
    assert sqrt_relation_check(alg21, b21, rep_b)
    assert sqrt_relation_check(alg21, alg21.one())
    assert sqrt_relation_check(alg21, b21 * b21)
    with pytest.raises(NotUnitary):
        sqrt_relation_check(alg21, b21.scale(2))


def test_distinct_projection_units_share_centralizer_with_b(alg21, rep_b):
    # F[u] = FB forces C(u) = C(b); check a few distinct-projection units
    fb = alg21.fb
    for vals in ([1, 2, 4], [1, 3, 5], [1, 5, 2]):
        pv = ProjVec(fb, np.array(vals))
        if not pv.has_distinct_projections():
            continue
        u = from_projections(pv).lift(alg21)
        rep = centralizer_in_gamma(alg21, u)
        assert rep.kernel == rep_b.kernel


def test_cayley_examples(alg21):
    assert cayley(alg21.zero()) == alg21.one()
    a = alg21.basis(alg21.group.generator(1))
    ainv = alg21.basis(alg21.group.generator(1).inverse())
    l = ((a - alg21.one()) - (ainv - alg21.one())).scale(alg21.inv2)
    u = cayley(l)
    assert (u * u.star()) == alg21.one()
    assert (u - alg21.one()).in_gamma()
    assert cayley_inv(u) == l
    assert cayley_inv(alg21.one()).is_zero()


def test_cayley_rejections(alg21, b21):
    a = alg21.basis(alg21.group.generator(1))
    with pytest.raises(NotSkew):
        cayley(a - alg21.one())  # not skew
    sk = random_skew(alg21, np.random.default_rng(5))
    with pytest.raises(NotInGamma):
        cayley(sk + b21 - b21 * b21)  # skew but sticks out of gamma
    with pytest.raises(NotUnitary):
        cayley_inv(alg21.one() + (a - alg21.one()).scale(2))  # 1 + 2(a-1)
    with pytest.raises(NotInOnePlusGamma):
        cayley_inv(b21)  # unitary but not in 1 + gamma


def test_cayley_roundtrip_sampling(alg21, rng):
    for _ in range(100):
        l = random_skew(alg21, rng)
        u = cayley(l)
        assert cayley_inv(u) == l
        assert (u * u.star()) == alg21.one()
        assert (u - alg21.one()).in_gamma()


def test_unitary_count_equals_skew_space(alg21):
    # |(1+gamma)_*| = |S2| = p^(f * dim S2) = 7^9; spot-verify the bijection:
    # random 1 + g is unitary iff its Cayley preimage path applies, and every
    # sampled unitary pulls back to a skew element
    s2 = alg21.sym_skew_subspaces()[1]
    assert s2.dim == 9
    rng = np.random.default_rng(99)
    unitary_hits = 0
    for _ in range(300):
        g = random_gamma(alg21, rng)
        u = alg21.one() + g
        if (u * u.star()) == alg21.one():
            unitary_hits += 1
            l = cayley_inv(u)
            assert l.star() == -l and l.in_gamma()
            assert cayley(l) == u
    # unitary elements are a 7^9 / 7^18 fraction of 1 + gamma, so hits are rare
    assert unitary_hits <= 10


def test_semidirect_split_of_units(alg21, rng):
    # every v in V(FG) factors uniquely as (1 + g) * w with w = rho(v)
    for _ in range(1000):
        v = random_unit_vfg(alg21, rng)
        assert v.augmentation() == alg21.field.one()
        w = alg21.from_b_coeffs(v.rho_coeffs())
        u = v * alg21.invert(w)
        assert (u - alg21.one()).in_gamma()
        assert u * w == v


def test_random_unitary_sampler(alg21, rng):
    for _ in range(200):
        v = random_unitary_vfg(alg21, rng)
        assert (v * v.star()) == alg21.one()
        assert v.augmentation() == alg21.field.one()


def test_sample_disjoint_validation(alg21, b21, rep_b):
    z_good = None
    for i in range(rep_b.kernel.dim):
        sk = alg21.elem(rep_b.kernel.basis[i]).sym_skew_split()[1]
        if not sk.is_zero():
            z_good = cayley(sk)
            break
    with pytest.raises(BadCentralizerElement):
        sample_disjoint_classes(alg21, b21, b21, z_good, trials=1)
    a = alg21.basis(alg21.group.generator(1))
    not_central = alg21.one() + (a - alg21.one())
    with pytest.raises(BadCentralizerElement):
        sample_disjoint_classes(alg21, b21, not_central, z_good, trials=1)


def test_sample_disjoint_sanity_and_bound(alg21, b21, rep_b):
    units = []
    for i in range(rep_b.kernel.dim):
        sk = alg21.elem(rep_b.kernel.basis[i]).sym_skew_split()[1]
        if sk.is_zero():
            continue
        u = cayley(sk)
        if u not in units:
            units.append(u)
        if len(units) == 2:
            break
    same = sample_disjoint_classes(alg21, b21, units[0], units[0], trials=5, seed=1)
    assert same.identical_pair_hit
    diff = sample_disjoint_classes(alg21, b21, units[0], units[1], trials=300, seed=1)
    assert not diff.identical_pair_hit
    assert diff.hits_v == 0 and diff.hits_vstar == 0
    assert diff.lower_bound_ok


def test_centralizer_intersection_identity(alg21, b21, rep_b, rng):
    # C(b z) = C(b) ^ C(z) realized at the dimension level: dim C(bz) <= dim C(b)
    for i in range(rep_b.kernel.dim):
        z = alg21.one() + alg21.elem(rep_b.kernel.basis[i])
        rep = centralizer_in_gamma(alg21, b21 * z)
        assert rep.dim <= rep_b.dim


def test_extension_field_centralizer():
    # same group over GF(49): dimensions over F are unchanged
    f49 = make_field(7, 2)
    alg = GroupAlgebra(f49, make_group(f49, 3, [7], [[2]]))
    rep = centralizer_in_gamma(alg, alg.basis(alg.group.b()))
    assert rep.dim == 6
    assert rep.sym_dim == 3 and rep.skew_dim == 3
    cl = class_length(alg, alg.basis(alg.group.b()), report=rep)
    assert (cl.p, cl.exponent) == (7, 2 * 12)


def test_star_closure_cross_check_raises(alg21, b21, monkeypatch):
    # slice dimensions that contradict the membership test are an error
    monkeypatch.setattr(_linalg, "rank", lambda ctx, M: 0)
    with pytest.raises(MathDomainError):
        centralizer_in_gamma(alg21, b21)


def test_fb_units_skip_the_dense_operator(alg21, b21, rep_b, monkeypatch):
    # x in FB never asks for a block wider than q^2; b z is one block of gamma
    widths = []
    solve = unitgroup._block_centralizer

    def record(alg, x, coords):
        widths.append(coords.shape[1])
        return solve(alg, x, coords)

    monkeypatch.setattr(unitgroup, "_block_centralizer", record)
    assert centralizer_in_gamma(alg21, b21).kernel == rep_b.kernel
    for x in (alg21.one(), b21 * b21, b21.scale(2) + alg21.one()):
        centralizer_in_gamma(alg21, x)
    assert widths == [alg21.q ** 2] * 4
    z = alg21.one() + alg21.elem(rep_b.kernel.basis[0])
    centralizer_in_gamma(alg21, b21 * z)
    assert widths[-1] == alg21.gamma_dim()


def test_centralizers_never_invert(alg21, b21, rep_b, monkeypatch):
    # both layouts solve x g - g x = 0, so neither needs x^-1
    z = alg21.one() + alg21.elem(rep_b.kernel.basis[0])
    dense = centralizer_in_gamma(alg21, b21 * z)

    def refuse(self, x):
        raise AssertionError("inverse computed")

    monkeypatch.setattr(GroupAlgebra, "invert", refuse)
    assert centralizer_in_gamma(alg21, b21).kernel == rep_b.kernel
    assert centralizer_in_gamma(alg21, b21 * z).kernel == dense.kernel


def test_oversized_dense_operator_is_refused(alg21, b21, rep_b, monkeypatch):
    # l blocks of size m need 8 (l + 4) m^2 bytes: b z is one block of
    # gamma (m = 18), b the two orbit blocks of size q^2 = 9
    need, need_fb = 8 * (1 + 4) * 18 ** 2, 8 * (2 + 4) * 9 ** 2
    monkeypatch.setattr(algebra, "_physical_memory_bytes", lambda: need - 1)
    z = alg21.one() + alg21.elem(rep_b.kernel.basis[0])
    with pytest.raises(BudgetExceeded, match=f"about {need} bytes") as err:
        centralizer_in_gamma(alg21, b21 * z)
    assert err.value.exit_code == 4
    assert centralizer_in_gamma(alg21, b21).dim == 6  # the orbit blocks still fit
    monkeypatch.setattr(algebra, "_physical_memory_bytes", lambda: need)
    assert centralizer_in_gamma(alg21, b21 * z).dim <= 6
    monkeypatch.setattr(algebra, "_physical_memory_bytes", lambda: need_fb - 1)
    with pytest.raises(BudgetExceeded, match=f"about {need_fb} bytes"):
        centralizer_in_gamma(alg21, b21)


def test_oversized_lazy_basis_is_refused(config_instance, monkeypatch):
    # on gf49 (|G| = 147, f = 2) the 16 orbit blocks of 9 need 8 (16 + 4) 9^2
    # bytes, the 48 dense rows of C(b) 8 * 48 (147 + (1 + 2 * 2) 144): the
    # placed rows, the |G|-wide copy and vsum's two digit-decode temporaries
    need = 8 * 48 * (147 + 5 * 144)
    monkeypatch.setattr(algebra, "_physical_memory_bytes", lambda: need - 1)
    alg = config_instance("gf49").algebra
    rep = centralizer_in_gamma(alg, alg.basis(alg.group.b()))
    assert (rep.dim, rep.skew_dim, rep.star_closed) == (48, 24, True)
    with pytest.raises(BudgetExceeded, match=f"about {need} bytes") as err:
        rep.kernel.basis
    assert err.value.exit_code == 4
    assert cli.main(["sample-disjoint", "--config", str(CONFIGS / "gf49.cfg"),
                     "--trials", "1"]) == 4
    monkeypatch.setattr(algebra, "_physical_memory_bytes", lambda: need)
    assert rep.kernel.basis.shape == (48, 147)


@pytest.mark.parametrize("name", ["gf49", "c31sq"])
def test_lazy_basis_estimate_covers_its_build(name, config_instance, monkeypatch):
    # tracemalloc sees numpy's buffers: one build of C(b) or S2 peaks at the
    # estimate plus index bookkeeping of O(dim + dim gamma) bytes
    estimates = []
    refuse = algebra.refuse_past_memory
    monkeypatch.setattr(algebra, "refuse_past_memory",
                        lambda need, what: estimates.append(need) or refuse(need, what))
    alg = config_instance(name).algebra
    for sub in (centralizer_in_gamma(alg, alg.basis(alg.group.b())).kernel,
                alg.sym_skew_subspaces()[1]):
        tracemalloc.start()
        try:
            sub.basis
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimates[-1] <= peak <= 1.1 * estimates[-1]


def test_block_leak_is_an_error(alg21, b21, monkeypatch):
    # a term that leaves its orbit block means the block structure is wrong
    monkeypatch.setattr(unitgroup, "_orbit_blocks",
                        lambda alg: np.arange(alg.gamma_dim()).reshape(-1, alg.q ** 2))
    with pytest.raises(MathDomainError, match="leaves its orbit block"):
        centralizer_in_gamma(alg21, b21)


def test_every_reader_checks_the_involution(f7, g21, rep_b):
    # an identity "involution" on c7 has fixed points; before the one check
    # the dense path read it unchecked and reported sym_dim 8, skew_dim 0
    inst = Instance(f7, 3, g21)
    alg = inst.algebra
    alg.gamma_star_perm = lambda: np.arange(alg.gamma_dim())
    with pytest.raises(MathDomainError, match="does not pair"):
        centralizer_in_gamma(alg, alg.basis(alg.group.generator(1)))
    with pytest.raises(MathDomainError, match="does not pair"):
        inst.s2_dim
    # rep_b (same group, unpatched algebra) isolates the read of dim S2
    with pytest.raises(MathDomainError, match="does not pair"):
        class_length(alg, alg.basis(alg.group.b()), starred=True, report=rep_b)


@pytest.mark.parametrize("name", ["c7", "gf49"])
def test_starred_class_length_counts_pairs(name, config_instance, monkeypatch):
    # the reference reads dim S2 off the rows of S2, built from its blocks
    ref = config_instance(name).algebra
    b = ref.basis(ref.group.b())
    expect = ref.field.f * (ref.sym_skew_subspaces()[1].basis.shape[0]
                            - centralizer_in_gamma(ref, b).skew_dim)

    def refuse(self):
        raise AssertionError("S1/S2 reached")

    monkeypatch.setattr(GroupAlgebra, "sym_skew_subspaces", refuse)
    alg = config_instance(name).algebra
    assert class_length(alg, alg.basis(alg.group.b()), starred=True).exponent == expect
