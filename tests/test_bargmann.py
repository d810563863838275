import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arstat.algebra import StatisticsSpec, enumerate_basis, ladder_matrices
from arstat.bargmann import (
    bosonic_tail_bound,
    build_quadrature,
    coefficient,
    coherent_vector,
    differential_realization_check,
    distance_sq,
    identity_resolution_gram,
    integrate,
    measure_density,
    measure_normalization,
    metric,
    monomial_moment,
    orthonormality_gram,
    overlap,
    overlap_from_vectors,
)
from arstat.errors import DomainError, InvalidSpec, TruncationError

from oracles import ladder_chain_coefficient, radial_cutoff_rule

FERMI = StatisticsSpec(r=1, s=-1, k=3)
BOSE = StatisticsSpec(r=1, s=+1, k=2.0, n_max=40)


# ------------------------------------------------------------ coefficients

def test_coefficient_worked_examples():
    assert coefficient(StatisticsSpec(r=2, s=-1, k=4), (0, 0)) == pytest.approx(1.0)
    assert coefficient(FERMI, (2,)) == pytest.approx(1.0)
    assert coefficient(BOSE, (1,)) == pytest.approx(math.sqrt(2.0))


@given(
    s=st.sampled_from([-1, +1]),
    k=st.integers(min_value=3, max_value=8),
    occ=st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
@settings(max_examples=40, deadline=None)
def test_coefficient_matches_ladder_chain_oracle(s, k, occ):
    spec = StatisticsSpec(r=2, s=s, k=k, n_max=6 if s == +1 else None)
    if sum(occ) > spec.total_cap:
        occ = (0, 0)
    assert coefficient(spec, occ) == pytest.approx(
        ladder_chain_coefficient(s, k, occ), rel=1e-12
    )


def test_coefficient_rejects_inadmissible():
    with pytest.raises(InvalidSpec):
        coefficient(FERMI, (5,))


# --------------------------------------------------------- coherent states

def test_coherent_vector_at_origin_is_vacuum():
    for spec in [StatisticsSpec(r=2, s=-1, k=4), StatisticsSpec(r=2, s=+1, k=3.0, n_max=8)]:
        basis = enumerate_basis(spec)
        vec = coherent_vector(spec, basis, np.zeros(spec.r))
        expected = basis.unit_vector((0,) * spec.r)
        assert np.allclose(vec.amplitudes, expected)


def test_coherent_vector_worked_example():
    spec = StatisticsSpec(r=1, s=-1, k=2)
    basis = enumerate_basis(spec)
    vec = coherent_vector(spec, basis, [1.0])
    assert vec.amplitudes == pytest.approx(np.array([1.0, 1.0]) / math.sqrt(2.0))


def test_fermionic_coherent_vector_is_exactly_normalized():
    spec = StatisticsSpec(r=2, s=-1, k=5)
    basis = enumerate_basis(spec)
    rng = np.random.default_rng(7)
    for _ in range(10):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        vec = coherent_vector(spec, basis, z)
        assert np.linalg.norm(vec.amplitudes) == pytest.approx(1.0, abs=1e-12)
        assert vec.tail_bound == 0.0


def test_coherent_vector_past_coefficient_overflow():
    # C_n reaches e^887, and the normalization passes e^709 once |z|^2 > 0.74
    spec = StatisticsSpec(r=1, s=-1, k=2560)
    basis = enumerate_basis(spec)
    rng = np.random.default_rng(7)
    for _ in range(10):
        z = rng.normal(size=1) + 1j * rng.normal(size=1)
        vec = coherent_vector(spec, basis, z)
        assert np.all(np.isfinite(vec.amplitudes))
        assert np.linalg.norm(vec.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_coherent_vector_with_a_vacant_mode():
    # z_1 = 0 contributes z_1^0 = 1 and empties every state occupying mode 1
    spec = StatisticsSpec(r=2, s=-1, k=6)
    basis = enumerate_basis(spec)
    z = np.array([0.0, 0.4 - 0.3j])
    vec = coherent_vector(spec, basis, z)
    occupied = basis.occupations[:, 0] > 0
    assert np.all(vec.amplitudes[occupied] == 0.0)
    raw = np.array([coefficient(spec, occ) * z[1] ** occ[1] for occ in basis.occupations.tolist()])
    raw[occupied] = 0.0
    np.testing.assert_allclose(vec.amplitudes, raw / np.linalg.norm(raw), rtol=1e-13)


def test_bosonic_norm_within_certified_tail():
    spec = StatisticsSpec(r=2, s=+1, k=2.5, n_max=30)
    basis = enumerate_basis(spec)
    z = np.array([0.4 + 0.1j, -0.3j])
    vec = coherent_vector(spec, basis, z)
    deficit = abs(1.0 - np.linalg.norm(vec.amplitudes) ** 2)
    # round-off floor allowance: the true tail here is ~1e-17
    assert deficit <= vec.tail_bound + 1e-13
    assert vec.tail_bound < 1e-10
    # a regime where the tail dominates round-off: the bound must cover it
    loose = StatisticsSpec(r=2, s=+1, k=2.5, n_max=12)
    loose_basis = enumerate_basis(loose)
    vec = coherent_vector(loose, loose_basis, z * 1.4, tail_tol=1e-2)
    deficit = abs(1.0 - np.linalg.norm(vec.amplitudes) ** 2)
    assert 1e-12 < deficit <= vec.tail_bound


def test_coherent_vector_domain_and_truncation_errors():
    basis = enumerate_basis(StatisticsSpec(r=1, s=+1, k=2.0, n_max=5))
    with pytest.raises(DomainError):
        coherent_vector(StatisticsSpec(r=1, s=+1, k=2.0, n_max=5), basis, [1.0])
    with pytest.raises(TruncationError):
        coherent_vector(StatisticsSpec(r=1, s=+1, k=2.0, n_max=5), basis, [0.9])


def test_bosonic_tail_bound_is_a_bound():
    spec = StatisticsSpec(r=1, s=+1, k=3.0, n_max=12)
    basis_small = enumerate_basis(spec)
    big = StatisticsSpec(r=1, s=+1, k=3.0, n_max=220)
    basis_big = enumerate_basis(big)
    for rho in [0.1, 0.3, 0.5]:
        z = [math.sqrt(rho)]
        bound = bosonic_tail_bound(spec, rho, spec.n_max)
        full = coherent_vector(big, basis_big, z, tail_tol=1.0)
        head = coherent_vector(spec, basis_small, z, tail_tol=1.0)
        true_tail = np.linalg.norm(full.amplitudes) ** 2 - np.linalg.norm(head.amplitudes) ** 2
        assert 0.0 <= true_tail <= bound


# ----------------------------------------------------------------- overlap

def test_overlap_at_coincident_points_is_unit():
    rng = np.random.default_rng(3)
    for spec in [StatisticsSpec(r=2, s=-1, k=4), StatisticsSpec(r=2, s=+1, k=3.0, n_max=30)]:
        z = 0.3 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        assert abs(overlap(spec, z, z)) == pytest.approx(1.0, abs=1e-12)


def test_overlap_worked_example_bosonic():
    spec = StatisticsSpec(r=1, s=+1, k=2.0, n_max=40)
    assert overlap(spec, [0.0], [0.5]) == pytest.approx(0.75)


@pytest.mark.parametrize(
    "spec,scale,tol",
    [
        (StatisticsSpec(r=1, s=-1, k=3), 1.5, 1e-10),
        (StatisticsSpec(r=2, s=-1, k=5), 1.0, 1e-10),
        (StatisticsSpec(r=1, s=+1, k=2.0, n_max=60), 0.45, 1e-8),
        (StatisticsSpec(r=2, s=+1, k=2.5, n_max=60), 0.30, 1e-8),
    ],
)
def test_overlap_dual_path(spec, scale, tol):
    basis = enumerate_basis(spec)
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = scale * (rng.uniform(-1, 1, spec.r) + 1j * rng.uniform(-1, 1, spec.r)) / math.sqrt(2 * spec.r)
        w = scale * (rng.uniform(-1, 1, spec.r) + 1j * rng.uniform(-1, 1, spec.r)) / math.sqrt(2 * spec.r)
        closed = overlap(spec, z, w)
        series = overlap_from_vectors(spec, basis, z, w)
        assert abs(closed - series) < tol


def test_overlap_strictly_inside_unit_disc_for_distinct_points():
    spec = StatisticsSpec(r=2, s=-1, k=4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert abs(overlap(spec, z, w)) < 1.0


def test_overlap_decays_with_k_at_fixed_separation():
    z, w = [0.2], [0.6]
    vals = [abs(overlap(StatisticsSpec(r=1, s=-1, k=k), z, w)) for k in (4, 16, 64, 256)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0] * 1e-2


# ---------------------------------------------------------------- distance

def test_distance_zero_iff_equal():
    spec = StatisticsSpec(r=2, s=-1, k=4)
    z = np.array([0.3, -0.2 + 0.4j])
    assert distance_sq(spec, z, z) == pytest.approx(0.0, abs=1e-14)
    assert distance_sq(spec, z, z + 0.1) > 0.0


def test_distance_symmetry_random_pairs():
    specs = [StatisticsSpec(r=2, s=-1, k=5), StatisticsSpec(r=2, s=+1, k=3.0, n_max=10)]
    rng = np.random.default_rng(13)
    for spec in specs:
        for _ in range(20):
            scale = 1.0 if spec.s == -1 else 0.4
            z = scale * (rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2))
            w = scale * (rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2))
            assert abs(distance_sq(spec, z, w) - distance_sq(spec, w, z)) < 1e-12


def test_distance_scales_linearly_in_kernel_exponent():
    # fermionic r=1, z=0: squared distance is (k-1) ln(1 + |w|^2)
    d3 = distance_sq(StatisticsSpec(r=1, s=-1, k=3), [0.0], [1.0])
    d5 = distance_sq(StatisticsSpec(r=1, s=-1, k=5), [0.0], [1.0])
    assert d3 == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    assert d5 / d3 == pytest.approx(2.0, rel=1e-12)


# ------------------------------------------------------------------ metric

def test_metric_at_origin_is_kappa_identity():
    spec = StatisticsSpec(r=1, s=-1, k=3)
    m = metric(spec, [0.0])
    assert m.g == pytest.approx(np.array([[2.0]]))
    assert m.g_inv == pytest.approx(np.array([[0.5]]))


def test_metric_inverse_identity_random_point():
    spec = StatisticsSpec(r=2, s=+1, k=3.5, n_max=10)
    rng = np.random.default_rng(17)
    z = 0.35 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
    m = metric(spec, z)
    assert np.max(np.abs(m.g @ m.g_inv - np.eye(2))) < 1e-10
    assert np.max(np.abs(m.g - m.g.conj().T)) < 1e-12
    assert np.all(np.linalg.eigvalsh(m.g) > 0)


def _mixed_hessian(spec, z, h=1e-4):
    """Central-difference mixed Hessian of the squared distance in w at w=z."""
    r = spec.r

    def value(dx, dy):
        return distance_sq(spec, z, np.asarray(z) + dx + 1j * dy)

    def second(i, j, in_x_i, in_x_j):
        da = np.zeros(r)
        db = np.zeros(r)
        da[i] = h
        db[j] = h
        dxa, dya = (da, np.zeros(r)) if in_x_i else (np.zeros(r), da)
        dxb, dyb = (db, np.zeros(r)) if in_x_j else (np.zeros(r), db)
        if i == j and in_x_i == in_x_j:
            return (value(dxa, dya) - 2.0 * value(np.zeros(r), np.zeros(r)) + value(-dxa, -dya)) / h**2
        return (
            value(dxa + dxb, dya + dyb)
            - value(dxa - dxb, dya - dyb)
            - value(-dxa + dxb, -dya + dyb)
            + value(-dxa - dxb, -dya - dyb)
        ) / (4.0 * h**2)

    hess = np.zeros((r, r), dtype=complex)
    for i in range(r):
        for j in range(r):
            fxx = second(i, j, True, True)
            fyy = second(i, j, False, False)
            fxy = second(i, j, True, False)
            fyx = second(i, j, False, True)
            hess[i, j] = 0.25 * ((fxx + fyy) + 1j * (fxy - fyx))
    return hess


@pytest.mark.parametrize(
    "spec,z",
    [
        (StatisticsSpec(r=1, s=-1, k=3), [0.0]),
        (StatisticsSpec(r=2, s=-1, k=5), [0.3 + 0.1j, -0.2]),
        (StatisticsSpec(r=2, s=+1, k=4.0, n_max=10), [0.25 - 0.15j, 0.1 + 0.2j]),
    ],
)
def test_metric_equals_mixed_hessian_of_distance(spec, z):
    m = metric(spec, z)
    hess = _mixed_hessian(spec, z)
    assert np.max(np.abs(m.g - hess)) < 1e-5


def test_metric_inverse_scales_like_one_over_k():
    z = [0.3 + 0.2j]
    ks = [4.0, 8.0, 16.0, 32.0]
    entries = [abs(metric(StatisticsSpec(r=1, s=+1, k=k, n_max=4), z).g_inv[0, 0]) for k in ks]
    slope = np.polyfit(np.log(ks), np.log(entries), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)
    ks_f = [32, 64, 128, 256]
    entries_f = [abs(metric(StatisticsSpec(r=1, s=-1, k=k), z).g_inv[0, 0]) for k in ks_f]
    slope_f = np.polyfit(np.log(ks_f), np.log(entries_f), 1)[0]
    assert slope_f == pytest.approx(-1.0, abs=0.05)


# ----------------------------------------------------------------- measure

def test_measure_normalization_comparison():
    # fermionic: the quoted factorial ratio agrees with the zero-moment value
    info = measure_normalization(StatisticsSpec(r=2, s=-1, k=4))
    assert info.ratio == pytest.approx(1.0, rel=1e-12)
    # bosonic: quoted constant is off by exactly (k - r)
    info = measure_normalization(StatisticsSpec(r=2, s=+1, k=5.0, n_max=4))
    assert info.ratio == pytest.approx(3.0, rel=1e-12)


def test_bosonic_measure_needs_k_above_r():
    with pytest.raises(InvalidSpec):
        measure_normalization(StatisticsSpec(r=2, s=+1, k=2.0, n_max=4))


def test_measure_density_positive():
    spec = StatisticsSpec(r=2, s=-1, k=4)
    assert measure_density(spec, [0.5, 1.0]) > 0.0
    spec_b = StatisticsSpec(r=1, s=+1, k=2.0, n_max=4)
    assert measure_density(spec_b, [0.7]) > 0.0


@pytest.mark.parametrize("s,k", [(-1, 2), (-1, 3), (-1, 4), (+1, 2.0), (+1, 3.0), (+1, 4.0)])
def test_zero_moment_is_unit_single_mode(s, k):
    spec = StatisticsSpec(r=1, s=s, k=k, n_max=4 if s == +1 else None)
    rule = build_quadrature(spec, n_radial=48)
    assert rule.unit_moment == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize(
    "spec",
    [
        StatisticsSpec(r=2, s=-1, k=4),
        StatisticsSpec(r=2, s=-1, k=6),
        StatisticsSpec(r=2, s=+1, k=4.0, n_max=4),
        StatisticsSpec(r=2, s=+1, k=6.0, n_max=4),
        StatisticsSpec(r=1, s=+1, k=3.0, n_max=4),
        StatisticsSpec(r=1, s=-1, k=5),
    ],
)
def test_orthonormality_gram_is_identity(spec):
    basis = enumerate_basis(spec)
    keep = [i for i, occ in enumerate(basis.occupations.tolist()) if sum(occ) <= min(4, spec.total_cap)]
    rule = build_quadrature(spec, n_radial=48)
    gram = orthonormality_gram(rule, basis)[np.ix_(keep, keep)]
    assert np.max(np.abs(gram - np.eye(len(keep)))) < 1e-6


def test_refinement_stability():
    spec = StatisticsSpec(r=2, s=-1, k=4)
    rule = build_quadrature(spec, n_radial=48)
    fine = build_quadrature(spec, n_radial=96)
    for occ in [(0, 0), (1, 0), (2, 1)]:
        a = monomial_moment(rule, occ, occ)
        b = monomial_moment(fine, occ, occ)
        assert abs(a - b) < 1e-8


def test_angular_moments_vanish_off_diagonal():
    spec = StatisticsSpec(r=1, s=-1, k=4)
    rule = build_quadrature(spec, n_radial=32)

    def f(zs):
        return zs[:, 0] * np.conj(zs[:, 0]) ** 2

    assert abs(integrate(rule, f, n_angular=17)) < 1e-12


def test_constant_integrates_to_total_mass():
    spec = StatisticsSpec(r=1, s=+1, k=3.0, n_max=4)
    rule = build_quadrature(spec, n_radial=32)
    val = integrate(rule, lambda zs: np.ones(zs.shape[0]), n_angular=9)
    assert val == pytest.approx(rule.unit_moment, rel=1e-12)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_identity_resolution_gram():
    spec = StatisticsSpec(r=1, s=-1, k=3)
    basis = enumerate_basis(spec)
    rule = build_quadrature(spec, n_radial=48)
    gram = identity_resolution_gram(rule, basis, n_angular=17)
    assert np.max(np.abs(gram - np.eye(basis.dim))) < 1e-6


@pytest.mark.parametrize(
    "spec",
    [
        StatisticsSpec(r=2, s=-1, k=4),
        StatisticsSpec(r=2, s=+1, k=4.0, n_max=4),
    ],
)
def test_quadrature_weights_positive_nodes_in_domain(spec):
    rule = build_quadrature(spec, n_radial=24)
    assert np.all(rule.weights > 0)
    assert np.all(rule.rho >= 0)
    if spec.s == +1:
        assert np.all(np.sum(rule.rho, axis=1) < 1.0)


def test_cutoff_rule_tail_error_and_agreement():
    spec = StatisticsSpec(r=1, s=-1, k=6)
    _, tail = radial_cutoff_rule(spec, n_radial=64, cutoff=3.0)
    assert tail > 1e-12  # a box too small for the measure
    rule, tail = radial_cutoff_rule(spec, n_radial=256, cutoff=150.0)
    assert tail < 1e-12
    mapped = build_quadrature(spec, n_radial=48)
    for occ in [(0,), (1,), (3,)]:
        assert monomial_moment(rule, occ, occ) == pytest.approx(
            monomial_moment(mapped, occ, occ), abs=1e-5
        )


# ------------------------------------------- differential realization check

def test_differential_realization_matches_matrices():
    cases = [
        (StatisticsSpec(r=1, s=-1, k=3), 2),
        (StatisticsSpec(r=2, s=-1, k=5), 4),
        (StatisticsSpec(r=2, s=+1, k=2.0, n_max=5), 4),
    ]
    for spec, n_cap in cases:
        basis = enumerate_basis(spec)
        report = differential_realization_check(spec, basis, n_cap)
        assert report.max_residual < 1e-12


def test_differential_check_vacuum_lowering_is_zero():
    spec = StatisticsSpec(r=2, s=-1, k=3)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    vac_col = basis.state_index((0, 0))
    for i in range(spec.r):
        assert ladders.minus[i][:, vac_col].nnz == 0


def test_differential_check_single_raise_entry():
    # r=1, s=-1, k=3: the raising image of the monomial for |1> carries
    # factor k - 1 - n_tot = 1, and the matrix entry is sqrt(F(2)) = 2
    spec = StatisticsSpec(r=1, s=-1, k=3)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    c1 = coefficient(spec, (1,))
    c2 = coefficient(spec, (2,))
    factor = spec.k - 1.0 - 1.0
    pulled_back = c1 * factor / c2
    entry = ladders.plus[0][basis.state_index((2,)), basis.state_index((1,))]
    assert entry.real == pytest.approx(pulled_back, rel=1e-12)
    assert entry.real == pytest.approx(math.sqrt(2.0), rel=1e-12)
