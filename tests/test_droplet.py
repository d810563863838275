import math

import numpy as np
import pytest
from scipy import stats

from arstat.algebra import HamiltonianSpec, StatisticsSpec, enumerate_basis, hamiltonian
from arstat.bargmann import coherent_vector
from arstat.droplet import (
    DropletSpec,
    crossing_rho,
    density_operator,
    droplet_profile,
    husimi,
    husimi_from_matrix,
    mean_occupation,
    potential_symbol,
    rho_from_mean_occupation,
    step_profile_check,
    transition_width,
)
from arstat.errors import CapError, DomainError, InvalidSpec

from oracles import binomial_cdf, negative_binomial_cdf, poisson_cdf


# ---------------------------------------------------------------- projector

def test_density_vacuum_projector():
    spec = StatisticsSpec(r=2, s=-1, k=4)
    basis = enumerate_basis(spec)
    rho0 = density_operator(DropletSpec(spec, N=0), basis).toarray()
    assert np.trace(rho0).real == pytest.approx(1.0)
    assert rho0[0, 0] == 1.0


def test_density_trace_counts_states():
    spec = StatisticsSpec(r=2, s=-1, k=5)
    basis = enumerate_basis(spec)
    rho0 = density_operator(DropletSpec(spec, N=2), basis).toarray()
    assert np.trace(rho0).real == pytest.approx(6.0)


def test_density_idempotent():
    spec = StatisticsSpec(r=2, s=+1, k=3.0, n_max=5)
    basis = enumerate_basis(spec)
    rho0 = density_operator(DropletSpec(spec, N=3), basis).toarray()
    assert np.max(np.abs(rho0 @ rho0 - rho0)) == 0.0


def test_density_box_variant():
    spec = StatisticsSpec(r=2, s=-1, k=5)
    basis = enumerate_basis(spec)
    rho0 = density_operator(DropletSpec(spec, N=4, box=(1, 1)), basis).toarray()
    expected = sum(
        1 for occ in basis.occupations.tolist() if occ[0] <= 1 and occ[1] <= 1
    )
    assert np.trace(rho0).real == pytest.approx(expected)


def test_cap_error():
    spec = StatisticsSpec(r=1, s=-1, k=4)
    with pytest.raises(CapError):
        DropletSpec(spec, N=4)  # cap is k - 1 = 3
    with pytest.raises(CapError):
        DropletSpec(spec, N=-1)


def test_droplet_cap_normalized_to_int():
    spec = StatisticsSpec(r=1, s=+1, k=20.0, n_max=40)
    dspec = DropletSpec(spec, N=5.0)
    assert dspec.N == 5 and type(dspec.N) is int
    assert husimi(dspec, [0.1]) == pytest.approx(husimi(DropletSpec(spec, N=5), [0.1]), abs=0.0)
    for bad in (2.5, float("inf"), float("nan"), "5"):
        with pytest.raises(CapError):
            DropletSpec(spec, N=bad)


# ------------------------------------------------------------------- husimi

def test_husimi_at_origin_is_one():
    for spec in [StatisticsSpec(r=2, s=-1, k=5), StatisticsSpec(r=2, s=+1, k=3.0, n_max=6)]:
        d = DropletSpec(spec, N=2)
        assert husimi(d, np.zeros(spec.r)) == pytest.approx(1.0)


def test_husimi_full_projector_is_unit_everywhere():
    spec = StatisticsSpec(r=2, s=-1, k=4)
    d = DropletSpec(spec, N=spec.total_cap)
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert husimi(d, z) == pytest.approx(1.0, abs=1e-12)


def test_husimi_depends_only_on_moduli():
    spec = StatisticsSpec(r=2, s=-1, k=6)
    d = DropletSpec(spec, N=3)
    z = np.array([0.5, 0.8])
    rotated = z * np.exp(1j * np.array([0.7, -2.1]))
    assert husimi(d, z) == pytest.approx(husimi(d, rotated), rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        StatisticsSpec(r=1, s=-1, k=6),
        StatisticsSpec(r=2, s=-1, k=5),
        StatisticsSpec(r=1, s=+1, k=3.0, n_max=40),
        StatisticsSpec(r=2, s=+1, k=2.5, n_max=40),
    ],
)
def test_husimi_matrix_path_matches_series(spec):
    basis = enumerate_basis(spec)
    d = DropletSpec(spec, N=2)
    rng = np.random.default_rng(4)
    scale = 0.9 if spec.s == -1 else 0.35
    for _ in range(6):
        z = scale * (rng.uniform(-1, 1, spec.r) + 1j * rng.uniform(-1, 1, spec.r)) / math.sqrt(spec.r)
        assert husimi_from_matrix(d, basis, z) == pytest.approx(husimi(d, z), abs=1e-8)
        value = husimi(d, z)
        assert 0.0 <= value <= 1.0


def test_husimi_equals_distribution_cdfs():
    # the exact series is a negative-binomial (bosonic) or binomial
    # (fermionic) distribution function; cross-check against scipy and
    # the log-space oracles
    b = DropletSpec(StatisticsSpec(r=1, s=+1, k=7.0, n_max=60), N=9)
    rho = 0.35
    z = [math.sqrt(rho)]
    expected = stats.nbinom.cdf(9, 7.0, 1.0 - rho)
    assert husimi(b, z) == pytest.approx(expected, abs=1e-12)
    assert husimi(b, z) == pytest.approx(negative_binomial_cdf(7.0, rho, 9), abs=1e-12)

    f = DropletSpec(StatisticsSpec(r=1, s=-1, k=12), N=4)
    rho = 0.8
    z = [math.sqrt(rho)]
    expected = stats.binom.cdf(4, 11, rho / (1.0 + rho))
    assert husimi(f, z) == pytest.approx(expected, abs=1e-12)
    assert husimi(f, z) == pytest.approx(binomial_cdf(11, rho / (1.0 + rho), 4), abs=1e-12)


def test_husimi_large_droplet_interior_value():
    d = DropletSpec(StatisticsSpec(r=1, s=+1, k=200.0, n_max=150), N=100)
    value = husimi(d, [0.5])  # rho = 0.25, k rho = 50
    assert value > 0.99
    assert abs(value - poisson_cdf(50.0, 100)) < 0.01


def test_husimi_domain_error():
    d = DropletSpec(StatisticsSpec(r=1, s=+1, k=3.0, n_max=5), N=2)
    with pytest.raises(DomainError):
        husimi(d, [1.2])


# ------------------------------------------------------------------ profile

def test_profile_monotone_non_increasing():
    for spec, grid in [
        (StatisticsSpec(r=1, s=-1, k=30), np.linspace(0, 3.0, 80)),
        (StatisticsSpec(r=1, s=+1, k=30.0, n_max=25), np.linspace(0, 0.95, 80)),
    ]:
        prof = droplet_profile(DropletSpec(spec, N=8), grid)
        assert np.all(np.diff(prof.value) <= 1e-12)
        assert np.all(prof.value >= 0.0) and np.all(prof.value <= 1.0)


def test_mean_occupation_round_trip():
    spec = StatisticsSpec(r=1, s=-1, k=50)
    for mu in [1.0, 10.0, 30.0]:
        rho = rho_from_mean_occupation(spec, mu)
        assert mean_occupation(spec, rho) == pytest.approx(mu, rel=1e-12)
    # leading order is k * rho
    assert mean_occupation(spec, 1e-4) == pytest.approx(49 * 1e-4, rel=1e-3)


@pytest.mark.parametrize("s", [+1, -1])
@pytest.mark.parametrize("k,N", [(200, 100), (400, 200)])
def test_step_three_point_check(s, k, N):
    spec = StatisticsSpec(r=1, s=s, k=float(k) if s == +1 else k,
                          n_max=4 * N if s == +1 else None)
    check = step_profile_check(DropletSpec(spec, N=N))
    assert check.value_inside > 0.99
    assert check.value_outside < 0.01
    assert abs(check.value_mid - 0.5) < 1.0 / math.sqrt(N)
    assert abs(check.crossing_mu - N) <= math.sqrt(N)


@pytest.mark.parametrize("s", [+1, -1])
def test_transition_width_sharpens(s):
    def width(k, N):
        spec = StatisticsSpec(r=1, s=s, k=float(k), n_max=4 * N if s == +1 else None)
        return step_profile_check(DropletSpec(spec, N=N))

    small, big = width(200, 100), width(400, 200)
    # relative width in the mean-occupancy coordinate shrinks like 1/sqrt(N)
    assert (small.width_mu / 100) / (big.width_mu / 200) >= 1.3
    # in the raw radial coordinate the width scales like sqrt(N)/k
    assert (small.width_rho / math.sqrt(100) * 200) == pytest.approx(
        big.width_rho / math.sqrt(200) * 400, rel=0.25
    )


def test_crossing_level_validation():
    d = DropletSpec(StatisticsSpec(r=1, s=-1, k=40), N=10)
    with pytest.raises(InvalidSpec):
        crossing_rho(d, 1.5)
    rho_half = crossing_rho(d, 0.5)
    assert husimi(d, [math.sqrt(rho_half)]) == pytest.approx(0.5, abs=1e-6)


def test_profile_matches_kahan_series_at_large_cap():
    d = DropletSpec(StatisticsSpec(r=1, s=+1, k=1000.0, n_max=2000), N=2000)
    mu = np.linspace(0.0, 4000.0, 101)
    rho = np.array([rho_from_mean_occupation(d.spec, m) for m in mu])
    expected = [negative_binomial_cdf(1000.0, x, 2000) for x in rho]
    np.testing.assert_allclose(droplet_profile(d, rho).value, expected, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize(
    "spec,N",
    [
        (StatisticsSpec(r=1, s=+1, k=200.0, n_max=400), 100),
        (StatisticsSpec(r=1, s=+1, k=1000.0, n_max=2000), 2000),
        (StatisticsSpec(r=1, s=-1, k=400), 100),
        (StatisticsSpec(r=2, s=-1, k=40), 38),
    ],
)
@pytest.mark.parametrize("level", [1e-3, 0.1, 0.5, 0.9, 0.999])
def test_crossing_inverts_the_profile(spec, N, level):
    d = DropletSpec(spec, N=N)
    rho = crossing_rho(d, level)
    z = np.zeros(spec.r)
    z[0] = math.sqrt(rho)
    assert husimi(d, z) == pytest.approx(level, abs=1e-12)


def test_full_fermionic_droplet_has_no_crossing():
    spec = StatisticsSpec(r=1, s=-1, k=12)
    d = DropletSpec(spec, N=spec.total_cap)
    prof = droplet_profile(d, np.linspace(0.0, 50.0, 11))
    assert np.all(prof.value == 1.0)
    with pytest.raises(InvalidSpec):
        crossing_rho(d, 0.5)


def test_profile_rejects_box_droplet():
    spec = StatisticsSpec(r=2, s=-1, k=5)
    with pytest.raises(InvalidSpec):
        droplet_profile(DropletSpec(spec, N=3, box=(1, 1)), np.linspace(0, 1, 5))


# ------------------------------------------------------- potential symbol

def test_potential_symbol_vanishes_at_origin():
    spec = StatisticsSpec(r=2, s=-1, k=5)
    value = potential_symbol(spec, HamiltonianSpec(e0=0.0, e=(1.0, 1.0)), [0.0, 0.0])
    assert value.exact == 0.0
    assert value.harmonic == 0.0


def test_potential_symbol_matches_matrix_quadratic_form():
    spec = StatisticsSpec(r=2, s=-1, k=5)
    basis = enumerate_basis(spec)
    hspec = HamiltonianSpec(e0=0.0, e=(1.0, 1.0))
    h = hamiltonian(basis, hspec)
    rng = np.random.default_rng(21)
    for _ in range(6):
        z = 0.7 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        vec = coherent_vector(spec, basis, z)
        matrix_value = np.vdot(vec.amplitudes, h @ vec.amplitudes).real
        assert potential_symbol(spec, hspec, z).exact == pytest.approx(matrix_value, abs=1e-10)


def test_potential_symbol_bosonic_matrix_path_within_tail():
    spec = StatisticsSpec(r=1, s=+1, k=4.0, n_max=60)
    basis = enumerate_basis(spec)
    hspec = HamiltonianSpec(e0=0.0, e=(0.8,))
    h = hamiltonian(basis, hspec)
    z = [0.45 + 0.2j]
    vec = coherent_vector(spec, basis, z)
    matrix_value = np.vdot(vec.amplitudes, h @ vec.amplitudes).real
    assert potential_symbol(spec, hspec, z).exact == pytest.approx(matrix_value, abs=1e-8)


def test_potential_symbol_gap_closes_towards_harmonic_well():
    # fixed particle number N, radius rho = N/k: the relative gap between
    # the exact symbol and the harmonic form decays like 1/k
    N = 5.0
    gaps = []
    for k in [50.0, 100.0, 200.0, 400.0]:
        spec = StatisticsSpec(r=1, s=+1, k=k, n_max=10)
        hspec = HamiltonianSpec(e0=0.0, e=(1.0,))
        rho = N / k
        gaps.append(potential_symbol(spec, hspec, [math.sqrt(rho)]).relative_gap)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05
    assert gaps[0] / gaps[-1] == pytest.approx(8.0, rel=0.2)
