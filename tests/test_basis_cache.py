"""The per-basis arrays cached on FockBasis and the consumers that read them."""

import numpy as np
import pytest
from scipy import sparse

import arstat.algebra
import arstat.bargmann
from arstat.algebra import LadderOperators, StatisticsSpec, enumerate_basis, ladder_matrices
from arstat.bargmann import coherent_vector, differential_realization_check, log_coefficient

CACHE_SPECS = [
    StatisticsSpec(r=1, s=-1, k=9),
    StatisticsSpec(r=2, s=-1, k=9),
    StatisticsSpec(r=3, s=-1, k=9),
    StatisticsSpec(r=2, s=+1, k=1000.0, n_max=50),
]
CACHED = ("occupations", "grades", "log_coefficients")


@pytest.mark.parametrize("spec", CACHE_SPECS, ids=lambda s: f"r{s.r}s{s.s:+d}k{s.k:g}")
def test_cached_log_coefficients_match_scalar_formula(spec):
    basis = enumerate_basis(spec)
    scalar = np.array([log_coefficient(spec, occ) for occ in basis.occupations.tolist()])
    np.testing.assert_allclose(basis.log_coefficients, scalar, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("spec", CACHE_SPECS[:2], ids=lambda s: f"r{s.r}")
def test_cached_occupations_and_grades_follow_states(spec):
    basis = enumerate_basis(spec)
    assert basis.occupations.shape == (basis.dim, spec.r)
    assert [basis.state_index(occ) for occ in basis.occupations.tolist()] == list(range(basis.dim))
    assert basis.grades.tolist() == [sum(occ) for occ in basis.occupations.tolist()]
    assert basis.state_indices(basis.occupations).tolist() == list(range(basis.dim))


@pytest.mark.parametrize("name", CACHED)
def test_cached_arrays_are_read_only_and_built_once(name):
    basis = enumerate_basis(StatisticsSpec(r=2, s=-1, k=5))
    array = getattr(basis, name)
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[0] = 7
    assert getattr(basis, name) is array


def test_cache_does_not_change_basis_equality():
    spec = StatisticsSpec(r=2, s=-1, k=4)
    warm, cold = enumerate_basis(spec), enumerate_basis(spec)
    warm.log_coefficients
    assert warm == cold
    assert hash(warm) == hash(cold)


def test_coherent_vector_builds_coefficients_once_per_basis(monkeypatch):
    scalar_calls, gammaln_calls = [], []
    scalar = arstat.bargmann.log_coefficient
    gammaln = arstat.algebra.gammaln

    def counting_scalar(*args):
        scalar_calls.append(args)
        return scalar(*args)

    def counting_gammaln(x):
        gammaln_calls.append(x)
        return gammaln(x)

    monkeypatch.setattr(arstat.bargmann, "log_coefficient", counting_scalar)
    monkeypatch.setattr(arstat.algebra, "gammaln", counting_gammaln)
    spec = StatisticsSpec(r=2, s=-1, k=12)
    basis = enumerate_basis(spec)
    first = coherent_vector(spec, basis, [0.3 + 0.1j, -0.2j])
    built = len(gammaln_calls)
    assert built > 0
    for z in ([0.1, 0.2], [0.4j, -0.3], [0.0, 0.5 + 0.5j]):
        coherent_vector(spec, basis, z)
    assert len(gammaln_calls) == built
    assert scalar_calls == []
    # the cached path still reproduces the per-state amplitudes
    expected = np.array([
        np.exp(scalar(spec, occ)) * np.prod(first.point ** np.array(occ))
        for occ in basis.occupations.tolist()
    ]) / np.exp(first.log_normalization)
    np.testing.assert_allclose(first.amplitudes, expected, rtol=1e-13)


def _with_entry(ladders: LadderOperators, which: str, mode: int, row: int, col: int, value: float):
    ops = list(getattr(ladders, which))
    bumped = ops[mode].tolil()
    bumped[row, col] = value
    ops[mode] = sparse.csr_matrix(bumped)
    return LadderOperators(
        basis=ladders.basis,
        minus=tuple(ops) if which == "minus" else ladders.minus,
        plus=tuple(ops) if which == "plus" else ladders.plus,
    )


def test_differential_check_catches_a_wrong_amplitude():
    spec = StatisticsSpec(r=2, s=-1, k=5)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    row, col = basis.state_index((0, 1)), basis.state_index((1, 1))
    wrong = ladders.minus[0][row, col].real * 1.01
    report = differential_realization_check(spec, basis, 4, _with_entry(ladders, "minus", 0, row, col, wrong))
    assert report.lower_residual > 1e-3
    assert report.raise_residual < 1e-12


def test_differential_check_catches_a_stray_entry_past_the_cap():
    # the top grade has no admissible raise, so its columns must stay empty
    spec = StatisticsSpec(r=2, s=-1, k=4)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    top = basis.state_index((3, 0))
    report = differential_realization_check(spec, basis, 3, _with_entry(ladders, "plus", 1, 0, top, 0.5))
    assert report.raise_residual == pytest.approx(0.5)
    # columns above n_cap are not compared
    report = differential_realization_check(spec, basis, 2, _with_entry(ladders, "plus", 1, 0, top, 0.5))
    assert report.max_residual < 1e-12
