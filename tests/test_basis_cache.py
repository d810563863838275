"""The per-basis arrays cached on FockBasis and the consumers that read them."""

import dataclasses

import numpy as np
import pytest

import arstat.algebra
import arstat.bargmann
from arstat.algebra import LadderOperators, Shift, StatisticsSpec, enumerate_basis, ladder_matrices
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
    # the cached table reads every log-gamma value through algebra's helper
    log_gamma = arstat.algebra._log_gamma

    def counting_scalar(*args):
        scalar_calls.append(args)
        return scalar(*args)

    def counting_gammaln(x):
        gammaln_calls.append(x)
        return log_gamma(x)

    monkeypatch.setattr(arstat.bargmann, "log_coefficient", counting_scalar)
    monkeypatch.setattr(arstat.algebra, "_log_gamma", counting_gammaln)
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


# the shifts each CSR view of LadderOperators is built from
SHIFTS = {"minus": "lowering", "plus": "raising"}


def _with_entry(ladders: LadderOperators, which: str, mode: int, row: int, col: int, value: float):
    """The ladders with row ``row`` of a_mode^- (``which="minus"``) or
    a_mode^+ (``"plus"``) holding ``value`` in column ``col``, set in the
    shift's arrays; the row's previous entry, if any, is replaced."""
    ops = list(getattr(ladders, SHIFTS[which]))
    source, weight = ops[mode].source.copy(), ops[mode].weight.copy()
    source[row], weight[row] = col, value
    ops[mode] = Shift(source, weight)
    return dataclasses.replace(ladders, **{SHIFTS[which]: tuple(ops)})


def test_differential_check_catches_a_wrong_amplitude():
    spec = StatisticsSpec(r=2, s=-1, k=5)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    row, col = basis.state_index((0, 1)), basis.state_index((1, 1))
    assert ladders.lowering[0].source[row] == col
    wrong = ladders.lowering[0].weight[row].real * 1.01
    report = differential_realization_check(spec, basis, 4, _with_entry(ladders, "minus", 0, row, col, wrong))
    assert report.lower_residual > 1e-3
    assert report.raise_residual < 1e-12


def test_differential_check_catches_an_entry_moved_to_another_column():
    # the amplitude is right, but it sits in the column of |0, 2>, not |1, 1>
    spec = StatisticsSpec(r=2, s=-1, k=5)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    row = basis.state_index((0, 1))
    amplitude = ladders.lowering[0].weight[row].real
    moved = _with_entry(ladders, "minus", 0, row, basis.state_index((0, 2)), amplitude)
    report = differential_realization_check(spec, basis, 4, moved)
    assert report.lower_residual == pytest.approx(amplitude)
    assert report.raise_residual < 1e-12


def test_differential_check_catches_a_stray_entry_past_the_cap():
    # the top grade has no admissible raise, so its columns must stay empty
    spec = StatisticsSpec(r=2, s=-1, k=4)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    top = basis.state_index((3, 0))
    # the vacuum row of a raiser is empty, so the stray entry is its one entry
    assert ladders.raising[1].weight[0] == 0.0
    report = differential_realization_check(spec, basis, 3, _with_entry(ladders, "plus", 1, 0, top, 0.5))
    assert report.raise_residual == pytest.approx(0.5)
    # columns above n_cap are not compared
    report = differential_realization_check(spec, basis, 2, _with_entry(ladders, "plus", 1, 0, top, 0.5))
    assert report.max_residual < 1e-12


def test_log_coefficients_against_40_digit_references():
    # each table entry is one lgamma difference: 2.7e-12 at most here, where
    # scipy's gammaln gave 4.1e-12 and cumulative sums of ln(k - m) and ln m
    # gave 1.9e-11
    mpmath = pytest.importorskip("mpmath")
    spec = StatisticsSpec(r=1, s=-1, k=2560)
    basis = enumerate_basis(spec)
    with mpmath.workdps(40):
        k = mpmath.mpf(spec.k)
        exact = [
            0.5 * (mpmath.loggamma(k) - mpmath.loggamma(k - n) - mpmath.loggamma(n + 1))
            for n in range(basis.dim)
        ]
        error = max(abs(mpmath.mpf(float(c)) - e) for c, e in zip(basis.log_coefficients, exact))
    assert basis.occupations[:, 0].tolist() == list(range(basis.dim))
    assert float(error) <= 4.1e-12
