import dataclasses
import math

import numpy as np
import pytest

from arstat.edge import (
    EdgeField,
    action_value,
    build_mode_algebra,
    eom_residual,
    evaluate_component,
    evaluate_field,
    hilbert_dimensions,
    mode_commutator_residual,
    momentum_coefficient_residual,
    momentum_component,
    periodicity_residual,
    random_edge_field,
    sample_field,
)
from arstat.errors import GridError, InvalidSpec, SizeError
from oracles import full_tensor_mode_residual


def single_mode_field():
    # one half-amplitude mode, unit velocity, no winding or zero mode
    return EdgeField(
        velocities=(1.0,),
        winding=(0.0,),
        zero_mode=(0.0,),
        amplitudes=np.array([[0.5]]),
    )


# ------------------------------------------------------------- evaluation

def test_constant_field_is_product_of_zero_modes():
    field = EdgeField(
        velocities=(1.0, 2.0),
        winding=(0.0, 0.0),
        zero_mode=(1.5, -2.0),
        amplitudes=np.zeros((2, 3), dtype=complex),
    )
    assert evaluate_field(field, [0.3, 1.1], 0.7) == pytest.approx(1.5 * -2.0)
    assert evaluate_component(field, 0, 5.0, 3.0) == pytest.approx(1.5)


def test_single_mode_worked_example():
    # Phi(theta, t) = -sin(theta - t)
    field = single_mode_field()
    assert evaluate_field(field, [0.0], 0.0) == pytest.approx(0.0, abs=1e-15)
    assert evaluate_field(field, [math.pi / 2], 0.0) == pytest.approx(-1.0)
    assert evaluate_field(field, [math.pi / 2], math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_field_is_real_for_random_data():
    rng = np.random.default_rng(8)
    field = random_edge_field(2, 4, rng)
    value = evaluate_field(field, [0.3, 2.2], 1.7)
    assert isinstance(value, float)


def test_time_translation_equals_shift():
    rng = np.random.default_rng(5)
    field = EdgeField(
        velocities=(1.3,),
        winding=(0.0,),
        zero_mode=(0.4,),
        amplitudes=0.5 * (rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))),
    )
    e = field.velocities[0]
    delta = 0.83
    thetas = np.linspace(0, 2 * math.pi, 17)
    for th in thetas:
        lhs = evaluate_component(field, 0, th, 1.0 + delta)
        rhs = evaluate_component(field, 0, th - e * delta, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ------------------------------------------------------- residual checks

def test_eom_residual_vanishes_for_solutions():
    rng = np.random.default_rng(42)
    for _ in range(20):
        field = random_edge_field(rng.integers(1, 3), rng.integers(1, 5), rng)
        assert eom_residual(field, n_theta=64) < 1e-12


def test_eom_residual_static_constant_field():
    field = EdgeField(
        velocities=(1.0,),
        winding=(0.0,),
        zero_mode=(2.0,),
        amplitudes=np.zeros((1, 1), dtype=complex),
    )
    assert eom_residual(field) == pytest.approx(0.0, abs=1e-15)


def test_eom_residual_detects_corrupted_drift():
    field = single_mode_field().with_drift_scale(0.5)
    assert eom_residual(field) > 0.1


def test_periodicity_deficit_matches_winding():
    rng = np.random.default_rng(11)
    for _ in range(20):
        field = random_edge_field(2, 3, rng)
        assert periodicity_residual(field) < 1e-12


def test_momentum_reconstruction():
    rng = np.random.default_rng(23)
    field = random_edge_field(2, 4, rng)
    assert momentum_coefficient_residual(field) < 1e-12
    # pointwise identity at t = 0: momentum = winding - d_theta(oscillators)
    theta = np.linspace(0, 2 * math.pi, 9)
    for i in range(field.r):
        values = momentum_component(field, i, theta, 0.0)
        h = 1e-6
        fd = -(
            np.asarray(evaluate_component(field, i, theta + h, 0.0))
            - np.asarray(evaluate_component(field, i, theta - h, 0.0))
        ) / (2 * h)
        assert np.max(np.abs(values - fd)) < 1e-6


# ------------------------------------------------------------------ action

def test_action_vanishes_on_chiral_solutions():
    # zero winding: sampled histories must be torus-periodic for the
    # spectral derivatives inside action_value
    rng = np.random.default_rng(3)
    for r in (1, 2):
        field = random_edge_field(r, 3, rng, velocity_scale=1.0)
        field = EdgeField(
            velocities=tuple(float(round(2 * v)) / 2 for v in field.velocities),
            winding=(0.0,) * r,
            zero_mode=field.zero_mode,
            amplitudes=field.amplitudes,
        )
        # time grid resolving every combination frequency of the product
        n_t, n_th = 64, 32
        period = 4.0 * math.pi  # common period of half-integer velocities
        times = np.arange(n_t) * (period / n_t)
        axes = [np.arange(n_th) * (2 * math.pi / n_th)] * r
        samples = sample_field(field, axes, times)
        s = action_value(samples, field.velocities, times)
        assert abs(s) < 1e-10


def test_action_antichiral_benchmark():
    # Phi = cos(theta + e t): action is -e * pi * T over one period
    e = 1.0
    n_t, n_th = 64, 64
    period = 2.0 * math.pi / e
    times = np.arange(n_t) * (period / n_t)
    theta = np.arange(n_th) * (2 * math.pi / n_th)
    samples = np.cos(theta[None, :] + e * times[:, None])
    s = action_value(samples, [e], times)
    assert s == pytest.approx(-e * math.pi * period, abs=1e-8)


def test_action_zero_field():
    times = np.arange(16) * 0.1
    samples = np.zeros((16, 32))
    assert action_value(samples, [1.0], times) == 0.0


def test_action_gauge_shift_by_time_function():
    rng = np.random.default_rng(9)
    field = random_edge_field(1, 3, rng)
    field = EdgeField(
        velocities=(1.0,),
        winding=field.winding,
        zero_mode=field.zero_mode,
        amplitudes=field.amplitudes,
    )
    n_t, n_th = 32, 64
    period = 2.0 * math.pi
    times = np.arange(n_t) * (period / n_t)
    axes = [np.arange(n_th) * (2 * math.pi / n_th)]
    samples = sample_field(field, axes, times)
    lam = 0.8 * np.sin(times * (2 * math.pi / period))  # periodic gauge shift
    shifted = samples + lam[:, None]
    s0 = action_value(samples, field.velocities, times)
    s1 = action_value(shifted, field.velocities, times)
    assert abs(s1 - s0) < 1e-10


def test_action_nonzero_for_generic_data():
    n_t, n_th = 32, 32
    times = np.arange(n_t) * (2 * math.pi / n_t)
    theta = np.arange(n_th) * (2 * math.pi / n_th)
    samples = np.cos(theta[None, :]) * np.cos(times[:, None]) + 0.3 * np.sin(
        theta[None, :]
    )
    assert abs(action_value(samples, [1.0], times)) > 1e-3


def test_action_grid_errors():
    samples = np.zeros((4, 8))
    with pytest.raises(GridError):
        action_value(samples, [1.0], [0.0, 0.1, 0.3, 0.35])
    with pytest.raises(GridError):
        action_value(samples, [1.0], [0.0, 0.1, 0.2])
    with pytest.raises(InvalidSpec):
        action_value(samples, [1.0, 2.0], np.arange(4) * 0.1)


# ------------------------------------------------------------ mode algebra

def test_mode_vacuum_commutator_expectation():
    algebra = build_mode_algebra(r=1, n_modes=1, level=6)
    a1 = algebra.alpha(0, 1)
    comm = a1 @ algebra.alpha(0, -1) - algebra.alpha(0, -1) @ a1
    vac = np.zeros(algebra.dim)
    vac[0] = 1.0
    assert np.vdot(vac, comm @ vac) == pytest.approx(1.0)


def test_mode_self_commutator_vanishes():
    algebra = build_mode_algebra(r=1, n_modes=2, level=4)
    a = algebra.alpha(0, 1)
    comm = a @ a - a @ a
    assert abs(comm).max() == 0.0


def test_cross_component_modes_commute():
    algebra = build_mode_algebra(r=2, n_modes=2, level=4, zero_dim=4, dim_budget=10**6)
    a = algebra.alpha(0, 1)
    b = algebra.alpha(1, 2)
    comm = (a @ b - b @ a)
    assert comm.nnz == 0 or np.max(np.abs(comm.data)) == 0.0


def test_zero_mode_pair_is_canonical():
    algebra = build_mode_algebra(r=1, n_modes=1, level=4, zero_dim=8)
    x, p = algebra.alpha0(0), algebra.alphabar0(0)
    # axes (zero mode, oscillator) of row and column
    comm = (x @ p - p @ x).toarray().reshape(8, 4, 8, 4)
    # i on zero-mode levels 0..6, the identity on the oscillator factor
    expected = 1j * np.einsum("ab,cd->acbd", np.eye(7), np.eye(4))
    assert np.max(np.abs(comm[:7, :, :7, :] - expected)) < 1e-14


def test_commutator_residual_zero_on_interior():
    for kwargs in [
        dict(r=1, n_modes=2, level=5, zero_dim=5),
        dict(r=2, n_modes=2, level=4, zero_dim=4, dim_budget=10**6),
    ]:
        algebra = build_mode_algebra(**kwargs)
        assert mode_commutator_residual(algebra) < 1e-13


@pytest.mark.parametrize(
    "kwargs", [dict(r=1, n_modes=1, level=6), dict(r=2, n_modes=1, level=6, zero_dim=4)]
)
def test_residual_equals_full_tensor_oracle(kwargs):
    algebra = build_mode_algebra(**kwargs)
    residual = mode_commutator_residual(algebra)
    assert 0.0 < residual < 1e-13
    assert residual == full_tensor_mode_residual(algebra)


@pytest.mark.parametrize("key", [(1, 1), (0, 0)])
def test_residual_detects_a_wrong_lowering_amplitude(key):
    algebra = build_mode_algebra(r=2, n_modes=1, level=6, zero_dim=4)
    b = algebra.lowering[key].copy()
    b[0] *= 1.01  # the entry b[0, 1]
    mutated = dataclasses.replace(algebra, lowering={**algebra.lowering, key: b})
    assert mode_commutator_residual(mutated) > 1e-12
    assert full_tensor_mode_residual(mutated) > 1e-12


def test_residual_detects_two_operators_on_one_factor():
    algebra = build_mode_algebra(r=2, n_modes=1, level=6, zero_dim=4)
    slots = {**algebra.slots, (1, 1): algebra.slots[(0, 1)]}
    mutated = dataclasses.replace(algebra, slots=slots)
    assert mode_commutator_residual(mutated) > 1e-12
    # embedded on one factor, a_1 of both components fail to commute
    assert full_tensor_mode_residual(mutated) > 1e-12


def test_hilbert_dimension_report():
    algebra = build_mode_algebra(r=1, n_modes=2, level=4, zero_dim=8)
    report = hilbert_dimensions(algebra)
    assert report.per_factor == (8, 4, 4)
    assert report.total == 128
    assert algebra.dim == 128
    assert algebra.alpha(0, 1).shape == (128, 128)
    both = build_mode_algebra(r=2, n_modes=2, level=4, zero_dim=8, dim_budget=10**6)
    assert hilbert_dimensions(both).per_factor == (8, 4, 4, 8, 4, 4)
    assert hilbert_dimensions(both).total == 128**2


def test_size_budget_enforced():
    with pytest.raises(SizeError):
        build_mode_algebra(r=2, n_modes=3, level=10, zero_dim=10)
    with pytest.raises(InvalidSpec):
        build_mode_algebra(r=1, n_modes=0, level=4)
    with pytest.raises(InvalidSpec):
        build_mode_algebra(r=1, n_modes=1, level=2)


@pytest.mark.parametrize(
    "name,value",
    [("amplitudes", np.array([[np.inf]])), ("velocities", (np.nan,)),
     ("winding", (np.inf,)), ("zero_mode", (-np.inf,))],
)
def test_edge_field_rejects_non_finite_data(name, value):
    data = dict(velocities=(1.0,), winding=(0.0,), zero_mode=(0.0,), amplitudes=np.array([[0.5]]))
    data[name] = value
    with pytest.raises(InvalidSpec, match=name):
        EdgeField(**data)
