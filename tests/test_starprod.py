import math

import numpy as np
import pytest

from arstat.algebra import (
    HamiltonianSpec,
    StatisticsSpec,
    enumerate_basis,
    hamiltonian,
    ladder_matrices,
    number_operator,
)
from arstat.bargmann import build_quadrature
from arstat.droplet import potential_symbol
from arstat.errors import ArstatError, InvalidSpec
from arstat.starprod import (
    Symbol,
    convergence_study,
    moyal_bracket,
    potential_symbol_handle,
    standard_pair,
    star_exact,
    star_first_order,
    star_quadrature,
    symbol_of,
)

from oracles import fd_gradients


# ----------------------------------------------------------------- symbols

def test_symbol_of_identity_is_one():
    spec = StatisticsSpec(r=2, s=-1, k=4)
    basis = enumerate_basis(spec)
    eye = np.eye(basis.dim, dtype=complex)
    rng = np.random.default_rng(2)
    for _ in range(4):
        z = 0.5 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        assert symbol_of(eye, basis, z) == pytest.approx(1.0, abs=1e-12)


def test_number_symbol_vanishes_at_origin():
    spec = StatisticsSpec(r=2, s=-1, k=4)
    basis = enumerate_basis(spec)
    n0 = number_operator(basis, 0)
    assert symbol_of(n0, basis, np.zeros(2)) == pytest.approx(0.0, abs=1e-14)


def test_hamiltonian_symbol_matches_potential_closed_form():
    spec = StatisticsSpec(r=2, s=-1, k=5)
    basis = enumerate_basis(spec)
    hspec = HamiltonianSpec(e0=0.0, e=(1.3, 0.7))
    h = hamiltonian(basis, hspec)
    rng = np.random.default_rng(9)
    for _ in range(5):
        z = 0.6 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        closed = potential_symbol(spec, hspec, z).exact
        assert symbol_of(h, basis, z) == pytest.approx(closed, abs=1e-10)


# ------------------------------------------------------------- exact star

def test_star_with_identity_is_symbol():
    spec = StatisticsSpec(r=1, s=-1, k=5)
    basis = enumerate_basis(spec)
    eye = np.eye(basis.dim, dtype=complex)
    n0 = number_operator(basis, 0).toarray()
    z = [0.4 + 0.2j]
    assert star_exact(eye, n0, basis, z) == pytest.approx(symbol_of(n0, basis, z))


def test_star_exact_associative():
    spec = StatisticsSpec(r=1, s=-1, k=6)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    kappa = spec.kappa
    a = ladders.plus[0].toarray() / kappa
    b = ladders.minus[0].toarray() / kappa
    c = number_operator(basis, 0).toarray() / kappa
    rng = np.random.default_rng(12)
    for _ in range(10):
        z = [complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))]
        left = star_exact(a @ b, c, basis, z)
        right = star_exact(a, b @ c, basis, z)
        assert abs(left - right) < 1e-10


def test_star_quadrature_matches_matrix_path():
    spec = StatisticsSpec(r=1, s=+1, k=8.0, n_max=40)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    kappa = spec.kappa
    a = ladders.plus[0].toarray() / kappa
    b = ladders.minus[0].toarray() / kappa
    rule = build_quadrature(spec, n_radial=48)
    for z in ([0.3], [0.15 + 0.2j]):
        exact = star_exact(a, b, basis, z)
        quad = star_quadrature(a, b, basis, z, rule, n_angular=33)
        assert abs(exact - quad) < 1e-6


# -------------------------------------------------------------- first order

def test_constant_symbols_multiply_exactly():
    spec = StatisticsSpec(r=1, s=-1, k=5)
    zero = lambda z: np.zeros(1, dtype=complex)
    const_a = Symbol(fn=lambda z: 2.0 + 0j, grad_z=zero, grad_zbar=zero)
    const_b = Symbol(fn=lambda z: -0.5 + 0j, grad_z=zero, grad_zbar=zero)
    val = star_first_order(const_a, const_b, spec, [0.3])
    assert val == pytest.approx(-1.0, abs=1e-12)


def test_holomorphic_second_slot_kills_correction():
    # correction contracts dA/dz with dB/dzbar, so a holomorphic B
    # contributes nothing beyond the plain product
    spec = StatisticsSpec(r=2, s=-1, k=5)
    sym_a = Symbol(
        fn=lambda z: complex(np.sum(np.abs(z) ** 2)),
        grad_z=lambda z: np.conj(z),
        grad_zbar=lambda z: z.copy(),
    )
    sym_b = Symbol(
        fn=lambda z: complex(z[0] * z[1]),
        grad_z=lambda z: np.array([z[1], z[0]]),
        grad_zbar=lambda z: np.zeros(2, dtype=complex),
    )
    z = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    val = star_first_order(sym_a, sym_b, spec, z)
    assert val == pytest.approx(sym_a.value(z) * sym_b.value(z), abs=1e-12)


def test_fd_matches_analytic_gradients():
    spec = StatisticsSpec(r=2, s=+1, k=6.0, n_max=8)
    handle = potential_symbol_handle(spec, [1.0, 0.5])
    z = np.array([0.3 + 0.1j, -0.25 + 0.05j])
    _, dz_a, dzbar_a = handle.jet(z)
    dz_f, dzbar_f = fd_gradients(handle.fn, z)
    assert np.max(np.abs(dz_a - dz_f)) < 1e-6
    assert np.max(np.abs(dzbar_a - dzbar_f)) < 1e-6


def _ladder_family(s, r):
    if s == -1:
        spec = StatisticsSpec(r=r, s=-1, k=7)
    else:
        spec = StatisticsSpec(r=r, s=+1, k=7.0, n_max=80)
    basis = enumerate_basis(spec)
    return spec, basis, ladder_matrices(basis)


@pytest.mark.parametrize("s", [+1, -1])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("pair", ["+-", "-+", "N-", "+N", "NN"])
def test_first_order_is_exact_on_linear_pairs(s, r, pair):
    # a^+ is holomorphic, a^- antiholomorphic and N one of each, so the
    # first-order product closes exactly on these pairs: whatever the
    # star product leaves must be round-off in the symbol gradients
    spec, basis, ladders = _ladder_family(s, r)
    ops = {"+": ladders.plus[0], "-": ladders.minus[0], "N": number_operator(basis, 0)}
    a, b = ops[pair[0]], ops[pair[1]]
    z = np.array([0.3 + 0.1j, -0.2 + 0.15j][:r])
    first = star_first_order(Symbol.from_operator(a, ladders), Symbol.from_operator(b, ladders), spec, z)
    exact = star_exact(a, b, basis, z)
    assert abs(first - exact) <= 1e-13 * abs(exact)


@pytest.mark.parametrize("s", [+1, -1])
@pytest.mark.parametrize(
    "pair_name",
    ["raise_sq_lower_sq", "number_sq_lower_sq", "number_raise_sq_lower_sq"],
)
def test_operator_gradients_match_fd_oracle(s, pair_name):
    if s == -1:
        spec = StatisticsSpec(r=1, s=-1, k=20)
    else:
        spec = StatisticsSpec(r=1, s=+1, k=20.0, n_max=60)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    z = np.array([0.3 + 0.1j])
    for op in standard_pair(pair_name)(basis, ladders):
        _, dz, dzbar = Symbol.from_operator(op, ladders).jet(z)
        dz_f, dzbar_f = fd_gradients(lambda w: symbol_of(op, basis, w), z)
        assert np.max(np.abs(dz - dz_f)) < 1e-8
        assert np.max(np.abs(dzbar - dzbar_f)) < 1e-8


def test_potential_handle_value_matches_droplet_module():
    spec = StatisticsSpec(r=2, s=-1, k=7)
    hspec = HamiltonianSpec(e0=0.0, e=(1.0, 0.5))
    handle = potential_symbol_handle(spec, hspec.e)
    z = np.array([0.4, 0.3 - 0.2j])
    assert handle.value(z) == pytest.approx(potential_symbol(spec, hspec, z).exact)


# ------------------------------------------------------------ Moyal bracket

def test_moyal_self_bracket_vanishes():
    spec = StatisticsSpec(r=1, s=-1, k=8)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    a = (ladders.plus[0] @ ladders.plus[0]).toarray() / spec.kappa**2
    sym = Symbol.from_operator(a, ladders)
    assert abs(moyal_bracket(sym, sym, spec, [0.3])) < 1e-12


def test_moyal_antisymmetry():
    spec = StatisticsSpec(r=1, s=-1, k=8)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    a = (ladders.plus[0] @ ladders.plus[0]).toarray() / spec.kappa**2
    b = (ladders.minus[0] @ ladders.minus[0]).toarray() / spec.kappa**2
    sym_a, sym_b = Symbol.from_operator(a, ladders), Symbol.from_operator(b, ladders)
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = [complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))]
        fwd = moyal_bracket(sym_a, sym_b, spec, z)
        rev = moyal_bracket(sym_b, sym_a, spec, z)
        assert abs(fwd + rev) < 1e-12


def test_moyal_tracks_commutator_symbol():
    spec = StatisticsSpec(r=1, s=-1, k=120)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    a = (ladders.plus[0] @ ladders.plus[0]).toarray() / spec.kappa**2
    b = (ladders.minus[0] @ ladders.minus[0]).toarray() / spec.kappa**2
    sym_a, sym_b = Symbol.from_operator(a, ladders), Symbol.from_operator(b, ladders)
    z = [0.35]
    comm = symbol_of(a @ b - b @ a, basis, z)
    bracket = moyal_bracket(sym_a, sym_b, spec, z)
    assert abs(comm) > 1e-3  # genuinely non-commuting
    assert abs(comm - bracket) < abs(comm) * 0.05


def test_moyal_bilinear_and_leibniz_on_products():
    # with analytic symbols the first-order bracket obeys the product rule
    # exactly: {A, BC} = B {A, C} + C {A, B}
    spec = StatisticsSpec(r=1, s=-1, k=9)

    def make(fz, gz, gzbar):
        return Symbol(fn=fz, grad_z=gz, grad_zbar=gzbar)

    a = make(lambda z: complex(z[0] + np.conj(z[0])),
             lambda z: np.ones(1, complex),
             lambda z: np.ones(1, complex))
    b = make(lambda z: complex(z[0] * np.conj(z[0])),
             lambda z: np.conj(z),
             lambda z: z.copy())
    c = make(lambda z: complex(1j * (np.conj(z[0]) - z[0])),
             lambda z: np.full(1, -1j),
             lambda z: np.full(1, 1j))

    bc = make(
        lambda z: b.fn(z) * c.fn(z),
        lambda z: b.grad_z(z) * c.fn(z) + b.fn(z) * c.grad_z(z),
        lambda z: b.grad_zbar(z) * c.fn(z) + b.fn(z) * c.grad_zbar(z),
    )
    z = np.array([0.4 + 0.25j])
    lhs = moyal_bracket(a, bc, spec, z)
    rhs = b.value(z) * moyal_bracket(a, c, spec, z) + c.value(z) * moyal_bracket(a, b, spec, z)
    assert lhs == pytest.approx(rhs, abs=1e-14)

    # bilinearity in the first slot
    two_a = make(lambda z: 2.0 * a.fn(z), lambda z: 2.0 * a.grad_z(z), lambda z: 2.0 * a.grad_zbar(z))
    assert moyal_bracket(two_a, b, spec, z) == pytest.approx(
        2.0 * moyal_bracket(a, b, spec, z), abs=1e-14
    )


# ------------------------------------------------------- convergence study

def _fermionic_spec(k):
    return StatisticsSpec(r=1, s=-1, k=int(k))


def test_identity_pair_degenerate():
    study = convergence_study(
        [10, 20, 40],
        _fermionic_spec,
        standard_pair("identity"),
        points=[[0.3]],
    )
    assert study.star_fit.degenerate
    assert study.bracket_fit.degenerate
    assert max(study.star_errors) < 1e-14


def test_commuting_pair_degenerate():
    study = convergence_study(
        [10, 20, 40],
        lambda k: StatisticsSpec(r=2, s=-1, k=int(k)),
        standard_pair("commuting_numbers"),
        points=[[0.3, 0.2]],
    )
    assert study.bracket_fit.degenerate
    assert max(study.bracket_errors) < 1e-11


@pytest.mark.parametrize(
    "pair_name",
    ["raise_sq_lower_sq", "number_sq_lower_sq", "number_raise_sq_lower_sq"],
)
def test_remainders_fall_like_k_squared(pair_name):
    study = convergence_study(
        [20, 40, 80],
        _fermionic_spec,
        standard_pair(pair_name),
        points=[[0.3], [0.45 + 0.1j]],
    )
    assert study.star_fit.slope == pytest.approx(-2.0, abs=0.3)
    assert study.bracket_fit.slope == pytest.approx(-2.0, abs=0.3)


def test_bosonic_remainders_fall_like_k_squared():
    study = convergence_study(
        [20, 40, 80],
        lambda k: StatisticsSpec(r=1, s=+1, k=float(k), n_max=60),
        standard_pair("raise_sq_lower_sq"),
        points=[[0.25 + 0.05j]],
    )
    assert study.star_fit.slope == pytest.approx(-2.0, abs=0.3)
    assert study.bracket_fit.slope == pytest.approx(-2.0, abs=0.3)


def test_non_finite_remainder_is_an_error():
    def poisoned(basis, ladders):
        eye = np.eye(basis.dim, dtype=complex)
        return eye * np.nan, eye

    with pytest.raises(ArstatError, match="non-finite"):
        convergence_study([10, 20, 40], _fermionic_spec, poisoned, [[0.3]])


def test_study_input_validation():
    with pytest.raises(InvalidSpec):
        convergence_study([10, 20], _fermionic_spec, standard_pair("identity"), [[0.3]])
    with pytest.raises(InvalidSpec):
        convergence_study([10, 40, 20], _fermionic_spec, standard_pair("identity"), [[0.3]])
    with pytest.raises(InvalidSpec):
        standard_pair("no_such_pair")
