import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arstat.algebra import (
    HamiltonianSpec,
    StatisticsSpec,
    Shift,
    basis_dimension,
    commutator_deviation,
    commutator_spectrum_deviation,
    energy_shift,
    enumerate_basis,
    fermionic_dimension,
    hamiltonian,
    hamiltonian_from_commutators,
    ladder_matrices,
    large_k_commutator_deviation,
    number_operator,
    occupation_energies,
    structure_function,
    verify_triple_relations,
)
from arstat.errors import InvalidSpec, ModeOutOfRange

from oracles import (
    brute_force_states,
    csr_commutator_deviation,
    csr_triple_relations,
    dense_commutator_deviation,
    dense_triple_residual_norm,
    ladder_chain_coefficient,
    sparse_ladders,
)
from test_basis_cache import SHIFTS, _with_entry


# ---------------------------------------------------------------- specs

def test_spec_rejects_bad_parameters():
    with pytest.raises(InvalidSpec):
        StatisticsSpec(r=1, s=-1, k=1)  # k >= 2 required
    with pytest.raises(InvalidSpec):
        StatisticsSpec(r=1, s=-1, k=2.5)  # integer k required
    with pytest.raises(InvalidSpec):
        StatisticsSpec(r=1, s=+1, k=3)  # n_max mandatory
    with pytest.raises(InvalidSpec):
        StatisticsSpec(r=1, s=+1, k=1.0, n_max=4)  # 2k - 1 > s fails
    with pytest.raises(InvalidSpec):
        StatisticsSpec(r=0, s=-1, k=3)
    with pytest.raises(InvalidSpec):
        StatisticsSpec(r=2, s=2, k=3)


def test_spec_normalizes_integral_fields():
    spec = StatisticsSpec(r=2.0, s=-1.0, k=5)
    assert (spec.r, spec.s) == (2, -1)
    assert type(spec.r) is int and type(spec.s) is int
    assert enumerate_basis(spec).dim == fermionic_dimension(2, 5)
    bosonic = StatisticsSpec(r=np.int64(1), s=+1, k=3.5, n_max=6.0)
    assert bosonic.n_max == 6 and type(bosonic.n_max) is int
    assert ladder_matrices(enumerate_basis(bosonic)).minus[0].shape == (7, 7)


@pytest.mark.parametrize("fields", [
    dict(r=2.5, s=-1, k=5),
    dict(r="2", s=-1, k=5),
    dict(r=1, s=+1, k=3.5, n_max=6.5),
    dict(r=1, s=+1, k=3.5, n_max=float("inf")),
])
def test_spec_rejects_non_integral_fields(fields):
    with pytest.raises(InvalidSpec):
        StatisticsSpec(**fields)


@pytest.mark.parametrize("s", [-1, +1])
@pytest.mark.parametrize("k", [float("inf"), float("nan"), "4"])
def test_spec_rejects_non_finite_label(s, k):
    with pytest.raises(InvalidSpec):
        StatisticsSpec(r=1, s=s, k=k, n_max=6 if s == +1 else None)


# ---------------------------------------------------------- enumeration

def test_enumeration_matches_worked_example():
    basis = enumerate_basis(StatisticsSpec(r=2, s=-1, k=3))
    assert basis.occupations.tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
    assert basis.dim == fermionic_dimension(2, 3) == math.factorial(4) // (2 * 2)


def test_enumeration_single_mode():
    basis = enumerate_basis(StatisticsSpec(r=1, s=-1, k=2))
    assert basis.occupations.tolist() == [[0], [1]]


def test_enumeration_bosonic_stars_and_bars():
    basis = enumerate_basis(StatisticsSpec(r=3, s=+1, k=2.5, n_max=2))
    assert basis.dim == math.comb(3 + 2, 3) == 10
    assert set(map(tuple, basis.occupations.tolist())) == brute_force_states(3, 2)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("k", range(2, 11))
def test_fermionic_dimension_closed_form(r, k):
    basis = enumerate_basis(StatisticsSpec(r=r, s=-1, k=k))
    assert basis.dim == fermionic_dimension(r, k)
    assert set(map(tuple, basis.occupations.tolist())) == brute_force_states(r, k - 1)


def test_enumeration_no_duplicates_and_deterministic():
    spec = StatisticsSpec(r=3, s=+1, k=4.0, n_max=3)
    b1, b2 = enumerate_basis(spec), enumerate_basis(spec)
    assert np.array_equal(b1.occupations, b2.occupations)
    assert len(set(map(tuple, b1.occupations.tolist()))) == b1.dim


@pytest.mark.parametrize("occ", [(1, 0, 0), (1,)])
def test_state_index_rejects_a_row_of_the_wrong_width(occ):
    basis = enumerate_basis(StatisticsSpec(r=2, s=-1, k=3))
    with pytest.raises(InvalidSpec):
        basis.state_index(occ)
    with pytest.raises(InvalidSpec):
        basis.state_indices(np.array([occ]))


def test_state_index_rejects_a_negative_entry():
    basis = enumerate_basis(StatisticsSpec(r=2, s=-1, k=3))
    with pytest.raises(InvalidSpec):
        basis.state_index((2, -1))
    with pytest.raises(InvalidSpec):
        basis.state_indices(np.array([[0, 0], [-1, 1]]))


@pytest.mark.parametrize("spec", [StatisticsSpec(r=2, s=-1, k=3), StatisticsSpec(r=2, s=+1, k=2.5, n_max=2)])
def test_state_index_rejects_a_total_above_the_cap(spec):
    basis = enumerate_basis(spec)
    with pytest.raises(InvalidSpec):
        basis.state_index((3, 0))
    with pytest.raises(InvalidSpec):
        basis.state_indices(np.array([[0, 0], [2, 1]]))


@st.composite
def accepted_specs(draw):
    r = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        return StatisticsSpec(r=r, s=-1, k=draw(st.integers(min_value=2, max_value=9)))
    k = draw(st.floats(min_value=1.0, max_value=12.0, exclude_min=True))
    return StatisticsSpec(r=r, s=+1, k=k, n_max=draw(st.integers(min_value=0, max_value=8)))


@given(spec=accepted_specs())
@settings(max_examples=60, deadline=None)
def test_basis_rank_and_ladders_on_every_accepted_spec(spec):
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    occ = basis.occupations
    assert np.array_equal(basis.state_indices(occ), np.arange(basis.dim))
    assert basis.dim == basis_dimension(spec)
    if spec.s == -1:
        assert basis_dimension(spec) == fermionic_dimension(spec.r, int(spec.k))
    expected = sorted(
        brute_force_states(spec.r, spec.total_cap), key=lambda n: (sum(n), [-x for x in n])
    )
    assert occ.tolist() == [list(n) for n in expected]
    for i in range(spec.r):
        occupied = int(np.count_nonzero(occ[:, i]))
        assert ladders.minus[i].nnz == ladders.plus[i].nnz == occupied


# ----------------------------------------------------- structure function

def test_structure_function_worked_examples():
    assert structure_function(StatisticsSpec(r=2, s=-1, k=3), (1, 0), 0) == pytest.approx(2.0)
    assert structure_function(StatisticsSpec(r=1, s=+1, k=4, n_max=6), (1,), 0) == pytest.approx(4.0)
    assert structure_function(StatisticsSpec(r=2, s=-1, k=3), (0, 2), 0) == 0.0


def test_structure_function_vanishes_at_exclusion_boundary():
    spec = StatisticsSpec(r=2, s=-1, k=4)
    # total occupancy k: every mode amplitude dies exactly
    assert structure_function(spec, (3, 1), 0) == pytest.approx(0.0)
    assert structure_function(spec, (2, 2), 1) == pytest.approx(0.0)


def test_structure_function_mode_range():
    spec = StatisticsSpec(r=2, s=-1, k=3)
    with pytest.raises(ModeOutOfRange):
        structure_function(spec, (1, 0), 2)
    with pytest.raises(ModeOutOfRange):
        structure_function(spec, (1, 0), -1)


@given(
    s=st.sampled_from([-1, +1]),
    k=st.integers(min_value=2, max_value=9),
    occ=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_structure_function_positive_on_admissible(s, k, occ, data):
    r = len(occ)
    spec = StatisticsSpec(r=r, s=s, k=k, n_max=3 * r if s == +1 else None)
    if sum(occ) > spec.total_cap:
        occ = [0] * r
    mode = data.draw(st.integers(min_value=0, max_value=r - 1))
    f = structure_function(spec, tuple(occ), mode)
    assert f >= 0.0
    if occ[mode] == 0:
        assert f == 0.0


def test_structure_function_against_ladder_chain_oracle():
    # independent path: raising-operator polynomial calculus, Eq-16-style
    # coefficients; F at the upper state is (raise factor * C_n / C_{n+e})^2
    for s, k in [(-1, 5), (+1, 3.5)]:
        spec = StatisticsSpec(r=2, s=s, k=k, n_max=6 if s == +1 else None)
        for occ in [(0, 0), (1, 0), (1, 1), (2, 1)]:
            n_tot = sum(occ)
            raise_factor = k - (1 - s) / 2.0 + s * n_tot
            upper = (occ[0] + 1, occ[1])
            c_low = ladder_chain_coefficient(s, k, occ)
            c_up = ladder_chain_coefficient(s, k, upper)
            expected = (raise_factor * c_low / c_up) ** 2
            assert structure_function(spec, upper, 0) == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------- ladders

def test_ladder_single_fermionic_mode_explicit():
    basis = enumerate_basis(StatisticsSpec(r=1, s=-1, k=2))
    ops = ladder_matrices(basis)
    plus = ops.plus[0].toarray()
    minus = ops.minus[0].toarray()
    # a+|0> = |1>, a+|1> = 0 (F(2) = 0 terminates the chain)
    assert plus == pytest.approx(np.array([[0, 0], [1, 0]], dtype=complex))
    assert minus == pytest.approx(np.array([[0, 1], [0, 0]], dtype=complex))


def test_annihilator_kills_vacuum():
    for spec in [StatisticsSpec(r=2, s=-1, k=4), StatisticsSpec(r=2, s=+1, k=3.0, n_max=4)]:
        basis = enumerate_basis(spec)
        ops = ladder_matrices(basis)
        vac = basis.unit_vector((0,) * spec.r)
        for i in range(spec.r):
            assert np.allclose(ops.minus[i] @ vac, 0.0)


def test_ladder_adjointness_and_column_structure():
    for spec in [StatisticsSpec(r=3, s=-1, k=4), StatisticsSpec(r=2, s=+1, k=2.5, n_max=5)]:
        basis = enumerate_basis(spec)
        ops = ladder_matrices(basis)
        for i in range(spec.r):
            ap, am = ops.plus[i].toarray(), ops.minus[i].toarray()
            assert np.max(np.abs(ap - am.conj().T)) < 1e-15
            assert (np.count_nonzero(am, axis=0) <= 1).all()
            assert (np.count_nonzero(ap, axis=0) <= 1).all()


def test_number_product_reproduces_structure_function():
    # <n| a- a+ |n> = F(n + e_i) on interior states
    for spec in [StatisticsSpec(r=2, s=-1, k=5), StatisticsSpec(r=2, s=+1, k=3.0, n_max=5)]:
        basis = enumerate_basis(spec)
        ops = ladder_matrices(basis)
        for i in range(spec.r):
            prod = (ops.minus[i] @ ops.plus[i]).toarray()
            for idx, occ in enumerate(basis.occupations.tolist()):
                if sum(occ) >= spec.total_cap:
                    continue  # raise leaves the retained set for s=+1
                target = list(occ)
                target[i] += 1
                expected = structure_function(spec, tuple(target), i)
                assert prod[idx, idx] == pytest.approx(expected, abs=1e-12)


def test_grading_block_structure():
    spec = StatisticsSpec(r=2, s=-1, k=4)
    basis = enumerate_basis(spec)
    ops = ladder_matrices(basis)
    grades = basis.grades
    for i in range(spec.r):
        rows, cols = ops.plus[i].nonzero()
        assert (grades[rows] == grades[cols] + 1).all()


def test_fermionic_nilpotency():
    for r, k in [(1, 3), (2, 4)]:
        spec = StatisticsSpec(r=r, s=-1, k=k)
        basis = enumerate_basis(spec)
        ops = ladder_matrices(basis)
        for i in range(r):
            power = np.linalg.matrix_power(ops.plus[i].toarray(), k)
            assert np.max(np.abs(power)) == 0.0


# ------------------------------------------------------- triple relations

@pytest.mark.parametrize(
    "spec",
    [
        StatisticsSpec(r=2, s=-1, k=4),
        StatisticsSpec(r=1, s=-1, k=6),
        StatisticsSpec(r=2, s=+1, k=3.0, n_max=6),
        StatisticsSpec(r=3, s=+1, k=2.5, n_max=5),
    ],
)
def test_triple_relations_hold_on_interior(spec):
    report = verify_triple_relations(enumerate_basis(spec))
    assert report.max_residual < 1e-12
    assert report.triple_raise.max_abs < 1e-12
    assert report.triple_lower.max_abs < 1e-12
    assert report.mutual_commute.max_abs < 1e-12


def _scaled(ladders, which, mode, row_occ, col_occ, factor):
    basis = ladders.basis
    row, col = basis.state_index(row_occ), basis.state_index(col_occ)
    shift = getattr(ladders, SHIFTS[which])[mode]
    assert shift.source[row] == col
    return _with_entry(ladders, which, mode, row, col, shift.weight[row].real * factor)


@pytest.mark.parametrize(
    "spec,which,mode,row_occ,col_occ",
    [
        (StatisticsSpec(r=2, s=-1, k=5), "minus", 0, (0, 1), (1, 1)),
        (StatisticsSpec(r=2, s=-1, k=5), "plus", 1, (1, 3), (1, 2)),
        (StatisticsSpec(r=1, s=-1, k=6), "minus", 0, (4,), (5,)),
        (StatisticsSpec(r=2, s=+1, k=3.0, n_max=5), "plus", 0, (2, 1), (1, 1)),
        # entries reaching the top layer still act on interior columns
        (StatisticsSpec(r=2, s=+1, k=3.0, n_max=5), "minus", 1, (2, 2), (2, 3)),
    ],
)
def test_triple_check_catches_a_one_percent_amplitude_error(spec, which, mode, row_occ, col_occ):
    ladders = ladder_matrices(enumerate_basis(spec))
    corrupted = _scaled(ladders, which, mode, row_occ, col_occ, 1.01)
    report = verify_triple_relations(ladders.basis, corrupted)
    assert report.max_residual > 1e-3
    # the certified bound never undercuts the exact 2-norm (up to round-off)
    exact = dense_triple_residual_norm(corrupted, report.interior_cap)
    assert report.max_residual >= exact * (1.0 - 1e-12)
    assert report.max_residual > 0.5 * exact


def test_triple_check_ignores_the_truncated_top_layer():
    # a_i^+ has no admissible raise out of the top layer, so its columns
    # there are empty; the check restricts to total occupancy <= n_max - 2
    # and must not see what sits in them.  The stray entry goes in a row
    # that a_0^+ leaves empty (n_0 = 0), as a shift holds one entry per row.
    spec = StatisticsSpec(r=2, s=+1, k=3.0, n_max=5)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    row = basis.state_index((0, 4))
    assert ladders.raising[0].weight[row] == 0.0
    stray = _with_entry(ladders, "plus", 0, row, basis.state_index((5, 0)), 0.5)
    report = verify_triple_relations(basis, stray)
    assert report.interior_cap == 3
    assert report.max_residual < 1e-12
    assert dense_triple_residual_norm(stray, report.interior_cap) < 1e-12
    # unrestricted, the same stray entry shows
    assert dense_triple_residual_norm(stray, spec.total_cap) > 0.1


@pytest.mark.parametrize(
    "spec",
    [
        StatisticsSpec(r=1, s=-1, k=6),
        StatisticsSpec(r=2, s=-1, k=8),
        StatisticsSpec(r=3, s=-1, k=8),
        StatisticsSpec(r=3, s=+1, k=4.0, n_max=8),
    ],
)
def test_triple_bound_covers_the_exact_norm(spec):
    # exact-arithmetic residuals: bound and exact 2-norm agree to round-off
    report = verify_triple_relations(enumerate_basis(spec))
    exact = dense_triple_residual_norm(ladder_matrices(enumerate_basis(spec)), report.interior_cap)
    assert report.max_residual >= exact * (1.0 - 1e-12)
    assert report.max_residual <= 2.0 * exact + 1e-15


@pytest.mark.parametrize("s", [-1, +1])
def test_single_mode_triple_contraction(s):
    # with one mode the raise relation collapses to [[a+,a-],a+] = -2s a+
    spec = StatisticsSpec(r=1, s=s, k=5, n_max=7 if s == +1 else None)
    basis = enumerate_basis(spec)
    ops = ladder_matrices(basis)
    ap, am = ops.plus[0].toarray(), ops.minus[0].toarray()
    inner = ap @ am - am @ ap
    lhs = inner @ ap - ap @ inner
    interior = basis.grades <= spec.total_cap - (2 if s == +1 else 0)
    assert np.max(np.abs((lhs + 2 * s * ap)[:, interior])) < 1e-12


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize(
    "s,k,n_max", [(-1, 7, None), (+1, 3.5, 6)], ids=["fermionic", "bosonic"]
)
def test_csr_views_are_bitwise_the_sparse_assembly(s, k, n_max, r):
    basis = enumerate_basis(StatisticsSpec(r=r, s=s, k=k, n_max=n_max))
    ladders = ladder_matrices(basis)
    assert "minus" not in vars(ladders) and "plus" not in vars(ladders)  # built on first access
    for views, reference in zip((ladders.minus, ladders.plus), sparse_ladders(basis)):
        for view, expected in zip(views, reference):
            for name in ("data", "indices", "indptr"):
                got, want = getattr(view, name), getattr(expected, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert ladders.minus is ladders.minus and ladders.plus is ladders.plus


def test_shift_products_and_quotients_match_the_sparse_ones():
    basis = enumerate_basis(StatisticsSpec(r=2, s=+1, k=2.5, n_max=6))
    ladders = ladder_matrices(basis)
    up, dn = ladders.raising[1], ladders.lowering[0]
    for shift in (up @ dn, dn @ up @ up, (up @ up) / 3.0):
        assert not shift.source.flags.writeable and not shift.weight.flags.writeable
    pairs = [(up @ dn, ladders.plus[1] @ ladders.minus[0]),
             (dn @ up @ up, ladders.minus[0] @ ladders.plus[1] @ ladders.plus[1]),
             ((up @ up) / 3.0, (ladders.plus[1] @ ladders.plus[1]) / 3.0)]
    rng = np.random.default_rng(4)
    v = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    block = rng.normal(size=(basis.dim, 3)) + 1j * rng.normal(size=(basis.dim, 3))
    for shift, matrix in pairs:
        assert np.array_equal(shift.tocsr().toarray(), matrix.toarray())
        assert np.array_equal(shift @ v, matrix @ v)
        assert np.array_equal(shift @ block, matrix @ block)


def test_shift_sums_and_scalar_products_match_the_sparse_ones():
    basis = enumerate_basis(StatisticsSpec(r=2, s=+1, k=2.5, n_max=6))
    ladders = ladder_matrices(basis)
    up, dn = ladders.raising[0], ladders.lowering[1]
    cup, cdn = ladders.plus[0], ladders.minus[1]
    # both terms move the occupations by e_0 - e_1
    pairs = [(up @ dn + dn @ up, cup @ cdn + cdn @ cup),
             (up @ dn - dn @ up, cup @ cdn - cdn @ cup),
             (-1 * up + 2.5 * up, -1 * cup + 2.5 * cup),
             (up * 0.5 - up, cup * 0.5 - cup)]
    for shift, matrix in pairs:
        assert not shift.source.flags.writeable and not shift.weight.flags.writeable
        assert np.array_equal(shift.tocsr().toarray(), matrix.toarray())


def test_shift_sum_refuses_entries_in_different_columns_of_a_row():
    basis = enumerate_basis(StatisticsSpec(r=2, s=-1, k=4))
    ladders = ladder_matrices(basis)
    up0, up1 = ladders.raising
    with pytest.raises(ValueError, match="different columns"):
        up0 + up1
    with pytest.raises(ValueError, match="different columns"):
        up0 - up1
    # rows where either weight is zero hold no entry, whatever their source
    empty = Shift(up1.source, np.zeros(basis.dim, dtype=complex))
    assert np.array_equal((up0 + empty).tocsr().toarray(), ladders.plus[0].toarray())
    assert np.array_equal((empty - up0).tocsr().toarray(), -ladders.plus[0].toarray())


# r=4 k=13 has 1,820 states and the bosonic family 12,341
SHIFT_VS_CSR_SPECS = [StatisticsSpec(r=4, s=-1, k=13), StatisticsSpec(r=3, s=+1, k=3.5, n_max=40)]


@pytest.mark.parametrize("spec", SHIFT_VS_CSR_SPECS, ids=["r4-k13", "bosonic-r3"])
def test_shift_triple_relations_are_bitwise_the_csr_ones(spec):
    report = verify_triple_relations(enumerate_basis(spec))
    norms = [report.triple_raise, report.triple_lower, report.mutual_commute]
    assert [(n.spectral, n.max_abs) for n in norms] == list(csr_triple_relations(enumerate_basis(spec)))
    assert report.max_residual > 0.0


@pytest.mark.parametrize("spec", SHIFT_VS_CSR_SPECS, ids=["r4-k13", "bosonic-r3"])
def test_shift_commutator_deviation_is_bitwise_the_csr_one(spec):
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    for n_cap in (0, 2, spec.total_cap - 2):
        assert commutator_deviation(spec, n_cap, ladders) == csr_commutator_deviation(basis, n_cap)


def _entry_moved_to_another_column(ladders):
    """The r=2 ladders with the a_0^- entry of row |0, 1> moved from the
    column of |1, 1> to that of |0, 2>, its amplitude kept.  Then
    a_1^+ a_0^- puts row |0, 2> in column |0, 2> and a_0^- a_1^+ puts it in
    column |1, 1>: their difference is not a shift."""
    basis = ladders.basis
    row = basis.state_index((0, 1))
    return _with_entry(ladders, "minus", 0, row, basis.state_index((0, 2)), ladders.lowering[0].weight[row])


def test_relations_on_an_entry_in_another_column_are_the_csr_ones():
    from scipy import sparse

    spec = StatisticsSpec(r=2, s=-1, k=5)
    basis = enumerate_basis(spec)
    moved = _entry_moved_to_another_column(ladder_matrices(basis))
    with pytest.raises(ValueError, match="different columns"):
        moved.raising[1] @ moved.lowering[0] - moved.lowering[0] @ moved.raising[1]
    report = verify_triple_relations(basis, moved)
    norms = [report.triple_raise, report.triple_lower, report.mutual_commute]
    expected = csr_triple_relations(basis, moved)
    for got, (bound, largest) in zip(norms, expected):
        assert got.spectral == pytest.approx(bound, rel=1e-14)
        assert got.max_abs == pytest.approx(largest, rel=1e-14)
    assert report.max_residual > 1.0
    for n_cap in (0, 2, 4):
        assert commutator_deviation(spec, n_cap, moved) == pytest.approx(
            csr_commutator_deviation(basis, n_cap, moved), rel=1e-14)
    hspec = HamiltonianSpec(e0=0.3, e=(1.0, 3.0))
    eye = sparse.identity(basis.dim, dtype=complex, format="csr")
    comms = [a @ b - b @ a for a, b in zip(moved.minus, moved.plus)]
    expected_h = 0.3 * eye
    for e_i, comm in zip(hspec.e, comms):
        expected_h = expected_h + e_i * ((spec.s / 3.0) * (3.0 * comm - sum(comms)) + energy_shift(spec) * eye)
    got_h = hamiltonian_from_commutators(basis, hspec, moved)
    assert abs(got_h - expected_h).max() < 1e-13
    assert abs(got_h - got_h.T).max() > 0.5  # the moved entry leaves H off the diagonal


# ----------------------------------------------------------- Hamiltonian

def test_hamiltonian_worked_example_fermionic():
    spec = StatisticsSpec(r=2, s=-1, k=3)
    basis = enumerate_basis(spec)
    h = hamiltonian(basis, HamiltonianSpec(e0=0.0, e=(1.0, 2.0))).toarray()
    assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-12
    assert h[basis.state_index((1, 1)), basis.state_index((1, 1))] == pytest.approx(3.0)
    energies = sorted(np.real(np.diag(h)))
    assert energies == pytest.approx([0.0, 1.0, 2.0, 2.0, 3.0, 4.0], abs=1e-12)


def test_hamiltonian_worked_example_bosonic():
    spec = StatisticsSpec(r=1, s=+1, k=2, n_max=5)
    basis = enumerate_basis(spec)
    hspec = HamiltonianSpec(e0=1.0, e=(0.5,))
    h = hamiltonian(basis, hspec).toarray()
    idx = basis.state_index((3,))
    assert h[idx, idx] == pytest.approx(2.5)
    # derived path: commutator assembly gives the same diagonal there
    h_comm = hamiltonian_from_commutators(basis, hspec).toarray()
    assert h_comm[idx, idx] == pytest.approx(2.5)


def test_occupation_energies_refuse_an_overflowing_sum():
    basis = enumerate_basis(StatisticsSpec(r=2, s=-1, k=3))  # occupations up to 2
    for energies in [(1e308, 1e308), (1e308, -1e308), (1.7e308, 0.0)]:
        with pytest.raises(InvalidSpec, match="overflow"):
            occupation_energies(basis, HamiltonianSpec(e0=0.0, e=energies))
        with pytest.raises(InvalidSpec, match="overflow"):
            hamiltonian(basis, HamiltonianSpec(e0=0.0, e=energies))
    near = occupation_energies(basis, HamiltonianSpec(e0=0.0, e=(8e307, 8e307)))
    assert np.isfinite(near).all() and near.max() == pytest.approx(1.6e308)


@pytest.mark.parametrize(
    "spec",
    [
        StatisticsSpec(r=2, s=-1, k=4),
        StatisticsSpec(r=2, s=+1, k=2.5, n_max=5),
    ],
)
def test_hamiltonian_dual_path_agrees_on_interior(spec):
    basis = enumerate_basis(spec)
    hspec = HamiltonianSpec(e0=0.2, e=tuple(1.0 + 0.5 * i for i in range(spec.r)))
    direct = hamiltonian(basis, hspec).toarray()
    assembled = hamiltonian_from_commutators(basis, hspec).toarray()
    cap = spec.total_cap - (1 if spec.s == +1 else 0)
    assert np.max(np.abs((direct - assembled)[:, basis.grades <= cap])) < 1e-12


@pytest.mark.parametrize(
    "spec",
    [StatisticsSpec(r=3, s=-1, k=6), StatisticsSpec(r=2, s=+1, k=2.5, n_max=8),
     StatisticsSpec(r=1, s=+1, k=3.0, n_max=0)],
)
def test_commutator_spectrum_matches_the_occupation_energies(spec):
    basis = enumerate_basis(spec)
    hspec = HamiltonianSpec(e0=-0.4, e=tuple(0.5 + 0.75 * i for i in range(spec.r)))
    assert commutator_spectrum_deviation(basis, hspec) < 1e-13


def test_commutator_spectrum_catches_a_one_percent_amplitude_error():
    spec = StatisticsSpec(r=2, s=-1, k=5)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    corrupted = _scaled(ladders, "minus", 0, (0, 1), (1, 1), 1.01)
    # mode i enters H with weight e_i - (e_1 + e_2)/3: with energies (1, 2)
    # mode 0 drops out, with (1, 3) it does not
    blind, seen = HamiltonianSpec(e0=0.0, e=(1.0, 2.0)), HamiltonianSpec(e0=0.0, e=(1.0, 3.0))
    assert commutator_spectrum_deviation(basis, blind, corrupted) < 1e-13
    assert commutator_spectrum_deviation(basis, seen, corrupted) > 0.01
    assert commutator_spectrum_deviation(basis, seen, ladders) < 1e-13


def test_commutator_spectrum_counts_an_off_diagonal_entry():
    spec = StatisticsSpec(r=1, s=-1, k=4)
    basis = enumerate_basis(spec)
    ladders = ladder_matrices(basis)
    hspec = HamiltonianSpec(e0=0.0, e=(1.0,))
    # a lowering entry that keeps its amplitude sqrt(F(2)) = 2 but moves from
    # column |2> to |3> puts a^+ a^- = F(2) = 4 at (|2>, |3>), off the diagonal
    row = basis.state_index((1,))
    stray = _with_entry(ladders, "minus", 0, row, basis.state_index((3,)), ladders.lowering[0].weight[row])
    assert commutator_spectrum_deviation(basis, hspec, stray) == 4.0


def test_hamiltonian_degenerate_when_energies_vanish():
    spec = StatisticsSpec(r=2, s=-1, k=4)
    basis = enumerate_basis(spec)
    h = hamiltonian(basis, HamiltonianSpec(e0=0.7, e=(0.0, 0.0))).toarray()
    assert np.allclose(h, 0.7 * np.eye(basis.dim))


@pytest.mark.parametrize(
    "spec",
    [
        StatisticsSpec(r=2, s=-1, k=4),
        StatisticsSpec(r=3, s=-1, k=3),
        StatisticsSpec(r=2, s=+1, k=2.5, n_max=5),
    ],
)
def test_spectrum_matches_occupation_energies(spec):
    basis = enumerate_basis(spec)
    hspec = HamiltonianSpec(e0=0.3, e=tuple(0.5 + 0.25 * i for i in range(spec.r)))
    h = hamiltonian(basis, hspec).toarray()
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    eigs = np.sort(np.linalg.eigvalsh(h))
    expected = np.sort([
        hspec.e0 + sum(ei * ni for ei, ni in zip(hspec.e, occ)) for occ in basis.occupations.tolist()
    ])
    assert np.max(np.abs(eigs - expected)) < 1e-12


def test_energy_shift_is_vacuum_calibrated():
    # the bracket part of h_i must be exactly cancelled on the vacuum
    for spec in [StatisticsSpec(r=2, s=-1, k=5), StatisticsSpec(r=3, s=+1, k=2.5, n_max=4)]:
        basis = enumerate_basis(spec)
        h = hamiltonian_from_commutators(
            basis, HamiltonianSpec(e0=0.0, e=(1.0,) * spec.r)
        ).toarray()
        vac = basis.state_index((0,) * spec.r)
        assert abs(h[vac, vac]) < 1e-12
        assert math.isfinite(energy_shift(spec))


# ------------------------------------------------------- large-k behaviour

@pytest.mark.parametrize("s", [-1, +1])
def test_vacuum_commutator_eigenvalue(s):
    spec = StatisticsSpec(r=2, s=s, k=6, n_max=4 if s == +1 else None)
    basis = enumerate_basis(spec)
    ops = ladder_matrices(basis)
    vac = basis.unit_vector((0, 0))
    comm = ops.minus[0] @ ops.plus[0] - ops.plus[0] @ ops.minus[0]
    value = np.vdot(vac, comm @ vac).real
    assert value == pytest.approx(spec.k if s == +1 else spec.k - 1)


@pytest.mark.parametrize("s", [-1, +1])
def test_diagonal_commutator_identity(s):
    spec = StatisticsSpec(r=2, s=s, k=7, n_max=5 if s == +1 else None)
    basis = enumerate_basis(spec)
    ops = ladder_matrices(basis)
    for i in range(spec.r):
        comm = (ops.minus[i] @ ops.plus[i] - ops.plus[i] @ ops.minus[i]).toarray()
        for idx, occ in enumerate(basis.occupations.tolist()):
            if sum(occ) >= spec.total_cap:
                continue
            expected = spec.k - (1 + s) / 2.0 + s * (sum(occ) + 1) + s * occ[i]
            assert comm[idx, idx] == pytest.approx(expected, abs=1e-12)


def test_deviation_shrinks_with_k():
    rows = large_k_commutator_deviation(r=2, s=-1, k_values=[10, 100], n_cap=2)
    (_, d10), (_, d100) = rows
    assert d100 < d10
    assert d10 / d100 == pytest.approx(10.0, rel=0.05)


def test_deviation_monotone_and_bounded_bosonic():
    rows = large_k_commutator_deviation(r=2, s=+1, k_values=[25, 50, 100, 200], n_cap=2)
    devs = [d for _, d in rows]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    for k, d in rows:
        assert d <= 4.0 / k + 1e-12


@pytest.mark.parametrize(
    "r,s,k_values",
    [(2, -1, [10, 100]), (2, +1, [25, 50, 100, 200]), (1, +1, [50, 100, 200])],
)
def test_deviation_matches_dense_oracle(r, s, k_values):
    for k in k_values:
        spec = StatisticsSpec(r=r, s=s, k=k, n_max=4 if s == +1 else None)
        ladders = ladder_matrices(enumerate_basis(spec))
        expected = dense_commutator_deviation(ladders, spec.k, n_cap=2)
        assert commutator_deviation(spec, 2, ladders) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_deviation_requires_room_above_cap():
    with pytest.raises(InvalidSpec):
        commutator_deviation(StatisticsSpec(r=1, s=+1, k=10, n_max=3), n_cap=2)


def test_number_operator_diagonal():
    basis = enumerate_basis(StatisticsSpec(r=2, s=-1, k=4))
    n1 = number_operator(basis, 1).toarray()
    for idx, occ in enumerate(basis.occupations.tolist()):
        assert n1[idx, idx] == occ[1]
    # the CSR form of the number shift is bitwise the diagonal sparse assembly
    from scipy import sparse

    expected = sparse.diags(basis.occupations[:, 1].astype(complex)).tocsr()
    for name in ("data", "indices", "indptr"):
        got, want = getattr(number_operator(basis, 1), name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    with pytest.raises(ModeOutOfRange):
        number_operator(basis, 5)
