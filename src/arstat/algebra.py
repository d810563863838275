"""Fock representations of the generalized A_r ladder algebra.

The family is labelled by a sign s (+1 bosonic, -1 fermionic) and a real
parameter k.  The r creation/annihilation pairs act on occupation states
through the quadratic structure function

    F_i(n) = n_i * (k - (1+s)/2 + s * (n_1 + ... + n_r)),

every transition |n> <-> |n + e_i> carrying the amplitude sqrt(F_i(n + e_i)).
For s = -1 the chain terminates exactly at total occupancy k - 1, so the
Fock space is finite; for s = +1 it is infinite and a total-occupancy
truncation n_max is mandatory.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvalidSpec, ModeOutOfRange

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "StatisticsSpec",
    "FockBasis",
    "HamiltonianSpec",
    "LadderOperators",
    "RelationReport",
    "ResidualNorms",
    "enumerate_basis",
    "structure_function",
    "ladder_matrices",
    "number_operator",
    "occupation_energies",
    "verify_triple_relations",
    "hamiltonian",
    "hamiltonian_from_commutators",
    "commutator_spectrum_deviation",
    "commutator_deviation",
    "large_k_commutator_deviation",
    "fermionic_dimension",
    "basis_dimension",
]


def _integral(value, name: str, error: type[Exception]) -> int:
    """``value`` as an int, or ``error`` unless it is a finite integral number."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must be an integer, got {value!r}") from None
    if as_int != value:
        raise error(f"{name} must be an integer, got {value!r}")
    return as_int


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _log_gamma(x: float) -> float:
    """ln |Gamma(x)|, and inf at its poles and where it overflows a double."""
    try:
        return math.lgamma(x)
    except (OverflowError, ValueError):  # ValueError: x a non-positive integer
        return math.inf


def _table(entry, cap: int) -> np.ndarray:
    # entry(0), ..., entry(cap) as a float array
    return np.fromiter(map(entry, range(cap + 1)), dtype=float, count=cap + 1)


@dataclass(frozen=True)
class StatisticsSpec:
    """One representation family: mode count r, sign s, label k, truncation.

    Admissibility: 2k - 1 > s always; for s = -1 the label k must be an
    integer >= 2 (the raising chain then terminates with exactly zero
    amplitude); for s = +1 the Fock space is infinite and ``n_max`` gives
    the total-occupancy truncation of every matrix built from this spec.
    """

    r: int
    s: int
    k: float
    n_max: int | None = None

    def __post_init__(self):
        r = _integral(self.r, "mode count r", InvalidSpec)
        if r < 1:
            raise InvalidSpec(f"mode count r must be a positive integer, got {self.r}")
        object.__setattr__(self, "r", r)
        if self.s not in (+1, -1):
            raise InvalidSpec(f"sign s must be +1 or -1, got {self.s}")
        object.__setattr__(self, "s", int(self.s))
        if not isinstance(self.k, numbers.Real) or not math.isfinite(self.k):
            raise InvalidSpec(f"label k must be a finite real number, got {self.k!r}")
        if not math.isfinite(2.0 * self.k):
            raise InvalidSpec(f"label k={self.k} is too large: the scale kappa overflows")
        if not 2 * self.k - 1 > self.s:
            raise InvalidSpec(f"label k={self.k} violates 2k - 1 > s for s={self.s}")
        if self.s == -1:
            if self.k != int(self.k):
                raise InvalidSpec(f"fermionic family needs integer k, got {self.k}")
            if self.k < 2:
                raise InvalidSpec(f"fermionic family needs k >= 2, got {self.k}")
        elif self.n_max is None:
            raise InvalidSpec("bosonic family needs a finite truncation n_max")
        if self.n_max is not None:
            n_max = _integral(self.n_max, "n_max", InvalidSpec)
            if n_max < 0:
                raise InvalidSpec(f"n_max must be a non-negative integer, got {self.n_max}")
            object.__setattr__(self, "n_max", n_max)

    @property
    def total_cap(self) -> int:
        """Largest admissible total occupancy (k - 1 fermionic, n_max bosonic)."""
        if self.s == -1:
            return int(self.k) - 1
        return self.n_max

    @property
    def kappa(self) -> float:
        """The recurring scale k + s/2 - 1/2 = (2k + s - 1)/2."""
        return (2.0 * self.k + self.s - 1.0) / 2.0


def fermionic_dimension(r: int, k: int) -> int:
    """Closed-form state count (k-1+r)! / ((k-1)! r!) of the s=-1 family."""
    return math.comb(k - 1 + r, r)


def basis_dimension(spec: StatisticsSpec) -> int:
    """Stars-and-bars count C(cap + r, r) of occupations with total <= cap.

    cap is k - 1 for s = -1 (so this is ``fermionic_dimension``) and n_max
    for s = +1.
    """
    return math.comb(spec.total_cap + spec.r, spec.r)


def _count_below(cap: int, r: int) -> np.ndarray:
    """Exact table T[m, p], m = 0..cap: occupations of p modes with total < m.

    T[m, p] = C(m - 1 + p, p) for m > 0 and T[0, p] = 0, by the Pascal
    recursion T[m, p] = sum_{t < m} T[t + 1, p - 1] in int64.  Every entry
    is at most the basis dimension, so none overflows.
    """
    table = np.zeros((cap + 1, r + 1), dtype=np.int64)
    table[1:, 0] = 1
    for p in range(1, r + 1):
        table[1:, p] = np.cumsum(table[1:, p - 1])
    return table


@dataclass(frozen=True)
class FockBasis:
    """Deterministically ordered occupation basis for one spec.

    States are graded by total occupancy; within a grade the leading mode
    descends, matching the enumeration used throughout the worked examples.
    ``occupations`` is the one representation of the states, a read-only
    (dim, r) array in basis order; ``grades`` and ``log_coefficients`` are
    read-only arrays computed from it once per basis on first use.  A
    state's position is a closed-form rank (``state_indices``).
    """

    spec: StatisticsSpec
    occupations: np.ndarray = field(repr=False, hash=False, compare=False)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def state_index(self, occ: Sequence[int]) -> int:
        return int(self.state_indices(np.array([occ]))[0])

    def state_indices(self, occupations: np.ndarray) -> np.ndarray:
        """Basis positions of the rows of an (n, r) occupation array.

        A row n of grade g = |n| sits after the C(g - 1 + r, r) states of
        lower grade and, within its grade, after the C(R_j - 1 + p_j, p_j)
        states that agree with it on modes 0..j-1 and exceed it on mode j,
        where R_j = g - (n_0 + ... + n_j) and p_j = r - 1 - j (the
        combinatorial number system, Knuth TAOCP 4A, 7.2.1.3).  Rows
        outside the basis raise ``InvalidSpec``.
        """
        occ = np.asarray(occupations)
        spec = self.spec
        if occ.ndim != 2 or occ.shape[1] != spec.r:
            raise InvalidSpec(f"occupation rows must have {spec.r} entries, got shape {occ.shape}")
        if np.any(occ < 0):
            raise InvalidSpec("occupations must be non-negative")
        grade = occ.sum(axis=1)
        if np.any(grade > spec.total_cap):
            raise InvalidSpec(f"occupation total exceeds the basis cap {spec.total_cap}")
        count_below = _count_below(spec.total_cap, spec.r)
        # R_j for j = 0..r-2, each counted among the remaining p_j = r-1-j modes
        remaining = grade[:, np.newaxis] - np.cumsum(occ[:, :-1], axis=1)
        within = count_below[remaining, np.arange(spec.r - 1, 0, -1)].sum(axis=1)
        return count_below[grade, spec.r] + within

    @cached_property
    def grades(self) -> np.ndarray:
        """Total occupancy of each basis state."""
        return _read_only(self.occupations.sum(axis=1))

    @cached_property
    def log_coefficients(self) -> np.ndarray:
        """Log monomial expansion coefficients ln C_n of the Bargmann realization.

        C_n^2 = Gamma(k + |n|) / (Gamma(k) prod_i n_i!) for s = +1 and
        Gamma(k) / (Gamma(k - |n|) prod_i n_i!) for s = -1; the scalar
        ``bargmann.log_coefficient`` evaluates the same formula per state.
        Both log-gamma terms come from tables of length cap + 1, indexed by
        grade and by occupation; each entry is one ``math.lgamma`` difference,
        not a running sum, so the error does not accumulate along the grades.
        """
        k, cap = self.spec.k, self.spec.total_cap
        log_gamma_k = _log_gamma(k)
        if self.spec.s == +1:
            log_ratio = _table(lambda g: _log_gamma(k + g) - log_gamma_k, cap)
        else:
            log_ratio = _table(lambda g: log_gamma_k - _log_gamma(k - g), cap)
        log_factorial = _table(lambda m: _log_gamma(m + 1.0), cap)
        # mode by mode, in the scalar formula's summation order
        log_factorials = np.zeros(self.dim)
        for column in self.occupations.T:
            log_factorials = log_factorials + log_factorial[column]
        return _read_only(0.5 * log_ratio[self.grades] - 0.5 * log_factorials)

    def unit_vector(self, occ: Sequence[int]) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.state_index(occ)] = 1.0
        return vec


def enumerate_basis(spec: StatisticsSpec) -> FockBasis:
    """List every admissible occupation vector exactly once.

    The rows with total <= cap are built mode by mode: each partial row of
    total t is repeated once for every value 0..cap-t of the next mode.
    One sort then puts them in basis order, by grade and then by each mode
    descending.  The count is ``basis_dimension(spec)``.
    """
    cap = spec.total_cap
    rows = np.zeros((1, 0), dtype=int)
    totals = np.zeros(1, dtype=int)
    for _ in range(spec.r):
        counts = cap - totals + 1
        parent = np.repeat(np.arange(len(totals)), counts)
        value = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        rows = np.column_stack((rows[parent], value))
        totals = totals[parent] + value
    # np.lexsort sorts on its last key first: grade, then -n_0, -n_1, ...
    order = np.lexsort(np.vstack((-rows.T[::-1], totals)))
    return FockBasis(spec=spec, occupations=_read_only(rows[order]))


def structure_function(spec: StatisticsSpec, occ: Sequence[int], mode: int) -> float:
    """Squared ladder matrix element F_mode evaluated at occupation ``occ``.

    ``occ`` is the upper state of the transition it controls, so the value
    is 0 exactly when occ[mode] = 0 and, for s = -1, exactly when the total
    occupancy reaches k (the exclusion boundary).  Modes are 0-based.
    """
    if not 0 <= mode < spec.r:
        raise ModeOutOfRange(f"mode {mode} outside 0..{spec.r - 1}")
    if len(occ) != spec.r:
        raise InvalidSpec(f"occupation has {len(occ)} entries, expected {spec.r}")
    if any(n < 0 for n in occ):
        raise InvalidSpec(f"negative occupation in {occ}")
    n_tot = sum(occ)
    return 0.5 * occ[mode] * (2.0 * spec.k - (1 + spec.s) + 2.0 * spec.s * n_tot)


class ShiftConflict(ValueError):
    """Two shifts hold entries in different columns of one row."""


@dataclass(frozen=True, eq=False)
class Shift:
    """A square matrix with at most one entry per row, as two read-only arrays.

    Row j holds ``weight[j]`` in column ``source[j]``, so
    ``(op @ v)[j] = weight[j] * v[source[j]]`` for a vector v (row by row
    for a matrix); a row whose weight is zero holds no entry.  The product
    of two shifts is a shift and so is a shift times or divided by a
    scalar, which makes every monomial in the ladder and number operators
    one.  Each row's entry is a single product of factors, as in the sparse
    product of the same matrices.  Two shifts add to a shift when they
    agree on the column of every row where both hold an entry, as any two
    products that move the occupations by the same vector do; otherwise
    the sum raises ``ShiftConflict``.
    """

    source: np.ndarray
    weight: np.ndarray

    @classmethod
    def from_entries(cls, dim: int, rows, cols, values) -> "Shift":
        """The dim x dim shift holding values[m] at (rows[m], cols[m]); the
        rows must be distinct."""
        source, weight = np.arange(dim), np.zeros(dim, dtype=complex)
        source[rows], weight[rows] = cols, values
        return cls(_read_only(source), _read_only(weight))

    @classmethod
    def diagonal(cls, weight) -> "Shift":
        return cls(_read_only(np.arange(len(weight))), _read_only(np.array(weight, dtype=complex)))

    @classmethod
    def identity(cls, dim: int) -> "Shift":
        return cls.diagonal(np.ones(dim))

    def __matmul__(self, other):
        if isinstance(other, Shift):
            return Shift(
                _read_only(other.source[self.source]),
                _read_only(self.weight * other.weight[self.source]),
            )
        other = np.asarray(other)
        # one weight per row, also when ``other`` is a matrix
        return self.weight.reshape((-1,) + (1,) * (other.ndim - 1)) * other[self.source]

    def __truediv__(self, scalar) -> "Shift":
        return Shift(self.source, _read_only(self.weight / scalar))

    def __mul__(self, scalar) -> "Shift":
        return Shift(self.source, _read_only(self.weight * scalar))

    __rmul__ = __mul__

    def __add__(self, other: "Shift") -> "Shift":
        held = self.weight != 0
        both = held & (other.weight != 0)
        if np.any(self.source[both] != other.source[both]):
            raise ShiftConflict("the shifts hold entries in different columns of one row")
        return Shift(_read_only(np.where(held, self.source, other.source)), _read_only(self.weight + other.weight))

    def __sub__(self, other: "Shift") -> "Shift":
        # x + (-1 y) is x - y exactly for every finite entry
        return self + -1.0 * other

    def tocsr(self) -> sparse.csr_matrix:
        """The same matrix in scipy.sparse CSR form."""
        from scipy import sparse

        rows = np.flatnonzero(self.weight)
        dim = self.weight.size
        return sparse.csr_matrix((self.weight[rows], (rows, self.source[rows])), shape=(dim, dim))


@dataclass(frozen=True)
class _ShiftSum:
    """A sum of shifts: the operator arithmetic of the relation checks.

    Terms merge into one shift wherever they hold their entries in the same
    columns, as every product of ladders that respect the grading does, so
    each entry is rounded as in the sparse arithmetic.  A ladder entry in a
    column the grading forbids leaves several terms, and their entries in
    one row and column add up.
    """

    terms: tuple[Shift, ...]
    __array_ufunc__ = None  # numpy scalars defer to __rmul__

    def __matmul__(self, other: "_ShiftSum") -> "_ShiftSum":
        return sum((_ShiftSum((a @ b,)) for a in self.terms for b in other.terms), _ShiftSum(()))

    def __add__(self, other: "_ShiftSum") -> "_ShiftSum":
        terms = list(self.terms)
        for b in other.terms:
            for n, a in enumerate(terms):
                try:
                    terms[n] = a + b
                    break
                except ShiftConflict:
                    pass
            else:
                terms.append(b)
        return _ShiftSum(tuple(terms))

    def __sub__(self, other: "_ShiftSum") -> "_ShiftSum":
        return self + -1.0 * other

    def __mul__(self, scalar) -> "_ShiftSum":
        return _ShiftSum(tuple(scalar * a for a in self.terms))

    __rmul__ = __mul__

    def tocsr(self) -> sparse.csr_matrix:
        return sum((a.tocsr() for a in self.terms[1:]), self.terms[0].tocsr())


def _sums(ops: Sequence[Shift]) -> list[_ShiftSum]:
    return [_ShiftSum((op,)) for op in ops]


@dataclass(frozen=True)
class LadderOperators:
    """The r annihilation/creation pairs realised on a FockBasis.

    ``lowering[i]`` and ``raising[i]`` are a_i^- and a_i^+ as shifts, the
    one source of the amplitudes.  ``minus`` and ``plus`` are the same
    operators as scipy.sparse CSR matrices, built from the shifts on first
    access.
    """

    basis: FockBasis
    lowering: tuple[Shift, ...]
    raising: tuple[Shift, ...]

    @cached_property
    def minus(self) -> tuple[sparse.csr_matrix, ...]:
        return tuple(op.tocsr() for op in self.lowering)

    @cached_property
    def plus(self) -> tuple[sparse.csr_matrix, ...]:
        return tuple(op.tocsr() for op in self.raising)


def ladder_matrices(basis: FockBasis) -> LadderOperators:
    """Build a_i^- and a_i^+ = (a_i^-)^dagger as shifts.

    Each row and each column holds at most one entry.  A raise that would
    leave the admissible set (past the s=-1 exclusion cap, or past n_max
    for s=+1) contributes nothing; for s=-1 the amplitude there is exactly
    zero anyway, so truncation is exact on the whole space.
    """
    spec = basis.spec
    occ = basis.occupations
    # F_i(n) = 0.5 n_i * bracket(n) at each state n, the upper end of its lowering step
    bracket = 2.0 * spec.k - (1 + spec.s) + 2.0 * spec.s * basis.grades
    lowering, raising = [], []
    for i in range(spec.r):
        cols = np.flatnonzero(occ[:, i])
        lowered = occ[cols].copy()
        lowered[:, i] -= 1
        rows = basis.state_indices(lowered)
        amps = np.sqrt(0.5 * occ[cols, i] * bracket[cols]).astype(complex)
        lowering.append(Shift.from_entries(basis.dim, rows, cols, amps))
        raising.append(Shift.from_entries(basis.dim, cols, rows, amps.conj()))
    return LadderOperators(basis=basis, lowering=tuple(lowering), raising=tuple(raising))


def number_shift(basis: FockBasis, mode: int) -> Shift:
    """Diagonal occupancy operator N_i for one mode, as a shift."""
    if not 0 <= mode < basis.spec.r:
        raise ModeOutOfRange(f"mode {mode} outside 0..{basis.spec.r - 1}")
    return Shift.diagonal(basis.occupations[:, mode])


def number_operator(basis: FockBasis, mode: int) -> sparse.csr_matrix:
    """Diagonal occupancy operator for one mode."""
    return number_shift(basis, mode).tocsr()


@dataclass(frozen=True)
class ResidualNorms:
    """Residual size as a certified 2-norm upper bound and the max-entry norm."""

    spectral: float
    max_abs: float


@dataclass(frozen=True)
class RelationReport:
    """Worst-case residuals of the defining triple relations.

    ``triple_raise`` covers [[a_i^+, a_j^-], a_k^+] + s d_jk a_i^+ + s d_ij a_k^+,
    ``triple_lower`` covers [[a_i^+, a_j^-], a_k^-] - s d_ik a_j^- - s d_ij a_k^-,
    ``mutual_commute`` covers [a_i^-, a_j^-] and [a_i^+, a_j^+].
    For s=+1 the residual operators are restricted to columns from the
    interior subspace (total occupancy <= n_max - 2), where truncation
    cannot contaminate the identity.
    """

    spec: StatisticsSpec
    interior_cap: int
    triple_raise: ResidualNorms
    triple_lower: ResidualNorms
    mutual_commute: ResidualNorms

    @property
    def max_residual(self) -> float:
        return max(
            self.triple_raise.spectral,
            self.triple_lower.spectral,
            self.mutual_commute.spectral,
        )


def _comm(a: _ShiftSum, b: _ShiftSum) -> _ShiftSum:
    return a @ b - b @ a


def _residual_norms(residual: _ShiftSum, kept_cols: np.ndarray, kept_rows=True) -> ResidualNorms:
    """Certified 2-norm bound and largest entry of a residual on its kept columns and rows.

    ||R||_2 <= sqrt(||R||_1 ||R||_inf) (Golub & Van Loan, Matrix
    Computations, 2.3).  The bound is exact when each row and column holds
    at most one entry, as in every residual of ladders that respect the
    grading: each one shifts the occupations by a single fixed vector.
    An entry counts once, at the first term holding it, with the sum of
    every term's weight in its row and column.
    """
    sources = np.array([a.source for a in residual.terms])
    weights = np.array([a.weight for a in residual.terms])
    row_sums = column_sums = largest = 0.0
    for n, (source, weight) in enumerate(zip(sources, weights)):
        same = sources == source
        first = (weight != 0) & ~np.any(same[:n] & (weights[:n] != 0), axis=0)
        mag = np.where(first & kept_rows & kept_cols[source], np.abs(np.sum(weights, axis=0, where=same)), 0.0)
        row_sums = row_sums + mag
        column_sums = column_sums + np.bincount(source, weights=mag, minlength=source.size)
        largest = max(largest, float(mag.max()))
    return ResidualNorms(math.sqrt(float(column_sums.max()) * float(row_sums.max())), largest)


def verify_triple_relations(basis: FockBasis, ladders: LadderOperators | None = None) -> RelationReport:
    """Measure how well the realised operators satisfy the triple relations."""
    spec = basis.spec
    if ladders is None:
        ladders = ladder_matrices(basis)
    am, ap = _sums(ladders.lowering), _sums(ladders.raising)
    s = spec.s
    r = spec.r

    if spec.s == +1:
        interior_cap = spec.total_cap - 2
    else:
        interior_cap = spec.total_cap
    interior = basis.grades <= interior_cap

    worst_raise = ResidualNorms(0.0, 0.0)
    worst_lower = ResidualNorms(0.0, 0.0)
    worst_mutual = ResidualNorms(0.0, 0.0)

    def update(current: ResidualNorms, residual: _ShiftSum) -> ResidualNorms:
        norms = _residual_norms(residual, interior)
        return ResidualNorms(
            max(norms.spectral, current.spectral), max(norms.max_abs, current.max_abs)
        )

    for i in range(r):
        for j in range(r):
            inner = _comm(ap[i], am[j])
            for k in range(r):
                res_raise = _comm(inner, ap[k])
                res_lower = _comm(inner, am[k])
                if j == k:
                    res_raise = res_raise + s * ap[i]
                if i == k:
                    res_lower = res_lower - s * am[j]
                if i == j:
                    res_raise = res_raise + s * ap[k]
                    res_lower = res_lower - s * am[k]
                worst_raise = update(worst_raise, res_raise)
                worst_lower = update(worst_lower, res_lower)
            worst_mutual = update(worst_mutual, _comm(am[i], am[j]))
            worst_mutual = update(worst_mutual, _comm(ap[i], ap[j]))

    return RelationReport(
        spec=spec,
        interior_cap=interior_cap,
        triple_raise=worst_raise,
        triple_lower=worst_lower,
        mutual_commute=worst_mutual,
    )


@dataclass(frozen=True)
class HamiltonianSpec:
    """Ground offset e0 and per-mode energies e_1..e_r."""

    e0: float
    e: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.e0, *self.e)):
            raise InvalidSpec("Hamiltonian energies must be finite")


def energy_shift(spec: StatisticsSpec) -> float:
    """Constant added to each mode Hamiltonian so the vacuum sits at zero.

    Fixed by requiring h_i |0> = 0, which makes the spectrum exactly
    e0 + sum_i e_i n_i.
    """
    return -(2.0 * spec.k * spec.s - spec.s + 1.0) / (2.0 * spec.r + 2.0)


def hamiltonian(basis: FockBasis, hspec: HamiltonianSpec) -> sparse.csr_matrix:
    """Faithful matrix of H = e0 + sum_i e_i h_i on the enumerated basis.

    H is diagonal with entry e0 + sum_i e_i n_i on state n.  This is the
    exact compression of the mode Hamiltonians to the retained basis; for
    the truncated bosonic family it is what the commutator assembly of
    ``hamiltonian_from_commutators`` produces on interior states, without
    the truncation artifact in the top occupancy layer.
    """
    return Shift.diagonal(occupation_energies(basis, hspec)).tocsr()


def occupation_energies(basis: FockBasis, hspec: HamiltonianSpec) -> np.ndarray:
    """e0 + sum_i e_i n_i for every basis state, in basis order.

    Finite energies whose sum overflows double precision raise InvalidSpec.
    """
    if len(hspec.e) != basis.spec.r:
        raise InvalidSpec(f"need {basis.spec.r} mode energies, got {len(hspec.e)}")
    total = np.zeros(basis.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for e_i, n_i in zip(hspec.e, basis.occupations.T):
            total = total + e_i * n_i
        energies = hspec.e0 + total
    if not np.all(np.isfinite(energies)):
        raise InvalidSpec("the occupation energies e0 + sum_i e_i n_i overflow double precision")
    return energies


def _hamiltonian_from(basis: FockBasis, hspec: HamiltonianSpec, comms: list[_ShiftSum]) -> _ShiftSum:
    # e0 + sum_i e_i h_i from the commutators [a_i^-, a_i^+]
    spec = basis.spec
    if len(hspec.e) != spec.r:
        raise InvalidSpec(f"need {spec.r} mode energies, got {len(hspec.e)}")
    total = comms[0]
    for comm in comms[1:]:
        total = total + comm
    (eye,) = _sums([Shift.identity(basis.dim)])
    h = hspec.e0 * eye
    for e_i, comm in zip(hspec.e, comms):
        h_i = (spec.s / (spec.r + 1.0)) * ((spec.r + 1.0) * comm - total) + energy_shift(spec) * eye
        h = h + e_i * h_i
    return h


def hamiltonian_from_commutators(
    basis: FockBasis, hspec: HamiltonianSpec, ladders: LadderOperators | None = None
) -> sparse.csr_matrix:
    """Assemble H from the ladder commutators, as a cross-check path.

    Each h_i = s/(r+1) * [ (r+1)[a_i^-, a_i^+] - sum_j [a_j^-, a_j^+] ] + c
    with the vacuum-calibrated shift c.  Exact on the whole fermionic space;
    for s=+1 the truncated raising operators corrupt the commutators on the
    top layer, so agreement with ``hamiltonian`` holds on total occupancy
    <= n_max - 1 only.  Assembled as a diagonal shift (a sum of shifts if a
    ladder entry sits in a column the grading forbids), returned as CSR.
    """
    if ladders is None:
        ladders = ladder_matrices(basis)
    comms = [_comm(lower, upper) for lower, upper in zip(_sums(ladders.lowering), _sums(ladders.raising))]
    return _hamiltonian_from(basis, hspec, comms).tocsr()


def commutator_spectrum_deviation(
    basis: FockBasis, hspec: HamiltonianSpec, ladders: LadderOperators | None = None
) -> float:
    """Largest deviation of ``hamiltonian_from_commutators`` from diag(e0 + sum_i e_i n_i).

    H is assembled from the diagonal entries of the products a_i^- a_i^+
    and a_i^+ a_i^-, and any entry of theirs off the diagonal counts at its
    size.  Rows: the whole fermionic space, total occupancy <= n_max - 1
    for s=+1.  Mode i enters H with weight e_i - (e_1 + ... + e_r)/(r+1),
    so where that is zero only its off-diagonal entries are seen.
    """
    if ladders is None:
        ladders = ladder_matrices(basis)
    energies = occupation_energies(basis, hspec)
    rows = np.arange(basis.dim)
    kept = basis.grades <= basis.spec.total_cap - (1 if basis.spec.s == +1 else 0)
    comms, stray = [], 0.0
    for lower, upper in zip(ladders.lowering, ladders.raising):
        products = (lower @ upper, upper @ lower)
        for op in products:
            stray = max(stray, float(np.max(np.abs(op.weight[kept & (op.source != rows)]), initial=0.0)))
        diagonal = [Shift.diagonal(np.where(op.source == rows, op.weight, 0.0)) for op in products]
        comms.extend(_sums([diagonal[0] - diagonal[1]]))
    (h,) = _hamiltonian_from(basis, hspec, comms).terms
    return max(stray, float(np.max(np.abs(h.weight - energies)[kept], initial=0.0)))


def commutator_deviation(spec: StatisticsSpec, n_cap: int, ladders: LadderOperators | None = None) -> float:
    """max_ij || P ([a_i^-, a_j^+] - k d_ij) P || / k on total occupancy <= n_cap.

    The deviation is O(n_cap / k): the diagonal part of [a_i^-, a_i^+] is
    k - (1+s)/2 + s(n_tot + 1) + s n_i, and cross-mode commutators stay O(1).
    The 2-norm is the certified bound of the shift block, exact here.
    """
    if spec.s == +1 and spec.n_max < n_cap + 2:
        raise InvalidSpec("bosonic sweep needs n_max >= n_cap + 2")
    if n_cap > spec.total_cap:
        raise InvalidSpec(f"n_cap {n_cap} exceeds the basis cap {spec.total_cap}")
    if ladders is None:
        ladders = ladder_matrices(enumerate_basis(spec))
    basis = ladders.basis
    keep = basis.grades <= n_cap
    (eye,) = _sums([Shift.identity(basis.dim)])
    am, ap = _sums(ladders.lowering), _sums(ladders.raising)
    worst = 0.0
    for i in range(spec.r):
        for j in range(spec.r):
            comm = _comm(am[i], ap[j])
            if i == j:
                comm = comm - spec.k * eye
            worst = max(worst, _residual_norms(comm, keep, keep).spectral)
    return worst / spec.k


def large_k_commutator_deviation(
    r: int,
    s: int,
    k_values: Sequence[float],
    n_cap: int,
    n_max: int | None = None,
) -> list[tuple[float, float]]:
    """Relative deviation of [a_i^-, a_j^+] from k d_ij along a k sweep.

    ``n_cap`` is held fixed across the sweep; the returned deviations
    decrease like 1/k.  For s=+1 the truncation defaults to n_cap + 2,
    the smallest cap on which the commutator is exact.
    """
    rows = []
    for k in k_values:
        if s == +1:
            spec = StatisticsSpec(r=r, s=s, k=k, n_max=n_max if n_max is not None else n_cap + 2)
        else:
            spec = StatisticsSpec(r=r, s=s, k=k)
        rows.append((float(k), commutator_deviation(spec, n_cap)))
    return rows
