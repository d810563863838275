"""Symbols, the coherent-state star product, and its semiclassical limit.

The symbol of an operator is its normalized coherent-state expectation.
Operator composition induces an associative product on symbols whose
large-k expansion is

    (A * B)(z) = A(z) B(z) + g^ij dA/dz_i dB/dzbar_j + O(1/k^2),

with the inverse Kaehler metric supplying the contraction (each entry
of which is O(1/k)).  The star commutator of two symbols is then the
antisymmetrized derivative term, the semiclassical image of the operator
commutator.  ``convergence_study`` measures the remainders along a k
sweep and fits their log-log slope, which sits at -2 for operator pairs
whose first-order term does not close exactly.

Note the low-degree polynomial pairs in the ladder generators (number
and linear-ladder combinations) are reproduced exactly by the first
order term in these representations; the shipped study families use
quadratic ladder monomials, where the 1/k^2 remainder is genuinely
nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    FockBasis,
    LadderOperators,
    StatisticsSpec,
    enumerate_basis,
    ladder_matrices,
    number_operator,
)
from .bargmann import QuadratureRule, coherent_vector, coherent_amplitude_matrix, integrate, metric
from .errors import FitError, InvalidSpec, StepError

__all__ = [
    "Symbol",
    "LogLogFit",
    "ConvergenceStudy",
    "symbol_of",
    "star_exact",
    "star_quadrature",
    "star_first_order",
    "moyal_bracket",
    "convergence_study",
    "standard_pair",
    "STANDARD_PAIRS",
    "potential_symbol_handle",
]


def symbol_of(op, basis: FockBasis, z) -> complex:
    """Normalized coherent-state expectation <z|A|z> of an operator."""
    vec = coherent_vector(basis.spec, basis, z)
    return complex(np.vdot(vec.amplitudes, op @ vec.amplitudes))


def star_exact(a, b, basis: FockBasis, z) -> complex:
    """Exact star product: the symbol of the operator product."""
    return symbol_of(a @ b, basis, z)


def star_quadrature(a, b, basis: FockBasis, z, rule: QuadratureRule, n_angular: int = 33) -> complex:
    """Integral form of the exact star product, as a validation path.

    Inserts the coherent-state resolution of the identity between the two
    operators and integrates <z|A|z'><z'|B|z> (with the squared coherent
    normalization) against the measure.
    """
    spec = basis.spec
    vec = coherent_vector(spec, basis, z)
    left_row = np.asarray(vec.amplitudes.conj() @ a).ravel()   # <z|A|n'>
    right_col = np.asarray(b @ vec.amplitudes).ravel()         # <n'|B|z>

    def integrand(zs):
        amps = coherent_amplitude_matrix(spec, basis, zs)
        rho = np.sum(np.abs(zs) ** 2, axis=1)
        n_sq = np.exp(
            -(2.0 * spec.k * spec.s - spec.s + 1.0) / 2.0 * np.log1p(-spec.s * rho)
        )
        return n_sq * (amps @ left_row) * (amps.conj() @ right_col)

    return complex(integrate(rule, integrand, n_angular=n_angular))


@dataclass(frozen=True)
class Symbol:
    """A phase-space function with derivative access.

    ``fn`` maps a point (complex array of shape (r,)) to a complex value.
    Analytic gradients are used when supplied; otherwise holomorphic and
    antiholomorphic derivatives come from central differences on the real
    and imaginary parts (step ``step``, halved once for a noise estimate).
    """

    fn: Callable[[np.ndarray], complex]
    grad_z: Callable[[np.ndarray], np.ndarray] | None = None
    grad_zbar: Callable[[np.ndarray], np.ndarray] | None = None
    step: float = 1e-5

    @classmethod
    def from_operator(cls, op, basis: FockBasis, step: float = 1e-5) -> "Symbol":
        def fn(z):
            vec = coherent_vector(basis.spec, basis, z)
            return complex(np.vdot(vec.amplitudes, op @ vec.amplitudes))

        return cls(fn=fn, step=step)

    def value(self, z) -> complex:
        return complex(self.fn(np.asarray(z, dtype=complex)))

    @property
    def analytic(self) -> bool:
        return self.grad_z is not None and self.grad_zbar is not None

    def fd_gradients(self, z, h: float) -> tuple[np.ndarray, np.ndarray]:
        z = np.asarray(z, dtype=complex)
        r = z.shape[0]
        dz = np.zeros(r, dtype=complex)
        dzbar = np.zeros(r, dtype=complex)
        for i in range(r):
            e = np.zeros(r, dtype=complex)
            e[i] = 1.0
            fx = (self.fn(z + h * e) - self.fn(z - h * e)) / (2.0 * h)
            fy = (self.fn(z + 1j * h * e) - self.fn(z - 1j * h * e)) / (2.0 * h)
            dz[i] = 0.5 * (fx - 1j * fy)
            dzbar[i] = 0.5 * (fx + 1j * fy)
        return dz, dzbar

    def gradients(self, z, h: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        z = np.asarray(z, dtype=complex)
        if self.analytic:
            return (
                np.asarray(self.grad_z(z), dtype=complex),
                np.asarray(self.grad_zbar(z), dtype=complex),
            )
        return self.fd_gradients(z, h if h is not None else self.step)


def _correction_with_noise(sym_a: Symbol, sym_b: Symbol, m, z, step):
    """Metric-contracted derivative term and its finite-difference noise."""
    da, _ = sym_a.gradients(z, step)
    _, dbbar = sym_b.gradients(z, step)
    corr = m.contract(da, dbbar)
    if sym_a.analytic and sym_b.analytic:
        return corr, 0.0
    da2, _ = sym_a.gradients(z, (step if step is not None else sym_a.step) / 2.0)
    _, dbbar2 = sym_b.gradients(z, (step if step is not None else sym_b.step) / 2.0)
    refined = m.contract(da2, dbbar2)
    return refined, abs(refined - corr)


def star_first_order(sym_a: Symbol, sym_b: Symbol, spec: StatisticsSpec, z, step: float | None = None) -> complex:
    """Pointwise product plus the metric-contracted derivative correction.

    Raises StepError when the finite-difference noise estimate (step vs
    half step) exceeds the correction it is supposed to resolve, beyond a
    round-off floor tied to the magnitudes involved.
    """
    z = np.asarray(z, dtype=complex)
    a = sym_a.value(z)
    b = sym_b.value(z)
    m = metric(spec, z)
    corr, noise = _correction_with_noise(sym_a, sym_b, m, z, step)
    floor = 1e-12 * (1.0 + abs(a * b))
    if noise > max(abs(corr), floor):
        raise StepError(
            f"derivative noise {noise:.3e} exceeds correction {abs(corr):.3e}"
        )
    return a * b + corr


def moyal_bracket(sym_a: Symbol, sym_b: Symbol, spec: StatisticsSpec, z, step: float | None = None) -> complex:
    """Star commutator of two symbols, exactly antisymmetric in (A, B)."""
    z = np.asarray(z, dtype=complex)
    m = metric(spec, z)
    corr_ab, noise_ab = _correction_with_noise(sym_a, sym_b, m, z, step)
    corr_ba, noise_ba = _correction_with_noise(sym_b, sym_a, m, z, step)
    bracket = corr_ab - corr_ba
    noise = noise_ab + noise_ba
    floor = 1e-12 * (1.0 + abs(corr_ab) + abs(corr_ba))
    if noise > max(abs(bracket), floor):
        raise StepError(
            f"derivative noise {noise:.3e} exceeds bracket {abs(bracket):.3e}"
        )
    return bracket


# ------------------------------------------------------- convergence study

@dataclass(frozen=True)
class LogLogFit:
    """Least-squares line through (log k, log err), floor-filtered."""

    slope: float | None
    intercept: float | None
    residual: float | None
    n_used: int
    degenerate: bool


def _fit_loglog(k_values, errors, floor: float) -> LogLogFit:
    pairs = [(k, e) for k, e in zip(k_values, errors) if e > floor]
    if len(pairs) < 2:
        return LogLogFit(None, None, None, len(pairs), True)
    ks = np.log([k for k, _ in pairs])
    es = np.log([e for _, e in pairs])
    (slope, intercept), res = np.polyfit(ks, es, 1), 0.0
    res = float(np.sqrt(np.mean((np.polyval([slope, intercept], ks) - es) ** 2)))
    return LogLogFit(float(slope), float(intercept), res, len(pairs), False)


@dataclass(frozen=True)
class ConvergenceStudy:
    """Per-k remainders of the first-order star product and bracket."""

    k_values: tuple[float, ...]
    star_errors: tuple[float, ...]
    bracket_errors: tuple[float, ...]
    star_fit: LogLogFit
    bracket_fit: LogLogFit


def convergence_study(
    k_values: Sequence[float],
    build_spec: Callable[[float], StatisticsSpec],
    build_pair: Callable[[FockBasis, LadderOperators], tuple],
    points: Sequence,
    step: float = 1e-5,
    error_floor: float = 1e-13,
    require_fit: bool = False,
) -> ConvergenceStudy:
    """Sweep k, recording worst-point remainders and their log-log fits.

    ``build_spec`` maps each k to a StatisticsSpec (same r and s across
    the sweep); ``build_pair`` produces the operator pair on each basis.
    Errors below ``error_floor`` are treated as round-off and dropped
    from the fits; if fewer than two points survive the fit is flagged
    degenerate (FitError instead when ``require_fit``).
    """
    if len(k_values) < 3:
        raise InvalidSpec("a convergence sweep needs at least 3 k values")
    if any(b <= a for a, b in zip(k_values, k_values[1:])):
        raise InvalidSpec("k grid must be strictly increasing")
    star_errors = []
    bracket_errors = []
    for k in k_values:
        spec = build_spec(k)
        basis = enumerate_basis(spec)
        ladders = ladder_matrices(basis)
        a, b = build_pair(basis, ladders)
        sym_a = Symbol.from_operator(a, basis, step=step)
        sym_b = Symbol.from_operator(b, basis, step=step)
        worst_star = 0.0
        worst_bracket = 0.0
        for z in points:
            exact = star_exact(a, b, basis, z)
            first = star_first_order(sym_a, sym_b, spec, z, step=step)
            worst_star = max(worst_star, abs(exact - first))
            comm_symbol = symbol_of(a @ b - b @ a, basis, z)
            bracket = moyal_bracket(sym_a, sym_b, spec, z, step=step)
            worst_bracket = max(worst_bracket, abs(comm_symbol - bracket))
        star_errors.append(worst_star)
        bracket_errors.append(worst_bracket)
    star_fit = _fit_loglog(k_values, star_errors, error_floor)
    bracket_fit = _fit_loglog(k_values, bracket_errors, error_floor)
    if require_fit and (star_fit.degenerate or bracket_fit.degenerate):
        raise FitError("errors sit at the floating-point floor; no slope to fit")
    return ConvergenceStudy(
        k_values=tuple(float(k) for k in k_values),
        star_errors=tuple(star_errors),
        bracket_errors=tuple(bracket_errors),
        star_fit=star_fit,
        bracket_fit=bracket_fit,
    )


def _pair_raise_sq_lower_sq(basis, ladders):
    kappa = basis.spec.kappa
    up = ladders.plus[0]
    dn = ladders.minus[0]
    return (up @ up) / kappa**2, (dn @ dn) / kappa**2


def _pair_number_sq_lower_sq(basis, ladders):
    kappa = basis.spec.kappa
    n = number_operator(basis, 0)
    dn = ladders.minus[0]
    return (n @ n) / kappa**2, (dn @ dn) / kappa**2


def _pair_number_raise_sq_lower_sq(basis, ladders):
    kappa = basis.spec.kappa
    n = number_operator(basis, 0)
    up = ladders.plus[0]
    dn = ladders.minus[0]
    return (n @ up @ up) / kappa**3, (dn @ dn) / kappa**2


def _pair_commuting_numbers(basis, ladders):
    if basis.spec.r < 2:
        raise InvalidSpec("the commuting-number pair needs r >= 2")
    kappa = basis.spec.kappa
    return (
        number_operator(basis, 0) / kappa,
        number_operator(basis, 1) / kappa,
    )


def _pair_identity(basis, ladders):
    from scipy import sparse

    eye = sparse.identity(basis.dim, dtype=complex, format="csr")
    return eye, eye


#: Scale-normalized operator pairs for remainder studies.  The first three
#: are non-commuting with genuinely nonzero 1/k^2 remainders; the last two
#: are degenerate controls (identically vanishing errors).
STANDARD_PAIRS = {
    "raise_sq_lower_sq": _pair_raise_sq_lower_sq,
    "number_sq_lower_sq": _pair_number_sq_lower_sq,
    "number_raise_sq_lower_sq": _pair_number_raise_sq_lower_sq,
    "commuting_numbers": _pair_commuting_numbers,
    "identity": _pair_identity,
}


def standard_pair(name: str):
    try:
        return STANDARD_PAIRS[name]
    except KeyError:
        raise InvalidSpec(
            f"unknown operator pair {name!r}; choose from {sorted(STANDARD_PAIRS)}"
        ) from None


def potential_symbol_handle(spec: StatisticsSpec, energies: Sequence[float]) -> Symbol:
    """Symbol of the excitation potential with analytic derivatives."""
    e = np.asarray(energies, dtype=float)
    if e.shape != (spec.r,):
        raise InvalidSpec(f"need {spec.r} mode energies")
    kappa, s = spec.kappa, spec.s

    def fn(z):
        rho = float(np.sum(np.abs(z) ** 2))
        return kappa * float(np.dot(e, np.abs(z) ** 2)) / (1.0 - s * rho)

    def grad_z(z):
        rho = float(np.sum(np.abs(z) ** 2))
        u = 1.0 - s * rho
        g = float(np.dot(e, np.abs(z) ** 2))
        return kappa * np.conj(z) * (e * u + s * g) / u**2

    def grad_zbar(z):
        return np.conj(grad_z(np.asarray(z, dtype=complex)))

    return Symbol(fn=fn, grad_z=grad_z, grad_zbar=grad_zbar)
