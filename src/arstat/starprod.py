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

Operator symbols have exact derivatives.  On unnormalized coherent states
the creator acts as d/dz, so each gradient of <z|A|z> is itself a
coherent-state expectation (see ``Symbol.from_operator``): the first-order
terms carry round-off only, and remainders are fitted down to
``FIT_FLOOR``.

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
    Shift,
    StatisticsSpec,
    enumerate_basis,
    ladder_matrices,
    number_shift,
)
from .bargmann import QuadratureRule, coherent_vector, coherent_amplitude_matrix, integrate, metric
from .errors import ArstatError, InvalidSpec

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
    "FIT_FLOOR",
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


def _operator_jet(op, ladders: LadderOperators, v: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray]:
    """Symbol of ``op`` with its exact gradients at the point of the coherent vector ``v``.

    On unnormalized coherent states the creator acts as d/dz_i, so
    dA/dz_i = <z|A a_i^+|z> - A <z|a_i^+|z> and
    dA/dzbar_j = <z|a_j^- A|z> - A <z|a_j^-|z>.  With v the normalized
    vector and u_j = a_j^+ v, the second is <u_j|A v> - A <u_j|v>.
    """
    av = op @ v
    value = complex(np.vdot(v, av))
    raised = [up @ v for up in ladders.raising]
    grad_z = np.array([np.vdot(v, op @ u) - value * np.vdot(v, u) for u in raised])
    grad_zbar = np.array([np.vdot(u, av) - value * np.vdot(u, v) for u in raised])
    grad_z.flags.writeable = False
    grad_zbar.flags.writeable = False
    return value, grad_z, grad_zbar


@dataclass(frozen=True)
class Symbol:
    """A phase-space function with its holomorphic and antiholomorphic gradients.

    ``fn`` maps a point (complex array of shape (r,)) to a complex value;
    ``grad_z`` and ``grad_zbar`` map it to the arrays dA/dz_i and
    dA/dzbar_i.
    """

    fn: Callable[[np.ndarray], complex]
    grad_z: Callable[[np.ndarray], np.ndarray]
    grad_zbar: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_operator(cls, op, ladders: LadderOperators) -> "Symbol":
        """Symbol of an operator on the basis of ``ladders``, with exact gradients."""
        basis = ladders.basis

        def jet(z):
            return _operator_jet(op, ladders, coherent_vector(basis.spec, basis, z).amplitudes)

        return cls(
            fn=lambda z: symbol_of(op, basis, z),
            grad_z=lambda z: jet(z)[1],
            grad_zbar=lambda z: jet(z)[2],
        )

    def value(self, z) -> complex:
        return complex(self.fn(np.asarray(z, dtype=complex)))

    def jet(self, z) -> tuple[complex, np.ndarray, np.ndarray]:
        """Value, dA/dz and dA/dzbar at one point."""
        z = np.asarray(z, dtype=complex)
        return (
            complex(self.fn(z)),
            np.asarray(self.grad_z(z), dtype=complex),
            np.asarray(self.grad_zbar(z), dtype=complex),
        )


def star_first_order(sym_a: Symbol, sym_b: Symbol, spec: StatisticsSpec, z) -> complex:
    """Pointwise product plus the metric-contracted derivative correction."""
    z = np.asarray(z, dtype=complex)
    return _star_first_order(sym_a.jet(z), sym_b.jet(z), metric(spec, z))


def moyal_bracket(sym_a: Symbol, sym_b: Symbol, spec: StatisticsSpec, z) -> complex:
    """Star commutator of two symbols, exactly antisymmetric in (A, B)."""
    z = np.asarray(z, dtype=complex)
    return _moyal_bracket(sym_a.jet(z), sym_b.jet(z), metric(spec, z))


def _star_first_order(jet_a, jet_b, m) -> complex:
    a, da, _ = jet_a
    b, _, dbbar = jet_b
    return a * b + m.contract(da, dbbar)


def _moyal_bracket(jet_a, jet_b, m) -> complex:
    _, da, dabar = jet_a
    _, db, dbbar = jet_b
    return m.contract(da, dbbar) - m.contract(db, dabar)


def _first_order_remainders(a, b, ladders: LadderOperators, z) -> tuple[float, float]:
    """Star-product and star-commutator remainders at z, from one coherent vector.

    With v the coherent vector at z, the exact star product is the symbol
    of AB, <v|A (B v)>, and the exact commutator symbol is that minus
    <v|B (A v)>; the jets of A and B come from the same v.
    """
    basis = ladders.basis
    z = np.asarray(z, dtype=complex)
    v = coherent_vector(basis.spec, basis, z).amplitudes
    jet_a = _operator_jet(a, ladders, v)
    jet_b = _operator_jet(b, ladders, v)
    m = metric(basis.spec, z)
    star = complex(np.vdot(v, a @ (b @ v)))
    commutator = star - complex(np.vdot(v, b @ (a @ v)))
    return (
        abs(star - _star_first_order(jet_a, jet_b, m)),
        abs(commutator - _moyal_bracket(jet_a, jet_b, m)),
    )


# ------------------------------------------------------- convergence study

@dataclass(frozen=True)
class LogLogFit:
    """Least-squares line through (log k, log err), floor-filtered."""

    slope: float | None
    intercept: float | None
    residual: float | None
    n_used: int
    degenerate: bool


#: Remainders at or below this are round-off.  The identity pair's, which
#: vanish exactly, carry round-off that grows with k (4e-12 at r=1, s=-1,
#: k=2560); raise_sq_lower_sq's at the small point z = 0.3 is 1.4e-11 there.
FIT_FLOOR = 1e-11


def _fit_loglog(k_values, errors) -> LogLogFit:
    pairs = [(k, e) for k, e in zip(k_values, errors) if e > FIT_FLOOR]
    if len(pairs) < 2:
        return LogLogFit(None, None, None, len(pairs), True)
    ks = np.log([k for k, _ in pairs])
    es = np.log([e for _, e in pairs])
    slope, intercept = np.polyfit(ks, es, 1)
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
) -> ConvergenceStudy:
    """Sweep k, recording worst-point remainders and their log-log fits.

    ``build_spec`` maps each k to a StatisticsSpec (same r and s across
    the sweep); ``build_pair`` produces the operator pair on each basis.
    A standard pair is built and applied as shifts, with numpy alone.
    Errors at or below ``FIT_FLOOR`` are round-off and dropped from the
    fits; if fewer than two points survive the fit is flagged degenerate.
    A non-finite remainder raises ArstatError.
    """
    if len(k_values) < 3:
        raise InvalidSpec("a convergence sweep needs at least 3 k values")
    if any(b <= a for a, b in zip(k_values, k_values[1:])):
        raise InvalidSpec("k grid must be strictly increasing")
    if isinstance(build_pair, _StandardPair):
        build_pair = build_pair.shifts
    star_errors = []
    bracket_errors = []
    for k in k_values:
        spec = build_spec(k)
        basis = enumerate_basis(spec)
        ladders = ladder_matrices(basis)
        a, b = build_pair(basis, ladders)
        remainders = np.array([_first_order_remainders(a, b, ladders, z) for z in points])
        if not np.all(np.isfinite(remainders)):
            raise ArstatError(f"non-finite star-product remainder at k={k:g}")
        worst_star, worst_bracket = remainders.max(axis=0)
        star_errors.append(float(worst_star))
        bracket_errors.append(float(worst_bracket))
    return ConvergenceStudy(
        k_values=tuple(float(k) for k in k_values),
        star_errors=tuple(star_errors),
        bracket_errors=tuple(bracket_errors),
        star_fit=_fit_loglog(k_values, star_errors),
        bracket_fit=_fit_loglog(k_values, bracket_errors),
    )


def _pair_raise_sq_lower_sq(basis, ladders):
    kappa = basis.spec.kappa
    up = ladders.raising[0]
    dn = ladders.lowering[0]
    return (up @ up) / kappa**2, (dn @ dn) / kappa**2


def _pair_number_sq_lower_sq(basis, ladders):
    kappa = basis.spec.kappa
    n = number_shift(basis, 0)
    dn = ladders.lowering[0]
    return (n @ n) / kappa**2, (dn @ dn) / kappa**2


def _pair_number_raise_sq_lower_sq(basis, ladders):
    kappa = basis.spec.kappa
    n = number_shift(basis, 0)
    up = ladders.raising[0]
    dn = ladders.lowering[0]
    return (n @ up @ up) / kappa**3, (dn @ dn) / kappa**2


def _pair_commuting_numbers(basis, ladders):
    if basis.spec.r < 2:
        raise InvalidSpec("the commuting-number pair needs r >= 2")
    kappa = basis.spec.kappa
    return number_shift(basis, 0) / kappa, number_shift(basis, 1) / kappa


def _pair_identity(basis, ladders):
    eye = Shift.identity(basis.dim)
    return eye, eye


@dataclass(frozen=True)
class _StandardPair:
    """One of ``STANDARD_PAIRS``: called on (basis, ladders), it returns the
    two operators as scipy.sparse CSR matrices; ``shifts`` builds the same
    two as ``Shift`` operators."""

    shifts: Callable[[FockBasis, LadderOperators], tuple[Shift, Shift]]

    def __call__(self, basis: FockBasis, ladders: LadderOperators) -> tuple:
        a, b = self.shifts(basis, ladders)
        return a.tocsr(), b.tocsr()


#: Scale-normalized operator pairs for remainder studies.  The first three
#: are non-commuting with genuinely nonzero 1/k^2 remainders; the last two
#: are degenerate controls (identically vanishing errors).
STANDARD_PAIRS = {
    "raise_sq_lower_sq": _StandardPair(_pair_raise_sq_lower_sq),
    "number_sq_lower_sq": _StandardPair(_pair_number_sq_lower_sq),
    "number_raise_sq_lower_sq": _StandardPair(_pair_number_raise_sq_lower_sq),
    "commuting_numbers": _StandardPair(_pair_commuting_numbers),
    "identity": _StandardPair(_pair_identity),
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
