"""Chiral boson fields on the droplet boundary and their quantization.

Each component field rides the boundary circle with its own velocity,

    Phi_i(theta, t) = zbar_i - a0_i (theta - e_i t)
                      + i sum_{n != 0} (a_n^i / n) exp(in(theta - e_i t)),

with a_{-n} = conj(a_n) keeping it real and the winding a0_i fixing the
periodicity deficit Phi_i(2pi) - Phi_i(0) = -2pi a0_i.  The boundary
action couples the total angular derivative of the product field to the
chiral combination (d_t + sum_i e_i d_i)Phi, which vanishes pointwise on
solutions, so the action is zero there and nonzero on generic data.

Quantization promotes the Fourier amplitudes to oscillator modes with
[a_n^i, a_m^j] = d_ij d_{n+m,0} and a conjugate zero-mode pair with
[a0, zbar0] = i, realized on truncated factors whose commutators are
exact on interior levels.  Each factor is stored by the one band of its
lowering operator, as a numpy vector, and embedded in the tensor-product
space only on demand, as a ``scipy.sparse`` matrix; that embedding is the
only use of SciPy here, and imports it.  Operators on distinct factors
commute exactly, so the commutator check runs on each factor alone, from
its bands in time linear in its dimension, and checks that no two
operators share a factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import GridError, InvalidSpec, SizeError

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "EdgeField",
    "ModeAlgebra",
    "DimensionReport",
    "random_edge_field",
    "evaluate_component",
    "evaluate_field",
    "momentum_component",
    "eom_residual",
    "periodicity_residual",
    "momentum_coefficient_residual",
    "sample_field",
    "action_value",
    "build_mode_algebra",
    "hilbert_dimensions",
    "mode_commutator_residual",
]


@dataclass(frozen=True)
class EdgeField:
    """Mode data of a solution of the boundary theory.

    ``amplitudes[i, n-1]`` holds the positive-frequency coefficient a_n^i
    for n = 1..M; negative modes are its conjugates.  ``drift_scale``
    rescales the wave speed inside the oscillator phases only (1.0 is the
    chiral solution; other values model corrupted data for negative
    controls).  ``boundary_radius`` records N/k and does not enter the
    field values.
    """

    velocities: tuple[float, ...]
    winding: tuple[float, ...]
    zero_mode: tuple[float, ...]
    amplitudes: np.ndarray
    boundary_radius: float = 1.0
    drift_scale: float = 1.0

    def __post_init__(self):
        r = len(self.velocities)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] != r:
            raise InvalidSpec(f"amplitudes must have shape (r, M), got {amps.shape}")
        if len(self.winding) != r or len(self.zero_mode) != r:
            raise InvalidSpec("winding and zero_mode must have one entry per component")
        data = {"velocities": self.velocities, "winding": self.winding,
                "zero_mode": self.zero_mode, "amplitudes": amps}
        for name, values in data.items():
            if not np.all(np.isfinite(values)):
                raise InvalidSpec(f"{name} must be finite")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def r(self) -> int:
        return len(self.velocities)

    @property
    def n_modes(self) -> int:
        return self.amplitudes.shape[1]

    def with_drift_scale(self, scale: float) -> "EdgeField":
        return EdgeField(
            velocities=self.velocities,
            winding=self.winding,
            zero_mode=self.zero_mode,
            amplitudes=self.amplitudes,
            boundary_radius=self.boundary_radius,
            drift_scale=scale,
        )


def random_edge_field(r: int, n_modes: int, rng, velocity_scale: float = 1.0) -> EdgeField:
    """Random mode data with the reality constraint built in."""
    amps = rng.normal(size=(r, n_modes)) + 1j * rng.normal(size=(r, n_modes))
    return EdgeField(
        velocities=tuple(velocity_scale * rng.uniform(0.5, 2.0, size=r)),
        winding=tuple(rng.normal(size=r)),
        zero_mode=tuple(rng.normal(size=r)),
        amplitudes=0.5 * amps,
    )


def _oscillator_sum(field: EdgeField, i: int, phase: np.ndarray) -> np.ndarray:
    # 2 Re[ i sum_n (a_n/n) e^{in phase} ]
    total = np.zeros_like(phase, dtype=float)
    for n in range(1, field.n_modes + 1):
        coeff = 1j * field.amplitudes[i, n - 1] / n
        total += 2.0 * np.real(coeff * np.exp(1j * n * phase))
    return total


def evaluate_component(field: EdgeField, i: int, theta, t: float):
    """One real component Phi_i(theta, t); theta may be an array."""
    theta = np.asarray(theta, dtype=float)
    e = field.velocities[i]
    phase = theta - field.drift_scale * e * t
    winding_part = field.zero_mode[i] - field.winding[i] * (theta - e * t)
    return winding_part + _oscillator_sum(field, i, phase)


def evaluate_field(field: EdgeField, thetas, t: float) -> float:
    """Product field Phi = Phi_1 ... Phi_r at one point of the torus."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if thetas.shape != (field.r,):
        raise InvalidSpec(f"need {field.r} angles, got shape {thetas.shape}")
    value = 1.0
    for i in range(field.r):
        value *= float(evaluate_component(field, i, thetas[i], t))
    return value


def momentum_component(field: EdgeField, i: int, theta, t: float):
    """Conjugate momentum a0_i + sum_{n != 0} a_n^i e^{in(theta - e_i t)}."""
    theta = np.asarray(theta, dtype=float)
    phase = theta - field.drift_scale * field.velocities[i] * t
    total = np.full_like(theta, float(field.winding[i]), dtype=float)
    for n in range(1, field.n_modes + 1):
        total += 2.0 * np.real(field.amplitudes[i, n - 1] * np.exp(1j * n * phase))
    return total


def _spectral_derivative(values: np.ndarray, axis: int, wavenumbers: np.ndarray) -> np.ndarray:
    # in place on the spectrum, and a real copy so no complex array outlives the call
    shape = [1] * values.ndim
    shape[axis] = len(wavenumbers)
    spectrum = np.fft.fft(values, axis=axis)
    spectrum *= 1j * wavenumbers.reshape(shape)
    return np.fft.ifft(spectrum, axis=axis).real.copy()


def _spectral_theta_derivative(values: np.ndarray, axis: int = -1) -> np.ndarray:
    n = values.shape[axis]
    return _spectral_derivative(values, axis, np.fft.fftfreq(n, d=1.0 / n))  # integer wavenumbers


def eom_residual(field: EdgeField, n_theta: int = 128, times=None) -> float:
    """max |(d_t + e_i d_theta) Phi_i| over a sampling grid.

    The angular derivative of the oscillator part is spectral (exact for
    finite Fourier data), the winding slope and the time derivative are
    analytic; a field built from the mode expansion returns round-off.
    """
    if times is None:
        times = np.linspace(0.0, 2.0 * math.pi, 7)
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    worst = 0.0
    for i in range(field.r):
        e = field.velocities[i]
        d = field.drift_scale
        for t in times:
            phase = theta - d * e * t
            osc = _oscillator_sum(field, i, phase)
            dtheta = -field.winding[i] + _spectral_theta_derivative(osc)
            cos_sum = np.zeros_like(theta)
            for n in range(1, field.n_modes + 1):
                cos_sum += 2.0 * np.real(field.amplitudes[i, n - 1] * np.exp(1j * n * phase))
            dt = field.winding[i] * e + d * e * cos_sum
            worst = max(worst, float(np.max(np.abs(dt + e * dtheta))))
    return worst


def periodicity_residual(field: EdgeField, times=None) -> float:
    """max |Phi_i(2pi, t) - Phi_i(0, t) + 2pi winding_i| over sampled times."""
    if times is None:
        times = np.linspace(0.0, 3.0, 7)
    worst = 0.0
    for i in range(field.r):
        for t in times:
            deficit = float(
                evaluate_component(field, i, 2.0 * math.pi, t)
                - evaluate_component(field, i, 0.0, t)
            )
            worst = max(worst, abs(deficit + 2.0 * math.pi * field.winding[i]))
    return worst


def momentum_coefficient_residual(field: EdgeField, n_theta: int = 128, t: float = 0.6) -> float:
    """Coefficient-level check that -d_theta Phi_i reconstructs the momentum.

    The Fourier coefficients of the spectrally differentiated component
    must be the mode amplitudes (with the transport phase at time t) and
    the constant term the winding number.
    """
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    worst = 0.0
    for i in range(field.r):
        e = field.velocities[i]
        phase0 = -field.drift_scale * e * t
        osc = _oscillator_sum(field, i, theta + phase0)
        minus_dtheta = field.winding[i] - _spectral_theta_derivative(osc)
        coeffs = np.fft.fft(minus_dtheta) / n_theta
        worst = max(worst, abs(coeffs[0] - field.winding[i]))
        for n in range(1, field.n_modes + 1):
            expected = field.amplitudes[i, n - 1] * np.exp(1j * n * phase0)
            worst = max(worst, abs(coeffs[n] - expected))
    return worst


# ------------------------------------------------------------------ action

def sample_field(field: EdgeField, theta_axes, times) -> np.ndarray:
    """Product field sampled on times x theta_1 x ... x theta_r."""
    times = np.asarray(times, dtype=float)
    grids = [np.asarray(axis, dtype=float) for axis in theta_axes]
    if len(grids) != field.r:
        raise InvalidSpec(f"need {field.r} angular axes")
    out = np.empty((len(times),) + tuple(len(g) for g in grids))
    for it, t in enumerate(times):
        slice_val = np.ones(tuple(len(g) for g in grids))
        for i, g in enumerate(grids):
            comp = evaluate_component(field, i, g, t)
            shape = [1] * field.r
            shape[i] = len(g)
            slice_val = slice_val * comp.reshape(shape)
        out[it] = slice_val
    return out


def _check_uniform(axis: np.ndarray, name: str) -> float:
    diffs = np.diff(axis)
    if len(diffs) == 0:
        raise GridError(f"{name} grid needs at least two samples")
    if not np.allclose(diffs, diffs[0], rtol=1e-12, atol=1e-12):
        raise GridError(f"{name} grid is not uniform")
    return float(diffs[0])


def action_value(
    samples: np.ndarray,
    velocities,
    times,
    time_periodic: bool = True,
) -> float:
    """Boundary action of a sampled field history.

    ``samples`` has shape (nt, n_1, ..., n_r) on uniform grids: angular
    axes cover [0, 2pi) (endpoint excluded), and ``times`` covers one
    period [0, T) when ``time_periodic`` (the default; the time
    derivative is then spectral too, otherwise central differences).
    The integrand is -1/2 (L Phi)(d_t Phi + sum_i e_i d_i Phi) with L the
    sum of the angular derivatives; it vanishes pointwise on chiral
    solutions, making the action zero there to quadrature accuracy.

    The angular derivatives are spectral, so the sampled history must be
    genuinely periodic on the torus: a component with nonzero winding is
    multivalued there and belongs to the analytic residual checks, not to
    this sampled functional.
    """
    samples = np.asarray(samples, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    r = samples.ndim - 1
    if velocities.shape != (r,):
        raise InvalidSpec(f"need {r} velocities for a rank-{samples.ndim} sample array")
    times = np.asarray(times, dtype=float)
    if len(times) != samples.shape[0]:
        raise GridError("times length must match the leading sample axis")
    dt = _check_uniform(times, "time")

    # Every sum and product below runs in the order of the plain formulas
    # L = d_1 + ... + d_r, chiral = d_t + (0 + e_1 d_1 + ... + e_r d_r) and
    # integrand = (-1/2 L) chiral, in place on arrays no longer needed.
    theta_derivs = [_spectral_theta_derivative(samples, axis=1 + i) for i in range(r)]
    l_phi = theta_derivs[0].copy()
    for deriv in theta_derivs[1:]:
        l_phi += deriv
    transport = np.zeros_like(samples)
    for e, deriv in zip(velocities, theta_derivs):
        deriv *= e
        transport += deriv
    del theta_derivs, deriv

    if time_periodic:
        nt = samples.shape[0]
        period = nt * dt
        freqs = np.fft.fftfreq(nt, d=1.0 / nt) * (2.0 * math.pi / period)
        chiral = _spectral_derivative(samples, 0, freqs)
    else:
        chiral = np.gradient(samples, dt, axis=0)
    chiral += transport
    del transport

    integrand = l_phi
    integrand *= -0.5
    integrand *= chiral
    cell = dt * (2.0 * math.pi) ** r / np.prod(samples.shape[1:])
    return float(np.sum(integrand) * cell)


# ------------------------------------------------------------ mode algebra

@dataclass(frozen=True)
class ModeAlgebra:
    """Oscillator realization of the quantized edge modes.

    The Hilbert space is the tensor product over components i of one
    zero-mode factor and one truncated oscillator per n = 1..M.  Each
    factor is kept as built, by the one band of its lowering operator b:
    ``lowering[(i, n)]`` is the superdiagonal sqrt(1..d-1) of b on the
    factor that ``slots[(i, n)]`` names (n = 0 the zero mode, whose pair is
    x = (b + b^+)/sqrt2, p = i(b^+ - b)/sqrt2).
    ``alpha(i, n)`` (n > 0 lowers, n < 0 is the conjugate raiser), ``alpha0``
    and ``alphabar0`` embed one factor into the full space on demand, as
    ``scipy.sparse`` CSR matrices; the pair obeys [alpha0, alphabar0] = i on
    interior levels.
    """

    r: int
    n_modes: int
    level: int
    zero_dim: int
    dim: int
    lowering: dict = field(repr=False, hash=False, compare=False)
    slots: dict = field(repr=False, hash=False, compare=False)

    def alpha(self, i: int, n: int) -> sparse.csr_matrix:
        if not 0 <= i < self.r:
            raise InvalidSpec(f"component {i} outside 0..{self.r - 1}")
        if n == 0 or abs(n) > self.n_modes:
            raise InvalidSpec(f"mode {n} outside the stored range 1..{self.n_modes}")
        b, bd, _, _ = _bands(self.lowering[(i, abs(n))])
        return self._embed((i, abs(n)), b if n > 0 else bd)

    def alpha0(self, i: int) -> sparse.csr_matrix:
        return self._embed((i, 0), _bands(self.lowering[(i, 0)])[2])

    def alphabar0(self, i: int) -> sparse.csr_matrix:
        return self._embed((i, 0), _bands(self.lowering[(i, 0)])[3])

    def _embed(self, key: tuple[int, int], bands: dict) -> sparse.csr_matrix:
        """Kron product with the operator of diagonals ``bands`` on the
        factor of ``key``, identities elsewhere."""
        from scipy import sparse

        out = None
        for j, dim in enumerate(self.factor_dims):
            if j == self.slots[key]:
                diagonals = [v[max(0, -k): dim - max(0, k)] for k, v in bands.items()]
                block = sparse.diags(diagonals, list(bands), format="csr")
            else:
                block = sparse.identity(dim, format="csr", dtype=complex)
            out = block if out is None else sparse.kron(out, block, format="csr")
        return out

    @property
    def factor_dims(self) -> list[int]:
        return [self.zero_dim if j % (self.n_modes + 1) == 0 else self.level
                for j in range(self.r * (self.n_modes + 1))]


def _lowering(dim: int) -> np.ndarray:
    # the superdiagonal sqrt(1..dim-1) of the truncated lowering operator
    return np.sqrt(np.arange(1, dim)).astype(complex)


def _bands(s: np.ndarray) -> tuple[dict, dict, dict, dict]:
    """b, b^+, x = (b + b^+)/sqrt2 and p = i(b^+ - b)/sqrt2 of the factor
    whose lowering superdiagonal is ``s``, each as {k: v} with
    v[i] = A[i, i + k] and v zero where (i, i + k) is off the matrix."""
    zero = np.zeros(1, dtype=complex)
    up, down = np.concatenate([s, zero]), np.concatenate([zero, s.conj()])
    # times 1/sqrt2, which is how scipy.sparse divides by a scalar: the
    # residual edge-sim writes keeps its bytes
    scale = 1 / math.sqrt(2.0)
    x = {-1: down * scale, 1: up * scale}
    p = {-1: 1j * down * scale, 1: 1j * -up * scale}
    return {1: up}, {-1: down}, x, p


def _shift(v: np.ndarray, k: int) -> np.ndarray:
    """w[i] = v[i + k], zero where i + k is off the end."""
    w = np.zeros_like(v)
    if k >= 0:
        w[: v.size - k] = v[k:]
    else:
        w[-k:] = v[:k]
    return w


def _band_product(a: dict, c: dict) -> dict:
    # entry (i, i + k + m) gains a[k][i] * c[m][i + k]; looping k upwards
    # adds each entry's terms in index order, as scipy.sparse adds them in
    # the full-space commutators, which this residual must equal exactly
    out = {}
    for k in sorted(a):
        for m in sorted(c):
            term = a[k] * _shift(c[m], k)
            out[k + m] = out[k + m] + term if k + m in out else term
    return out


def build_mode_algebra(
    r: int, n_modes: int, level: int, zero_dim: int = 8, dim_budget: int = 300_000
) -> ModeAlgebra:
    """Build the truncated factors of the tensor-product mode space.

    Needs n_modes >= 1 and level >= 3 (two exact interior levels); raises
    SizeError when the total dimension zero_dim^r * level^(r*n_modes)
    exceeds ``dim_budget``.  No full-space operator is formed here.
    """
    if n_modes < 1:
        raise InvalidSpec("need at least one oscillator mode")
    if level < 3:
        raise InvalidSpec("oscillator truncation needs level >= 3")
    if zero_dim < 3:
        raise InvalidSpec("zero-mode factor needs dimension >= 3")
    total = 1
    for j in range(r * (n_modes + 1)):  # a lazy range: n_modes may be huge
        total *= zero_dim if j % (n_modes + 1) == 0 else level
        if total > dim_budget:
            raise SizeError(
                f"tensor dimension exceeds the budget {dim_budget}; "
                f"shrink level, n_modes or zero_dim"
            )

    keys = [(i, n) for i in range(r) for n in range(n_modes + 1)]
    return ModeAlgebra(
        r=r,
        n_modes=n_modes,
        level=level,
        zero_dim=zero_dim,
        dim=total,
        lowering={(i, n): _lowering(zero_dim if n == 0 else level) for i, n in keys},
        # slot 0 is the zero mode of component i, slot n >= 1 its n-th mode
        slots={(i, n): i * (n_modes + 1) + n for i, n in keys},
    )


@dataclass(frozen=True)
class DimensionReport:
    per_factor: tuple[int, ...]
    total: int


def hilbert_dimensions(algebra: ModeAlgebra) -> DimensionReport:
    """Per-factor and total dimensions; the total is their product."""
    dims = tuple(algebra.factor_dims)
    total = 1
    for d in dims:
        total *= d
    return DimensionReport(per_factor=dims, total=total)


def mode_commutator_residual(algebra: ModeAlgebra) -> float:
    """Worst interior deviation of the canonical mode commutators.

    Checks [alpha_n^i, alpha_m^j] = delta_ij delta_{n+m,0} and
    [alpha0^i, alphabar0^j] = i delta_ij on the levels where truncation
    cannot leak.  Operators embedded on distinct tensor factors commute
    exactly, so the check is factor-local: every oscillator factor gets
    [b, b^+] = 1, [b, b] = 0 and [b^+, b^+] = 0, every zero-mode factor
    [x, p] = i, each on its own levels 0..d-2; and the map from
    (component, slot) to factor must be injective, since two operators
    sharing a factor need not commute (a shared factor returns inf).  For
    distinct slots this is exactly the maximum over the full-space
    commutators compressed to the interior.
    """
    if len(set(algebra.slots.values())) != len(algebra.slots):
        return math.inf
    worst = 0.0
    for (_, n), s in algebra.lowering.items():
        d = s.size + 1
        b, bd, x, p = _bands(s)
        if n == 0:
            relations = [(x, p, 1j)]
        else:
            relations = [(b, bd, 1.0), (b, b, 0.0), (bd, bd, 0.0)]
        for a, c, expected in relations:
            ac, ca = _band_product(a, c), _band_product(c, a)
            empty = np.zeros(d, dtype=complex)
            for k in ac.keys() | ca.keys() | {0}:
                residual = ac.get(k, empty) - ca.get(k, empty) - (expected if k == 0 else 0.0)
                # interior rows and columns 0..d-2
                interior = residual[max(0, -k): d - 1 - max(0, k)]
                if interior.size:
                    worst = max(worst, float(np.max(np.abs(interior))))
    return worst
