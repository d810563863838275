"""Holomorphic (Bargmann) realization of the Fock representations.

Fock states map to monomials C_n z^n; the annihilators act as d/dz_i and
the creators as first-order differential operators.  On top of that sit
the coherent states, their overlap kernel, the induced distance and
Kaehler metric, and the radial quadrature engine that certifies the
measure's orthonormality moments.

Bosonic family: domain is the open unit ball |z|^2 < 1 and the measure
weight is (1 - rho)^(k-r-1), which needs k > r to be integrable.
Fermionic family: domain is all of C^r with weight (1 + rho)^-(k+r).
Both normalization constants are fixed by the unit zero-moment condition;
the factorial-ratio form quoted alongside the measure is kept for
comparison (it disagrees in the bosonic case) in NormalizationInfo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import FockBasis, LadderOperators, StatisticsSpec, _log_gamma, ladder_matrices
from .errors import DomainError, InvalidSpec, TruncationError

__all__ = [
    "CoherentVector",
    "MetricMatrix",
    "NormalizationInfo",
    "QuadratureRule",
    "coefficient",
    "log_coefficient",
    "coherent_vector",
    "coherent_amplitude_matrix",
    "bosonic_tail_bound",
    "overlap",
    "overlap_from_vectors",
    "distance_sq",
    "distance_hessian",
    "metric",
    "measure_normalization",
    "measure_density",
    "build_quadrature",
    "integrate",
    "monomial_moment",
    "orthonormality_gram",
    "identity_resolution_gram",
    "differential_realization_check",
]


def _as_point(spec: StatisticsSpec, z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (spec.r,):
        raise DomainError(f"point has shape {z.shape}, expected ({spec.r},)")
    if spec.s == +1 and float(np.sum(np.abs(z) ** 2)) >= 1.0:
        raise DomainError("bosonic coherent states live on the open unit ball |z|^2 < 1")
    return z


def _overlap_power(spec: StatisticsSpec) -> float:
    # exponent of the normalization kernel: (1 - s z.z)^(-p) with
    # p = (2ks - s + 1)/4; bosonic p = k/2, fermionic p = -(k-1)/2
    return (2.0 * spec.k * spec.s - spec.s + 1.0) / 4.0


# ------------------------------------------------------------ coefficients

def log_coefficient(spec: StatisticsSpec, occ) -> float:
    """ln C_n for one occupation; ``FockBasis.log_coefficients`` holds a whole basis."""
    n_tot = sum(occ)
    if spec.s == +1:
        log_ratio = _log_gamma(spec.k + n_tot) - _log_gamma(spec.k)
    else:
        log_ratio = _log_gamma(spec.k) - _log_gamma(spec.k - n_tot)
    return 0.5 * log_ratio - 0.5 * sum(_log_gamma(n + 1) for n in occ)


def coefficient(spec: StatisticsSpec, occ) -> float:
    """Monomial expansion coefficient of the Fock state |occ>.

    Always positive; evaluated in log space so large k and occupations
    do not overflow.
    """
    if len(occ) != spec.r or any(n < 0 for n in occ):
        raise InvalidSpec(f"bad occupation {occ}")
    if sum(occ) > spec.total_cap:
        raise InvalidSpec(f"occupation {occ} exceeds the admissible cap")
    return math.exp(log_coefficient(spec, occ))


# --------------------------------------------------------- coherent states

def bosonic_tail_bound(spec: StatisticsSpec, rho: float, n_max: int) -> float:
    """Geometric bound on the coherent weight beyond total occupancy n_max.

    The weights at total n are negative-binomial terms; their ratio
    rho (k+n)/(n+1) decreases in n, so the tail is dominated by a
    geometric series started at n_max + 1.
    """
    if rho <= 0.0:
        return 0.0
    n1 = n_max + 1
    log_t = (
        spec.k * math.log1p(-rho)
        + _log_gamma(spec.k + n1) - _log_gamma(spec.k) - _log_gamma(n1 + 1)
        + n1 * math.log(rho)
    )
    q = rho * (spec.k + n1) / (n1 + 1)
    if q >= 1.0:
        return math.inf
    return math.exp(log_t) / (1.0 - q)


@dataclass(frozen=True)
class CoherentVector:
    """Coherent state expanded over a FockBasis.

    ``log_normalization`` is ln N of the closed-form constant N (kept as a
    logarithm: N overflows a float at large k); ``tail_bound`` the
    certified weight lost to the bosonic truncation (0 for s = -1, where
    the expansion is a finite sum and the norm is exactly 1).
    """

    point: np.ndarray
    amplitudes: np.ndarray
    log_normalization: float
    tail_bound: float


def _log_normalization(spec: StatisticsSpec, rho):
    return -_overlap_power(spec) * np.log1p(-spec.s * rho)


def _normalized_amplitudes(spec: StatisticsSpec, basis: FockBasis, zs: np.ndarray) -> np.ndarray:
    """N^-1 C_n z^n for each point (row) of zs, shape (npoints, dim).

    Summed in log space, since C_n, N and z^n each overflow at large k
    while the amplitudes stay at most 1.  A vacant mode z_i = 0 adds
    nothing to the logarithm (0 log 0 = 0), and every state occupying it
    has amplitude exactly 0.
    """
    modulus = np.abs(zs)
    vacant = modulus == 0.0
    log_modulus = np.log(np.where(vacant, 1.0, modulus))
    occ = basis.occupations.T
    log_amp = (
        basis.log_coefficients
        + log_modulus @ occ
        - _log_normalization(spec, np.sum(modulus**2, axis=1))[:, None]
    )
    amps = np.exp(log_amp + 1j * (np.angle(zs) @ occ))
    amps[vacant @ (occ > 0)] = 0.0
    return amps


def coherent_vector(
    spec: StatisticsSpec, basis: FockBasis, z, tail_tol: float = 1e-10
) -> CoherentVector:
    """Amplitudes <n|z> = N^-1 C_n prod_i z_i^n_i over the basis."""
    z = _as_point(spec, z)
    rho = float(np.sum(np.abs(z) ** 2))
    tail = 0.0
    if spec.s == +1:
        tail = bosonic_tail_bound(spec, rho, spec.total_cap)
        if not tail < tail_tol:
            raise TruncationError(
                f"truncation tail {tail:.3e} above {tail_tol:.1e} at |z|^2 = {rho:.4f}; "
                "raise n_max"
            )
    return CoherentVector(
        point=z,
        amplitudes=_normalized_amplitudes(spec, basis, z[None, :])[0],
        log_normalization=float(_log_normalization(spec, rho)),
        tail_bound=tail,
    )


def coherent_amplitude_matrix(spec: StatisticsSpec, basis: FockBasis, zs: np.ndarray) -> np.ndarray:
    """Normalized amplitudes for a batch of points, shape (npoints, dim).

    Quadrature-grade path: no per-point tail certification, callers on the
    bosonic family are expected to have sized n_max for their largest rho.
    """
    return _normalized_amplitudes(spec, basis, np.asarray(zs, dtype=complex))


# ------------------------------------------------- overlap, distance, metric

def _log_overlap(spec: StatisticsSpec, z: np.ndarray, w: np.ndarray) -> complex:
    p = _overlap_power(spec)
    rho_z = float(np.sum(np.abs(z) ** 2))
    rho_w = float(np.sum(np.abs(w) ** 2))
    cross = 1.0 - spec.s * complex(np.vdot(z, w))
    if cross == 0.0:
        return complex(-math.inf, 0.0)
    return p * (math.log1p(-spec.s * rho_z) + math.log1p(-spec.s * rho_w)) - 2.0 * p * np.log(cross)


def overlap(spec: StatisticsSpec, z, w) -> complex:
    """Closed-form kernel <z|w>.

    Fermionic exponents are integers, so the complex power is single
    valued; the bosonic cross factor 1 - conj(z).w stays in the right
    half plane on the unit ball, so the principal branch is safe.
    """
    z, w = _as_point(spec, z), _as_point(spec, w)
    log_ov = _log_overlap(spec, z, w)
    if log_ov.real == -math.inf:
        return 0.0j
    return complex(np.exp(log_ov))


def overlap_from_vectors(spec: StatisticsSpec, basis: FockBasis, z, w) -> complex:
    """Inner product of the two coherent expansions; the dual verification path."""
    vz = coherent_vector(spec, basis, z)
    vw = coherent_vector(spec, basis, w)
    return complex(np.vdot(vz.amplitudes, vw.amplitudes))


def distance_sq(spec: StatisticsSpec, z, w) -> float:
    """Squared kernel distance -ln |<z|w>|^2.

    Symmetric, zero exactly at coincident points, and linear in the
    family label through the kernel exponent, so it diverges with k at
    fixed separation.
    """
    z, w = _as_point(spec, z), _as_point(spec, w)
    log_ov = _log_overlap(spec, z, w)
    if log_ov.real == -math.inf:
        return math.inf
    return -2.0 * log_ov.real


def distance_hessian(spec: StatisticsSpec, z, h: float = 1e-4) -> np.ndarray:
    """Mixed second derivatives of the squared distance at coincident points.

    Central differences on the real and imaginary parts of the second
    argument, assembled into d^2 s^2 / dw_i dwbar_j at w = z.  Agrees with
    the closed-form metric to O(h^2); used as its consistency check.
    """
    z = _as_point(spec, z)
    r = spec.r

    def value(dx, dy):
        return distance_sq(spec, z, z + dx + 1j * dy)

    def second(i, j, in_x_i, in_x_j):
        da = np.zeros(r)
        db = np.zeros(r)
        da[i] = h
        db[j] = h
        dxa, dya = (da, np.zeros(r)) if in_x_i else (np.zeros(r), da)
        dxb, dyb = (db, np.zeros(r)) if in_x_j else (np.zeros(r), db)
        if i == j and in_x_i == in_x_j:
            return (
                value(dxa, dya) - 2.0 * value(np.zeros(r), np.zeros(r)) + value(-dxa, -dya)
            ) / h**2
        return (
            value(dxa + dxb, dya + dyb)
            - value(dxa - dxb, dya - dyb)
            - value(-dxa + dxb, -dya + dyb)
            + value(-dxa - dxb, -dya - dyb)
        ) / (4.0 * h**2)

    hess = np.zeros((r, r), dtype=complex)
    for i in range(r):
        for j in range(r):
            fxx = second(i, j, True, True)
            fyy = second(i, j, False, False)
            fxy = second(i, j, True, False)
            fyx = second(i, j, False, True)
            hess[i, j] = 0.25 * ((fxx + fyy) + 1j * (fxy - fyx))
    return hess


@dataclass(frozen=True)
class MetricMatrix:
    """Kaehler metric and its inverse at one point.

    ``g`` is hermitian positive definite and ``g_inv`` its plain matrix
    inverse, so g @ g_inv = 1.  In derivative contractions the inverse
    enters through its transpose: the star-product correction is
    sum_ij (g_inv)_ji dA/dz_i dB/dzbar_j, exposed as ``contract``.
    """

    point: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray

    def contract(self, d_dz: np.ndarray, d_dzbar: np.ndarray) -> complex:
        return complex(np.dot(d_dzbar, self.g_inv @ d_dz))


def metric(spec: StatisticsSpec, z) -> MetricMatrix:
    """Metric g_ij = kappa [ d_ij/(1-s rho) + s zbar_i z_j/(1-s rho)^2 ].

    The inverse is (1-s rho)/kappa (d_ij - s zbar_i z_j), an exact
    Sherman-Morrison identity; every inverse entry scales like 1/k.
    """
    z = _as_point(spec, z)
    rho = float(np.sum(np.abs(z) ** 2))
    one = 1.0 - spec.s * rho
    kappa = spec.kappa
    outer_bar = np.outer(np.conj(z), z)
    g = kappa * (np.eye(spec.r) / one + spec.s * outer_bar / one**2)
    g_inv = (one / kappa) * (np.eye(spec.r) - spec.s * outer_bar)
    return MetricMatrix(point=z, g=g, g_inv=g_inv)


# ----------------------------------------------------------------- measure

@dataclass(frozen=True)
class NormalizationInfo:
    """Measure constant fixed by the unit zero-moment, next to the
    factorial-ratio form quoted with the measure (they differ for s=+1)."""

    analytic: float
    quoted: float

    @property
    def ratio(self) -> float:
        return self.analytic / self.quoted


def measure_normalization(spec: StatisticsSpec) -> NormalizationInfo:
    k, r, s = spec.k, spec.r, spec.s
    if s == +1:
        if not k > r:
            raise InvalidSpec(f"bosonic measure needs k > r, got k={k}, r={r}")
        analytic = math.exp(_log_gamma(k) - _log_gamma(k - r))
    else:
        analytic = math.exp(_log_gamma(k + r) - _log_gamma(k))
    quoted = math.exp(s * (_log_gamma(k) - _log_gamma(k - s * r + (s - 1) / 2.0 + 1)))
    return NormalizationInfo(analytic=analytic, quoted=quoted)


def measure_density(spec: StatisticsSpec, z) -> float:
    """Radial weight of the orthonormalizing measure at a point.

    Positive on the domain; the monomial moments against it reproduce
    exact Kronecker deltas (certified by quadrature in the test suite).
    """
    z = _as_point(spec, z)
    rho = float(np.sum(np.abs(z) ** 2))
    const = measure_normalization(spec).analytic
    exponent = spec.s * spec.k - spec.r - (spec.s + 1) / 2.0
    return const * math.pi ** (-spec.r) * math.exp(exponent * math.log1p(-spec.s * rho))


# -------------------------------------------------------------- quadrature

@dataclass(frozen=True)
class QuadratureRule:
    """Radial nodes and combined weights for the measure integral.

    ``rho`` has shape (npoints, r) and ``weights`` absorbs the measure
    density, the radial Jacobians and the angular volume, so that
    sum_p weights_p f(rho_p) = integral of f against the full measure for
    any f of the per-mode moduli.  Angular integrals are handled
    analytically (monomial phase orthogonality) or by a uniform grid.
    """

    spec: StatisticsSpec
    kind: str
    n_radial: int
    rho: np.ndarray
    weights: np.ndarray
    normalization: NormalizationInfo

    @property
    def unit_moment(self) -> float:
        return float(np.sum(self.weights))


def _tensor_grid(per_mode: list[tuple[np.ndarray, np.ndarray]]):
    nodes = [n for n, _ in per_mode]
    weights = [w for _, w in per_mode]
    mesh = np.meshgrid(*nodes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    wmesh = np.meshgrid(*weights, indexing="ij")
    w = np.ones(pts.shape[0])
    for wm in wmesh:
        w = w * wm.ravel()
    return pts, w


def _jacobi_unit_interval(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    # nodes/weights for integral_0^1 f(t) (1-t)^alpha dt
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(n, alpha, 0.0)
    t = (x + 1.0) / 2.0
    return t, w * 2.0 ** (-alpha - 1.0)


def _legendre_unit_interval(n: int) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_legendre

    x, w = roots_legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


def build_quadrature(spec: StatisticsSpec, n_radial: int = 48) -> QuadratureRule:
    """Construct the radial rule for one family.

    Bosonic: the radial simplex is mapped onto a unit cube (nested
    substitution), which factorizes the boundary weight into per-mode
    Gauss-Jacobi factors; moment integrands become polynomials, so the
    rule is exact for them.  Fermionic: the rule maps the infinite
    orthant through rho = y/(1-Y) with y on the unit simplex, again in
    nested cube coordinates; the domain is compactified with no tail at
    all and the moments are exactly polynomial.
    """
    norm = measure_normalization(spec)
    k, r, s = spec.k, spec.r, spec.s
    if s == +1:
        a = k - r - 1.0
        per_mode = [_jacobi_unit_interval(n_radial, a + (r - 1 - j)) for j in range(r)]
        t_pts, t_w = _tensor_grid(per_mode)
        rho = np.empty_like(t_pts)
        shrink = np.ones(t_pts.shape[0])
        for j in range(r):
            rho[:, j] = t_pts[:, j] * shrink
            shrink = shrink * (1.0 - t_pts[:, j])
        weights = norm.analytic * t_w
        return QuadratureRule(spec, "simplex_jacobi", n_radial, rho, weights, norm)

    # rho = y / (1 - Y) with y on the unit simplex in nested coordinates;
    # the weight collapses to (1 - Y)^(k-1), so every radial moment with
    # total degree <= k - 1 is a polynomial and integrates exactly
    per_mode = [_legendre_unit_interval(n_radial) for _ in range(r)]
    t_pts, t_w = _tensor_grid(per_mode)
    y = np.empty_like(t_pts)
    shrink = np.ones(t_pts.shape[0])
    jac = np.ones(t_pts.shape[0])
    for j in range(r):
        y[:, j] = t_pts[:, j] * shrink
        jac = jac * shrink
        shrink = shrink * (1.0 - t_pts[:, j])
    one_minus_total = shrink  # 1 - Y = prod(1 - t_j)
    rho = y / one_minus_total[:, None]
    weights = norm.analytic * t_w * jac * one_minus_total ** (k - 1.0)
    return QuadratureRule(spec, "simplex_rational", n_radial, rho, weights, norm)


def _radial_moment(rule: QuadratureRule, powers) -> float:
    # integral of rho^powers against the measure (angular factors are 1)
    return float(np.dot(rule.weights, np.prod(rule.rho ** powers, axis=1)))


def monomial_moment(rule: QuadratureRule, occ_bra, occ_ket) -> float:
    """Measure moment of C z^bra conj(C z^ket); exact zero off-diagonal.

    The angular integrals kill any pair of distinct multi-degrees, so
    only the radial moment is computed.
    """
    if tuple(occ_bra) != tuple(occ_ket):
        return 0.0
    log_c2 = 2.0 * log_coefficient(rule.spec, occ_bra)
    return math.exp(log_c2) * _radial_moment(rule, np.array(occ_bra, dtype=float))


def orthonormality_gram(rule: QuadratureRule, basis: FockBasis) -> np.ndarray:
    """Gram matrix of the monomial states under the quadrature measure.

    Distinct monomials are orthogonal by their angular integrals, so the
    matrix is diagonal.
    """
    radial = np.array([_radial_moment(rule, occ) for occ in basis.occupations])
    return np.diag(np.exp(2.0 * basis.log_coefficients) * radial)


def _angular_grid(r: int, n_angular: int) -> np.ndarray:
    thetas = [np.arange(n_angular) * (2.0 * math.pi / n_angular)] * r
    mesh = np.meshgrid(*thetas, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def integrate(rule: QuadratureRule, f, n_angular: int = 33):
    """Integral of f(z) against the measure, f vectorized over points.

    ``f`` receives a complex array of shape (npoints, r) and must return
    one value per point (scalars or arrays are both fine).  The result is
    the radial rule applied to the angular average of f, deterministic
    for a fixed rule.
    """
    spec = rule.spec
    angles = _angular_grid(spec.r, n_angular)
    radii = np.sqrt(rule.rho)
    total = None
    for theta in angles:
        zs = radii * np.exp(1j * theta)[None, :]
        vals = np.asarray(f(zs))
        contrib = np.tensordot(rule.weights, vals, axes=(0, 0))
        total = contrib if total is None else total + contrib
    return total / angles.shape[0]


def identity_resolution_gram(
    rule: QuadratureRule, basis: FockBasis, n_angular: int = 33
) -> np.ndarray:
    """Matrix of the coherent-state resolution integral over the basis.

    Computes the Fock matrix of the overcompleteness integral (coherent
    projectors weighted by the squared normalization against the
    measure); equals the identity when the measure normalization and the
    coherent expansion are mutually consistent.
    """
    spec = rule.spec

    def outer_projector(zs):
        amps = coherent_amplitude_matrix(spec, basis, zs)
        rho = np.sum(np.abs(zs) ** 2, axis=1)
        n_sq = np.exp(-2.0 * _overlap_power(spec) * np.log1p(-spec.s * rho))
        return n_sq[:, None, None] * (amps[:, :, None] * amps.conj()[:, None, :])

    return integrate(rule, outer_projector, n_angular=n_angular)


# ------------------------------------------- differential realization check

@dataclass(frozen=True)
class DifferentialCheckReport:
    n_cap: int
    lower_residual: float
    raise_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.lower_residual, self.raise_residual)


def differential_realization_check(
    spec: StatisticsSpec,
    basis: FockBasis,
    n_cap: int,
    ladders: LadderOperators | None = None,
) -> DifferentialCheckReport:
    """Compare the ladder matrices with the differential operators.

    Each Fock state is represented by its monomial C_n z^n.  d/dz_i and
    the first-order raising operator act on the coefficient map; pulling
    the image back to Fock amplitudes must reproduce the matrix columns
    entrywise on states with total occupancy <= n_cap.
    """
    from scipy import sparse

    if n_cap > spec.total_cap:
        raise InvalidSpec(f"n_cap {n_cap} exceeds the basis cap {spec.total_cap}")
    if ladders is None:
        ladders = ladder_matrices(basis)
    occ = basis.occupations
    coeffs = np.exp(basis.log_coefficients)
    kept = basis.grades <= n_cap
    kept_cols = np.flatnonzero(kept)
    lower_res = 0.0
    raise_res = 0.0
    for i in range(spec.r):
        # d/dz_i : C_n z^n -> C_n n_i z^(n - e_i)
        cols = np.flatnonzero(kept & (occ[:, i] > 0))
        lowered = occ[cols].copy()
        lowered[:, i] -= 1
        rows = basis.state_indices(lowered)
        expected = coeffs[cols] * occ[cols, i] / coeffs[rows]
        target = sparse.csr_matrix((expected, (rows, cols)), shape=(basis.dim, basis.dim))
        lower_res = max(lower_res, _max_real_deviation(ladders.minus[i], target, kept_cols))

        # raising operator: C_n z^n -> C_n (k - (1-s)/2 + s n_tot) z^(n + e_i)
        cols = np.flatnonzero(kept & (basis.grades < spec.total_cap))
        raised = occ[cols].copy()
        raised[:, i] += 1
        rows = basis.state_indices(raised)
        factor = spec.k - (1 - spec.s) / 2.0 + spec.s * basis.grades[cols]
        expected = coeffs[cols] * factor / coeffs[rows]
        target = sparse.csr_matrix((expected, (rows, cols)), shape=(basis.dim, basis.dim))
        raise_res = max(raise_res, _max_real_deviation(ladders.plus[i], target, kept_cols))
    return DifferentialCheckReport(
        n_cap=n_cap, lower_residual=lower_res, raise_residual=raise_res
    )


def _max_real_deviation(matrix, target, columns) -> float:
    """Largest entry of |Re(matrix) - target| in the given columns."""
    diff = (matrix.real - target)[:, columns]
    return float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
