"""Droplet density operators and their phase-space (Husimi) profiles.

The droplet is the projector onto every Fock state with total occupancy
<= N.  Its coherent-state expectation depends on z only through
rho = z.zbar and equals an exact cumulative distribution:

    bosonic   P( NegBin(k, 1 - rho) <= N )
    fermionic P( Binomial(k - 1, rho/(1 + rho)) <= N )

Both have mean occupancy mu(rho) = kappa * rho / (1 - s rho), so the
profile drops from 1 to 0 across mu = N with width ~ sqrt(N); in the
regime N << k this is the familiar step at k*rho = N.  The sharp-step
checks are therefore phrased in the mean-occupancy coordinate, which is
exactly k*rho to leading order and stays honest at desk-scale N/k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import gammaln

from .algebra import FockBasis, HamiltonianSpec, StatisticsSpec, _integral
from .bargmann import coherent_vector
from .errors import CapError, DomainError, InvalidSpec

__all__ = [
    "DropletSpec",
    "DropletProfile",
    "StepCheck",
    "PotentialSymbolValue",
    "density_operator",
    "husimi",
    "husimi_from_matrix",
    "mean_occupation",
    "rho_from_mean_occupation",
    "droplet_profile",
    "crossing_rho",
    "transition_width",
    "step_profile_check",
    "potential_symbol",
]


@dataclass(frozen=True)
class DropletSpec:
    """A droplet: statistics family plus the occupancy cap N.

    ``box`` optionally selects the per-mode box variant (n_i <= box_i for
    every mode); the sharp-step asymptotics apply to the total-cap
    droplet only, so the profile helpers reject box droplets.
    """

    spec: StatisticsSpec
    N: int
    box: tuple[int, ...] | None = None

    def __post_init__(self):
        N = _integral(self.N, "droplet cap N", CapError)
        if N < 0:
            raise CapError(f"droplet cap must be a non-negative integer, got {self.N}")
        object.__setattr__(self, "N", N)
        if self.N > self.spec.total_cap:
            raise CapError(
                f"droplet cap N={self.N} exceeds the representation cap {self.spec.total_cap}"
            )
        if self.box is not None:
            if len(self.box) != self.spec.r or any(b < 0 for b in self.box):
                raise CapError(f"bad box caps {self.box}")


def density_operator(dspec: DropletSpec, basis: FockBasis) -> sparse.csr_matrix:
    """Diagonal projector onto the droplet states; idempotent, trace = count."""
    if basis.spec != dspec.spec:
        raise InvalidSpec("basis belongs to a different statistics spec")
    if dspec.box is None:
        inside = basis.grades <= dspec.N
    else:
        inside = np.all(basis.occupations <= np.array(dspec.box), axis=1)
    diag = inside.astype(complex)
    return sparse.diags(diag).tocsr()


def _require_total_cap(dspec: DropletSpec):
    if dspec.box is not None:
        raise InvalidSpec("profile helpers apply to the total-cap droplet only")


def _rho_of(spec: StatisticsSpec, z) -> float:
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape != (spec.r,):
        raise DomainError(f"point has shape {z.shape}, expected ({spec.r},)")
    rho = float(np.sum(np.abs(z) ** 2))
    if spec.s == +1 and rho >= 1.0:
        raise DomainError("bosonic domain is the open unit ball")
    return rho


def _husimi_radial(dspec: DropletSpec, rho: float) -> float:
    """Exact droplet symbol at z.zbar = rho, as a log-space Kahan sum."""
    spec = dspec.spec
    if rho == 0.0:
        return 1.0
    k, s, N = spec.k, spec.s, dspec.N
    if s == +1:
        log_pref = k * math.log1p(-rho)
        log_terms = [
            log_pref + gammaln(k + n) - gammaln(k) - gammaln(n + 1) + n * math.log(rho)
            for n in range(N + 1)
        ]
    else:
        log_pref = -(k - 1.0) * math.log1p(rho)
        log_terms = [
            log_pref + gammaln(k) - gammaln(k - n) - gammaln(n + 1) + n * math.log(rho)
            for n in range(N + 1)
        ]
    peak = max(log_terms)
    total = 0.0
    comp = 0.0
    for t in log_terms:
        y = math.exp(t - peak) - comp
        new = total + y
        comp = (new - total) - y
        total = new
    return min(1.0, math.exp(peak) * total)


def husimi(dspec: DropletSpec, z) -> float:
    """Coherent-state expectation of the droplet projector at z.

    In [0, 1]; for the total-cap droplet it depends on z only through
    rho = z.zbar (the closed-form series above).
    """
    _require_total_cap(dspec)
    return _husimi_radial(dspec, _rho_of(dspec.spec, z))


def husimi_from_matrix(dspec: DropletSpec, basis: FockBasis, z) -> float:
    """First-principles path: quadratic form of the normalized coherent
    vector with the projector matrix.  Works for box droplets too."""
    rho0 = density_operator(dspec, basis)
    vec = coherent_vector(dspec.spec, basis, z)
    value = np.vdot(vec.amplitudes, rho0 @ vec.amplitudes).real
    return float(value)


def mean_occupation(spec: StatisticsSpec, rho: float) -> float:
    """Expected total occupancy of the coherent state at radius rho.

    Equals kappa * rho / (1 - s rho); to leading order in rho this is
    k * rho, the radial coordinate of the sharp-step limit.
    """
    return spec.kappa * rho / (1.0 - spec.s * rho)


def rho_from_mean_occupation(spec: StatisticsSpec, mu: float) -> float:
    if mu < 0:
        raise DomainError("mean occupancy must be non-negative")
    if spec.s == -1 and mu >= spec.kappa:
        raise DomainError(f"fermionic mean occupancy saturates below {spec.kappa}")
    return mu / (spec.kappa + spec.s * mu)


@dataclass(frozen=True)
class DropletProfile:
    """Radial droplet profile: value against rho and mean occupancy."""

    rho: np.ndarray
    value: np.ndarray
    mean_occ: np.ndarray
    k: float
    N: int
    s: int
    r: int


def droplet_profile(dspec: DropletSpec, rho_grid) -> DropletProfile:
    """Evaluate the droplet symbol on a radial grid (monotone non-increasing)."""
    _require_total_cap(dspec)
    spec = dspec.spec
    rho_grid = np.asarray(rho_grid, dtype=float)
    if np.any(rho_grid < 0) or (spec.s == +1 and np.any(rho_grid >= 1.0)):
        raise DomainError("radial grid leaves the family domain")
    values = np.array([_husimi_radial(dspec, rho) for rho in rho_grid])
    mean = np.array([mean_occupation(spec, rho) for rho in rho_grid])
    return DropletProfile(
        rho=rho_grid, value=values, mean_occ=mean,
        k=spec.k, N=dspec.N, s=spec.s, r=spec.r,
    )


def crossing_rho(dspec: DropletSpec, level: float, tol: float = 1e-12) -> float:
    """Radius where the profile crosses ``level``, by bisection."""
    _require_total_cap(dspec)
    spec = dspec.spec
    if not 0.0 < level < 1.0:
        raise InvalidSpec("level must lie strictly between 0 and 1")
    lo = 0.0
    if spec.s == +1:
        hi = 1.0 - 1e-12
    else:
        hi = rho_from_mean_occupation(spec, min(spec.kappa - 1e-9, 4.0 * dspec.N + 8.0))
    if _husimi_radial(dspec, hi) > level:
        raise InvalidSpec("profile does not fall below the level inside the domain")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if _husimi_radial(dspec, mid) > level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def transition_width(dspec: DropletSpec, hi_level: float = 0.9, lo_level: float = 0.1):
    """Width of the 0.9 -> 0.1 drop, in rho and in mean occupancy."""
    rho_hi = crossing_rho(dspec, hi_level)
    rho_lo = crossing_rho(dspec, lo_level)
    spec = dspec.spec
    width_rho = rho_lo - rho_hi
    width_mu = mean_occupation(spec, rho_lo) - mean_occupation(spec, rho_hi)
    return width_rho, width_mu


@dataclass(frozen=True)
class StepCheck:
    """Sharp-step diagnostics in the mean-occupancy coordinate."""

    value_inside: float      # at mu = N/2
    value_mid: float         # at mu = N - 1/2
    value_outside: float     # at mu = 3N/2
    crossing_mu: float       # where the profile passes 1/2
    width_mu: float          # mean-occupancy span of the 0.9 -> 0.1 drop
    width_rho: float

    def passes(self, N: int) -> bool:
        return (
            self.value_inside > 0.99
            and self.value_outside < 0.01
            and abs(self.value_mid - 0.5) < 1.0 / math.sqrt(N)
        )


def step_profile_check(dspec: DropletSpec) -> StepCheck:
    """Evaluate the three-point step test and the transition width.

    Needs room outside the droplet: the fermionic mean occupancy
    saturates below kappa, so the 3N/2 probe requires N well under 2k/3.
    """
    _require_total_cap(dspec)
    spec = dspec.spec
    N = dspec.N
    if spec.s == -1 and 1.5 * N >= 0.95 * spec.kappa:
        raise InvalidSpec(
            f"step diagnostics need N well below the saturation scale k; "
            f"got N={N} with k={spec.k}"
        )
    vals = [
        _husimi_radial(dspec, rho_from_mean_occupation(spec, mu))
        for mu in (N / 2.0, N - 0.5, 1.5 * N)
    ]
    rho_half = crossing_rho(dspec, 0.5)
    width_rho, width_mu = transition_width(dspec)
    return StepCheck(
        value_inside=vals[0],
        value_mid=vals[1],
        value_outside=vals[2],
        crossing_mu=mean_occupation(spec, rho_half),
        width_mu=width_mu,
        width_rho=width_rho,
    )


@dataclass(frozen=True)
class PotentialSymbolValue:
    """Excitation-potential symbol: exact form and its large-k limit."""

    exact: float
    harmonic: float

    @property
    def relative_gap(self) -> float:
        return abs(self.exact - self.harmonic) / abs(self.exact)


def potential_symbol(spec: StatisticsSpec, hspec: HamiltonianSpec, z) -> PotentialSymbolValue:
    """Coherent expectation of the mode Hamiltonian at z.

    Exact value kappa * sum_i e_i |z_i|^2 / (1 - s rho); the large-k form
    k * sum_i e_i |z_i|^2 is the harmonic-well potential it approaches
    when k grows with k*rho held fixed.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if len(hspec.e) != spec.r:
        raise InvalidSpec(f"need {spec.r} mode energies, got {len(hspec.e)}")
    rho = _rho_of(spec, z)
    rho_i = np.abs(z) ** 2
    weighted = float(np.dot(hspec.e, rho_i))
    exact = spec.kappa * weighted / (1.0 - spec.s * rho)
    return PotentialSymbolValue(exact=exact, harmonic=spec.k * weighted)
