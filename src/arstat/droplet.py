"""Droplet density operators and their phase-space (Husimi) profiles.

The droplet is the projector onto every Fock state with total occupancy
<= N.  Its coherent-state expectation depends on z only through
rho = z.zbar and equals an exact cumulative distribution, evaluated and
inverted as a regularized incomplete beta function I_x(a, b):

    bosonic   P( NegBin(k, 1 - rho) <= N )           = I_{1-rho}(k, N+1)
    fermionic P( Binomial(k - 1, rho/(1 + rho)) <= N ) = I_{1/(1+rho)}(k-1-N, N+1)

Both have mean occupancy mu(rho) = kappa * rho / (1 - s rho), so the
profile drops from 1 to 0 across mu = N with width ~ sqrt(N); in the
regime N << k this is the familiar step at k*rho = N.  The sharp-step
checks are therefore phrased in the mean-occupancy coordinate, which is
exactly k*rho to leading order and stays honest at desk-scale N/k.

I_x(a, b) and its inverse are evaluated here with numpy alone: Lentz's
continued fraction (DLMF 8.17.22) and the positive series DLMF 8.17.8,
with the prefactor x^a (1-x)^b / B(a, b) in Loader's saddle-point form.
Both x and 1 - x are passed in, and the work is done in the smaller of
the two, so the profile stays exact where rho ~ N/k is far below the
spacing of doubles near 1.  The matrix path is the only SciPy user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import bargmann
from .algebra import FockBasis, HamiltonianSpec, StatisticsSpec, _integral
from .errors import ArstatError, CapError, DomainError, InvalidSpec, SizeError

if TYPE_CHECKING:
    from scipy import sparse

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
    from scipy import sparse

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


# ----------------------------------------- the regularized incomplete beta

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)
_TINY = 1e-300  # Lentz's stand-in for a zero denominator
_SMALLEST = 5e-324  # the smallest positive double
# Steps of one continued fraction or series, per element.  A fraction step
# is one term; at a = b = 1e6 the fraction takes about 500 of them.  A
# series step is a block of _BLOCK terms; there the series takes about
# 11,000 terms, a number growing like 10 sqrt(a).
_MAX_STEPS = 20_000
_BLOCK = 64
_NEWTON_STEPS = 60
# a Newton step this small, relative to v, is at the rounding noise of I itself
_NEWTON_TOL = 64 * _EPS


def _stirling_error(z: float) -> float:
    """ln Gamma(z) - (z - 1/2) ln z + z - ln sqrt(2 pi), for z > 0."""
    if z < 15.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LOG_2PI
    # the asymptotic series; its first omitted term is below 3e-16 at z = 15
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z


def _bd0(x: float, m: np.ndarray) -> np.ndarray:
    """The deviance x ln(x/m) + m - x >= 0 for x > 0 (Loader 2000).

    Where m is within a factor 3 of x it is summed as the series
    d t + 2x (t^3/3 + t^5/5 + ...), d = x - m, t = d/(x + m), which the
    closed form would lose to cancellation.
    """
    d = x - m
    t = d / (x + m)
    near = np.abs(t) < 0.5
    t_near = t[near]
    t2 = t_near * t_near
    term = x * (2.0 * t_near)
    total = d[near] * t_near
    for odd in range(3, 100, 2):
        term = term * t2
        update = total + term / odd
        if np.array_equal(update, total):
            break
        total = update
    out = np.empty_like(m)
    out[near] = total
    far = m[~near]
    out[~near] = x * (math.log(x) - np.log(far)) + far - x
    return out


def _log_prefactor(a: float, b: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ln(x^a y^b / B(a, b)) for y = 1 - x, from Stirling's formula with its
    error terms: the x-dependence is a sum of two non-negative deviances."""
    n = a + b
    return (
        0.5 * math.log(a * (b / n)) - _HALF_LOG_2PI
        + _stirling_error(n) - _stirling_error(a) - _stirling_error(b)
        - (_bd0(a, n * x) + _bd0(b, n * y))
    )


def _until_converged(step, state: list[np.ndarray]) -> np.ndarray:
    """Apply ``state, done = step(j, state)`` for j = 1, 2, ...; each element
    leaves the state once done and keeps its entry of ``state[0]``."""
    out = np.empty_like(state[0])
    active = np.arange(out.size)
    for j in range(1, _MAX_STEPS + 1):
        if active.size == 0:
            return out
        state, done = step(j, state)
        if done.any():
            out[active[done]] = state[0][done]
            active = active[~done]
            state = [column[~done] for column in state]
    if active.size == 0:
        return out
    raise SizeError(
        f"the incomplete beta function does not converge in {_MAX_STEPS} steps at these parameters"
    )


def _nonzero(z: np.ndarray) -> np.ndarray:
    return np.where(np.abs(z) < _TINY, _TINY, z)


def _lentz(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The continued fraction of DLMF 8.17.22, I_x(a, b) = prefactor * cf / a,
    by the modified Lentz method; it converges fast for x < (a+1)/(a+b+2)."""
    n = a + b

    def step(m, state):
        h, c, d, x = state
        # divided factor by factor, so that no product overflows for large a + b
        even = m / (a + 2 * m - 1.0) * ((b - m) / (a + 2 * m))
        odd = -(a + m) / (a + 2 * m) * ((n + m) / (a + 2 * m + 1.0))
        for coef in (even, odd):
            d = 1.0 / _nonzero(1.0 + coef * x * d)
            c = _nonzero(1.0 + coef * x / c)
            delta = d * c
            h = h * delta
        return [h, c, d, x], np.abs(delta - 1.0) <= _EPS

    d = 1.0 / _nonzero(1.0 - n * x / (a + 1.0))
    return _until_converged(step, [d, np.ones_like(x), d, x])


def _series(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The series of DLMF 8.17.8, I_x(a, b) = prefactor / a * sum_j
    (a+b)_j / (a+1)_j x^j, whose terms are all positive, summed _BLOCK
    terms at a time.  The terms rise to one peak and then fall, so the sum
    ends with the first block whose last term no longer changes it."""
    n = a + b
    offsets = np.arange(1.0, _BLOCK + 1.0)

    def step(block, state):
        total, term, x = state
        j = (block - 1) * _BLOCK + offsets
        ratios = (n + j - 1.0) / (a + j) * x[:, np.newaxis]
        terms = term[:, np.newaxis] * np.cumprod(ratios, axis=1)
        total = total + terms.sum(axis=1)
        term = terms[:, -1]
        return [total, term, x], total + term == total

    ones = np.ones_like(x)
    return _until_converged(step, [ones, ones, x])


def _lower_upper(a: float, b: float, x: np.ndarray, y: np.ndarray):
    """I_x(a, b), 1 - I_x(a, b) and the prefactor x^a y^b / B(a, b), for
    0 < x <= 1/2 and y = 1 - x.  One of the first two is computed, the
    other is its complement, so both are exact to about eps absolute.

    Below x = (a+1)/(a+b+2) the continued fraction in x converges fast.
    Above it, the fraction for 1 - I_x = I_y(b, a) converges fast, but y is
    known only to half an ulp of 1, which moves that result by about
    eps * prefactor / (2x).  Where this exceeds eps / 2 the positive series
    in x is summed instead: it is needed when x ~ N/k lies far below the
    spacing of doubles near 1.
    """
    pre = np.exp(_log_prefactor(a, b, x, y))
    lower = np.empty_like(x)
    upper = np.empty_like(x)
    fraction = x * (a + b + 2.0) < a + 1.0
    series = ~fraction & (pre > x)
    flipped = ~fraction & ~series
    lower[fraction] = pre[fraction] * _lentz(a, b, x[fraction]) / a
    lower[series] = pre[series] * _series(a, b, x[series]) / a
    upper[flipped] = pre[flipped] * _lentz(b, a, y[flipped]) / b
    upper[~flipped] = 1.0 - lower[~flipped]
    lower[flipped] = 1.0 - upper[flipped]
    return lower, upper, pre


def _betainc(a: float, b: float, x, y) -> np.ndarray:
    """The regularized incomplete beta I_x(a, b), elementwise, given both x
    and y = 1 - x; the smaller of the two carries the precision."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    out = np.where(x > y, 1.0, 0.0)  # I_0 = 0 and I_1 = 1
    below = (x <= y) & (x > 0.0)
    above = (x > y) & (y > 0.0)
    if below.any():
        out[below] = _lower_upper(a, b, x[below], y[below])[0]
    if above.any():
        # I_x(a, b) = 1 - I_y(b, a)
        out[above] = _lower_upper(b, a, y[above], x[above])[1]
    return out


def _initial_guess(a: float, b: float, level: float) -> tuple[float, float]:
    """(x, 1 - x) with I_x(a, b) near ``level``, from the normal
    approximation of Abramowitz & Stegun 26.5.22, for a, b >= 1."""
    tail = min(level, 1.0 - level)
    s = math.sqrt(-2.0 * math.log(tail))
    z = s - (2.30753 + 0.27061 * s) / (1.0 + s * (0.99229 + 0.04481 * s))
    if level > 0.5:
        z = -z
    lam = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    w = z * math.sqrt(lam + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
        lam + 5.0 / 6.0 - 2.0 / (3.0 * h)
    )
    # x = a / (a + b e^{2w}) = 1 / (1 + e^r), both halves without overflow
    r = math.log(b / a) + 2.0 * w
    if r < 0.0:
        e = math.exp(r)
        return 1.0 / (1.0 + e), e / (1.0 + e)
    e = math.exp(-r)
    return e / (1.0 + e), 1.0 / (1.0 + e)


def _betaincinv(a: float, b: float, level: float) -> tuple[float, float]:
    """(x, 1 - x) with I_x(a, b) = level, for a, b >= 1 and 0 < level < 1.

    The unknown v is whichever of x and 1 - x lies below 1/2, so it is
    never rounded against 1.  Newton's method runs on the logarithm of
    the smaller tail, I or 1 - I, with the beta density for its derivative,
    so it converges in the far tails too.  Every evaluation shrinks a
    bracket on v; a step that would leave it bisects it instead, in
    log scale while its ends are far apart.
    """
    flip = level > _lower_upper(a, b, np.array([0.5]), np.array([0.5]))[0][0]
    # I_x(a, b) = level is I_y(b, a) = 1 - level, with y = 1 - x < 1/2
    p, q = (b, a) if flip else (a, b)
    lower_target, upper_target = (1.0 - level, level) if flip else (level, 1.0 - level)
    # the lower tail I_v(p, q) rises with v, the upper tail falls
    use_upper = lower_target > 0.5
    target, sign = (upper_target, -1.0) if use_upper else (lower_target, 1.0)
    lo, hi = 0.0, 0.5
    x0, y0 = _initial_guess(a, b, level)
    v = min(y0 if flip else x0, 0.5)
    if not v > 0.0:
        v = 0.25
    for _ in range(_NEWTON_STEPS):
        lower, upper, pre = (col[0] for col in _lower_upper(p, q, np.array([v]), np.array([1.0 - v])))
        tail = upper if use_upper else lower
        if tail == target:
            break
        if (tail < target) == (sign > 0.0):
            lo = v
        else:
            hi = v
        newton = -1.0  # outside every bracket: bisect unless a Newton step exists
        if tail > 0.0 and pre > 0.0:
            # d ln(tail)/dv = sign * density / tail, density = pre / (v (1 - v))
            newton = v - sign * (math.log(tail) - math.log(target)) * tail * v * (1.0 - v) / pre
            if abs(newton - v) <= _NEWTON_TOL * v:
                v = newton
                break
        if lo < newton < hi:
            v = newton
        elif hi > 4.0 * lo:
            v = math.sqrt(max(lo, _SMALLEST)) * math.sqrt(hi)  # > 0 without underflow
        else:
            v = 0.5 * (lo + hi)
        if hi - lo <= 2.0 * _EPS * hi:
            break
    else:
        raise ArstatError(
            f"inverse incomplete beta at a={a}, b={b}, level={level} did not converge "
            f"in {_NEWTON_STEPS} steps"
        )
    v = float(v)
    return (1.0 - v, v) if flip else (v, 1.0 - v)


def _profile(dspec: DropletSpec, rho):
    """Exact droplet symbol at z.zbar = rho, elementwise over an array.

    The distribution functions above are regularized incomplete beta
    functions (DLMF 8.17): bosonic I_{1-rho}(k, N+1), fermionic
    I_{1-p}(k-1-N, N+1) with 1 - p = 1/(1+rho), which is 1 everywhere
    when the cap admits every state (N = k-1).  Both arguments are formed
    without cancellation.
    """
    spec, N = dspec.spec, dspec.N
    rho = np.asarray(rho, dtype=float)
    if spec.s == +1:
        return _betainc(spec.k, N + 1.0, 1.0 - rho, rho)
    if N >= spec.k - 1:
        return np.ones_like(rho)
    return _betainc(spec.k - 1.0 - N, N + 1.0, 1.0 / (1.0 + rho), rho / (1.0 + rho))


def husimi(dspec: DropletSpec, z) -> float:
    """Coherent-state expectation of the droplet projector at z.

    In [0, 1]; for the total-cap droplet it depends on z only through
    rho = z.zbar (the incomplete beta function above).
    """
    _require_total_cap(dspec)
    return float(_profile(dspec, _rho_of(dspec.spec, z)))


def husimi_from_matrix(dspec: DropletSpec, basis: FockBasis, z) -> float:
    """First-principles path: quadratic form of the normalized coherent
    vector with the projector matrix.  Works for box droplets too."""
    rho0 = density_operator(dspec, basis)
    vec = bargmann.coherent_vector(dspec.spec, basis, z)
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
    return DropletProfile(
        rho=rho_grid,
        value=_profile(dspec, rho_grid),
        mean_occ=mean_occupation(spec, rho_grid),
        k=spec.k, N=dspec.N, s=spec.s, r=spec.r,
    )


def crossing_rho(dspec: DropletSpec, level: float) -> float:
    """Radius where the profile crosses ``level``: the inverse incomplete beta."""
    _require_total_cap(dspec)
    spec, N = dspec.spec, dspec.N
    if not 0.0 < level < 1.0:
        raise InvalidSpec("level must lie strictly between 0 and 1")
    if spec.s == +1:
        return _betaincinv(spec.k, N + 1.0, level)[1]  # 1 - rho, rho
    if N >= spec.k - 1:
        raise InvalidSpec("a droplet holding every state has profile 1 everywhere and crosses no level")
    x, y = _betaincinv(spec.k - 1.0 - N, N + 1.0, level)  # 1/(1 + rho), rho/(1 + rho)
    return y / x


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
    vals = _profile(
        dspec,
        np.array([rho_from_mean_occupation(spec, mu) for mu in (N / 2.0, N - 0.5, 1.5 * N)]),
    )
    rho_half = crossing_rho(dspec, 0.5)
    width_rho, width_mu = transition_width(dspec)
    return StepCheck(
        value_inside=float(vals[0]),
        value_mid=float(vals[1]),
        value_outside=float(vals[2]),
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
