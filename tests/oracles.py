"""Independent reference computations used by the test suite.

Everything here is deliberately written by a different route than the
library code it checks: brute-force enumeration, log-space series with
Kahan compensation, raw Dirichlet/Beta integrals via scipy, dense
singular-value 2-norms, central-difference derivatives.
"""

import itertools
import math

import numpy as np
from scipy.special import gammaln


def brute_force_states(r, cap):
    """All occupation vectors with total <= cap, by exhaustive product."""
    states = set()
    for occ in itertools.product(range(cap + 1), repeat=r):
        if sum(occ) <= cap:
            states.add(occ)
    return states


def ladder_chain_coefficient(s, k, occ):
    """Bargmann expansion coefficient rebuilt from the raising chain.

    Applying the differential raising operator to the vacuum polynomial
    one quantum at a time gives the monomial prefactor as a product of
    raise factors g_m = k - (1-s)/2 + s m; dividing by the accumulated
    ladder amplitudes sqrt(F) reproduces the coefficient.
    """
    n_tot = sum(occ)
    log_raise = 0.0
    for m in range(n_tot):
        log_raise += math.log(k - (1 - s) / 2.0 + s * m)
    log_amp = 0.0
    # raising mode by mode in index order; F products are order independent
    partial = [0] * len(occ)
    total = 0
    for i, target in enumerate(occ):
        for _ in range(target):
            partial[i] += 1
            total += 1
            f = 0.5 * partial[i] * (2 * k - (1 + s) + 2 * s * total)
            log_amp += 0.5 * math.log(f)
    return math.exp(log_raise - log_amp)


def fd_gradients(fn, z, h=1e-5):
    """dA/dz_i and dA/dzbar_i of a phase-space function by central differences.

    From the real and imaginary partials: d/dz = (d/dx - i d/dy)/2 and
    d/dzbar = (d/dx + i d/dy)/2.
    """
    z = np.asarray(z, dtype=complex)
    dz = np.zeros(z.shape[0], dtype=complex)
    dzbar = np.zeros(z.shape[0], dtype=complex)
    for i in range(z.shape[0]):
        e = np.zeros(z.shape[0], dtype=complex)
        e[i] = h
        fx = (fn(z + e) - fn(z - e)) / (2.0 * h)
        fy = (fn(z + 1j * e) - fn(z - 1j * e)) / (2.0 * h)
        dz[i] = 0.5 * (fx - 1j * fy)
        dzbar[i] = 0.5 * (fx + 1j * fy)
    return dz, dzbar


def kahan_sum(terms):
    total = 0.0
    comp = 0.0
    for t in terms:
        y = t - comp
        new = total + y
        comp = (new - total) - y
        total = new
    return total


def poisson_cdf(lam, n):
    """P(Poisson(lam) <= n), log-space terms with Kahan accumulation."""
    if lam <= 0:
        return 1.0
    log_terms = [m * math.log(lam) - lam - gammaln(m + 1) for m in range(int(n) + 1)]
    peak = max(log_terms)
    return min(1.0, math.exp(peak) * kahan_sum(math.exp(t - peak) for t in log_terms))


def binomial_cdf(n_trials, p, n):
    """P(Binomial(n_trials, p) <= n), same accumulation scheme."""
    if n >= n_trials:
        return 1.0
    if p <= 0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    log_terms = [
        gammaln(n_trials + 1) - gammaln(m + 1) - gammaln(n_trials - m + 1)
        + m * log_p + (n_trials - m) * log_q
        for m in range(int(n) + 1)
    ]
    peak = max(log_terms)
    return min(1.0, math.exp(peak) * kahan_sum(math.exp(t - peak) for t in log_terms))


def negative_binomial_cdf(k, rho, n):
    """P(NB(k, 1-rho) <= n): the exact bosonic droplet profile at z'z = rho."""
    if rho <= 0:
        return 1.0
    log_terms = [
        gammaln(k + m) - gammaln(k) - gammaln(m + 1) + k * math.log1p(-rho) + m * math.log(rho)
        for m in range(int(n) + 1)
    ]
    peak = max(log_terms)
    return min(1.0, math.exp(peak) * kahan_sum(math.exp(t - peak) for t in log_terms))


def _dense_comm(a, b):
    return a @ b - b @ a


def dense_triple_residual_norm(ladders, interior_cap):
    """Largest exact 2-norm over the triple-relation and mutual-commutator
    residuals, dense, with columns restricted to total occupancy <= interior_cap."""
    spec = ladders.basis.spec
    s, r = spec.s, spec.r
    am = [op.toarray() for op in ladders.minus]
    ap = [op.toarray() for op in ladders.plus]
    keep = np.array([sum(occ) <= interior_cap for occ in ladders.basis.states])
    residuals = []
    for i in range(r):
        for j in range(r):
            inner = _dense_comm(ap[i], am[j])
            for k in range(r):
                residuals.append(_dense_comm(inner, ap[k]) + s * (j == k) * ap[i] + s * (i == j) * ap[k])
                residuals.append(_dense_comm(inner, am[k]) - s * (i == k) * am[j] - s * (i == j) * am[k])
            residuals.append(_dense_comm(am[i], am[j]))
            residuals.append(_dense_comm(ap[i], ap[j]))
    return max(float(np.linalg.norm(res[:, keep], 2)) for res in residuals)


def dense_commutator_deviation(ladders, k, n_cap):
    """max_ij ||P([a_i^-, a_j^+] - k d_ij)P||_2 / k by a dense SVD.

    On total occupancy <= n_cap both products only pass through states of
    total occupancy <= n_cap + 1, a leading block of the graded basis, so
    the ladders are cut to that block before they are densified.
    """
    r = ladders.basis.spec.r
    grades = [sum(occ) for occ in ladders.basis.states]
    reach = sum(g <= n_cap + 1 for g in grades)
    keep = sum(g <= n_cap for g in grades)
    worst = 0.0
    for i in range(r):
        for j in range(r):
            am = ladders.minus[i][:reach, :reach].toarray()
            ap = ladders.plus[j][:reach, :reach].toarray()
            comm = _dense_comm(am, ap)[:keep, :keep]
            if i == j:
                comm -= k * np.eye(keep)
            worst = max(worst, float(np.linalg.norm(comm, 2)))
    return worst / k
