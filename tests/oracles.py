"""Independent reference computations used by the test suite.

Everything here is deliberately written by a different route than the
library code it checks: brute-force enumeration, log-space series with
Kahan compensation, raw Dirichlet/Beta integrals via scipy, dense
singular-value 2-norms, central-difference derivatives, a CSV joined
row by row in memory, ladders assembled as scipy.sparse matrices.
"""

import itertools
import math

import numpy as np
from scipy.special import gammaln, roots_legendre


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


def sparse_ladders(basis):
    """(minus, plus): a_i^- assembled from (row, column, amplitude) triplets
    into scipy.sparse CSR, and a_i^+ as its conjugate transpose."""
    from scipy import sparse

    spec = basis.spec
    occ = basis.occupations
    bracket = 2.0 * spec.k - (1 + spec.s) + 2.0 * spec.s * basis.grades
    minus, plus = [], []
    for i in range(spec.r):
        cols = np.flatnonzero(occ[:, i])
        lowered = occ[cols].copy()
        lowered[:, i] -= 1
        amps = np.sqrt(0.5 * occ[cols, i] * bracket[cols])
        a = sparse.csr_matrix(
            (amps.astype(complex), (basis.state_indices(lowered), cols)),
            shape=(basis.dim, basis.dim),
        )
        minus.append(a)
        plus.append(a.conj().T.tocsr())
    return tuple(minus), tuple(plus)


def sparse_standard_pairs(basis):
    """The operator pairs of ``starprod.STANDARD_PAIRS`` as scipy.sparse
    products of the sparse ladders, number operators and identity."""
    from scipy import sparse

    minus, plus = sparse_ladders(basis)
    kappa = basis.spec.kappa
    numbers = [sparse.diags(basis.occupations[:, i].astype(complex)).tocsr() for i in range(basis.spec.r)]
    up, dn, n = plus[0], minus[0], numbers[0]
    eye = sparse.identity(basis.dim, dtype=complex, format="csr")
    pairs = {
        "raise_sq_lower_sq": ((up @ up) / kappa**2, (dn @ dn) / kappa**2),
        "number_sq_lower_sq": ((n @ n) / kappa**2, (dn @ dn) / kappa**2),
        "number_raise_sq_lower_sq": ((n @ up @ up) / kappa**3, (dn @ dn) / kappa**2),
        "identity": (eye, eye),
    }
    if basis.spec.r >= 2:
        pairs["commuting_numbers"] = (numbers[0] / kappa, numbers[1] / kappa)
    return pairs


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
    keep = np.array([sum(occ) <= interior_cap for occ in ladders.basis.occupations.tolist()])
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
    grades = [sum(occ) for occ in ladders.basis.occupations.tolist()]
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


def full_tensor_mode_residual(algebra):
    """Worst interior deviation of every canonical mode commutator, formed
    in the full tensor-product space from the embedded operators."""
    import scipy.sparse as sp

    mask = np.ones(1)
    for d in algebra.factor_dims:
        mask = np.kron(mask, (np.arange(d) <= d - 2).astype(complex))
    proj = sp.diags(mask).tocsr()
    eye = sp.identity(algebra.dim, format="csr", dtype=complex)
    worst = 0.0

    def check(a, b, expected_scalar):
        nonlocal worst
        residual = proj @ (_dense_comm(a, b) - expected_scalar * eye) @ proj
        if residual.nnz:
            worst = max(worst, float(np.max(np.abs(residual.data))))

    signed = [n for n in range(-algebra.n_modes, algebra.n_modes + 1) if n != 0]
    for i in range(algebra.r):
        for j in range(algebra.r):
            for n in signed:
                for m in signed:
                    expected = 0.0
                    if i == j and n + m == 0:
                        expected = 1.0 if n > 0 else -1.0
                    check(algebra.alpha(i, n), algebra.alpha(j, m), expected)
            check(algebra.alpha0(i), algebra.alphabar0(j), 1j if i == j else 0.0)
            for n in signed:
                check(algebra.alpha0(i), algebra.alpha(j, n), 0.0)
                check(algebra.alphabar0(i), algebra.alpha(j, n), 0.0)
    return worst


def edge_csv_reference(times, axes, samples):
    """The whole edge-sim CSV text, joined in memory: one line per sample,
    every cell formatted on its own to 17 significant digits, the grid in
    C order over (t, theta_1, ..., theta_r)."""
    header = ",".join(["t", *(f"theta_{i + 1}" for i in range(len(axes))), "phi"])
    grid = itertools.product(*[[f"{v:.17g}" for v in ax.tolist()] for ax in [times, *axes]])
    phi = [f"{v:.17g}" for v in samples.ravel().tolist()]
    rows = [",".join(point) + "," + cell for point, cell in zip(grid, phi)]
    return "\n".join([header, *rows]) + "\n"


def radial_cutoff_rule(spec, n_radial, cutoff):
    """The fermionic measure on the box [0, R]^r by tensor Gauss-Legendre,
    with no compactifying map: a reference for ``build_quadrature``'s
    mapped rule.  Returns the rule and the bound r (1 + R)^(-k) on the
    measure it leaves out."""
    from arstat.bargmann import QuadratureRule, measure_normalization

    k, r = spec.k, spec.r
    x, w = roots_legendre(n_radial)
    nodes, weights = (x + 1.0) / 2.0 * cutoff, w / 2.0 * cutoff
    rho = np.array(list(itertools.product(nodes, repeat=r)))
    base = np.prod(np.array(list(itertools.product(weights, repeat=r))), axis=1)
    norm = measure_normalization(spec)
    density = norm.analytic * (1.0 + np.sum(rho, axis=1)) ** (-(k + r))
    rule = QuadratureRule(spec, "radial_cutoff", n_radial, rho, base * density, norm)
    return rule, r * (1.0 + cutoff) ** (-k)
