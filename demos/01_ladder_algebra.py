#!/usr/bin/env python3
"""Walk through the ladder algebra: bases, triple relations, spectra.

The family is labelled by (r, s, k): r creation/annihilation pairs, a
sign s picking the fermionic (-1, finite Fock space with exclusion cap
k-1) or bosonic (+1, truncated infinite space) branch.
"""

import numpy as np

from arstat import (
    HamiltonianSpec,
    StatisticsSpec,
    enumerate_basis,
    fermionic_dimension,
    hamiltonian,
    ladder_matrices,
    large_k_commutator_deviation,
    structure_function,
    verify_triple_relations,
)

# ---- a small fermionic family: two modes, exclusion cap 2 ----------------
spec = StatisticsSpec(r=2, s=-1, k=3)
basis = enumerate_basis(spec)
print(f"family (r={spec.r}, s={spec.s}, k={spec.k})")
print(f"  {basis.dim} states (closed form {fermionic_dimension(spec.r, int(spec.k))}):")
print(f"  {basis.occupations.tolist()}")

# the structure function controls every ladder amplitude; it vanishes at
# the exclusion boundary, so raising chains terminate with exactly zero
print("\nstructure function at the boundary:")
for occ in [(1, 0), (2, 1), (3, 0)]:
    print(f"  F_1{occ} = {structure_function(spec, occ, 0)}")

# the defining triple relations hold to round-off on the whole space
report = verify_triple_relations(basis)
print(f"\ntriple-relation residual: {report.max_residual:.2e}")
print(f"mutual commutativity residual: {report.mutual_commute.spectral:.2e}")

# the Hamiltonian is diagonal with energies e0 + sum_i e_i n_i
hspec = HamiltonianSpec(e0=0.0, e=(1.0, 2.0))
h = hamiltonian(basis, hspec)
energies = sorted(np.real(np.diag(h.toarray())))
print(f"\nspectrum with e = (1, 2): {energies}")

# nilpotency: no chain of raises survives past the exclusion cap
ops = ladder_matrices(basis)
power = np.linalg.matrix_power(ops.plus[0].toarray(), int(spec.k))
print(f"(a_1^+)^k = 0: max entry {np.max(np.abs(power)):.1e}")

# at large k both families approach ordinary bosons: [a_i^-, a_j^+] ~ k
print("\nlarge-k commutator deviation (bosonic family, states n_tot <= 2):")
for k, dev in large_k_commutator_deviation(r=2, s=+1, k_values=[50, 100, 200], n_cap=2):
    print(f"  k = {k:5.0f}:  |[a,a+] - k|/k = {dev:.5f}  (= 4/k)")
