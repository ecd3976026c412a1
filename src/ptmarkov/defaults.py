"""Numerical tolerances and guards.

All values are for double precision and noiseless simulated data. Two are
user settings: MARKOV_TOL and BOND_CUTOFF are the defaults of the analyses'
``tol`` and ``cutoff`` (``bond_cutoff``) keywords and of ``ptr analyze
--tol`` and ``--bond-cutoff``. The rest are fixed.
"""

# Validation tolerances for states and maps.
HERMITIAN_ATOL = 1e-10
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10
UNITARY_ATOL = 1e-12

# CP / TP defect threshold for accepting a map as a channel.
CPTP_DEFECT_TOL = 1e-8

# Absolute eigenvalue cutoff for support projection (matrix log, Kraus
# extraction, rank counting).
SUPPORT_CUTOFF = 1e-12

# Relative singular-value cutoff when pseudo-inverting frame Grams.
FRAME_CUTOFF = 1e-10

# Conditional outcomes with probability at or below this floor are
# reported as unresolvable instead of being divided out.
PROBABILITY_FLOOR = 1e-10

# Reconstructed process tensors: eigenvalues in [-PSD_CLIP, 0) are clipped
# to zero; anything more negative signals inconsistent data.
PSD_CLIP = 1e-8

# Default tolerance for the operational Markov test and its relatives.
MARKOV_TOL = 1e-8

# Relative singular-value cutoff for temporal bond-dimension counting.
BOND_CUTOFF = 1e-10

# Largest dense process tensor, in bytes, that is built or loaded: a K-step
# tensor of dimension d holds 16 * d**(4K + 2) bytes, so the guard admits
# qubits up to K = 5 (64 MiB) and qutrits up to K = 3 (73 MiB), and refuses
# qubit K = 6 (1 GiB). It caps a ``model_markov`` joint unitary too:
# 16 * (d * e)**2 bytes at environment dimension e, so qubits to e = 1448,
# and the link-product columns, 16 * d**(2K + 1) * n * e * r bytes for n
# ensemble members and a rank-r initial joint state.
TENSOR_BYTES_GUARD = 128 * 2 ** 20
