"""Energy-efficient hybrid beamfocusing for near-field sensing and communication.

Subpackages and modules:

- geometry: arrays, steering vectors, spherical-wave channels
- metrics: SINR, rate, power, energy efficiency
- bounds: point-target and extended-target estimation bounds
- conic: semidefinite programming layer (modeling + interior-point solver)
- sca: successive convex approximation of the beamfocusing designs
- hybrid: analog/digital factorization of digital beamformers
- estimators: echo simulation, grid ML, subspace, and linear MMSE baselines
- harness, cli: scenario sweeps, result tables, command line front end
"""

__version__ = "0.1.0"

#: BLAS thread-count variables, in the order read; here, where numpy is not loaded
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
