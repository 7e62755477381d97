"""Lindblad dynamics of small open quantum networks.

Tensor-product bases of qubits and finite spins, network models with incoherent
transfer/pump/loss channels, a vectorized-Liouvillian propagator with an exact
expm cross-check, closed-form solutions for the exactly solvable networks, and
detectors for the transport effects those networks exhibit (congestion valley,
filling staircase, asymptotic unitarity).
"""

import os
import sys

# OpenBLAS reads this once, when NumPy loads it. Its idle workers spin for
# 2**28 cycles (about 0.1 s) after each threaded call before they sleep; 2**20
# keeps them awake across back-to-back dense blocks yet lets them sleep during
# the sparse stepping and Python work between calls. A value the user set wins,
# and a host that loaded NumPy first is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from lindnet.hilbert import (
    DensityMatrix,
    ProductBasis,
    PureState,
    SiteDescriptor,
    basis_state,
    dicke_state,
    embed_site_operator,
)
from lindnet.model import (
    Dephasing,
    Dissipation,
    Extraction,
    Injection,
    NetworkSpec,
    PresetRun,
    Transfer,
    build_hamiltonian,
    build_jump_operators,
    cosine_noise,
    preset,
    preset_names,
    uniform_noise,
)
from lindnet.dynamics import (
    InvariantViolation,
    LindbladGenerator,
    PropagationConfig,
    SteadyStateResult,
    Trajectory,
    propagate,
    steady_states,
)
from lindnet.observables import (
    EffectReport,
    detect_asymptotic_unitarity,
    detect_congestion_valley,
    staircase_steps,
    unitarity_distance,
)

__version__ = "0.1.0"
