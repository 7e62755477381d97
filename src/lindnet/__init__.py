"""Lindblad dynamics of small open quantum networks.

Tensor-product bases of qubits and finite spins, network models with incoherent
transfer/pump/loss channels, a vectorized-Liouvillian propagator with an exact
expm cross-check, closed-form solutions for the exactly solvable networks, and
detectors for the transport effects those networks exhibit (congestion valley,
filling staircase, asymptotic unitarity).

Importing the package loads none of its modules and no NumPy: each public name
and each submodule is imported on first use.
"""

import importlib
import os
import sys

# OpenBLAS reads this once, when NumPy loads it. Its idle workers spin for
# 2**28 cycles (about 0.1 s) after each threaded call before they sleep; 2**20
# keeps them awake across back-to-back dense blocks yet lets them sleep during
# the sparse stepping and Python work between calls. A value the user set wins,
# and a host that loaded NumPy first is left as it is.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

__version__ = "0.1.0"

# each public name, under the submodule that defines it
_EXPORTS = {
    "hilbert": (
        "DensityMatrix",
        "ProductBasis",
        "PureState",
        "SiteDescriptor",
        "basis_state",
        "dicke_state",
    ),
    "model": (
        "Dephasing",
        "Dissipation",
        "Extraction",
        "Injection",
        "NetworkSpec",
        "PresetRun",
        "Transfer",
        "build_hamiltonian",
        "build_jump_operators",
        "cosine_noise",
        "preset",
        "preset_names",
        "uniform_noise",
    ),
    "dynamics": (
        "InvariantViolation",
        "LindbladGenerator",
        "PropagationConfig",
        "SteadyStateResult",
        "Trajectory",
        "propagate",
        "steady_states",
    ),
    "observables": (
        "EffectReport",
        "detect_asymptotic_unitarity",
        "detect_congestion_valley",
        "staircase_steps",
        "unitarity_distance",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "oracle", "cli")

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    # PEP 562: called only for names not yet in this module's globals
    if name in _SUBMODULES:
        # the import binds the submodule here, as any submodule import does
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
