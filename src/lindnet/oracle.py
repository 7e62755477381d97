"""Closed-form reference solutions for the exactly solvable networks.

Every function here evaluates an explicit formula; nothing integrates the
master equation. That makes this module an independent cross-check for the
propagation code. All matrices use the package basis order: first declared
site most significant, occupations ascending per site, so for two qubits the
flat order is |0,0>, |0,1>, |1,0>, |1,1>.

Coupling convention: J always denotes the level splitting of an isolated
two-site hop, i.e. twice the single-excitation matrix element. This matches
the presets in lindnet.model.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "two_site_transfer_map",
    "spin_battery_rate",
    "four_site_single_excitation",
    "four_site_two_excitation_n4",
    "TwoSitePumpSolution",
    "pump_two_site",
    "pump_three_site",
    "HopTransferSolution",
    "hop_transfer_closed_forms",
    "duality_gap",
]


def two_site_transfer_map(rho0: np.ndarray, gamma: float, t: float) -> np.ndarray:
    """Exact channel for incoherent transfer 1 -> 2 at rate gamma.

    Works entrywise on any two-qubit density matrix in the package order
    |0,0>, |0,1>, |1,0>, |1,1>: the donor-occupied population |1,0> decays as
    exp(-gamma t) and feeds |0,1>, every coherence touching |1,0> decays as
    exp(-gamma t / 2), and everything else is frozen.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho0.shape}")
    if gamma < 0 or t < 0:
        raise ValueError("gamma and t must be nonnegative")
    donor, receiver = 2, 1  # |1,0> and |0,1>
    full = math.exp(-gamma * t)
    half = math.exp(-0.5 * gamma * t)
    rho = rho0.copy()
    rho[donor, :] *= half
    rho[:, donor] *= half
    rho[donor, donor] = full * rho0[donor, donor]
    rho[receiver, receiver] = rho0[receiver, receiver] + (1.0 - full) * rho0[donor, donor]
    return rho


def spin_battery_rate(gamma: float, s: float, n_tot: int) -> float:
    """Transfer rate of a qubit feeding a spin-s site, n_tot quanta in play.

    The joint ladder matrix element squares to n_tot (2s + 1 - n_tot), so a
    single transfer step inside the n_tot sector is a plain exponential with
    this rate.
    """
    dim = round(2 * s + 1)
    if abs(2 * s + 1 - dim) > 1e-12 or dim < 2:
        raise ValueError("s must be a half-integer >= 1/2")
    if not 0 <= n_tot <= dim:
        raise ValueError(f"n_tot must lie in 0..{dim}")
    return gamma * n_tot * (dim - n_tot)


def _coshm1_over_x2(x: np.ndarray) -> np.ndarray:
    """(cosh x - 1) / x^2, stable at small |x|."""
    x = np.asarray(x, dtype=complex)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = 0.5 + xs**2 / 24.0 + xs**4 / 720.0
    xl = x[~small]
    out[~small] = (np.cosh(xl) - 1.0) / xl**2
    return out


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x) / x, stable at small |x|."""
    x = np.asarray(x, dtype=complex)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = 1.0 + xs**2 / 6.0 + xs**4 / 120.0
    xl = x[~small]
    out[~small] = np.sinh(xl) / xl
    return out


def four_site_single_excitation(J: float, gamma: float,
                                t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Populations n1, n2 of the dimer with one excitation started on site 1.

    The dimer (splitting J) leaks from site 2 at rate gamma; the downstream
    sites never feed back, so n1 and n2 are independent of the final-drain
    rate. Valid for any sign of gamma^2 - 4 J^2 (the square root is taken
    complex, results are real).
    """
    if J <= 0 or gamma < 0:
        raise ValueError("need J > 0 and gamma >= 0")
    t = np.asarray(t, dtype=float)
    omega = cmath.sqrt(complex(gamma * gamma - 4.0 * J * J))
    u = 0.5 * t * omega
    C = _coshm1_over_x2(u)          # (cosh u - 1) / u^2
    S = _sinhc(u)
    envelope = np.exp(-0.5 * gamma * t)
    quarter_t2 = 0.25 * t * t
    n1 = envelope * np.real(1.0 + (gamma * gamma - 2.0 * J * J) * quarter_t2 * C
                            + 0.5 * gamma * t * S)
    n2 = envelope * np.real(2.0 * J * J * quarter_t2 * C)
    return n1, n2


def four_site_two_excitation_n4(gamma: float, gamma_b: float,
                                t: np.ndarray) -> np.ndarray:
    """Final-site population for the doubly excited start |1,1,0,0>.

    Exactly the two-stage cascade filling law; the coherent dimer drops out
    because the donor population stays saturated. Handles the gamma == gamma_b
    removable singularity.
    """
    if gamma < 0 or gamma_b < 0:
        raise ValueError("rates must be nonnegative")
    t = np.asarray(t, dtype=float)
    if abs(gamma - gamma_b) <= 1e-7 * max(gamma, gamma_b, 1e-300):
        g = 0.5 * (gamma + gamma_b)
        return 1.0 - np.exp(-g * t) * (1.0 + g * t)
    return (gamma * (1.0 - np.exp(-gamma_b * t))
            - gamma_b * (1.0 - np.exp(-gamma * t))) / (gamma - gamma_b)


@dataclass(frozen=True)
class TwoSitePumpSolution:
    """Stationary state and spectral data of the pumped dimer."""

    state: np.ndarray        # 4x4, package order |00>,|01>,|10>,|11>
    n1: float
    n2: float
    omega: float | None      # splitting-level oscillation frequency, None if overdamped
    step_period: float | None  # 2 pi / omega, the plateau length of the filling staircase
    oscillating: bool


def pump_two_site(J: float, gamma_in: float, gamma_out: float) -> TwoSitePumpSolution:
    """Closed-form stationary state of the dimer pumped at 1, drained at 2.

    Z = (gin + gout) (J^2 + gin gout) normalizes everything. The generator's
    slowest oscillatory pair sits at -(gin+gout)/2 +/- i omega/2 with
    omega = sqrt(4 J^2 - (gin - gout)^2), so transient populations ring at
    omega/2 and the filling staircase has plateaus of length 2 pi / omega.
    """
    if J <= 0 or gamma_in < 0 or gamma_out < 0 or gamma_in + gamma_out == 0:
        raise ValueError("need J > 0 and rates >= 0, not both zero")
    gin, gout = gamma_in, gamma_out
    Z = (gin + gout) * (J * J + gin * gout)
    ZT = (gin + gout) * Z
    state = np.zeros((4, 4), dtype=complex)
    state[0, 0] = J * J * gout * gout / ZT
    state[1, 1] = J * J * gin * gout / ZT
    state[2, 2] = gin * gout * (J * J + (gin + gout) ** 2) / ZT
    state[3, 3] = J * J * gin * gin / ZT
    state[2, 1] = 1j * J * gin * gout / Z      # <1,0| rho |0,1>
    state[1, 2] = -1j * J * gin * gout / Z
    n1 = gin * (J * J + gin * gout + gout * gout) / Z
    n2 = gin * J * J / Z
    disc = 4.0 * J * J - (gin - gout) ** 2
    omega = math.sqrt(disc) if disc > 0 else None
    return TwoSitePumpSolution(
        state=state, n1=n1, n2=n2, omega=omega,
        step_period=(2.0 * math.pi / omega) if omega else None,
        oscillating=omega is not None)


def pump_three_site(J: float, gamma_in: float, gamma_out: float) -> tuple[float, float, float]:
    """Stationary site populations of the uniform chain pumped at 1, drained at 3."""
    if J <= 0 or gamma_in < 0 or gamma_out < 0 or gamma_in + gamma_out == 0:
        raise ValueError("need J > 0 and rates >= 0, not both zero")
    gin, gout = gamma_in, gamma_out
    Z = (gin + gout) * (J * J + gin * gout)
    n1 = gin * (J * J + gin * gout + gout * gout) / Z
    n2 = gin * (J * J + gout * gout) / Z
    n3 = gin * J * J / Z
    return n1, n2, n3


@dataclass(frozen=True)
class HopTransferSolution:
    """Exact trajectory data for the doubly excited dimer with a hop-off sink."""

    dark_state: np.ndarray   # 4x4 reduced state of the dimer, package order
    distance: np.ndarray     # operator-norm distance to the rotating reference
    purity: np.ndarray
    coherence: np.ndarray    # <u+| rho_dimer |u->, see below
    radius: float            # late-time coherence modulus
    n1_inf: float


def hop_transfer_closed_forms(J: float, gamma: float, t: np.ndarray) -> HopTransferSolution:
    """Closed forms for start |1,1,0>: dimer (splitting J) plus transfer 2 -> 3.

    dark_state is the dimer's reduced density matrix at late times, anchored
    at t = 0 of its unitary orbit: the full state approaches
    exp(-iHt) (dark_state (x) |1><1|_3) exp(+iHt) and distance(t), the
    operator-norm gap to that reference, equals exp(-gamma t) exactly.

    coherence(t) is taken between the unnormalized dimer combinations
    u+ = |1,0> + |0,1> (bra) and u- = |0,1> - |1,0> (ket); its value is
    gamma/(gamma - iJ) (exp(-gamma t) - exp(-iJt)), which settles onto a
    circle of radius gamma / sqrt(J^2 + gamma^2). The element between the
    corresponding normalized vectors is exactly half this.
    """
    if J <= 0 or gamma <= 0:
        raise ValueError("need J > 0 and gamma > 0")
    t = np.asarray(t, dtype=float)
    den = 2.0 * (J * J + gamma * gamma)

    dark = np.zeros((4, 4), dtype=complex)
    dark[1, 1] = J * J / den                       # |0,1>
    dark[2, 2] = (J * J + 2.0 * gamma * gamma) / den   # |1,0>
    dark[1, 2] = 1j * J * gamma / den              # <0,1| rho |1,0>
    dark[2, 1] = -1j * J * gamma / den

    decay = np.exp(-gamma * t)
    distance = decay.copy()
    purity = (1.0 - J * J / den
              + (-2.0 * decay * (J * J + gamma * gamma
                                 + gamma * gamma * np.cos(J * t))
                 + np.exp(-2.0 * gamma * t) * (3.0 * J * J + 4.0 * gamma * gamma)) / den)
    coherence = gamma / (gamma - 1j * J) * (decay - np.exp(-1j * J * t))
    radius = gamma / math.sqrt(J * J + gamma * gamma)
    n1_inf = 0.5 + gamma * gamma / den
    return HopTransferSolution(dark_state=dark, distance=distance, purity=purity,
                               coherence=coherence, radius=radius, n1_inf=n1_inf)


def duality_gap(n_direct: np.ndarray, n_swapped: np.ndarray) -> float:
    """Largest violation of the pump duality n1(gin,gout) + n2(gout,gin) = 1.

    The dimer pump with injection and extraction swapped is the original
    model conjugated by site swap plus particle-hole, and |1,0> is a fixed
    point of that conjugation, so the two population histories must sum to
    one at every time.
    """
    n_direct = np.asarray(n_direct, dtype=float)
    n_swapped = np.asarray(n_swapped, dtype=float)
    if n_direct.shape != n_swapped.shape:
        raise ValueError("population arrays must share a shape")
    return float(np.abs(n_direct + n_swapped - 1.0).max())
