"""Derived observables and effect detectors.

unitarity_distance measures a density matrix against a Hamiltonian orbit;
detectors turn recorded trajectories or parameter sweeps into a
detected / not-detected verdict with the numbers that justify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "unitarity_distance",
    "EffectReport",
    "detect_congestion_valley",
    "staircase_steps",
    "detect_asymptotic_unitarity",
]

# Detector thresholds; each detector's docstring says how it applies its own.
_VALLEY_NOISE_FLOOR = 1e-6
_STAIR_SLOPE_RATIO = 0.25
_STAIR_TRANSVERSE_FLOOR = 0.01
_STAIR_MIN_SAMPLES = 3
_STAIR_MIN_ADVANCE_FRACTION = 0.05
_UNITARITY_MIN_DECADES = 2.0
_UNITARITY_MAX_LOG_RESIDUAL = 0.05


def unitarity_distance(rho_t: np.ndarray, rho_ref: np.ndarray,
                       H: np.ndarray, t: float) -> float:
    """Operator-norm distance from rho_t to the unitarily rotated reference.

    The reference orbit is exp(-iHt) rho_ref exp(+iHt) with rho_ref anchored
    at t = 0.
    """
    H = np.asarray(H, dtype=complex)
    evals, evecs = np.linalg.eigh(H)
    U = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    delta = np.asarray(rho_t, dtype=complex) - U @ np.asarray(rho_ref, complex) @ U.conj().T
    return float(np.linalg.norm(delta, 2))


@dataclass(frozen=True)
class EffectReport:
    """Detector verdict: the numbers dict is populated only when detected."""

    effect: str
    detected: bool
    numbers: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def detect_congestion_valley(gamma_values: np.ndarray, populations: np.ndarray) -> EffectReport:
    """Find a congestion valley in a drain-rate sweep.

    The effect: the delivered population at a fixed readout time dips at an
    intermediate drain rate, so the sweep has an interior strict minimum
    whose depth on both flanks exceeds _VALLEY_NOISE_FLOOR.
    """
    g = np.asarray(gamma_values, dtype=float)
    p = np.asarray(populations, dtype=float)
    if g.shape != p.shape or g.ndim != 1 or g.size < 3:
        raise ValueError("need matching 1-D sweeps with at least 3 points")
    if not np.all(np.diff(g) > 0):
        raise ValueError("gamma_values must be strictly increasing")
    k = int(np.argmin(p))
    diagnostics = {"minimum_index": k, "minimum_value": float(p[k]),
                   "edge_values": (float(p[0]), float(p[-1]))}
    if k == 0 or k == g.size - 1:
        return EffectReport("congestion_valley", False, {}, diagnostics)
    depth_left = float(p[:k].max() - p[k])
    depth_right = float(p[k + 1:].max() - p[k])
    depth = min(depth_left, depth_right)
    diagnostics["depth"] = depth
    if depth <= _VALLEY_NOISE_FLOOR:
        return EffectReport("congestion_valley", False, {}, diagnostics)
    numbers = {"gamma_at_minimum": float(g[k]), "minimum_population": float(p[k]),
               "depth": depth, "plateau_population": float(p[-1])}
    return EffectReport("congestion_valley", True, numbers, diagnostics)


def staircase_steps(times: np.ndarray, n_first: np.ndarray, n_second: np.ndarray) -> EffectReport:
    """Segment a planar population curve into an alternating staircase.

    The effect: (n_first(t), n_second(t)) advances in axis-aligned moves,
    one population filling while the other holds. A greedy pass grows each
    segment until the transverse net drift exceeds _STAIR_SLOPE_RATIO times
    the along-axis net advance plus _STAIR_TRANSVERSE_FLOOR, then switches
    axis. A segment only counts when it holds _STAIR_MIN_SAMPLES points and
    advances along its axis by _STAIR_MIN_ADVANCE_FRACTION of the larger
    coordinate span, which keeps diagonal motion from registering as many
    short steps. At least three qualifying segments count as detected; the
    mean step duration averages the interior segments only, because the
    first segment starts mid-step at t = 0 and the last is cut off by the
    end of the data.
    """
    t = np.asarray(times, dtype=float)
    x = np.asarray(n_first, dtype=float)
    y = np.asarray(n_second, dtype=float)
    if not (t.shape == x.shape == y.shape) or t.ndim != 1 or t.size < 3 * _STAIR_MIN_SAMPLES:
        raise ValueError("need matching 1-D arrays long enough for three segments")

    coords = (x, y)
    span = max(x.max() - x.min(), y.max() - y.min())
    min_advance = _STAIR_MIN_ADVANCE_FRACTION * span

    def grow(start: int, axis: int) -> int:
        """Largest end index (inclusive) for a segment along `axis`."""
        along, across = coords[axis], coords[1 - axis]
        end = start
        for j in range(start + 1, t.size):
            adv = abs(along[j] - along[start])
            drift = abs(across[j] - across[start])
            if drift > _STAIR_SLOPE_RATIO * adv + _STAIR_TRANSVERSE_FLOOR:
                break
            end = j
        return end

    # the axis that carries the longer opening segment goes first
    axis = 0 if grow(0, 0) >= grow(0, 1) else 1
    segments = []
    start = 0
    while start < t.size - 1:
        end = grow(start, axis)
        along = coords[axis]
        if end - start + 1 < _STAIR_MIN_SAMPLES or abs(along[end] - along[start]) < min_advance:
            break
        segments.append((start, end, axis))
        if end >= t.size - 1:
            break
        start = end
        axis = 1 - axis

    durations = [float(t[e] - t[s]) for s, e, _ in segments]
    diagnostics = {
        "n_segments": len(segments),
        "segment_axes": ["first" if a == 0 else "second" for _, _, a in segments],
        "segment_durations": durations,
    }
    if len(segments) < 3:
        return EffectReport("staircase", False, {}, diagnostics)
    interior = durations[1:-1]
    numbers = {
        "n_steps": len(segments),
        "mean_step_duration": float(np.mean(interior)),
        "interior_durations": interior,
    }
    return EffectReport("staircase", True, numbers, diagnostics)


def detect_asymptotic_unitarity(times: np.ndarray, distances: np.ndarray) -> EffectReport:
    """Check that the distance to a unitary orbit decays as one exponential.

    Fits log(distance) linearly in time over the points standing above
    numerical noise; detected when the fit drops at a positive rate over at
    least _UNITARITY_MIN_DECADES with RMS log-residual at most
    _UNITARITY_MAX_LOG_RESIDUAL.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(distances, dtype=float)
    if t.shape != d.shape or t.ndim != 1 or t.size < 4:
        raise ValueError("need matching 1-D arrays with at least 4 samples")
    keep = d > 1e-12
    diagnostics = {"n_points": int(keep.sum())}
    if keep.sum() < 4:
        return EffectReport("asymptotic_unitarity", False, {}, diagnostics)
    tk, dk = t[keep], np.log(d[keep])
    slope, intercept = np.polyfit(tk, dk, 1)
    resid = dk - (slope * tk + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    decades = float((dk.max() - dk.min()) / math.log(10.0))
    diagnostics.update({"rate": float(-slope), "log_residual_rms": rms,
                        "decades_spanned": decades})
    detected = (slope < 0 and decades >= _UNITARITY_MIN_DECADES
                and rms <= _UNITARITY_MAX_LOG_RESIDUAL)
    if not detected:
        return EffectReport("asymptotic_unitarity", False, {}, diagnostics)
    numbers = {"rate": float(-slope), "decades_spanned": decades,
               "log_residual_rms": rms}
    return EffectReport("asymptotic_unitarity", True, numbers, diagnostics)
