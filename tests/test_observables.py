"""Tests for measurement helpers and the three effect detectors."""

import numpy as np
import pytest
from scipy.linalg import expm

from lindnet.dynamics import LindbladGenerator, PropagationConfig, propagate
from lindnet.hilbert import DensityMatrix, ProductBasis, SiteDescriptor
from lindnet.observables import (
    detect_asymptotic_unitarity,
    detect_congestion_valley,
    staircase_steps,
    unitarity_distance,
)


def random_density(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / rho.trace()


class TestPopulation:
    def test_unknown_site(self):
        basis = ProductBasis((SiteDescriptor("1", "qubit", 2), SiteDescriptor("2", "qubit", 2)))
        gen = LindbladGenerator(np.zeros((4, 4)), (), basis)
        state = DensityMatrix(np.eye(4, dtype=complex) / 4.0, basis)
        traj = propagate(gen, state, PropagationConfig(times=np.array([0.0])))
        with pytest.raises(KeyError, match="no site labelled 'zz'"):
            traj.population("zz")


class TestUnitarityDistance:
    def test_zero_on_the_orbit(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = A + A.conj().T
        ref = random_density(4, 4)
        U = expm(-1j * H * 0.9)
        rotated = U @ ref @ U.conj().T
        assert unitarity_distance(rotated, ref, H, 0.9) < 1e-12

    def test_matches_manual_operator_norm(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        H = A + A.conj().T
        ref = random_density(5, 3)
        rho_t = random_density(6, 3)
        U = expm(-1j * H * 1.7)
        delta = rho_t - U @ ref @ U.conj().T
        expect = np.abs(np.linalg.eigvalsh((delta + delta.conj().T) / 2)).max()
        assert unitarity_distance(rho_t, ref, H, 1.7) == pytest.approx(expect, rel=1e-10)


class TestCongestionValley:
    def test_detects_interior_dip(self):
        g = np.logspace(-2, 1, 25)
        p = 0.6 + 0.3 * (np.log10(g) - 0.0) ** 2 / 4.0  # parabola in log gamma
        report = detect_congestion_valley(g, p)
        assert report.detected
        assert report.numbers["gamma_at_minimum"] == pytest.approx(1.0, rel=0.2)
        assert report.numbers["minimum_population"] == pytest.approx(0.6, abs=0.01)
        assert report.numbers["depth"] == pytest.approx(0.075, abs=0.01)
        assert report.numbers["plateau_population"] == pytest.approx(p[-1])

    def test_monotone_sweep_is_not_a_valley(self):
        g = np.linspace(0.1, 2.0, 15)
        report = detect_congestion_valley(g, 1.0 / (1.0 + g))
        assert not report.detected
        assert report.numbers == {}
        assert report.diagnostics["minimum_index"] == 14

    def test_noise_scale_dip_is_ignored(self):
        g = np.linspace(0.1, 1.0, 11)
        p = np.full(11, 0.5)
        p[5] -= 1e-8
        report = detect_congestion_valley(g, p)
        assert not report.detected

    def test_requires_increasing_gamma(self):
        with pytest.raises(ValueError, match="increasing"):
            detect_congestion_valley(np.array([1.0, 0.5, 2.0]), np.zeros(3))


def synthetic_staircase(n_steps=6, step_time=1.5, samples_per=40):
    """Axis-aligned zig-zag: x fills, then y fills, alternating."""
    t_list, x_list, y_list = [], [], []
    x = y = 0.0
    t0 = 0.0
    for k in range(n_steps):
        seg_t = np.linspace(0.0, step_time, samples_per, endpoint=False)
        ramp = 0.2 * seg_t / step_time
        t_list.append(t0 + seg_t)
        if k % 2 == 0:
            x_list.append(x + ramp)
            y_list.append(np.full(samples_per, y))
            x += 0.2
        else:
            x_list.append(np.full(samples_per, x))
            y_list.append(y + ramp)
            y += 0.2
        t0 += step_time
    return (np.concatenate(t_list), np.concatenate(x_list), np.concatenate(y_list))


class TestStaircase:
    def test_detects_alternating_segments(self):
        t, x, y = synthetic_staircase()
        report = staircase_steps(t, x, y)
        assert report.detected
        assert report.numbers["n_steps"] >= 3
        assert report.numbers["mean_step_duration"] == pytest.approx(1.5, rel=0.05)
        axes = report.diagnostics["segment_axes"]
        assert all(a != b for a, b in zip(axes, axes[1:]))

    def test_diagonal_motion_is_not_a_staircase(self):
        t = np.linspace(0.0, 10.0, 400)
        report = staircase_steps(t, 0.05 * t, 0.05 * t)
        assert not report.detected

    def test_single_ramp_is_not_a_staircase(self):
        t = np.linspace(0.0, 10.0, 400)
        report = staircase_steps(t, 0.08 * t, np.zeros_like(t))
        assert not report.detected
        assert report.diagnostics["n_segments"] == 1

    def test_interior_mean_excludes_truncated_ends(self):
        t, x, y = synthetic_staircase(n_steps=5, step_time=2.0)
        # cut the tail mid-segment: the shortened last step must not bias the mean
        cut = len(t) - 25
        report = staircase_steps(t[:cut], x[:cut], y[:cut])
        assert report.detected
        assert report.numbers["mean_step_duration"] == pytest.approx(2.0, rel=0.05)

    def test_length_guard(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="1-D arrays"):
            staircase_steps(t, t, t)


class TestAsymptoticUnitarity:
    def test_clean_exponential_detected(self):
        t = np.linspace(0.0, 12.0, 60)
        report = detect_asymptotic_unitarity(t, np.exp(-0.9 * t))
        assert report.detected
        assert report.numbers["rate"] == pytest.approx(0.9, rel=1e-6)
        assert report.numbers["decades_spanned"] > 4.0

    def test_noise_floor_points_are_dropped(self):
        t = np.linspace(0.0, 40.0, 200)
        d = np.exp(-1.2 * t)
        d[d < 1e-12] = 1e-16
        report = detect_asymptotic_unitarity(t, d)
        assert report.detected
        assert report.numbers["rate"] == pytest.approx(1.2, rel=1e-6)

    def test_shallow_decay_rejected(self):
        t = np.linspace(0.0, 2.0, 40)
        report = detect_asymptotic_unitarity(t, np.exp(-0.5 * t))
        assert not report.detected
        assert report.diagnostics["decades_spanned"] < 2.0

    def test_nonexponential_decay_rejected(self):
        t = np.linspace(0.0, 30.0, 120)
        report = detect_asymptotic_unitarity(t, 1.0 / (1.0 + t) ** 3)
        assert not report.detected
        assert report.diagnostics["log_residual_rms"] > 0.05

    def test_growth_rejected(self):
        t = np.linspace(0.0, 10.0, 50)
        report = detect_asymptotic_unitarity(t, np.exp(0.5 * t))
        assert not report.detected
