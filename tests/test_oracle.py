"""Closed-form solution tests: frozen values, limits, and internal consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindnet import oracle


def random_density(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / rho.trace()


class TestTwoSiteTransferMap:
    def test_identity_at_zero_time(self):
        rho = random_density(0, 4)
        np.testing.assert_allclose(oracle.two_site_transfer_map(rho, 1.0, 0.0), rho,
                                   atol=1e-15)

    def test_donor_halves_at_log_two(self):
        rho = random_density(1, 4)
        out = oracle.two_site_transfer_map(rho, 1.0, np.log(2.0))
        assert out[2, 2] == pytest.approx(rho[2, 2] / 2, rel=1e-12)

    def test_receiver_collects_donor_loss(self):
        rho = random_density(2, 4)
        out = oracle.two_site_transfer_map(rho, 0.8, 3.0)
        gained = out[1, 1] - rho[1, 1]
        lost = rho[2, 2] - out[2, 2]
        assert gained == pytest.approx(lost.real, rel=1e-12)

    def test_coherence_rates(self):
        rho = random_density(3, 4)
        out = oracle.two_site_transfer_map(rho, 1.2, 2.0)
        half = np.exp(-1.2)
        assert out[2, 0] == pytest.approx(rho[2, 0] * half, rel=1e-12)
        assert out[2, 1] == pytest.approx(rho[2, 1] * half, rel=1e-12)
        assert out[3, 2] == pytest.approx(rho[3, 2] * half, rel=1e-12)
        # entries not touching the donor level are frozen
        assert out[3, 0] == rho[3, 0]
        assert out[1, 0] == rho[1, 0]

    @given(seed=st.integers(0, 10_000), t1=st.floats(0.0, 5.0), t2=st.floats(0.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_semigroup_and_cptp(self, seed, t1, t2):
        rho = random_density(seed, 4)
        once = oracle.two_site_transfer_map(rho, 0.9, t1 + t2)
        twice = oracle.two_site_transfer_map(
            oracle.two_site_transfer_map(rho, 0.9, t1), 0.9, t2)
        np.testing.assert_allclose(once, twice, atol=1e-12)
        assert once.trace() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(once, once.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(once).min() > -1e-12


class TestSpinBattery:
    @pytest.mark.parametrize("gamma,s,n_tot,expect", [
        (0.5, 1.0, 1, 1.0),
        (0.5, 2.0, 2, 3.0),
        (1.0, 0.5, 1, 1.0),
        (2.0, 1.5, 3, 6.0),
    ])
    def test_rate(self, gamma, s, n_tot, expect):
        assert oracle.spin_battery_rate(gamma, s, n_tot) == pytest.approx(expect)


class TestFourSiteSingleExcitation:
    def test_initial_values(self):
        n1, n2 = oracle.four_site_single_excitation(1.0, 0.1, np.array([0.0]))
        assert n1[0] == pytest.approx(1.0)
        assert n2[0] == pytest.approx(0.0)

    def test_zero_loss_reduces_to_rabi(self):
        t = np.linspace(0.0, 12.0, 97)
        n1, n2 = oracle.four_site_single_excitation(1.5, 0.0, t)
        np.testing.assert_allclose(n1, np.cos(1.5 * t / 2) ** 2, atol=1e-12)
        np.testing.assert_allclose(n2, np.sin(1.5 * t / 2) ** 2, atol=1e-12)

    def test_frozen_values(self):
        n1, n2 = oracle.four_site_single_excitation(1.0, 0.1, np.array([2.0, 7.0]))
        np.testing.assert_allclose(n1, [0.30801581, 0.64314961], atol=1e-8)
        np.testing.assert_allclose(n2, [0.6412648, 0.08490679], atol=1e-8)

    def test_population_is_leaking(self):
        t = np.linspace(0.0, 50.0, 301)
        n1, n2 = oracle.four_site_single_excitation(1.0, 0.2, t)
        total = n1 + n2
        assert np.all(total <= 1.0 + 1e-12)
        assert np.all(np.diff(total) <= 1e-12)
        assert total[-1] < 0.02

    def test_critical_damping_branch_is_continuous(self):
        # gamma = 2J makes the internal frequency vanish; the series branch
        # must join the generic branch smoothly
        t = np.array([5.0])
        at = oracle.four_site_single_excitation(1.0, 2.0, t)
        near = oracle.four_site_single_excitation(1.0, 2.0 + 1e-6, t)
        assert abs(at[0][0] - near[0][0]) < 1e-5
        assert abs(at[1][0] - near[1][0]) < 1e-5


class TestFourSiteTwoExcitationSink:
    def test_frozen_generic_value(self):
        n4 = oracle.four_site_two_excitation_n4(0.1, 0.2, np.array([10.0]))
        assert n4[0] == pytest.approx(0.399576400893728, abs=1e-14)

    def test_frozen_equal_rate_value(self):
        n4 = oracle.four_site_two_excitation_n4(0.1, 0.1, np.array([10.0]))
        assert n4[0] == pytest.approx(1.0 - 2.0 / np.e, abs=1e-14)

    def test_equal_rate_limit_is_continuous(self):
        t = np.array([3.0, 10.0, 30.0])
        at = oracle.four_site_two_excitation_n4(0.1, 0.1, t)
        near = oracle.four_site_two_excitation_n4(0.1, 0.1 + 1e-6, t)
        np.testing.assert_allclose(at, near, atol=1e-4)

    def test_bounds(self):
        t = np.linspace(0.0, 200.0, 401)
        n4 = oracle.four_site_two_excitation_n4(0.15, 0.05, t)
        assert n4[0] == pytest.approx(0.0, abs=1e-15)
        assert np.all(np.diff(n4) > 0)
        assert n4[-1] == pytest.approx(1.0, abs=1e-4)


class TestPumpTwoSite:
    def test_frozen_values(self):
        sol = oracle.pump_two_site(2.0, 0.2, 0.3)
        assert sol.n1 == pytest.approx(0.4088669950738916, abs=1e-15)
        assert sol.n2 == pytest.approx(0.394088669950739, abs=1e-15)
        assert sol.omega == pytest.approx(3.998749804626441, abs=1e-12)
        assert sol.step_period == pytest.approx(1.5712874308640459, abs=1e-12)
        np.testing.assert_allclose(
            np.diag(sol.state).real,
            [0.3546798, 0.2364532, 0.25123153, 0.15763547], atol=1e-8)
        assert sol.state[2, 1] == pytest.approx(0.05911330049261084j, abs=1e-15)
        assert sol.oscillating is True

    def test_state_is_valid_and_consistent(self):
        sol = oracle.pump_two_site(1.3, 0.45, 0.2)
        assert sol.state.trace() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(sol.state, sol.state.conj().T, atol=1e-15)
        assert np.linalg.eigvalsh(sol.state).min() > -1e-15
        diag = np.diag(sol.state).real
        assert sol.n1 == pytest.approx(diag[2] + diag[3], abs=1e-14)
        assert sol.n2 == pytest.approx(diag[1] + diag[3], abs=1e-14)

    def test_overdamped_has_no_period(self):
        sol = oracle.pump_two_site(0.01, 1.0, 2.0)
        assert sol.oscillating is False
        assert sol.omega is None
        assert sol.step_period is None

    def test_balanced_rates_oscillate_at_level_splitting(self):
        sol = oracle.pump_two_site(2.0, 0.4, 0.4)
        assert sol.omega == pytest.approx(2.0 * 2.0, abs=1e-14)

    @given(J=st.floats(0.1, 10.0), a=st.floats(0.01, 5.0), b=st.floats(0.01, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_rate_swap_duality(self, J, a, b):
        # the stationary occupations of the rate-swapped network mirror the
        # original: n1(a, b) + n2(b, a) = 1
        direct = oracle.pump_two_site(J, a, b)
        swapped = oracle.pump_two_site(J, b, a)
        assert direct.n1 + swapped.n2 == pytest.approx(1.0, abs=1e-12)


class TestPumpThreeSite:
    def test_frozen_values(self):
        n1, n2, n3 = oracle.pump_three_site(2.0, 0.2, 0.3)
        assert n1 == pytest.approx(0.4088669950738916, abs=1e-15)
        assert n2 == pytest.approx(0.4029556650246306, abs=1e-15)
        assert n3 == pytest.approx(0.394088669950739, abs=1e-15)

    def test_occupations_step_down_along_the_chain(self):
        n1, n2, n3 = oracle.pump_three_site(1.0, 0.3, 0.5)
        assert 0.0 < n3 < n2 < n1 < 1.0

    def test_first_site_matches_dimer(self):
        assert oracle.pump_three_site(1.7, 0.25, 0.4)[0] == pytest.approx(
            oracle.pump_two_site(1.7, 0.25, 0.4).n1, abs=1e-15)


class TestHopTransfer:
    def test_frozen_values(self):
        t = np.array([0.0, 1.0, 3.0])
        sol = oracle.hop_transfer_closed_forms(2.0, 1.0, t)
        assert sol.radius == pytest.approx(0.4472135954999579, abs=1e-15)
        assert sol.n1_inf == pytest.approx(0.6, abs=1e-15)
        np.testing.assert_allclose(np.diag(sol.dark_state), [0.0, 0.4, 0.6, 0.0],
                                   atol=1e-15)
        assert sol.dark_state[1, 2] == pytest.approx(0.2j, abs=1e-15)
        np.testing.assert_allclose(sol.distance, [1.0, 0.36787944, 0.04978707],
                                   atol=1e-8)
        np.testing.assert_allclose(sol.purity, [1.0, 0.47927539, 0.54461812],
                                   atol=1e-8)
        np.testing.assert_allclose(
            sol.coherence,
            [0.0, -0.20691372 + 0.49547j, -0.07031044 - 0.42003639j], atol=1e-8)

    def test_distance_is_a_pure_exponential(self):
        t = np.linspace(0.0, 8.0, 33)
        sol = oracle.hop_transfer_closed_forms(1.4, 0.6, t)
        np.testing.assert_allclose(sol.distance, np.exp(-0.6 * t), atol=1e-15)

    def test_dark_state_is_valid(self):
        sol = oracle.hop_transfer_closed_forms(1.0, 0.5, np.array([0.0]))
        assert sol.dark_state.trace() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(sol.dark_state, sol.dark_state.conj().T,
                                   atol=1e-15)
        assert np.linalg.eigvalsh(sol.dark_state).min() > -1e-15

    def test_purity_starts_pure_and_settles_on_dark_value(self):
        t = np.array([0.0, 60.0])
        sol = oracle.hop_transfer_closed_forms(2.0, 1.0, t)
        assert sol.purity[0] == pytest.approx(1.0, abs=1e-14)
        dark_purity = np.trace(sol.dark_state @ sol.dark_state).real
        assert sol.purity[-1] == pytest.approx(dark_purity, abs=1e-12)

    def test_late_coherence_circles_at_the_radius(self):
        t = np.array([30.0, 31.0, 32.5])
        sol = oracle.hop_transfer_closed_forms(2.0, 1.0, t)
        np.testing.assert_allclose(np.abs(sol.coherence), sol.radius, atol=1e-12)

    def test_coherence_starts_at_zero(self):
        sol = oracle.hop_transfer_closed_forms(2.0, 1.0, np.array([0.0]))
        assert sol.coherence[0] == 0.0


class TestDualityGap:
    def test_exact_complement_has_zero_gap(self):
        n = np.linspace(0.1, 0.9, 7)
        assert oracle.duality_gap(n, 1.0 - n) == 0.0

    def test_gap_is_worst_case_deviation(self):
        n = np.array([0.3, 0.5])
        other = np.array([0.7, 0.5 + 2e-3])
        assert oracle.duality_gap(n, other) == pytest.approx(2e-3, abs=1e-15)
