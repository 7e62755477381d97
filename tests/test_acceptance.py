"""Acceptance battery: the package's headline guarantees, one test each.

Every propagation against a closed form runs at its stated tolerance, the
three effect detectors run on the trajectories they were built for, and the
two integrators are cross-checked. Propagations from the first eight tests
feed a shared log so the invariant audit can sweep everything at the end.

The network tests reproduce the documented behaviour of the antenna-ring
presets and are the slowest part of the suite (a few minutes in total).
"""

import math

import numpy as np
import pytest

from lindnet import oracle
from lindnet.dynamics import (
    LindbladGenerator,
    PropagationConfig,
    propagate,
    steady_states,
)
from lindnet.hilbert import DensityMatrix
from lindnet.model import preset
from lindnet.observables import (
    detect_asymptotic_unitarity,
    detect_congestion_valley,
    staircase_steps,
    unitarity_distance,
)

# (tag, metadata) for every propagation of the closed-form and network
# tests; the invariant audit asserts the recorded floors over all of them
_LOG: list[tuple[str, dict]] = []


def _run(gen: LindbladGenerator, state, config: PropagationConfig, tag: str):
    traj = propagate(gen, state, config)
    _LOG.append((tag, traj.metadata))
    return traj


def _random_density(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / rho.trace()


def test_criterion_01_transfer_channel_matches_closed_form():
    """Incoherent two-site transfer equals the entrywise channel to 1e-6.

    Ten random initial states at each of two rates on 21 points of [0, 20];
    the first state per rate runs through the fixed-step integrator so both
    propagation paths are covered.
    """
    times = np.linspace(0.0, 20.0, 21)
    for gamma in (0.1, 1.0):
        run = preset("two_site_transfer", gamma=gamma)
        gen = LindbladGenerator.from_network(run.spec)
        for seed in range(10):
            rho0 = _random_density(seed, 4)
            method = "fixed_step_rk4" if seed == 0 else "superoperator_expm"
            traj = _run(gen, rho0,
                        PropagationConfig(times=times, dt=1e-3, method=method,
                                          snapshots="all"),
                        "transfer-channel")
            gap = max(
                float(np.abs(snap - oracle.two_site_transfer_map(rho0, gamma, t)).max())
                for t, snap in zip(traj.times, traj.snapshots))
            assert gap <= 1e-6, f"gamma={gamma} seed={seed} gap={gap:.3e}"


def test_criterion_02_battery_rate_law_and_blocked_endpoints():
    """Qubit-battery charging decays at gamma n_tot (2s + 1 - n_tot).

    The fitted qubit decay rate stays within 1 percent of the closed form
    for every interior filling at s = 1 and s = 2; the empty and full
    endpoints are frozen, with populations pinned to 1e-9.
    """
    gamma = 0.5
    for s in (1.0, 2.0):
        dim = round(2 * s + 1)
        for n_tot in range(1, dim):
            geff = oracle.spin_battery_rate(gamma, s, n_tot)
            run = preset("qubit_to_battery", gamma=gamma, s=s, n_tot=n_tot)
            assert run.metadata["effective_rate"] == pytest.approx(geff, rel=1e-12)
            gen = LindbladGenerator.from_network(run.spec)
            times = np.linspace(0.0, 1.0 / geff, 51)
            traj = _run(gen, run.initial,
                        PropagationConfig(times=times, dt=1e-4), "battery-rate")
            slope = np.polyfit(traj.times, np.log(traj.population("q")), 1)[0]
            assert abs(-slope / geff - 1.0) <= 0.01, f"s={s} n_tot={n_tot}"
        for n_tot, frozen in ((0, 0.0), (dim, 1.0)):
            run = preset("qubit_to_battery", gamma=gamma, s=s, n_tot=n_tot)
            gen = LindbladGenerator.from_network(run.spec)
            traj = _run(gen, run.initial,
                        PropagationConfig(times=np.linspace(0.0, 10.0, 21),
                                          method="superoperator_expm"),
                        "battery-endpoint")
            drift = np.abs(traj.population("q") - frozen).max()
            assert drift <= 1e-9, f"s={s} n_tot={n_tot} drift={drift:.3e}"


def test_criterion_03_cascade_closed_forms():
    """Four-site cascade populations match the closed forms to 1e-6.

    Single excitation: n1 and n2 at two leak rates (independent of the
    downstream drain, which is set differently on purpose). Two excitations:
    final-site n4 at two equal-rate points, where the generic formula has a
    removable singularity, and at a distinct-rate pair.
    """
    times = np.linspace(0.0, 100.0, 501)
    cfg = PropagationConfig(times=times, method="superoperator_expm")
    for gamma in (0.1, 0.05):
        run = preset("four_site_congestion", J=1.0, gamma=gamma, gamma_b=0.2,
                     excitations=1)
        gen = LindbladGenerator.from_network(run.spec)
        traj = _run(gen, run.initial, cfg, "cascade-one-excitation")
        n1, n2 = oracle.four_site_single_excitation(1.0, gamma, times)
        assert np.abs(traj.population("1") - n1).max() <= 1e-6
        assert np.abs(traj.population("2") - n2).max() <= 1e-6
    for gamma, gamma_b in ((0.1, 0.1), (0.05, 0.05), (0.25, 0.2)):
        run = preset("four_site_congestion", J=1.0, gamma=gamma,
                     gamma_b=gamma_b, excitations=2)
        gen = LindbladGenerator.from_network(run.spec)
        traj = _run(gen, run.initial, cfg, "cascade-two-excitation")
        n4 = oracle.four_site_two_excitation_n4(gamma, gamma_b, times)
        assert np.abs(traj.population("4") - n4).max() <= 1e-6


def test_criterion_04_congestion_valley_needs_two_excitations():
    """Drain-rate sweep of the cascade: the congested-site readout at t = 40
    dips at an intermediate rate with two excitations and is monotone with
    one, so the valley detector fires only on the doubly excited sweep."""
    gbs = np.logspace(-3.0, 2.0, 26)

    def readout(excitations: int, gamma: float) -> np.ndarray:
        vals = []
        for gb in gbs:
            run = preset("four_site_congestion", J=1.0, gamma=gamma,
                         gamma_b=float(gb), excitations=excitations)
            gen = LindbladGenerator.from_network(run.spec)
            traj = _run(gen, run.initial,
                        PropagationConfig(times=np.array([0.0, 40.0]),
                                          method="superoperator_expm"),
                        "valley-sweep")
            vals.append(traj.population("3")[-1])
        return np.asarray(vals)

    two = detect_congestion_valley(gbs, readout(2, 0.1))
    assert two.detected
    assert 0.01 < two.numbers["gamma_at_minimum"] < 1.0
    assert two.numbers["depth"] > 0.05

    one = detect_congestion_valley(gbs, readout(1, 0.05))
    assert not one.detected


def test_criterion_05_pump_steady_states():
    """Pumped dimer and pumped chain against the closed-form fixed points.

    The stationary solver reproduces the closed forms to 1e-9 with a unique
    fixed point, and long propagation from the empty state lands on them
    within 1e-6 (horizons set by the slowest relaxation rates, 0.25 and
    0.125, so the leftover transient is of order exp(-20)).
    """
    run2 = preset("two_site_pump")
    gen2 = LindbladGenerator.from_network(run2.spec)
    sol2 = oracle.pump_two_site(2.0, 0.2, 0.3)
    fixed2 = steady_states(gen2)
    assert fixed2.multiplicity == 1
    assert fixed2.residual <= 1e-9
    assert np.abs(fixed2.state - sol2.state).max() <= 1e-9
    dm2 = DensityMatrix(fixed2.state, gen2.basis)
    n1, n2 = np.real(np.diag(dm2.matrix)) @ gen2.basis.occupation_table
    assert abs(n1 - sol2.n1) <= 1e-9
    assert abs(n2 - sol2.n2) <= 1e-9

    run3 = preset("three_site_pump")
    gen3 = LindbladGenerator.from_network(run3.spec)
    exact3 = oracle.pump_three_site(2.0, 0.2, 0.3)
    fixed3 = steady_states(gen3)
    assert fixed3.multiplicity == 1
    dm3 = DensityMatrix(fixed3.state, gen3.basis)
    pops3 = np.real(np.diag(dm3.matrix)) @ gen3.basis.occupation_table
    assert np.abs(pops3 - np.array(exact3)).max() <= 1e-9

    traj2 = _run(gen2, run2.initial,
                 PropagationConfig(times=np.array([0.0, 80.0]),
                                   method="superoperator_expm", snapshots="last"),
                 "pump-convergence")
    assert np.abs(traj2.snapshots[-1] - sol2.state).max() <= 1e-6

    traj3 = _run(gen3, run3.initial,
                 PropagationConfig(times=np.array([0.0, 160.0]),
                                   method="superoperator_expm"),
                 "pump-convergence")
    for label, target in zip(("1", "2", "3"), exact3):
        assert abs(traj3.population(label)[-1] - target) <= 1e-6


def test_criterion_06_filling_staircase_and_swap_duality():
    """Pumped dimer from the empty state fills in an alternating staircase.

    The detector finds at least three axis-aligned plateaus whose mean
    interior duration sits within 10 percent of pi / omega_pair, where
    omega_pair is the imaginary part of the generator's slow eigenvalue
    pair at real part -(gin + gout)/2; twice that equals the closed-form
    splitting frequency sqrt(4 J^2 - (gin - gout)^2). Started on site 1
    instead, the staircase is absent and the site-swap duality
    n1(gin, gout; t) + n2(gout, gin; t) = 1 holds to 1e-6.
    """
    run = preset("two_site_pump")
    gen = LindbladGenerator.from_network(run.spec)
    sol = oracle.pump_two_site(2.0, 0.2, 0.3)

    # the column-stacked superoperator, written out from H and the jumps
    H, eye = gen.hamiltonian, np.eye(gen.dimension)
    S = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for L in gen.jump_operators:
        LdL = L.conj().T @ L
        S += np.kron(L.conj(), L) - 0.5 * (np.kron(eye, LdL) + np.kron(LdL.T, eye))
    eig = np.linalg.eigvals(S)
    slow = eig[np.abs(eig.real + 0.25) < 1e-9]
    assert slow.size > 0
    omega_pair = float(np.abs(slow.imag).max())
    assert abs(2.0 * omega_pair - sol.omega) <= 1e-9
    target_step = math.pi / omega_pair
    assert target_step == pytest.approx(sol.step_period, rel=1e-12)

    traj = _run(gen, run.initial,
                PropagationConfig(times=run.times, method="superoperator_expm"),
                "staircase")
    report = staircase_steps(traj.times, traj.population("1"), traj.population("2"))
    assert report.detected
    assert report.numbers["n_steps"] >= 3
    axes = report.diagnostics["segment_axes"]
    assert all(a != b for a, b in zip(axes, axes[1:]))
    assert abs(report.numbers["mean_step_duration"] / target_step - 1.0) <= 0.10

    legs = []
    for gin, gout in ((0.2, 0.3), (0.3, 0.2)):
        run1 = preset("two_site_pump", gamma_in=gin, gamma_out=gout,
                      initial="site1")
        gen1 = LindbladGenerator.from_network(run1.spec)
        legs.append(_run(gen1, run1.initial,
                         PropagationConfig(times=run1.times,
                                           method="superoperator_expm"),
                         "pump-duality"))

    occupied_start = staircase_steps(legs[0].times, legs[0].population("1"),
                                     legs[0].population("2"))
    assert not occupied_start.detected

    gap = oracle.duality_gap(legs[0].population("1"), legs[1].population("2"))
    assert gap <= 1e-6


def test_criterion_07_asymptotic_unitarity_of_hop_transfer():
    """Doubly excited dimer with a hop-off sink settles onto a unitary orbit.

    The operator-norm distance to the rotating dark-state reference equals
    exp(-gamma t) to 1e-6, purity and the protected dimer coherence match
    their closed forms to 1e-6, the late coherence modulus reaches
    gamma / sqrt(J^2 + gamma^2) = 1/sqrt(5) within 1e-4, and the
    exponential-approach detector confirms the decay over > 2 decades.
    """
    run = preset("hop_transfer")
    gen = LindbladGenerator.from_network(run.spec)
    times = np.linspace(0.0, 12.0, 121)
    traj = _run(gen, run.initial,
                PropagationConfig(times=times, method="superoperator_expm",
                                  snapshots="all"),
                "hop-transfer")
    sol = oracle.hop_transfer_closed_forms(2.0, 1.0, times)

    reference = np.kron(sol.dark_state, np.diag([0.0, 1.0]))
    dist = np.array([unitarity_distance(rho, reference, gen.hamiltonian, t)
                     for rho, t in zip(traj.snapshots, times)])
    assert np.abs(dist - np.exp(-times)).max() <= 1e-6
    assert np.abs(dist - sol.distance).max() <= 1e-6
    assert np.abs(traj.purity - sol.purity).max() <= 1e-6

    # coherence between u+ = |1,0> + |0,1> (bra) and u- = |0,1> - |1,0>
    # (ket) of the dimer reduced over the sink site
    coh = np.empty(times.size, dtype=complex)
    for k, rho in enumerate(traj.snapshots):
        dimer = rho[0::2, 0::2] + rho[1::2, 1::2]
        coh[k] = dimer[2, 1] - dimer[2, 2] + dimer[1, 1] - dimer[1, 2]
    assert np.abs(coh - sol.coherence).max() <= 1e-6
    assert sol.radius == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-15)
    assert abs(abs(coh[-1]) - sol.radius) <= 1e-4

    report = detect_asymptotic_unitarity(times, dist)
    assert report.detected
    assert report.numbers["rate"] == pytest.approx(1.0, rel=1e-3)
    assert report.numbers["decades_spanned"] >= 2.0


def _protected_pair(gen: LindbladGenerator):
    """Noise-protected single-excitation eigenvector pair of the ring + core.

    The drained site is last in the basis, so the even-index block of the
    Hamiltonian is the drained-site-empty sector. Its eigenvectors that live
    entirely in the single-excitation subspace span the decoherence-free
    levels; the tracked pair is the second and fourth of them, tensored with
    the occupied drained site.
    """
    H = gen.hamiltonian
    half = H.shape[0] // 2
    assert np.abs(H[0::2, 1::2]).max() < 1e-12
    assert np.abs(H[0::2, 0::2] - H[1::2, 1::2]).max() < 1e-12
    evals, evecs = np.linalg.eigh(H[0::2, 0::2])
    occ = np.array([bin(k).count("1") for k in range(half)])
    singles = [k for k in range(half)
               if np.abs(evecs[occ != 1, k]).max() < 1e-10]
    assert len(singles) == 5
    m, n = singles[1], singles[3]
    assert evals[m] == pytest.approx(-1.255328345364316, abs=1e-9)
    assert evals[n] == pytest.approx(0.34107514543180883, abs=1e-9)
    occupied = np.array([0.0, 1.0])
    bra = np.kron(evecs[:, m], occupied)
    ket = np.kron(evecs[:, n], occupied)
    return bra, ket, float(evals[n] - evals[m])


def test_criterion_08_ring_network_scenarios():
    """The antenna-ring presets reproduce their documented behaviour.

    Battery filling: with two excitations the reaction-center plus battery
    population grows monotonically toward 2, passing 1.9 by t = 200 with
    the t = 40 deficit more than halved, and does not grow at all when the
    battery coupling is removed. Harvesting valley: the three-excitation
    drain-rate sweep has a valley that survives weak local dissipation and
    dephasing (0.03) at reduced depth. Protected pair: the six-qubit
    variant locks a two-level coherence whose modulus holds steady and
    whose phase advances at the level splitting; local noise (0.01) decays
    its modulus by more than half between t = 40 and t = 200.
    """
    # battery filling, clean ring
    filling_times = np.linspace(0.0, 200.0, 101)
    for gb in (0.1, 0.3):
        run = preset("lh1_ring", gamma_b=gb)
        gen = LindbladGenerator.from_network(run.spec)
        traj = _run(gen, run.initial,
                    PropagationConfig(times=filling_times,
                                      method="superoperator_expm"),
                    "ring-filling")
        total = traj.population("rc") + traj.population("bat")
        assert np.all(np.diff(total) > -1e-9)
        assert total[-1] >= 1.9
        assert filling_times[20] == 40.0
        assert 2.0 - total[-1] < 0.5 * (2.0 - total[20])

    run0 = preset("lh1_ring", gamma_b=0.0)
    gen0 = LindbladGenerator.from_network(run0.spec)
    traj0 = _run(gen0, run0.initial,
                 PropagationConfig(times=np.linspace(0.0, 200.0, 11),
                                   method="superoperator_expm"),
                 "ring-filling-blocked")
    assert np.abs(traj0.population("bat")).max() <= 1e-9
    assert (traj0.population("rc") + traj0.population("bat")).max() <= 1.0 + 1e-9

    # harvesting valley, three excitations, clean then noisy
    def ring_readout(gbs: np.ndarray, noise: float) -> np.ndarray:
        vals = []
        for gb in gbs:
            run = preset("lh1_ring", gamma_b=float(gb), excitations=3,
                         gamma_diss=noise, gamma_deph=noise)
            gen = LindbladGenerator.from_network(run.spec)
            if noise:
                cfg = PropagationConfig(times=np.array([0.0, 40.0]), dt=0.01)
            else:
                cfg = PropagationConfig(times=np.array([0.0, 40.0]),
                                        method="superoperator_expm")
            traj = _run(gen, run.initial, cfg, "ring-valley")
            vals.append(traj.population("rc")[-1])
        return np.asarray(vals)

    clean = detect_congestion_valley(np.logspace(-2.0, 1.0, 21),
                                     ring_readout(np.logspace(-2.0, 1.0, 21), 0.0))
    assert clean.detected
    assert 0.02 < clean.numbers["gamma_at_minimum"] < 0.5

    noisy = detect_congestion_valley(np.logspace(-1.7, 0.0, 7),
                                     ring_readout(np.logspace(-1.7, 0.0, 7), 0.03))
    assert noisy.detected
    assert 0.03 < noisy.numbers["gamma_at_minimum"] < 0.6
    assert noisy.numbers["depth"] < clean.numbers["depth"]

    # protected coherence, six-qubit variant, clean lock
    run7 = preset("lh1_ring", battery_dim=None, gamma=0.2,
                  energy_unit="internal")
    gen7 = LindbladGenerator.from_network(run7.spec)
    bra, ket, gap = _protected_pair(gen7)
    lock_times = np.linspace(0.0, 80.0, 401)
    traj7 = _run(gen7, run7.initial,
                 PropagationConfig(times=lock_times,
                                   method="superoperator_expm",
                                   snapshots="all"),
                 "protected-pair")
    z = np.array([bra.conj() @ rho @ ket for rho in traj7.snapshots])
    window = lock_times >= 50.0
    modulus = np.abs(z[window])
    assert modulus.mean() >= 0.01
    assert modulus.std() / modulus.mean() <= 0.02
    phase_span = np.unwrap(np.angle(z[window]))[-1] - np.unwrap(np.angle(z[window]))[0]
    assert abs(abs(phase_span) - gap * 30.0) / (gap * 30.0) <= 0.05
    assert traj7.population("rc")[-1] >= 0.99

    # local noise melts the lock
    run7n = preset("lh1_ring", battery_dim=None, gamma=0.2,
                   energy_unit="internal", gamma_diss=0.01, gamma_deph=0.01)
    gen7n = LindbladGenerator.from_network(run7n.spec)
    noisy_times = np.linspace(0.0, 200.0, 101)
    traj7n = _run(gen7n, run7n.initial,
                  PropagationConfig(times=noisy_times, dt=0.01,
                                    snapshots="all"),
                  "protected-pair-noisy")
    zn = np.array([bra.conj() @ rho @ ket for rho in traj7n.snapshots])
    assert noisy_times[20] == 40.0
    assert abs(zn[-1]) <= 0.5 * abs(zn[20])


def test_criterion_09_invariants_on_every_recorded_run():
    """Every propagation recorded by the battery kept trace within 1e-9,
    hermiticity within 1e-9, and smallest eigenvalue above -1e-9 at every
    output sample."""
    if not _LOG:
        pytest.skip("needs the propagation tests in this module to run first")
    expected = {
        "transfer-channel", "battery-rate", "battery-endpoint",
        "cascade-one-excitation", "cascade-two-excitation", "valley-sweep",
        "pump-convergence", "staircase", "pump-duality", "hop-transfer",
        "ring-filling", "ring-filling-blocked", "ring-valley",
        "protected-pair", "protected-pair-noisy",
    }
    missing = expected - {tag for tag, _ in _LOG}
    assert not missing, f"audit is incomplete, missing runs: {sorted(missing)}"
    assert len(_LOG) >= 100
    for tag, meta in _LOG:
        assert meta["max_trace_error"] <= 1e-9, tag
        assert meta["max_hermiticity_defect"] <= 1e-9, tag
        assert meta["min_eigenvalue_floor"] >= -1e-9, tag


def test_criterion_10_integrator_agreement_on_small_presets():
    """Fixed-step integration and the exact exponential agree to 1e-8 on
    every preset of dimension at most 16, comparing populations, purity,
    and the final state over a shared 21-point grid."""
    names = ("two_site_transfer", "qubit_to_battery", "four_site_congestion",
             "two_site_pump", "three_site_pump", "hop_transfer")
    for name in names:
        run = preset(name)
        gen = LindbladGenerator.from_network(run.spec)
        assert gen.dimension <= 16
        horizon = min(20.0, float(run.times[-1]))
        times = np.linspace(0.0, horizon, 21)
        fixed = propagate(gen, run.initial,
                          PropagationConfig(times=times, dt=1e-3,
                                            snapshots="last"))
        exact = propagate(gen, run.initial,
                          PropagationConfig(times=times,
                                            method="superoperator_expm",
                                            snapshots="last"))
        assert np.abs(fixed.populations - exact.populations).max() <= 1e-8, name
        assert np.abs(fixed.purity - exact.purity).max() <= 1e-8, name
        assert np.abs(fixed.snapshots[-1] - exact.snapshots[-1]).max() <= 1e-8, name
