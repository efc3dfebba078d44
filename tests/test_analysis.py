import numpy as np
import pytest

from pggsim.agent_sim import LearningParams, Population, run_abm
from pggsim.analysis import stats, trajectory_distance
from pggsim.dynamics import Trajectory, integrate
from pggsim.payoffs import PGGParams

from conftest import MUTATOR, START


def constant_trajectory(state, samples=50):
    times = np.arange(samples, dtype=float)
    freqs = np.tile(np.asarray(state, dtype=float), (samples, 1))
    return Trajectory(times=times, frequencies=freqs)


class TestStats:
    def test_constant_vertex(self):
        st = stats(constant_trajectory((1.0, 0.0, 0.0)))
        assert st.fixated == 0
        assert st.oscillation_counts == (0, 0, 0)
        assert st.amplitude == (0.0, 0.0, 0.0)
        assert st.time_means == (1.0, 0.0, 0.0)

    def test_sinusoid_crossing_count(self):
        # three full periods starting near a peak: six pass-throughs of the
        # mean; half-sample offset keeps samples clear of the zero line
        t = (np.arange(600) + 0.5) / 600.0
        wave = 0.25 * np.cos(2 * np.pi * 3 * t)
        freqs = np.stack([1 / 3 + wave, 1 / 3 - wave, np.full_like(wave, 1 / 3)], axis=1)
        st = stats(Trajectory(times=t, frequencies=freqs))
        assert st.oscillation_counts[0] == 6
        assert st.oscillation_counts[1] == 6
        assert st.fixated is None

    def test_cyclic_reference_run(self, cycle_run):
        # frozen from the deterministic reference run: one boundary excursion,
        # then the flow settles near the loner corner (no further crossings)
        st = stats(cycle_run, window=1.0)
        assert st.fixated is None
        assert st.oscillation_counts == (1, 1, 1)
        assert all(a >= 0.2 for a in st.amplitude)

    def test_window_restriction_never_grows_amplitude(self):
        rng = np.random.default_rng(31)
        walk = rng.dirichlet([2, 2, 2], size=400)
        traj = Trajectory(times=np.arange(400.0), frequencies=walk)
        full = stats(traj, window=1.0).amplitude
        for window in (0.75, 0.5, 0.25, 0.1):
            shrunk = stats(traj, window=window).amplitude
            assert all(s <= f for s, f in zip(shrunk, full))

    def test_abm_fixation_requires_exact_count(self):
        params = PGGParams(M=20, N=5)
        traj = run_abm(Population(20, 0, 0), params,
                       LearningParams(pr=0.0, pe=0.0), 10, seed=0)
        assert stats(traj).fixated == 0

    def test_window_validation(self):
        traj = constant_trajectory((0.5, 0.25, 0.25))
        with pytest.raises(ValueError, match="window"):
            stats(traj, window=0.0)
        with pytest.raises(ValueError, match="window"):
            stats(traj, window=1.5)

    def test_empty_trajectory(self):
        empty = Trajectory(times=np.empty(0), frequencies=np.empty((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            stats(empty)

    def test_means_stay_on_simplex(self, cycle_run):
        st = stats(cycle_run, window=0.3)
        assert abs(sum(st.time_means) - 1.0) <= 1e-9
        assert all(0.0 <= m <= 1.0 for m in st.time_means)


class TestTrajectoryDistance:
    def test_identical(self, cycle_run):
        assert trajectory_distance(cycle_run, cycle_run) == 0.0

    def test_opposite_vertices(self):
        a = constant_trajectory((1.0, 0.0, 0.0))
        b = constant_trajectory((0.0, 1.0, 0.0))
        assert trajectory_distance(a, b) == 2.0

    def test_mismatched_grids(self):
        a = constant_trajectory((1.0, 0.0, 0.0), samples=50)
        b = constant_trajectory((1.0, 0.0, 0.0), samples=60)
        with pytest.raises(ValueError, match="grid"):
            trajectory_distance(a, b)

    def test_abm_runs_share_the_generation_grid(self):
        params, lp = PGGParams(M=30, N=5), LearningParams(pe=0.05)
        a, b = (run_abm(Population(10, 10, 10), params, lp, 40, seed) for seed in (1, 2))
        expected = np.abs(a.frequencies - b.frequencies).sum(axis=1).mean()
        assert trajectory_distance(a, b) == pytest.approx(expected, rel=1e-12)
        assert trajectory_distance(a, b) > 0
        shorter = run_abm(Population(10, 10, 10), params, lp, 39, seed=1)
        with pytest.raises(ValueError, match="grid"):
            trajectory_distance(a, shorter)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(19)
        times = np.arange(30.0)
        trajs = [
            Trajectory(times=times, frequencies=rng.dirichlet([1, 1, 1], size=30))
            for _ in range(3)
        ]
        a, b, c = trajs
        assert trajectory_distance(a, b) == trajectory_distance(b, a)
        assert (
            trajectory_distance(a, c)
            <= trajectory_distance(a, b) + trajectory_distance(b, c) + 1e-12
        )

    def test_mutation_rate_sensitivity(self, cycle_run):
        # a 1e-3 exploration rate visibly reshapes the default trajectory
        sensitive = integrate(START, PGGParams(u=1e-3), MUTATOR, 0.01, 200_000)
        assert trajectory_distance(cycle_run, sensitive) > 0.01
