import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import pggsim.dynamics
from pggsim.dynamics import (
    DynamicsKind,
    DynamicsMode,
    Trajectory,
    _integrate_lockstep,
    integrate,
    integrate_tails,
    mutator_rhs,
    network_scaled_rhs,
    replicator_rhs,
)
from pggsim.errors import IntegrationError
from pggsim.payoffs import PGGParams, SimplexState, expected_profile

from conftest import MUTATOR, START, random_simplex_states

REPLICATOR = DynamicsMode(DynamicsKind.REPLICATOR)
NETWORK = DynamicsMode(DynamicsKind.NETWORK_SCALED_MUTATOR, density=0.5)


def states(count, seed):
    return [SimplexState(*map(float, v)) for v in random_simplex_states(count, seed)]


# each weight 0, tiny or of order 1, so starts fall on, near and off the boundary
_weight = st.one_of(st.just(0.0), st.floats(0.0, 1e-12), st.floats(0.0, 1.0))
_starts = (st.tuples(_weight, _weight, _weight).filter(any)
           .map(lambda w: SimplexState(*(v / sum(w) for v in w))))


@st.composite
def lockstep_runs(draw):
    """One (initial, params, mode) run: N up to 300, c and g up to 1e300, any u, kind and density.

    Half of the draws of N, c, g and u come from a typical range, so that many
    runs last long enough for a last-ulp difference or a late failure to show.
    """
    n = draw(st.one_of(st.integers(2, 8), st.integers(2, 300)))
    params = PGGParams(M=n, N=n, r=draw(st.floats(1.0, n, exclude_min=True, exclude_max=True)),
                       c=draw(st.one_of(st.floats(0.1, 5.0),
                                        st.floats(0.0, 1e300, exclude_min=True))),
                       g=draw(st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e300))),
                       u=draw(st.one_of(st.floats(0.0, 0.05), st.floats(0.0, 1.0))))
    mode = DynamicsMode(draw(st.sampled_from(DynamicsKind)), draw(st.floats(0.0, 1.0)))
    return draw(_starts), params, mode


class TestReplicatorRhs:
    def test_vertices_are_fixed_points(self):
        params = PGGParams()
        for vertex in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert replicator_rhs(SimplexState(*vertex), params) == (0.0, 0.0, 0.0)

    def test_tangency(self):
        params = PGGParams()
        for state in states(10_000, seed=2):
            dx, dy, dz = replicator_rhs(state, params)
            assert abs(dx + dy + dz) <= 1e-14

    def test_against_two_stage_oracle(self):
        # evaluate the expected profile first, then apply the growth law
        params = PGGParams(c=1, r=3, g=0.5, N=5)
        state = SimplexState(0.3, 0.3, 0.4)
        prof = expected_profile(state, params)
        expected = (
            state.x * (prof.P_c - prof.P_bar),
            state.y * (prof.P_d - prof.P_bar),
            state.z * (0.0 - prof.P_bar),
        )
        assert replicator_rhs(state, params) == expected

    def test_against_finite_difference_of_mean_flow(self):
        # third oracle: the selection flow moves mass toward higher payoffs,
        # so along the flow the average payoff cannot decrease (variance law)
        params = PGGParams()
        eps = 1e-6
        # the difference quotient carries ~1e-4 of rounding noise at this step
        for state in states(200, seed=13):
            dx, dy, dz = replicator_rhs(state, params)
            prof = expected_profile(state, params)
            variance = (
                state.x * (prof.P_c - prof.P_bar) ** 2
                + state.y * (prof.P_d - prof.P_bar) ** 2
                + state.z * (0.0 - prof.P_bar) ** 2
            )
            moved = np.array(state.as_tuple()) + eps * np.array((dx, dy, dz))
            moved = SimplexState(*(float(v) for v in moved / moved.sum()))
            # d<P>/dt along the flow equals Var(P) plus the payoff-field drift;
            # check the directional derivative of the frequency-weighted payoff
            # of a FROZEN payoff field, which is exactly the variance
            frozen_before = (
                state.x * prof.P_c + state.y * prof.P_d + state.z * 0.0
            )
            frozen_after = (
                moved.x * prof.P_c + moved.y * prof.P_d + moved.z * 0.0
            )
            fd = (frozen_after - frozen_before) / eps
            assert fd == pytest.approx(variance, abs=1e-3)


class TestMutatorRhs:
    def test_zero_rate_reduces_to_replicator(self):
        params = PGGParams(u=0.0)
        for state in states(200, seed=3):
            assert mutator_rhs(state, params) == replicator_rhs(state, params)

    def test_vertex_mutation_terms(self):
        # selection vanishes at the vertex, leaving -2*mu and +mu flows
        out = mutator_rhs(SimplexState(1, 0, 0), PGGParams(u=0.1))
        assert out == (-0.2, 0.1, 0.1)

    def test_mutation_terms_sum_to_zero(self):
        params = PGGParams(u=0.3)
        for state in states(10_000, seed=6):
            dx, dy, dz = mutator_rhs(state, params)
            rx, ry, rz = replicator_rhs(state, params)
            assert abs((dx - rx) + (dy - ry) + (dz - rz)) <= 1e-14


class TestNetworkScaledRhs:
    def test_density_one_is_mutator(self):
        params = PGGParams(u=0.2)
        for state in states(100, seed=4):
            assert network_scaled_rhs(state, params, 1.0) == mutator_rhs(state, params)

    def test_density_zero_is_replicator(self):
        params = PGGParams(u=0.2)
        for state in states(100, seed=5):
            assert network_scaled_rhs(state, params, 0.0) == replicator_rhs(state, params)

    def test_only_the_product_enters(self):
        half = PGGParams(u=0.2)
        full = PGGParams(u=0.1)
        for state in states(100, seed=7):
            assert network_scaled_rhs(state, half, 0.5) == mutator_rhs(state, full)

    def test_density_domain(self):
        with pytest.raises(ValueError, match="density"):
            network_scaled_rhs(SimplexState(0.3, 0.3, 0.4), PGGParams(), 1.5)
        with pytest.raises(ValueError, match="density"):
            DynamicsMode(DynamicsKind.NETWORK_SCALED_MUTATOR, density=-0.1)


class TestIntegrate:
    def test_rejects_bad_steps_and_dt(self):
        with pytest.raises(ValueError, match="steps"):
            integrate(START, PGGParams(), REPLICATOR, 0.01, 0)
        with pytest.raises(ValueError, match="dt"):
            integrate(START, PGGParams(), REPLICATOR, 0.0, 10)

    def test_vertex_stays_put(self):
        traj = integrate(SimplexState(1, 0, 0), PGGParams(), REPLICATOR, 0.01, 1)
        assert len(traj) == 2
        assert (traj.frequencies[0] == traj.frequencies[1]).all()

    def test_conservation_on_interior_run(self):
        traj = integrate(START, PGGParams(), REPLICATOR, 0.01, 10_000)
        sums = traj.frequencies.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= 1e-8
        assert traj.frequencies.min() >= -1e-12

    def test_times_strictly_increasing(self):
        traj = integrate(START, PGGParams(), MUTATOR, 0.01, 1000)
        assert (np.diff(traj.times) > 0).all()
        assert len(traj) == 1001

    def test_fourth_order_convergence(self):
        params = PGGParams(u=0.01)
        start = SimplexState(0.5, 0.3, 0.2)
        horizon = 2.0

        def end_state(dt):
            traj = integrate(start, params, MUTATOR, dt, int(round(horizon / dt)))
            return traj.frequencies[-1]

        reference = end_state(0.02 / 8)
        err_coarse = np.abs(end_state(0.02) - reference).sum()
        err_fine = np.abs(end_state(0.01) - reference).sum()
        assert 12.0 <= err_coarse / err_fine <= 20.0

    def test_blowup_reports_step_index(self):
        with pytest.raises(IntegrationError) as info:
            integrate(
                SimplexState(0.4, 0.3, 0.3), PGGParams(u=1.0), MUTATOR, 50.0, 10
            )
        assert info.value.step >= 1

    @pytest.mark.parametrize("start, params, dt, message", [
        # r*c is inf, so inf - inf makes every component NaN
        (START, PGGParams(c=1e308), 0.01, "(nan, nan, nan)"),
        # libm pow overflows inside an RK4 stage
        (SimplexState(0.3, 0.3, 0.4), PGGParams(N=7, r=1.5), 100.0, "a stage overflowed"),
    ], ids=["nan", "overflow"])
    def test_nan_or_overflow_leaves_the_simplex(self, start, params, dt, message):
        with pytest.raises(IntegrationError) as info:
            integrate(start, params, MUTATOR, dt, 10)
        assert str(info.value) == f"state left the simplex at step 1: {message}"
        assert info.value.step == 1

    def test_loner_dominance_when_participation_too_costly(self):
        # participation cost at (r-1)*c and above drives everyone out
        traj = integrate(START, PGGParams(g=3.0), MUTATOR, 0.01, 200_000)
        tail = traj.frequencies[-20_000:, 2]
        assert tail.mean() >= 0.95

    def test_replicator_log_ratio_falls_at_every_step(self):
        # d/dt ln(x/y) = P_c - P_d = -c (1 - z**(N-1)) < 0 wherever z < 1, so ln(x/y)
        # is strictly monotone on interior orbits and none can close (criterion 04)
        rng = np.random.default_rng(4)
        for state in states(20, 4):
            n = int(rng.choice([3, 5, 8]))
            params = PGGParams(N=n, r=float(rng.uniform(1.0, n)), g=float(rng.choice([0, 0.5, 2])),
                               c=float(rng.choice([0.5, 1, 3])))
            freqs = integrate(state, params, REPLICATOR, 0.01, 2000).frequencies
            assert (np.diff(np.log(freqs[:, 0] / freqs[:, 1])) < 0).all(), (state, params)

    def test_mutator_log_ratio_rate_adds_the_exploration_term(self):
        # exploration adds u (1 - 3 x_i) to each share, so u (1/x - 1/y) to d/dt ln(x/y)
        rng = np.random.default_rng(9)
        for state in states(2000, 9):
            n = int(rng.choice([3, 5, 8]))
            params = PGGParams(N=n, r=float(rng.uniform(1.0, n)), g=float(rng.choice([0, 0.5, 2])),
                               c=float(rng.choice([0.5, 1, 3])), u=float(10 ** rng.uniform(-12, -1)))
            dx, dy, _ = mutator_rhs(state, params)
            selection = -params.c * (1.0 - state.z ** (n - 1))
            exploration = params.u * (1.0 / state.x - 1.0 / state.y)
            tolerance = 1e-14 * max(abs(selection), abs(exploration))
            assert abs(dx / state.x - dy / state.y - (selection + exploration)) <= tolerance

    def test_mutator_log_ratio_falls_while_x_is_above_its_bound(self):
        # so ln(x/y) falls wherever x > u / (c (1 - z**(N-1))) and rises well below it
        params = PGGParams()
        freqs = integrate(START, params, MUTATOR, 0.01, 20_000).frequencies
        x, _, z = freqs[:-1].T
        change = np.diff(np.log(freqs[:, 0] / freqs[:, 1]))
        bound = params.u / (params.c * (1.0 - z ** (params.N - 1)))
        above, below = x > 1.01 * bound, x < 0.99 * bound
        assert (above.sum(), below.sum()) == (2714, 17_277)
        assert (change[above] < 0).all() and (change[below] > 0).all()
        # the run from START reaches the bound at u = 1e-10: x is about 4e-10 from step 2,719 on
        first = int(np.argmax(change >= 0))
        assert first + 1 == 2719
        assert x[first] == pytest.approx(3.8190e-10, rel=1e-4)
        assert bound[first] == pytest.approx(3.8189e-10, rel=1e-4)


class TestIntegrateLockstep:
    """The lockstep kernel against the scalar `integrate`, sample for sample, bit for bit."""

    # N from 2 to 7, 20 and 60, all three modes, and the rare branches of the step
    RUNS = [
        (START, PGGParams(N=2, r=1.5), REPLICATOR),
        (START, PGGParams(N=3, r=2.0, u=1e-3), MUTATOR),
        (SimplexState(0.3, 0.3, 0.4), PGGParams(N=4, r=3.0, u=1e-2), NETWORK),
        (START, PGGParams(), MUTATOR),
        # z becomes about -6e-14 at step 2: clamped and renormalized
        (SimplexState(0.8, 0.2, 1e-13), PGGParams(N=6, r=5.0, c=20.0, g=0.0), REPLICATOR),
        # active = 1 - z is below 1e-12: no game takes place
        (SimplexState(0.0, 0.0, 1.0), PGGParams(N=5), REPLICATOR),
        (SimplexState(0.0, 0.0, 1.0), PGGParams(N=7, r=4.0, u=1e-12), NETWORK),
        # 1 - 0.9 < 0.1 in floats, so x / (1 - z) exceeds 1 and is clamped to 1
        (SimplexState(0.1, 0.0, 0.9), PGGParams(N=7, r=2.0), REPLICATOR),
        (SimplexState(0.1, 0.0, 0.9), PGGParams(N=3, r=2.5, u=0.2), MUTATOR),
        # high exponents of z**(N-1), which libm pow raises as the scalar power does
        (SimplexState(0.2, 0.3, 0.5), PGGParams(N=20, r=10.0), MUTATOR),
        (SimplexState(0.2, 0.3, 0.5), PGGParams(N=60, r=30.0, u=1e-3), NETWORK),
    ]

    @pytest.mark.parametrize("keep", [1, 5, 41])
    def test_kept_samples_equal_scalar_integrate(self, monkeypatch, keep):
        assert 1.0 - 0.9 < 0.1
        clamped = []
        real = pggsim.dynamics._clamp
        monkeypatch.setattr(pggsim.dynamics, "_clamp", lambda *a: clamped.append(a) or real(*a))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = _integrate_lockstep(self.RUNS, 0.1, 40, keep)
        assert caught == []
        assert [step for step, *_ in clamped] == [2]
        assert len(results) == len(self.RUNS)
        for run, got in zip(self.RUNS, results):
            want = integrate(*run, 0.1, 40)
            assert np.array_equal(got.times, want.times[-keep:])
            assert np.array_equal(got.frequencies, want.frequencies[-keep:])
            assert got.frequencies.shape == (keep, 3) and got.frequencies.flags.c_contiguous

    # no shrink phase: shrinking a failing group of 32 runs takes many minutes
    @settings(max_examples=10, derandomize=True, database=None, deadline=None,
              phases=(Phase.explicit, Phase.generate))
    @given(st.lists(lockstep_runs(), min_size=32, max_size=32),
           st.one_of(st.floats(0.0, 0.5, exclude_min=True), st.floats(0.0, 2.0, exclude_min=True)),
           st.integers(1, 50).flatmap(lambda steps: st.tuples(st.just(steps),
                                                              st.integers(1, steps + 1))))
    def test_random_groups_equal_scalar_integrate(self, runs, dt, steps_keep):
        steps, keep = steps_keep
        results = _integrate_lockstep(runs, dt, steps, keep)
        for run, got in zip(runs, results):
            try:
                want = integrate(*run, dt, steps)
            except IntegrationError as exc:
                assert isinstance(got, IntegrationError)
                assert (str(got), got.step) == (str(exc), exc.step)
            else:
                assert isinstance(got, Trajectory)
                assert got.times.tobytes() == want.times[-keep:].tobytes()
                assert got.frequencies.tobytes() == want.frequencies[-keep:].tobytes()

    def test_failed_runs_give_the_scalar_error(self):
        # at dt=2 the first two runs leave the simplex at steps 2 and 1; in the
        # fourth, r*c is inf, so inf - inf makes the state NaN at step 1; in the
        # last, libm pow overflows at step 1
        runs = [(START, PGGParams(r=1.5, g=3.0), MUTATOR),
                (START, PGGParams(r=1.5, g=3.0, u=1e-2), MUTATOR),
                (START, PGGParams(r=1.5, g=0.5), MUTATOR),
                (START, PGGParams(c=1e308), MUTATOR),
                (START, PGGParams(N=60, r=30.0, c=1e10), MUTATOR)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = _integrate_lockstep(runs, 2.0, 30, 4)
        assert caught == []
        for run, got in zip(runs[:2] + runs[3:], results[:2] + results[3:]):
            with pytest.raises(IntegrationError) as want:
                integrate(*run, 2.0, 30)
            assert isinstance(got, IntegrationError)
            assert (str(got), got.step) == (str(want.value), want.value.step)
        assert [err.step for err in results[:2]] == [2, 1]
        assert str(results[3]) == "state left the simplex at step 1: (nan, nan, nan)"
        assert str(results[4]) == "state left the simplex at step 1: a stage overflowed"
        assert np.array_equal(results[2].frequencies, integrate(*runs[2], 2.0, 30).frequencies[-4:])

    def test_stepping_stops_after_the_last_failure(self, monkeypatch):
        # 32 runs at dt=2: with u=1e-10 each leaves the simplex at step 2, with u=1e-2 at step 1
        runs = [(START, PGGParams(r=1.5, g=3.0, u=u), MUTATOR) for u in (1e-10, 1e-2)] * 16
        stepped = []
        real = pggsim.dynamics._rk4

        def counted(flow, dt):
            step = real(flow, dt)
            return lambda *state: stepped.append(1) or step(*state)

        monkeypatch.setattr(pggsim.dynamics, "_rk4", counted)
        results = integrate_tails(runs, 2.0, 30, 4)
        assert [err.step for err in results] == [2, 1] * 16
        assert len(stepped) == 2

    # integrate_tails checks the arguments of both paths, lockstep for 36 runs
    def test_rejects_bad_arguments(self):
        for runs in (self.RUNS, self.RUNS * 4):
            for dt, steps, keep, match in [(0.0, 10, 1, "dt"), (0.1, 0, 1, "steps"),
                                           (0.1, 10, 0, "keep"), (0.1, 10, 12, "keep")]:
                with pytest.raises(ValueError, match=match):
                    integrate_tails(runs, dt, steps, keep)


class TestIntegrateTails:
    # at dt=2 the points with r=1.5 and g=3 leave the simplex; no libm pow overflows
    RUNS = [(START, PGGParams(r=r, g=g, u=u), MUTATOR)
            for r in (1.5, 2.5, 3.5, 4.5) for g in (0.0, 0.5, 1.0, 3.0) for u in (1e-10, 1e-2)]

    def test_lockstep_threshold_changes_no_result(self, monkeypatch):
        calls = []
        real = pggsim.dynamics._integrate_lockstep
        monkeypatch.setattr(pggsim.dynamics, "_integrate_lockstep",
                            lambda *a: calls.append(len(a[0])) or real(*a))
        scalar = integrate_tails(self.RUNS[:31], 2.0, 30, 4)
        assert calls == []
        lockstep = integrate_tails(self.RUNS, 2.0, 30, 4)
        assert calls == [32]
        assert [type(got) for got in scalar[:8]] == [Trajectory] * 6 + [IntegrationError] * 2
        for want, got in zip(scalar, lockstep):
            if isinstance(want, IntegrationError):
                assert type(got) is IntegrationError
                assert (str(got), got.step) == (str(want), want.step)
            else:
                assert np.array_equal(got.times, want.times)
                assert np.array_equal(got.frequencies, want.frequencies)
                assert got.frequencies.shape == (4, 3) and got.frequencies.flags.c_contiguous
