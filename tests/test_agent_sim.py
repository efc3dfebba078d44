import contextlib
import dataclasses
import functools
import gc
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pggsim import agent_sim
from pggsim.agent_sim import (
    LearningParams,
    Population,
    fermi_probability,
    gillespie_select,
    run_abm,
)
from pggsim.analysis import stats
from pggsim.dynamics import SimplexState, mutator_rhs
from pggsim.payoffs import PGGParams, realized_payoffs

from conftest import absorbed_since

finite_payoffs = st.floats(-50, 50)


class TestFermiProbability:
    def test_equal_payoffs(self):
        assert fermi_probability(1.3, 1.3, 2.0) == 0.5

    def test_zero_selection_intensity(self):
        assert fermi_probability(-4.0, 9.0, 0.0) == 0.5
        # a payoff gap that overflows to inf
        assert fermi_probability(-1e308, 1e308, 0.0) == 0.5

    def test_logistic_value(self):
        assert fermi_probability(0.0, 2.0, 1.0) == 1.0 / (1.0 + math.exp(-2.0))

    def test_saturation(self):
        assert fermi_probability(0.0, 1e6, 1.0) == 1.0
        assert fermi_probability(1e6, 0.0, 1.0) == 0.0

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            fermi_probability(0.0, 1.0, -1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match=f"^beta must be finite, got {beta}$"):
            fermi_probability(1.0, 1.0, beta)

    @given(finite_payoffs, finite_payoffs, st.floats(0, 20))
    def test_complementarity(self, a, b, beta):
        total = fermi_probability(a, b, beta) + fermi_probability(b, a, beta)
        assert abs(total - 1.0) <= 1e-12

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=10), st.floats(0.01, 5))
    def test_monotone_in_payoff_gap(self, deltas, beta):
        probs = [fermi_probability(0.0, d, beta) for d in sorted(deltas)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))


class TestGillespieSelect:
    def test_cumulative_brackets(self):
        assert gillespie_select([1, 1, 2], 0.7) == 2
        assert gillespie_select([1, 1, 2], 0.1) == 0

    def test_boundary_is_right_inclusive(self):
        assert gillespie_select([1, 1, 2], 0.25) == 0
        assert gillespie_select([1, 1, 2], 0.5) == 1

    def test_zero_propensity_bins_never_fire(self):
        for z1 in (0.01, 0.4, 0.99):
            assert gillespie_select([0.0, 1.0, 0.0], z1) == 1

    def test_all_zero_is_no_event(self):
        with pytest.raises(ValueError, match="all propensities are zero"):
            gillespie_select([0.0, 0.0], 0.5)

    def test_negative_propensity_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gillespie_select([1.0, -0.5], 0.5)

    @pytest.mark.parametrize("props, z1", [
        ([math.nan, 1.0], 0.5),
        ([math.inf, 1.0], 0.5),
        ([1.0, math.inf, 1.0], 0.5),
        ([1e308, 1e308], 0.25),
    ], ids=["nan", "inf", "inf-inside", "sum-overflows"])
    def test_non_finite_propensities_rejected(self, props, z1):
        with pytest.raises(ValueError, match="finite"):
            gillespie_select(props, z1)

    def test_draw_domain(self):
        with pytest.raises(ValueError, match="z1"):
            gillespie_select([1.0, 1.0], 0.0)

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(23)
        props = [1.0, 1.0, 2.0]
        draws = rng.random(20_000)
        picks = np.array([gillespie_select(props, float(z)) for z in draws])
        for idx, share in enumerate((0.25, 0.25, 0.5)):
            freq = (picks == idx).mean()
            sigma = math.sqrt(share * (1 - share) / len(draws))
            assert abs(freq - share) <= 3 * sigma


def final_counts(traj, m: int) -> tuple[int, ...]:
    return tuple(round(f * m) for f in traj.frequencies[-1])


@contextlib.contextmanager
def sampler(budget=None, batch=None, chunk=None, visit=None):
    """Run with the module's law budget, stretch batch, uniform chunk and admitting visit
    replaced, each unless None."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("_LAW_BUDGET", budget), ("_BATCH_STRETCHES", batch),
                            ("_CHUNK_EVENTS", chunk), ("_LAW_VISIT", visit)):
            if value is not None:
                mp.setattr(agent_sim, name, value)
        yield


@contextlib.contextmanager
def counting_builds(game, method="masses"):
    """Record the arguments of each call of the game's `method` while the block runs: by
    default the states whose laws runs of this game build, as law also serves lookups."""
    calls = []
    wrapped = getattr(game, method)
    setattr(game, method, lambda *args: calls.append(args) or wrapped(*args))
    try:
        yield calls
    finally:
        # the wrapper holds the game: drop it, or the game outlives its cache
        delattr(game, method)


# Sampling paths by name. A visit of 1 admits each state on its first visit,
# so every state gets a law; a budget of 0 runs every event one at a time,
# and at the exact tests' settings a budget of 2 mixes that with the law
# path. So does a visit of 2: within one generation of the exact tests
# about a fifth of the runs come back to a state and admit it. A batch of 1
# or 2 draws the held kept outcomes within the generation that holds them
# and, over several generations, across generation ends. A chunk of 1
# event's worth of uniforms (N + 3 = 6 at N = 3) refills the uniform stream
# within events and stretches; at the default chunk one generation of the
# exact tests reads no more than one chunk.
PATHS = {
    "law": {"visit": 1},
    "per-event": {"budget": 0},
    "mixed": {"budget": 2, "visit": 1},
    "mixed-chunk1": {"budget": 2, "chunk": 1, "visit": 1},
    "law-batch1": {"batch": 1, "visit": 1},
    "law-batch2": {"batch": 2, "visit": 1},
    "visit2": {"visit": 2},
}


class TestPopulation:
    def test_from_counts_and_back(self):
        pop = Population(3, 4, 5)
        assert pop.size == 12
        assert pop.counts() == (3, 4, 5)

    def test_from_fractions_rounds(self):
        pop = Population.from_fractions(100, 0.9, 0.05, 0.05)
        assert pop.counts() == (90, 5, 5)

    @pytest.mark.parametrize("counts, message", [
        ((-1, 1, 1), "nonnegative"),
        ((0, 0, 0), "empty"),
    ])
    def test_invalid_counts_rejected(self, counts, message):
        with pytest.raises(ValueError, match=message):
            Population(*counts)

    def test_fraction_sum_checked(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Population.from_fractions(10, 0.5, 0.4, 0.4)


class TestPlayRound:
    """The round each imitation event plays, seen through run_abm's mean-payoff column."""

    def test_all_loner_population(self):
        params = PGGParams(M=20, N=5)
        lp = LearningParams(beta=1.0, pr=1.0, pe=0.0)
        traj = run_abm(Population(0, 0, 20), params, lp, 3, seed=0)
        assert (traj.mean_payoffs == 0.0).all()
        assert final_counts(traj, 20) == (0, 0, 20)

    def test_all_cooperator_population(self):
        lp = LearningParams(beta=1.0, pr=1.0, pe=0.0)
        for g, payoff in ((0.0, 2.0), (0.5, 1.5)):
            params = PGGParams(M=20, N=5, c=1, r=3, g=g)
            traj = run_abm(Population(20, 0, 0), params, lp, 3, seed=0)
            assert (traj.mean_payoffs[1:] == payoff).all()

    @pytest.mark.parametrize("path", ["law-batch1", "law-batch2", "per-event"])
    def test_monomorphic_rounds_on_each_path(self, path):
        # on the law path each generation is one stretch, held until a draw
        # within the generation (batch 1) or after its end (batch 2)
        with sampler(**PATHS[path]):
            self.test_all_loner_population()
            self.test_all_cooperator_population()

    def test_population_size_checked(self):
        with pytest.raises(ValueError, match="params.M"):
            run_abm(Population(2, 2, 2), PGGParams(M=10, N=5), LearningParams(), 1, seed=0)


class TestStepGeneration:
    """One generation of M update events, run as run_abm(pop, params, lp, 1, seed)."""

    def test_no_update_channels(self):
        params = PGGParams(M=30, N=5)
        lp = LearningParams(beta=1.0, pr=0.0, pe=0.0)
        for seed in range(5):
            traj = run_abm(Population(10, 10, 10), params, lp, 1, seed=seed)
            assert final_counts(traj, 30) == (10, 10, 10)

    def test_population_size_conserved(self):
        params = PGGParams(M=60, N=5)
        lp = LearningParams(beta=1.0, pr=1.0, pe=0.05)
        for seed in range(20):
            traj = run_abm(Population(20, 20, 20), params, lp, 1, seed=seed)
            counts = traj.frequencies[-1] * 60
            assert np.abs(counts - np.round(counts)).max() <= 1e-9
            assert sum(final_counts(traj, 60)) == 60

    def test_pure_exploration_uniformizes(self):
        # exploration-only updates walk the counts to 1/3 each; after 200
        # generations every count sits within 3 sd of M/3 (sd = sqrt(M*2/9))
        params = PGGParams(M=99, N=5)
        lp = LearningParams(beta=1.0, pr=0.0, pe=1.0)
        traj = run_abm(Population(99, 0, 0), params, lp, 200, seed=3)
        band = 3 * math.sqrt(99 * (1 / 3) * (2 / 3))
        assert all(abs(count - 33) <= band for count in final_counts(traj, 99))

    def test_exploration_matches_mutation_flow_to_first_order(self):
        # one generation of exploration-only updates changes the expected
        # count of strategy i by M * (mu*(1-x_i) - 2*mu*x_i) with mu = pe/2
        params = PGGParams(M=99, N=5)
        pe = 0.01
        lp = LearningParams(beta=1.0, pr=0.0, pe=pe)
        start = (60, 30, 9)
        mu = pe / 2.0
        predicted = np.array([
            params.M * (mu * (1 - n / params.M) - 2 * mu * n / params.M)
            for n in start
        ])
        trials = 8000
        deltas = np.empty((trials, 3))
        for t in range(trials):
            traj = run_abm(Population(*start), params, lp, 1, seed=t)
            deltas[t] = np.array(final_counts(traj, params.M)) - np.array(start)
        stderr = deltas.std(axis=0, ddof=1) / math.sqrt(trials)
        assert (np.abs(deltas.mean(axis=0) - predicted) <= 3 * stderr).all()


def one_event_outcomes(params: PGGParams, lp: LearningParams):
    """Exact law of one update event, outcome by outcome, on the states (n_c, n_d).

    Maps each state to a list of (next state, probability, summed round
    payoff, agents in the round). Exploration moves a uniform focal to one
    of its two other strategies; a skip leaves the state alone; imitation
    picks a focal, a distinct role and a multivariate-hypergeometric rest of
    the group, and the focal adopts with fermi_probability of the round's
    realized_payoffs.
    """
    m, n = params.M, params.N
    groups = math.comb(m - 2, n - 2)
    outcomes = {}
    for a, b in [(a, b) for a in range(m + 1) for b in range(m + 1 - a)]:
        counts = (a, b, m - a - b)
        out = outcomes[a, b] = [((a, b), (1 - lp.pe) * (1 - lp.pr), 0.0, 0)]

        def moved(focal, target):
            nxt = list(counts)
            nxt[focal] -= 1
            nxt[target] += 1
            return nxt[0], nxt[1]

        for focal in range(3):
            p_focal = counts[focal] / m
            if p_focal == 0:
                continue
            for target in range(3):
                if target != focal:
                    out.append((moved(focal, target), lp.pe * p_focal / 2, 0.0, 0))
            for role in range(3):
                rest = list(counts)
                rest[focal] -= 1
                p_pair = (1 - lp.pe) * lp.pr * p_focal * rest[role] / (m - 1)
                if p_pair == 0:
                    continue
                rest[role] -= 1
                for kc in range(n - 1):
                    for kd in range(n - 1 - kc):
                        ways = (math.comb(rest[0], kc) * math.comb(rest[1], kd)
                                * math.comb(rest[2], n - 2 - kc - kd))
                        p = p_pair * ways / groups
                        if p == 0:
                            continue
                        jc = kc + (focal == 0) + (role == 0)
                        jd = kd + (focal == 1) + (role == 1)
                        pi = (*realized_payoffs(jc, jd, params), 0.0)
                        round_pay = jc * pi[0] + jd * pi[1]
                        adopt = 0.0
                        if role != focal:
                            adopt = fermi_probability(pi[focal], pi[role], lp.beta)
                            out.append((moved(focal, role), p * adopt, round_pay, n))
                        out.append(((a, b), p * (1 - adopt), round_pay, n))
    return outcomes


def one_event_law(params: PGGParams, lp: LearningParams):
    """Exact transition matrix of one update event on the states (n_c, n_d)."""
    outcomes = one_event_outcomes(params, lp)
    states = list(outcomes)
    index = {state: i for i, state in enumerate(states)}
    law = np.zeros((len(states), len(states)))
    for state, out in outcomes.items():
        for nxt, p, _, _ in out:
            law[index[state], index[nxt]] += p
    return states, index, law


@functools.cache
def mean_payoff_moments(params: PGGParams, lp: LearningParams, start, generation=1):
    """Exact mean and variance of the mean_payoff of generation `generation` from start.

    A dynamic program over the M events carries the joint law of (state,
    summed round payoff, agents in the rounds); mean_payoff is the ratio of
    the last two, or 0 when no round was played. It starts from the law of
    the state after generation - 1 generations, the start row of the
    one-event matrix raised to the power M * (generation - 1), so each
    state's one-generation moments are weighted by that row.
    """
    states, index, law = one_event_law(params, lp)
    weights = np.linalg.matrix_power(law, params.M * (generation - 1))[index[start]]
    outcomes = one_event_outcomes(params, lp)
    merged = {}
    for state, out in outcomes.items():
        law = {}
        for nxt, p, round_pay, played in out:
            law[nxt, round_pay, played] = law.get((nxt, round_pay, played), 0.0) + p
        merged[state] = list(law.items())
    dist = {(state, 0.0, 0): float(w) for state, w in zip(states, weights) if w > 0}
    for _ in range(params.M):
        step = {}
        for (state, pay_sum, played), p in dist.items():
            for (nxt, round_pay, n), q in merged[state]:
                key = (nxt, round(pay_sum + round_pay, 9), played + n)
                step[key] = step.get(key, 0.0) + p * q
        dist = step
    mean = second = 0.0
    for (_, pay_sum, played), p in dist.items():
        value = pay_sum / played if played else 0.0
        mean += p * value
        second += p * value * value
    return mean, second - mean * mean


def chi2_survival(x: float, df: int) -> float:
    """P(X >= x) for a chi-square variable, from the regularized incomplete gamma Q(df/2, x/2).

    Below x/2 = df/2 + 1 it is 1 minus the lower gamma's series; above, where
    that difference would lose every digit, the upper gamma's continued
    fraction, evaluated by the modified Lentz method.
    """
    a, h = df / 2, x / 2
    scale = math.exp(a * math.log(h) - h - math.lgamma(a))
    if h < a + 1:
        term = total = 1.0 / a
        k = 0
        while term > 1e-17 * total:
            k += 1
            term *= h / (a + k)
            total += term
        return 1.0 - total * scale
    b = h + 1 - a
    c, d = math.inf, 1 / b
    fraction = d
    k = 0
    delta = 0.0
    while abs(delta - 1.0) > 1e-15:
        k += 1
        step = -k * (k - a)
        b += 2
        d = 1 / (step * d + b)
        c = b + step / c
        delta = c * d
        fraction *= delta
    return fraction * scale


# The exact one-generation tests: M events from (2, 2, 2) at these settings.
# All 28 states fit in the default law budget, so the law path gives every
# state a law.
EXACT_PARAMS = PGGParams(M=6, N=3, r=2.5)
EXACT_LP = LearningParams(beta=2.0, pr=0.7, pe=0.2)


def one_generation(params, lp, start, runs, generations=1):
    """Final (n_c, n_d) and mean_payoffs of `generations` generations, seeds 0 .. runs - 1.

    The mean_payoffs of generation g are column g - 1.
    """
    trajs = [run_abm(Population(*start), params, lp, generations, seed) for seed in range(runs)]
    finals = [final_counts(traj, params.M)[:2] for traj in trajs]
    return finals, np.array([traj.mean_payoffs[1:] for traj in trajs])


@functools.cache
def exact_sample(path, generations=1, runs=20_000):
    with sampler(**PATHS[path]):
        return one_generation(EXACT_PARAMS, EXACT_LP, (2, 2, 2), runs, generations)


def assert_matches_exact_law(params, lp, start, finals, generations=1):
    """Chi-square test of final states against the exact law of M * generations events from start.

    Bins that expect fewer than 4 counts are pooled into one.
    """
    states, index, law = one_event_law(params, lp)
    expected = np.linalg.matrix_power(law, params.M * generations)[index[start]] * len(finals)
    observed = np.zeros(len(states))
    for state in finals:
        observed[index[state]] += 1
    small = expected < 4
    if small.any():
        assert expected[small].sum() > 0 or observed[small].sum() == 0
        expected = np.append(expected[~small], expected[small].sum())
        observed = np.append(observed[~small], observed[small].sum())
        if expected[-1] == 0:
            expected, observed = expected[:-1], observed[:-1]
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    p_value = chi2_survival(chi2, len(expected) - 1)
    assert p_value > 1e-3, f"chi2={chi2:.1f} over {len(expected)} bins, p={p_value:.2g}"


def assert_mean_payoff_matches(params, lp, start, payoffs, generation=1):
    """The mean of generation's mean_payoff lies within 4 standard errors of the exact mean."""
    mean, var = mean_payoff_moments(params, lp, start, generation)
    assert abs(payoffs.mean() - mean) <= 4 * math.sqrt(var / len(payoffs)), (
        f"sample {payoffs.mean():.6f}, exact {mean:.6f} +- {math.sqrt(var / len(payoffs)):.2g}"
    )


def assert_payoff_variance_matches(params, lp, start, payoffs, generation):
    """The variance of generation's mean_payoff lies within 4 standard errors of the exact one.

    The standard error sqrt((m4 - s^4) / n) takes the fourth central moment
    m4 from the sample.
    """
    _, var = mean_payoff_moments(params, lp, start, generation)
    dev = payoffs - payoffs.mean()
    sample = float(dev.var(ddof=1))
    se = math.sqrt(((dev ** 4).mean() - sample ** 2) / len(payoffs))
    assert abs(sample - var) <= 4 * se, f"sample {sample:.6f}, exact {var:.6f} +- {se:.2g}"


class TestExactOneGenerationLaw:
    def test_chi2_survival_reference_values(self):
        # closed form for two degrees of freedom, and the median of one
        assert chi2_survival(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-12)
        assert chi2_survival(0.454936423119572, 1) == pytest.approx(0.5, rel=1e-9)
        # closed forms for even degrees of freedom, far below 1 - P's last digit
        assert chi2_survival(200.0, 2) == pytest.approx(math.exp(-100), rel=1e-12)
        assert chi2_survival(60.0, 4) == pytest.approx(31 * math.exp(-30), rel=1e-12)
        # and on both sides of x = df + 2, where the series hands over
        for x in (27.9, 28.1):
            want = math.exp(-x / 2) * sum((x / 2) ** k / math.factorial(k) for k in range(13))
            assert chi2_survival(x, 26) == pytest.approx(want, rel=1e-12)

    def test_law_rows_are_distributions(self):
        _, _, law = one_event_law(PGGParams(M=6, N=3, r=2.5), LearningParams(2.0, 0.7, 0.2))
        assert (law >= 0).all()
        assert np.abs(law.sum(axis=1) - 1.0).max() <= 1e-12

    def test_one_generation_matches_exact_law(self):
        # M events from (2, 2, 2), against 20,000 independent seeds
        states, index, law = one_event_law(EXACT_PARAMS, EXACT_LP)
        expected = np.linalg.matrix_power(law, EXACT_PARAMS.M)[index[(2, 2)]] * 20_000
        # all 28 states are reachable; the rarest expects about 4.5 counts,
        # few enough small bins for the chi-square approximation
        assert expected.min() > 4
        assert_matches_exact_law(EXACT_PARAMS, EXACT_LP, (2, 2), exact_sample("law")[0])

    @pytest.mark.parametrize("path", [p for p in PATHS if p != "law"])
    def test_one_generation_matches_exact_law_on_each_path(self, path):
        assert_matches_exact_law(EXACT_PARAMS, EXACT_LP, (2, 2), exact_sample(path)[0])

    @pytest.mark.parametrize("path", list(PATHS))
    def test_mean_payoff_matches_exact_law(self, path):
        assert_mean_payoff_matches(EXACT_PARAMS, EXACT_LP, (2, 2), exact_sample(path)[1][:, 0])

    def test_mean_payoff_of_a_slow_game_matches_exact_law(self):
        # few events change the state, so most generations end inside a
        # stretch, whose kept outcomes the mean payoff must still count
        lp = LearningParams(beta=2.0, pr=0.2, pe=0.02)
        with sampler(**PATHS["law"]):
            payoffs = one_generation(EXACT_PARAMS, lp, (2, 2, 2), 5000)[1][:, 0]
        assert_mean_payoff_matches(EXACT_PARAMS, lp, (2, 2), payoffs)


THREE_GENERATION_PATHS = ["law-batch1", "law-batch2", "mixed-chunk1", "per-event"]


class TestExactThreeGenerationLaw:
    """Three generations from (2, 2, 2) against the exact law of 3 M events.

    On these paths stretches end at generation ends, and their kept outcomes
    are drawn within the generation (batch 1), across generation ends (batch
    2) or between refills of the uniform stream (chunk 1); the per-event path
    ends every generation by its own events.
    """

    @pytest.mark.parametrize("path", THREE_GENERATION_PATHS)
    def test_final_counts_match_exact_law(self, path):
        finals = exact_sample(path, generations=3, runs=10_000)[0]
        assert_matches_exact_law(EXACT_PARAMS, EXACT_LP, (2, 2), finals, generations=3)

    @pytest.mark.parametrize("path", THREE_GENERATION_PATHS)
    def test_third_mean_payoff_matches_exact_law(self, path):
        payoffs = exact_sample(path, generations=3, runs=10_000)[1][:, 2]
        assert_mean_payoff_matches(EXACT_PARAMS, EXACT_LP, (2, 2), payoffs, generation=3)
        assert_payoff_variance_matches(EXACT_PARAMS, EXACT_LP, (2, 2), payoffs, generation=3)

    @pytest.mark.parametrize("path", THREE_GENERATION_PATHS)
    def test_each_generations_mean_payoff_matches_exact_law(self, path):
        # a stretch's kept outcomes count in the generation that holds them
        payoffs = exact_sample(path, generations=3, runs=10_000)[1]
        for g in (1, 2, 3):
            assert_mean_payoff_matches(EXACT_PARAMS, EXACT_LP, (2, 2), payoffs[:, g - 1], g)

    def test_final_counts_with_fixation_match_exact_law(self):
        # without exploration the three monomorphic states absorb, and a state
        # with no move left is one stretch to the end of every generation
        lp = LearningParams(beta=EXACT_LP.beta, pr=EXACT_LP.pr, pe=0.0)
        _, index, law = one_event_law(EXACT_PARAMS, lp)
        reach = np.linalg.matrix_power(law, 3 * EXACT_PARAMS.M)[index[2, 2]]
        assert sum(reach[index[state]] for state in ((6, 0), (0, 6), (0, 0))) > 0.01
        with sampler(**PATHS["law"]):
            finals = one_generation(EXACT_PARAMS, lp, (2, 2, 2), 10_000, generations=3)[0]
        assert_matches_exact_law(EXACT_PARAMS, lp, (2, 2), finals, generations=3)


class TestStateLaw:
    """run_abm's per-state law against the oracle one_event_outcomes."""

    @pytest.mark.parametrize("params, lp", [
        (PGGParams(M=6, N=3, r=2.5), LearningParams(beta=2.0, pr=0.7, pe=0.2)),
        (PGGParams(M=20, N=4, r=2.0), LearningParams(beta=2.0, pr=0.7, pe=0.05)),
        (PGGParams(M=6, N=2, r=1.5), LearningParams(beta=2.0, pr=0.7, pe=0.2)),
        (PGGParams(M=3, N=3, r=2.5), LearningParams(beta=2.0, pr=0.7, pe=0.2)),
        (PGGParams(M=20, N=6, r=3.0), LearningParams(beta=2.0, pr=0.7, pe=0.05)),
        (PGGParams(M=12, N=12, r=6.0), LearningParams(beta=2.0, pr=0.7, pe=0.0)),
    ], ids=["M6-N3", "M20-N4", "N2", "M-is-N", "M20-N6", "M12-N12"])
    def test_matches_oracle(self, params, lp):
        laws = agent_sim._Laws(params, lp)
        move_from, move_to, move_pay, move_played = map(np.array, zip(*laws.moves))
        for state, outcomes in one_event_outcomes(params, lp).items():
            expected = {}
            for nxt, p, _, _ in outcomes:
                expected[nxt] = expected.get(nxt, 0.0) + p
            stay, change = laws.masses(*state)
            got = {state: stay.sum()}
            for mass, focal, to in zip(change, move_from, move_to):
                counts = [state[0], state[1], params.M - sum(state)]
                counts[focal] -= 1
                counts[to] += 1
                if mass:
                    got[counts[0], counts[1]] = got.get((counts[0], counts[1]), 0.0) + mass
            for nxt in expected.keys() | got.keys():
                assert abs(got.get(nxt, 0.0) - expected.get(nxt, 0.0)) <= 1e-12, (state, nxt)
            stay_played = np.full(len(stay), params.N)
            stay_played[0] = 0
            for column, got_value in ((2, stay @ laws.stay_pay + change @ move_pay),
                                      (3, stay @ stay_played + change @ move_played)):
                want = sum(outcome[1] * outcome[column] for outcome in outcomes)
                assert abs(got_value - want) <= 1e-12, (state, column)

    def test_tables_hold_only_the_round_cells(self):
        n = 6
        game = agent_sim._Laws(PGGParams(M=20, N=n, r=2.0), LearningParams())
        assert game.budget > 0
        for table in [game.pay] + game.adopt:
            assert [len(row) for row in table] == [n + 1 - jc for jc in range(n + 1)]
        # the pairs whose focal and role share a strategy share one table of zeros
        assert game.adopt[0] is game.adopt[4] is game.adopt[8]
        assert not any(any(row) for row in game.adopt[0])
        assert len({id(table) for table in game.adopt}) == 7


class TestSharedLaws:
    """Runs of one game share its _Laws; which path a run takes stays its own."""

    GAMES = {
        "M6": (EXACT_PARAMS, EXACT_LP, (2, 2, 2)),
        "M20": (PGGParams(M=20, N=4, r=2.0), LearningParams(beta=2.0, pr=0.7, pe=0.05), (6, 7, 7)),
    }
    # (law budget, admitting visit, game) per run: the games alternate, and
    # each budget or visit change comes while the game is still cached from
    # the run before
    STEPS = [(None, None, "M6"), (None, None, "M20"), (0, None, "M20"), (0, None, "M6"),
             (2, 1, "M6"), (2, 2, "M20"), (None, 1, "M20"), (None, 2, "M20"),
             (None, 1, "M6"), (None, None, "M6")]

    def run(self, name, budget, seed, visit=None):
        params, lp, start = self.GAMES[name]
        with sampler(budget=budget, visit=visit):
            traj = run_abm(Population(*start), params, lp, 30, seed)
        return traj.frequencies.tobytes() + traj.mean_payoffs.tobytes()

    def test_output_does_not_depend_on_earlier_runs(self):
        warm = [self.run(name, budget, seed, visit)
                for seed, (budget, visit, name) in enumerate(self.STEPS)]
        fresh = []
        for seed, (budget, visit, name) in enumerate(self.STEPS):
            agent_sim._Laws.cache_clear()
            fresh.append(self.run(name, budget, seed, visit))
        assert warm == fresh

    @pytest.mark.parametrize("visit", [1, 2, 4])
    def test_law_is_built_on_the_admitting_visit(self, visit):
        # with no channel the counts never change, so each generation is one
        # visit to the starting state: its law comes on generation `visit`,
        # and what earlier runs counted does not carry over
        params, lp = PGGParams(M=30, N=5), LearningParams(1.0, 0.0, 0.0)
        agent_sim._Laws.cache_clear()
        game = agent_sim._Laws(params, lp)
        with sampler(visit=visit), counting_builds(game) as built:
            for _ in range(2):
                run_abm(Population(12, 10, 8), params, lp, visit - 1, seed=4)
            assert built == []
            run_abm(Population(12, 10, 8), params, lp, visit, seed=4)
        assert built == [(12, 10)]

    def test_runs_of_one_game_reuse_its_laws(self):
        params, lp, _ = self.GAMES["M20"]
        agent_sim._Laws.cache_clear()
        # a game first built under a law budget of 0 still keeps the laws it builds later
        self.run("M20", 0, seed=1)
        game = agent_sim._Laws(params, lp)
        with counting_builds(game) as built:
            self.run("M20", None, seed=1)
        assert built
        with counting_builds(game) as built:
            self.run("M20", None, seed=1)
        assert agent_sim._Laws(params, lp) is game
        assert built == []

    @staticmethod
    def keys(game, states):
        return {n_c * (game.m + 1) + n_d for n_c, n_d in states}

    def test_store_keeps_every_law_it_has_rows_for(self):
        params, lp, _ = self.GAMES["M20"]
        agent_sim._Laws.cache_clear()
        game = agent_sim._Laws(params, lp)
        with counting_builds(game) as built:
            warm = [self.run("M20", 8, seed) for seed in range(3)]
        stored = self.keys(game, built)
        assert len(stored) == len(built) > 8
        assert game.laws.keys() == stored
        # a fourth run looks up the stored states it admits and builds only the others
        with counting_builds(game, "law") as admitted, counting_builds(game) as built:
            warm.append(self.run("M20", 8, 3))
        admitted = {key for key, in admitted}
        assert admitted & stored
        assert self.keys(game, built) == admitted - stored
        assert len(game.laws) <= game.budget
        fresh = []
        for seed in range(4):
            agent_sim._Laws.cache_clear()
            fresh.append(self.run("M20", 8, seed))
        assert warm == fresh

    def test_run_that_does_not_fit_clears_the_store(self):
        params, lp, _ = self.GAMES["M20"]
        agent_sim._Laws.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(agent_sim, "_LAW_BYTES", 13_000)
            game = agent_sim._Laws(params, lp)
        # rows for one run's 8 laws but not for two
        assert 8 <= game.budget < 16
        warm = []
        for seed in range(3):
            with counting_builds(game) as built:
                warm.append(self.run("M20", 8, seed, visit=1))
            assert len(built) == 8
            assert game.laws.keys() == self.keys(game, built)
        fresh = []
        for seed in range(3):
            agent_sim._Laws.cache_clear()
            fresh.append(self.run("M20", 8, seed, visit=1))
        assert warm == fresh

    def assert_rows_hold_their_laws(self, game):
        assert sorted(game.laws.values()) == list(range(len(game.laws)))
        for key, row in game.laws.items():
            stay, change = game.masses(*divmod(key, game.m + 1))
            cum = np.cumsum(change)
            assert game.ps[row] == cum[-1] / (stay.sum() + cum[-1])
            assert (game.stays[row] == stay / stay.sum()).all()
            assert (game.cums[row] == cum).all()

    def test_store_rows_hold_their_states_laws(self):
        params, lp, _ = self.GAMES["M20"]
        agent_sim._Laws.cache_clear()
        for seed, visit in enumerate((2, 1, None)):
            self.run("M20", None, seed, visit)
        self.assert_rows_hold_their_laws(agent_sim._Laws(params, lp))

    def test_build_that_raises_stores_no_law(self):
        params, lp, _ = self.GAMES["M20"]
        agent_sim._Laws.cache_clear()
        game = agent_sim._Laws(params, lp)
        masses = game.masses
        calls = []

        def failing(n_c, n_d):
            calls.append((n_c, n_d))
            if len(calls) == 3:
                raise RuntimeError("build failed")
            return masses(n_c, n_d)

        game.masses = failing
        try:
            with pytest.raises(RuntimeError, match="build failed"):
                self.run("M20", None, seed=1, visit=1)
        finally:
            del game.masses
        assert self.keys(game, calls[:2]) == game.laws.keys()
        self.assert_rows_hold_their_laws(game)
        warm = self.run("M20", None, seed=2)
        agent_sim._Laws.cache_clear()
        assert warm == self.run("M20", None, seed=2)

    def test_shared_laws_are_read_only(self):
        self.run("M6", None, seed=1)
        game = agent_sim._Laws(*self.GAMES["M6"][:2])
        row = game.laws[2 * (EXACT_PARAMS.M + 1) + 2]
        for array in (game.ps, game.stays, game.cums, game.stays[row], game.cums[row]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_replaced_game_is_freed_at_once(self):
        self.run("M20", None, seed=1)
        game = agent_sim._Laws(*self.GAMES["M20"][:2])
        assert game.laws
        self.run("M6", None, seed=1)
        # once another game is cached, this name alone holds the game, as one
        # holds a fresh object, so deleting it frees the game with no collector
        alone = object()
        assert sys.getrefcount(game) == sys.getrefcount(alone)


class TestLawBytes:
    """The _LAW_BYTES bound on the laws of one game."""

    @staticmethod
    def largest_m(n):
        """Largest M at which a game of group size n gets one law within _LAW_BYTES."""
        cells, moves = (n + 1) * (n + 2) // 2, 6 + 3 * n * (n - 1)
        # one law's change probability, stay row, skip included, cumulative
        # masses of its moves and store entry; the game's tables per move and
        # per round cell
        rest = agent_sim._LAW_BYTES - 8 * (cells + 2 + moves) - 112 - 96 * moves - 40 * cells
        # the comb table C(x, j) for x <= M and j <= n takes the rest
        return rest // (8 * (n + 1)) - 1

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_largest_m_is_the_module_bound(self, n):
        m = self.largest_m(n)
        assert agent_sim._Laws(PGGParams(M=m, N=n, r=1.5), LearningParams()).budget == 1
        assert agent_sim._Laws(PGGParams(M=m + 1, N=n, r=1.5), LearningParams()).budget == 0

    def test_game_past_the_bound_holds_only_the_per_event_tables(self):
        # at M = 1723, N = 212 the comb table alone leaves room for one law,
        # but the tables of the game's 134,202 moves take several times _LAW_BYTES
        for m, n in ((self.largest_m(5) + 1, 5), (1723, 212)):
            game = agent_sim._Laws(PGGParams(M=m, N=n, r=1.5), LearningParams())
            assert game.budget == 0
            assert vars(game).keys() == {"pay", "adopt", "budget", "laws"}

    def test_weights_stay_finite_within_the_bound(self):
        def log10_comb(x, j):
            return (math.lgamma(x + 1) - math.lgamma(j + 1) - math.lgamma(x - j + 1)) / math.log(10)

        # every N with a law at some M, at its largest such M, where C is largest
        worst = (-math.inf, None)
        n = 2
        while (m := self.largest_m(n)) >= n:
            # C(M, N) divides every pair's mass and bounds every state weight;
            # the comb table's largest entry is C(M, j) at j = min(N, M // 2)
            worst = max(worst, (log10_comb(m, n), (m, n)))
            assert log10_comb(m, min(n, m // 2)) < 308
            n += 1
        assert worst[0] < 162
        assert worst[1] == (2824, 83)

    def test_store_and_tables_stay_within_the_bound(self):
        # at N = 20, M = 100 one run fills the game's budget; gc.collect()
        # empties the interpreter's free lists, so the traced bytes are the
        # live objects'
        def traced():
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        lp, start = LearningParams(), Population(34, 33, 33)
        params = PGGParams(M=100, N=20, r=10)
        with sampler(visit=1):
            run_abm(start, params, lp, 1, seed=0)  # numpy's lazy imports
            agent_sim._Laws.cache_clear()
            tracemalloc.start()
            try:
                before = traced()
                # the same pay and adopt tables, and no law: past the bound
                assert agent_sim._Laws(PGGParams(M=10**6, N=20, r=10), lp).budget == 0
                per_event = traced() - before
                agent_sim._Laws.cache_clear()
                before = traced()
                run_abm(start, params, lp, 100, seed=1)
                game = agent_sim._Laws(params, lp)
                law_path = traced() - before - per_event
            finally:
                tracemalloc.stop()
        assert len(game.laws) == game.budget == 364
        assert law_path <= agent_sim._LAW_BYTES

    def test_game_past_the_bound_runs_per_event(self):
        params, lp = PGGParams(M=10**6, N=5), LearningParams(pr=0.0, pe=1e-5)
        game = agent_sim._Laws(params, lp)
        with counting_builds(game) as built:
            traj = run_abm(Population(400_000, 300_000, 300_000), params, lp, 3, seed=3)
        assert game.budget == 0
        assert built == [] and not game.laws
        # about 10 explorations a generation, which can net to no change
        assert any(row != traj.frequencies[0].tolist() for row in traj.frequencies[1:].tolist())


class TestSamplingPaths:
    """Edge cases on the law path (every state gets a law) and on the per-event path."""

    @pytest.fixture(params=["law", "law-batch1", "law-batch2", "per-event"])
    def path(self, request):
        with sampler(**PATHS[request.param]):
            yield

    @pytest.mark.parametrize("params, lp, start", [
        # pe = 1: every event explores, so every event changes the state
        (PGGParams(M=6, N=3, r=2.5), LearningParams(beta=2.0, pr=0.7, pe=1.0), (2, 2, 2)),
        # N = 2: the rest of the group is empty
        (PGGParams(M=6, N=2, r=1.5), LearningParams(beta=2.0, pr=0.7, pe=0.2), (2, 2, 2)),
        # M = N: every round is played by the whole roster
        (PGGParams(M=3, N=3, r=2.0), LearningParams(beta=2.0, pr=0.7, pe=0.2), (1, 1, 1)),
    ], ids=["pe1", "N2", "M-is-N"])
    def test_one_generation_matches_exact_law(self, path, params, lp, start):
        finals, payoffs = one_generation(params, lp, start, 3000)
        assert_matches_exact_law(params, lp, start[:2], finals)
        assert_mean_payoff_matches(params, lp, start[:2], payoffs[:, 0])

    def test_no_channel_freezes_the_counts(self, path):
        params = PGGParams(M=30, N=5)
        traj = run_abm(Population(12, 10, 8), params, LearningParams(1.0, 0.0, 0.0), 50, seed=4)
        assert (traj.frequencies == traj.frequencies[0]).all()
        assert (traj.mean_payoffs == 0.0).all()


def limit_drift(x, params: PGGParams, lp: LearningParams) -> np.ndarray:
    """Drift of the fractions per generation as M -> infinity, written without _Laws.

    In the limit the focal, the role and the N - 2 others of a round are
    i.i.d. draws from x, so the focal f adopts the role's strategy r with
    flow pr (1 - pe) x_f x_r E[fermi(pi_r - pi_f)], the expectation over the
    others, and exploration adds pe (1/2 (1 - x_i) - x_i).
    """
    n = params.N
    drift = [lp.pe * (0.5 * (1.0 - share) - share) for share in x]
    for kc in range(n - 1):
        for kd in range(n - 1 - kc):
            kl = n - 2 - kc - kd
            others = (math.factorial(n - 2) / (math.factorial(kc) * math.factorial(kd) * math.factorial(kl))
                      * x[0] ** kc * x[1] ** kd * x[2] ** kl)
            for f in range(3):
                for r in range(3):
                    if f == r:
                        continue
                    pi = (*realized_payoffs(kc + (f == 0) + (r == 0), kd + (f == 1) + (r == 1), params), 0.0)
                    flow = (lp.pr * (1.0 - lp.pe) * x[f] * x[r] * others
                            * fermi_probability(pi[f], pi[r], lp.beta))
                    drift[r] += flow
                    drift[f] -= flow
    return np.array(drift)


class TestLimitFlow:
    """The ABM's drift converges to the pairwise-comparison flow, not to the u = pe/2 ODE."""

    STATES = [(0.3, 0.3), (0.05, 0.15), (0.6, 0.1), (0.1, 0.1), (0.02, 0.05)]

    @staticmethod
    def finite_drift(x, m, lp):
        """Expected change of the fractions per generation at M = m: of the counts per event."""
        game = agent_sim._Laws(PGGParams(M=m), lp)
        _, change = game.masses(round(x[0] * m), round(x[1] * m))
        drift = np.zeros(3)
        for mass, (source, target, _, _) in zip(change, game.moves):
            drift[source] -= mass
            drift[target] += mass
        return drift

    def test_finite_drift_converges_at_about_one_over_m(self):
        lp = LearningParams()
        states = [(x, y, 1.0 - x - y) for x, y in self.STATES]
        limits = [limit_drift(x, PGGParams(), lp) for x in states]
        errors = {m: [np.abs(self.finite_drift(x, m, lp) - limit).max()
                      for x, limit in zip(states, limits)]
                  for m in (100, 1000)}
        for state, e100, e1000 in zip(self.STATES, errors[100], errors[1000]):
            assert e1000 <= e100 / 5, (state, e100, e1000)
        assert np.abs(limits[0] - (-0.0707, 0.1115, -0.0408)).max() <= 5e-5

    def test_limit_is_not_the_mutator_flow(self):
        # at (0.05, 0.15) the limit moves toward the loners, the u = pe/2 flow away
        lp = LearningParams()
        state = SimplexState(0.05, 0.15, 0.8)
        limit = limit_drift((state.x, state.y, state.z), PGGParams(), lp)
        flow = mutator_rhs(state, dataclasses.replace(PGGParams(), u=lp.pe / 2))
        assert limit[2] > 0 > flow[2]


class TestRunAbm:
    def test_zero_generations(self):
        params = PGGParams(M=30, N=5)
        traj = run_abm(Population(10, 10, 10), params,
                       LearningParams(), 0, seed=0)
        assert len(traj) == 1
        assert traj.frequencies[0].tolist() == [1 / 3, 1 / 3, 1 / 3]
        assert traj.mean_payoffs[0] == 0.0

    def test_negative_generations_rejected(self):
        with pytest.raises(ValueError, match="^generations must be nonnegative, got -1$"):
            run_abm(Population(10, 10, 10), PGGParams(M=30, N=5), LearningParams(), -1, seed=0)

    def test_overflowing_payoffs_are_rejected(self):
        # every round payoff is finite, but M of the largest overflow
        params = PGGParams(c=1e306, r=4.0, g=0.0)
        with pytest.raises(ValueError, match=r"^c=1e\+306, r=4.0 and g=0.0 overflow"):
            run_abm(Population(90, 5, 5), params, LearningParams(), 3, seed=1)

    def test_seed_determinism(self):
        params = PGGParams(M=50, N=5)
        lp = LearningParams(beta=1.0, pr=1.0, pe=0.01)
        pop = Population(20, 15, 15)
        a = run_abm(pop, params, lp, 300, seed=7)
        b = run_abm(pop, params, lp, 300, seed=7)
        assert np.array_equal(a.frequencies, b.frequencies)
        assert np.array_equal(a.mean_payoffs, b.mean_payoffs)
        c = run_abm(pop, params, lp, 300, seed=8)
        assert not np.array_equal(a.frequencies, c.frequencies)

    def test_rows_sum_to_one(self):
        params = PGGParams(M=40, N=5)
        traj = run_abm(Population(20, 10, 10), params,
                       LearningParams(), 200, seed=5)
        f = traj.frequencies
        assert np.abs(f.sum(axis=1) - 1.0).max() <= 1e-12
        # every row is its counts divided by M, exactly
        assert np.array_equal(f, np.rint(f * params.M) / params.M)
        assert (np.rint(f * params.M).sum(axis=1) == params.M).all()

    def test_sustained_oscillation_across_seeds(self, abm_default_runs):
        # the default run flickers through momentary absorptions but keeps
        # reviving; a seed counts as fixated only if it stays monomorphic
        # for its whole trailing 500 generations
        dead = 0
        for traj in abm_default_runs:
            since = absorbed_since(traj)
            if since is not None and len(traj) - since >= 500:
                dead += 1
        assert dead <= 2  # >= 90% of 20 seeds keep oscillating
        for traj in abm_default_runs:
            osc = stats(traj, window=1.0).oscillation_counts
            assert min(osc) >= 10


class TestLearningParams:
    def test_ranges(self):
        with pytest.raises(ValueError, match="pr"):
            LearningParams(pr=1.5)
        with pytest.raises(ValueError, match="pe"):
            LearningParams(pe=-0.2)
        with pytest.raises(ValueError, match="beta"):
            LearningParams(beta=-1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match=f"^beta must be finite, got {beta}$"):
            LearningParams(beta=beta)
