import math

import numpy as np
import pytest

from pggsim.payoffs import (
    PGGParams,
    SimplexState,
    average_payoff,
    expected_profile,
    realized_payoffs,
)

from conftest import random_simplex_states


def enumerate_expected(strategy: str, state: SimplexState, params: PGGParams) -> float:
    """Independent oracle: average the realized payoff of one focal player over
    every multinomial composition of its N - 1 coplayers."""
    x, y, z = state.as_tuple()
    n1 = params.N - 1
    total = 0.0
    for jc in range(n1 + 1):
        for jd in range(n1 - jc + 1):
            jl = n1 - jc - jd
            weight = math.comb(n1, jc) * math.comb(n1 - jc, jd) * x**jc * y**jd * z**jl
            if strategy == "defector":
                total += weight * realized_payoffs(jc, jd + 1, params)[1]
            else:
                total += weight * realized_payoffs(jc + 1, jd, params)[0]
    return total


class TestRealizedPayoffs:
    def test_all_cooperator_round(self):
        assert realized_payoffs(5, 0, PGGParams(c=1, r=3, N=5, g=0.0))[0] == 2.0
        assert realized_payoffs(5, 0, PGGParams(c=1, r=3, N=5, g=0.5))[0] == 1.5

    def test_lone_participant_gets_stay_out_payoff(self):
        assert realized_payoffs(1, 0, PGGParams()) == (0.0, 0.0)
        assert realized_payoffs(0, 1, PGGParams()) == (0.0, 0.0)

    def test_no_participants(self):
        assert realized_payoffs(0, 0, PGGParams()) == (0.0, 0.0)

    def test_within_round_difference(self):
        # the defector sees one more cooperating coplayer than the cooperator,
        # so inside one round the gap is c + r*c/(S-1); averaging over group
        # composition is what brings it down to c*(1 - z**(N-1))
        params = PGGParams(c=2.0, r=2.5, N=8, M=50)
        for jc in range(1, 8):
            for jd in range(1, 8 - jc + 1):
                p_c, p_d = realized_payoffs(jc, jd, params)
                gap = params.c + params.r * params.c / (jc + jd - 1)
                assert p_d - p_c == pytest.approx(gap, rel=1e-15)


class TestExpectedDefectorPayoff:
    def test_cooperator_vertex(self):
        params = PGGParams(c=1, r=3, g=0.5, N=5)
        assert expected_profile(SimplexState(1, 0, 0), params).P_d == 2.5

    def test_all_loner(self):
        assert expected_profile(SimplexState(0, 0, 1), PGGParams()).P_d == 0.0

    def test_matches_enumeration_oracle(self):
        params = PGGParams(c=1, r=3, g=0.5, N=5)
        state = SimplexState(0.3, 0.3, 0.4)
        value = expected_profile(state, params).P_d
        assert value == pytest.approx(enumerate_expected("defector", state, params), abs=1e-12)
        # frozen from the oracle: (3*0.3/0.6 - 0.5) * (1 - 0.4**4)
        assert value == pytest.approx(0.9744, abs=1e-12)

    def test_enumeration_oracle_across_states(self):
        params = PGGParams(c=1.3, r=2.2, g=0.7, N=4)
        for v in random_simplex_states(50, seed=8):
            state = SimplexState(*map(float, v))
            assert expected_profile(state, params).P_d == pytest.approx(
                enumerate_expected("defector", state, params), abs=1e-12
            )

    def test_strictly_increasing_in_x(self):
        params = PGGParams()
        z = 0.4
        values = [
            expected_profile(SimplexState(x, 1 - z - x, z), params).P_d
            for x in np.linspace(0.0, 1 - z, 30)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestExpectedProfile:
    def test_all_loner_annihilates(self):
        prof = expected_profile(SimplexState(0, 0, 1), PGGParams())
        assert (prof.P_c, prof.P_d, prof.P_l, prof.P_bar) == (0.0, 0.0, 0.0, 0.0)

    def test_cooperator_vertex_average(self):
        prof = expected_profile(SimplexState(1, 0, 0), PGGParams(c=1, r=3, g=0.5, N=5))
        assert prof.P_bar == pytest.approx(1.5, abs=1e-15)

    def test_cooperator_matches_enumeration_oracle(self):
        params = PGGParams(c=1, r=3, g=0.5, N=5)
        for v in random_simplex_states(50, seed=21):
            state = SimplexState(*map(float, v))
            prof = expected_profile(state, params)
            assert prof.P_c == pytest.approx(
                enumerate_expected("cooperator", state, params), abs=1e-12
            )

    def test_average_identity(self):
        # the factored closed form equals the frequency-weighted sum
        rng = np.random.default_rng(17)
        states = random_simplex_states(10_000, seed=4)
        worst = 0.0
        for v in states:
            n = int(rng.integers(2, 9))
            params = PGGParams(
                M=max(100, n),
                N=n,
                c=float(rng.uniform(0.2, 2.0)),
                r=float(rng.uniform(1.01, n - 0.01)),
                g=float(rng.uniform(0.0, 3.0)),
            )
            state = SimplexState(*map(float, v))
            prof = expected_profile(state, params)
            worst = max(worst, abs(average_payoff(state, params) - prof.P_bar))
        assert worst <= 1e-12

    def test_difference_law(self):
        params = PGGParams()
        for v in random_simplex_states(2000, seed=9):
            state = SimplexState(*map(float, v))
            prof = expected_profile(state, params)
            gap = params.c * (1 - state.z ** (params.N - 1))
            assert prof.P_d - prof.P_c == pytest.approx(gap, abs=1e-12)
            assert prof.P_d - prof.P_c >= 0
        vertex = expected_profile(SimplexState(0, 0, 1), params)
        assert vertex.P_d - vertex.P_c == 0.0

    def test_monte_carlo_sample_consistency(self):
        # binomially drawn coplayer compositions reproduce the closed form
        params = PGGParams(c=1, r=3, g=0.5, N=5)
        state = SimplexState(0.3, 0.3, 0.4)
        rng = np.random.default_rng(12)
        comps = rng.multinomial(params.N - 1, state.as_tuple(), size=100_000)
        jc, jd = comps[:, 0], comps[:, 1]
        s = jc + jd + 1
        pay = np.where(s >= 2, params.r * params.c * jc / np.maximum(s - 1, 1) - params.g, 0.0)
        err = pay.std(ddof=1) / math.sqrt(len(pay))
        assert abs(pay.mean() - expected_profile(state, params).P_d) <= 3 * err


class TestParamValidation:
    def test_interest_rate_bounds(self):
        with pytest.raises(ValueError, match="r must"):
            PGGParams(r=1.0)
        with pytest.raises(ValueError, match="r must"):
            PGGParams(r=5.0, N=5)

    def test_mutation_rate_bounds(self):
        with pytest.raises(ValueError, match="u must"):
            PGGParams(u=2.0)

    def test_population_at_least_sample(self):
        with pytest.raises(ValueError, match="M must"):
            PGGParams(M=4, N=5)
        with pytest.raises(ValueError, match="N must"):
            PGGParams(N=1, M=10, r=0.5)

    def test_cost_signs(self):
        with pytest.raises(ValueError, match="c must"):
            PGGParams(c=0.0)
        with pytest.raises(ValueError, match="g must"):
            PGGParams(g=-0.1)

    @pytest.mark.parametrize("name, value", [
        ("c", math.inf), ("g", math.nan), ("g", math.inf),
    ], ids=["c-inf", "g-nan", "g-inf"])
    def test_non_finite_costs_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {name}={value}$"):
            PGGParams(**{name: value})


class TestSimplexState:
    def test_accepts_valid(self):
        SimplexState(0.2, 0.3, 0.5)
        SimplexState(1.0, 0.0, 0.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SimplexState(0.5, 0.5, 0.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            SimplexState(-0.1, 0.6, 0.5)
