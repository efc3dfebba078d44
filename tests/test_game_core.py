import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pggsim.game_core import (
    Matrix2x2,
    MixedStrategy2,
    equilibrium_profile_abc,
    expected_payoffs,
    mixed_equilibrium_abc,
    outcome_distribution,
)


def mixed(p):
    """The strategy with weights (p, 1 - p)."""
    return MixedStrategy2(p, 1.0 - p)


class TestOutcomeDistribution:
    def test_worked_grid(self):
        # the (1/3, 2/3) x (2/3, 1/3) grid of the worked example, exact
        row = MixedStrategy2(1 / 3, 2 / 3)
        col = MixedStrategy2(2 / 3, 1 / 3)
        grid = outcome_distribution(row, col)
        assert grid.tolist() == [[2 / 9, 1 / 9], [4 / 9, 2 / 9]]

    def test_pure_strategies(self):
        grid = outcome_distribution(mixed(1.0), mixed(1.0))
        assert grid.tolist() == [[1.0, 0.0], [0.0, 0.0]]

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_cells_nonnegative_and_sum_to_one(self, p, q):
        grid = outcome_distribution(mixed(p), mixed(q))
        assert (grid >= 0).all()
        assert abs(grid.sum() - 1.0) <= 1e-12


class TestExpectedPayoffs:
    def test_worked_example(self):
        row, col = equilibrium_profile_abc(2, 1, 0)
        u_row, u_col = expected_payoffs(Matrix2x2.abc_game(2, 1, 0), row, col)
        assert u_row == 2 / 3
        assert u_col == 2 / 3

    def test_zero_matrix(self):
        m = Matrix2x2(row=np.zeros((2, 2)), col=np.zeros((2, 2)))
        assert expected_payoffs(m, mixed(0.3), mixed(0.8)) == (0.0, 0.0)

    def test_matching_pennies_uniform(self):
        pennies = Matrix2x2(row=[[-1, 1], [1, -1]], col=[[1, -1], [-1, 1]])
        u = expected_payoffs(pennies, mixed(0.5), mixed(0.5))
        assert u == (0.0, 0.0)

    def test_bilinear_in_matrix_scale(self):
        # scaling by powers of two is exact in floating point
        base = Matrix2x2.abc_game(2, 1, 0)
        row, col = mixed(0.3), mixed(0.7)
        u_row, u_col = expected_payoffs(base, row, col)
        for k in (0.5, 2.0, 4.0):
            scaled = Matrix2x2(row=base.row * k, col=base.col * k)
            assert expected_payoffs(scaled, row, col) == (k * u_row, k * u_col)


class TestMixedEquilibrium:
    def test_two_one_zero_family(self):
        assert mixed_equilibrium_abc(2, 1, 0) == 1 / 3

    def test_degenerate_b_equals_c(self):
        with pytest.raises(ValueError, match="b - c"):
            mixed_equilibrium_abc(3, 1, 1)

    def test_each_condition_identified(self):
        with pytest.raises(ValueError, match="a \\+ b - 2c > 0"):
            mixed_equilibrium_abc(-2, 1, 0)
        with pytest.raises(ValueError, match="a > c"):
            mixed_equilibrium_abc(0.5, 4, 1)

    def test_brute_force_indifference_search(self):
        # independent oracle: scan a 1e-4 grid for the row weight that makes
        # the column player indifferent between its two pure strategies
        a, b, c = 2.0, 1.5, 0.0
        m = Matrix2x2.abc_game(a, b, c)
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-4)
        gaps = []
        for p in grid:
            row = mixed(float(p))
            u_left = expected_payoffs(m, row, mixed(1.0))[1]
            u_right = expected_payoffs(m, row, mixed(0.0))[1]
            gaps.append(abs(u_left - u_right))
        best = grid[int(np.argmin(gaps))]
        sigma = mixed_equilibrium_abc(a, b, c)
        assert sigma == pytest.approx(3 / 7, abs=1e-15)
        assert abs(sigma - best) <= 1e-4

    def test_result_in_open_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c, b, a = np.sort(rng.uniform(-5, 5, size=3))
            if not (b - c > 1e-6 and a - b > 1e-6):
                continue
            assert 0.0 < mixed_equilibrium_abc(a, b, c) < 1.0


class TestIndifferenceProperty:
    def test_unilateral_deviation_is_payoff_neutral(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            c, b, a = np.sort(rng.uniform(-4, 4, size=3))
            if not (b - c > 1e-6 and a - b > 1e-6):
                continue
            m = Matrix2x2.abc_game(a, b, c)
            row, col = equilibrium_profile_abc(a, b, c)
            u_row, u_col = expected_payoffs(m, row, col)
            for pure in (mixed(1.0), mixed(0.0)):
                assert expected_payoffs(m, pure, col)[0] == pytest.approx(u_row, abs=1e-10)
                assert expected_payoffs(m, row, pure)[1] == pytest.approx(u_col, abs=1e-10)


class TestValidation:
    def test_strategy_weight_range(self):
        with pytest.raises(ValueError):
            mixed(1.2)
        with pytest.raises(ValueError):
            mixed(-0.1)

    def test_explicit_pair_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixedStrategy2(0.3, 0.6)

    def test_matrix_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            Matrix2x2(row=np.zeros((2, 3)), col=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Matrix2x2(row=np.full((2, 2), np.nan), col=np.zeros((2, 2)))
