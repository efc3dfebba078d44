"""Finite-population stochastic simulator.

A roster of M agents, each holding one of three discrete strategies, evolves
by asynchronous update events: with probability pe the focal agent explores
(adopts one of the other two strategies uniformly), otherwise with
probability pr it plays one round together with a randomly drawn role agent
and adopts the role's strategy with a payoff-dependent logistic probability.
One generation is M events.

Agents carry no state besides their strategy, so a population is just its
three strategy counts.

Reproducibility: every run consumes exactly one generator created from its
seed, so runs are reproducible independently of execution order; concurrent
runs (sweeps, seed batches) must simply use distinct seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoEventError
from .payoffs import PGGParams, realized_payoffs


@dataclass(frozen=True)
class Population:
    """Numbers of cooperators, defectors and loners in a fixed roster of agents."""

    n_c: int
    n_d: int
    n_l: int

    def __post_init__(self):
        if min(self.n_c, self.n_d, self.n_l) < 0:
            raise ValueError("strategy counts must be nonnegative")
        if self.size == 0:
            raise ValueError("population must not be empty")

    @classmethod
    def from_fractions(cls, size: int, x: float, y: float, z: float) -> "Population":
        """Deterministic rounding of target fractions to a roster of the given size."""
        if abs(x + y + z - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1")
        n_c = round(size * x)
        n_d = round(size * y)
        n_l = size - n_c - n_d
        if n_l < 0:
            raise ValueError("rounded counts exceed the population size")
        return cls(n_c, n_d, n_l)

    @property
    def size(self) -> int:
        return self.n_c + self.n_d + self.n_l

    def counts(self) -> tuple[int, int, int]:
        return self.n_c, self.n_d, self.n_l


@dataclass(frozen=True)
class LearningParams:
    """Imitation and exploration knobs.

    beta is the selection intensity of the logistic comparison, pr gates the
    imitation channel, pe the exploration channel.
    """

    beta: float = 1.0
    pr: float = 1.0
    pe: float = 1e-3

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        for name, v in (("pr", self.pr), ("pe", self.pe)):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class AbmTrajectory:
    """Per-generation record: strategy fractions and mean realized payoff.

    mean_payoffs[g] averages the payoff deltas over every agent sampled into
    a round during generation g (0.0 for the initial row and for generations
    in which no round was played).
    """

    generations: np.ndarray
    frequencies: np.ndarray
    mean_payoffs: np.ndarray

    def __len__(self) -> int:
        return len(self.generations)


def fermi_probability(pi_focal: float, pi_role: float, beta: float) -> float:
    """Probability that the focal adopts the role's strategy: logistic in beta*(pi_role - pi_focal)."""
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    t = beta * (pi_role - pi_focal)
    # exp is only ever taken of a nonpositive argument, so it cannot overflow
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def gillespie_select(propensities, z1: float) -> int:
    """Index r whose cumulative propensity bracket contains z1.

    Picks the unique r with cumulative(r-1)/total < z1 <= cumulative(r)/total
    (left-strict, right-inclusive). Raises NoEventError when every propensity
    is zero.
    """
    if not (0.0 < z1 < 1.0):
        raise ValueError(f"z1 must lie strictly between 0 and 1, got {z1}")
    props = [float(a) for a in propensities]
    if any(a < 0 for a in props):
        raise ValueError("propensities must be nonnegative")
    total = sum(props)
    if total <= 0.0:
        raise NoEventError("all propensities are zero: no event can fire")
    cumulative = 0.0
    for r, a in enumerate(props):
        cumulative += a
        if z1 <= cumulative / total:
            return r
    return len(props) - 1  # guards against rounding in the final bracket


def _payoff_tables(
    params: PGGParams, beta: float
) -> tuple[list[list[float]], list[list[list[float]]]]:
    """Per-run lookup tables of the round an imitation event plays.

    pay[jc][jd] is the summed payoff of a round with jc cooperators and jd
    defectors. adopt[3 * focal + role][jc][jd] is the probability that the
    focal adopts the role's strategy after that round; it is 0 when the two
    already share a strategy. Both come from realized_payoffs and
    fermi_probability alone.
    """
    n = params.N
    pay = [[0.0] * (n + 1) for _ in range(n + 1)]
    adopt = [[[0.0] * (n + 1) for _ in range(n + 1)] for _ in range(9)]
    for jc in range(n + 1):
        for jd in range(n + 1 - jc):
            # a round without participants pays nothing, like a lone participant
            p_c, p_d = realized_payoffs(jc, jd, params) if jc + jd else (0.0, 0.0)
            pay[jc][jd] = jc * p_c + jd * p_d
            pi = (p_c, p_d, 0.0)
            for focal in range(3):
                for role in range(3):
                    if role != focal:
                        adopt[3 * focal + role][jc][jd] = fermi_probability(
                            pi[focal], pi[role], beta
                        )
    return pay, adopt


def _run_generation(
    counts: list[int],
    params: PGGParams,
    lp: LearningParams,
    rng: np.random.Generator,
    pay: list[list[float]],
    adopt: list[list[list[float]]],
) -> tuple[float, int]:
    """Apply M asynchronous update events to counts in place.

    Each imitation event plays one fresh round built around the focal and
    role agents plus N - 2 uniformly drawn others, so both compared payoffs
    are realized by the same round. Returns (sum, count) of the payoff deltas
    of all sampled agents, for the trajectory's mean-payoff column.
    """
    m = params.M
    n = params.N
    pr = lp.pr
    pe = lp.pe

    uniforms = rng.random(m * (n + 6))
    k = 0
    pay_sum = 0.0
    pay_count = 0

    for _ in range(m):
        u = uniforms[k]
        k += 1
        if u < pe:
            # exploration: uniform focal, uniform over the other two strategies
            v = uniforms[k] * m
            k += 1
            focal = 0 if v < counts[0] else (1 if v < counts[0] + counts[1] else 2)
            w = uniforms[k]
            k += 1
            if focal == 0:
                target = 1 if w < 0.5 else 2
            elif focal == 1:
                target = 0 if w < 0.5 else 2
            else:
                target = 0 if w < 0.5 else 1
            counts[focal] -= 1
            counts[target] += 1
            continue

        if uniforms[k] >= pr:
            k += 1
            continue
        k += 1

        v = uniforms[k] * m
        k += 1
        focal = 0 if v < counts[0] else (1 if v < counts[0] + counts[1] else 2)

        # role: a distinct agent, so the focal's strategy count drops by one
        r0 = counts[0] - (focal == 0)
        r1 = counts[1] - (focal == 1)
        v = uniforms[k] * (m - 1)
        k += 1
        role = 0 if v < r0 else (1 if v < r0 + r1 else 2)

        # round group: focal, role, and N - 2 others drawn without replacement
        rem0 = r0 - (role == 0)
        rem1 = r1 - (role == 1)
        jc = (focal == 0) + (role == 0)
        jd = (focal == 1) + (role == 1)
        remaining = m - 2
        for _ in range(n - 2):
            v = uniforms[k] * remaining
            k += 1
            if v < rem0:
                jc += 1
                rem0 -= 1
            elif v < rem0 + rem1:
                jd += 1
                rem1 -= 1
            remaining -= 1

        pay_sum += pay[jc][jd]
        pay_count += n

        if uniforms[k] < adopt[3 * focal + role][jc][jd]:
            counts[focal] -= 1
            counts[role] += 1
        k += 1

    return pay_sum, pay_count


def run_abm(
    initial: Population,
    params: PGGParams,
    lp: LearningParams,
    generations: int,
    seed: int,
) -> AbmTrajectory:
    """Iterate generations from a fresh seeded generator, recording fractions and mean payoff.

    The whole trajectory is a pure function of (initial, params, lp,
    generations, seed).
    """
    if initial.size != params.M:
        raise ValueError(f"population size {initial.size} does not match params.M={params.M}")
    if generations < 0:
        raise ValueError(f"generations must be nonnegative, got {generations}")
    rng = np.random.default_rng(seed)
    m = params.M
    counts = list(initial.counts())
    pay, adopt = _payoff_tables(params, lp.beta)

    gens = np.arange(generations + 1)
    freqs = np.empty((generations + 1, 3))
    means = np.zeros(generations + 1)
    freqs[0] = (counts[0] / m, counts[1] / m, counts[2] / m)

    for gen in range(1, generations + 1):
        pay_sum, pay_count = _run_generation(counts, params, lp, rng, pay, adopt)
        freqs[gen] = (counts[0] / m, counts[1] / m, counts[2] / m)
        means[gen] = pay_sum / pay_count if pay_count else 0.0

    return AbmTrajectory(generations=gens, frequencies=freqs, mean_payoffs=means)
