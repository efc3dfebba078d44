"""Finite-population stochastic simulator.

A roster of M agents, each holding one of three discrete strategies, evolves
by asynchronous update events: with probability pe the focal agent explores
(adopts one of the other two strategies uniformly), otherwise with
probability pr it plays one round together with a randomly drawn role agent
and adopts the role's strategy with a payoff-dependent logistic probability.
One generation is M events.

Agents carry no state besides their strategy, so a population is just its
three strategy counts, and the law of one event depends on those counts alone.

Sampling: most events keep the counts, so run_abm samples a whole stretch
of events from the current state's one-event law at once (the n-fold way of
Bortz, Kalos & Lebowitz, J. Comput. Phys. 17:10, 1975): a geometric number
of events that keep the state and one categorical draw of the event that
changes it. The kept events' outcomes (the skip and each round cell) give
the stretch's payoff sum and played count but never move the state, so they
are drawn later: up to _BATCH_STRETCHES stretches at a time in one
multinomial call, each from its own state's law. Given the state path, each
stretch's outcomes are an independent multinomial, and drawing them later
from fresh generator output keeps that joint law; only the random stream
differs from drawing them at once. A run counts its visits to each state
and admits a state to this path on its _LAW_VISIT-th visit, at most
_LAW_BUDGET states and no more than fit in _LAW_BYTES; in every other visit
the events are simulated one at a time until the state changes. Both paths
sample the same law, and which one runs depends only on the run's own
history, so the process is exact in distribution. The laws themselves belong
to the game, as rows of preallocated arrays: a run takes each admitted
state's law from the game's store or builds it into the store's next row,
and keeps it there. A run whose budget would not fit in the rows left free
clears the store first, so the store's one bound is the game's rows. A law's
bits do not depend on when or by which run it was built, so what ran earlier
changes no output.

Reproducibility: every run consumes exactly one generator created from its
seed, so runs are reproducible independently of execution order; concurrent
runs (sweeps, seed batches) must simply use distinct seeds.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

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
        # round() goes half to even, so two fractions on .5 can both round up
        n_d = min(round(size * y), size - n_c)
        return cls(n_c, n_d, size - n_c - n_d)

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
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
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
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    # at beta = 0 a payoff gap that overflows to inf would give 0 * inf = NaN
    t = beta * (pi_role - pi_focal) if beta else 0.0
    # exp is only ever taken of a nonpositive argument, so it cannot overflow
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def gillespie_select(propensities, z1: float) -> int:
    """Index r whose cumulative propensity bracket contains z1.

    Picks the unique r with cumulative(r-1)/total < z1 <= cumulative(r)/total
    (left-strict, right-inclusive). Raises ValueError when z1 lies outside
    (0, 1), when a propensity is negative, NaN or infinite, when their sum
    overflows, and when every propensity is zero.
    """
    if not (0.0 < z1 < 1.0):
        raise ValueError(f"z1 must lie strictly between 0 and 1, got {z1}")
    props = [float(a) for a in propensities]
    if any(a < 0 for a in props):
        raise ValueError("propensities must be nonnegative")
    total = sum(props)
    # a NaN or infinite propensity makes the sum NaN or infinite too
    if not math.isfinite(total):
        raise ValueError(f"propensities and their sum must be finite, got sum {total}")
    if total <= 0.0:
        raise ValueError("all propensities are zero: no event can fire")
    cumulative = 0.0
    for r, a in enumerate(props):
        cumulative += a
        if z1 <= cumulative / total:
            return r
    return len(props) - 1  # guards against rounding in the final bracket


# Most states a run admits to the law path. A law is 89 float64 values at N=5
# (712 bytes), and its store entry takes at most 112 bytes more. Over seeds 1-4
# (10^6 events), abm-default (M=100) visits 1,962-2,404 distinct states and
# builds 715-841 laws; abm-explore (M=1000, pe=0.05) visits 9,721-10,233 and
# spends this budget, and 71-77% of its state visits are law-path stretches,
# against 0.5% when the first 1024 distinct states got the laws. With no count
# bound it would build 6,023-6,741 laws, for 90-92% of its visits. At M=200
# and M=400 (pe=0.05) 95-98% of visits are stretches, against 0.6-73%. The peak
# RSS of `pggsim abm` on abm-explore is 38.8 MB with this budget, 39.5 MB with
# 4096 and 37.1 MB under the old rule (2-core x86 host). The count stays
# beside _LAW_BYTES because a law's size grows as N^2, so no one byte bound
# fits both small and large groups.
_LAW_BUDGET = 3072
# The visit on which a run admits a state, while it has built fewer laws than
# its budget: its earlier visits run event by event. A walk that explores
# keeps moving but comes back (Traulsen et al., PNAS 106:709, 2009), so the
# laws go to the states it revisits. Of 2 to 6 (mean of seeds 1-4, this
# budget), 4 and 5 leave the fewest events to the per-event path on
# abm-explore, 262k and 251k of 10^6 (995k under the old rule), and 4 the
# fewer on abm-default, 27k against 32k (12k under the old rule).
_LAW_VISIT = 4
# Bytes a game's store of laws may take, its law-path tables included: the
# rows that fit are the store's one bound, which the game's runs share. A law
# holds about 3 N^2 values, so at large N fewer laws fit. Within this
# bound every C(M, N) is below 1e162 (at worst 10^161.3, at M=2824, N=83), so
# no weight overflows.
_LAW_BYTES = 4 << 20
# Events' worth of uniforms run_abm draws from its generator at a time. Every
# uniform is read once, in order, but the refills land between the batched
# multinomial draws of the same generator, so the chunk size fixes which
# random stream a seed gives, not the law it is drawn from.
_CHUNK_EVENTS = 128
# Stretches whose kept outcomes run_abm draws in one multinomial call.
_BATCH_STRETCHES = 1024


@functools.lru_cache(maxsize=1)
class _Laws:
    """Lookup tables and one-event laws of one game, shared by all its runs.

    Equal (params, lp) give the same object; only its store of laws changes.

    pay[jc][jd] is the summed payoff of a round with jc cooperators and jd
    defectors. adopt[3 * focal + role][jc][jd] is the probability that the
    focal adopts the role's strategy after that round. Both come from
    realized_payoffs and fermi_probability alone. A round has only the
    cells (jc, jd) with jc + jd <= N, so the tables are ragged: row jc holds
    the cells (jc, 0), ..., (jc, N - jc) and nothing more. The three pairs
    whose focal and role share a strategy never adopt, so they share one
    table of zeros, which the per-event path still reads.

    An event keeps the state by the skip or by a round after which the focal
    does not adopt: stay_pay[0] is the skip's round payoff (none), and
    stay_pay[1 + c] the summed payoff of round cell c, the cells numbered in
    the order of pay's rows. An event changes the state by one of the 6
    exploration moves, which play no round, or by an adoption after a round:
    one move per (focal, role) pair with focal != role and per round cell
    that holds both, in the order of the cells. moves[j] is (from, to,
    round_pay, played): move j turns one `from` agent into a `to` agent and
    carries round payoff round_pay over `played` agents.

    Drawing a focal, then a distinct role, then N - 2 others is drawing a
    uniform group of N and then an ordered pair in it, as
    M (M - 1) C(M - 2, N - 2) = C(M, N) N (N - 1). So in state (n_c, n_d,
    n_l) the pair (f, r) plays round cell j = (jc, jd, jl) with probability
    w(j) pr (1 - pe) j_f (j_r - [f = r]) / (C(M, N) N (N - 1)), and only the
    state weight w(j) = C(n_c, jc) C(n_d, jd) C(n_l, jl) depends on the
    state. The skip and the explorations are groups too: the skip's group
    is empty, of weight 1, and an exploration's group is its lone focal, of
    weight n_f, times pe / (2 M). groups holds the (jc, jd, jl) of the
    skip's group, of the round cells and of the three lone focals, and a
    state's weights are the products of three gathers from
    comb[x, j] = C(x, j), one per strategy. What is left of each mass is fixed
    per game: keep[1 + c] sums it over the 9 pairs for round cell c, times
    the probability of not adopting (keep[0] is the skip's), and take[j]
    holds it for move j, times the adoption probability; cell[j] is move
    j's group.

    The laws are rows of the store, budget rows preallocated: law i is
    ps[i], the probability that an event changes the state, stays[i], the
    distribution of the outcome of an event that keeps it, and cums[i], the
    cumulative masses of the moves. Runs read them through these read-only
    views. budget is the number of rows that fit in _LAW_BYTES beside comb,
    groups, keep, cell, take, moves and stay_pay, the store's one bound.
    laws maps the key n_c (M + 1) + n_d of each stored state to its row, the
    first len(laws) rows of the store; only law and run_abm's start-of-run
    clear touch it. A game whose budget is 0 holds only what the per-event
    path reads: pay and adopt.
    """

    def __init__(self, params: PGGParams, lp: LearningParams):
        m, n = params.M, params.N
        cells = [(jc, jd) for jc in range(n + 1) for jd in range(n + 1 - jc)]
        # the 6 pairs with focal != role: only they can move
        moving = [(focal, role) for focal in range(3) for role in range(3) if role != focal]
        zero = [[0.0] * (n + 1 - jc) for jc in range(n + 1)]
        pay = [[] for _ in range(n + 1)]
        adopt = [zero if role == focal else [[] for _ in range(n + 1)]
                 for focal in range(3) for role in range(3)]
        for jc, jd in cells:
            p_c, p_d = realized_payoffs(jc, jd, params)
            pay[jc].append(jc * p_c + jd * p_d)
            pi = (p_c, p_d, 0.0)
            for focal, role in moving:
                adopt[3 * focal + role][jc].append(fermi_probability(pi[focal], pi[role], lp.beta))
        # a generation's payoff sum is at most M times the largest |pay|, and a
        # NaN or infinite member payoff makes its pay entry NaN or infinite
        if not all(math.isfinite(m * v) for row in pay for v in row):
            raise ValueError(
                f"c={params.c}, r={params.r} and g={params.g} overflow: round payoffs "
                f"summed over a generation of M={m} events must be finite"
            )
        self.pay, self.adopt = pay, adopt

        # a law's row: its change probability, its stay row, skip included,
        # and the cumulative masses of its 6 explorations and 6 N (N - 1) / 2
        # adoption moves; and its store entry: a key and a row int of 28 bytes
        # each and a dict slot, at most 56 bytes in a dict that just grew
        n_moves = 6 + 3 * n * (n - 1)
        row_bytes = 8 * (len(cells) + 2 + n_moves) + 112
        # the law-path tables at their sizes under tracemalloc: comb; per move
        # its tuple in moves (80 bytes with its list slot), take and cell; per
        # round cell its groups, keep and stay_pay entries
        table_bytes = 8 * (m + 1) * (n + 1) + 96 * n_moves + 40 * len(cells)
        self.budget = max(0, _LAW_BYTES - table_bytes) // row_bytes
        self.laws: dict[int, int] = {}
        if not self.budget:
            return

        # comb[x, j] = C(x, j) for x <= M and j <= N, 0 where j > x
        comb = np.ones((m + 1, n + 1))
        for j in range(1, n + 1):
            comb[:, j] = comb[:, j - 1] * np.maximum(np.arange(m + 1.0) - j + 1, 0.0) / j
        # the skip's empty group, the round cells and the lone explorers
        groups = [(0, 0, 0), *((jc, jd, n - jc - jd) for jc, jd in cells),
                  (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        keep = [(1.0 - lp.pe) * (1.0 - lp.pr)] + [0.0] * len(cells)
        # the group of each move and its mass over the group's weight
        self.moves = [(focal, to, 0.0, 0) for focal, to in moving]
        cell = [len(keep) + focal for focal, _ in moving]
        take = [lp.pe / (2 * m)] * 6
        scale = (1.0 - lp.pe) * lp.pr / (float(comb[m, n]) * n * (n - 1))
        for focal, role in moving + [(s, s) for s in range(3)]:
            for i, j in enumerate(groups[1:len(keep)], 1):
                ways = j[focal] * (j[role] - (focal == role))
                p = adopt[3 * focal + role][j[0]][j[1]]
                keep[i] += scale * ways * (1.0 - p)
                if ways and role != focal:
                    cell.append(i)
                    take.append(scale * ways * p)
                    self.moves.append((focal, role, pay[j[0]][j[1]], n))
        self.comb = comb
        self.groups = np.array(groups)
        self.keep = np.array(keep)
        self.cell = np.array(cell)
        self.take = np.array(take)
        self.stay_pay = np.array([0.0, *itertools.chain.from_iterable(pay)])
        self.m = m
        # untouched rows take no memory, only address space
        self._store = (np.empty(self.budget), np.empty((self.budget, len(keep))),
                       np.empty((self.budget, len(take))))
        self.ps, self.stays, self.cums = (table.view() for table in self._store)
        for view in (self.ps, self.stays, self.cums):
            view.flags.writeable = False

    def masses(self, n_c: int, n_d: int) -> tuple[np.ndarray, np.ndarray]:
        """Probabilities of one event's outcomes in state (n_c, n_d): those that keep it, the moves."""
        w = self.comb[(n_c, n_d, self.m - n_c - n_d), self.groups].prod(axis=1)
        return w[:len(self.keep)] * self.keep, w[self.cell] * self.take

    def law(self, key: int) -> int:
        """The row of the state with this key, its law built into the next row if not stored."""
        row = self.laws.get(key)
        if row is None:
            ps, stays, cums = self._store
            row = len(self.laws)
            stay, change = self.masses(*divmod(key, self.m + 1))
            kept = float(stay.sum())
            moved = float(np.add.accumulate(change, out=cums[row])[-1])
            if kept > 0.0:
                stay /= kept
            stays[row] = stay
            ps[row] = moved / (kept + moved)
            # only a finished row is stored: a build that raises leaves it free
            self.laws[key] = row
        return row


def run_abm(
    initial: Population,
    params: PGGParams,
    lp: LearningParams,
    generations: int,
    seed: int,
) -> AbmTrajectory:
    """Iterate generations from a fresh seeded generator, recording fractions and mean payoff.

    Each imitation event plays one fresh round built around the focal and
    role agents plus N - 2 uniformly drawn others, so both compared payoffs
    are realized by the same round. The whole trajectory is a pure function
    of (initial, params, lp, generations, seed).
    """
    if initial.size != params.M:
        raise ValueError(f"population size {initial.size} does not match params.M={params.M}")
    if generations < 0:
        raise ValueError(f"generations must be nonnegative, got {generations}")
    rng = np.random.default_rng(seed)
    m = params.M
    n = params.N
    pr = lp.pr
    pe = lp.pe
    counts = list(initial.counts())
    game = _Laws(params, lp)
    pay, adopt = game.pay, game.adopt
    budget = min(_LAW_BUDGET, game.budget)
    # this run builds its laws into the rows after the store's, so those
    # must hold its whole budget
    if len(game.laws) + budget > game.budget:
        game.laws.clear()
    # the rows of the states this run admits to the law path, by state key:
    # the path depends on this run alone, whatever the game's store holds
    rows: dict[int, int] = {}
    # how many times this run visited each state it has not admitted, while
    # it may still admit states
    visits: dict[int, int] = {}
    visit = _LAW_VISIT
    stride = m + 1

    # uniforms as Python floats, chunk by chunk: indexing numpy makes a scalar per read
    chunk = (n + 3) * min(m, _CHUNK_EVENTS)
    uniforms = itertools.chain.from_iterable(iter(lambda: rng.random(chunk).tolist(), None))

    gens = np.arange(generations + 1)
    # each generation's counts and summed round payoff until the end, then
    # its fractions and mean
    freqs = np.empty((generations + 1, 3))
    means = np.zeros(generations + 1)
    played = np.zeros(generations + 1)
    freqs[0] = counts

    # the (generation, length, law row) of each stretch whose kept outcomes
    # are not drawn yet: they never move the state, so they are drawn later,
    # up to batch stretches in one multinomial call
    held: list[tuple[int, int, int]] = []
    batch = _BATCH_STRETCHES

    def draw_held():
        held_gen, held_run, held_row = zip(*held)
        drawn = rng.multinomial(held_run, game.stays[list(held_row)])
        # an int array: a tuple would be read as one multi-dimensional index
        at = np.array(held_gen)
        np.add.at(means, at, drawn @ game.stay_pay)
        np.add.at(played, at, n * (np.array(held_run) - drawn[:, 0]))
        held.clear()

    for gen in range(1, generations + 1):
        pay_sum = 0.0
        pay_count = 0
        left = m
        while left:
            key = counts[0] * stride + counts[1]
            row = rows.get(key)
            if row is None and len(rows) < budget:
                seen = visits.pop(key, 0) + 1
                if seen < visit:
                    visits[key] = seen
                else:
                    row = rows[key] = game.law(key)

            if row is None:
                # no law: one event at a time until the state changes
                while left:
                    left -= 1
                    u = next(uniforms)
                    if u >= pe and next(uniforms) >= pr:
                        continue

                    v = next(uniforms) * m
                    focal = 0 if v < counts[0] else (1 if v < counts[0] + counts[1] else 2)
                    if u < pe:
                        # exploration: uniform over the focal's other two
                        # strategies; the i-th of them is i + (i >= focal)
                        i = next(uniforms) >= 0.5
                        counts[focal] -= 1
                        counts[i + (i >= focal)] += 1
                        break

                    # role: a distinct agent, so the focal's strategy count drops by one
                    r0 = counts[0] - (focal == 0)
                    r1 = counts[1] - (focal == 1)
                    v = next(uniforms) * (m - 1)
                    role = 0 if v < r0 else (1 if v < r0 + r1 else 2)

                    # round group: focal, role, and N - 2 others drawn without replacement
                    rem0 = r0 - (role == 0)
                    rem1 = r1 - (role == 1)
                    jc = (focal == 0) + (role == 0)
                    jd = (focal == 1) + (role == 1)
                    remaining = m - 2
                    for _ in range(n - 2):
                        v = next(uniforms) * remaining
                        if v < rem0:
                            jc += 1
                            rem0 -= 1
                        elif v < rem0 + rem1:
                            jd += 1
                            rem1 -= 1
                        remaining -= 1

                    pay_sum += pay[jc][jd]
                    pay_count += n

                    if next(uniforms) < adopt[3 * focal + role][jc][jd]:
                        counts[focal] -= 1
                        counts[role] += 1
                        break
                continue

            # a stretch: the events that keep the state, then the one that changes it
            p = game.ps.item(row)
            if p == 0.0:
                run = left
            elif p == 1.0:
                run = 0
            else:
                # geometric by inversion; 1 - u lies in (0, 1]
                x = math.log(1.0 - next(uniforms)) / math.log1p(-p)
                run = left if x >= left else int(x)
            if run:
                held.append((gen, run, row))
                if len(held) == batch:
                    draw_held()
                left -= run
                if not left:
                    break
            # the first move whose cumulative mass reaches a point of (0, total]
            cum = game.cums[row]
            j = bisect_left(cum, (1.0 - next(uniforms)) * cum.item(-1))
            source, target, round_pay, round_played = game.moves[j]
            counts[source] -= 1
            counts[target] += 1
            pay_sum += round_pay
            pay_count += round_played
            left -= 1

        freqs[gen] = counts
        # add, not assign: a draw_held within this generation has added to it
        means[gen] += pay_sum
        played[gen] += pay_count

    if held:
        draw_held()
    freqs /= m
    np.divide(means, played, out=means, where=played > 0)
    return AbmTrajectory(generations=gens, frequencies=freqs, mean_payoffs=means)
