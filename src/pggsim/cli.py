"""Command-line interface.

Subcommands: `ode` (deterministic trajectory CSV), `abm` (finite-population
run CSV), `graph` (random-graph edge list), `sweep` (stats row per parameter
grid point), `equilibrium` (closed-form 2x2 mixed equilibrium). All floats in
CSV output carry 12 significant digits so files round-trip and are
byte-identical for identical config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import sys
from pathlib import Path

from . import analysis, game_core
from .agent_sim import run_abm
from .config import RunConfig, load_config, parse_grid
from .dynamics import integrate, integrate_tails
from .errors import ConfigError, IntegrationError
from .network import generate_er, edge_list_text
from .plotting import plot_simplex

# stats in sweep rows summarize the trailing tenth of each trajectory
_SWEEP_WINDOW = 0.1

_SWEEP_PARAM_COLUMNS = (
    "M", "N", "c", "r", "g", "u", "beta", "pr", "pe", "mode", "density",
    "dt", "steps", "x0", "y0", "z0", "seed",
)

# the keys an ODE run reads; any other --grid key would give rows whose stats agree
_SWEEP_KEYS = ("N", "c", "r", "g", "u", "mode", "density", "dt", "steps", "x0", "y0", "z0")


# _column_rows formats this many rows at a time. `pggsim ode --set steps=200000
# --plot` on a 2-core host (Python 3.11, numpy 2.4) peaked at 37 MB RSS, against
# 65 MB when each column was converted whole, in the same wall time.
_ROWS_PER_CHUNK = 4096


def _column_rows(*columns):
    """The rows of equal-length numpy `columns`, as tuples of Python scalars.

    Converts _ROWS_PER_CHUNK rows at a time, so memory holds the arrays but
    not all of their Python objects at once.
    """
    for start in range(0, len(columns[0]), _ROWS_PER_CHUNK):
        yield from zip(*(column[start:start + _ROWS_PER_CHUNK].tolist() for column in columns))


def _csv_lines(header, rows):
    """The header line, then one line per row; floats as {:.11e} (12 significant
    digits), everything else as {}. Each column keeps the type it has in the first row."""
    yield ",".join(header) + "\n"
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        line = ",".join("{:.11e}" if isinstance(v, float) else "{}" for v in first) + "\n"
        yield line.format(*first)
        yield from itertools.starmap(line.format, rows)


def _svg_path(out: Path) -> Path:
    """Where --plot writes the SVG beside the CSV `out`; a config error if that is `out`."""
    svg = out.with_suffix(".svg")
    if svg == out:
        raise ConfigError(f"out {str(out)!r} is where plot writes the SVG; "
                          "give out another suffix")
    return svg


def _write_outputs(out: Path, lines, plot=None) -> None:
    """Write the text `lines` to `out` and, given a trajectory to `plot`, its SVG beside it.

    Every file is opened for writing, which creates or empties it, before any
    is filled. If a step fails, the files opened are removed: a failed command
    leaves none of its files behind and removes none it could not open.
    """
    paths = [out] if plot is None else [out, _svg_path(out)]
    opened = []
    try:
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.open("w").close()
            opened.append(path)
        with out.open("w") as file:
            file.writelines(lines)
        if plot is not None:
            plot_simplex(plot, paths[1])
    except BaseException:
        for path in opened:
            path.unlink(missing_ok=True)
        raise


def cmd_ode(cfg: RunConfig) -> int:
    traj = integrate(
        cfg.initial_state(), cfg.pgg_params(), cfg.dynamics_mode(), cfg.dt, cfg.steps
    )
    _write_outputs(Path(cfg.out or "ode.csv"),
                   _csv_lines(("t", "x", "y", "z"),
                              _column_rows(traj.times, *traj.frequencies.T)),
                   traj if cfg.plot else None)
    return 0


def cmd_abm(cfg: RunConfig) -> int:
    traj = run_abm(
        cfg.initial_population(), cfg.pgg_params(), cfg.learning_params(), cfg.t, cfg.seed
    )
    _write_outputs(Path(cfg.out or "abm.csv"),
                   _csv_lines(("gen", "frac_c", "frac_d", "frac_l", "mean_payoff"),
                              _column_rows(traj.generations, *traj.frequencies.T,
                                           traj.mean_payoffs)),
                   traj if cfg.plot else None)
    return 0


def cmd_graph(cfg: RunConfig) -> int:
    graph = generate_er(cfg.graph_params())
    _write_outputs(Path(cfg.out or "graph.txt"), [edge_list_text(graph)])
    return 0


def cmd_sweep(cfg: RunConfig, grid: dict[str, list[tuple[str, object]]]) -> int:
    """One stats row per point of the grid's product; `grid` is `config.parse_grid`'s
    result, nonempty and holding only _SWEEP_KEYS (`main` checks both).

    A grid value wins over the same key in `cfg`. Every point is built, and
    so validated, before the first one is integrated.

    Points that share (dt, steps) form a group, which
    `dynamics.integrate_tails` integrates, keeping only the trailing tenth of
    samples that the stats read. If points leave the simplex, the error names
    the first of them in grid order, as if the points ran one by one.
    """
    points = []
    for combo in itertools.product(*grid.values()):
        fields = {key: value for key, (_, value) in zip(grid, combo)}
        points.append((", ".join(label for label, _ in combo), dataclasses.replace(cfg, **fields)))

    groups: dict[tuple[float, int], list[int]] = {}
    for i, (_, point) in enumerate(points):
        groups.setdefault((point.dt, point.steps), []).append(i)
    results = [None] * len(points)
    for (dt, steps), members in groups.items():
        configs = [points[i][1] for i in members]
        runs = [(p.initial_state(), p.pgg_params(), p.dynamics_mode()) for p in configs]
        keep = analysis.window_rows(steps + 1, _SWEEP_WINDOW)
        for i, result in zip(members, integrate_tails(runs, dt, steps, keep)):
            results[i] = result

    stat_cols = ("mean_x", "mean_y", "mean_z", "amp_x", "amp_y", "amp_z",
                 "osc_x", "osc_y", "osc_z", "fixated")
    rows = []
    for (where, point), result in zip(points, results):
        if isinstance(result, IntegrationError):
            raise IntegrationError(f"{result} at sweep point {where}", result.step) from result
        st = analysis.stats(result)
        rows.append([
            *(getattr(point, col) for col in _SWEEP_PARAM_COLUMNS),
            *st.time_means, *st.amplitude, *st.oscillation_counts,
            st.fixated if st.fixated is not None else -1,
        ])
    _write_outputs(Path(cfg.out or "sweep.csv"),
                   _csv_lines(_SWEEP_PARAM_COLUMNS + stat_cols, rows))
    return 0


def cmd_equilibrium(a: float, b: float, c: float) -> int:
    for flag, value in (("--a", a), ("--b", b), ("--c", c)):
        if not math.isfinite(value):
            raise ConfigError(f"invalid value for {flag}: {value!r}")
    if not all(map(math.isfinite, (a + b - 2 * c, a - c, b - c))):
        raise ConfigError(f"--a {a!r}, --b {b!r} and --c {c!r} overflow: "
                          "a + b - 2c, a - c and b - c must be finite")
    row, col = game_core.equilibrium_profile_abc(a, b, c)
    matrix = game_core.Matrix2x2.abc_game(a, b, c)
    u_row, u_col = game_core.expected_payoffs(matrix, row, col)
    print(f"mixed weights: row=({row.p:.12g}, {row.q:.12g}) "
          f"column=({col.p:.12g}, {col.q:.12g})")
    print(f"expected payoffs: row={u_row:.12g} column={u_col:.12g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pggsim",
        description="Optional public goods game: deterministic dynamics, "
        "finite-population simulation, random graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="key = value config file")
    # --seed, --out and --plot are spellings of --set entries
    common.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )
    common.add_argument("--seed", dest="set", action="append", type="seed={}".format,
                        metavar="N", help="RNG seed override")
    common.add_argument("--out", dest="set", action="append", type="out={}".format,
                        metavar="PATH", help="output file path")
    common.add_argument("--plot", dest="set", action="append_const", const="plot=true",
                        help="also write an SVG simplex plot")

    sub.add_parser("ode", parents=[common], help="integrate the deterministic dynamics")
    sub.add_parser("abm", parents=[common], help="run the finite-population simulation")
    sub.add_parser("graph", parents=[common], help="generate a random graph edge list")

    sweep = sub.add_parser("sweep", parents=[common], help="stats over a parameter grid")
    sweep.add_argument(
        "--grid", action="append", default=[], metavar="KEY=V1,V2,...",
        help="values to sweep for one key (repeatable; grid is the product)",
    )

    eq = sub.add_parser("equilibrium", help="closed-form 2x2 mixed equilibrium")
    eq.add_argument("--a", type=float, default=2.0)
    eq.add_argument("--b", type=float, default=1.0)
    eq.add_argument("--c", type=float, default=0.0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "equilibrium":
            return cmd_equilibrium(args.a, args.b, args.c)

        grid = parse_grid(args.grid) if args.command == "sweep" else None
        cfg = load_config(args.config, args.set, grid)
        # ode and abm plot; fail here rather than after their work
        if cfg.plot and cfg.out and args.command in ("ode", "abm"):
            _svg_path(Path(cfg.out))
        # a sweep needs a grid of sweepable keys; checked, like the plot path, before any work
        if args.command == "sweep" and not grid:
            raise ConfigError("sweep requires at least one --grid key=v1,v2,...")
        for key in grid or ():
            if key not in _SWEEP_KEYS:
                raise ConfigError(f"--grid key {key!r} is read by no sweep point; "
                                  f"sweepable keys: {', '.join(_SWEEP_KEYS)}")

        if args.command == "ode":
            return cmd_ode(cfg)
        if args.command == "abm":
            return cmd_abm(cfg)
        if args.command == "graph":
            return cmd_graph(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, grid)
        raise AssertionError(f"unhandled command {args.command}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
