"""The benchmark's output checks accept real pggsim output and catch corrupted files."""

import math

import pytest

import reference
from checks import check_abm_csv, check_digests, payoff_range, sha256
from pggsim.cli import main
from spans import layer_times

GAME = {"N": 5, "c": 1.0, "r": 3.0, "g": 0.5}
M, T = 100, 60


@pytest.fixture(scope="module")
def abm_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("abm") / "abm.csv"
    argv = ["abm", "--seed", "3", "--set", f"t={T}", "--set", "pe=0.05", "--out", str(out)]
    assert main(argv) == 0
    return out.read_text().splitlines()


def _write(tmp_path, lines, newline=True):
    path = tmp_path / "abm.csv"
    path.write_text("\n".join(lines) + ("\n" if newline else ""))
    return path


def _replace_field(lines, row, col, value):
    lines = list(lines)
    fields = lines[row + 1].split(",")
    fields[col] = value
    lines[row + 1] = ",".join(fields)
    return lines


def test_payoff_range_of_default_game():
    # worst: lone cooperator among five participants; best: defector with four cooperators
    assert payoff_range(**GAME) == (-1.5, 2.5)


def test_real_abm_output_passes(tmp_path, abm_lines):
    assert check_abm_csv(_write(tmp_path, abm_lines), M=M, t=T, **GAME) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda ls: ls[:-1], "rows, expected"),
    (lambda ls: ls + [ls[-1]], "rows, expected"),
    (lambda ls: ["gen,x,y,z,mean_payoff"] + ls[1:], "header"),
    (lambda ls: _replace_field(ls, 7, 0, "8"), "gen column"),
    (lambda ls: _replace_field(ls, 12, 1, "9.05000000000e-01"), "whole counts"),
    (lambda ls: _replace_field(ls, 12, 3, "9.90000000000e-01"), "sum to 1"),
    (lambda ls: _replace_field(ls, 30, 4, "2.60000000000e+00"), "mean_payoff"),
    (lambda ls: _replace_field(ls, 30, 4, "nan"), "mean_payoff"),
    (lambda ls: _replace_field(ls, 0, 4, "1.00000000000e-01"), "before any round"),
    (lambda ls: _replace_field(ls, 3, 2, "x"), "unparsable"),
])
def test_corrupted_abm_output_is_caught(tmp_path, abm_lines, corrupt, message):
    problems = check_abm_csv(_write(tmp_path, corrupt(abm_lines)), M=M, t=T, **GAME)
    assert len(problems) == 1 and message in problems[0]


def test_truncated_abm_output_is_caught(tmp_path, abm_lines):
    problems = check_abm_csv(_write(tmp_path, abm_lines, newline=False), M=M, t=T, **GAME)
    assert problems == ["file does not end with a newline"]


def test_digest_check_catches_a_changed_byte(tmp_path):
    out = tmp_path / "ode.csv"
    assert main(["ode", "--set", "steps=50", "--out", str(out)]) == 0
    digests = {"ode.csv": sha256(out)}
    assert check_digests(tmp_path, digests) == []

    data = bytearray(out.read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    out.write_bytes(bytes(data))
    assert "sha256" in check_digests(tmp_path, digests)[0]

    out.unlink()
    assert check_digests(tmp_path, digests) == ["ode.csv: missing"]


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "cli.main", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "dynamics.integrate", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "dynamics.integrate", "start": 5.0, "end": 7.5, "parent": 0},
    ]
    layers = layer_times(spans)
    assert layers["cli.main"] == {"calls": 1, "busy_s": 10.0, "self_s": 4.5}
    assert layers["dynamics.integrate"]["calls"] == 2
    assert math.isclose(layers["dynamics.integrate"]["self_s"], 5.5)


def test_reference_kernel_is_unchanged():
    # End-to-end times are scaled by this kernel's speed, so a change to its
    # work would make figures from before and after the change incomparable.
    assert (reference.STEPS, reference.NOMINAL_S) == (20_000, 0.2)
    assert reference.kernel() == 1_110_131
