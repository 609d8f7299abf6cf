import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bsol.cli
from bsol.operators import AustrianState, PointerState
from bsol.partitions import (
    EnumerationBoundError,
    enumerate_compositions,
    enumerate_montreal_compositions,
    enumerate_partitions,
    format_parts,
)
from bsol.cli import DEFAULT_STATE_LIMIT, _check_space, main, parse_state, render_young
from bsol.dynamics import _knuth_check, get_variant


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --- parse_state ---

def test_parse_state_examples():
    assert parse_state("4,3,3", "partition") == (4, 3, 3)
    assert parse_state("3,5,2", "partition") == (5, 3, 2)
    assert parse_state("1,0,2", "montreal") == (1, 0, 2)
    assert parse_state("2,0,1", "circular") == (2, 0, 1)
    assert parse_state("0,3,0", "circular") == (0, 3, 0)


def test_parse_state_errors():
    with pytest.raises(ValueError):
        parse_state("4,x", "partition")
    with pytest.raises(ValueError):
        parse_state("4,-1", "partition")
    with pytest.raises(ValueError):
        parse_state("0,1,2", "montreal")
    with pytest.raises(ValueError):
        parse_state("1,2,0", "montreal")
    with pytest.raises(ValueError):
        parse_state("1,0,2", "strict")
    with pytest.raises(ValueError):
        parse_state("", "partition")


def test_parse_format_round_trip():
    from itertools import product

    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            assert parse_state(format_parts(lam), "partition") == lam
        for alpha in enumerate_compositions(n):
            assert parse_state(format_parts(alpha), "strict") == alpha
        for alpha in enumerate_montreal_compositions(n):
            assert parse_state(format_parts(alpha), "montreal") == alpha
    for alpha in product(range(4), repeat=3):
        assert parse_state(format_parts(alpha), "circular") == alpha


def test_state_json_round_trip():
    s = AustrianState((3, 1), 2, 3)
    assert AustrianState.from_jsonable(json.loads(json.dumps(s.to_jsonable()))) == s
    t = PointerState((2, 0, 1), 3)
    assert PointerState.from_jsonable(json.loads(json.dumps(t.to_jsonable()))) == t


# --- render ---

def test_render_young_rows():
    assert render_young((2, 1), "rows") == "##\n#"
    assert render_young((4, 3, 3), "rows") == "####\n###\n###"


def test_render_young_cradle():
    art = render_young((3, 2, 1), "cradle")
    rows = art.splitlines()
    assert len(rows) == 5
    assert sum(row.count("#") for row in rows) == 6
    assert rows[0] == "  #"
    assert rows[2] == "# #"
    # symmetric triangle: reads the same upside down
    assert rows == rows[::-1]


def test_render_unknown_style():
    with pytest.raises(ValueError):
        render_young((2, 1), "diagonal")


# --- orbit command ---

def test_cli_orbit_json_line_count(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--variant", "bulgarian", "--state", "4,3,3", "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9 + 1 + 1  # tail + cycle + repeat
    assert json.loads(lines[0]) == {"parts": [4, 3, 3], "n": 10}
    assert json.loads(lines[-1]) == {"parts": [4, 3, 2, 1], "n": 10}


def test_cli_orbit_text(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--state", "4,2,1")
    assert code == 0
    assert "tail length: 0" in out
    assert "cycle length: 4" in out


def test_cli_orbit_montreal(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--variant", "montreal", "--state", "3,2,2")
    assert code == 0
    assert "cycle length: 18" in out


def test_cli_orbit_montreal_with_many_zero_runs(capsys):
    # 1,101 blocks of one card with 1,100 zero runs between them: the move
    # is one loop, so the run count does not meet the recursion limit
    state = ",".join(["1"] + ["0", "1"] * 1100)
    code, out, err = run_cli(capsys, "orbit", "--variant", "montreal", "--state", state)
    assert (code, err) == (0, "")
    assert "tail length: 0" in out and "cycle length: 1" in out


def test_cli_orbit_austrian(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--variant", "austrian", "--state", "3,2", "--L", "3")
    assert code == 0
    assert "bank=" in out


def test_cli_orbit_janetzko(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--variant", "janetzko", "--state", "2,1,0", "--pointer", "1", "--format", "json")
    assert code == 0
    first = json.loads(out.strip().splitlines()[0])
    assert first == {"piles": [2, 1, 0], "pointer": 1}


def test_cli_orbit_bad_state_exits_2(capsys):
    code, _, err = run_cli(capsys, "orbit", "--state", "4,x")
    assert code == 2
    assert "error" in err.lower()
    code, _, _ = run_cli(capsys, "orbit", "--variant", "montreal", "--state", "0,1")
    assert code == 2


def test_cli_orbit_step_bound_exit_4(capsys, monkeypatch):
    # the default bound sits above every real orbit, so only a defect can
    # exceed it; shrink it to stand in for one
    monkeypatch.setattr("bsol.dynamics.default_step_bound", lambda state: 2)
    code, out, err = run_cli(capsys, "orbit", "--state", "4,3,3")
    assert code == 4
    assert out == ""
    assert "no repetition within 2 steps" in err
    assert "--step-bound" not in err


def test_cli_orbit_montreal_past_the_default_bound_exits_3(capsys):
    # the Montreal state space is infinite, so the default bound proves
    # nothing there: this 200-card start makes no repeat within 160,000
    # moves, a property of the input, not a defect
    state = "5,19,3,9,4,16,15,16,13,7,4,16,1,13,14,20,1,15,5,2,1,1"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "orbit", "--variant", "montreal", "--state", state)
    assert time.perf_counter() - start < 5
    assert (code, out) == (3, "")
    assert err.startswith("error: no repetition within 160000 steps") and err.count("\n") == 1
    assert "montreal orbits have no proven bound" in err


def test_cli_orbit_user_step_bound_too_small_exits_2(capsys):
    for bound in ("1", "0", "-3"):
        code, out, err = run_cli(capsys, "orbit", "--state", "5,3,1", "--step-bound", bound)
        assert code == 2
        assert out == ""
        assert f"--step-bound {bound} is too small" in err
        assert "Traceback" not in err
    assert run_cli(capsys, "orbit", "--state", "5,3,1", "--step-bound", "20")[0] == 0


def test_cli_orbit_guard_lets_the_bound_itself_through(capsys):
    bound = bsol.cli.ORBIT_CARD_BOUND
    code, out, _ = run_cli(capsys, "orbit", "--state", str(bound))
    assert code == 0
    assert f"   0  {bound}\n" in out


@pytest.mark.parametrize("argv", [
    ("--state", "1000000"),
    ("--state", str(bsol.cli.ORBIT_CARD_BOUND + 1)),
    ("--variant", "dual", "--state", "3000,1001"),
    ("--variant", "montreal", "--state", "4000,0,1"),
    ("--variant", "carolina", "--state", str(10**12)),
    ("--variant", "austrian", "--state", "1000000", "--L", "1000000"),
    ("--variant", "austrian", "--state", "1", "--bank", "4000", "--L", "2"),
    ("--variant", "servedio_yeh", "--state", "0,1000000,0"),
    ("--variant", "janetzko", "--state", "1000000", "--pointer", "1"),
])
def test_cli_orbit_guard_refuses_large_states_at_once(capsys, monkeypatch, argv):
    # one pile of n cards takes about n moves on states of up to n parts
    def walked(*args, **kwargs):
        raise AssertionError("the guard let the orbit start")

    monkeypatch.setattr(bsol.cli, "orbit", walked)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "orbit", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_unknown_command_exits_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


# --- graph / ge / necklaces ---

def test_cli_graph_json(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "8", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["component_count"] == 2
    assert data["state_count"] == 22


def test_cli_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--n", "6", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 11
    assert "ge=true" in out


def test_cli_graph_limit_exit_3(capsys):
    code, _, err = run_cli(capsys, "graph", "--n", "8", "--limit", "10")
    assert code == 3
    assert "22" in err


@pytest.mark.parametrize("limit, code", [("4000", 3), ("5527", 3), ("5528", 0)])
def test_cli_graph_montreal_counts_visited_states_against_the_limit(capsys, limit, code):
    # the 3,432 seeds at n = 8 pass the limit, but their orbits visit 5,528 states
    got, out, err = run_cli(capsys, "graph", "--variant", "montreal", "--n", "8",
                            "--limit", limit)
    assert got == code
    if code == 3:
        assert out == ""
        assert err == f"error: the orbits visit more than the limit of {limit} states\n"
    else:
        assert "states: 5528" in out and err == ""


def test_cli_graph_env_limit(capsys, monkeypatch):
    monkeypatch.setenv("BSOL_MAX_STATES", "10")
    assert run_cli(capsys, "graph", "--n", "8")[0] == 3
    monkeypatch.setenv("BSOL_MAX_STATES", "100")
    assert run_cli(capsys, "graph", "--n", "8")[0] == 0


def test_cli_negative_n_exits_2(capsys):
    for argv in (("graph", "--n", "-1"), ("ge", "--n", "-3")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "--n must be nonnegative" in err


def test_cli_negative_limit_exits_2(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "graph", "--n", "5", "--limit", "-1")
    assert code == 2
    assert out == ""
    assert "--limit must be nonnegative" in err
    monkeypatch.setenv("BSOL_MAX_STATES", "-1")
    code, out, err = run_cli(capsys, "graph", "--n", "5")
    assert code == 2
    assert out == ""
    assert "BSOL_MAX_STATES must be nonnegative" in err


def test_cli_graph_over_the_counting_bound_exits_3(capsys):
    code, out, err = run_cli(capsys, "graph", "--n", "300")
    assert code == 3
    assert out == ""
    assert "counting bound" in err


def test_cli_graph_env_limit_not_an_integer_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("BSOL_MAX_STATES", "x")
    code, out, err = run_cli(capsys, "graph", "--n", "5")
    assert code == 2
    assert out == ""
    assert "BSOL_MAX_STATES" in err and "'x'" in err
    assert "Traceback" not in err


def test_cli_graph_austrian_needs_positive_L(capsys):
    code, out, err = run_cli(capsys, "graph", "--n", "5", "--variant", "austrian")
    assert code == 2
    assert out == ""
    assert "lifetime L" in err
    for bad in ("0", "-2"):
        code, out, err = run_cli(capsys, "graph", "--n", "5", "--variant", "austrian", "--L", bad)
        assert code == 2
        assert out == ""
        assert "lifetime must be positive" in err
    assert run_cli(capsys, "graph", "--n", "5", "--variant", "austrian", "--L", "2")[0] == 0


def test_cli_graph_n_0(capsys):
    # the empty partition is the one state of the Bulgarian and Austrian
    # games; the dual move needs a pile to deal out, and compositions start at 1
    for argv in (("--variant", "bulgarian"), ("--variant", "austrian", "--L", "2")):
        code, out, err = run_cli(capsys, "graph", "--n", "0", "--format", "json", *argv)
        assert code == 0
        assert err == ""
        assert json.loads(out)["state_count"] == 1
    for variant, message in [("dual", "dual step needs a nonempty partition"),
                             ("carolina", "n must be positive, got 0"),
                             ("montreal", "n must be positive, got 0")]:
        code, out, err = run_cli(capsys, "graph", "--n", "0", "--variant", variant)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cli_graph_reads_L_only_for_austrian(capsys):
    # every other variant ignores --L, whatever its value
    for argv in (("--format", "json"), ("--variant", "montreal")):
        plain = run_cli(capsys, "graph", "--n", "6", *argv)
        assert plain[0] == 0
        for L in ("0", "-3"):
            assert run_cli(capsys, "graph", "--n", "6", *argv, "--L", L) == plain
    code, out, err = run_cli(capsys, "graph", "--variant", "austrian", "--n", "5")
    assert (code, out) == (2, "")
    assert err == "error: the austrian variant requires the machine lifetime L\n"


def test_cli_ge(capsys):
    code, out, _ = run_cli(capsys, "ge", "--n", "10")
    assert code == 0
    lines = out.strip().splitlines()
    expected = [lam for lam in enumerate_partitions(10) if lam[0] < len(lam) - 1]
    assert len(lines) == len(expected)
    assert "2,2,2,2,2" in lines
    for n in ("1", "2"):  # no Garden of Eden state below n = 3
        assert run_cli(capsys, "ge", "--n", n)[:2] == (0, "")
    for n in range(12):  # the JSON list reads as json.dumps writes it, [] below n = 3
        ge = [list(lam) for lam in enumerate_partitions(n) if lam and lam[0] < len(lam) - 1]
        code, out, _ = run_cli(capsys, "ge", "--n", str(n), "--format", "json")
        assert (code, out) == (0, json.dumps(ge, indent=2) + "\n")


def test_cli_necklaces(capsys):
    code, out, _ = run_cli(capsys, "necklaces", "--n", "12")
    assert code == 0
    assert "2" in out
    code, out, _ = run_cli(capsys, "necklaces", "--n", "12", "--list")
    assert "BWBWW" in out and "BBWWW" in out


@pytest.mark.parametrize("n", [10**9, 10**12, 10**14, 10**18, 102023471])
def test_cli_necklaces_guard_refuses_huge_counts_at_once(capsys, monkeypatch, n):
    # the count is below 2^k, and past k = 14284 it could print more digits
    # than CPython converts by default
    def counted(*args):
        raise AssertionError("the guard let the count start")

    monkeypatch.setattr(bsol.cli, "necklace_count", counted)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "necklaces", "--n", str(n))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "digits" not in err


def test_cli_necklaces_prints_the_largest_count_under_the_guard(capsys):
    # k = 14284 is the last k the guard lets through, and r = k/2 its largest count
    code, out, _ = run_cli(capsys, "necklaces", "--n", "102016328")
    head = "n=102016328: k=14284, r=7142, components="
    assert code == 0 and out.startswith(head)
    assert 4250 < len(out.strip()) - len(head) <= 4300


# --- knuth / toom commands ---

def test_cli_knuth(capsys):
    code, out, _ = run_cli(capsys, "knuth", "--k", "3")
    assert code == 0
    assert "holds" in out


def test_cli_knuth_lists_every_exception_when_the_claim_fails(capsys, monkeypatch):
    # at exponent 0 only the staircase itself reaches the staircase
    monkeypatch.setattr(bsol.cli, "knuth_exponent_check", lambda k: _knuth_check(k, 0))
    code, out, err = run_cli(capsys, "knuth", "--k", "3")
    assert (code, err) == (4, "")
    head, *exceptions = out.splitlines()
    assert head == "k=3: B^0 reaches the staircase on all 11 partitions of 6: FAILS"
    assert exceptions == [f"exception: {format_parts(lam)}"
                          for lam in enumerate_partitions(6) if lam != (3, 2, 1)]


def test_cli_toom(capsys):
    code, out, _ = run_cli(capsys, "toom", "--k", "4")
    assert code == 0
    assert "12" in out


def test_cli_toom_guard_lets_the_bound_itself_through(capsys, monkeypatch):
    walked = []
    small_walk = bsol.cli.toom_path(3)
    monkeypatch.setattr(bsol.cli, "toom_path", lambda k: walked.append(k) or small_walk)
    code, _, _ = run_cli(capsys, "toom", "--k", str(bsol.cli.TOOM_K_BOUND))
    assert (code, walked) == (0, [bsol.cli.TOOM_K_BOUND])


@pytest.mark.parametrize("k", [bsol.cli.TOOM_K_BOUND + 1, 300, 3000, 10**12])
def test_cli_toom_guard_refuses_large_k_at_once(capsys, monkeypatch, k):
    # the walk costs about k^4, so a state count cannot bound it
    def walked(*args):
        raise AssertionError("the guard let the walk start")

    monkeypatch.setattr(bsol.cli, "toom_path", walked)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "toom", "--k", str(k))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# --- simulate ---

def test_cli_simulate_json(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--variant", "popov", "--n", "6", "--p", "1.0",
        "--seed", "1", "--burn-in", "20", "--samples", "5", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["visit_counts"] == {"3,2,1": 5}


def test_cli_simulate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--variant", "popov", "--n", "6", "--p", "1.0",
        "--seed", "1", "--burn-in", "20", "--samples", "5", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "index,mean_part"


def test_cli_simulate_text(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--variant", "ejs", "--n", "12", "--p", "0.5",
        "--seed", "3", "--burn-in", "30", "--samples", "200",
    )
    assert code == 0
    assert "mean staircase distance" in out
    assert "residual" in out


ZERO_SAMPLE_CHAIN = ("simulate", "--variant", "ejs", "--n", "10", "--p", "0.5", "--seed", "3",
                     "--burn-in", "5")


def test_cli_simulate_with_no_samples_exits_0_in_every_format(capsys):
    # a chain may record no sample; the text output then has nothing to fit
    expected = {
        "text": ("variant: ejs  n: 10  p: 0.5  seed: 3\n"
                 "burn-in: 5  samples: 0\n"
                 "distinct states visited: 0\n"
                 "mean staircase distance: 0.000000\n"
                 "mean energy: 0.000\n"),
        "csv": "index,mean_part\n",
    }
    for fmt in ("text", "json", "csv"):
        code, out, err = run_cli(capsys, *ZERO_SAMPLE_CHAIN, "--samples", "0", "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out)["visit_counts"] == {}
        else:
            assert out == expected[fmt]
    # one sample is fitted as before
    code, out, err = run_cli(capsys, *ZERO_SAMPLE_CHAIN, "--samples", "1")
    assert (code, err) == (0, "")
    assert out == ("variant: ejs  n: 10  p: 0.5  seed: 3\n"
                   "burn-in: 5  samples: 1\n"
                   "distinct states visited: 1\n"
                   "mean staircase distance: 0.800000\n"
                   "mean energy: 51.000\n"
                   "linear fit residual: 1.649916\n"
                   "exponential fit residual: 0.771514\n"
                   "closer profile: exponential\n")


@pytest.mark.parametrize("argv", [
    ("--variant", "popov", "--n", "100000"),
    ("--variant", "ejs", "--n", "10", "--samples", "1000000000"),
])
def test_cli_simulate_guard_refuses_long_chains_at_once(capsys, monkeypatch, argv):
    def ran(*args, **kwargs):
        raise AssertionError("the guard let the chain start")

    monkeypatch.setattr(bsol.cli, "run_chain", ran)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", *argv, "--p", "0.5", "--seed", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_simulate_guard_counts_every_move_against_the_env_limit(capsys, monkeypatch):
    monkeypatch.setenv("BSOL_MAX_STATES", "100")
    argv = ("simulate", "--variant", "popov", "--n", "6", "--p", "0.5", "--seed", "1")
    assert run_cli(capsys, *argv, "--burn-in", "50", "--samples", "50")[0] == 0
    code, _, err = run_cli(capsys, *argv, "--burn-in", "50", "--samples", "51")
    assert code == 3 and "101 moves" in err and "limit 100" in err
    assert run_cli(capsys, *argv)[0] == 3  # the defaults, 50n + 500n = 3300 moves


def test_cli_simulate_guard_refuses_a_huge_reference_staircase(capsys, monkeypatch):
    # one move, but the statistics would compare it with a staircase of
    # 1.4e9 parts
    def ran(*args, **kwargs):
        raise AssertionError("the guard let the chain start")

    monkeypatch.setattr(bsol.cli, "run_chain", ran)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--variant", "popov", "--n", str(10**18),
                             "--p", "0.5", "--seed", "1", "--burn-in", "0", "--samples", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1414213562 parts" in err


def test_cli_simulate_staircase_guard_counts_parts_against_the_env_limit(capsys, monkeypatch):
    monkeypatch.setenv("BSOL_MAX_STATES", "4")
    argv = ("simulate", "--variant", "popov", "--p", "0.5", "--seed", "1",
            "--burn-in", "0", "--samples", "1")
    assert run_cli(capsys, *argv, "--n", "10")[0] == 0  # 10 = 4 + 3 + 2 + 1
    code, _, err = run_cli(capsys, *argv, "--n", "11")
    assert code == 3 and "5 parts" in err and "limit 4" in err


def test_cli_simulate_runs_a_large_n_under_the_staircase_guard(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--variant", "popov", "--n", str(10**12),
                           "--p", "0.5", "--seed", "1", "--burn-in", "0", "--samples", "2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["n"] == 10**12


def test_cli_simulate_bad_p_exit_2(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--variant", "popov", "--n", "6", "--p", "0", "--seed", "1")
    assert code == 2


# --- render command ---

def test_cli_render(capsys):
    code, out, _ = run_cli(capsys, "render", "--state", "4,3,3")
    assert code == 0
    assert out == "####\n###\n###\n"
    code, out, _ = run_cli(capsys, "render", "--state", "3,2,1", "--style", "cradle")
    assert code == 0
    assert out.count("#") == 6


# --- the size guard's own work ---

@pytest.mark.parametrize("argv", [
    ("--variant", "carolina", "--n", "100000"),
    ("--variant", "montreal", "--n", "20000"),
    ("--variant", "austrian", "--n", "1500000", "--L", "2"),
    ("--variant", "austrian", "--n", "81", "--L", "2"),
])
def test_cli_graph_guard_refuses_huge_spaces_at_once(capsys, monkeypatch, argv):
    # both composition strata hold all 2^(n-1) compositions, so the guard
    # refuses without counting them; an Austrian state holds up to n piles,
    # so n keeps the partition enumeration bound however few states there are
    def enumerated(*args, **kwargs):
        raise AssertionError("the guard let the enumeration start")

    monkeypatch.setattr(bsol.cli, "analyze_state_space", enumerated)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "graph", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "digits" not in err


def _total(variant, n, L=None):
    return get_variant(variant, L=L).total(n, L)


def test_montreal_size_is_the_closed_form_of_the_stratum_sum():
    # the stratum of n cards in at most n parts: (n) plus C(n-2+j, j)
    # compositions with j parts past the first
    for n in range(0, 120):
        oracle = 1 + sum(comb(n - 3 + c, c - 1) for c in range(2, n + 1))
        assert _total("montreal", n) == oracle
    for n in range(1, 10):
        assert _total("montreal", n) == len(list(enumerate_montreal_compositions(n)))


def test_cli_guard_sizes_a_huge_lifetime_at_once():
    start = time.perf_counter()
    assert _total("austrian", 12, 10**12) == _total("austrian", 12, 13)
    _check_space("austrian", 40, 10**12, DEFAULT_STATE_LIMIT)
    with pytest.raises(EnumerationBoundError, match="2\\^21 states"):
        _check_space("carolina", 22, None, DEFAULT_STATE_LIMIT)
    assert time.perf_counter() - start < 1


def test_importing_the_cli_leaves_numpy_unloaded():
    script = (
        "import sys, bsol.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "assert callable(bsol.cli.run_chain) and callable(bsol.cli.shape_profile)\n"
    )
    src = str(Path(bsol.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


# --- every subcommand, any argument vector ---

MALFORMED = st.sampled_from(["", "x", "1.5", "1e3", "--", "0x3", "7,"])
SMALL = st.one_of(st.integers(-3, 12).map(str), MALFORMED)
HUGE = st.sampled_from(["100000", "1500000", str(10**12)])  # refused by the guard
STATES = st.one_of(
    st.lists(st.integers(-1, 5), min_size=1, max_size=5).map(lambda p: ",".join(map(str, p))),
    MALFORMED,
)
FRACTIONS = st.sampled_from(["0", "0.25", "0.5", "1", "1.0", "-0.5", "1.5", "nan", "inf", "x"])


def _argv(command, required, **optional):
    """argv for one subcommand: every required flag and any of the optional
    ones.  A None value is a bare switch; flag names take dashes."""
    def flags(chosen):
        argv = [command]
        for name, value in chosen.items():
            argv.append("--" + name.replace("_", "-"))
            if value is not None:
                argv.append(value)
        return argv

    return st.fixed_dictionaries(required, optional=optional).map(flags)


def _choice(*values):
    return st.sampled_from([*values, "bogus"])


ARGV = st.one_of(
    _argv("orbit", {"state": st.one_of(STATES, HUGE)},
          variant=_choice("bulgarian", "dual", "carolina", "montreal", "austrian",
                          "servedio_yeh", "janetzko"),
          L=SMALL, bank=SMALL, pointer=SMALL, step_bound=SMALL, format=_choice("text", "json")),
    _argv("graph", {"n": st.one_of(st.integers(-3, 9).map(str), MALFORMED, HUGE)},
          variant=_choice("bulgarian", "dual", "carolina", "montreal", "austrian"),
          L=st.one_of(SMALL, HUGE), limit=SMALL, format=_choice("text", "json", "dot")),
    _argv("ge", {"n": st.one_of(SMALL, HUGE)}, limit=SMALL, format=_choice("text", "json")),
    _argv("necklaces", {"n": st.one_of(SMALL, HUGE)}, list=st.none(), limit=SMALL,
          format=_choice("text", "json")),
    _argv("knuth", {"k": st.one_of(st.integers(-3, 4).map(str), MALFORMED, HUGE)},
          limit=SMALL),
    _argv("toom", {"k": st.one_of(SMALL, HUGE)}),
    _argv("simulate", {"variant": _choice("popov", "ejs"), "n": st.one_of(SMALL, HUGE),
                       "p": FRACTIONS,
                       "seed": SMALL},
          burn_in=SMALL, samples=SMALL, initial=STATES, format=_choice("text", "json", "csv")),
    _argv("render", {"state": STATES}, style=_choice("rows", "cradle")),
    st.lists(st.sampled_from(["bogus", "graph", "--help", "--n", "3"]), max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(ARGV)
def test_cli_exit_code_contract_holds_for_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code in (3, 4):
        assert err.getvalue().startswith("error: ")


# --- memory of the exhaustive commands ---

PEAK_SCRIPT = """
import os, sys
from bsol.cli import main
sys.stdout = open(os.devnull, "w")
code = main(sys.argv[1:])
sys.stdout.close()
with open("/proc/self/status") as status:
    peak_kb = next(line for line in status if line.startswith("VmHWM:")).split()[1]
sys.__stdout__.write(f"{code} {peak_kb}")
"""


def child_peak_kb(argv, timeout=300):
    """Run the CLI in a fresh child that reads its own high-water mark: its
    ru_maxrss would never read below the peak of this test process, which
    forked it."""
    src = str(Path(bsol.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", PEAK_SCRIPT, *argv], env=env,
                            capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr
    code, peak_kb = map(int, result.stdout.split())
    assert code == 0
    return peak_kb


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("argv", [
    ("graph", "--n", "55", "--format", "json"),
    ("graph", "--variant", "dual", "--n", "55", "--format", "json"),
    ("knuth", "--k", "10"),
])
def test_exhaustive_commands_peak_under_40_mb(argv):
    # the Bulgarian and dual graphs are walked back from their cycles, so
    # memory follows the walk's depth, not the 451,276 partitions of 55
    peak_kb = child_peak_kb(argv)
    assert peak_kb < 40 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_carolina_dot_peak_under_25_mb():
    # the Carolina graph is walked back from its cycles and its DOT lines
    # come from the ascending compositions, so no map holds the 131,072
    # states: about 17 MB, against 55 MB from the forward explorer's maps
    peak_kb = child_peak_kb(("graph", "--variant", "carolina", "--n", "18", "--format", "dot"))
    assert peak_kb < 25 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_carolina_n21_peak_under_40_mb():
    # 1,048,576 compositions; the forward explorer's maps took 340 MB at this n
    peak_kb = child_peak_kb(("graph", "--variant", "carolina", "--n", "21"))
    assert peak_kb < 40 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_austrian_n70_peak_under_40_mb():
    # the Austrian graph is walked back from its one cycle, so no map holds
    # its 198,963 states; the forward explorer's maps took 166 MB here
    peak_kb = child_peak_kb(("graph", "--variant", "austrian", "--n", "70", "--L", "6"))
    assert peak_kb < 40 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_popov_chain_json_peak_under_70_mb():
    # the visit counts are written a batch at a time, not joined into one
    # string: about 62 MB, against 76.5 MB with the whole text in memory
    peak_kb = child_peak_kb(("simulate", "--variant", "popov", "--n", "210", "--p", "0.9",
                             "--seed", "1", "--format", "json"))
    assert peak_kb < 70 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_huge_n_chain_peak_under_60_mb_in_seconds():
    # the staircase of 10**12 has 1,414,214 parts; comparing each state with
    # it part by part took 28 s and 101 MB, where the distance's cost now
    # follows the state's own parts: 0.3 s and 36 MB
    peak_kb = child_peak_kb(("simulate", "--variant", "popov", "--n", str(10**12), "--p", "0.5",
                             "--seed", "1", "--burn-in", "0", "--samples", "2000",
                             "--format", "json"), timeout=20)
    assert peak_kb < 60 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"
