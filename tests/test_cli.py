import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import bsol.cli
from bsol.operators import AustrianState, PointerState
from bsol.partitions import (
    EnumerationBoundError,
    enumerate_compositions,
    enumerate_montreal_compositions,
    enumerate_partitions,
    format_parts,
    triangular_decompose,
)
from bsol.cli import DEFAULT_STATE_LIMIT, _check_space, main, parse_state, render_young
from bsol.dynamics import _CHUNK, _knuth_check, get_variant, state_to_jsonable


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
    data = json.loads(json.dumps(state_to_jsonable(AustrianState((3, 1), 2, 3))))
    assert data == {"piles": [3, 1], "bank": 2, "L": 3}
    data = json.loads(json.dumps(state_to_jsonable(PointerState((2, 0, 1), 3))))
    assert data == {"piles": [2, 0, 1], "pointer": 3}


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


def test_cli_orbit_janetzko_past_the_old_guess_of_a_bound(capsys):
    # a plain cycle of 4,830 moves, past 4(n + seats)^2 = 1,444; the default
    # bound is the 51,408 states of 13 cards on 6 seats with a pointer
    code, out, err = run_cli(capsys, "orbit", "--variant", "janetzko", "--state", "2,2,3,2,2,2",
                             "--pointer", "5")
    assert (code, err) == (0, "")
    assert "tail length: 0\ncycle length: 4830\n" in out


def test_cli_orbit_counts_its_moves_against_the_state_limit(capsys, monkeypatch):
    # each move visits a state: the 4,830 moves of this cycle pass a limit
    # one below them with exit 3, before anything is printed, and not the
    # limit itself
    argv = ("orbit", "--variant", "janetzko", "--state", "2,2,3,2,2,2", "--pointer", "5")
    monkeypatch.setenv("BSOL_MAX_STATES", "4829")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == ("error: no repetition within 4829 steps from 2,2,3,2,2,2;ptr=5: "
                   "the orbit visits more than the limit of 4829 states\n")
    monkeypatch.setenv("BSOL_MAX_STATES", "4830")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "tail length: 0\ncycle length: 4830\n" in out


def test_cli_orbit_at_a_state_limit_of_0_exits_3(capsys, monkeypatch):
    # the first move visits a state, so a fixed point passes a limit of 0
    # too, as a chain's first move does
    monkeypatch.setenv("BSOL_MAX_STATES", "0")
    for state in ("3,2,1", "4,3,3"):
        assert run_cli(capsys, "orbit", "--state", state) == (
            3, "", "error: an orbit visits at least 1 state, over the limit 0\n")


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

    monkeypatch.setattr(bsol.cli, "tail_cycle", walked)
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


def test_cli_graph_limit_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("BSOL_MAX_STATES", "10")
    code, _, err = run_cli(capsys, "graph", "--n", "8")
    assert code == 3
    assert "22" in err


@pytest.mark.parametrize("limit, code", [("4000", 3), ("5527", 3), ("5528", 0)])
def test_cli_graph_montreal_counts_visited_states_against_the_limit(capsys, monkeypatch,
                                                                   limit, code):
    # the 3,432 seeds at n = 8 pass the limit, but their orbits visit 5,528 states
    monkeypatch.setenv("BSOL_MAX_STATES", limit)
    got, out, err = run_cli(capsys, "graph", "--variant", "montreal", "--n", "8")
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
    monkeypatch.setenv("BSOL_MAX_STATES", "-1")
    code, out, err = run_cli(capsys, "graph", "--n", "5")
    assert code == 2
    assert out == ""
    assert "BSOL_MAX_STATES must be nonnegative" in err


@pytest.mark.parametrize("argv", [
    ("orbit", "--state", "4,3,3", "--step-bound", "5"),
    *[(command, "--n", "8", "--limit", "5") for command in ("graph", "ge", "necklaces")],
    ("knuth", "--k", "3", "--limit", "5"),
])
def test_cli_size_flags_are_usage_errors(capsys, argv):
    # BSOL_MAX_STATES is the one size knob: no subcommand takes a flag for it
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and "unrecognized arguments" in err
    assert "Traceback" not in err
    code, usage, _ = run_cli(capsys, argv[0], "--help")
    assert code == 0 and "--limit" not in usage and "--step-bound" not in usage


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


def test_cli_graph_n_0(capsys, monkeypatch):
    # the empty partition is the one state of the Bulgarian and Austrian
    # games; the dual move needs a pile to deal out, and compositions start
    # at 1, whatever the limit
    for argv in (("--variant", "bulgarian"), ("--variant", "austrian", "--L", "2")):
        code, out, err = run_cli(capsys, "graph", "--n", "0", "--format", "json", *argv)
        assert code == 0
        assert err == ""
        assert json.loads(out)["state_count"] == 1
    for limit in (str(DEFAULT_STATE_LIMIT), "0"):
        monkeypatch.setenv("BSOL_MAX_STATES", limit)
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
    for n in ("0", "1", "2"):  # no Garden of Eden state below n = 3
        assert run_cli(capsys, "ge", "--n", n)[:2] == (0, "")
        assert run_cli(capsys, "ge", "--n", n, "--format", "json")[:2] == (0, "[]\n")
    # the lines are the parts of the filtered tuples in reverse-lexicographic
    # order, and the JSON list reads as json.dumps writes it, [] below n = 3;
    # from n = 25 on it crosses the writer's chunks
    for n in range(31):
        ge = [lam for lam in sorted(enumerate_partitions(n), reverse=True)
              if lam and lam[0] < len(lam) - 1]
        code, out, _ = run_cli(capsys, "ge", "--n", str(n))
        assert (code, out) == (0, "".join(",".join(map(str, lam)) + "\n" for lam in ge))
        code, out, _ = run_cli(capsys, "ge", "--n", str(n), "--format", "json")
        assert (code, out) == (0, json.dumps(list(map(list, ge)), separators=(",", ":")) + "\n")
    assert len(out) > _CHUNK


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


def test_cli_necklaces_list_under_the_guard(capsys):
    # k = 19, r = 9: 4,862 necklaces of 19 beads, 92,378 beads written
    code, out, _ = run_cli(capsys, "necklaces", "--n", "180", "--list")
    head, *rows = out.splitlines()
    assert code == 0 and head == "n=180: k=19, r=9, components=4862"
    assert len(rows) == 4862 and rows[0].startswith("BBBBBBBBBW")


def test_cli_necklaces_list_guard_counts_the_beads_written(capsys, monkeypatch):
    # n = 287: k = 24, r = 11, 104,006 necklaces of 24 beads, 2,496,144 in all
    def listed(*args):
        raise AssertionError("the guard let the listing start")

    monkeypatch.setattr(bsol.cli, "list_necklaces", listed)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "necklaces", "--n", "287", "--list")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == f"error: listing 104006 necklaces writes 2496144 beads, " \
                  f"over the limit {DEFAULT_STATE_LIMIT}\n"


@pytest.mark.parametrize("n, count", [(264, 58786), (286, 81752)])
def test_cli_necklaces_list_guard_admits_what_it_writes(capsys, n, count):
    # n = 264 (k = 23, r = 11) writes 1,352,078 beads and n = 286 (k = 24,
    # r = 10) 1,962,048, both under the default limit
    k, r = triangular_decompose(n)
    assert count * k <= DEFAULT_STATE_LIMIT
    code, out, err = run_cli(capsys, "necklaces", "--n", str(n), "--list")
    head, *rows = out.splitlines()
    assert (code, err, head) == (0, "", f"n={n}: k={k}, r={r}, components={count}")
    assert len(rows) == count and len(set(rows)) == count


# n = 998992: k = 1,414, r = 1, which the rotation filter took 23 to 32 s to
# list; n = 102023469: k = 14,284, r = k - 1, where no recursion limit binds
@pytest.mark.parametrize("n", [998992, 102023469])
def test_cli_necklaces_list_one_long_necklace_at_once(capsys, n):
    k, r = triangular_decompose(n)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "necklaces", "--n", str(n), "--list")
    assert time.perf_counter() - start < 5
    head, *rows = out.splitlines()
    assert (code, err, rows) == (0, "", ["B" * r + "W" * (k - r) + f"  period={k}"])


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
    # in reverse-lexicographic order
    assert exceptions == [f"exception: {format_parts(lam)}"
                          for lam in sorted(enumerate_partitions(6), reverse=True)
                          if lam != (3, 2, 1)]


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


def test_cli_toom_counts_its_path_against_the_state_limit(capsys, monkeypatch):
    # the path from tau to the staircase holds k(k-1) = 20 states at k = 5
    monkeypatch.setenv("BSOL_MAX_STATES", "19")
    assert run_cli(capsys, "toom", "--k", "5") == (
        3, "", "error: toom at k=5 walks 20 steps, over the limit 19\n")
    monkeypatch.setenv("BSOL_MAX_STATES", "20")
    code, out, err = run_cli(capsys, "toom", "--k", "5")
    assert (code, err) == (0, "")
    assert out == ("k=5: tau = 4,4,3,2,1,1\nsteps to staircase: 20 (expected 20)\n"
                   "conjugacy symmetry: holds\n")
    # a k below 2 is a usage error at any limit
    for limit in ("0", "20"):
        monkeypatch.setenv("BSOL_MAX_STATES", limit)
        for k in ("-3", "1"):
            assert run_cli(capsys, "toom", "--k", k)[0] == 2


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


def test_cli_simulate_refuses_an_n_past_a_c_long(capsys):
    # numpy draws a pile's binomial as a C long, so n stops below 2^63;
    # the distance to the staircase costs the state's own parts, not its k
    argv = ("simulate", "--p", "0.5", "--seed", "1", "--burn-in", "0", "--samples", "1")
    for variant in ("popov", "ejs"):
        code, out, _ = run_cli(capsys, *argv, "--variant", variant, "--n", str(2**63 - 1))
        assert code == 0 and "distinct states visited: 1" in out
        code, out, err = run_cli(capsys, *argv, "--variant", variant, "--n", str(2**63))
        assert (code, out) == (2, "")
        assert err == f"error: n must be below 2^63, got {2**63}\n"


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


@pytest.mark.parametrize("argv", [
    ("--state", "100000000000"),
    ("--state", "30000,30000", "--style", "cradle"),
])
def test_cli_render_refuses_a_huge_diagram_before_drawing(capsys, argv):
    # each once printed a MemoryError traceback under a 1 GB address-space cap
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "render", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "over the limit 2000000" in err


@pytest.mark.parametrize("style, size", [("rows", 12), ("cradle", 64)])
def test_cli_render_counts_its_characters_against_the_state_limit(capsys, monkeypatch,
                                                                 style, size):
    # (5, 3, 3, 1) has 12 cells, and its cradle a grid of at most (4 + 5 - 1)^2
    argv = ("render", "--state", "5,3,3,1", "--style", style)
    monkeypatch.setenv("BSOL_MAX_STATES", str(size - 1))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: the diagram has {size} characters, over the limit {size - 1}\n"
    monkeypatch.setenv("BSOL_MAX_STATES", str(size))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.count("#") == 12


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
    # compositions with j parts past the first; 0 cards make no composition
    # with positive endpoints
    assert _total("montreal", 0) == 0
    for n in range(1, 120):
        oracle = 1 + sum(comb(n - 3 + c, c - 1) for c in range(2, n + 1))
        assert _total("montreal", n) == oracle
    for n in range(1, 10):
        assert _total("montreal", n) == len(list(enumerate_montreal_compositions(n)))


def test_cli_guard_sizes_a_huge_lifetime_at_once():
    start = time.perf_counter()
    assert _total("austrian", 12, 10**12) == _total("austrian", 12, 13)
    _check_space("austrian", 40, 10**12)
    with pytest.raises(EnumerationBoundError, match="2\\^21 states"):
        _check_space("carolina", 22, None)
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
          L=SMALL, bank=SMALL, pointer=SMALL, format=_choice("text", "json")),
    _argv("graph", {"n": st.one_of(st.integers(-3, 9).map(str), MALFORMED, HUGE)},
          variant=_choice("bulgarian", "dual", "carolina", "montreal", "austrian"),
          L=st.one_of(SMALL, HUGE), format=_choice("text", "json", "dot")),
    _argv("ge", {"n": st.one_of(SMALL, HUGE)}, format=_choice("text", "json")),
    _argv("necklaces", {"n": st.one_of(SMALL, HUGE)}, list=st.none(),
          format=_choice("text", "json")),
    _argv("knuth", {"k": st.one_of(st.integers(-3, 4).map(str), MALFORMED, HUGE)}),
    _argv("toom", {"k": st.one_of(SMALL, HUGE)}),
    _argv("simulate", {"variant": _choice("popov", "ejs"), "n": st.one_of(SMALL, HUGE),
                       "p": FRACTIONS,
                       "seed": SMALL},
          burn_in=SMALL, samples=SMALL, initial=STATES, format=_choice("text", "json", "csv")),
    _argv("render", {"state": st.one_of(STATES, HUGE)}, style=_choice("rows", "cradle")),
    st.lists(st.sampled_from(["bogus", "graph", "--help", "--n", "3"]), max_size=3),
)


class CountingSink(io.TextIOBase):
    """A stdout that keeps nothing and counts the characters written."""

    size = 0

    def writable(self):
        return True

    def write(self, text):
        self.size += len(text)
        return len(text)


# the commands whose every run visits a state
LIMITED = ("orbit", "graph", "ge", "knuth", "toom", "simulate")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(ARGV, st.sampled_from(["0", "1", "60"]))
# a fixed point once passed a limit of 0 with exit 0
@example(["orbit", "--state", "3,2,1"], "0")
# usage text at a limit of 0 is a success: it visits no state
@example(["graph", "--help"], "0")
# BSOL_MAX_STATES is the one size knob: a size flag is a usage error
@example(["graph", "--n", "8", "--limit", "5"], "60")
@example(["orbit", "--state", "4,3,3", "--step-bound", "5"], "60")
# chains past a C long once died in numpy or in float sums at a raised limit
@example(["simulate", "--variant", "ejs", "--n", str(10**19), "--p", "0.5", "--seed", "1",
          "--burn-in", "0", "--samples", "1"], "10000000000")
@example(["simulate", "--variant", "popov", "--n", str(10**200), "--p", "0.5", "--seed", "1",
          "--burn-in", "0", "--samples", "1"], str(10**101))
def test_cli_exit_code_contract_holds_for_any_argv(argv, env_limit):
    out, err = CountingSink(), io.StringIO()
    with mock.patch.dict(os.environ, {"BSOL_MAX_STATES": env_limit}), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code in (3, 4):
        assert err.getvalue().startswith("error: ")
    if code == 3:  # every guard refuses before anything is printed
        assert out.size == 0
    if env_limit == "0" and argv and argv[0] in LIMITED and "--help" not in argv:
        assert code != 0


@pytest.mark.parametrize("argv", [
    ("graph", "--n", "30", "--format", "dot"),
    ("ge", "--n", "40"),
    ("orbit", "--variant", "janetzko", "--state", "2,2,3,2,2,2", "--pointer", "5"),
    ("simulate", "--variant", "popov", "--n", "60", "--p", "0.5", "--seed", "1",
     "--format", "json"),
])
def test_cli_exits_0_when_the_reader_closes_the_pipe(argv):
    # the reader takes a few bytes and stops, as `| head -c 10` does; each
    # output runs past 100 KB, well past the pipe's buffer, so the writer
    # meets the closed pipe, and the rest goes nowhere
    src = str(Path(bsol.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    child = subprocess.Popen([sys.executable, "-m", "bsol.cli", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = child.stdout.read(10)
    child.stdout.close()
    err = child.communicate(timeout=60)[1]
    assert (len(head), child.returncode, err) == (10, 0, b"")


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
def test_montreal_orbit_of_4000_cards_peak_under_25_mb():
    # the cycle finder holds O(1) states and the path is written as it is
    # walked again; a map of every state took 108.6 MB here
    peak_kb = child_peak_kb(("orbit", "--variant", "montreal", "--state", "4000"))
    assert peak_kb < 25 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("argv", [
    ("graph", "--variant", "montreal", "--n", "10"),
    ("graph", "--variant", "montreal", "--n", "10", "--format", "json"),
])
def test_montreal_graph_peak_under_22_mb(argv):
    # only each cycle's smallest state is kept, and the cycles are walked
    # again as they are written: about 18 MB, against 33.2 MB with a set of
    # all 82,727 states and 182.6 MB with the cycles in json's encoder
    peak_kb = child_peak_kb(argv)
    assert peak_kb < 22 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_popov_chain_json_peak_under_55_mb():
    # the benchmark's popov chain visits 104,985 distinct states in 105,000
    # samples; they are counted as packed bytes and written a batch at a
    # time: about 48.5 MB, against 62.7 MB with tuple keys and 76.5 MB with
    # the whole text in memory
    peak_kb = child_peak_kb(("simulate", "--variant", "popov", "--n", "210", "--p", "0.9",
                             "--seed", "1097127993", "--format", "json"))
    assert peak_kb < 55 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_huge_n_chain_peak_under_60_mb_in_seconds():
    # the staircase of 10**12 has 1,414,214 parts; comparing each state with
    # it part by part took 28 s and 101 MB, where the distance's cost now
    # follows the state's own parts: 0.3 s and 36 MB
    peak_kb = child_peak_kb(("simulate", "--variant", "popov", "--n", str(10**12), "--p", "0.5",
                             "--seed", "1", "--burn-in", "0", "--samples", "2000",
                             "--format", "json"), timeout=20)
    assert peak_kb < 60 * 1024, f"peak RSS {peak_kb / 1024:.1f} MB"
