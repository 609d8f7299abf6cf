import json

import pytest

from bsol.cli import main
from bsol.partitions import enumerate_partitions, format_parts
from bsol.operators import bulgarian_step, montreal_step
from bsol.dynamics import (
    StepBoundError,
    analyze_state_space,
    garden_of_eden_test,
    garden_of_eden_texts,
    ge_reachability_check,
    get_variant,
    knuth_exponent_check,
    orbit,
    tail_cycle,
    toom_path,
)

OPENING_GAME = [
    (4, 3, 3),
    (3, 3, 2, 2),
    (4, 2, 2, 1, 1),
    (5, 3, 1, 1),
    (4, 4, 2),
    (3, 3, 3, 1),
    (4, 2, 2, 2),
    (4, 3, 1, 1, 1),
    (5, 3, 2),
    (4, 3, 2, 1),
]


def brute_force_predecessors(lam):
    """In-degree oracle: scan all of P(n) for states mapping onto lam."""
    return [mu for mu in enumerate_partitions(sum(lam)) if bulgarian_step(mu) == lam]


# --- orbit ---

def test_orbit_of_opening_game():
    res = orbit((4, 3, 3), bulgarian_step)
    assert res.tail == 9
    assert res.cycle == ((4, 3, 2, 1),)
    assert res.cycle_length == 1
    assert list(res.path[:10]) == OPENING_GAME
    assert len(res.path) == res.tail + res.cycle_length + 1
    assert res.path[-1] == res.path[res.tail]


def test_orbit_on_a_cycle():
    res = orbit((4, 2, 1), bulgarian_step)
    assert res.tail == 0
    assert res.cycle == ((4, 2, 1), (3, 3, 1), (3, 2, 2), (3, 2, 1, 1))
    assert res.cycle_length == 4


def test_orbit_path_invariants():
    for n in (5, 9):
        for lam in enumerate_partitions(n):
            res = orbit(lam, bulgarian_step)
            body = res.path[:-1]
            assert len(set(body)) == len(body)
            assert res.path[res.tail + res.cycle_length] == res.path[res.tail]
            assert bulgarian_step(res.cycle[-1]) == res.cycle[0]


def test_orbit_montreal_18_cycle():
    res = orbit((3, 2, 2), montreal_step)
    assert res.tail == 0
    assert res.cycle_length == 18


def test_orbit_step_bound():
    with pytest.raises(StepBoundError):
        orbit((4, 3, 3), bulgarian_step, step_bound=3)


def test_tail_cycle_returns_within_a_bound_below_one_move():
    # the first move is always made and tested for a repeat before the
    # bound is, so a fixed point passes any bound, and no other start does
    for bound in (0, -3):
        assert tail_cycle((3, 2, 1), bulgarian_step, bound) == (0, 1)
    with pytest.raises(StepBoundError):
        tail_cycle((4, 3, 3), bulgarian_step, 0)


# --- state-space analysis ---

def test_analyze_bulgarian_small_n():
    g6 = analyze_state_space(6)
    assert g6.component_count == 1
    assert g6.cycles == (((3, 2, 1),),)
    assert g6.state_count == 11

    g7 = analyze_state_space(7)
    assert g7.component_count == 1
    assert len(g7.cycles[0]) == 4

    g8 = analyze_state_space(8)
    assert g8.component_count == 2


def test_analyze_cycles_are_canonical_and_disjoint():
    g = analyze_state_space(12)
    seen = set()
    for cyc in g.cycles:
        assert min(cyc) == cyc[0]  # rotated to start at the smallest state
        assert not (set(cyc) & seen)
        seen |= set(cyc)
        for a, b in zip(cyc, cyc[1:]):
            assert bulgarian_step(a) == b
        assert bulgarian_step(cyc[-1]) == cyc[0]


def test_cycles_are_energy_plateaus():
    from bsol.partitions import potential_energy

    for n in range(1, 16):
        summary = analyze_state_space(n)
        floor = {}
        for cyc in summary.cycles:
            energies = {potential_energy(lam) for lam in cyc}
            assert len(energies) == 1  # the cycle sits on one energy level
            floor[cyc[0]] = energies.pop()
        for lam in enumerate_partitions(n):
            res = orbit(lam, bulgarian_step)
            cycle_energy = potential_energy(res.cycle[0])
            assert potential_energy(lam) >= cycle_energy
            if res.tail and potential_energy(lam) > cycle_energy:
                # strictly higher energy must eventually drop
                assert any(
                    potential_energy(s) < potential_energy(lam) for s in res.path[1:]
                )


def test_cycle_lengths_divide_k():
    from bsol.partitions import triangular_decompose

    for n in range(1, 31):
        k, _ = triangular_decompose(n)
        for length in analyze_state_space(n).cycle_lengths:
            assert k % length == 0


def test_analyze_max_tail_matches_direct_orbits():
    g = analyze_state_space(10)
    worst = max(orbit(lam, bulgarian_step).tail for lam in enumerate_partitions(10))
    assert g.max_tail == worst


def test_analyze_ge_states_match_indegree_oracle():
    g = analyze_state_space(9)
    expected = {
        lam for lam in enumerate_partitions(9) if not brute_force_predecessors(lam)
    }
    assert set(g.ge_states) == expected


def test_analyze_montreal_has_no_garden_of_eden():
    g = analyze_state_space(6, variant="montreal")
    assert g.ge_states == ()
    assert g.max_tail == 0


def test_analyze_carolina_triangular_collapses():
    g = analyze_state_space(6, variant="carolina")
    assert g.cycles == (((3, 2, 1),),)


def test_analyze_austrian_variant():
    g = analyze_state_space(5, variant="austrian", L=3)
    assert g.component_count >= 1
    total = lambda s: sum(s.piles) + s.bank
    for cyc in g.cycles:
        assert all(total(s) == 5 for s in cyc)


# --- Garden of Eden ---

def test_garden_of_eden_examples():
    assert garden_of_eden_test((1, 1, 1, 1)) is True
    assert garden_of_eden_test((4, 2, 1)) is False
    assert garden_of_eden_test((2, 2, 2, 2, 2)) is True


def test_garden_of_eden_rejects_empty():
    with pytest.raises(ValueError):
        garden_of_eden_test(())


def test_garden_of_eden_matches_brute_force():
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            assert garden_of_eden_test(lam) == (not brute_force_predecessors(lam))


def test_garden_of_eden_texts_match_the_filter():
    # the text listing runs ZS1, in reverse-lexicographic order: the tuples
    # and the test it replaces are its oracle, order and bytes included
    for n in range(46):
        expected = [format_parts(lam) for lam in sorted(enumerate_partitions(n), reverse=True)
                    if lam and garden_of_eden_test(lam)]
        assert list(garden_of_eden_texts(n)) == expected
    with pytest.raises(ValueError):
        next(garden_of_eden_texts(-1))


# --- classical checks ---

def test_knuth_exponent_small_k():
    for k in range(1, 6):
        report = knuth_exponent_check(k)
        assert report.holds
        assert report.witnesses == ()
        assert report.exponent == k * (k - 1)


def test_toom_path_examples():
    r3 = toom_path(3)
    assert r3.tau == (2, 2, 1, 1)
    assert r3.minimal_steps == 6
    assert r3.conjugacy_holds
    assert r3.path[:7] == (
        (2, 2, 1, 1),
        (4, 1, 1),
        (3, 3),
        (2, 2, 2),
        (3, 1, 1, 1),
        (4, 2),
        (3, 2, 1),
    )

    r2 = toom_path(2)
    assert r2.tau == (1, 1, 1)
    assert r2.minimal_steps == 2

    r4 = toom_path(4)
    assert r4.tau == (3, 3, 2, 1, 1)
    assert r4.minimal_steps == 12
    assert r4.conjugacy_holds


def test_ge_reachability_small():
    rep = ge_reachability_check(3)
    assert rep.holds
    (witness,) = rep.witnesses
    assert witness.ge_state == (1, 1, 1)
    assert witness.path[:3] == ((1, 1, 1), (3,), (2, 1))

    rep7 = ge_reachability_check(7)
    assert rep7.holds
    assert any(w.ge_state == (1, 1, 1, 1, 1, 1, 1) for w in rep7.witnesses)

    rep8 = ge_reachability_check(8)
    assert rep8.holds
    assert len(rep8.witnesses) == 2


def test_ge_reachability_requires_n_at_least_3():
    with pytest.raises(ValueError):
        ge_reachability_check(2)


def test_ge_reachability_witnesses_replay():
    rep = ge_reachability_check(12)
    for w in rep.witnesses:
        assert garden_of_eden_test(w.ge_state)
        for a, b in zip(w.path, w.path[1:]):
            assert bulgarian_step(a) == b
        assert w.path[-1] in set(w.cycle)


# --- exports ---

def test_graph_dot_export():
    g = analyze_state_space(6)
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert '"3,2,1" -> "3,2,1"' in dot
    assert dot.count("->") == g.state_count
    # GE nodes carry a distinguishing attribute
    assert '"1,1,1,1,1,1" [ge=true' in dot


def test_graph_dot_needs_no_flag_and_matches_the_cli(capsys):
    # every summary streams its edges, so to_dot() is the CLI's DOT output
    dot = analyze_state_space(6).to_dot()
    assert main(["graph", "--n", "6", "--format", "dot"]) == 0
    assert capsys.readouterr().out == dot + "\n"


def test_graph_json_roundtrip_shape():
    g = analyze_state_space(8)
    data = json.loads(g.to_json())
    assert data["n"] == 8
    assert data["variant"] == "bulgarian"
    assert data["component_count"] == 2
    assert len(data["cycles"]) == 2
    assert data["state_count"] == 22


def test_variant_registry():
    v = get_variant("bulgarian")
    assert v.step((4, 3, 3)) == (3, 3, 2, 2)
    assert get_variant("austrian", L=3).name == "austrian"
    with pytest.raises(ValueError):
        get_variant("nope")
    with pytest.raises(ValueError):
        get_variant("austrian")  # needs L
