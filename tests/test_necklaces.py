from itertools import combinations
from math import gcd

import pytest

from bsol.partitions import enumerate_partitions, triangular_decompose
from bsol.operators import bulgarian_step
from bsol.dynamics import analyze_state_space
from bsol.necklaces import (
    Necklace,
    euler_phi,
    list_necklaces,
    necklace_count,
    necklace_of_state,
    partition_count,
)


# --- independent oracles ---

def phi_oracle(d):
    return sum(1 for a in range(1, d + 1) if gcd(a, d) == 1)


def list_necklaces_oracle(k, r):
    """Each of the C(k, r) bead placements read in its k rotations, the
    largest kept: the classes of necklaces, largest first."""
    classes = set()
    for black in combinations(range(k), r):
        beads = tuple(i in black for i in range(k))
        classes.add(max(beads[s:] + beads[:s] for s in range(k)))
    return sorted(classes, reverse=True)


def necklace_count_oracle(k, r):
    return len(list_necklaces_oracle(k, r))


# --- Euler phi ---

def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(7) == 6
    assert euler_phi(6) == 2


def test_euler_phi_rejects_zero():
    with pytest.raises(ValueError):
        euler_phi(0)


def test_euler_phi_matches_oracle():
    for d in range(1, 200):
        assert euler_phi(d) == phi_oracle(d)


# --- component-count formula ---

def test_necklace_count_examples():
    assert necklace_count(7) == 1
    assert necklace_count(6) == 1
    assert necklace_count(8) == 2
    assert necklace_count(12) == 2


def test_necklace_count_matches_brute_force():
    for n in range(1, 41):
        k, r = triangular_decompose(n)
        assert necklace_count(n) == necklace_count_oracle(k, r)


def test_necklace_count_triangular_is_one():
    for k in range(1, 13):
        assert necklace_count(k * (k + 1) // 2) == 1


def test_necklace_count_agrees_with_graph_components():
    for n in range(1, 26):
        assert necklace_count(n) == analyze_state_space(n).component_count


# --- necklace objects ---

def test_necklace_canonical_and_period():
    neck = Necklace((True, False, True, False, False))
    assert str(neck) == "BWBWW"
    assert neck.k == 5
    assert neck.period() == 5
    assert Necklace((True, False, True, False)).period() == 2
    assert Necklace((True, True, True)).period() == 1


def test_necklace_rotates_one_place_rightward():
    a = Necklace((True, False, False))
    assert a.rotated().beads == (False, True, False)
    assert a.rotated() != a  # equal beads, not equal up to rotation
    assert a.rotated().rotated().rotated() == a
    assert str(a.rotated()) == "WBW"  # the beads as held


def test_list_necklaces():
    reps = list_necklaces(4, 2)
    assert [str(x) for x in reps] == ["BBWW", "BWBW"]
    assert sum(1 for _ in list_necklaces(6, 3)) == necklace_count_oracle(6, 3)


def test_list_necklaces_matches_the_rotation_filter():
    for k in range(1, 17):
        for r in range(k + 1):
            assert [x.beads for x in list_necklaces(k, r)] == list_necklaces_oracle(k, r), (k, r)


def test_list_necklaces_gives_each_class_once_as_its_largest_rotation():
    for k in range(1, 61):
        for r in {r for r in (0, 1, 2, 3, k - 3, k - 2, k - 1, k) if 0 <= r <= k}:
            beads = [x.beads for x in list_necklaces(k, r)]
            assert all(a > b for a, b in zip(beads, beads[1:])), (k, r)
            assert all(b == max(b[s:] + b[:s] for s in range(k)) for b in beads), (k, r)
            assert len(beads) == (necklace_count((k - 1) * k // 2 + r) if r else 1), (k, r)


# --- reading a necklace off a minimal-energy state ---

def test_necklace_of_state_examples():
    assert str(necklace_of_state((3, 2, 1))) == "BBB"
    assert necklace_of_state((5, 3, 3, 1)).beads == (True, False, True, False, False)
    assert necklace_of_state((4, 2, 1)).beads == (True, False, False, False)


def test_necklace_of_state_rejects_high_energy_states():
    with pytest.raises(ValueError):
        necklace_of_state((6,))  # level 2 has a hole while level 3 is occupied
    with pytest.raises(ValueError):
        necklace_of_state((4, 3, 3))


def test_step_rotates_necklace_one_place():
    for n in range(1, 21):
        summary = analyze_state_space(n)
        for cyc in summary.cycles:
            for lam in cyc:
                before = necklace_of_state(lam)
                after = necklace_of_state(bulgarian_step(lam))
                assert after.beads == before.rotated().beads
            assert necklace_of_state(cyc[0]).period() == len(cyc)


def test_five_cycle_component_at_n12():
    summary = analyze_state_space(12)
    cyc = next(c for c in summary.cycles if (5, 3, 3, 1) in c)
    assert len(cyc) == 5
    assert str(necklace_of_state((5, 3, 3, 1))) == "BWBWW"


# --- partition counting ---

def test_partition_count_examples():
    assert partition_count(0) == 1
    assert partition_count(4) == 5
    assert partition_count(7) == 15
    assert partition_count(100) == 190569292  # classical value


def test_partition_count_matches_enumeration():
    for n in range(41):
        assert partition_count(n) == sum(1 for _ in enumerate_partitions(n))


def test_partition_count_bound():
    with pytest.raises(ValueError):
        partition_count(-1)
    with pytest.raises(ValueError):
        partition_count(201)
