import pytest
from hypothesis import given, strategies as st

from bsol.partitions import (
    conjugate,
    enumerate_compositions,
    enumerate_montreal_compositions,
    enumerate_partitions,
    format_parts,
    is_partition,
    normalize,
    parse_parts,
    potential_energy,
    staircase,
    triangular_decompose,
)


# --- independent oracles ---

def conjugate_oracle(lam):
    """Part i of the conjugate counts parts of lam that are >= i."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def energy_oracle(lam):
    """Closed-form energy: sum_i [i*lam_i + lam_i*(lam_i+1)/2]."""
    return sum(i * p + p * (p + 1) // 2 for i, p in enumerate(lam, 1))


def partition_count_oracle(n):
    """p(n) by the textbook bounded-largest-part recursion."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][k] if m >= k else 0)
    return table[n][n]


# --- normalize ---

def test_normalize_examples():
    assert normalize((3, 2, 1)) == (3, 2, 1)
    assert normalize((3, 5, 2)) == (5, 3, 2)
    assert normalize((0, 0)) == ()
    assert normalize(()) == ()


def test_normalize_rejects_negative():
    with pytest.raises(ValueError):
        normalize((3, -1))


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=12))
def test_normalize_idempotent_and_order_invariant(raw):
    lam = normalize(raw)
    assert is_partition(lam)
    assert normalize(lam) == lam
    assert normalize(sorted(raw)) == lam
    assert sum(lam) == sum(raw)


# --- conjugate ---

def test_conjugate_examples():
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert conjugate((4, 3, 3)) == (3, 3, 3, 1)
    assert conjugate((6,)) == (1, 1, 1, 1, 1, 1)
    assert conjugate(()) == ()


def test_conjugate_matches_oracle_and_is_involution():
    for n in range(31):
        for lam in enumerate_partitions(n):
            assert conjugate(lam) == conjugate_oracle(lam)
            assert conjugate(conjugate(lam)) == lam


# --- triangular decomposition ---

def test_triangular_decompose_examples():
    assert triangular_decompose(7) == (4, 1)
    assert triangular_decompose(6) == (3, 3)
    assert triangular_decompose(1) == (1, 1)


def test_triangular_decompose_rejects_zero():
    with pytest.raises(ValueError):
        triangular_decompose(0)


def test_triangular_decompose_brackets():
    for n in range(1, 500):
        k, r = triangular_decompose(n)
        assert (k - 1) * k // 2 < n <= k * (k + 1) // 2
        assert 0 < r <= k
        assert n == (k - 1) * k // 2 + r


def test_triangular_numbers_give_r_equal_k():
    for k in range(1, 101):
        assert triangular_decompose(k * (k + 1) // 2) == (k, k)


# --- potential energy ---

def test_energy_examples():
    assert potential_energy((1,)) == 2
    assert potential_energy((3, 2, 1)) == 20
    assert potential_energy((6, 3, 1)) == 43
    assert potential_energy((5, 3, 2)) == 41
    assert potential_energy(()) == 0


def test_energy_matches_closed_form():
    for n in range(21):
        for lam in enumerate_partitions(n):
            assert potential_energy(lam) == energy_oracle(lam)


# --- enumeration ---

def test_enumerate_partitions_small():
    assert list(enumerate_partitions(0)) == [()]
    assert list(enumerate_partitions(4)) == [
        (1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,),
    ]
    assert len(list(enumerate_partitions(7))) == 15


def test_enumerate_partitions_counts_match_oracle():
    for n in range(51):
        count = sum(1 for _ in enumerate_partitions(n))
        assert count == partition_count_oracle(n)


def test_enumerate_partitions_ascending_and_canonical():
    for n in (9, 13):
        seen = list(enumerate_partitions(n))
        assert all(is_partition(lam) and sum(lam) == n for lam in seen)
        assert len(set(seen)) == len(seen)
        assert seen == sorted(seen)


def test_enumerators_are_lazy_and_unbounded():
    # the library sets no size bound; the first state of a huge space comes at once
    assert next(enumerate_partitions(10**6)) == (1,) * 10**6
    assert next(enumerate_compositions(10**6)) == (1,) * 10**6


def test_enumerate_partitions_max_part():
    got = list(enumerate_partitions(5, max_part=2))
    assert got == [(1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1)]
    for n in range(12):
        everything = list(enumerate_partitions(n, max_part=n if n else 1))
        assert everything == list(enumerate_partitions(n))


def test_enumerate_compositions_small():
    assert list(enumerate_compositions(1)) == [(1,)]
    assert list(enumerate_compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(list(enumerate_compositions(5))) == 16


def test_enumerate_compositions_count():
    for n in range(1, 13):
        comps = list(enumerate_compositions(n))
        assert len(comps) == 2 ** (n - 1)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == n and min(c) >= 1 for c in comps)


def stars_and_bars_montreal_count(n, max_len):
    from math import comb
    total = 1 if n >= 1 else 0  # length 1: (n)
    for c in range(2, max_len + 1):
        total += comb(n - 2 + c - 1, c - 1)
    return total


def test_enumerate_montreal_compositions():
    assert list(enumerate_montreal_compositions(1)) == [(1,)]
    got = set(enumerate_montreal_compositions(3))
    assert got == {(3,), (2, 1), (1, 2), (1, 1, 1), (1, 0, 2), (2, 0, 1)}


def test_enumerate_montreal_counts():
    for n in range(1, 9):
        comps = list(enumerate_montreal_compositions(n))
        assert len(comps) == len(set(comps))
        assert len(comps) == stars_and_bars_montreal_count(n, n)
        for c in comps:
            assert sum(c) == n
            assert c[0] >= 1 and c[-1] >= 1
            assert all(v >= 0 for v in c)
            assert len(c) <= n


# --- staircase and text format ---

def test_staircase():
    assert staircase(1) == (1,)
    assert staircase(4) == (4, 3, 2, 1)
    assert sum(staircase(8)) == 36


def test_format_and_parse_parts():
    assert format_parts((4, 3, 3)) == "4,3,3"
    assert parse_parts("4,3,3") == (4, 3, 3)
    assert parse_parts("1,0,2") == (1, 0, 2)
    assert format_parts(()) == "0"
    assert parse_parts("0") == (0,)
    with pytest.raises(ValueError):
        parse_parts("4,,3")
    with pytest.raises(ValueError):
        parse_parts("4,x")
    with pytest.raises(ValueError):
        parse_parts("4,-1")
    with pytest.raises(ValueError):
        parse_parts("")
