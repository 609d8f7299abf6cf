"""Differential tests: each fast chain-path body against the loop it replaced.

The oracles below are the earlier box-by-box and index-by-index
implementations, kept verbatim as references.  Results are compared with
==, floats included, because the arithmetic is the same integer total
divided by the same n; a ValueError must be raised by both or by neither,
with the same message.
"""

from itertools import combinations, product

from hypothesis import given, settings, strategies as st

from bsol.operators import ejs_masked_step, popov_masked_step
from bsol.partitions import enumerate_partitions, normalize, potential_energy, triangular_decompose
from bsol.stochastic import staircase_distance


# --- reference oracles ---

def potential_energy_oracle(lam):
    total = 0
    for i, p in enumerate(lam, 1):
        for j in range(1, p + 1):
            total += i + j
    return total


def staircase_distance_oracle(lam):
    n = sum(lam)
    if n == 0:
        return 0.0
    k, _ = triangular_decompose(n)
    width = max(len(lam), k)
    total = 0
    for i in range(1, width + 1):
        part = lam[i - 1] if i <= len(lam) else 0
        total += abs(part - max(k + 1 - i, 0))
    return total / n


def popov_masked_step_oracle(lam, mask):
    idx = set(mask)
    if any(i < 0 or i >= len(lam) for i in idx):
        raise ValueError(f"mask {sorted(idx)} out of range for {len(lam)} piles")
    parts = [p - 1 if i in idx else p for i, p in enumerate(lam)]
    if idx:
        parts.append(len(idx))
    return normalize(parts)


def ejs_masked_step_oracle(lam, picks):
    if len(picks) != len(lam):
        raise ValueError(f"picks length {len(picks)} != pile count {len(lam)}")
    if any(k < 0 or k > p for k, p in zip(picks, lam)):
        raise ValueError(f"picks {picks} out of range for {lam}")
    parts = [p - k for p, k in zip(lam, picks)]
    taken = sum(picks)
    if taken > 0:
        parts.append(taken)
    return normalize(parts)


def outcome(fn, *args):
    """The result, or the ValueError's message, so both can be compared."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def small_partitions(max_n=14):
    for n in range(max_n + 1):
        yield from enumerate_partitions(n)


# --- exhaustive over every partition of n <= 14 ---

def test_energy_and_distance_match_oracles_exhaustively():
    for lam in small_partitions():
        assert potential_energy(lam) == potential_energy_oracle(lam)
        assert staircase_distance(lam) == staircase_distance_oracle(lam)


def test_popov_masked_step_matches_oracle_on_every_mask():
    for lam in small_partitions():
        c = len(lam)
        for size in range(c + 1):
            for mask in combinations(range(c), size):
                assert popov_masked_step(lam, mask) == popov_masked_step_oracle(lam, mask)
        for bad in ((c,), (-1,), (0, c + 3)):
            assert outcome(popov_masked_step, lam, bad) == outcome(popov_masked_step_oracle, lam, bad)
            assert outcome(popov_masked_step, lam, bad)[:1] == ("ValueError",)


def test_ejs_masked_step_matches_oracle_on_every_pick_vector():
    for lam in small_partitions():
        for picks in product(*(range(p + 1) for p in lam)):
            assert ejs_masked_step(lam, picks) == ejs_masked_step_oracle(lam, picks)
        bad_picks = [lam + (0,)]
        if lam:
            bad_picks += [(lam[0] + 1,) + lam[1:], lam[:-1] + (-1,), lam[:-1]]
        for bad in bad_picks:
            assert outcome(ejs_masked_step, lam, bad) == outcome(ejs_masked_step_oracle, lam, bad)
            assert outcome(ejs_masked_step, lam, bad)[:1] == ("ValueError",)


# --- random partitions up to n = 210 ---

@st.composite
def partitions(draw, max_n=210):
    left = draw(st.integers(0, max_n))
    parts = []
    while left:
        part = draw(st.integers(1, left))
        parts.append(part)
        left -= part
    return normalize(parts)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fast_bodies_match_oracles_on_random_partitions(data):
    lam = data.draw(partitions())
    c = len(lam)
    assert potential_energy(lam) == potential_energy_oracle(lam)
    assert staircase_distance(lam) == staircase_distance_oracle(lam)

    # masks may repeat an index; a stray one points past either end of the piles
    mask = data.draw(st.lists(st.integers(0, c - 1), max_size=c + 3)) if c else []
    stray = data.draw(st.sampled_from([None, -1, -2, c, c + 1]))
    if stray is not None:
        mask.insert(data.draw(st.integers(0, len(mask))), stray)
    fast = outcome(popov_masked_step, lam, mask)
    assert fast == outcome(popov_masked_step_oracle, lam, mask)
    assert (fast[:1] == ("ValueError",)) == (stray is not None)

    # picks may be spoiled by one entry below 0 or above its pile, or by a wrong length
    picks = [data.draw(st.integers(0, p)) for p in lam]
    spoil = data.draw(st.sampled_from(["none", "low", "high", "long", "short"]))
    if spoil in ("low", "high", "short") and not c:
        spoil = "long"
    if spoil == "long":
        picks.append(0)
    elif spoil == "short":
        picks.pop()
    elif spoil != "none":
        i = data.draw(st.integers(0, c - 1))
        picks[i] = -1 if spoil == "low" else lam[i] + 1
    picks = tuple(picks)
    fast = outcome(ejs_masked_step, lam, picks)
    assert fast == outcome(ejs_masked_step_oracle, lam, picks)
    assert (fast[:1] == ("ValueError",)) == (spoil != "none")
