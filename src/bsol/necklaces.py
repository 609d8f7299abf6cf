"""Binary necklaces and the closed-form component count.

Writing n = (k-1)k/2 + r with 0 < r <= k, the minimal-energy states of the
Bulgarian game carry r occupied cells on level k of the cradle picture.
Reading those cells as black beads on a cyclic string of length k turns
one game step into a one-place rotation, so components of the state graph
correspond to necklaces with r black and k - r white beads, counted by

    C(n) = (1/k) * sum over d | gcd(r, k) of phi(d) * binom(k/d, r/d).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from typing import Iterator

from .partitions import Partition, triangular_decompose

PARTITION_COUNT_BOUND = 200


def euler_phi(d: int) -> int:
    """Count of integers in [1..d] coprime to d."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    result = d
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def necklace_count(n: int) -> int:
    """Number of components of the Bulgarian graph on partitions of n."""
    k, r = triangular_decompose(n)
    total = sum(euler_phi(d) * comb(k // d, r // d) for d in _divisors(gcd(r, k)))
    if total % k:  # the cyclic-group average is always an integer
        raise AssertionError(f"inexact division for n={n}: {total}/{k}")
    return total // k


def _divisors(m: int) -> Iterator[int]:
    for d in range(1, m + 1):
        if m % d == 0:
            yield d


@dataclass(frozen=True, eq=False)
class Necklace:
    """Cyclic binary string; black beads are True.  Equal up to rotation."""

    beads: tuple[bool, ...]

    def __post_init__(self):
        if not self.beads:
            raise ValueError("a necklace needs at least one bead")

    @property
    def k(self) -> int:
        return len(self.beads)

    @property
    def r(self) -> int:
        return sum(self.beads)

    def rotations(self) -> Iterator[tuple[bool, ...]]:
        for s in range(self.k):
            yield self.beads[s:] + self.beads[:s]

    def canonical_beads(self) -> tuple[bool, ...]:
        # max over bool tuples = lexicographically smallest B/W string
        return max(self.rotations())

    def rotated(self, steps: int = 1) -> "Necklace":
        """Rotate one place rightward: bead i moves to position i + 1."""
        s = -steps % self.k
        return Necklace(self.beads[s:] + self.beads[:s])

    def period(self) -> int:
        for p in range(1, self.k + 1):
            if self.k % p == 0 and self.rotated(p).beads == self.beads:
                return p
        raise AssertionError("unreachable")

    def __str__(self) -> str:
        return "".join("B" if b else "W" for b in self.canonical_beads())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Necklace):
            return NotImplemented
        return self.canonical_beads() == other.canonical_beads()

    def __hash__(self) -> int:
        return hash(self.canonical_beads())


def list_necklaces(k: int, r: int) -> list[Necklace]:
    """Canonical representatives of all necklaces with r black beads of k."""
    if not 0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={r}, k={k}")
    classes = set()
    for black in combinations(range(k), r):
        beads = tuple(i in black for i in range(k))
        classes.add(Necklace(beads).canonical_beads())
    return [Necklace(b) for b in sorted(classes, reverse=True)]


def necklace_of_state(lam: Partition) -> Necklace:
    """Read the level-k beads off a minimal-energy partition.

    Bead i (1-based) is black iff the diagram holds the cell at pile i,
    card k + 1 - i.  Rejects states that are not minimal-energy, i.e.
    states whose levels 1..k-1 are not full or that reach level k + 1.
    """
    n = sum(lam)
    k, r = triangular_decompose(n)

    def has_cell(i: int, j: int) -> bool:
        return i <= len(lam) and lam[i - 1] >= j

    for t in range(1, k):
        for i in range(1, t + 1):
            if not has_cell(i, t + 1 - i):
                raise ValueError(f"{lam} is not minimal-energy: hole on level {t}")
    for i in range(1, k + 2):
        if has_cell(i, k + 2 - i):
            raise ValueError(f"{lam} is not minimal-energy: box on level {k + 1}")
    beads = tuple(has_cell(i, k + 1 - i) for i in range(1, k + 1))
    if sum(beads) != r:
        raise AssertionError(f"bead count mismatch for {lam}")
    return Necklace(beads)


_pcount: list[int] = [1]


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence (exact integers)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > PARTITION_COUNT_BOUND:
        raise ValueError(f"n={n} exceeds the counting bound {PARTITION_COUNT_BOUND}")
    while len(_pcount) <= n:
        m = len(_pcount)
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > m:
                break
            sign = -1 if j % 2 == 0 else 1
            total += sign * _pcount[m - g1]
            if g2 <= m:
                total += sign * _pcount[m - g2]
            j += 1
        _pcount.append(total)
    return _pcount[n]


def _austrian_state_count(n: int, L: int) -> int:
    # table[m] counts the partitions of m into parts of at most L cards;
    # the bank holds 0..L-1 of the n cards
    table = [1] + [0] * n
    for part in range(1, min(L, n) + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return sum(table[n - bank] for bank in range(min(L - 1, n) + 1))
