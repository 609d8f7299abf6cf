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
from math import comb, gcd

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
    g = gcd(r, k)
    total = sum(euler_phi(d) * comb(k // d, r // d) for d in range(1, g + 1) if g % d == 0)
    if total % k:  # the cyclic-group average is always an integer
        raise AssertionError(f"inexact division for n={n}: {total}/{k}")
    return total // k


@dataclass(frozen=True)
class Necklace:
    """Cyclic binary string; black beads are True."""

    beads: tuple[bool, ...]

    def __post_init__(self):
        if not self.beads:
            raise ValueError("a necklace needs at least one bead")

    @property
    def k(self) -> int:
        return len(self.beads)

    def rotated(self) -> "Necklace":
        """Rotate one place rightward: bead i moves to position i + 1."""
        return Necklace(self.beads[-1:] + self.beads[:-1])

    def period(self) -> int:
        k = self.k
        return next(p for p in range(1, k + 1) if k % p == 0 and self.beads[p:] == self.beads[:k - p])

    def __str__(self) -> str:
        return "".join("B" if b else "W" for b in self.beads)


def list_necklaces(k: int, r: int) -> list[Necklace]:
    """Each necklace of r black beads in k, once, as its largest rotation, in
    descending order: the FKM algorithm (Ruskey, Savage and Wang, "Generating
    necklaces", J. Algorithms 1992) with black the smaller symbol, run depth
    first on a stack, as k reaches the thousands.  A branch stops once it has
    too many beads of a colour, or too few whites left to end each run of the
    blacks left: the opening run of blacks is the longest, and every later
    run, as the string, ends white."""
    if not 0 <= r <= k:
        raise ValueError(f"need 0 <= r <= k, got r={r}, k={k}")
    beads = [True] * (k + 1)  # beads[0] is FKM's a[0], the smaller symbol
    necklaces = []
    # (t, p, bead t, blacks before t, the opening run of blacks, k until a white ends it)
    stack = [(1, 1, False, 0, k), (1, 1, True, 0, k)]
    while stack:
        t, p, bead, blacks, run = stack.pop()
        beads[t] = bead
        blacks += bead
        run = run if bead else min(run, t - 1)
        whites_left = k - r - t + blacks  # only a white can make the bound fail
        if blacks > r or whites_left < 0 or not bead and whites_left * run < r - blacks:
            continue
        if t == k:
            if k % p == 0:
                necklaces.append(Necklace(tuple(beads[1:])))
            continue
        copy = beads[t + 1 - p]
        if copy:  # a black may also give way to a white, which starts a new period
            stack.append((t + 1, t + 1, False, blacks, run))
        stack.append((t + 1, p, copy, blacks, run))
    return necklaces


def necklace_state(necklace: Necklace) -> Partition:
    """The minimal-energy partition of a necklace's beads: with k beads,
    pile i holds k - i cards, plus one if bead i is black (Brandt,
    "Cycles of partitions")."""
    k = necklace.k
    piles = (k - i + bead for i, bead in enumerate(necklace.beads, 1))
    return tuple(p for p in piles if p)


def necklace_of_state(lam: Partition) -> Necklace:
    """Read the level-k beads off a minimal-energy partition.

    Bead i (1-based) is black iff the diagram holds the cell at pile i,
    card k + 1 - i.  Rejects states that are not minimal-energy, i.e.
    states that necklace_state does not give back from their beads.
    """
    k = triangular_decompose(sum(lam))[0]
    beads = tuple(i <= len(lam) and lam[i - 1] >= k + 1 - i for i in range(1, k + 1))
    necklace = Necklace(beads)
    if necklace_state(necklace) != lam:
        raise ValueError(f"{lam} is not minimal-energy")
    return necklace


def _bounded_part_counts(n: int, cap: int) -> list[int]:
    # counts[m] counts the partitions of m into parts of at most cap cards
    counts = [1] + [0] * n
    for part in range(1, min(cap, n) + 1):
        for m in range(part, n + 1):
            counts[m] += counts[m - part]
    return counts


def partition_count(n: int) -> int:
    """p(n), the partitions of n into parts of any size (exact integers)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > PARTITION_COUNT_BOUND:
        raise ValueError(f"n={n} exceeds the counting bound {PARTITION_COUNT_BOUND}")
    return _bounded_part_counts(n, n)[n]


def _austrian_state_count(n: int, L: int) -> int:
    # the piles are a partition into parts of at most L cards, and the bank
    # holds 0..L-1 of the n cards
    counts = _bounded_part_counts(n, L)
    return sum(counts[n - bank] for bank in range(min(L - 1, n) + 1))
