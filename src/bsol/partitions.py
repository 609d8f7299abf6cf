"""Partitions and compositions as plain tuples, plus exhaustive enumeration.

A partition is a nonincreasing tuple of positive ints; the empty tuple is
the unique partition of 0.  Compositions keep their order: strict
compositions have positive parts, Montreal compositions allow interior
zeros but need positive endpoints, circular compositions have a fixed
length and allow zeros anywhere.  All values are immutable and hashable.
"""

from __future__ import annotations

from itertools import count
from math import isqrt
from operator import mul
from typing import Iterable, Iterator

Partition = tuple[int, ...]
Composition = tuple[int, ...]

class EnumerationBoundError(RuntimeError):
    """The requested state space exceeds the CLI's size guard.

    The enumerators here are lazy and unbounded; the command-line front end
    sizes each request first and raises this when it is too big.
    """


def normalize(raw: Iterable[int]) -> Partition:
    """Sort a copy of the parts nonincreasing and drop zeros, preserving the total."""
    parts = sorted(raw, reverse=True)
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def is_partition(parts: tuple[int, ...]) -> bool:
    """True if parts is canonical: nonincreasing and strictly positive."""
    return all(p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def conjugate(lam: Partition) -> Partition:
    """Transpose the Young diagram; part i of the result counts parts >= i."""
    if not lam:
        return ()
    out = [0] * lam[0]
    for p in lam:
        for j in range(p):
            out[j] += 1
    return tuple(out)


def staircase(k: int) -> Partition:
    """The partition (k, k-1, ..., 2, 1) of the k-th triangular number."""
    return tuple(range(k, 0, -1))


def triangular_decompose(n: int) -> tuple[int, int]:
    """Unique (k, r) with n = (k-1)k/2 + r and 0 < r <= k.

    r = k exactly when n is triangular.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    k = (isqrt(8 * n + 1) - 1) // 2  # largest k with k(k+1)/2 <= n
    if k * (k + 1) // 2 == n:
        return k, k
    return k + 1, n - k * (k + 1) // 2


def potential_energy(lam: Partition) -> int:
    """Total box height of the Young diagram, box (i, j) sitting at i + j.

    Pile index i and card index j both start at 1 on the sorted
    representation; the empty partition has energy 0.  Pile i contributes
    i*p + p(p+1)/2, so no box is visited; each p(p+1) is even, so the halves
    sum to (sum of p^2 + sum of p) / 2.
    """
    return sum(map(mul, lam, count(1))) + (sum(map(mul, lam, lam)) + sum(lam)) // 2


def enumerate_partitions(n: int, *, max_part: int | None = None) -> Iterator[Partition]:
    """Yield every partition of n exactly once, in ascending lexicographic
    order, from 1^n up to (n).

    max_part restricts all parts to at most that value.

    The next larger partition raises the last part that may grow, the
    rightmost part that is not the last and is below its left neighbour,
    and turns everything after it into 1s.  Every slot past the current
    parts already holds a 1 and h marks the last part above 1, so only
    parts above 1 are ever reset.  The first part never shrinks, so the
    partitions with parts <= max_part are a prefix of this order, which
    ends at the first step that would raise the first part past the cap.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else max_part
    if cap < 1:
        return
    x = [1] * n
    m, h = n, -1  # number of parts; index of the last part above 1
    yield tuple(x)
    while m > 1:
        if m - h > 2:  # two trailing 1s become one 2
            if h < 0 and cap < 2:  # ... as the first part, past the cap
                return
            h += 1
            x[h] = 2
            m -= 1
        else:  # the part that grows starts the run holding x[m - 2]
            i, v = m - 2, x[m - 2]
            while i and x[i - 1] == v:
                i -= 1
            if not i and v >= cap:  # the first part would pass the cap
                return
            m = i + sum(x[i + 1 : m])
            x[i] = v + 1
            for j in range(i + 1, h + 1):
                x[j] = 1
            h = i
        yield tuple(x[:m])


def enumerate_compositions(n: int) -> Iterator[Composition]:
    """Yield every composition of n into positive parts (2^(n-1) of them)
    exactly once, in ascending lexicographic order, from 1^n up to (n).

    The next larger composition keeps all but the last two parts, raises
    the second to last by one and spreads what is left of the last as 1s.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    parts = [1] * n
    while True:
        yield tuple(parts)
        last = parts.pop()
        if not parts:
            return
        parts[-1] += 1
        parts += [1] * (last - 1)


def enumerate_montreal_compositions(n: int) -> Iterator[Composition]:
    """Yield compositions of n with positive endpoints and interior zeros.

    Interior zero runs make this state space infinite, so enumeration is
    cut off at n parts.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    for length in range(1, n + 1):
        yield from _montreal_tail(n, length, 1)


def _montreal_tail(n: int, length: int, low: int) -> Iterator[Composition]:
    # the last `length` entries of a Montreal composition, summing to n >= 1:
    # the first at least low and below n, so the last stays positive
    if length == 1:
        yield (n,)
        return
    for v in range(n - 1, low - 1, -1):
        for rest in _montreal_tail(n - v, length - 1, 0):
            yield (v,) + rest


# Decimal text of the small nonnegative ints; a dict, so a negative or a
# large part misses and falls back to str instead of picking a wrong entry.
_DIGITS = {i: str(i) for i in range(256)}


def join_parts(parts: tuple[int, ...]) -> str:
    """The parts' decimal texts joined by commas."""
    try:
        return ",".join(map(_DIGITS.__getitem__, parts))
    except KeyError:
        return ",".join(map(str, parts))


def format_parts(parts: tuple[int, ...]) -> str:
    """Comma-separated text form; the empty state prints as "0"."""
    if not parts:
        return "0"
    return join_parts(parts)


def parse_parts(text: str) -> tuple[int, ...]:
    """Parse comma-separated nonnegative integers, e.g. "4,3,3"."""
    pieces = text.strip().split(",")
    if pieces == [""]:
        raise ValueError("empty state text")
    try:
        parts = tuple(int(p) for p in pieces)
    except ValueError:
        raise ValueError(f"malformed state text: {text!r}") from None
    if any(p < 0 for p in parts):
        raise ValueError(f"negative entries in state text: {text!r}")
    return parts
