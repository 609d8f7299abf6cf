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
from typing import Callable, Iterable, Iterator

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


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, in ascending lexicographic
    order, from 1^n up to (n).

    The next larger partition raises the last part that may grow, the
    rightmost part that is not the last and is below its left neighbour,
    and turns everything after it into 1s.  Every slot past the current
    parts already holds a 1 and h marks the last part above 1, so only
    parts above 1 are ever reset.  The first part never shrinks, so the
    partitions with parts up to a cap are a prefix of this order.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    x = [1] * n
    m, h = n, -1  # number of parts; index of the last part above 1
    yield tuple(x)
    while m > 1:
        if m - h > 2:  # two trailing 1s become one 2
            h += 1
            x[h] = 2
            m -= 1
        else:  # the part that grows starts the run holding x[m - 2]
            i, v = m - 2, x[m - 2]
            while i and x[i - 1] == v:
                i -= 1
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


def enumerate_texts(n: int, keep: Callable[[int, int], bool], compositions: bool) -> Iterator[str]:
    """format_parts of each partition, or composition, of n >= 1 whose first
    part and part count pass keep, ascending, with no tuple per state: the
    steps of enumerate_partitions, or enumerate_compositions, on a list x of
    its own, with pre[i], the text of x[0..i], rewritten where a step writes
    x, and a composition step also writes those of the 1s before x[i]."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    ones, sep = [",1" * i for i in range(n)], [f",{i}" for i in range(n + 1)]
    table = [[keep(first, m) for m in range(n + 1)] for first in range(n + 1)]
    x, pre, rule, m, h = [1] * n, [""] * n, table[1], n, -1
    if rule[m]:
        yield "1" + ones[m - 1]
    while m > 1:  # m parts, the last above 1 at h
        if compositions:  # the last part goes, the one before grows, the rest are 1s
            i, last, x[m - 1] = m - 2, x[m - 1], 1
            for j in range(h + 1, i):
                pre[j] = pre[j - 1] + ",1" if j else "1"
            m, v = m + last - 2, x[i] + 1
        elif m - h > 2:  # two trailing 1s become one 2
            i, v, m = h + 1, 2, m - 1
        else:  # the part that grows starts the run holding x[m - 2]
            i, v = m - 2, x[m - 2] + 1
            while i and x[i - 1] == v - 1:
                i -= 1
            m = i + sum(x[i + 1 : m])
            x[i + 1 : h + 1] = [1] * (h - i)
        x[i], h = v, i
        pre[i] = pre[i - 1] + sep[v] if i else str(v)
        if not i:
            rule = table[v]
        if rule[m]:
            yield pre[i] + ones[m - 1 - i]


def carolina_edge_texts(n: int) -> Iterator[str]:
    """The DOT edge line '\\n  "a" -> "C(a)";' of each composition a of n >= 1
    under the Carolina move, ascending, with no tuple per state: the steps of
    enumerate_texts on compositions, with img[i] too, the text ",x[j]-1" of
    each x[j] > 1 with j <= i.  The move drops a's trailing 1s and puts its
    part count m first, so C(a) is m and img[h]; img[-1] stays empty."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    mid, sep = [",1" * i + '" -> "' for i in range(n)], [f",{i}" for i in range(n + 1)]
    x, pre, img, m, h = [1] * n, [""] * n, [""] * (n + 1), n, -1
    yield f'\n  "1{mid[n - 1]}{n}";'
    while m > 1:  # m parts, the last above 1 at h
        i, last, x[m - 1] = m - 2, x[m - 1], 1
        for j in range(h + 1, i):
            pre[j], img[j] = pre[j - 1] + ",1" if j else "1", img[j - 1]
        m, v = m + last - 2, x[i] + 1
        x[i], h, img[i] = v, i, img[i - 1] + sep[v - 1]
        pre[i] = pre[i - 1] + sep[v] if i else str(v)
        yield f'\n  "{pre[i]}{mid[m - 1 - i]}{m}{img[i]}";'


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
