"""Seeded simulation of the randomized solitaires.

Two randomizations are supported: pile selection, where each pile
independently loses one card with probability p, and card selection,
where every single card is picked with probability p.  A chain runs one
loop per variant that draws and moves together.  The samplers below and
the deterministic masked steps in bsol.operators take one move at a time
from the same stream; they are the reference the chain loops must match.
Identical configs (including the seed) give bit-identical results.
"""

from __future__ import annotations

import math
import struct
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from itertools import islice, repeat
from operator import add, mul, sub
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .dynamics import json_with_bulk
# the per-move reference; bench/tracing.py looks these names up here
from .operators import ejs_masked_step, popov_masked_step  # noqa: F401
from .partitions import (
    Partition,
    format_parts,
    is_partition,
    potential_energy,
    triangular_decompose,
)

if TYPE_CHECKING:  # numpy loads only when a chain runs or a profile is fitted
    import numpy as np

#: Generator identity; recorded in every ChainStats for reproducibility.
RNG_ALGORITHM = "numpy-pcg64"

VARIANTS = ("popov", "ejs")


def make_rng(seed: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.PCG64(seed))


def sample_popov_mask(rng: np.random.Generator, lam: Partition, p: float) -> tuple[int, ...]:
    """Indices of the piles that lose a card this move."""
    hits = rng.random(len(lam)) < p
    return tuple(hits.nonzero()[0].tolist())


def sample_ejs_picks(rng: np.random.Generator, lam: Partition, p: float) -> tuple[int, ...]:
    """Per-pile counts of picked cards; each card is picked independently."""
    if not lam:
        return ()
    return tuple(rng.binomial(lam, p).tolist())


# uniforms per numpy call in the pile-selection loop
_BLOCK = 1 << 14


def _settle(parts: list[int], taken: int) -> Partition:
    """Stack the taken cards as a new pile and put the parts back in
    order; the parts are nonnegative, so only zeros need dropping."""
    parts.append(taken)
    parts.sort(reverse=True)
    while not parts[-1]:
        parts.pop()
    return tuple(parts)


def _popov_moves(rng: np.random.Generator, state: Partition, p: float,
                 moves: int) -> Iterator[Partition]:
    """The state after each of moves pile-selection moves.

    The same states as popov_masked_step(state, sample_popov_mask(rng,
    state, p)) per move: PCG64 gives the same doubles drawn a move or a
    block at a time, so each move slices its flags from a block.
    """
    random = rng.random
    flags, at = [], 0
    for _ in range(moves):
        end = at + len(state)
        while end > len(flags):
            flags = flags[at:] + (random(_BLOCK) < p).tolist()
            end -= at
            at = 0
        mask = flags[at:end]
        at = end
        taken = mask.count(True)
        if taken:
            state = _settle(list(map(sub, state, mask)), taken)
        yield state


# piles above which one rng.binomial call over the state costs less than a
# call per pile: the two cross between 14 and 16 piles
_WIDE = 15


def _ejs_moves(rng: np.random.Generator, state: Partition, p: float,
               moves: int) -> Iterator[Partition]:
    """The state after each of moves card-selection moves.

    The same states as ejs_masked_step(state, sample_ejs_picks(rng, state,
    p)) per move: rng.binomial draws the same variates a pile at a time as
    over all piles at once, so a wide state takes one call and a narrow
    one a call per pile.  Blocking them across moves would change the
    stream, since a variate takes a variable number of draws.
    """
    binomial = rng.binomial
    for _ in range(moves):
        if len(state) > _WIDE:
            picks = binomial(state, p).tolist()
        else:
            picks = list(map(binomial, state, repeat(p)))
        taken = sum(picks)
        if taken:
            state = _settle(list(map(sub, state, picks)), taken)
        yield state


def staircase_distance(lam: Partition) -> float:
    """Mean per-card deviation from the full staircase of the decomposition k.

    The reference shape is (k, k-1, ..., 1) even for non-triangular totals,
    so distances are comparable along a whole run; it is 0 exactly on the
    staircase of a triangular n.  Past the shorter of lam and the staircase
    the longer one is compared with zeros, so its tail counts in full: the
    staircase's last k - len(lam) parts sum to a triangular number, so the
    cost is O(len(lam)), not O(k).
    """
    n = sum(lam)
    if n == 0:
        return 0.0
    k = triangular_decompose(n)[0]
    total = sum(map(abs, map(sub, lam, range(k, 0, -1))))
    rest = k - len(lam)
    total += rest * (rest + 1) // 2 if rest > 0 else sum(lam[k:])
    return total / n


@dataclass(frozen=True)
class ChainConfig:
    """Run description; burn_in and samples default to 50n and 500n."""

    n: int
    variant: str
    p: float
    seed: int
    burn_in: int | None = None
    samples: int | None = None
    initial: Partition | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.n >= 2**63:  # numpy draws a binomial over a pile as a C long
            raise ValueError(f"n must be below 2^63, got {self.n}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", 50 * self.n)
        if self.samples is None:
            object.__setattr__(self, "samples", 500 * self.n)
        if self.burn_in < 0 or self.samples < 0:
            raise ValueError("burn_in and samples cannot be negative")
        if self.initial is None:
            object.__setattr__(self, "initial", (self.n,))
        if not is_partition(self.initial) or sum(self.initial) != self.n:
            raise ValueError(f"initial must be a partition of {self.n}: {self.initial}")


def _codec(n: int) -> tuple[int, Callable[[Partition], bytes], Callable[[bytes], Partition]]:
    """Bytes per part of a packed partition of n, and its pack and unpack.

    A packed state is its parts as big-endian unsigned integers of one
    width, the fewest of 1, 2, 4 and 8 bytes that hold n, so packed states
    sort as the partitions do: the first byte that differs lies in the
    first part that differs, most significant first, and a prefix comes
    first.  At one byte a part, bytes(lam) packs in C.
    """
    if n < 1 << 8:
        return 1, bytes, tuple
    width, code = (2, "H") if n < 1 << 16 else (4, "I") if n < 1 << 32 else (8, "Q")
    return (width, lambda lam: struct.pack(f">{len(lam)}{code}", *lam),
            lambda key: struct.unpack(f">{len(key) // width}{code}", key))


class VisitCounts(Mapping):
    """The visits of a chain's states in order of first visit, held by
    packed state (see _codec) and read as partitions."""

    def __init__(self, n: int, states: Iterable[Partition]):
        _, self.pack, self.unpack = _codec(n)
        self.packed = Counter(map(self.pack, states))

    def __getitem__(self, lam):
        try:  # a Counter reads 0 for a missing key, so ask first
            key = self.pack(lam)
            if key in self.packed:
                return self.packed[key]
        except (TypeError, ValueError, struct.error):  # not a partition of n
            pass
        raise KeyError(lam)

    def __iter__(self) -> Iterator[Partition]:
        return map(self.unpack, self.packed)

    def __len__(self) -> int:
        return len(self.packed)


@dataclass(frozen=True)
class ChainStats:
    """Summary of the recorded phase of one chain."""

    config: ChainConfig
    visit_counts: VisitCounts
    mean_shape: tuple[float, ...]
    mean_staircase_distance: float
    mean_energy: float
    rng_algorithm: str = RNG_ALGORITHM

    def json_chunks(self) -> Iterator[str]:
        """The text of to_json(), a piece at a time."""
        head = {
            "config": asdict(self.config),
            "rng_algorithm": self.rng_algorithm,
            "mean_shape": list(self.mean_shape),
            "mean_staircase_distance": self.mean_staircase_distance,
            "mean_energy": self.mean_energy,
        }
        # the packed states are distinct and sort as the partitions do, so
        # sorting them alone orders the items; a key is digits and commas,
        # so it needs no escaping; format_parts reads a one-byte-a-part key
        # as its ints, and a wider one unpacks first
        packed, unpack = self.visit_counts.packed, self.visit_counts.unpack
        text = format_parts if unpack is tuple else lambda key: format_parts(unpack(key))
        counts = (f'"{text(key)}":{packed[key]}' for key in sorted(packed, reverse=True))
        return json_with_bulk(head, ("visit_counts", "{}", counts))

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    def mean_shape_csv(self) -> str:
        lines = ["index,mean_part"]
        for i, v in enumerate(self.mean_shape, 1):
            lines.append(f"{i},{v}")
        return "\n".join(lines) + "\n"


def run_chain(config: ChainConfig) -> ChainStats:
    """Run burn_in + samples moves, tallying the recorded phase.

    The first burn_in post-move states are discarded; each of the next
    samples states is counted once.
    """
    moves = _popov_moves if config.variant == "popov" else _ejs_moves
    rng = make_rng(config.seed)
    states = moves(rng, config.initial, config.p, config.burn_in + config.samples)
    deque(islice(states, config.burn_in), maxlen=0)
    visits = VisitCounts(config.n, states)  # in order of first visit, as the sums read it

    samples = config.samples
    if samples == 0:
        return ChainStats(config, visits, (), 0.0, 0.0)
    shape_sum, dist_sum, energy_sum = _chain_sums(visits.packed, config.n, samples)
    return ChainStats(
        config=config,
        visit_counts=visits,
        mean_shape=tuple(v / samples for v in shape_sum),
        mean_staircase_distance=dist_sum / samples,
        mean_energy=energy_sum / samples,
    )


# bytes per numpy block of the chain statistics: a block takes whole states
# until it holds this many packed bytes, so its arrays stay small however
# long the states or the chain
_STAT_BLOCK = 1 << 12


def _chain_sums(packed: dict[bytes, int], n: int,
                samples: int) -> tuple[list[float], float, float]:
    """The count-weighted float sums of the parts index by index, of the
    staircase distance and of the energy over the distinct packed states
    of n (see _codec) of a chain of samples visits, each added in the
    order of packed.

    n(n+3)/2 is the largest energy of a partition of n, so below
    samples * n(n+3)/2 < 2**53 every shape and energy term and partial sum
    is an integer that a float holds exactly, and numpy adds them in any
    order a block of states at a time.  The distance terms are inexact
    floats: a cumulative sum, which adds in sequence, carries them from
    block to block in visit order.  Past the bound the order of the float
    additions shows in their last bits, so each state is read in turn.
    """
    width, _, unpack = _codec(n)
    if samples * n * (n + 3) // 2 >= 2**53:
        shape_sum = [0.0] * (max(map(len, packed)) // width)
        dist_sum = energy_sum = 0.0
        for key, count in packed.items():
            lam = unpack(key)
            shape_sum[:len(lam)] = map(add, shape_sum, map(mul, lam, repeat(count)))
            dist_sum += staircase_distance(lam) * count
            energy_sum += potential_energy(lam) * count
        return shape_sum, dist_sum, energy_sum
    import numpy as np

    k = triangular_decompose(n)[0]
    shape_sum, dist_sum, energy_sum = np.zeros(0), 0.0, 0
    items = iter(packed.items())
    while True:
        keys, visits, size = [], [], 0
        for key, count in items:
            keys.append(key)
            visits.append(count)
            size += len(key)
            if size >= _STAT_BLOCK:
                break
        if not keys:
            return shape_sum.tolist(), dist_sum, float(energy_sum)
        lens = np.fromiter(map(len, keys), np.int64, len(keys)) // width
        parts = np.frombuffer(b"".join(keys), f">u{width}").astype(np.int64)
        reps = np.array(visits, np.int64)
        starts = np.cumsum(lens) - lens
        col = np.arange(len(parts)) - np.repeat(starts, lens)  # 0-based pile index
        # bincount adds in float64, exact for these integers
        block = np.bincount(col, parts * np.repeat(reps, lens), minlength=len(shape_sum))
        block[:len(shape_sum)] += shape_sum
        shape_sum = block
        # energy: pile i + 1 holding p cards adds (i + 1)p + p(p+1)/2
        energy = np.add.reduceat((col + 1) * parts + parts * (parts + 1) // 2, starts)
        energy_sum += int((energy * reps).sum())
        # distance: |p - (k - i)| against the staircase, zero past its k
        # parts, and its parts past the state as a triangular number
        off = np.abs(parts - np.maximum(k - col, 0))
        rest = np.maximum(k - lens, 0)
        total = np.add.reduceat(off, starts) + rest * (rest + 1) // 2
        terms = total / n * reps
        terms[0] += dist_sum
        dist_sum = float(np.cumsum(terms)[-1])


@dataclass(frozen=True)
class ShapeProfile:
    """Least-squares fits of the mean shape; purely diagnostic."""

    mean_shape: tuple[float, ...]
    linear_slope: float
    linear_intercept: float
    linear_residual: float
    exponential_amplitude: float
    exponential_rate: float
    exponential_residual: float

    @property
    def better(self) -> str:
        return "linear" if self.linear_residual <= self.exponential_residual else "exponential"


def shape_profile(stats: ChainStats) -> ShapeProfile:
    """Fit the mean shape with a straight line and with an exponential.

    Both fits use only the strictly positive entries; residuals are RMS
    errors in the original scale, so the two numbers are comparable.  The
    exponential is fitted in log space with weights proportional to the
    values, the usual linearization.
    """
    if not stats.mean_shape:
        raise ValueError("chain recorded no samples")
    import numpy as np

    y = np.asarray(stats.mean_shape, dtype=float)
    x = np.arange(1, len(y) + 1, dtype=float)
    keep = y > 0
    x, y = x[keep], y[keep]
    if len(y) == 1:
        return ShapeProfile(stats.mean_shape, 0.0, float(y[0]), 0.0, float(y[0]), 0.0, 0.0)
    slope, intercept = np.polyfit(x, y, 1)
    lin_res = math.sqrt(float(np.mean((y - (slope * x + intercept)) ** 2)))
    log_slope, log_intercept = np.polyfit(x, np.log(y), 1, w=y)
    amplitude = math.exp(log_intercept)
    rate = -log_slope
    exp_res = math.sqrt(float(np.mean((y - amplitude * np.exp(-rate * x)) ** 2)))
    return ShapeProfile(
        stats.mean_shape,
        float(slope),
        float(intercept),
        lin_res,
        amplitude,
        rate,
        exp_res,
    )
