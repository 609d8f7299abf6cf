"""One move of each solitaire variant, as pure functions on immutable states.

The deterministic games act on partitions or compositions directly.  The
stochastic games are split in two: a sampling phase (see bsol.stochastic)
draws which piles or cards move, and the deterministic masked step here
applies that draw, so the move logic stays exhaustively testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Iterable

from .partitions import Composition, Partition, is_partition, normalize


def bulgarian_step(lam: Partition) -> Partition:
    """Take one card from every pile and stack the removed cards as a new pile."""
    c = len(lam)
    if c == 0:
        return ()
    dec = [p - 1 for p in lam if p > 1]  # still nonincreasing
    i = 0
    while i < len(dec) and dec[i] > c:
        i += 1
    dec.insert(i, c)
    return tuple(dec)


def carolina_step(alpha: Composition) -> Composition:
    """Ordered variant: the new pile goes in front, empty piles vanish in place."""
    c = len(alpha)
    if c == 0:
        return ()
    return (c,) + tuple(a - 1 for a in alpha if a > 1)


def montreal_step(alpha: Composition) -> Composition:
    """One Montreal move on a composition with positive endpoints.

    On an all-positive composition the new pile of size c is appended on
    the right.  Zeros split the composition into blocks; the move applies
    to every block and consumes one zero of each separator run, keeping
    any zeros produced inside.  The result is trimmed back to positive
    endpoints, since a composition is identified with itself padded by
    boundary zeros.
    """
    if not alpha:
        return ()
    if alpha[0] <= 0 or alpha[-1] <= 0:
        raise ValueError(f"montreal composition needs positive endpoints: {alpha}")
    raw = []
    block = 0  # length of the block of positive parts read so far
    for a in alpha:
        if a > 0:
            raw.append(a - 1)
            block += 1
        elif a == 0:  # the first zero of a run becomes the block's new pile
            raw.append(block)
            block = 0
        else:
            raise ValueError(f"montreal composition needs nonnegative parts: {alpha}")
    raw.append(block)  # the last block's new pile; positive, so only the left needs trimming
    lo = 0
    while raw[lo] == 0:
        lo += 1
    return tuple(raw[lo:])


def dual_step(lam: Partition) -> Partition:
    """Robin Hood move: the largest pile is dealt out one card per pile,
    from larger to smaller, leftover cards becoming piles of size 1."""
    if not lam:
        raise ValueError("dual step needs a nonempty partition")
    m = lam[0]
    rest = list(lam[1:])
    give = min(m, len(rest))
    for i in range(give):
        rest[i] += 1
    rest.extend([1] * (m - give))
    return normalize(rest)


@dataclass(frozen=True, order=True)
class AustrianState:
    """Machine park: pile sizes are remaining lifetimes, plus a sinking fund."""

    piles: Partition
    bank: int
    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"machine lifetime must be positive, got {self.L}")
        if self.bank < 0:
            raise ValueError(f"bank cannot be negative, got {self.bank}")
        if not is_partition(self.piles):
            raise ValueError(f"piles must be a canonical partition: {self.piles}")
        if self.piles and self.piles[0] > self.L:
            raise ValueError(f"pile exceeds lifetime {self.L}: {self.piles}")

    @property
    def total(self) -> int:
        return sum(self.piles) + self.bank


def austrian_step(state: AustrianState) -> AustrianState:
    """Age every machine one year, then buy new machines while the bank allows."""
    bank = state.bank + len(state.piles)
    piles = [p - 1 for p in state.piles if p > 1]
    bought, bank = divmod(bank, state.L)
    return AustrianState(normalize(piles + [state.L] * bought), bank, state.L)


@dataclass(frozen=True, order=True)
class MultiplayerState:
    """One partition per player around a circular table."""

    players: tuple[Partition, ...]

    def __post_init__(self):
        if not self.players:
            raise ValueError("at least one player required")
        for lam in self.players:
            if not is_partition(lam):
                raise ValueError(f"player hand must be a canonical partition: {lam}")

    @property
    def total(self) -> int:
        return sum(sum(lam) for lam in self.players)


def multiplayer_step(state: MultiplayerState) -> MultiplayerState:
    """Everyone plays a Bulgarian move at once, passing the new pile rightward.

    Player i receives a pile equal to the left neighbour's pile count
    (cyclically), so a lone player reduces to the ordinary game.
    """
    counts = [len(lam) for lam in state.players]
    out = []
    for i, lam in enumerate(state.players):
        parts = [p - 1 for p in lam if p > 1]
        received = counts[i - 1]  # i - 1 wraps to the last player for i = 0
        if received > 0:
            parts.append(received)
        out.append(normalize(parts))
    return MultiplayerState(tuple(out))


def _deal(piles: list[int], first: int, m: int) -> None:
    """Deal m cards one at a time around the table, the first to seat first
    (0-based): every full round gives each seat one card."""
    c = len(piles)
    rounds, extra = divmod(m, c)
    if rounds:
        for j in range(c):
            piles[j] += rounds
    for j in range(first, first + extra):
        piles[j % c] += 1


def servedio_yeh_step(alpha: Composition) -> Composition:
    """All players deal their cards clockwise at once, starting with themselves."""
    c = len(alpha)
    if c == 0:
        raise ValueError("need at least one seat")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative pile in {alpha}")
    out = [0] * c
    for i, a in enumerate(alpha):
        _deal(out, i, a)
    return tuple(out)


@dataclass(frozen=True, order=True)
class PointerState:
    """Circular table with a pointer at the player about to deal (1-based)."""

    piles: tuple[int, ...]
    pointer: int

    def __post_init__(self):
        if not self.piles:
            raise ValueError("need at least one seat")
        if any(a < 0 for a in self.piles):
            raise ValueError(f"negative pile in {self.piles}")
        if not 1 <= self.pointer <= len(self.piles):
            raise ValueError(
                f"pointer {self.pointer} out of range for {len(self.piles)} seats"
            )

    @property
    def total(self) -> int:
        return sum(self.piles)


def janetzko_step(state: PointerState) -> PointerState:
    """The pointed player deals their pile one card at a time to the right;
    the pointer follows the last card.  An empty pile just passes the turn."""
    c = len(state.piles)
    i = state.pointer - 1
    m = state.piles[i]
    if m == 0:
        return PointerState(state.piles, (i + 1) % c + 1)
    piles = list(state.piles)
    piles[i] = 0
    _deal(piles, i + 1, m)
    return PointerState(tuple(piles), (i + m) % c + 1)


def popov_masked_step(lam: Partition, mask: Iterable[int]) -> Partition:
    """Deterministic half of the pile-selection game: decrement exactly the
    masked piles (0-based indices) and stack the removed cards."""
    idx = set(mask)
    if idx and (min(idx) < 0 or max(idx) >= len(lam)):
        raise ValueError(f"mask {sorted(idx)} out of range for {len(lam)} piles")
    parts = list(lam)
    for i in idx:
        parts[i] -= 1
    if idx:
        parts.append(len(idx))
    return normalize(parts)


def ejs_masked_step(lam: Partition, picks: tuple[int, ...]) -> Partition:
    """Deterministic half of the card-selection game: remove picks[i] cards
    from pile i and stack everything removed as one new pile."""
    if len(picks) != len(lam):
        raise ValueError(f"picks length {len(picks)} != pile count {len(lam)}")
    parts = list(map(sub, lam, picks))
    if min(picks, default=0) < 0 or min(parts, default=0) < 0:
        raise ValueError(f"picks {picks} out of range for {lam}")
    taken = sum(picks)
    if taken > 0:
        parts.append(taken)
    return normalize(parts)
