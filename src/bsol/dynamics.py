"""Orbits, cycles, and whole-graph analysis for the deterministic variants.

Every variant's step is a function on a finite set of states, so each
trajectory is eventually periodic and the state graph splits into
components, one cycle per component.  This module walks orbits, finds the
cycles, counts components, measures tails, and locates Garden of Eden
states (states with no predecessor), plus the classical checks: staircase
convergence, the k(k-1) convergence exponent, the extremal starting
partition, and reachability of every cycle from a Garden of Eden state.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, combinations, islice, permutations, takewhile
from math import comb, inf
from typing import Any, Callable, Iterable, Iterator

from .necklaces import _austrian_state_count, list_necklaces, necklace_state, partition_count
from .operators import (
    AustrianState,
    MultiplayerState,
    PointerState,
    austrian_step,
    bulgarian_step,
    carolina_step,
    dual_step,
    janetzko_step,
    montreal_step,
    multiplayer_step,
    servedio_yeh_step,
)
from .partitions import (
    Composition,
    EnumerationBoundError,
    Partition,
    conjugate,
    enumerate_compositions,
    enumerate_montreal_compositions,
    enumerate_partitions,
    format_parts,
    join_parts,
    staircase,
    triangular_decompose,
)

State = Any
StepFn = Callable[[State], State]


class StepBoundError(RuntimeError):
    """An orbit failed to repeat within the step bound."""


class WalkError(RuntimeError):
    """The backward walk failed a self-check (internal error)."""


def state_total(state: State) -> int:
    """Total number of cards in a state of any variant."""
    if isinstance(state, tuple):
        return sum(state)
    return state.total


def state_to_jsonable(state: State) -> dict:
    """A state as JSON data: a partition or composition as its parts and
    total, and any record as its fields, in the order they are declared."""
    if isinstance(state, tuple):
        return {"parts": list(state), "n": sum(state)}
    return asdict(state)


# bsol writes one JSON layout, that of json.dumps(..., separators=_COMPACT)
_COMPACT = (",", ":")
# characters per output chunk of a large JSON list or dict, or of DOT lines:
# one write per member would cost more than the member, one chunk would
# hold all, and a member runs from one state's text to a Montreal cycle's
_CHUNK = 1 << 14


def _state_json(state: State) -> str:
    """json.dumps(state_to_jsonable(state), separators=_COMPACT)."""
    if isinstance(state, tuple):
        return f'{{"parts":[{join_parts(state)}],"n":{sum(state)}}}'
    return json.dumps(state_to_jsonable(state), separators=_COMPACT)


def _cycle_json(cycle: Iterable[State]) -> str:
    """json.dumps([state_to_jsonable(s) for s in cycle], separators=_COMPACT)."""
    return "".join(_json_array(map(_state_json, cycle)))


def _batches(texts: Iterable[str]) -> Iterator[list[str]]:
    """texts in consecutive lists of about _CHUNK characters."""
    batch, size = [], 0
    for text in texts:
        batch.append(text)
        size += len(text)
        if size >= _CHUNK:
            yield batch
            batch, size = [], 0
    if batch:
        yield batch


def _json_array(members: Iterable[str], brackets: str = "[]") -> Iterator[str]:
    """A JSON list or dict of members that come already rendered, in
    chunks joined a batch at a time, so that no chunk holds every member.
    brackets is "[]" or "{}", and a dict member is its '"key":value' text.
    """
    opening = sep = brackets[0]
    for batch in _batches(members):
        yield sep + ",".join(batch)
        sep = ","
    yield brackets if sep is opening else brackets[1]


def json_with_bulk(head: dict, *bulk: tuple[str, str, Iterable[str]]) -> Iterator[str]:
    """json.dumps({**head, key: value, ...}, separators=_COMPACT), in
    chunks, for each (key, brackets, members) of bulk in turn: a large
    value that _json_array writes.  Only the small, nonempty head goes
    through json.
    """
    yield json.dumps(head, separators=_COMPACT)[:-1]
    for key, brackets, members in bulk:
        yield f",{json.dumps(key)}:"
        yield from _json_array(members, brackets)
    yield "}"


def state_label(state: State) -> str:
    if isinstance(state, tuple):
        return format_parts(state)
    if isinstance(state, AustrianState):
        return f"{format_parts(state.piles)};bank={state.bank}"
    if isinstance(state, PointerState):
        return f"{format_parts(state.piles)};ptr={state.pointer}"
    return "|".join(format_parts(lam) for lam in state.players)


def default_step_bound(state: State) -> int:
    # A Janetzko state is one of C(n + c - 1, c - 1) placements of n cards
    # on c seats and one of c pointers, and no orbit outlasts its space.
    # Elsewhere 4n^2 sits far above the k(k-1) exponent proven for the
    # Bulgarian game; player counts add positional freedom beyond the card
    # count.  It proves nothing for Montreal, whose state space is infinite.
    n = state_total(state)
    if isinstance(state, PointerState):
        seats = len(state.piles)
        return comb(n + seats - 1, seats - 1) * seats
    if isinstance(state, MultiplayerState):
        n += len(state.players)
    return max(4 * n * n, 8)


@dataclass(frozen=True)
class OrbitResult:
    """A trajectory from its start through the first repeated state."""

    path: tuple[State, ...]
    tail: int
    cycle: tuple[State, ...]

    @property
    def cycle_length(self) -> int:
        return len(self.cycle)


def trajectory(start: State, step: StepFn) -> Iterator[State]:
    """start, step(start), step(step(start)), ... without end."""
    while True:
        yield start
        start = step(start)


def tail_cycle(start: State, step: StepFn, step_bound: int | None = None) -> tuple[int, int]:
    """(tail, cycle_length) of start's orbit by Brent's method ("An improved
    Monte Carlo factorization algorithm"), in O(1) states.  StepBoundError
    means a first repeat after more than step_bound moves and after the
    first, which is always made, so a fixed point passes any bound: with a
    repeat within them, the tortoise that waits out the first window of
    step_bound or more moves would sit on the cycle, and the hare meet it."""
    if step_bound is None:
        step_bound = default_step_bound(start)
    tortoise, hare = start, step(start)
    power = length = 1
    while tortoise != hare and length < step_bound:
        if length == power:
            tortoise, power, length = hare, 2 * power, 0
        hare = step(hare)
        length += 1
    if tortoise == hare:  # length moves apart, both on the cycle: it is the cycle's length
        tortoise, hare, tail = start, next(islice(trajectory(start, step), length, None)), 0
        while tortoise != hare and tail + length < step_bound:
            tortoise, hare = step(tortoise), step(hare)
            tail += 1
    if tortoise != hare:
        raise StepBoundError(f"no repetition within {step_bound} steps from {state_label(start)}")
    return tail, length


def orbit(start: State, step: StepFn, step_bound: int | None = None) -> OrbitResult:
    """start's orbit, walked again through the first repeat that tail_cycle finds."""
    tail, length = tail_cycle(start, step, step_bound)
    path = tuple(islice(trajectory(start, step), tail + length + 1))
    return OrbitResult(path, tail, path[tail:-1])


# --- variant registry ---

@dataclass(frozen=True)
class Variant:
    """A deterministic variant's move and kind of state and, for the five
    that analyze_state_space serves, the facts of its graph on n cards.

    Only the Austrian game reads the lifetime L that each fact takes.  A
    graph with a predecessor rule is walked in its own terms: its cycles
    are found by orbits, under its own move, of states they pass through.
    A graph without one (Montreal) is its cycles, and total counts its seeds.
    """

    name: str
    step: StepFn
    state_kind: str
    # (n, L, limit): each rotated, ascending; without a predecessor rule,
    # the smallest state of each, ascending, and the states on them all
    cycles: Callable | None = None
    predecessors: Callable | None = None  # every state one move sends to a state
    is_ge: Callable | None = None  # true exactly when a state has no predecessor
    states: Callable | None = None  # (n, L): every state, made afresh, ascending
    total: Callable | None = None  # (n, L): how many states the walk reaches
    what: str = ""  # those states, with {n} and {L}, for the walk's self-check


def _austrian_states(n: int, L: int) -> Iterator[AustrianState]:
    for bank in range(min(L - 1, n) + 1):
        for piles in enumerate_partitions(n - bank, max_part=L):
            yield AustrianState(piles, bank, L)


def get_variant(name: str, *, L: int | None = None) -> Variant:
    """Look up a deterministic variant by identifier.

    The circular games (servedio_yeh, janetzko) and the multiplayer game
    have no single-n state enumeration, so they support orbits but not
    whole-graph analysis.  The registry is built per call, so it holds
    the steps and enumerators that the module names at that time.
    """
    if name == "austrian":
        if L is None:
            raise ValueError("the austrian variant requires the machine lifetime L")
        if L < 1:
            raise ValueError(f"machine lifetime must be positive, got {L}")
    partitions = dict(states=lambda n, L: enumerate_partitions(n),
                      what="partitions of {n}")
    registry = {
        "bulgarian": Variant(
            "bulgarian", bulgarian_step, "partition", **partitions,
            cycles=lambda n, L, limit: _cycles_through(_necklace_states(n), bulgarian_step),
            predecessors=_predecessors, is_ge=garden_of_eden_test,
            total=lambda n, L: partition_count(n),
        ),
        # the Bulgarian move conjugated; it needs a pile to deal out, so 0 cards is no state
        "dual": Variant(
            "dual", dual_step, "partition", **partitions,
            cycles=lambda n, L, limit: _cycles_through(
                map(conjugate, _necklace_states(n)), dual_step),
            predecessors=_dual_predecessors, is_ge=_dual_ge,
            total=lambda n, L: partition_count(n) if n else 0,
        ),
        "carolina": Variant(
            "carolina", carolina_step, "strict",
            cycles=lambda n, L, limit: _cycles_through(_orderings(n), carolina_step),
            predecessors=_carolina_predecessors,
            is_ge=garden_of_eden_test, states=lambda n, L: enumerate_compositions(n),
            total=lambda n, L: 1 << n >> 1, what="compositions of {n}",
        ),
        "montreal": Variant(
            "montreal", montreal_step, "montreal",
            cycles=lambda n, L, limit: _montreal_leaders(n, limit),
            total=lambda n, L: _montreal_seed_count(n),
        ),
        "austrian": Variant(
            "austrian", austrian_step, "austrian",
            # the one cycle (Akin and Davis, "Bulgarian solitaire"): any state's orbit ends on it
            cycles=lambda n, L, limit: _cycles_through(
                islice(_austrian_states(n, L), 1), austrian_step),
            predecessors=_austrian_predecessors, is_ge=_austrian_ge,
            states=lambda n, L: sorted(_austrian_states(n, L)),
            total=_austrian_state_count, what="austrian states of {n} with L = {L}",
        ),
        "servedio_yeh": Variant("servedio_yeh", servedio_yeh_step, "circular"),
        "janetzko": Variant("janetzko", janetzko_step, "pointer"),
        "multiplayer": Variant("multiplayer", multiplayer_step, "multiplayer"),
    }
    if name not in registry:
        raise ValueError(f"unknown variant {name!r}; choose from {sorted(registry)}")
    return registry[name]


# --- full graph analysis ---

def _rotated(cycle) -> tuple:
    """The cycle rotated to start at its smallest state."""
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:]) + tuple(cycle[:pivot])


def _cycles_through(starts: Iterable[State], step: StepFn) -> tuple[tuple[State, ...], ...]:
    """The cycles that the orbits of starts end on, each rotated, in ascending order."""
    return tuple(sorted({_rotated(orbit(x, step).cycle) for x in starts}))


def _necklace_states(n: int) -> Iterator[Partition]:
    """One state on each Bulgarian cycle of n cards: with n = (k-1)k/2 + r,
    each necklace of r black beads among k gives one."""
    k, r = triangular_decompose(n) if n else (1, 0)  # 0 cards: one white bead, no pile
    return map(necklace_state, list_necklaces(k, r))


def _orderings(n: int) -> set[Composition]:
    """Every ordering of each necklace state of n cards: sorting commutes
    with the Carolina move, so a Carolina cycle sorts onto a whole
    Bulgarian cycle (Griggs and Ho, "The cycling of partitions and
    compositions under repeated shifts") and passes through an ordering
    of each of its states."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return {alpha for lam in _necklace_states(n) for alpha in permutations(lam)}


def _predecessors(mu: Partition) -> list[Partition]:
    """Every partition that one Bulgarian move sends to mu.

    With l parts in mu, each distinct part c >= l - 1 gives one: drop one
    copy of c, add a card to each remaining pile and append c - (l - 1)
    piles of one card.  None qualifies exactly when mu is a Garden of Eden
    state.  The empty partition, which steps to itself, gets none.
    """
    top = len(mu) - 1
    if not mu or mu[0] < top:
        return []
    up = tuple([p + 1 for p in mu])
    preds = []
    last = 0
    for i, c in enumerate(mu):
        if c < top:
            break
        if c != last:  # equal parts are adjacent and give the same predecessor
            last = c
            preds.append(up[:i] + up[i + 1 :] + (1,) * (c - top))
    return preds


def _dual_predecessors(mu: Partition) -> list[Partition]:
    """Every partition that one dual move sends to mu: the conjugates of
    the Bulgarian predecessors of mu's conjugate.

    With s parts in mu, each m >= mu_1 - 1 where mu steps down gives one:
    (m, mu_1 - 1, ..., mu_m - 1, mu_(m+1), ..., mu_s) deals its m cards
    back.  The step at s always counts, and there zeros are dropped.  None
    qualifies exactly when s < mu_1 - 1, a Garden of Eden state.
    """
    s = len(mu)
    if not mu or s < mu[0] - 1:
        return []
    down = tuple([p - 1 for p in mu])
    preds = [(s,) + down[: mu.index(1) if mu[-1] == 1 else s]]
    m = max(mu[0] - 1, 1)
    while m < s:
        part = mu[m - 1]
        if mu[m] == part:  # inside a run of equal parts: on to its end
            m = mu.index(part) + mu.count(part)
        else:
            preds.append((m,) + down[:m] + mu[m:])
            m += 1
    return preds


def _carolina_predecessors(beta: Composition) -> Iterator[Composition]:
    """Every composition that one Carolina move sends to beta, made lazily.

    For beta = (c, b_1, ..., b_m) they are the C(c, m) interleavings of
    (b_1 + 1, ..., b_m + 1) with c - m piles of one card.  None exists
    exactly when c < m, the Bulgarian rule for a Garden of Eden state.
    """
    c = beta[0]
    up = [b + 1 for b in beta[1:]]
    for places in combinations(range(c), len(up)):
        alpha = [1] * c
        for i, b in zip(places, up):
            alpha[i] = b
        yield tuple(alpha)


def _austrian_predecessors(state: AustrianState) -> Iterator[AustrianState]:
    """Every Austrian state that one move sends to state, made lazily.

    Its q piles of L cards were just bought, and its m piles below L each
    had one card more.  With s = qL + bank - m, a predecessor holds those
    m piles plus one card each, z piles of one card and s - z in the bank,
    for every z that leaves the bank in 0..L-1: none exactly when s < 0.
    """
    L, piles = state.L, state.piles
    q = piles.count(L)
    s = q * (L + 1) + state.bank - len(piles)  # m = len(piles) - q
    up = tuple([p + 1 for p in piles[q:]])
    for z in range(max(0, s - L + 1), s + 1):
        yield AustrianState(up + (1,) * z, s - z, L)


def _austrian_ge(state: AustrianState) -> bool:
    # s < 0 in _austrian_predecessors
    return state.piles.count(state.L) * (state.L + 1) + state.bank < len(state.piles)


def _dual_ge(lam: Partition) -> bool:
    # the conjugate of the Bulgarian rule: fewer parts than the largest part minus one
    return len(lam) < lam[0] - 1


def _walk_back(cycles, predecessors, is_ge) -> tuple[int, int, int, tuple]:
    """Walk a graph backwards from its cycles, depth first: (the states
    reached, cycles included; the largest distance to a cycle among them;
    the Garden of Eden states among them; per cycle, its smallest Garden
    of Eden state, or None).

    Every state off a cycle has exactly one successor, so each is reached
    once, from the cycle state its orbit enters, with no visited set:
    memory follows the walk's depth, not the number of states.  Each
    stack entry iterates over one state's predecessors, which may be made
    lazily: is_ge(x) is true exactly when x has none, so no iterator is
    opened for a Garden of Eden state.
    """
    count = max_tail = ge_count = 0
    smallest_ge = []
    for cyc in cycles:
        count += len(cyc)
        first = None
        # it yields the states at distance len(stack) + 1: first those off the cycle
        it = (p for i, x in enumerate(cyc) for p in predecessors(x) if p != cyc[i - 1])
        stack = []  # the iterators nearer the cycle, nearest first
        while True:
            x = next(it, None)
            if x is None:
                if not stack:
                    break
                it = stack.pop()
                continue
            count += 1
            if is_ge(x):
                ge_count += 1
                if first is None or x < first:
                    first = x
                # a state with predecessors has one farther out, so the
                # farthest state is a Garden of Eden state
                if len(stack) >= max_tail:
                    max_tail = len(stack) + 1
            else:
                stack.append(it)
                it = iter(predecessors(x))
        smallest_ge.append(first)
    return count, max_tail, ge_count, tuple(smallest_ge)


def _montreal_seed_count(n: int) -> int:
    # (n), then C(n-2+j, j) with j = 1..n-1 more parts; none at n = 0
    return comb(2 * n - 2, n - 1) if n else 0


def _montreal_leaders(n: int, limit: float) -> tuple[list[Composition], int]:
    """The Montreal cycles through the seeds, the compositions of n in at
    most n parts: the smallest state of each, in ascending order, and the
    number of states on them all.

    Every Montreal state lies on a cycle (Cannings and Haigh, "Montreal
    solitaire"), and only the smallest seed on a cycle keeps it, the
    cycle-leader rule of in-place permutation (Fich, Munro and Poblete,
    "Permuting in place"): each seed's orbit is dropped at the first seed
    smaller than it, and one that comes back has found its cycle, whose
    smallest state is often not a seed.  Nothing holds every state.

    The kept cycles must hold every seed between them.  If an orbit loops
    without coming back to its seed (its walk meets Brent's tortoise, a
    state it passed earlier), or some seed lies on no kept cycle, the
    seeds are orbited again in enumeration order and the first one off
    its cycle raises WalkError.  A walk longer than limit states, or kept
    cycles holding more than limit states between them, raise
    EnumerationBoundError; all of this before anything is printed.
    """
    step, leaders, count, on_cycles = montreal_step, [], 0, 0
    too_many = f"the orbits visit more than the limit of {limit} states"
    for seed in enumerate_montreal_compositions(n):
        x, low, length, seeds = step(seed), seed, 1, 1
        tortoise, power = seed, 1  # Brent's: the walk meets it only in a loop without the seed
        while x != seed and x != tortoise:
            if length > limit:
                raise EnumerationBoundError(too_many)
            if len(x) <= n:
                if x < seed:
                    break
                seeds += 1
            if x < low:
                low = x
            if length == power:
                tortoise, power = x, 2 * power
            x, length = step(x), length + 1
        else:
            if x != seed:  # a loop that misses the seed
                break
            count += length
            if count > limit:
                raise EnumerationBoundError(too_many)
            on_cycles += seeds
            leaders.append(low)
    else:
        if on_cycles == _montreal_seed_count(n):
            leaders.sort()
            return leaders, count
    for seed in enumerate_montreal_compositions(n):
        if tail_cycle(seed, step, limit)[0]:
            raise WalkError(f"the orbit of {state_label(seed)} does not come back to it")
    raise WalkError(f"the Montreal cycles hold {on_cycles} seeds, not {_montreal_seed_count(n)}")


class _Stream:
    """A sized, re-iterable collection whose items are made afresh on each
    pass, so that no pass holds them all."""

    def __init__(self, make: Callable[[], Iterator], size: int):
        self._make = make
        self._size = size

    def __iter__(self) -> Iterator:
        return self._make()

    def __len__(self) -> int:
        return self._size


@dataclass(frozen=True)
class GraphSummary:
    """Exact structure of one variant's state graph on all states of size n.

    edges is a stream for every variant, and so is ge_states unless it is
    empty: each pass makes them afresh, in ascending order of the source
    state, as a sorted tuple would hold them.  cycles is a tuple, or for
    a graph read off its cycles (Montreal) a stream that makes each cycle
    afresh, rotated, in ascending order.  smallest_ge holds, per
    cycle, the smallest Garden of Eden state whose orbit enters it, or
    None.
    """

    n: int
    variant: str
    state_count: int
    cycles: tuple[tuple[State, ...], ...] | _Stream
    max_tail: int
    ge_states: tuple[State, ...] | _Stream
    edges: _Stream = field(repr=False)
    smallest_ge: tuple[State | None, ...] = ()

    @property
    def component_count(self) -> int:
        return len(self.cycles)

    @property
    def cycle_lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cycles)

    def json_chunks(self) -> Iterator[str]:
        """The text of to_json(), a piece at a time."""
        head = {
            "n": self.n,
            "variant": self.variant,
            "state_count": self.state_count,
            "component_count": self.component_count,
            "max_tail": self.max_tail,
        }
        return json_with_bulk(head, ("cycles", "[]", map(_cycle_json, self.cycles)),
                              ("ge_states", "[]", map(_state_json, self.ge_states)))

    def dot_chunks(self) -> Iterator[str]:
        """The text of to_dot(), a piece at a time."""
        yield f"digraph {self.variant}_n{self.n} {{"
        lines = chain(
            (f'\n  "{state_label(s)}" [ge=true, style=dashed];' for s in self.ge_states),
            (f'\n  "{state_label(a)}" -> "{state_label(b)}";' for a, b in self.edges),
        )
        for batch in _batches(lines):
            yield "".join(batch)
        yield "\n}"

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    def to_dot(self) -> str:
        """DOT digraph with one edge per state; GE nodes are marked."""
        return "".join(self.dot_chunks())


def analyze_state_space(
    n: int,
    variant: str = "bulgarian",
    *,
    L: int | None = None,
    limit: float = inf,
) -> GraphSummary:
    """Exhaustively analyze every state of total n under one variant, as
    its record in get_variant describes the graph.

    A graph with a predecessor rule is walked back from its cycles, each
    found by an orbit under the variant's own move, and the walk checks
    itself: it must reach all total(n, L) states, or a cycle was missed.
    The component count is the number of cycles the walk started from,
    never the total it is compared against.  A caller can size these
    graphs beforehand with total(n, L).

    A graph without one (Montreal) is its cycles: no tails, no Garden of
    Eden state.  Its record gives each cycle's smallest state, and the
    summary's cycles are a stream that walks each again from there until
    it comes back, so only the DOT edges, in ascending order of every
    state, sort them all.
    Its cycles leave its seeds; their states count against limit, and
    more than limit states raise EnumerationBoundError.
    """
    game = get_variant(variant, L=L)
    if game.cycles is None:
        raise ValueError(f"variant {variant!r} has no state enumeration")
    cycles, step = game.cycles(n, L, limit), game.step
    if game.predecessors is None:
        leaders, count = cycles
        max_tail, ge_count, smallest_ge = 0, 0, (None,) * len(leaders)
        cycles = _Stream(lambda: ((x, *takewhile(x.__ne__, trajectory(step(x), step)))
                                  for x in leaders), len(leaders))
        states, is_ge = lambda: sorted(chain.from_iterable(cycles)), None
    else:
        count, max_tail, ge_count, smallest_ge = _walk_back(cycles, game.predecessors, game.is_ge)
        total = game.total(n, L)
        if count != total:
            raise WalkError(
                f"the walk back from the cycles counted {count} states, "
                f"not the {total} {game.what.format(n=n, L=L)}"
            )
        states, is_ge = partial(game.states, n, L), game.is_ge
    return GraphSummary(
        n=n,
        variant=variant,
        state_count=count,
        cycles=cycles,
        max_tail=max_tail,
        ge_states=_Stream(lambda: filter(is_ge, states()), ge_count) if ge_count else (),
        edges=_Stream(lambda: ((x, step(x)) for x in states()), count),
        smallest_ge=smallest_ge,
    )


# --- Garden of Eden ---

def garden_of_eden_test(lam: Partition) -> bool:
    """True iff lam has no predecessor: its largest part is below s - 1,
    where s is the number of parts."""
    if not lam:
        raise ValueError("empty partition")
    return lam[0] < len(lam) - 1


def garden_of_eden_texts(n: int) -> Iterator[str]:
    """format_parts of each Garden of Eden partition of n, in
    reverse-lexicographic order, with no tuple per partition.

    This is Zoghbi and Stojmenovic's ZS1 ("Fast algorithms for generating
    integer partitions", 1998): every slot past the current parts already
    holds a 1 and h marks the last part above 1, so a step touches only
    the parts it changes.  pre[i], the text of x[0..i], is rewritten only
    where a step writes x, and a partition's text is pre[h] and its
    m - 1 - h trailing 1s."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    ones, sep = [",1" * i for i in range(n)], [f",{i}" for i in range(n)]
    x, pre = [n] + [1] * (n - 1), [str(n)] + [""] * (n - 1)
    m, h = 1, 0  # (n) has a predecessor, as has every partition of n < 3
    while n > 2:
        if x[h] == 2:  # 2 -> 1,1: the prefix before it is already written
            if not h:  # 1^n, past which ZS1 stops
                yield "1" + ones[n - 1]
                return
            x[h] = 1
            h -= 1
            m += 1
        else:
            r, t = x[h] - 1, m - h
            x[h] = r
            pre[h] = text = pre[h - 1] + sep[r] if h else str(r)
            while t >= r:
                h, t, text = h + 1, t - r, text + sep[r]
                x[h], pre[h] = r, text
            m = h + 1 + (t > 0)
            if t > 1:
                h += 1
                x[h], pre[h] = t, text + sep[t]
        if x[0] < m - 1:
            yield pre[h] + ones[m - 1 - h]


# --- classical-results reports ---

@dataclass(frozen=True)
class KnuthReport:
    """Does every partition of k(k+1)/2 reach the staircase in k(k-1) steps?"""

    k: int
    n: int
    exponent: int
    states_checked: int
    witnesses: tuple[Partition, ...]  # exceptions; empty when the claim holds

    @property
    def holds(self) -> bool:
        return not self.witnesses


def knuth_exponent_check(k: int) -> KnuthReport:
    """Check that B^(k(k-1)) sends every partition of k(k+1)/2 to the staircase.

    The claim holds exactly when analyze_state_space finds one cycle, the
    staircase, and no state farther from it than the exponent; its walk
    back from the cycles checks that it counted all p(n) partitions.
    Memory follows the walk's depth.  Only when the claim fails are the
    witnesses listed, in reverse-lexicographic order: every partition that
    B^(k(k-1)) does not send to the staircase, a fixed point.
    """
    return _knuth_check(k, k * (k - 1))


def _knuth_check(k: int, exponent: int) -> KnuthReport:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = k * (k + 1) // 2
    sigma = staircase(k)
    g = analyze_state_space(n)
    if g.cycles == ((sigma,),) and g.max_tail <= exponent:
        return KnuthReport(k, n, exponent, g.state_count, ())
    bad = sorted((
        lam for lam in enumerate_partitions(n)
        if next(islice(trajectory(lam, bulgarian_step), exponent, None)) != sigma
    ), reverse=True)
    return KnuthReport(k, n, exponent, g.state_count, tuple(bad))


@dataclass(frozen=True)
class ToomReport:
    """Longest-known approach to the staircase, with its mirror symmetry."""

    k: int
    tau: Partition
    minimal_steps: int
    expected_steps: int
    conjugacy_holds: bool
    path: tuple[Partition, ...]

    @property
    def holds(self) -> bool:
        return self.minimal_steps == self.expected_steps and self.conjugacy_holds


def toom_path(k: int) -> ToomReport:
    """Iterate from tau = (k-1, k-1, k-2, ..., 2, 1, 1) to the staircase.

    Checks that the trip takes exactly k(k-1) moves and that states i and
    k(k-1)-i-1 along the way are conjugate partitions.  The staircase is a
    fixed point, so the orbit ends on it twice; the path drops the repeat.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    tau = (k - 1,) + staircase(k - 1) + (1,)
    expected = k * (k - 1)
    path = orbit(tau, bulgarian_step).path[:-1]
    s = len(path) - 1
    conjugacy = s == expected and all(
        path[i] == conjugate(path[s - i - 1]) for i in range(s)
    )
    return ToomReport(k, tau, s, expected, conjugacy, path)


@dataclass(frozen=True)
class CycleWitness:
    """A Garden of Eden state whose orbit lands on the given cycle."""

    cycle: tuple[Partition, ...]
    ge_state: Partition | None
    path: tuple[Partition, ...]


@dataclass(frozen=True)
class ReachabilityReport:
    n: int
    holds: bool
    witnesses: tuple[CycleWitness, ...]


def ge_reachability_check(n: int) -> ReachabilityReport:
    """Verify every cycle of the Bulgarian graph is entered by some
    Garden of Eden orbit, replaying the orbit of each cycle's smallest_ge
    in analyze_state_space's summary.  Defined for n >= 3: the two
    smallest card counts have no Garden of Eden states at all."""
    if n < 3:
        raise ValueError(f"defined for n >= 3, got {n}")
    g = analyze_state_space(n)
    witnesses = tuple(
        CycleWitness(cyc, ge, () if ge is None else orbit(ge, bulgarian_step).path)
        for cyc, ge in zip(g.cycles, g.smallest_ge)
    )
    return ReachabilityReport(n, None not in g.smallest_ge, witnesses)
