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
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, combinations, islice, permutations
from math import comb, inf
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .necklaces import _austrian_state_count, list_necklaces, partition_count
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
    enumerate_compositions,  # unused here; bench/tracing.py wraps it by name
    enumerate_compositions_ascending,
    enumerate_montreal_compositions,
    enumerate_partitions,
    enumerate_partitions_ascending,
    format_parts,
    join_parts,
    parts_to_json,
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
    if isinstance(state, tuple):
        return parts_to_json(state)
    return state.to_jsonable()


# bsol writes one JSON layout, that of json.dumps(..., indent=2): _NL[d]
# starts a line d levels down and _SEP[d] separates two members there.
_NL = tuple("\n" + "  " * depth for depth in range(5))
_SEP = tuple("," + nl for nl in _NL)

# a nonempty partition's object two levels down, around its parts and n
_STATE_HEAD = "{" + _NL[3] + '"parts": [' + _NL[4]
_STATE_SEP = _SEP[4]
_STATE_MID = _NL[3] + "]" + _SEP[3] + '"n": '
_STATE_TAIL = _NL[2] + "}"
# members of a large JSON list or dict, or DOT lines, per output chunk: one
# write per member would cost more than the member, one chunk would hold all
_BATCH = 512


def _state_json(state: State) -> str:
    """json.dumps(state_to_jsonable(state), indent=2) as it reads two
    levels down a document.

    Nonempty tuples fill the template above with the parts' texts.  Other
    states go through json.dumps, re-indented at every newline: json
    escapes newlines inside strings, so each raw one starts a line.
    """
    if isinstance(state, tuple) and state:
        return f"{_STATE_HEAD}{join_parts(state, _STATE_SEP)}{_STATE_MID}{sum(state)}{_STATE_TAIL}"
    return json.dumps(state_to_jsonable(state), indent=2).replace("\n", _NL[2])


def json_with_bulk(head: dict, key: str, brackets: str, members: Iterable[str]) -> Iterator[str]:
    """json.dumps({**head, key: value}, indent=2), in chunks, for a large
    list or dict value whose members come already rendered, two levels down.

    json uses its C encoder only without an indent; with one it falls back
    to a pure-Python encoder that also holds every fragment until the end.
    Here only the small head goes through json, and the members are joined
    a batch at a time, so no chunk holds them all.  brackets is "[]" or
    "{}", and a dict member is its '"key": value' text.
    """
    text = json.dumps(head, indent=2).removesuffix("\n}")
    yield f"{text}{_SEP[1]}{json.dumps(key)}: "
    opening = sep = brackets[0] + _NL[2]
    members = iter(members)
    while batch := list(islice(members, _BATCH)):
        yield sep + _SEP[2].join(batch)
        sep = _SEP[2]
    yield (brackets if sep is opening else _NL[1] + brackets[1]) + "\n}"


def state_label(state: State) -> str:
    if isinstance(state, tuple):
        return format_parts(state)
    if isinstance(state, AustrianState):
        return f"{format_parts(state.piles)};bank={state.bank}"
    if isinstance(state, PointerState):
        return f"{format_parts(state.piles)};ptr={state.pointer}"
    return "|".join(format_parts(lam) for lam in state.players)


def default_step_bound(state: State) -> int:
    # 4n^2 sits far above the k(k-1) exponent proven for the Bulgarian game;
    # seats and player counts add positional freedom beyond the card count.
    # It proves nothing for Montreal, whose state space is infinite.
    n = state_total(state)
    if isinstance(state, PointerState):
        n += len(state.piles)
    elif isinstance(state, MultiplayerState):
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


def orbit(start: State, step: StepFn, step_bound: int | None = None) -> OrbitResult:
    """Iterate step until the first state repetition.

    path holds tail + cycle_length + 1 states (the repeat included);
    exceeding step_bound raises StepBoundError, which signals a defect
    on the finite state spaces, not on Montreal's infinite one.
    """
    if step_bound is None:
        step_bound = default_step_bound(start)
    seen = {start: 0}
    path = [start]
    while True:
        x = step(path[-1])
        path.append(x)
        if x in seen:
            first = seen[x]
            return OrbitResult(tuple(path), first, tuple(path[first:-1]))
        if len(path) - 1 >= step_bound:
            raise StepBoundError(
                f"no repetition within {step_bound} steps from {state_label(start)}"
            )
        seen[x] = len(path) - 1


def floyd_tail_cycle(start: State, step: StepFn) -> tuple[int, int]:
    """Constant-memory tortoise-and-hare; returns (tail, cycle_length)."""
    tortoise = step(start)
    hare = step(step(start))
    while tortoise != hare:
        tortoise = step(tortoise)
        hare = step(step(hare))
    tail = 0
    tortoise = start
    while tortoise != hare:
        tortoise = step(tortoise)
        hare = step(hare)
        tail += 1
    length = 1
    hare = step(tortoise)
    while tortoise != hare:
        hare = step(hare)
        length += 1
    return tail, length


def orbit_json_lines(result: OrbitResult) -> list[str]:
    """One compact JSON object per path state."""
    return [
        json.dumps(state_to_jsonable(s), separators=(",", ":")) for s in result.path
    ]


# --- variant registry ---

@dataclass(frozen=True)
class Variant:
    """A deterministic variant's move and kind of state and, for the five
    that analyze_state_space serves, the facts of its graph on n cards.

    Only the Austrian game reads the lifetime L that each fact takes.  A
    graph without a predecessor rule (Montreal) is its cycles, and total
    counts its seeds.  The dual graph is the Bulgarian graph conjugated,
    walked as that graph: mirror maps the walked cycles onto its own.
    """

    name: str
    step: StepFn
    state_kind: str
    cycles: Callable | None = None  # (n, L, limit): each rotated, ascending
    predecessors: Callable | None = None  # every state one move sends to a state
    is_ge: Callable | None = None  # true exactly when a state has no predecessor
    states: Callable | None = None  # (n, L): every state, made afresh, ascending
    total: Callable | None = None  # (n, L): how many states the walk reaches
    what: str = ""  # those states, with {n} and {L}, for the walk's self-check
    mirror: StepFn | None = None
    mirror_ge: Callable | None = None  # the GE rule of the mirrored graph


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
    partitions = dict(
        cycles=lambda n, L, limit: _bulgarian_cycles(n), predecessors=_predecessors,
        is_ge=garden_of_eden_test, states=lambda n, L: enumerate_partitions_ascending(n),
        total=lambda n, L: partition_count(n), what="partitions of {n}",
    )
    registry = {
        "bulgarian": Variant("bulgarian", bulgarian_step, "partition", **partitions),
        "dual": Variant(
            "dual", dual_step, "partition", **partitions, mirror=conjugate, mirror_ge=_dual_ge
        ),
        "carolina": Variant(
            "carolina", carolina_step, "strict",
            cycles=lambda n, L, limit: _carolina_cycles(n), predecessors=_carolina_predecessors,
            is_ge=garden_of_eden_test, states=lambda n, L: enumerate_compositions_ascending(n),
            total=lambda n, L: 2 ** (n - 1), what="compositions of {n}",
        ),
        # the seeds: (n), then C(n-2+j, j) with j = 1..n-1 more parts, a hockey-stick sum
        "montreal": Variant(
            "montreal", montreal_step, "montreal",
            cycles=lambda n, L, limit: _montreal_cycles(n, limit),
            total=lambda n, L: comb(2 * n - 2, n - 1) if n else 1,
        ),
        "austrian": Variant(
            "austrian", austrian_step, "austrian",
            cycles=lambda n, L, limit: _austrian_cycles(n, L),
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


class _Walk(NamedTuple):
    states: int  # states reached, cycles included
    max_tail: int  # the largest distance to a cycle among them
    ge_count: int  # Garden of Eden states among them
    smallest_ge: list  # per cycle, its smallest Garden of Eden state or None


def _walk_back(cycles, predecessors, is_ge) -> _Walk:
    """Walk a graph backwards from its cycles, depth first.

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
    return _Walk(count, max_tail, ge_count, smallest_ge)


def _bulgarian_cycles(n: int) -> list[tuple[Partition, ...]]:
    """The cycles of the Bulgarian graph on partitions of n, each rotated
    to start at its smallest state, in ascending order.

    Write n = (k-1)k/2 + r.  Each necklace of r black beads among k gives
    a state on a cycle: pile i holds k - i cards, plus one if bead i is
    black (Brandt, "Cycles of partitions").  Its orbit is the cycle.
    """
    if n == 0:
        return [((),)]
    k, r = triangular_decompose(n)
    cycles = set()
    for necklace in list_necklaces(k, r):
        piles = (k - i + bead for i, bead in enumerate(necklace.beads, 1))
        cycles.add(_rotated(orbit(tuple(p for p in piles if p), bulgarian_step).cycle))
    return sorted(cycles)


def _carolina_cycles(n: int) -> list[tuple[Composition, ...]]:
    """The cycles of the Carolina graph on compositions of n, each rotated
    to start at its smallest state, in ascending order.

    Sorting commutes with the move, so a Carolina cycle sorts onto a whole
    Bulgarian cycle (Griggs and Ho, "The cycling of partitions and
    compositions under repeated shifts") and passes through some ordering
    of that cycle's first state.  The orbit of each ordering ends on one.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return sorted({
        _rotated(orbit(alpha, carolina_step).cycle)
        for bulgarian in _bulgarian_cycles(n)
        for alpha in set(permutations(bulgarian[0]))
    })


def _austrian_cycles(n: int, L: int) -> list[tuple[AustrianState, ...]]:
    """The one cycle of the Austrian game (Akin and Davis, "Bulgarian
    solitaire"), rotated: the one the first enumerated state's orbit ends on."""
    return [_rotated(orbit(x, austrian_step).cycle) for x in islice(_austrian_states(n, L), 1)]


def _montreal_cycles(n: int, limit: float) -> list[tuple[Composition, ...]]:
    """The Montreal cycles through the seeds, the compositions of n in at
    most n parts, each rotated, in ascending order.

    Every Montreal state lies on a cycle (Cannings and Haigh, "Montreal
    solitaire"), so each seed not seen yet is orbited until it comes back;
    meeting any other state seen before raises WalkError.  Orbits leave
    the seeds, so visiting more than limit states raises
    EnumerationBoundError.
    """
    seen, cycles, step = set(), [], montreal_step
    for seed in enumerate_montreal_compositions(n):
        cyc, x = [], seed
        while x not in seen:
            seen.add(x)
            if len(seen) > limit:
                raise EnumerationBoundError(
                    f"the orbits visit more than the limit of {limit} states"
                )
            cyc.append(x)
            x = step(x)
        if x != seed:
            raise WalkError(f"the orbit of {state_label(seed)} does not come back to it")
        if cyc:
            cycles.append(_rotated(cyc))
    return sorted(cycles)


def _walk_graph(game: Variant, n: int, L: int | None = None, limit: float = inf):
    """A variant's graph on n cards: (cycles, walk, states, is_ge), where
    states() makes every state afresh, ascending, and is_ge is the GE rule.

    A graph with a predecessor rule is walked back from its cycles, and
    the walk checks itself: it must reach all game.total(n, L) states, or
    a cycle was missed.  The component count is the number of cycles the
    walk started from, never the total it is compared against.  Each
    cycle must also step round under the variant's own move; the dual
    move refuses the empty partition of 0 cards here.  A graph without
    one is its cycles: no tails, no GE state.
    """
    cycles = game.cycles(n, L, limit)
    if game.predecessors is None:
        walk = _Walk(sum(map(len, cycles)), 0, 0, [None] * len(cycles))
        return cycles, walk, lambda: sorted(chain.from_iterable(cycles)), None
    walk = _walk_back(cycles, game.predecessors, game.is_ge)
    total = game.total(n, L)
    if walk.states != total:
        raise WalkError(
            f"the walk back from the cycles counted {walk.states} states, "
            f"not the {total} {game.what.format(n=n, L=L)}"
        )
    is_ge = game.is_ge
    if game.mirror is not None:
        cycles = sorted(_rotated(tuple(map(game.mirror, cyc))) for cyc in cycles)
        is_ge = game.mirror_ge
    for cyc in cycles:
        if any(game.step(a) != b for a, b in zip(cyc, cyc[1:] + cyc[:1])):
            raise WalkError(f"{state_label(cyc[0])} does not start a {game.name} cycle")
    return cycles, walk, partial(game.states, n, L), is_ge


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
    state, as a sorted tuple would hold them.
    """

    n: int
    variant: str
    state_count: int
    cycles: tuple[tuple[State, ...], ...]
    max_tail: int
    ge_states: tuple[State, ...] | _Stream
    edges: _Stream | None = field(default=None, repr=False)

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
            "cycles": [[state_to_jsonable(s) for s in cyc] for cyc in self.cycles],
        }
        return json_with_bulk(head, "ge_states", "[]", map(_state_json, self.ge_states))

    def dot_chunks(self) -> Iterator[str]:
        """The text of to_dot(), a piece at a time."""
        if self.edges is None:
            raise ValueError("summary was built without keep_edges=True")
        yield f"digraph {self.variant}_n{self.n} {{"
        lines = chain(
            (f'\n  "{state_label(s)}" [ge=true, style=dashed];' for s in self.ge_states),
            (f'\n  "{state_label(a)}" -> "{state_label(b)}";' for a, b in self.edges),
        )
        while batch := list(islice(lines, _BATCH)):
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
    keep_edges: bool = False,
    limit: float = inf,
) -> GraphSummary:
    """Exhaustively analyze every state of total n under one variant, as
    its record in get_variant describes the graph (see _walk_graph).

    The walked graphs hold exactly the total(n, L) states, which a caller
    can size beforehand.  The Montreal graph's cycles leave its seeds;
    everything visited is counted, and visiting more than limit states
    raises EnumerationBoundError.
    """
    game = get_variant(variant, L=L)
    if game.cycles is None:
        raise ValueError(f"variant {variant!r} has no state enumeration")
    cycles, walk, states, is_ge = _walk_graph(game, n, L, limit)
    step = game.step
    return GraphSummary(
        n=n,
        variant=variant,
        state_count=walk.states,
        cycles=tuple(cycles),
        max_tail=walk.max_tail,
        ge_states=_Stream(lambda: filter(is_ge, states()), walk.ge_count) if walk.ge_count else (),
        edges=_Stream(lambda: ((x, step(x)) for x in states()), walk.states)
        if keep_edges else None,
    )


# --- Garden of Eden ---

def garden_of_eden_test(lam: Partition) -> bool:
    """True iff lam has no predecessor: its largest part is below s - 1,
    where s is the number of parts."""
    if not lam:
        raise ValueError("empty partition")
    return lam[0] < len(lam) - 1


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

    The claim holds exactly when the walk back from the cycles finds one
    cycle, the staircase, and no state farther from it than the exponent;
    the walk checks that it counted all p(n) partitions.  Memory follows
    the walk's depth.  Only when the claim fails are the witnesses listed:
    every partition whose orbit ends elsewhere or takes longer, in
    enumeration order.
    """
    return _knuth_check(k, k * (k - 1))


def _knuth_check(k: int, exponent: int) -> KnuthReport:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = k * (k + 1) // 2
    sigma = staircase(k)
    cycles, walk, _, _ = _walk_graph(get_variant("bulgarian"), n)
    if cycles == [(sigma,)] and walk.max_tail <= exponent:
        return KnuthReport(k, n, exponent, walk.states, ())
    bad = []
    for lam in enumerate_partitions(n):
        result = orbit(lam, bulgarian_step)
        if result.cycle != (sigma,) or result.tail > exponent:
            bad.append(lam)
    return KnuthReport(k, n, exponent, walk.states, tuple(bad))


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
    Garden of Eden orbit.  Defined for n >= 3: the two smallest card
    counts have no Garden of Eden states at all."""
    if n < 3:
        raise ValueError(f"defined for n >= 3, got {n}")
    cycles, walk, _, _ = _walk_graph(get_variant("bulgarian"), n)
    witnesses = []
    for cyc, ge in zip(cycles, walk.smallest_ge):
        path = () if ge is None else orbit(ge, bulgarian_step).path
        witnesses.append(CycleWitness(cyc, ge, path))
    return ReachabilityReport(n, None not in walk.smallest_ge, tuple(witnesses))
