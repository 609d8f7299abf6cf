"""Differential tests: each fast path against the loop it replaced.

The oracles below are the earlier box-by-box, index-by-index and
state-by-state implementations, kept verbatim as references.  Results are
compared with ==, floats included, because the arithmetic is the same
integer total divided by the same n; a ValueError must be raised by both
or by neither, with the same message.  The JSON and DOT writers are
compared with json.dumps and the old DOT loop, and the Garden of Eden
texts that they list for partitions and compositions with the tuple
states, each through format_parts, and so are the Carolina edge lines with
the tuple edges.  Where a primitive had two copies (the normaliser, the
Toom walk, the GE pass, the chain loop, the Montreal recursion, the
orbit's cycle finder, the pentagonal partition count, the cell-by-cell
necklace reader, the two circular deals), the copy that was folded away
is the oracle for the one that stayed.  The graph
stages that became single passes (the Montreal move's loop, the
composition loop) keep their earlier versions as oracles too.  Every
graph, walked back from its cycles or, for Montreal, read off its seeds'
cycles, is compared with the forward explorer that once served them all,
the dual walk with the Bulgarian summary conjugated, the mirror it
replaced, and the Montreal cycle leaders with the visited set they
replaced.  A chain draws and moves in one loop per variant; it is compared
with the per-move samplers and masked steps, and its means, from one block
pass below 2**53 and state by state past it, with the per-part loop; its
packed tally is compared with the tuple Counter it replaced.  The
exhaustive commands' stdout is pinned by SHA-256.
"""

import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import asdict
from itertools import combinations, product, repeat, zip_longest
from math import comb, inf

import pytest
from hypothesis import given, settings, strategies as st

import bsol.cli
import bsol.dynamics
import bsol.stochastic
from bsol.cli import DEFAULT_STATE_LIMIT, main
from bsol.dynamics import (
    CycleWitness,
    GraphSummary,
    KnuthReport,
    OrbitResult,
    ReachabilityReport,
    StepBoundError,
    ToomReport,
    WalkError,
    _CHUNK,
    _austrian_predecessors,
    _austrian_states,
    _carolina_predecessors,
    _cycle_json,
    _dual_predecessors,
    _knuth_check,
    _predecessors,
    _rotated,
    _state_json,
    analyze_state_space,
    default_step_bound,
    ge_reachability_check,
    get_variant,
    knuth_exponent_check,
    orbit,
    state_label,
    state_to_jsonable,
    tail_cycle,
    toom_path,
)
from bsol.necklaces import (
    Necklace,
    _austrian_state_count,
    necklace_of_state,
    necklace_state,
    partition_count,
)
from bsol.operators import (
    AustrianState,
    MultiplayerState,
    PointerState,
    austrian_step,
    bulgarian_step,
    carolina_step,
    dual_step,
    ejs_masked_step,
    janetzko_step,
    montreal_step,
    popov_masked_step,
    servedio_yeh_step,
)
from bsol.partitions import (
    EnumerationBoundError,
    carolina_edge_texts,
    conjugate,
    enumerate_compositions,
    enumerate_montreal_compositions,
    enumerate_partitions,
    enumerate_texts,
    format_parts,
    normalize,
    potential_energy,
    staircase,
    triangular_decompose,
)
from bsol.stochastic import (
    _STAT_BLOCK,
    _WIDE,
    ChainConfig,
    _chain_sums,
    _codec,
    _ejs_moves,
    _popov_moves,
    make_rng,
    run_chain,
    sample_ejs_picks,
    sample_popov_mask,
    staircase_distance,
)


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


def enumerate_partitions_oracle(n):
    if n == 0:
        yield ()
        return
    parts = [n]
    yield (n,)
    while True:
        i = len(parts) - 1
        while i >= 0 and parts[i] == 1:
            i -= 1
        if i < 0:
            return
        freed = len(parts) - i  # the decremented unit plus all trailing ones
        parts[i] -= 1
        del parts[i + 1 :]
        cap = parts[i]
        while freed > 0:
            chunk = min(cap, freed)
            parts.append(chunk)
            freed -= chunk
        yield tuple(parts)


def bounded_partitions_oracle(n, cap):
    if n == 0:
        yield ()
        return
    if cap < 1:
        return
    for first in range(min(n, cap), 0, -1):
        for rest in bounded_partitions_oracle(n - first, first):
            yield (first,) + rest


def format_parts_oracle(parts):
    if not parts:
        return "0"
    return ",".join(str(p) for p in parts)


def state_label_oracle(state):
    if isinstance(state, tuple):
        return format_parts_oracle(state)
    if isinstance(state, AustrianState):
        return f"{format_parts_oracle(state.piles)};bank={state.bank}"
    if isinstance(state, PointerState):
        return f"{format_parts_oracle(state.piles)};ptr={state.pointer}"
    return "|".join(format_parts_oracle(lam) for lam in state.players)


def graph_json_oracle(g):
    data = {
        "n": g.n,
        "variant": g.variant,
        "state_count": g.state_count,
        "component_count": g.component_count,
        "max_tail": g.max_tail,
        "cycles": [[state_to_jsonable(s) for s in cyc] for cyc in g.cycles],
        "ge_states": [state_to_jsonable(s) for s in g.ge_states],
    }
    return json.dumps(data, separators=(",", ":"))


def graph_dot_oracle(g):
    lines = [f"digraph {g.variant}_n{g.n} {{"]
    for s in g.ge_states:
        lines.append(f'  "{state_label_oracle(s)}" [ge=true, style=dashed];')
    for a, b in g.edges:
        lines.append(f'  "{state_label_oracle(a)}" -> "{state_label_oracle(b)}";')
    lines.append("}")
    return "\n".join(lines)


def chain_json_oracle(stats):
    data = {
        "config": asdict(stats.config),
        "rng_algorithm": stats.rng_algorithm,
        "mean_shape": list(stats.mean_shape),
        "mean_staircase_distance": stats.mean_staircase_distance,
        "mean_energy": stats.mean_energy,
        "visit_counts": {
            format_parts_oracle(lam): count
            for lam, count in sorted(stats.visit_counts.items(), reverse=True)
        },
    }
    return json.dumps(data, separators=(",", ":"))


def knuth_witnesses_oracle(k, exponent):
    n = k * (k + 1) // 2
    sigma = staircase(k)
    bad = []
    for lam in enumerate_partitions_oracle(n):
        x = lam
        for _ in range(exponent):
            if x == sigma:  # the staircase is fixed, no need to continue
                break
            x = bulgarian_step(x)
        if x != sigma:
            bad.append(lam)
    return tuple(bad)


def normalize_oracle(raw):
    parts = sorted(raw, reverse=True)
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    return tuple(p for p in parts if p > 0)


def settle_oracle(parts):
    parts.sort(reverse=True)
    if parts and parts[-1] < 0:
        raise ValueError(f"negative part in {parts}")
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def montreal_oracle(n, max_len=None):
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    limit = n if max_len is None else max_len
    for length in range(1, limit + 1):
        yield from montreal_fixed_length_oracle(n, length)


def montreal_fixed_length_oracle(n, length):
    if length == 1:
        if n >= 1:
            yield (n,)
        return
    for first in range(n - 1, 0, -1):
        for rest in montreal_tail_oracle(n - first, length - 1):
            yield (first,) + rest


def montreal_tail_oracle(n, length):
    if length == 1:
        if n >= 1:
            yield (n,)
        return
    for v in range(n, -1, -1):
        for rest in montreal_tail_oracle(n - v, length - 1):
            yield (v,) + rest


def explore_oracle(seeds, step):
    """The explorer with a per-seed position map beside succ."""
    succ, dist, comp_of, cycles = {}, {}, {}, {}
    for seed in seeds:
        path, pos = [], {}
        x = seed
        while x not in comp_of and x not in pos:
            pos[x] = len(path)
            path.append(x)
            nxt = succ.get(x)
            if nxt is None:
                nxt = succ[x] = step(x)
            x = nxt
        if x in pos:
            start = pos[x]
            cyc = path[start:]
            key = min(cyc)
            pivot = cyc.index(key)
            cycles[key] = tuple(cyc[pivot:] + cyc[:pivot])
            for s in cyc:
                comp_of[s] = key
                dist[s] = 0
            path = path[:start]
            base = 0
        else:
            key = comp_of[x]
            base = dist[x]
        for back, s in enumerate(reversed(path), 1):
            comp_of[s] = key
            dist[s] = base + back
    return succ, dist, comp_of, cycles


def montreal_cycles_oracle(n, limit, step=montreal_step):
    """The Montreal cycles through the seeds as one visited set found them:
    each seed not seen yet orbited until it comes back, each cycle rotated,
    in ascending order."""
    seen, cycles = set(), []
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


def montreal_summary_oracle(n, limit):
    """The Montreal summary built from the visited set's cycles, edges kept."""
    cycles = montreal_cycles_oracle(n, limit)
    states = sorted(x for cyc in cycles for x in cyc)
    return GraphSummary(
        n=n,
        variant="montreal",
        state_count=len(states),
        cycles=tuple(cycles),
        max_tail=0,
        ge_states=(),
        edges=tuple((x, montreal_step(x)) for x in states),
        smallest_ge=(None,) * len(cycles),
    )


def montreal_step_oracle(alpha):
    """The Montreal move recursing once per zero run, then trimmed."""
    if not alpha:
        return ()
    if alpha[0] <= 0 or alpha[-1] <= 0:
        raise ValueError(f"montreal composition needs positive endpoints: {alpha}")
    raw = montreal_raw_oracle(alpha)
    lo = 0
    while raw[lo] == 0:
        lo += 1
    hi = len(raw)
    while raw[hi - 1] == 0:
        hi -= 1
    return raw[lo:hi]


def montreal_raw_oracle(alpha):
    if not alpha:
        return ()
    j = len(alpha)
    while j > 0 and alpha[j - 1] > 0:
        j -= 1
    if j == 0:
        return tuple(a - 1 for a in alpha) + (len(alpha),)
    gamma = alpha[j:]
    r = 0
    while j - r > 0 and alpha[j - r - 1] == 0:
        r += 1
    beta = alpha[: j - r]
    return montreal_raw_oracle(beta) + (0,) * (r - 1) + montreal_raw_oracle(gamma)


def compositions_oracle(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in compositions_oracle(n - first):
            yield (first,) + rest


def toom_path_oracle(k):
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    tau = (k - 1,) + staircase(k - 1) + (1,)
    sigma = staircase(k)
    expected = k * (k - 1)
    path = [tau]
    bound = default_step_bound(tau)
    while path[-1] != sigma:
        path.append(bulgarian_step(path[-1]))
        if len(path) > bound:
            raise StepBoundError(f"staircase not reached from {tau} within {bound} steps")
    s = len(path) - 1
    conjugacy = s == expected and all(
        path[i] == conjugate(path[s - i - 1]) for i in range(s)
    )
    return ToomReport(k, tau, s, expected, conjugacy, tuple(path))


def orbit_oracle(start, step, step_bound=None):
    """orbit as it kept a map of every state it passed."""
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


def ge_counter_oracle(succ):
    indeg = Counter(succ.values())
    return tuple(sorted(s for s in succ if indeg[s] == 0))


def ge_reachability_oracle(n):
    seeds = list(enumerate_partitions(n))
    succ, _, comp_of, cycles = explore_oracle(seeds, bulgarian_step)
    indeg = Counter(succ.values())
    ge_by_comp = {}
    for s in seeds:
        if indeg[s] == 0:
            key = comp_of[s]
            if key not in ge_by_comp or s < ge_by_comp[key]:
                ge_by_comp[key] = s
    witnesses = []
    holds = True
    for key in sorted(cycles):
        ge = ge_by_comp.get(key)
        if ge is None:
            holds = False
            witnesses.append(CycleWitness(cycles[key], None, ()))
        else:
            witnesses.append(CycleWitness(cycles[key], ge, orbit(ge, bulgarian_step).path))
    return ReachabilityReport(n, holds, tuple(witnesses))


def smallest_ge_oracle(n, variant):
    """Per cycle, in ascending order, the smallest Garden of Eden state
    whose orbit ends on it, or None."""
    step = get_variant(variant).step
    succ, _, _, cycles = explore_oracle(STATES[variant](n, None), step)
    smallest = {}
    for x in ge_counter_oracle(succ):
        smallest.setdefault(min(orbit_oracle(x, step).cycle), x)
    return tuple(smallest.get(key) for key in sorted(cycles))


def dual_summary_oracle(n):
    """(state count, cycles, max tail, GE count, smallest_ge) of the dual
    graph as the Bulgarian summary conjugated: each cycle mapped, rotated
    and sorted together with the conjugate of its GE state whose conjugate
    is smallest."""
    g = analyze_state_space(n)
    smallest = {}
    for x in sorted(g.ge_states, key=conjugate):
        smallest.setdefault(_rotated(orbit(x, bulgarian_step).cycle), conjugate(x))
    cycles, smallest_ge = zip(*sorted(
        (_rotated(tuple(map(conjugate, cyc))), smallest.get(cyc)) for cyc in g.cycles
    ))
    return g.state_count, cycles, g.max_tail, len(g.ge_states), smallest_ge


# every state of n cards, or every Montreal seed, from the public
# enumerators; L is the Austrian lifetime, which the others ignore
STATES = {
    "bulgarian": lambda n, L: enumerate_partitions(n),
    "dual": lambda n, L: enumerate_partitions(n),
    "carolina": lambda n, L: enumerate_compositions(n),
    "montreal": lambda n, L: enumerate_montreal_compositions(n),
    "austrian": lambda n, L: (AustrianState(piles, bank, L) for bank in range(min(L - 1, n) + 1)
                              for piles in sorted(bounded_partitions_oracle(n - bank, L))),
}


def explored_summary_oracle(n, variant, L=None):
    """The summary as the forward explorer builds it from every state,
    edges kept; the Montreal orbits leave the seeds, and every state
    they visit is counted."""
    game = get_variant(variant, L=L)
    succ, dist, _, cycles = explore_oracle(STATES[variant](n, L), game.step)
    return GraphSummary(
        n=n,
        variant=variant,
        state_count=len(succ),
        cycles=tuple(cycles[key] for key in sorted(cycles)),
        max_tail=max(dist.values(), default=0),
        ge_states=ge_counter_oracle(succ),
        edges=tuple(sorted(succ.items())),
    )


def assert_same_graph(walked, explored):
    assert walked.state_count == explored.state_count
    assert tuple(walked.cycles) == explored.cycles
    assert walked.max_tail == explored.max_tail
    assert tuple(walked.ge_states) == explored.ge_states
    assert len(walked.ge_states) == len(explored.ge_states)
    assert walked.to_json() == explored.to_json()
    assert walked.to_dot() == explored.to_dot()


def knuth_explore_oracle(k, exponent):
    """The Knuth check exploring every partition forwards."""
    n = k * (k + 1) // 2
    sigma = staircase(k)
    seeds = sorted(enumerate_partitions(n), reverse=True)  # witnesses in reverse-lex order
    _, dist, comp_of, _ = explore_oracle(seeds, bulgarian_step)
    bad = tuple(lam for lam in seeds if comp_of[lam] != sigma or dist[lam] > exponent)
    return KnuthReport(k, n, exponent, len(seeds), bad)


def chain_tally_oracle(config):
    """visit_counts and the recorded path of the per-move branching loop."""
    rng = make_rng(config.seed)
    state = config.initial
    counts, path = {}, [state]
    for step_index in range(config.burn_in + config.samples):
        if config.variant == "popov":
            state = popov_masked_step(state, sample_popov_mask(rng, state, config.p))
        else:
            state = ejs_masked_step(state, sample_ejs_picks(rng, state, config.p))
        path.append(state)
        if step_index >= config.burn_in:
            counts[state] = counts.get(state, 0) + 1
    return counts, tuple(path)


def chain_means_oracle(counts, samples):
    """Mean shape, staircase distance and energy of the per-part loop."""
    if samples == 0:
        return (), 0.0, 0.0
    width = max(len(lam) for lam in counts)
    shape_sum = [0.0] * width
    dist_sum = 0.0
    energy_sum = 0.0
    for lam, count in counts.items():
        for i, part in enumerate(lam):
            shape_sum[i] += part * count
        dist_sum += staircase_distance_oracle(lam) * count
        energy_sum += potential_energy_oracle(lam) * count
    return tuple(v / samples for v in shape_sum), dist_sum / samples, energy_sum / samples


def pentagonal_partition_counts(n):
    """p(0), ..., p(n) by Euler's pentagonal-number recurrence."""
    counts = [1]
    while len(counts) <= n:
        m = len(counts)
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > m:
                break
            sign = -1 if j % 2 == 0 else 1
            total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            j += 1
        counts.append(total)
    return counts


def necklace_of_state_oracle(lam):
    """The level-k beads read cell by cell, after checking levels 1..k-1
    full and level k + 1 empty."""
    n = sum(lam)
    k, r = triangular_decompose(n)

    def has_cell(i, j):
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


def servedio_yeh_step_oracle(alpha):
    """Every seat deals its cards one at a time, the first to itself."""
    out = [0] * len(alpha)
    for i, a in enumerate(alpha):
        for j in range(i, i + a):
            out[j % len(alpha)] += 1
    return tuple(out)


def janetzko_step_oracle(state):
    """The pointed seat deals its cards one at a time to the seats on its
    right; the pointer moves to the seat of the last card, or on by one."""
    piles, c = list(state.piles), len(state.piles)
    seat = state.pointer - 1
    cards, piles[seat] = piles[seat], 0
    if not cards:
        seat = (seat + 1) % c
    for _ in range(cards):
        seat = (seat + 1) % c
        piles[seat] += 1
    return PointerState(tuple(piles), seat + 1)


def outcome(fn, *args):
    """The result, or the ValueError's or StepBoundError's message, so both
    can be compared."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))
    except StepBoundError as exc:
        return ("StepBoundError", str(exc))


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


@pytest.mark.parametrize("n", [55, 56, 1_000_003, 10**12])
def test_staircase_distance_matches_oracle_past_the_shorter_shape(n):
    # the staircase's parts past lam are summed in closed form, so the cost
    # follows len(lam), not k, which is 1,414,214 at n = 10**12
    k, r = triangular_decompose(n)
    heads = [(n,), (n - 1, 1), (n - 3, 2, 1)]
    if k < 10_000:  # the oracle walks all k parts of the staircase
        heads.append((*range(k - 1, 0, -1), r))
    if n < 100:
        heads += [(1,) * n, (2,) * (n // 2) + (1,) * (n % 2)]
    for lam in heads:
        lam = normalize(lam)
        assert sum(lam) == n
        assert staircase_distance(lam) == staircase_distance_oracle(lam)


# --- exhaustive enumeration and the Knuth check ---

def test_enumerate_partitions_matches_oracle():
    for n in range(46):
        assert list(enumerate_partitions(n)) == sorted(enumerate_partitions_oracle(n))


def test_bounded_enumeration_matches_recursive_oracle():
    # each bank's piles are the ascending prefix of the partitions whose
    # first part is at most L, cut where the first part passes L
    for L in range(1, 9):
        for n in range(26):
            assert list(_austrian_states(n, L)) == [
                AustrianState(piles, bank, L) for bank in range(min(L - 1, n) + 1)
                for piles in sorted(bounded_partitions_oracle(n - bank, L))], (n, L)


def test_knuth_check_matches_stepping_oracle():
    for k in range(1, 8):
        report = knuth_exponent_check(k)
        assert report.witnesses == knuth_witnesses_oracle(k, k * (k - 1)) == ()
        assert report.states_checked == len(list(enumerate_partitions_oracle(report.n)))
    # below the proven exponent the witness lists are non-empty and ordered
    for k in range(1, 7):
        for exponent in range(k * (k - 1) + 1):
            report = _knuth_check(k, exponent)
            assert report.exponent == exponent
            assert report.witnesses == knuth_witnesses_oracle(k, exponent)
    assert _knuth_check(6, 0).witnesses[:2] == ((21,), (20, 1))


# --- the JSON and DOT writers ---

GRAPHS = [
    *[("bulgarian", n, None) for n in range(11)],
    *[("dual", n, None) for n in range(1, 11)],
    *[("carolina", n, None) for n in range(1, 11)],
    *[("montreal", n, None) for n in range(1, 9)],
    *[("austrian", n, L) for L in range(1, 5) for n in range(11)],
]


@pytest.mark.parametrize("variant, n, L", GRAPHS)
def test_graph_writers_match_json_dumps_and_the_dot_loop(variant, n, L):
    g = analyze_state_space(n, variant, L=L)
    assert g.to_json() == graph_json_oracle(g)
    assert g.to_dot() == graph_dot_oracle(g)


def test_graph_writers_cover_empty_and_generic_ge_lists():
    assert all(not analyze_state_space(n).ge_states for n in (0, 1, 2))
    assert any(s.bank for s in analyze_state_space(10, "austrian", L=3).ge_states)


# the Bulgarian, dual and Carolina writers list the GE states from a text
# walker; the tuple stream, state by state through format_parts, is its oracle
TEXT_GE = [("bulgarian", range(41)), ("dual", range(1, 41)), ("carolina", range(1, 15))]


@pytest.mark.parametrize("variant, ns", TEXT_GE)
def test_ge_texts_match_the_tuple_states(variant, ns):
    for n in ns:
        g = analyze_state_space(n, variant)
        if n < 3:  # no partition or composition of under 3 cards lacks a predecessor
            assert g.ge_texts is None and g.ge_states == (), n
            continue
        texts = list(g.ge_texts)
        assert texts == [format_parts(s) for s in g.ge_states], n
        assert len(texts) == len(g.ge_texts) == len(g.ge_states), n  # the walk's GE count
    assert analyze_state_space(10, "austrian", L=3).ge_texts is None
    assert analyze_state_space(6, "montreal").ge_texts is None
    with pytest.raises(ValueError, match="nonempty"):  # the dual graph has no 0-card state
        analyze_state_space(0, "dual")


def test_carolina_edge_texts_match_the_tuple_edges():
    # the Carolina DOT writer lists its edges from a text walker; the tuple
    # edges, each through state_label, are its oracle
    for n in range(1, 17):
        g = analyze_state_space(n, "carolina")
        texts = list(g.edge_texts)
        assert texts == [f'\n  "{state_label(a)}" -> "{state_label(b)}";' for a, b in g.edges], n
        assert len(texts) == len(g.edge_texts) == g.state_count == 1 << n >> 1, n
    for variant, L in [("bulgarian", None), ("dual", None), ("montreal", None), ("austrian", 3)]:
        assert analyze_state_space(8, variant, L=L).edge_texts is None, variant


def test_text_walker_writes_every_state_it_is_asked_for():
    # under a rule that keeps every state, the walker lists the tuple enumerator
    for n in range(1, 21):
        assert list(enumerate_texts(n, lambda first, m: True, False)) == [
            format_parts(s) for s in enumerate_partitions(n)], n
    for n in range(1, 13):
        assert list(enumerate_texts(n, lambda first, m: True, True)) == [
            format_parts(s) for s in enumerate_compositions(n)], n
        assert list(enumerate_texts(n, lambda first, m: first == m, True)) == [
            format_parts(s) for s in enumerate_compositions(n) if s[0] == len(s)], n


@pytest.mark.parametrize("variant, n", [("bulgarian", 24), ("dual", 24), ("carolina", 11)])
def test_text_ge_writers_match_the_tuple_writers(variant, n):
    g = analyze_state_space(n, variant)
    assert g.ge_texts is not None
    assert "".join(g.json_chunks()) == graph_json_oracle(g)
    assert "".join(g.dot_chunks()) == graph_dot_oracle(g)


def test_state_writer_matches_json_dumps_for_every_state_kind():
    states = [(), (3,), (4, 0, 2), (300, 1), AustrianState((3, 1), 2, 4),
              PointerState((0, 2, 1), 2), MultiplayerState(((2, 1), (3,)))]
    for s in states:
        assert _state_json(s) == json.dumps(state_to_jsonable(s), separators=(",", ":"))
    # a cycle of them is joined a batch at a time: none, and one past a chunk
    for cycle in ([], states[1:] * 200):
        expected = json.dumps([state_to_jsonable(s) for s in cycle], separators=(",", ":"))
        assert _cycle_json(cycle) == expected
    assert len(expected) > _CHUNK


def test_state_writer_pins_the_record_bytes():
    # a record's keys come in the order of its fields, with no whitespace
    assert _state_json(AustrianState((3, 1), 2, 4)) == '{"piles":[3,1],"bank":2,"L":4}'
    assert _state_json(PointerState((0, 2, 1), 2)) == '{"piles":[0,2,1],"pointer":2}'
    assert _state_json(MultiplayerState(((2, 1), (3,)))) == '{"players":[[2,1],[3]]}'
    assert _state_json(AustrianState((), 0, 1)) == '{"piles":[],"bank":0,"L":1}'
    assert _state_json((4, 0, 2)) == '{"parts":[4,0,2],"n":6}'


@pytest.mark.parametrize("variant, n, samples", [
    ("popov", 12, 400), ("ejs", 15, 300), ("popov", 300, 20), ("ejs", 5, 0),
])
def test_chain_json_matches_json_dumps(variant, n, samples):
    stats = run_chain(ChainConfig(n, variant, 0.7, seed=n, burn_in=10, samples=samples))
    assert (samples == 0) == (not stats.visit_counts)
    assert stats.to_json() == chain_json_oracle(stats)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(-5, 300), st.integers()), max_size=12).map(tuple))
def test_format_parts_matches_str_join(parts):
    assert format_parts(parts) == format_parts_oracle(parts)


# --- one copy of each primitive ---

@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(-3, 300)), max_size=20))
def test_normalize_matches_both_old_normalisers(raw):
    before = list(raw)
    result = outcome(normalize, raw)
    assert result == outcome(normalize_oracle, raw) == outcome(settle_oracle, list(raw))
    assert outcome(normalize, tuple(raw)) == result
    assert raw == before  # normalize sorts a copy


def same_stream(xs, ys):
    """Equal items in equal order, compared one pair at a time."""
    return all(x == y for x, y in zip_longest(xs, ys))


def test_montreal_enumeration_matches_two_function_recursion():
    # up to n = 12: 705,432 compositions of at most 12 parts
    for n in range(1, 13):
        assert same_stream(enumerate_montreal_compositions(n), montreal_oracle(n))


def test_partition_count_matches_the_pentagonal_recurrence():
    assert [partition_count(n) for n in range(201)] == pentagonal_partition_counts(200)


def test_austrian_state_count_matches_the_enumeration():
    for L in range(1, 9):
        for n in range(41):
            assert _austrian_state_count(n, L) == len(list(_austrian_states(n, L)))


def beads_or_error(read, lam):
    """The beads read off lam, or ValueError: the two readers word their
    refusals differently, so only the refusal is compared."""
    try:
        return read(lam).beads
    except ValueError:
        return ValueError


def test_necklace_of_state_matches_the_cell_by_cell_reader():
    for n in range(1, 31):
        k, r = triangular_decompose(n)
        read = 0
        for lam in enumerate_partitions(n):
            beads = beads_or_error(necklace_of_state, lam)
            assert beads == beads_or_error(necklace_of_state_oracle, lam), lam
            if beads is not ValueError:
                assert necklace_state(necklace_of_state(lam)) == lam
                read += 1
        assert read == comb(k, r)  # one minimal-energy state per placement of the beads


def test_circular_steps_match_dealing_one_card_at_a_time():
    for c in range(1, 6):
        for table in product(range(9), repeat=c):
            if sum(table) > 8:
                continue
            assert servedio_yeh_step(table) == servedio_yeh_step_oracle(table)
            for pointer in range(1, c + 1):
                state = PointerState(table, pointer)
                assert janetzko_step(state) == janetzko_step_oracle(state)


# --- one pass per graph stage ---

def test_montreal_step_matches_the_recursion_on_every_small_state():
    # every Montreal composition of n <= 10 with up to n + 3 parts (395,693
    # states), so that long zero runs and states outside the enumerated
    # stratum are stepped; n = 11 alone would add 1.1M states and 15 s
    for n in range(1, 11):
        for alpha in montreal_oracle(n, n + 3):
            assert montreal_step(alpha) == montreal_step_oracle(alpha)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.integers(0, 40)), max_size=60).map(tuple))
def test_montreal_step_matches_the_recursion(alpha):
    # zero endpoints included: both raise the same ValueError
    assert outcome(montreal_step, alpha) == outcome(montreal_step_oracle, alpha)


def test_montreal_step_rejects_a_negative_interior_part():
    # the recursion never returned on one; the loop refuses it
    with pytest.raises(ValueError, match="nonnegative parts"):
        montreal_step((2, -1, 3))


def test_compositions_match_the_recursive_concatenation():
    for n in range(1, 19):
        assert same_stream(enumerate_compositions(n), sorted(compositions_oracle(n)))


def test_toom_path_matches_its_own_step_loop():
    for k in range(2, 13):
        assert toom_path(k) == toom_path_oracle(k)
    for k in (1, 0, -2):
        assert outcome(toom_path, k) == outcome(toom_path_oracle, k)


def random_orbit_start(rng, variant):
    """A start of 1..14 cards: Montreal with interior zeros, the circular
    games with empty seats."""
    n = rng.randint(1, 14)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    alpha = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))  # a composition of n
    seats = [0] * rng.randint(1, 6)
    for _ in range(n):
        seats[rng.randrange(len(seats))] += 1
    if variant in ("bulgarian", "dual"):
        return normalize(alpha)
    if variant == "carolina":
        return alpha
    if variant == "montreal":
        return alpha[:1] + tuple(p for a in alpha[1:] for p in (0,) * rng.randint(0, 2) + (a,))
    if variant == "austrian":
        L = rng.randint(1, 5)
        bank = rng.randrange(min(L, n + 1))
        return AustrianState(normalize(min(p, L) for p in alpha), bank, L)
    if variant == "servedio_yeh":
        return tuple(seats)
    if variant == "janetzko":
        return PointerState(tuple(seats), rng.randint(1, len(seats)))
    return MultiplayerState(tuple(normalize(alpha[i::len(seats)]) for i in range(len(seats))))


ORBIT_VARIANTS = ["bulgarian", "dual", "carolina", "montreal", "austrian",
                  "servedio_yeh", "janetzko", "multiplayer"]


@pytest.mark.parametrize("variant", ORBIT_VARIANTS)
def test_brent_orbit_matches_the_state_map(variant):
    # the repeat comes after m = tail + cycle_length moves, and each bound
    # sits below, at or above m, or is the default, which no Janetzko orbit
    # passes: it is the size of the orbit's state space
    rng = random.Random(ORBIT_VARIANTS.index(variant))
    step = get_variant(variant, L=1).step
    for _ in range(300):
        start = random_orbit_start(rng, variant)
        first = orbit_oracle(start, step, 10**6)
        m = first.tail + first.cycle_length
        for bound in (-2, 0, 1, 2, m - 1, m, m + 1, 2 * m, 3 * m, None):
            expected = outcome(orbit_oracle, start, step, bound)
            if variant == "janetzko" and bound is None:
                assert isinstance(expected, OrbitResult), start
            assert outcome(orbit, start, step, bound) == expected, (start, bound)
            if isinstance(expected, OrbitResult):
                expected = (expected.tail, expected.cycle_length)
            assert outcome(tail_cycle, start, step, bound) == expected, (start, bound)


ENUMERABLE = [
    *[("bulgarian", n, None) for n in range(11)],
    *[("dual", n, None) for n in range(1, 11)],
    *[("carolina", n, None) for n in range(1, 11)],
    *[("montreal", n, None) for n in range(1, 11)],
    *[("austrian", n, L) for L in range(1, 5) for n in range(11)],
]


@pytest.mark.parametrize("variant, n, L", ENUMERABLE)
def test_explorer_matches_the_two_map_walk(variant, n, L):
    # the one graph explorer, the walk back from the cycles or, for Montreal,
    # its seeds' cycles, against the forward walk with its successor and
    # distance maps
    walked = analyze_state_space(n, variant, L=L)
    assert_same_graph(walked, explored_summary_oracle(n, variant, L))


@pytest.mark.parametrize("variant, n, L", ENUMERABLE)
def test_ge_rule_matches_counter_pass(variant, n, L):
    succ = explore_oracle(STATES[variant](n, L), get_variant(variant, L=L).step)[0]
    assert tuple(analyze_state_space(n, variant, L=L).ge_states) == ge_counter_oracle(succ)


def test_one_total_sizes_the_guard_and_the_walk():
    # the record's total(n, L) is the count the CLI guard refuses on and the
    # count the walk checks itself against; the Montreal closed form and the
    # guard's timing are checked in test_cli
    def total(variant, n, L=None):
        return get_variant(variant, L=L).total(n, L)

    def assert_walk_counts_total(variant, n, L=None):
        count = sum(1 for _ in STATES[variant](n, L))
        assert total(variant, n, L) == count, (variant, n, L)
        assert analyze_state_space(n, variant, L=L).state_count == count, (variant, n, L)

    for n in range(31):
        assert_walk_counts_total("bulgarian", n)
        if n:
            assert_walk_counts_total("dual", n)
    for n in range(1, 17):
        assert_walk_counts_total("carolina", n)
    for L in range(1, 8):
        for n in range(25):
            assert_walk_counts_total("austrian", n, L)


def test_ge_reachability_matches_counter_pass():
    for n in range(3, 15):
        oracle = ge_reachability_oracle(n)
        assert ge_reachability_check(n) == oracle
        assert analyze_state_space(n).smallest_ge == tuple(w.ge_state for w in oracle.witnesses)
        assert analyze_state_space(n, "dual").smallest_ge == smallest_ge_oracle(n, "dual")


# --- the backward walk from the cycles ---

def test_predecessor_rule_matches_brute_force_preimages():
    for n in range(1, 22):
        preimages = {}
        for lam in enumerate_partitions(n):
            preimages.setdefault(bulgarian_step(lam), []).append(lam)
        for mu in enumerate_partitions(n):
            preds = _predecessors(mu)
            assert len(set(preds)) == len(preds), mu
            assert sorted(preds) == sorted(preimages.get(mu, [])), mu


def test_dual_predecessor_rule_is_the_conjugated_bulgarian_rule():
    # the dual move is the Bulgarian move conjugated, and so is its rule
    for n in range(1, 26):
        for mu in enumerate_partitions(n):
            preds = _dual_predecessors(mu)
            assert len(set(preds)) == len(preds), mu
            assert sorted(preds) == sorted(map(conjugate, _predecessors(conjugate(mu)))), mu
            assert all(dual_step(lam) == mu for lam in preds), mu


def test_dual_walk_matches_the_conjugated_bulgarian_summary():
    for n in range(1, 21):
        walked, oracle = analyze_state_space(n, "dual"), dual_summary_oracle(n)
        assert (walked.state_count, walked.cycles, walked.max_tail, len(walked.ge_states),
                walked.smallest_ge) == oracle, n


def test_ascending_enumeration_is_the_sorted_partitions():
    for n in range(46):
        assert same_stream(enumerate_partitions(n), sorted(bounded_partitions_oracle(n, n)))
    with pytest.raises(ValueError, match="nonnegative"):
        next(enumerate_partitions(-1))


@pytest.mark.parametrize("variant, first", [("bulgarian", 0), ("dual", 1)])
def test_walk_matches_the_forward_explorer(variant, first):
    for n in range(first, 41):
        walked = analyze_state_space(n, variant)
        assert_same_graph(walked, explored_summary_oracle(n, variant))


def test_carolina_walk_matches_the_forward_explorer():
    for n in range(1, 17):
        walked = analyze_state_space(n, "carolina")
        assert walked.state_count == 2 ** (n - 1), n
        assert_same_graph(walked, explored_summary_oracle(n, "carolina"))


def test_austrian_predecessors_match_brute_force_preimages():
    for L in range(1, 8):
        for n in range(25):
            states = list(STATES["austrian"](n, L))
            preimages = {}
            for x in states:
                preimages.setdefault(austrian_step(x), []).append(x)
            for y in states:
                preds = list(_austrian_predecessors(y))
                assert len(set(preds)) == len(preds) <= L, y
                assert sorted(preds) == sorted(preimages.get(y, [])), y


def test_an_empty_predecessor_answer_marks_exactly_the_garden_of_eden_states():
    # the walk and ge_states read the rule's answer, as returned, as "no
    # predecessor" when it is falsy, so a lazy stream must be falsy when
    # empty.  The empty partition, a fixed point, gets [], but it lies on
    # its cycle, where the walk never reads the answer as a GE test
    sizes = {"bulgarian": [(n, None) for n in range(1, 21)],
             "dual": [(n, None) for n in range(1, 21)],
             "carolina": [(n, None) for n in range(1, 13)],
             "austrian": [(n, L) for L in range(1, 7) for n in range(21)]}
    names = ("bulgarian", "dual", "carolina", "montreal", "austrian",
             "servedio_yeh", "janetzko", "multiplayer")
    assert {name for name in names if get_variant(name, L=1).predecessors} == set(sizes)
    for name, cases in sizes.items():
        for n, L in cases:
            game = get_variant(name, L=L)
            states = list(STATES[name](n, L))
            images = set(map(game.step, states))
            for x in states:
                assert bool(game.predecessors(x)) == (x in images), (name, x)


def test_carolina_predecessors_match_brute_force_preimages():
    for n in range(1, 13):
        preimages = Counter(map(carolina_step, enumerate_compositions(n)))
        for beta in enumerate_compositions(n):
            preds = list(_carolina_predecessors(beta))
            assert all(carolina_step(alpha) == beta for alpha in preds), beta
            assert len(set(preds)) == len(preds) == preimages[beta], beta
            assert (not preds) == (beta[0] < len(beta) - 1), beta


def test_ascending_compositions_are_the_sorted_compositions():
    # a composition of n is the set of gaps among 1..n-1 at which it is cut
    for n in range(1, 17):
        cut = (c for r in range(n) for c in combinations(range(1, n), r))
        assert same_stream(enumerate_compositions(n), sorted(
            tuple(b - a for a, b in zip((0,) + c, c + (n,))) for c in cut))
    with pytest.raises(ValueError, match="positive"):
        next(enumerate_compositions(0))


def test_text_walkers_refuse_a_count_below_one():
    for n in (0, -1):
        for walker in (lambda: enumerate_texts(n, lambda first, m: True, False),
                       lambda: enumerate_texts(n, lambda first, m: True, True),
                       lambda: carolina_edge_texts(n)):
            with pytest.raises(ValueError, match=f"n must be positive, got {n}"):
                next(walker())


def test_knuth_walk_matches_the_forward_explorer_at_every_exponent():
    for k in range(1, 8):
        for exponent in range(k * (k - 1) + 1):
            assert _knuth_check(k, exponent) == knuth_explore_oracle(k, exponent), (k, exponent)


def test_a_missed_cycle_fails_the_walk_with_exit_4(capsys, monkeypatch):
    # the walk counts what it reaches against p(n), never against the
    # necklace count, so dropping a cycle must be caught: the finder drops
    # the smallest of every graph's cycles; at k = 4 it is the staircase,
    # the only one, and at n = 10 the Carolina graph has one cycle too
    finder = bsol.dynamics._cycles_through
    monkeypatch.setattr(bsol.dynamics, "_cycles_through",
                        lambda starts, step: finder(starts, step)[1:])
    for argv, counted in [
        (("graph", "--variant", "bulgarian", "--n", "8"), "7 states, not the 22 partitions of 8"),
        (("graph", "--variant", "dual", "--n", "8"), "7 states, not the 22 partitions of 8"),
        (("knuth", "--k", "4"), "0 states, not the 42 partitions of 10"),
        (("graph", "--variant", "carolina", "--n", "10"), "0 states, not the 512 compositions of 10"),
    ]:
        assert main(list(argv)) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: the walk back from the cycles counted {counted}\n"
    with pytest.raises(bsol.dynamics.WalkError):
        ge_reachability_check(8)
    # the Austrian walk counts against the states of every bank, not the one cycle
    assert main(["graph", "--variant", "austrian", "--n", "10", "--L", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the walk back from the cycles counted 0 states, "
                   "not the 36 austrian states of 10 with L = 3\n")


def test_a_move_that_is_not_injective_fails_the_montreal_cycles_with_exit_4(capsys, monkeypatch):
    # every Montreal state must lie on a cycle: under a move that sends all
    # of the stratum to one pile, the orbit of 5 comes back, that of 4,1 does not
    monkeypatch.setattr(bsol.dynamics, "montreal_step", lambda alpha: (sum(alpha),))
    assert main(["graph", "--variant", "montreal", "--n", "5"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the orbit of 4,1 does not come back to it\n"


@pytest.mark.parametrize("moves, first_off", [
    # 4,1 falls into a loop of two six-part states, with no seed to stop
    # at: its walk meets a state it passed long before the limit
    ({(5,): (5,), (4, 1): (1, 1, 1, 1, 0, 1), (1, 1, 1, 1, 0, 1): (1, 0, 1, 1, 1, 1),
      (1, 0, 1, 1, 1, 1): (1, 1, 1, 1, 0, 1)}, "4,1"),
    # the cycle of 1,0,0,1,3 is cut open into that of the smaller seed
    # 1,0,0,0,4: every walk ends, but three seeds lie on no kept cycle
    ({(1, 0, 1, 1, 2): (1, 0, 0, 0, 4)}, "1,0,1,1,2"),
])
def test_a_seed_off_its_cycle_fails_the_montreal_cycles_with_exit_4(capsys, monkeypatch,
                                                                    moves, first_off):
    # the first seed off its cycle in enumeration order is named, as the
    # visited set named it, under the CLI's limit and under none
    def step(alpha):
        return moves.get(alpha) or montreal_step(alpha)

    monkeypatch.setattr(bsol.dynamics, "montreal_step", step)
    started = time.perf_counter()
    assert main(["graph", "--variant", "montreal", "--n", "5"]) == 4
    assert time.perf_counter() - started < 1.0
    out, err = capsys.readouterr()
    message = f"the orbit of {first_off} does not come back to it"
    assert out == ""
    assert err == f"error: {message}\n"
    for walk in (lambda: analyze_state_space(5, "montreal"),
                 lambda: montreal_cycles_oracle(5, inf, step)):
        with pytest.raises(WalkError) as raised:
            walk()
        assert str(raised.value) == message


@pytest.mark.parametrize("n", range(1, 10))
def test_montreal_leaders_match_the_visited_set(capsys, monkeypatch, n):
    # the cycle leaders against the visited set: the same cycles and state
    # count, the same bytes in every format and, for n <= 8, the same exit
    # and message at a limit one below the state count and at it
    walked, oracle = analyze_state_space(n, "montreal"), montreal_summary_oracle(n, inf)
    assert tuple(walked.cycles) == oracle.cycles
    assert walked.state_count == oracle.state_count
    assert sum(map(len, walked.cycles)) == walked.state_count  # each replay comes back
    runs = [(("--format", fmt), str(DEFAULT_STATE_LIMIT)) for fmt in ("text", "json", "dot")]
    if n <= 8:
        runs += [((), str(oracle.state_count + d)) for d in (-1, 0)]
    for extra, limit in runs:
        argv = ["graph", "--variant", "montreal", "--n", str(n), *extra]
        monkeypatch.setenv("BSOL_MAX_STATES", limit)
        got = main(argv), capsys.readouterr()
        with monkeypatch.context() as patched:
            patched.setattr(bsol.cli, "analyze_state_space",
                            lambda n, variant, L, limit: montreal_summary_oracle(n, limit))
            expected = main(argv), capsys.readouterr()
        assert got == expected, (extra, limit)


@pytest.mark.parametrize("variant", ["popov", "ejs"])
@pytest.mark.parametrize("burn_in, samples, n, p", [
    *[pytest.param(b, s, 12, 0.6, id=f"{b}-{s}")
      for b, s in [(0, 60), (25, 0), (0, 0), (15, 40)]],
    *[pytest.param(5, 30, 210, p, id=f"210-{p}-counts") for p in (0.05, 0.5, 0.9, 1.0)],
    # about 26 piles a move: these 4,000 pile-selection moves draw 105,405
    # uniforms, so the chain crosses six blocks of 16,384
    pytest.param(1000, 3000, 210, 0.5, id="210-blocks"),
])
def test_chain_loop_matches_per_move_branching_loop(variant, burn_in, samples, n, p):
    config = ChainConfig(n, variant, p, seed=burn_in + samples, burn_in=burn_in,
                         samples=samples)
    counts, path = chain_tally_oracle(config)
    moves = _popov_moves if variant == "popov" else _ejs_moves
    states = moves(make_rng(config.seed), config.initial, p, burn_in + samples)
    assert (config.initial, *states) == path
    stats = run_chain(config)
    assert list(stats.visit_counts.items()) == list(counts.items())  # insertion order too
    means = (stats.mean_shape, stats.mean_staircase_distance, stats.mean_energy)
    assert means == chain_means_oracle(counts, samples)


@pytest.mark.parametrize("initial, p, moves, sides", [
    # 25 cards at p = 0.1 hold from 10 to 20-odd piles: about half the
    # moves on each side of _WIDE
    pytest.param((1,) * 25, 0.1, 400, {False, True}, id="across"),
    pytest.param((1,) * 60000, 0.001, 40, {True}, id="wide"),
])
def test_ejs_moves_match_the_per_move_sampler_on_both_sides_of_the_wide_switch(
        initial, p, moves, sides):
    # the loop draws a state wider than _WIDE piles in one rng.binomial call
    # and a narrower one a pile at a time, the sampler always in one call
    config = ChainConfig(sum(initial), "ejs", p, seed=moves, burn_in=0, samples=moves,
                         initial=initial)
    counts, path = chain_tally_oracle(config)
    assert {len(lam) > _WIDE for lam in path[:-1]} == sides
    assert (initial, *_ejs_moves(make_rng(config.seed), initial, p, moves)) == path
    assert dict(run_chain(config).visit_counts.items()) == counts


def chain_sum_means(counts, n):
    samples = sum(counts.values())
    pack = _codec(n)[1]
    packed = {pack(lam): count for lam, count in counts.items()}
    shape_sum, dist_sum, energy_sum = _chain_sums(packed, n, samples)
    return tuple(v / samples for v in shape_sum), dist_sum / samples, energy_sum / samples


def random_partition(rng, n):
    """A partition of n read off random cuts of a row of n cards."""
    cuts = sorted(rng.sample(range(1, n), rng.randrange(n)))
    return tuple(sorted((b - a for a, b in zip([0, *cuts], [*cuts, n])), reverse=True))


# 210 is triangular (k = 20), 200 is not (k = 20, r = 10)
@pytest.mark.parametrize("n", [210, 200])
def test_chain_sums_match_the_per_state_loop_over_many_blocks(n):
    rng = random.Random(n)
    k = triangular_decompose(n)[0]
    counts = Counter({(n,): 3, (1,) * n: 5})
    if n == 210:
        counts[staircase(k)] = 2
    while len(counts) < 2000:
        counts[random_partition(rng, n)] += rng.randrange(1, 1000)
    lens = list(map(len, counts))
    assert sum(length < k for length in lens) > 100 and sum(length > k for length in lens) > 100
    assert sum(lens) > 10 * _STAT_BLOCK
    assert chain_sum_means(counts, n) == chain_means_oracle(counts, sum(counts.values()))


def test_chain_sums_give_the_loop_bytes_on_both_sides_of_2_53(monkeypatch):
    # below samples * n(n+3)/2 < 2**53 the sums take one block pass, and at
    # or past it the per-state loop.  The product meets 2**53 only where
    # n(n+3)/2 is a power of two, at n = 1; it never meets 2**53 - 1 =
    # 6361 * 69431 * 20394401, since no divisor of that is an n(n+3)/2, so
    # n = 6 (27) comes as close from below as a sample count allows
    calls = Counter()

    def counted(lam):
        calls[lam] += 1
        return staircase_distance(lam)

    monkeypatch.setattr(bsol.stochastic, "staircase_distance", counted)
    last_below = (2**53 - 1) // 27
    for n, samples, loop in [(1, 2**52 - 1, False), (1, 2**52, True),
                             (6, last_below, False), (6, last_below + 1, True),
                             # one pile holds 2**53 // 27 visits, one below
                             # the bound, and the ten other partitions one each
                             (6, 2**53 // 27 + 10, True)]:
        assert (samples * n * (n + 3) // 2 >= 2**53) == loop
        others = [lam for lam in enumerate_partitions(n) if lam != (n,)]
        counts = {(n,): samples - len(others), **dict.fromkeys(others, 1)}
        calls.clear()
        assert chain_sum_means(counts, n) == chain_means_oracle(counts, samples)
        assert sum(calls.values()) == (len(counts) if loop else 0)
    # the last chain's energy passes 2**53 part way, so the loop's float
    # order shows: the exact sum gives another mean
    exact = sum(potential_energy(lam) * count for lam, count in counts.items())
    assert exact / samples != chain_means_oracle(counts, samples)[2]


@pytest.mark.parametrize("n, width", [(255, 1), (256, 2), (65535, 2), (65536, 4),
                                      (2**63 - 1, 8)])
def test_packed_states_sort_as_partitions_and_unpack_to_them(n, width):
    rng = random.Random(n)
    edges = [part for part in (1, 2, 255, 256, 65535, 65536, 2**32 - 1, 2**32, n - 1, n)
             if part <= n]
    lams = {()}
    for _ in range(2000):
        parts = [rng.choice(edges) if rng.random() < 0.5 else rng.randint(1, n)
                 for _ in range(rng.randrange(7))]
        lam = tuple(sorted(parts, reverse=True))
        lams.update(lam[:cut] for cut in range(len(lam) + 1))  # every prefix too
    got_width, pack, unpack = _codec(n)
    assert got_width == width
    keys = {pack(lam): lam for lam in lams}
    assert all(len(key) == width * len(lam) for key, lam in keys.items())
    assert [keys[key] for key in sorted(keys)] == sorted(lams)
    assert all(unpack(key) == lam for key, lam in keys.items())


def chain_means_by_state(counts, samples):
    """The means of the per-state loop over a tuple Counter, adding in visit
    order with the closed-form distance and energy, which cost a state's
    parts where the oracles above cost its cards."""
    shape_sum = [0.0] * max(map(len, counts))
    dist_sum = energy_sum = 0.0
    for lam, count in counts.items():
        for i, part in enumerate(lam):
            shape_sum[i] += part * count
        dist_sum += staircase_distance(lam) * count
        energy_sum += potential_energy(lam) * count
    return tuple(v / samples for v in shape_sum), dist_sum / samples, energy_sum / samples


# samples * n(n+3)/2 first reaches 2**53 at 41 samples of 21,000,000
@pytest.mark.parametrize("variant", ["popov", "ejs"])
@pytest.mark.parametrize("n, p, samples", [
    (256, 0.5, 3000), (300, 0.2, 3000), (65535, 0.5, 300), (70000, 0.01, 300),
    (21_000_000, 0.5, 40), (21_000_000, 0.5, 41), (5_000_000_000, 0.5, 40),
    (2**63 - 1, 0.3, 40),
])
def test_packed_chain_matches_the_tuple_counter(variant, n, p, samples):
    config = ChainConfig(n, variant, p, seed=n % 1000, burn_in=20, samples=samples)
    counts, _ = chain_tally_oracle(config)
    stats = run_chain(config)
    visits = stats.visit_counts
    assert list(visits.items()) == list(counts.items())  # in order of first visit
    assert len(visits) == len(counts) and visits == counts
    assert all(visits[lam] == count for lam, count in counts.items())
    assert (n + 1,) not in visits and (0,) not in visits and "1" not in visits
    means = (stats.mean_shape, stats.mean_staircase_distance, stats.mean_energy)
    assert means == chain_means_by_state(counts, samples)
    assert stats.to_json() == json.dumps(
        {**json.loads(stats.to_json()),
         "visit_counts": {format_parts(lam): counts[lam] for lam in sorted(counts, reverse=True)}},
        separators=(",", ":"))


@settings(max_examples=100, deadline=None)
@given(st.lists(partitions(), min_size=1, max_size=6),
       st.sampled_from([0.05, 0.3, 0.5, 0.9, 1.0]), st.integers(0, 2**32))
def test_binomial_draws_pile_by_pile_match_one_call_over_all_piles(lams, p, seed):
    # the card-selection chain draws rng.binomial(x, p) per pile; numpy takes
    # its BTPE branch once x * min(p, 1 - p) passes 30, so add piles above 60
    lams = [*lams, (210,), (150, 61, 1), (90, 90, 30)]
    whole, per_pile = make_rng(seed), make_rng(seed)
    for lam in lams:
        assert tuple(map(per_pile.binomial, lam, repeat(p))) == tuple(whole.binomial(lam, p).tolist())
    assert per_pile.random() == whole.random()


def test_hot_calls_go_through_the_module_globals(monkeypatch):
    # the benchmark's tracer counts these calls by patching the module globals
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in [(bsol.dynamics, "bulgarian_step"),
                         (bsol.dynamics, "carolina_step"),
                         (bsol.dynamics, "enumerate_partitions"),
                         (bsol.dynamics, "enumerate_compositions"),
                         (bsol.dynamics, "enumerate_montreal_compositions"),
                         (bsol.stochastic, "staircase_distance"),
                         (bsol.stochastic, "potential_energy")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    toom_path(5)
    # the 20 moves to the staircase, a fixed point: the hare meets the
    # tortoise saved at move 31 one move later (32 calls), the tail is found
    # from a hare one move ahead (1 + 2 * 20), and the path of 22 states is
    # walked again (21)
    assert calls["bulgarian_step"] == 32 + 1 + 2 * 20 + 21
    # a chain draws and moves in one loop per variant; while its sums stay
    # below 2**53 its statistics take one block pass, which calls neither
    # per-state function, and past that they are read once per distinct state
    for config, per_state in [
        (ChainConfig(8, "popov", 0.5, seed=1, burn_in=3, samples=7), False),
        (ChainConfig(8, "ejs", 0.5, seed=1, burn_in=2, samples=4), False),
        (ChainConfig(10**12, "popov", 0.5, seed=1, burn_in=0, samples=6), True),
        (ChainConfig(10**12, "ejs", 0.5, seed=1, burn_in=0, samples=4), True),
    ]:
        calls.clear()
        distinct = len(run_chain(config).visit_counts)
        assert 1 < distinct <= config.samples
        assert calls["staircase_distance"] == calls["potential_energy"] == distinct * per_state
    # the variant registry is built per call, so it holds the patched enumerators;
    # the Bulgarian, dual and Carolina graphs are walked back from their cycles
    # instead, and so is the Austrian graph, which enumerates only the first of
    # its states, the one whose orbit gives its cycle (bank 0: one call)
    for variant, L, name, times in [("bulgarian", None, "enumerate_partitions", 0),
                                    ("dual", None, "enumerate_partitions", 0),
                                    ("carolina", None, "enumerate_compositions", 0),
                                    ("montreal", None, "enumerate_montreal_compositions", 1),
                                    ("austrian", 3, "enumerate_partitions", 1)]:
        calls.clear()
        analyze_state_space(6, variant, L=L)
        assert calls[name] == times, variant
    # the writers list the GE states from a text walker, and for DOT the
    # edges through the same enumerators, ascending, but the Carolina edges
    # come from a text walker too, which neither enumerates nor steps
    calls.clear()
    analyze_state_space(6).to_json()
    assert calls["enumerate_partitions"] == 0
    g = analyze_state_space(6, "carolina")
    calls.clear()
    g.to_dot()
    assert calls["enumerate_compositions"] == calls["carolina_step"] == 0
    # ... whose one cycle, the fixed staircase, is stepped three times: the
    # finder's repeat, its hare one move ahead and the path walked again;
    # the DOT edges step each of the 11 partitions of 6 once
    calls.clear()
    analyze_state_space(6).to_dot()
    assert calls["bulgarian_step"] == 3 + 11


# SHA-256 of stdout of the exhaustive commands, recorded before the Knuth
# check moved onto the explorer and enumeration onto ZS1.
GOLDEN_EXHAUSTIVE = [
    (("graph", "--n", "20", "--format", "json"),
     "0904ed699a810abe1405ed29d66d2791891f457886b856781bb55841abdd37ce"),
    (("knuth", "--k", "6"),
     "581c4f219b152d7af36836db886853f3f2fce4116e80a3054e1697d4f1a9a82c"),
    (("ge", "--n", "20"),
     "1fead6374c31c66ec76b57c65c6dfb2991e25aae605b89123183fc39571075db"),
]


# recorded before the JSON and DOT writers stopped going through json's
# indenting encoder and the old per-state loops
GOLDEN_WRITERS = [
    (("graph", "--variant", "carolina", "--n", "10", "--format", "dot"),
     "2894112eac08c328c19470f157e031c9947a6afd0df8a20eca74e5a9b421a9d6"),
    (("graph", "--variant", "austrian", "--n", "12", "--L", "3", "--format", "json"),
     "ebada27ab408bb8cd5eed3586738fe59d3323a65834cee5fdb96a7c4d5cd08d7"),
    (("graph", "--variant", "montreal", "--n", "6", "--format", "json"),
     "aa9f0a4cdf62999a939a74ca23af6abdb8de7a4a6c1cf7d74a27d4e90a1ad3ee"),
    (("graph", "--variant", "dual", "--n", "16", "--format", "json"),
     "28c78b0429fab5b97d976f78ee9bd8b51802c0eae9e23d2a9bc34dca40c0c1c2"),
]


# recorded before the second normaliser, Toom walk, GE pass, chain loop and
# Montreal recursion were folded into the first, and before `ge --format
# json` stopped going through json's indenting encoder
GOLDEN_ONE_COPY = [
    (("toom", "--k", "8"),
     "2838861484ce1ac2bf687d9110fb809747692719a40f2976af4138418910d324"),
    (("ge", "--n", "20", "--format", "json"),
     "104cae72afdfbac4596d348a762b9d53ab63562df9b911dabda7bedc0a36e3e4"),
    (("graph", "--variant", "montreal", "--n", "8", "--format", "json"),
     "d3cbd4f0e701f6d1a472a3cf839757a27c1bc1025c9c45fef60b55c3247907b7"),
]


# recorded before the Bulgarian and dual graphs were walked backwards from
# their cycles instead of explored forwards from every state
GOLDEN_WALK = [
    (("graph", "--n", "30", "--format", "dot"),
     "dc77a8713145e01d7e277c1f22e9c7550384108ac9b3da15f3729bbf785c450b"),
    (("graph", "--variant", "dual", "--n", "30", "--format", "dot"),
     "7f199f7bd00199efe51761bee37784a44d83ce3541a396d84b60109ab5c76cac"),
    (("graph", "--variant", "dual", "--n", "40", "--format", "json"),
     "65b53ca52bfb3b909c550d872b3c97261c97581ac7510ffe2c14b33714997a45"),
    (("knuth", "--k", "10"),
     "9291058b71fe41b1e4e952b16ed5fa0bd5ff1acf7617fd291f384ee2e34cd915"),
    (("graph", "--n", "0", "--format", "json"),
     "d222c9cbc58f2ac96929f76fda3c44e573e8606483652e52ad583c50a45d26f0"),
]


# recorded before the Carolina graph was walked backwards from its cycles
# instead of explored forwards from every composition
GOLDEN_CAROLINA_WALK = [
    (("graph", "--variant", "carolina", "--n", "16", "--format", "json"),
     "b291474401b784152572679265fcc1f3ad39f5af34d4c4284982f46c84d859d4"),
    (("graph", "--variant", "carolina", "--n", "14", "--format", "dot"),
     "4cc8763e91512dfb6fa111ad1959da24b19f59b3d988200a1b61eb2b12c00678"),
]


# recorded before the Austrian graph was walked backwards from its cycle and
# the Montreal graph read off its seeds' cycles, instead of both explored
# forwards from every state
GOLDEN_ONE_EXPLORER = [
    (("graph", "--variant", "austrian", "--n", "40", "--L", "6", "--format", "json"),
     "2b1f5f2038af59fe72b0e7266afe5813fbf2ba65e3c4cddec3387956227bbeef"),
    (("graph", "--variant", "austrian", "--n", "14", "--L", "3", "--format", "dot"),
     "10e07d007578f3b15250fa66de7b23edcce2fc0d1548bcb951a88a9f1a41345f"),
    (("graph", "--variant", "montreal", "--n", "9", "--format", "dot"),
     "a73c0a82a1f2268e46f691de1784848faf7fd8f3faa00af86d05f1654a12bd3f"),
]


# recorded before the partitions and compositions were listed in ascending
# order: L = 1 caps every Austrian pile at one card, where the capped
# partitions stop at once
GOLDEN_ASCENDING = [
    (("graph", "--variant", "austrian", "--n", "12", "--L", "1", "--format", "dot"),
     "a53187120e555e127a98557257d592218be71a38fdb76d974a4f94baea29f8f9"),
]


# recorded before the Carolina DOT edges were written as text by a
# composition walker instead of a tuple and two labels per edge
GOLDEN_CAROLINA_EDGES = [
    (("graph", "--variant", "carolina", "--n", "18", "--format", "dot"),
     "f7b16f122a293b6a1f8cdc4fac6d1875b4905bacc4d35ee0b020bac7c72d8e68"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_EXHAUSTIVE + GOLDEN_WRITERS + GOLDEN_ONE_COPY
                         + GOLDEN_WALK + GOLDEN_CAROLINA_WALK + GOLDEN_ONE_EXPLORER
                         + GOLDEN_ASCENDING + GOLDEN_CAROLINA_EDGES)
def test_exhaustive_output_is_pinned(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    if "json" in argv:  # compact JSON; the digest holds its values in json's indent=2 layout
        assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"
        out = json.dumps(json.loads(out), indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
