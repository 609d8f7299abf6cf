"""Command-line front end: bsol <command>.

Commands map straight onto the library: orbit walks one trajectory,
graph/ge analyze a whole state space, necklaces/knuth/toom run the
counting and convergence checks, simulate runs a seeded chain, render
draws a diagram.  Exit codes: 0 success, 2 usage or parse error,
3 state-space bound exceeded, 4 internal assertion failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from . import dynamics  # default_step_bound is read at call time, as tail_cycle reads it
from .dynamics import (
    StepBoundError,
    WalkError,
    _batches,
    _json_array,
    _state_json,
    analyze_state_space,
    garden_of_eden_test,  # unused here since ge lists texts; bench/tracing.py wraps it by name
    garden_of_eden_texts,
    get_variant,
    json_with_bulk,
    knuth_exponent_check,
    state_label,
    state_total,
    tail_cycle,
    toom_path,
    trajectory,
)
# partition_count stays importable here: bench/tracing.py wraps it by name
from .necklaces import list_necklaces, necklace_count, partition_count
from .operators import AustrianState, PointerState
from .partitions import (
    EnumerationBoundError,
    Partition,
    enumerate_partitions,  # unused here, as garden_of_eden_test above
    format_parts,
    normalize,
    parse_parts,
    triangular_decompose,
)
from .stochastic import ChainConfig, run_chain, shape_profile

DEFAULT_STATE_LIMIT = 2_000_000
AUSTRIAN_N_BOUND = 80
# 2^k bounds the necklace count; past this k it could print over CPython's
# default limit of 4,300 digits for int-to-str conversion
NECKLACE_K_BOUND = 14_284
# toom takes k(k-1) steps on k(k+1)/2 cards, about k^4 work; k = 100 takes seconds
TOOM_K_BOUND = 100
# the cards bound the cost of one move of an orbit, and the state limit the
# number of moves, each a state visited: an orbit from one pile of n cards
# takes about n moves on states of up to n parts, and at 4,000 cards a
# montreal one takes about 3 s in O(1) states; a Janetzko start of 4,000
# cards over 3 seats cycles after 1,129,719 moves, and 1047,1505,1448 with
# pointer 1 walks all 2,000,000 of the default limit, in 14 to 20 s
ORBIT_CARD_BOUND = 4_000


def parse_state(text: str, kind: str) -> tuple[int, ...]:
    """Parse comma-separated text into a canonical state of the given kind.

    Partitions are normalized; compositions keep their order.
    """
    parts = parse_parts(text)
    if kind == "partition":
        return normalize(parts)
    if kind == "strict":
        if any(p < 1 for p in parts):
            raise ValueError(f"strict composition needs positive parts: {text!r}")
    elif kind == "montreal":
        if parts[0] < 1 or parts[-1] < 1:
            raise ValueError(f"montreal composition needs positive endpoints: {text!r}")
    return parts


def render_young(lam: Partition, style: str = "rows") -> str:
    """Draw the diagram of a partition.

    rows: one line of boxes per part, largest on top.  cradle: the 45
    degree turn, box (i, j) printed in column i + j - 1 at vertical
    offset j - i, so each column holds one level.
    """
    if style == "rows":
        return "\n".join("#" * p for p in lam)
    if style == "cradle":
        cells = [(i, j) for i, p in enumerate(lam, 1) for j in range(1, p + 1)]
        if not cells:
            return ""
        offsets = [j - i for i, j in cells]
        top, bottom = max(offsets), min(offsets)
        width = max(i + j - 1 for i, j in cells)
        grid = [[" "] * width for _ in range(top - bottom + 1)]
        for i, j in cells:
            grid[top - (j - i)][i + j - 2] = "#"
        return "\n".join("".join(row).rstrip() for row in grid)
    raise ValueError(f"unknown style {style!r}")


# --- state-space size guard ---

def _state_limit() -> int:
    env = os.environ.get("BSOL_MAX_STATES")
    if env is not None:
        try:
            limit = int(env)
        except ValueError:
            raise ValueError(f"BSOL_MAX_STATES must be an integer, got {env!r}") from None
        if limit < 0:
            raise ValueError(f"BSOL_MAX_STATES must be nonnegative, got {env!r}")
        return limit
    return DEFAULT_STATE_LIMIT


def _within_limit(size: int, what: str) -> int:
    """The state limit; a size past it is refused, with what saying what it counts."""
    limit = _state_limit()
    if size > limit:
        raise EnumerationBoundError(f"{what}, over the limit {limit}")
    return limit


def _check_space(variant: str, n: int, L: int | None) -> int:
    limit = _state_limit()
    if n < 0:
        raise ValueError(f"--n must be nonnegative, got {n}")
    if variant in ("carolina", "montreal") and n - 1 >= limit.bit_length():
        # both strata hold all 2^(n-1) compositions of n: refuse before counting
        raise EnumerationBoundError(
            f"state space of {variant} at n={n} has at least 2^{n - 1} states, "
            f"over the limit {limit}"
        )
    if variant == "austrian" and n > AUSTRIAN_N_BOUND:
        # a small L leaves few states, but each one holds up to n piles
        raise EnumerationBoundError(
            f"austrian states at n={n} hold up to {n} piles, "
            f"over the enumeration bound n={AUSTRIAN_N_BOUND}"
        )
    total = get_variant(variant, L=L).total  # the count the walk checks itself against
    try:  # what total still refuses is a count past its bound
        size = total(n, L)
    except ValueError as exc:
        raise EnumerationBoundError(str(exc)) from None
    return _within_limit(size, f"state space of {variant} at n={n} has {size} states")


# --- commands ---

def _cmd_orbit(args) -> int:
    variant = get_variant(args.variant, L=args.L)
    if variant.state_kind == "austrian":
        piles = parse_state(args.state, "partition")
        start = AustrianState(piles, args.bank, args.L)
    elif variant.state_kind == "pointer":
        start = PointerState(parse_state(args.state, "circular"), args.pointer)
    else:
        start = parse_state(args.state, variant.state_kind)
    total = state_total(start)
    if total > ORBIT_CARD_BOUND:
        raise EnumerationBoundError(
            f"an orbit of {total} cards is over the bound of {ORBIT_CARD_BOUND} cards"
        )
    # each move visits a state, so the state limit binds as well as the default bound
    default = dynamics.default_step_bound(start)
    limit = _within_limit(1, "an orbit visits at least 1 state")  # its first move, as a chain's
    try:
        tail, length = tail_cycle(start, variant.step, min(default, limit))
    except StepBoundError as exc:
        if limit < default:
            raise EnumerationBoundError(
                f"{exc}: the orbit visits more than the limit of {limit} states"
            ) from None
        if args.variant == "montreal":
            raise EnumerationBoundError(
                f"{exc}, the default bound; montreal orbits have no proven bound"
            ) from None
        raise  # no finite variant's orbit is known to pass it, so this is a defect
    # the path is walked again as it is written, so nothing holds all of it
    path = islice(trajectory(start, variant.step), tail + length + 1)
    if args.format == "json":
        lines = map(_state_json, path)
    else:
        print(f"variant: {args.variant}")
        print(f"tail length: {tail}")
        print(f"cycle length: {length}")
        lines = (f"{i:4d}  {state_label(s)}{' *' if i >= tail else ''}" for i, s in enumerate(path))
    sys.stdout.writelines(map("".join, _batches(line + "\n" for line in lines)))
    return 0


def _cmd_graph(args) -> int:
    # only the austrian variant reads --L; a missing or bad one is a usage error, before sizing
    get_variant(args.variant, L=args.L)
    limit = _check_space(args.variant, args.n, args.L)
    # the seeds are sized above; montreal cycles leave them, so the states
    # on those cycles count against the limit too, before anything is printed
    summary = analyze_state_space(args.n, args.variant, L=args.L, limit=limit)
    if args.format in ("json", "dot"):
        chunks = summary.json_chunks() if args.format == "json" else summary.dot_chunks()
        sys.stdout.writelines(chunks)
        print()
    else:
        print(f"variant: {summary.variant}  n: {summary.n}")
        print(f"states: {summary.state_count}")
        print(f"components: {summary.component_count}")
        print(f"max tail: {summary.max_tail}")
        for i, cyc in enumerate(summary.cycles, 1):
            states = " -> ".join(state_label(s) for s in cyc)
            print(f"cycle {i} (length {len(cyc)}): {states}")
        print(f"garden-of-eden states: {len(summary.ge_states)}")
    return 0


def _cmd_ge(args) -> int:
    _check_space("bulgarian", args.n, None)
    ge = garden_of_eden_texts(args.n)
    if args.format == "json":  # json.dumps of each partition as a list, separators=_COMPACT
        sys.stdout.writelines(_json_array(f"[{text}]" for text in ge))
        print()
    else:
        sys.stdout.writelines(map("".join, _batches(text + "\n" for text in ge)))
    return 0


def _cmd_necklaces(args) -> int:
    k, r = triangular_decompose(args.n)
    if k > NECKLACE_K_BOUND:
        raise EnumerationBoundError(
            f"necklaces at n={args.n} have k={k} beads, "
            f"over the bound k={NECKLACE_K_BOUND}"
        )
    count = necklace_count(args.n)
    necklaces = None
    if args.list:
        # each necklace writes its k beads and stands for a cycle of up to k states
        _within_limit(count * k, f"listing {count} necklaces writes {count * k} beads")
        necklaces = list_necklaces(k, r)
    if args.format == "json":  # json.dumps of a dict per necklace, separators=_COMPACT
        head = {"n": args.n, "k": k, "r": r, "count": count}
        bulk = [] if necklaces is None else [("necklaces", "[]", (
            f'{{"beads":"{x}","period":{x.period()}}}' for x in necklaces))]
        sys.stdout.writelines(json_with_bulk(head, *bulk))
        print()
    else:
        print(f"n={args.n}: k={k}, r={r}, components={count}")
        if necklaces is not None:
            for x in necklaces:
                print(f"{x}  period={x.period()}")
    return 0


def _cmd_knuth(args) -> int:
    n = args.k * (args.k + 1) // 2
    _check_space("bulgarian", n, None)
    report = knuth_exponent_check(args.k)
    verdict = "holds" if report.holds else "FAILS"
    print(
        f"k={report.k}: B^{report.exponent} reaches the staircase on all "
        f"{report.states_checked} partitions of {report.n}: {verdict}"
    )
    for lam in report.witnesses:
        print(f"exception: {format_parts(lam)}")
    return 0 if report.holds else 4


def _cmd_toom(args) -> int:
    steps = args.k * (args.k - 1)
    if args.k > TOOM_K_BOUND:
        raise EnumerationBoundError(
            f"toom at k={args.k} walks {steps} steps, over the bound k={TOOM_K_BOUND}"
        )
    if args.k >= 2:  # its path holds k(k-1) states; toom_path refuses a smaller k
        _within_limit(steps, f"toom at k={args.k} walks {steps} steps")
    report = toom_path(args.k)
    print(f"k={report.k}: tau = {format_parts(report.tau)}")
    print(f"steps to staircase: {report.minimal_steps} (expected {report.expected_steps})")
    print(f"conjugacy symmetry: {'holds' if report.conjugacy_holds else 'FAILS'}")
    return 0 if report.holds else 4


def _cmd_simulate(args) -> int:
    initial = parse_state(args.initial, "partition") if args.initial else None
    config = ChainConfig(
        n=args.n,
        variant=args.variant,
        p=args.p,
        seed=args.seed,
        burn_in=args.burn_in,
        samples=args.samples,
        initial=initial,
    )
    moves = config.burn_in + config.samples  # each move visits one state
    _within_limit(moves, f"a chain of {moves} moves visits {moves} states")
    stats = run_chain(config)
    if args.format == "json":
        sys.stdout.writelines(stats.json_chunks())
        print()
    elif args.format == "csv":
        sys.stdout.write(stats.mean_shape_csv())
    else:
        print(f"variant: {config.variant}  n: {config.n}  p: {config.p}  seed: {config.seed}")
        print(f"burn-in: {config.burn_in}  samples: {config.samples}")
        print(f"distinct states visited: {len(stats.visit_counts)}")
        print(f"mean staircase distance: {stats.mean_staircase_distance:.6f}")
        print(f"mean energy: {stats.mean_energy:.3f}")
        if not stats.mean_shape:  # no sample, so no shape to fit
            return 0
        profile = shape_profile(stats)
        print(f"linear fit residual: {profile.linear_residual:.6f}")
        print(f"exponential fit residual: {profile.exponential_residual:.6f}")
        print(f"closer profile: {profile.better}")
    return 0


def _cmd_render(args) -> int:
    lam = parse_state(args.state, "partition")
    # a character per cell, or the cradle's grid, a square at most
    # len(lam) + lam[0] - 1 wide; both count against the state limit
    size = sum(lam) if args.style == "rows" or not lam else (len(lam) + lam[0] - 1) ** 2
    _within_limit(size, f"the diagram has {size} characters")
    print(render_young(lam, args.style))
    return 0


# --- parser ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsol", description="Bulgarian solitaire and its variants.",
        epilog=f"BSOL_MAX_STATES caps the states that any command visits "
               f"(default {DEFAULT_STATE_LIMIT:,}).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    orbit_p = sub.add_parser("orbit", help="walk one trajectory to its cycle")
    orbit_p.add_argument("--variant", default="bulgarian",
                         choices=["bulgarian", "dual", "carolina", "montreal",
                                  "austrian", "servedio_yeh", "janetzko"])
    orbit_p.add_argument("--state", required=True, help="comma-separated state, e.g. 4,3,3")
    orbit_p.add_argument("--L", type=int, help="machine lifetime (austrian)")
    orbit_p.add_argument("--bank", type=int, default=0, help="initial bank (austrian)")
    orbit_p.add_argument("--pointer", type=int, default=1, help="initial pointer (janetzko)")
    orbit_p.add_argument("--format", default="text", choices=["text", "json"])
    orbit_p.set_defaults(handler=_cmd_orbit)

    graph_p = sub.add_parser("graph", help="analyze the whole state space")
    graph_p.add_argument("--n", type=int, required=True)
    graph_p.add_argument("--variant", default="bulgarian",
                         choices=["bulgarian", "dual", "carolina", "montreal", "austrian"])
    graph_p.add_argument("--L", type=int, help="machine lifetime (austrian)")
    graph_p.add_argument("--format", default="text", choices=["text", "json", "dot"])
    graph_p.set_defaults(handler=_cmd_graph)

    ge_p = sub.add_parser("ge", help="list the Garden of Eden partitions of n")
    ge_p.add_argument("--n", type=int, required=True)
    ge_p.add_argument("--format", default="text", choices=["text", "json"])
    ge_p.set_defaults(handler=_cmd_ge)

    neck_p = sub.add_parser("necklaces", help="component count via the necklace formula")
    neck_p.add_argument("--n", type=int, required=True)
    neck_p.add_argument("--list", action="store_true", help="list the necklace classes")
    neck_p.add_argument("--format", default="text", choices=["text", "json"])
    neck_p.set_defaults(handler=_cmd_necklaces)

    knuth_p = sub.add_parser("knuth", help="check the k(k-1) convergence exponent")
    knuth_p.add_argument("--k", type=int, required=True)
    knuth_p.set_defaults(handler=_cmd_knuth)

    toom_p = sub.add_parser("toom", help="slowest known start and its mirror symmetry")
    toom_p.add_argument("--k", type=int, required=True)
    toom_p.set_defaults(handler=_cmd_toom)

    sim_p = sub.add_parser("simulate", help="run a seeded stochastic chain")
    sim_p.add_argument("--variant", required=True, choices=["popov", "ejs"])
    sim_p.add_argument("--n", type=int, required=True)
    sim_p.add_argument("--p", type=float, required=True)
    sim_p.add_argument("--seed", type=int, required=True)
    sim_p.add_argument("--burn-in", type=int, default=None)
    sim_p.add_argument("--samples", type=int, default=None)
    sim_p.add_argument("--initial", default=None, help="starting partition (default: one pile)")
    sim_p.add_argument("--format", default="text", choices=["text", "json", "csv"])
    sim_p.set_defaults(handler=_cmd_simulate)

    render_p = sub.add_parser("render", help="draw a Young diagram")
    render_p.add_argument("--state", required=True)
    render_p.add_argument("--style", default="rows", choices=["rows", "cradle"])
    render_p.set_defaults(handler=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a reader that stopped early shows here at the latest
        return code
    except BrokenPipeError:
        # the reader chose to stop: what is left goes nowhere, as in the
        # Python docs' "Note on SIGPIPE", and the run is a success
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except EnumerationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StepBoundError, WalkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
