"""Command-line front end: bsol <command>.

Commands map straight onto the library: orbit walks one trajectory,
graph/ge analyze a whole state space, necklaces/knuth/toom run the
counting and convergence checks, simulate runs a seeded chain, render
draws a diagram.  Exit codes: 0 success, 2 usage or parse error,
3 state-space bound exceeded, 4 internal assertion failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import comb
from typing import Iterator

from .dynamics import (
    _NL,
    _SEP,
    StepBoundError,
    WalkError,
    analyze_state_space,
    garden_of_eden_test,
    get_variant,
    knuth_exponent_check,
    orbit,
    orbit_json_lines,
    state_label,
    state_total,
    toom_path,
)
# partition_count stays importable here: bench/tracing.py wraps it by name
from .necklaces import list_necklaces, necklace_count, partition_count
from .operators import AustrianState, PointerState
from .partitions import (
    EnumerationBoundError,
    Partition,
    enumerate_partitions,
    format_parts,
    join_parts,
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
# an orbit from one pile of n cards takes about n moves on states of up to n
# parts; at 4,000 cards the slowest variant, montreal, takes about 2 s, and
# past 4,096 its orbit from one pile doubles to 8,196 moves
ORBIT_CARD_BOUND = 4_000

STATE_KINDS = ("partition", "strict", "montreal", "circular")


def parse_state(text: str, kind: str) -> tuple[int, ...]:
    """Parse comma-separated text into a canonical state of the given kind.

    Partitions are normalized; compositions keep their order.
    """
    if kind not in STATE_KINDS:
        raise ValueError(f"unknown state kind {kind!r}")
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

def _state_limit(args) -> int:
    if getattr(args, "limit", None) is not None:
        if args.limit < 0:
            raise ValueError(f"--limit must be nonnegative, got {args.limit}")
        return args.limit
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


def _check_space(variant: str, n: int, L: int | None, limit: int) -> None:
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
    if size > limit:
        raise EnumerationBoundError(
            f"state space of {variant} at n={n} has {size} states, over the limit {limit}"
        )


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
    try:
        result = orbit(start, variant.step, step_bound=args.step_bound)
    except StepBoundError as exc:
        if args.step_bound is not None:
            raise ValueError(f"--step-bound {args.step_bound} is too small: {exc}") from None
        if args.variant == "montreal":
            raise EnumerationBoundError(
                f"{exc}, the default bound; montreal orbits have no proven bound"
            ) from None
        raise  # no finite variant's orbit is known to pass it, so this is a defect
    if args.format == "json":
        print("\n".join(orbit_json_lines(result)))
        return 0
    print(f"variant: {args.variant}")
    print(f"tail length: {result.tail}")
    print(f"cycle length: {result.cycle_length}")
    for idx, state in enumerate(result.path):
        marker = " *" if idx >= result.tail else ""
        print(f"{idx:4d}  {state_label(state)}{marker}")
    return 0


def _cmd_graph(args) -> int:
    # only the austrian variant reads --L; a missing or bad one is a usage error, before sizing
    get_variant(args.variant, L=args.L)
    limit = _state_limit(args)
    _check_space(args.variant, args.n, args.L, limit)
    # the seeds are sized above; montreal orbits leave them, so every
    # state they visit counts against the limit too
    summary = analyze_state_space(
        args.n, args.variant, L=args.L, keep_edges=args.format == "dot", limit=limit
    )
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
    _check_space("bulgarian", args.n, None, _state_limit(args))
    ge = (
        lam
        for lam in enumerate_partitions(args.n)
        if lam and garden_of_eden_test(lam)
    )
    if args.format == "json":
        sys.stdout.writelines(_json_list_of_parts(ge))
    else:
        sys.stdout.writelines(format_parts(lam) + "\n" for lam in ge)
    return 0


def _json_list_of_parts(states) -> Iterator[str]:
    """print(json.dumps([list(s) for s in states], indent=2)) for nonempty
    states, a state at a time: json's indenting encoder holds it all."""
    sep = "[" + _NL[1]
    for lam in states:
        yield sep + "[" + _NL[2] + join_parts(lam, _SEP[2]) + _NL[1] + "]"
        sep = _SEP[1]
    yield "\n]\n" if sep == _SEP[1] else "[]\n"


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
        if comb(k, r) > _state_limit(args):
            raise EnumerationBoundError(
                f"listing necklaces needs {comb(k, r)} bead placements, over the limit"
            )
        necklaces = list_necklaces(k, r)
    if args.format == "json":
        data = {"n": args.n, "k": k, "r": r, "count": count}
        if necklaces is not None:
            data["necklaces"] = [
                {"beads": str(x), "period": x.period()} for x in necklaces
            ]
        print(json.dumps(data, indent=2))
    else:
        print(f"n={args.n}: k={k}, r={r}, components={count}")
        if necklaces is not None:
            for x in necklaces:
                print(f"{x}  period={x.period()}")
    return 0


def _cmd_knuth(args) -> int:
    n = args.k * (args.k + 1) // 2
    _check_space("bulgarian", n, None, _state_limit(args))
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
    if args.k > TOOM_K_BOUND:
        raise EnumerationBoundError(
            f"toom at k={args.k} walks {args.k * (args.k - 1)} steps, "
            f"over the bound k={TOOM_K_BOUND}"
        )
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
    moves, limit = config.burn_in + config.samples, _state_limit(args)
    if moves > limit:  # each move visits one state
        raise EnumerationBoundError(
            f"a chain of {moves} moves visits {moves} states, over the limit {limit}"
        )
    k = triangular_decompose(config.n)[0]
    if k > limit:  # the chain's states grow toward the k-part staircase
        raise EnumerationBoundError(
            f"the reference staircase at n={config.n} has {k} parts, over the limit {limit}"
        )
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
    print(render_young(lam, args.style))
    return 0


# --- parser ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsol", description="Bulgarian solitaire and its variants."
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
    orbit_p.add_argument("--step-bound", type=int, default=None)
    orbit_p.add_argument("--format", default="text", choices=["text", "json"])
    orbit_p.set_defaults(handler=_cmd_orbit)

    graph_p = sub.add_parser("graph", help="analyze the whole state space")
    graph_p.add_argument("--n", type=int, required=True)
    graph_p.add_argument("--variant", default="bulgarian",
                         choices=["bulgarian", "dual", "carolina", "montreal", "austrian"])
    graph_p.add_argument("--L", type=int, help="machine lifetime (austrian)")
    graph_p.add_argument("--limit", type=int, default=None,
                         help="maximum number of states to enumerate")
    graph_p.add_argument("--format", default="text", choices=["text", "json", "dot"])
    graph_p.set_defaults(handler=_cmd_graph)

    ge_p = sub.add_parser("ge", help="list the Garden of Eden partitions of n")
    ge_p.add_argument("--n", type=int, required=True)
    ge_p.add_argument("--limit", type=int, default=None)
    ge_p.add_argument("--format", default="text", choices=["text", "json"])
    ge_p.set_defaults(handler=_cmd_ge)

    neck_p = sub.add_parser("necklaces", help="component count via the necklace formula")
    neck_p.add_argument("--n", type=int, required=True)
    neck_p.add_argument("--list", action="store_true", help="list the necklace classes")
    neck_p.add_argument("--limit", type=int, default=None)
    neck_p.add_argument("--format", default="text", choices=["text", "json"])
    neck_p.set_defaults(handler=_cmd_necklaces)

    knuth_p = sub.add_parser("knuth", help="check the k(k-1) convergence exponent")
    knuth_p.add_argument("--k", type=int, required=True)
    knuth_p.add_argument("--limit", type=int, default=None)
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
        return args.handler(args)
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
