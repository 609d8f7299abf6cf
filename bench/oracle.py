"""Output checks for the benchmark jobs.

Each check parses what one `bsol` command printed and compares it with a
value that does not come from the code path being timed: the Bulgarian
and dual graphs against the closed forms in `bsol.necklaces` (the graph
path never calls them to produce its counts), Garden of Eden sets against
a box-counting recurrence written here, Austrian state counts against a
bounded-partition recurrence written here.  A check raises OracleError on
the first mismatch and returns None when the output is accepted.
"""

from __future__ import annotations

import json
import math
import re
from functools import lru_cache


class OracleError(ValueError):
    """A job's output disagrees with its oracle."""


def partition_count(n: int) -> int:
    from bsol.necklaces import partition_count as closed_form

    return closed_form(n)


def necklace_count(n: int) -> int:
    from bsol.necklaces import necklace_count as closed_form

    return closed_form(n)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


# --- independent counts ---

@lru_cache(maxsize=None)
def _box_table(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """box[r][c][m]: partitions of m with at most r parts, each at most c."""
    unit = (1,) + (0,) * n
    box = [[unit] * (n + 1)]
    for r in range(1, n + 1):
        row = [unit]
        for c in range(1, n + 1):
            # largest part below c, or equal to c and removed
            smaller, with_c = row[c - 1], box[r - 1][c]
            row.append(tuple(
                smaller[m] + (with_c[m - c] if m >= c else 0) for m in range(n + 1)
            ))
        box.append(row)
    return tuple(tuple(row) for row in box)


def ge_count(n: int) -> int:
    """Partitions of n with largest part a and length l where a < l - 1.

    Removing the first row and first column of such a diagram leaves a
    partition of n - a - l + 1 inside an (l - 1) x (a - 1) box.
    """
    box = _box_table(n)
    total = 0
    for a in range(1, n + 1):
        for length in range(a + 2, n + 1):
            rest = n - a - length + 1
            if rest >= 0:
                total += box[length - 1][a - 1][rest]
    return total


def austrian_state_count(n: int, L: int) -> int:
    """Seeded Austrian states: bank b < L, piles a partition of n - b into parts <= L."""
    ways = [1] + [0] * n
    for part in range(1, L + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return sum(ways[n - bank] for bank in range(min(L - 1, n) + 1))


def montreal_seed_count(n: int) -> int:
    """Montreal compositions of n with at most n parts: endpoints >= 1, interior >= 0."""
    return 1 + sum(math.comb(n - 3 + c, c - 1) for c in range(2, n + 1))


# --- parsing helpers ---

def _parts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise OracleError(f"malformed state {text!r}") from None


def _check_partition(parts, n: int) -> None:
    _require(
        len(parts) > 0
        and all(p >= 1 for p in parts)
        and all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))
        and sum(parts) == n,
        f"{parts} is not a partition of {n}",
    )


def _check_ge_set(states: list[tuple[int, ...]], n: int) -> None:
    """A Bulgarian GE set: distinct partitions of n with parts[0] < len - 1,
    as many as there are such partitions."""
    for lam in states:
        _check_partition(lam, n)
        _require(lam[0] < len(lam) - 1, f"{lam} has a predecessor")
    _require(len(set(states)) == len(states), "repeated Garden of Eden state")
    expected = ge_count(n)
    _require(len(states) == expected, f"{len(states)} Garden of Eden states, expected {expected}")


def _text_lines(out: bytes) -> list[str]:
    try:
        return out.decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise OracleError("output is not ASCII") from None


def _graph_text(out: bytes) -> dict:
    """Header fields and cycle lengths of `bsol graph` text output."""
    fields, cycle_lengths = {}, []
    for line in _text_lines(out):
        match = re.fullmatch(r"cycle \d+ \(length (\d+)\): .*", line)
        if match:
            cycle_lengths.append(int(match.group(1)))
            continue
        key, _, value = line.partition(": ")
        if key in ("states", "components", "max tail", "garden-of-eden states"):
            fields[key] = int(value)
    _require(len(fields) == 4, f"graph summary lacks fields: got {sorted(fields)}")
    _require(fields["components"] == len(cycle_lengths), "component count differs from cycles listed")
    fields["cycle_lengths"] = cycle_lengths
    return fields


# --- one check per job kind ---

def check_bulgarian_json(out: bytes, n: int) -> None:
    try:
        data = json.loads(out)
    except ValueError:
        raise OracleError("graph output is not JSON") from None
    _require(data.get("n") == n and data.get("variant") == "bulgarian", "wrong graph header")
    _require(data["state_count"] == partition_count(n),
             f"state_count {data['state_count']} != p({n}) = {partition_count(n)}")
    _require(data["component_count"] == necklace_count(n) == len(data["cycles"]),
             f"component_count {data['component_count']} != necklace count {necklace_count(n)}")
    for state in data["ge_states"]:
        _require(state.get("n") == n, f"GE state {state} is not of size {n}")
    _check_ge_set([tuple(s["parts"]) for s in data["ge_states"]], n)


def check_knuth(out: bytes, k: int) -> None:
    n = k * (k + 1) // 2
    expected = (
        f"k={k}: B^{k * (k - 1)} reaches the staircase on all "
        f"{partition_count(n)} partitions of {n}: holds"
    )
    _require(_text_lines(out) == [expected], f"knuth output is not {expected!r}")


def check_ge_list(out: bytes, n: int) -> None:
    _check_ge_set([_parts(line) for line in _text_lines(out)], n)


def check_carolina_dot(out: bytes, n: int) -> None:
    lines = _text_lines(out)
    _require(lines[:1] == [f"digraph carolina_n{n} {{"] and lines[-1:] == ["}"], "not a DOT digraph")
    sources = []
    for line in lines[1:-1]:
        match = re.fullmatch(r'  "([\d,]+)" -> "([\d,]+)";', line)
        if match is None:
            _require(re.fullmatch(r'  "[\d,]+" \[ge=true, style=dashed\];', line) is not None,
                     f"unexpected DOT line {line!r}")
            continue
        for comp in map(_parts, match.groups()):
            _require(min(comp) >= 1 and sum(comp) == n, f"{comp} is not a composition of {n}")
        sources.append(match.group(1))
    expected = 2 ** (n - 1)
    _require(len(sources) == len(set(sources)) == expected,
             f"{len(sources)} edges from {len(set(sources))} states, expected {expected}")


def check_montreal_text(out: bytes, n: int) -> None:
    g = _graph_text(out)
    _require(g["max tail"] == 0 and g["garden-of-eden states"] == 0,
             "Montreal graph has a tail or a Garden of Eden state")
    # with no tails every state lies on exactly one listed cycle
    _require(sum(g["cycle_lengths"]) == g["states"], "cycle lengths do not cover every state")
    _require(g["states"] >= montreal_seed_count(n), "fewer states than seeds")


def check_dual_text(out: bytes, n: int) -> None:
    g = _graph_text(out)
    _require(g["states"] == partition_count(n), f"{g['states']} states, expected p({n})")
    _require(g["components"] == necklace_count(n), f"{g['components']} components, expected the necklace count")
    # the dual step is the Bulgarian step conjugated, so GE sets correspond
    _require(g["garden-of-eden states"] == ge_count(n), "dual GE count differs from the Bulgarian one")


def check_austrian_text(out: bytes, n: int, L: int) -> None:
    g = _graph_text(out)
    expected = austrian_state_count(n, L)
    _require(g["states"] == expected, f"{g['states']} Austrian states, expected {expected}")


def check_popov_json(out: bytes, n: int, p: float, seed: int, burn_in: int, samples: int) -> None:
    try:
        data = json.loads(out)
    except ValueError:
        raise OracleError("chain output is not JSON") from None
    config = data["config"]
    _require((config["variant"], config["n"], config["p"], config["seed"]) == ("popov", n, p, seed),
             f"chain config {config} does not match the job")
    _require((config["burn_in"], config["samples"]) == (burn_in, samples), "wrong chain length")
    _require(sum(data["visit_counts"].values()) == samples, "visit counts do not sum to samples")
    for key in data["visit_counts"]:
        _check_partition(_parts(key), n)
    _require(math.isclose(sum(data["mean_shape"]), n, rel_tol=1e-9), "mean shape does not sum to n")
    _require(isinstance(data.get("rng_algorithm"), str), "rng_algorithm missing")


def check_ejs_text(out: bytes, n: int, p: float, seed: int, burn_in: int, samples: int) -> None:
    lines = _text_lines(out)
    _require(len(lines) == 8, f"ejs text output has {len(lines)} lines, expected 8")
    _require(lines[0] == f"variant: ejs  n: {n}  p: {p}  seed: {seed}", f"wrong header {lines[0]!r}")
    _require(lines[1] == f"burn-in: {burn_in}  samples: {samples}", f"wrong chain length {lines[1]!r}")
    values = {}
    for line in lines[2:7]:
        key, _, value = line.partition(": ")
        try:
            values[key] = float(value)
        except ValueError:
            raise OracleError(f"malformed line {line!r}") from None
    _require(1 <= values.get("distinct states visited", 0) <= samples, "distinct state count out of range")
    _require(values.get("mean staircase distance", -1.0) >= 0.0, "negative staircase distance")
    _require(lines[7] in ("closer profile: linear", "closer profile: exponential"), "no profile verdict")


def check_startup(out: bytes) -> None:
    # 10 is the 4th triangular number: one component, k = r = 4
    _require(out == b"n=10: k=4, r=4, components=1\n", f"unexpected output {out[:80]!r}")
