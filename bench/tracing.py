"""In-memory spans around the calls into each `bsol` module.

The traced run executes `bsol.cli.main` in the benchmark's own process with
wrappers installed on the module attributes the library looks up at call
time, so no library file changes.  Coarse calls (one analysis, one chain,
one serialization) each record a span: id, name, parent span, job, start
and end.  Calls made once per state or per chain move would swamp memory
as single spans, so they are aggregated per (name, parent span) into a call
count and a total time.  Everything stays in memory until `dump`.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import oracle

# (module, attribute, span name, size of the result recorded as "count")
SPANS = [
    ("bsol.cli", "analyze_state_space", "dynamics.analyze", lambda g: g.state_count),
    ("bsol.cli", "knuth_exponent_check", "dynamics.knuth", lambda r: r.states_checked),
    ("bsol.cli", "run_chain", "stochastic.run_chain", lambda s: len(s.visit_counts)),
    ("bsol.cli", "shape_profile", "stochastic.shape_profile", None),
    ("bsol.cli", "partition_count", "necklaces.count", None),
    ("bsol.cli", "necklace_count", "necklaces.count", None),
    (oracle, "partition_count", "necklaces.count", None),
    (oracle, "necklace_count", "necklaces.count", None),
    ("bsol.dynamics", "GraphSummary.to_json", "dynamics.to_json", len),
    ("bsol.dynamics", "GraphSummary.to_dot", "dynamics.to_dot", len),
    ("bsol.stochastic", "ChainStats.to_json", "stochastic.to_json", len),
]

# enumerators return generators; the wrapper drains them inside the span
ENUMERATORS = [
    ("bsol.dynamics", "enumerate_partitions"),
    ("bsol.dynamics", "enumerate_compositions"),
    ("bsol.dynamics", "enumerate_montreal_compositions"),
    ("bsol.cli", "enumerate_partitions"),
]

# (module, attribute, aggregate name): called once per state or per move
HOT = [
    *[("bsol.dynamics", f"{v}_step", "operators.step")
      for v in ("bulgarian", "carolina", "montreal", "dual", "austrian")],
    ("bsol.cli", "garden_of_eden_test", "dynamics.ge_test"),
    ("bsol.stochastic", "sample_popov_mask", "stochastic.sample"),
    ("bsol.stochastic", "sample_ejs_picks", "stochastic.sample"),
    ("bsol.stochastic", "popov_masked_step", "operators.masked_step"),
    ("bsol.stochastic", "ejs_masked_step", "operators.masked_step"),
    ("bsol.stochastic", "staircase_distance", "stochastic.stats"),
    ("bsol.stochastic", "potential_energy", "stochastic.stats"),
]


def _owner(module, path: str):
    """The object holding the attribute, and the attribute's name."""
    obj = importlib.import_module(module) if isinstance(module, str) else module
    *outer, name = path.split(".")
    for part in outer:
        obj = getattr(obj, part)
    return obj, name


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.hot: dict[tuple[str, int], list] = {}  # (name, parent) -> [calls, seconds]
        self.stack = [0]  # 0 is the root
        self.job = None
        self.t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        clock = time.perf_counter
        record = {"id": len(self.spans) + 1, "name": name, "parent": self.stack[-1],
                  "job": self.job, "start": clock() - self.t0}
        self.spans.append(record)
        self.stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = clock() - self.t0
            self.stack.pop()

    def _span(self, name, fn, size=None):
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if size is not None:
                record["count"] = size(result)
            return result

        return wrapper

    def _hot(self, name, fn):
        clock, stack, cells = time.perf_counter, self.stack, {}

        def wrapper(*args):  # the traced hot functions are all called positionally
            start = clock()
            result = fn(*args)
            elapsed = clock() - start
            cell = cells.get(stack[-1])
            if cell is None:
                cell = cells[stack[-1]] = self.hot.setdefault((name, stack[-1]), [0, 0.0])
            cell[0] += 1
            cell[1] += elapsed
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced attribute; restore the originals on exit."""
        saved = []

        def patch(module, path, wrap):
            owner, name = _owner(module, path)
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, wrap(original))

        try:
            for module, path, span_name, size in SPANS:
                patch(module, path, lambda fn, n=span_name, s=size: self._span(n, fn, s))
            for module, path in ENUMERATORS:
                patch(module, path, self._enumerator)
            for module, path, agg_name in HOT:
                patch(module, path, lambda fn, n=agg_name: self._hot(n, fn))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def _enumerator(self, fn):
        drained = self._span("partitions.enumerate", lambda *a, **k: list(fn(*a, **k)), len)
        return lambda *args, **kwargs: iter(drained(*args, **kwargs))

    @contextmanager
    def job_span(self, job: str):
        """The root span of one CLI job; spans opened inside carry its name."""
        self.job = job
        try:
            with self.span("cli.main"):
                yield
        finally:
            self.job = None

    def dump(self, path: Path, meta: dict) -> None:
        hot = [{"name": name, "parent": parent, "calls": calls, "seconds": seconds}
               for (name, parent), (calls, seconds) in self.hot.items()]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": self.spans, "aggregates": hot}))


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer totals from the spans, and the names of the derived ones."""
    spans = tracer.spans

    def total(name, parents=None):
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name and (parents is None or s["parent"] in parents))

    def count(name, parents=None):
        return sum(s.get("count", 0) for s in spans
                   if s["name"] == name and (parents is None or s["parent"] in parents))

    def hot(name, parents=None, field=1):
        return sum(rec[field] for (n, parent), rec in tracer.hot.items()
                   if n == name and (parents is None or parent in parents))

    analyze = {s["id"] for s in spans if s["name"] == "dynamics.analyze"}
    chain = {s["id"] for s in spans if s["name"] == "stochastic.run_chain"}
    seeded = count("partitions.enumerate", analyze)
    visited = count("dynamics.analyze")
    m = {
        "partitions.enumerate_s": total("partitions.enumerate"),
        "partitions.states_enumerated": count("partitions.enumerate"),
        "operators.step_s": hot("operators.step"),
        "operators.step_calls": hot("operators.step", field=0),
        "dynamics.analyze_s": total("dynamics.analyze"),
        "dynamics.explore_self_s": total("dynamics.analyze")
        - total("partitions.enumerate", analyze) - hot("operators.step", analyze),
        "dynamics.states_seeded": seeded,
        "dynamics.states_visited": visited,
        "dynamics.visited_per_seed": visited / seeded if seeded else 0.0,
        "dynamics.knuth_s": total("dynamics.knuth"),
        "dynamics.knuth_states_checked": count("dynamics.knuth"),
        "dynamics.ge_test_s": hot("dynamics.ge_test"),
        "dynamics.to_json_s": total("dynamics.to_json"),
        "dynamics.to_dot_s": total("dynamics.to_dot"),
        "dynamics.out_bytes": count("dynamics.to_json") + count("dynamics.to_dot"),
        "necklaces.count_s": total("necklaces.count"),
        "stochastic.run_chain_s": total("stochastic.run_chain"),
        "stochastic.sample_s": hot("stochastic.sample"),
        "stochastic.sample_calls": hot("stochastic.sample", field=0),
        "operators.masked_step_s": hot("operators.masked_step"),
        "stochastic.stats_s": hot("stochastic.stats"),
        "stochastic.tally_self_s": total("stochastic.run_chain")
        - hot("stochastic.sample", chain) - hot("operators.masked_step", chain)
        - hot("stochastic.stats", chain),
        "stochastic.distinct_states": count("stochastic.run_chain"),
        "stochastic.shape_profile_s": total("stochastic.shape_profile"),
        "stochastic.to_json_s": total("stochastic.to_json"),
    }
    derived = ["dynamics.explore_self_s", "dynamics.visited_per_seed", "stochastic.tally_self_s"]
    return m, derived
