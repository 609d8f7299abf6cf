"""Benchmark of the `bsol` command line.

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each job is a real `bsol` command, run as
a fresh `python -m bsol.cli` subprocess with `src` on PYTHONPATH: one
client in a closed loop, one job in flight, no `--workers` flag.  Every
job's output is checked against an oracle (see oracle.py), and a job must
print the same bytes every time it runs, because a run reuses its seeds.
A job that exits non-zero, fails its oracle or times out counts as failed
and is never dropped.

With --trace 0 the run times a trivial invocation (set-up: interpreter
start plus `import bsol`, which pulls in numpy) a few times, then runs the
workload's jobs round-robin until --seconds is used up, each at least
twice, with a set-up sample and a calibration after every job.  It
reports wall_s, the median pass (the sum of the per-job median wall
times), peak_rss_mb, the largest per-job median peak RSS, each read from
that job's own `os.wait4` rusage, and setup_s, the median set-up time.

wall_s and setup_s are in seconds at a reference CPU speed.  On a shared
2-vCPU virtual machine (Xeon host) the same job ran up to twice as slowly
for seconds at a time, and a set of ten runs read a third slower than one
made half an hour before, so raw times from two sets disagree by more than
any useful bound.  Each set-up sample is therefore followed by a
calibration child (CALIBRATION_CODE, a fixed pure-Python loop in a fresh
interpreter), and both times are scaled by CALIBRATION_REF_S over the
run's median calibration time.  The calibration runs no bsol code, so a
slower bsol still reads slower.  The unscaled times and every sample are
in the report.

With --trace 1 the run makes one subprocess pass for the per-job CLI
timings, then runs each job in this process through `bsol.cli.main`, once
plain and once with the spans of tracing.py installed; the difference is
reported as tracing overhead.  Spans are written to bench/out/.  Traced
times are not scaled.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  A full report, with provenance, goes to bench/out/ too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 5
MIN_RUNS = 2
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 160.0  # the run must end well inside three minutes

# A fixed pure-Python child process that imports nothing from bsol.  It takes
# CALIBRATION_REF_S at the reference speed, roughly its median on a shared
# 2-vCPU Xeon virtual machine; the constant only sets the unit.
CALIBRATION_CODE = (
    "c = {}\n"
    "for i in range(150000):\n"
    "    k = (i % 97, i % 89, i % 83, i % 5)\n"
    "    c[k] = c.get(k, 0) + 1\n"
)
CALIBRATION_REF_S = 0.25

WHY = {
    "exhaustive": "Bulgarian graph, Knuth check and GE listing: enumeration, explorer, "
                  "step, in-degree/GE and JSON output do the work; stochastic does none",
    "kinds": "the explorer on compositions and Austrian/Montreal states, Montreal orbits "
             "leaving the seed stratum, edges kept for DOT: guards exhaustive-only wins",
    "chain": "two seeded chains, popov/random/JSON and ejs/binomial/text: sample, move, "
             "tally and statistics do the work; enumeration and the explorer do none",
}

# which end-to-end metric each layer metric should move, and on which workload
LAYER_MAP = {
    "partitions.enumerate_s, partitions.states_enumerated":
        "wall_s on exhaustive (ge is mostly enumeration) and kinds; ~0 on chain",
    "operators.step_s, operators.step_calls":
        "wall_s on exhaustive (knuth is step-bound) and kinds; ~0 on chain",
    "dynamics.analyze_s, dynamics.explore_self_s, dynamics.states_seeded, "
    "dynamics.states_visited, dynamics.visited_per_seed":
        "wall_s and peak_rss_mb on exhaustive and kinds; none on chain",
    "dynamics.knuth_s, dynamics.knuth_states_checked": "wall_s on exhaustive only",
    "dynamics.ge_test_s": "wall_s on exhaustive",
    "dynamics.to_json_s, dynamics.to_dot_s, dynamics.out_bytes":
        "wall_s and peak_rss_mb on exhaustive (JSON) and kinds (DOT)",
    "necklaces.count_s": "nothing today; a baseline for replacing brute force",
    "stochastic.*, operators.masked_step_s": "wall_s on chain only",
    "cli.<job>_s, cli.<job>_cpu_s, cli.startup_s, cli.stdout_bytes":
        "wall_s on every workload, and setup_s; startup weighs most on kinds",
}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Callable[[bytes], None]


FULL = {"graph": 50, "knuth": 9, "ge": 55, "carolina": 18, "montreal": 10,
        "dual": 45, "austrian": (40, 6), "chain": 210, "chain_len": None}
TOY = {"graph": 8, "knuth": 4, "ge": 10, "carolina": 6, "montreal": 5,
       "dual": 9, "austrian": (9, 3), "chain": 12, "chain_len": (60, 600)}


def workload_jobs(workload: str, seed: int, size: dict = FULL) -> list[Job]:
    """The workload's jobs.  Only the chain seeds depend on the seed."""
    if workload == "exhaustive":
        n, k, m = size["graph"], size["knuth"], size["ge"]
        return [
            Job("graph_json", ("graph", "--n", str(n), "--format", "json"),
                partial(oracle.check_bulgarian_json, n=n)),
            Job("knuth", ("knuth", "--k", str(k)), partial(oracle.check_knuth, k=k)),
            Job("ge", ("ge", "--n", str(m)), partial(oracle.check_ge_list, n=m)),
        ]
    if workload == "kinds":
        c, mo, d, (a, L) = size["carolina"], size["montreal"], size["dual"], size["austrian"]
        return [
            Job("carolina_dot", ("graph", "--variant", "carolina", "--n", str(c), "--format", "dot"),
                partial(oracle.check_carolina_dot, n=c)),
            Job("montreal", ("graph", "--variant", "montreal", "--n", str(mo)),
                partial(oracle.check_montreal_text, n=mo)),
            Job("dual", ("graph", "--variant", "dual", "--n", str(d)),
                partial(oracle.check_dual_text, n=d)),
            Job("austrian", ("graph", "--variant", "austrian", "--n", str(a), "--L", str(L)),
                partial(oracle.check_austrian_text, n=a, L=L)),
        ]
    if workload == "chain":
        n = size["chain"]
        rng = random.Random(seed)
        jobs = []
        for name, variant, p, fmt, check in (
            ("popov_json", "popov", 0.9, "json", oracle.check_popov_json),
            ("ejs_text", "ejs", 0.5, "text", oracle.check_ejs_text),
        ):
            chain_seed = rng.randrange(2**31)
            argv = ("simulate", "--variant", variant, "--n", str(n), "--p", str(p),
                    "--seed", str(chain_seed), "--format", fmt)
            burn_in, samples = size["chain_len"] or (50 * n, 500 * n)
            if size["chain_len"]:
                argv += ("--burn-in", str(burn_in), "--samples", str(samples))
            jobs.append(Job(name, argv, partial(check, n=n, p=p, seed=chain_seed,
                                                 burn_in=burn_in, samples=samples)))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


STARTUP = Job("startup", ("necklaces", "--n", "10"), oracle.check_startup)


ALL_JOBS = [job.name for workload in WHY for job in workload_jobs(workload, 0)]


def per_layer_names() -> list[str]:
    """Every metric a traced run emits, whatever its workload."""
    names = list(layer_metrics(Tracer())[0])
    for job in ALL_JOBS:
        names += [f"cli.{job}_s", f"cli.{job}_cpu_s"]
    return names + ["cli.startup_s", "cli.stdout_bytes", "trace.overhead_s", "trace.overhead_ratio"]


# --- running jobs ---

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_inprocess(argv) -> dict:
    """Run one command through `bsol.cli.main` in this process."""
    import bsol.cli

    buffer = io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with redirect_stdout(buffer):
        code = bsol.cli.main(list(argv))
    wall = time.perf_counter() - start
    return {"wall_s": wall, "exit": code, "timed_out": False,
            "stdout": buffer.getvalue().encode(), "stderr": b""}


def judge(job: Job, result: dict, reference: bytes | None) -> str | None:
    """Why the job failed, or None when it passed.

    reference is the SHA-256 digest of an earlier output of the same job.
    """
    if result["timed_out"]:
        return "timed out"
    if result["exit"] != 0:
        return f"exit code {result['exit']}: {result['stderr'][-300:].decode(errors='replace')}"
    try:
        job.check(result["stdout"])
    except Exception as exc:  # any malformed output is a failed job, never a crashed run
        return f"{type(exc).__name__}: {exc}"
    if reference is not None and hashlib.sha256(result["stdout"]).digest() != reference:
        return "output differs from an earlier run with the same arguments"
    return None


class Ledger:
    """Every job run, with its verdict; counts attempts and failures.

    Subprocess jobs are started by spawn.py, which is launched here while
    this process is still small; see that file for why.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.records: list[dict] = []
        self.first_digest: dict[str, bytes] = {}
        OUT.mkdir(exist_ok=True)
        self.streams = {k: OUT / f"job-{os.getpid()}.{k}" for k in ("stdout", "stderr")}
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], cwd=ROOT, env=_child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.launcher.stdin.close()
        self.launcher.wait(timeout=JOB_TIMEOUT_S)
        self.launcher.stdout.close()
        for path in self.streams.values():
            path.unlink(missing_ok=True)

    def _launch(self, argv) -> dict:
        """Run one `bsol` command; its own wall time, CPU time and peak RSS."""
        return self._spawn([sys.executable, "-m", "bsol.cli", *argv])

    def calibrate(self) -> float:
        """Wall time of the calibration child."""
        return self._spawn([sys.executable, "-c", CALIBRATION_CODE])["wall_s"]

    def _spawn(self, argv: list[str]) -> dict:
        request = {"argv": argv,
                   "timeout": min(JOB_TIMEOUT_S, self.deadline - time.perf_counter()),
                   **{k: str(path) for k, path in self.streams.items()}}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        result = json.loads(self.launcher.stdout.readline())
        return {**result, **{k: path.read_bytes() for k, path in self.streams.items()}}

    def run(self, job: Job, runner=None) -> dict:
        result = (runner or self._launch)(job.argv)
        error = judge(job, result, self.first_digest.get(job.name))
        self.first_digest.setdefault(job.name, hashlib.sha256(result["stdout"]).digest())
        record = {k: v for k, v in result.items() if k not in ("stdout", "stderr")}
        record.update(job=job.name, error=error, stdout_bytes=len(result["stdout"]))
        self.records.append(record)
        if error:
            print(f"FAILED {job.name}: {error}", file=sys.stderr)
        return record

    @property
    def failed(self) -> int:
        return sum(r["error"] is not None for r in self.records)


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered, best = sorted(samples), None
    for pct in (90, 99, 99.9):
        if len(samples) * (100 - pct) / 100 >= 10:
            best = {"percentile": pct, "value": ordered[int(len(samples) * pct / 100)]}
    return best


def setup_times(ledger: Ledger) -> list[float]:
    return [ledger.run(STARTUP)["wall_s"] for _ in range(SETUP_RUNS)]


def measure(jobs: list[Job], seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """Run the jobs round-robin until the next one would overrun `seconds`.

    Every job runs at least MIN_RUNS times.  The median pass is estimated
    as the sum of the per-job medians, which lets a last, partial round
    count.  A set-up sample and a calibration follow each job, so their
    medians span the whole run rather than its first seconds.
    """
    setup, calibration = [], []

    def sample_setup():
        setup.append(ledger.run(STARTUP)["wall_s"])
        calibration.append(ledger.calibrate())

    for _ in range(SETUP_RUNS):
        sample_setup()
    runs = {job.name: [] for job in jobs}
    start = time.perf_counter()
    for job in itertools.cycle(jobs):
        done = runs[job.name]
        if min(map(len, runs.values())) >= MIN_RUNS:
            next_end = time.perf_counter() + statistics.median(r["wall_s"] for r in done)
            if next_end - start > seconds or next_end > ledger.deadline:
                break
        done.append(ledger.run(job))
        sample_setup()
    walls = {name: [r["wall_s"] for r in done] for name, done in runs.items()}
    wall_raw = sum(statistics.median(w) for w in walls.values())
    setup_raw = statistics.median(setup)
    scale = CALIBRATION_REF_S / statistics.median(calibration)
    metrics = {
        "wall_s": {"value": wall_raw * scale, "unit": "s"},
        "peak_rss_mb": {"value": max(statistics.median(r["rss_mb"] for r in done)
                                     for done in runs.values()), "unit": "MB"},
        "setup_s": {"value": setup_raw * scale, "unit": "s"},
    }
    detail = {"wall_s_unscaled": wall_raw, "setup_s_unscaled": setup_raw, "speed_scale": scale,
              "job_walls": walls, "wall_s_samples": min(map(len, walls.values())),
              "job_tails": {name: tail_percentile(w) for name, w in walls.items()},
              "setup_s_samples": setup, "calibration_s_samples": calibration}
    return metrics, detail


def trace(jobs: list[Job], ledger: Ledger, workload: str, seed: int) -> tuple[dict, dict]:
    setup = setup_times(ledger)
    cli = {job.name: ledger.run(job) for job in jobs}
    tracer = Tracer()
    plain_s = traced_s = 0.0
    for job in jobs:
        plain_s += ledger.run(job, run_inprocess)["wall_s"]
        with tracer.installed():
            with tracer.job_span(job.name):
                traced_s += ledger.run(job, run_inprocess)["wall_s"]
    layers, derived = layer_metrics(tracer)
    values = dict(layers)
    for name in ALL_JOBS:  # jobs of other workloads read 0
        record = cli.get(name, {"wall_s": 0.0, "cpu_s": 0.0})
        values[f"cli.{name}_s"] = record["wall_s"]
        values[f"cli.{name}_cpu_s"] = record["cpu_s"]
    values["cli.startup_s"] = statistics.median(setup)
    values["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in cli.values())
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
    derived += ["trace.overhead_s", "trace.overhead_ratio"]
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    tracer.dump(spans_path, {"workload": workload, "seed": seed})
    metrics = {name: {"value": values[name], "unit": _unit(name)} for name in per_layer_names()}
    return metrics, {"derived": derived, "spans": str(spans_path.relative_to(ROOT)),
                     "in_process_plain_s": plain_s, "in_process_traced_s": traced_s}


def _unit(name: str) -> str:
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_seed"):
        return "ratio"
    return "count"


def provenance(workload: str, seed: int) -> dict:
    import numpy
    from bsol import __version__
    from bsol.stochastic import RNG_ALGORITHM

    digest = hashlib.sha256()
    for path in sorted((SRC / "bsol").glob("*.py")):
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "why": WHY[workload],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "bsol": __version__, "rng_algorithm": RNG_ALGORITHM,
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "loop": "closed, one client, one job in flight", "layer_map": LAYER_MAP,
    }


def main(argv: list[str] | None = None, size: dict = FULL) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bsol" / "cli.py").is_file():
        sys.exit(f"error: no bsol sources under {SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    jobs = workload_jobs(args.workload, args.seed, size)
    with Ledger(started + RUN_DEADLINE_S) as ledger:
        if args.trace:
            metrics, detail = trace(jobs, ledger, args.workload, args.seed)
        else:
            metrics, detail = measure(jobs, args.seconds, ledger)
    attempted, failed = len(ledger.records), ledger.failed
    report = {
        "provenance": provenance(args.workload, args.seed),
        "trace": args.trace, "seconds": args.seconds,
        "run_s": time.perf_counter() - started,
        "fail_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "detail": detail, "jobs": ledger.records, "metrics": metrics,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    for name, metric in metrics.items():
        label = " (derived)" if name in detail.get("derived", ()) else ""
        print(f"{name:32s} {metric['value']:>14.6g} {metric['unit']}{label}")
    if "wall_s_samples" in detail:
        print(f"{'wall_s samples per job':32s} {detail['wall_s_samples']}")
        print(f"{'unscaled wall_s, setup_s':32s} {detail['wall_s_unscaled']:.6g} s, "
              f"{detail['setup_s_unscaled']:.6g} s (speed scale {detail['speed_scale']:.4f})")
    print(f"{'fail_ratio':32s} {failed}/{attempted}")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
