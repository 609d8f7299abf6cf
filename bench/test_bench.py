"""Checks of the benchmark itself, at toy sizes.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

import run
from run import TOY, judge, main, run_inprocess, workload_jobs

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def few_setup_runs(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 2)


@pytest.mark.parametrize("workload", sorted(run.WHY))
@pytest.mark.parametrize("traced", [0, 1])
def test_every_metric_is_emitted(workload, traced, capsys):
    result = main(["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(traced)],
                  size=TOY)
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last == json.loads(json.dumps(result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if traced else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_declared_workloads_and_layers_match_the_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == run.WHY
    assert [m["name"] for m in SPEC["per_layer"]] == run.per_layer_names()


def _drop_last_line(out: bytes) -> bytes:
    return b"".join(out.splitlines(keepends=True)[:-1])


def _bump(pattern: bytes):
    """Add one to the first integer matched by pattern's group."""
    def mutate(out: bytes) -> bytes:
        return re.sub(pattern, lambda m: m.group(0).replace(
            m.group(1), str(int(m.group(1)) + 1).encode()), out, count=1)
    return mutate


def _drop_ge_state(out: bytes) -> bytes:
    data = json.loads(out)
    data["ge_states"].pop()
    return json.dumps(data).encode()


def _extra_visit(out: bytes) -> bytes:
    data = json.loads(out)
    key = next(iter(data["visit_counts"]))
    data["visit_counts"][key] += 1
    return json.dumps(data).encode()


WRONG = {
    "graph_json": _drop_ge_state,
    "knuth": lambda out: out.replace(b"holds", b"FAILS"),
    "ge": _drop_last_line,
    "carolina_dot": lambda out: re.sub(rb'  "[\d,]+" -> "[\d,]+";\n', b"", out, count=1),
    "montreal": lambda out: out.replace(b"max tail: 0", b"max tail: 1"),
    "dual": _bump(rb"components: (\d+)"),
    "austrian": _bump(rb"states: (\d+)"),
    "popov_json": _extra_visit,
    "ejs_text": _bump(rb"samples: (\d+)"),
}


@pytest.mark.parametrize("workload", sorted(run.WHY))
def test_each_oracle_rejects_a_wrong_output(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    for job in workload_jobs(workload, 5, TOY):
        good = run_inprocess(job.argv)
        assert judge(job, good, None) is None, job.name
        wrong = dict(good, stdout=WRONG[job.name](good["stdout"]))
        assert wrong["stdout"] != good["stdout"], job.name
        assert judge(job, wrong, None) is not None, job.name
        other = hashlib.sha256(wrong["stdout"]).digest()
        assert judge(job, good, other) is not None, job.name  # differs from an earlier run
        assert judge(job, dict(good, exit=2), None) is not None, job.name
        assert judge(job, dict(good, timed_out=True), None) is not None, job.name
    startup = run_inprocess(run.STARTUP.argv)
    assert judge(run.STARTUP, startup, None) is None
    assert judge(run.STARTUP, dict(startup, stdout=startup["stdout"].replace(b"=1", b"=2")), None)
