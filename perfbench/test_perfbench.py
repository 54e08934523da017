"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def small(name: str, tmp_path, keep):
    """A workload set up for seed 3 and cut to a few units of each kind."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name]()
    wl.setup(3, str(tmp_path))
    wl.unit_list = keep(wl.unit_list)
    return wl


WORKLOAD_CUTS = {
    "check-q4": lambda units: [u for u in units if u[0] in ("clql", "comm", "heyting")],
    "check-qi3": lambda units: [u for u in units if u[0] in ("order", "pls")][:2],
    "lattice-q6": lambda units: units[:80],
    "cli-files": lambda units: units[:40],
}


def traced_pass(wl):
    t = tracer.Tracer()
    t.install()
    try:
        digests = run.run_pass(wl, wl.unit_list, tracer=t)[0]
    finally:
        t.remove()
    return t, digests


def test_self_time_and_hit_ratio_on_synthetic_spans():
    # root(0..10) > perp(1..4) > rref(2..3); root > perp(5..6); root > projector(7..9)
    names = ["root", "subspace.perp", "linalg.rref", "subspace.perp", "subspace.projector"]
    parents = [-1, 0, 1, 0, 0]
    durations = [10.0, 3.0, 1.0, 1.0, 2.0]
    stats = tracer.span_stats(names, parents, durations, [0.5, 0, 0, 0, 0])
    assert stats["root"] == [1, 10.0, 10.0 - 3.0 - 1.0 - 2.0 - 0.5]
    assert stats["subspace.perp"] == [2, 4.0, (3.0 - 1.0) + 1.0]
    assert stats["linalg.rref"] == [1, 1.0, 1.0]
    assert tracer.hit_ratio(names, parents, "subspace.perp") == 0.5
    assert tracer.hit_ratio(names, parents, "subspace.projector") == 1.0
    # An elimination below an intermediate span still makes a miss.
    deep = ["subspace.projector", "linalg.gram_projection", "linalg.rref"]
    assert tracer.hit_ratio(deep, [-1, 0, 1], "subspace.projector") == 0.0
    assert tracer.hit_ratio(deep, [-1, 0, 1], "subspace.perp") == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOAD_CUTS))
def test_tracing_changes_no_output_and_leaves_no_wrapper(name, tmp_path):
    wl = small(name, tmp_path / "a", WORKLOAD_CUTS[name])
    plain = run.run_pass(wl, wl.unit_list)[0]
    _, traced = traced_pass(wl)
    assert traced == plain
    assert tracer.leftover_wrappers() == []


def test_two_traced_runs_count_alike(tmp_path):
    def counts(sub):
        wl = small("cli-files", tmp_path / sub, WORKLOAD_CUTS["cli-files"])
        t, _ = traced_pass(wl)
        m = layers.metrics(t, {}, 0.0)
        return {k: v for k, v in m.items() if k.endswith((".calls", "_bits", ".cells"))}

    first, second = counts("a"), counts("b")
    assert first == second
    assert first["cli.load_instances.calls"][0] > 0


def test_check_q4_digest_matches_the_real_command(tmp_path):
    wl = workloads.CheckQ4()
    wl.setup(0, str(tmp_path))
    unit = next(u for u in wl.unit_list if u[0] == "comm")
    text, code = wl.run(unit)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "orthoql", *wl.argv(unit)], capture_output=True, env=env, check=True
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == run.digest(text)
    assert code == 0


def test_benchmark_json_lists_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = small("lattice-q6", tmp_path, lambda units: units[:5])
    t, _ = traced_pass(wl)
    per_layer = layers.metrics(t, {}, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, unit) for k, (_, unit) in per_layer.items()
    ]
    e2e = run.end_to_end([1.0], [1.0, 2.0], [0.1, 0.2, 0.3])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, unit) for k, (_, unit) in e2e.items()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
