"""The orthoql benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload check-q4 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

A run sets the workload up from its seed, then repeats timed passes over
the workload's units until ``--seconds`` have gone by.  A workload whose
units share caches (lattice-q6) first runs one untimed pass to fill
them.  Every pass must reproduce the first pass's output digests, every
unit must end as expected, the first pass must match the recorded
golden digest where one exists for the seed, and the workload's oracle
check must pass; otherwise the result reads ``"correct": false`` and
the exit code is 1.  Times are in reference seconds (see calibrate.py).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` the run makes one timed untraced pass, then one
traced pass of the same units, and the last line holds the per-layer
metrics.  The tracer is only imported in traced runs.

Each run also writes its full record, stamped with the environment, to
``perfbench/out/`` (and, when traced, the raw spans).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import ReferenceClock, timed_in_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pass_digest(unit_digests) -> str:
    return digest("\n".join(d or "-" for d in unit_digests))


def run_pass(workload, units, reference=None, tracer=None, clock=None):
    """Run every unit once; return (unit digests, units whose outcome was
    wrong, units whose digest differs from ``reference``).  With a
    ``clock``, each unit's interval is recorded on it."""
    digests, wrong, changed = [], set(), set()
    now = time.perf_counter
    for i, unit in enumerate(units):
        if clock is not None:
            clock.tick()
        if tracer is not None:
            tracer.suite = workload.suite_of(unit)
        t0 = now()
        text, outcome = workload.run(unit)
        if clock is not None:
            clock.record(t0, now() - t0)
        d = None if text is None else digest(text)
        digests.append(d)
        if not workload.expected(unit, text, outcome):
            wrong.add(i)
        if reference is not None and d != reference[i]:
            changed.add(i)
    return digests, wrong, changed


def golden(workload: str, seed: int):
    table = json.loads((HERE / "golden.json").read_text())
    return table.get(workload, {}).get(str(seed))


def environment(seed: int) -> dict:
    import orthoql

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": platform.python_version(),
        "backend": getattr(orthoql, "BACKEND", None),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def probe_setup(name: str, seed: int, count: int) -> list[float]:
    """Set-up reference seconds measured in ``count`` fresh interpreters,
    one at a time."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup, passes, latencies) -> dict:
    total = sum(passes)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "units_per_s": (len(latencies) / total, "1/s"),
        "unit_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "unit_p90_ms": (quantile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure(workload, units, reference, seconds: float):
    """Timed passes until ``seconds`` have gone by; return pass times in
    reference and in measured seconds, unit latencies in reference
    seconds, the unit digests, and the wrong and changed units.  Without
    a ``reference`` the first timed pass becomes it."""
    clock = ReferenceClock()
    wrong, changed, count = set(), set(), 0
    gc.collect()
    start = time.perf_counter()
    while not count or time.perf_counter() - start < seconds:
        digests, w, c = run_pass(workload, units, reference, clock=clock)
        reference = reference or digests
        count += 1
        wrong |= w
        changed |= c
    clock.tick(force=True)
    latencies = clock.converted()
    n = len(units)
    passes = [sum(latencies[k * n : (k + 1) * n]) for k in range(count)]
    raw = [sum(s for _, s in clock.intervals[k * n : (k + 1) * n]) for k in range(count)]
    return passes, raw, latencies, reference, wrong, changed


def traced(workload, units, reference, out_stem: Path):
    """One timed untraced pass, then the same units traced; return the
    per-layer metrics, the unit digests, and the wrong and changed units."""
    import layers
    from tracer import Tracer

    clock = ReferenceClock()
    gc.collect()
    digests, wrong, changed = run_pass(workload, units, reference, clock=clock)
    reference = reference or digests
    tracer = Tracer()
    tracer.install()
    try:
        gc.collect()
        _, w, c = run_pass(workload, units, reference, tracer, clock)
    finally:
        tracer.remove()
    clock.tick(force=True)
    n = len(units)
    latencies = clock.converted()
    plain_s, traced_s = sum(latencies[:n]), sum(latencies[n:])
    raw_traced_s = sum(seconds for _, seconds in clock.intervals[n:])
    suite_wall = {}
    for unit, seconds in zip(units, latencies[n:]):
        suite = workload.suite_of(unit)
        if suite is not None:
            suite_wall[suite] = suite_wall.get(suite, 0.0) + seconds
    tracer.write_spans(out_stem.with_suffix(".spans"))
    metrics = layers.metrics(tracer, suite_wall, traced_s / plain_s - 1, traced_s / raw_traced_s)
    return metrics, reference, wrong | w, changed | c


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="orthoql benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orthoql" / "__init__.py").is_file():
        sys.stderr.write(f"error: the orthoql sources are missing ({SRC / 'orthoql'})\n")
        return 2
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setup = [timed_in_reference(lambda: workload.setup(args.seed, workdir))]
        units = workload.unit_list
        # Only workloads whose units share caches need an untimed pass first.
        reference, wrong = None, set()
        if workload.warmup:
            reference, wrong, _ = run_pass(workload, units)
        stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, reference, w, changed = traced(workload, units, reference, stem)
        else:
            setup += probe_setup(workload.name, args.seed, SETUP_PROBES)
            passes, raw_passes, latencies, reference, w, changed = measure(
                workload, units, reference, args.seconds
            )
            metrics = end_to_end(setup, passes, latencies)
        problems = workload.verify()
    wrong |= w

    expected_digest = golden(workload.name, args.seed)
    actual_digest = pass_digest(reference)
    if expected_digest is not None and expected_digest != actual_digest:
        problems.append(f"output digest {actual_digest} differs from the golden {expected_digest}")
    if changed:
        problems.append(f"{len(changed)} units changed output between passes")
    # A well-formed unit that ends wrongly is a wrong answer; a malformed
    # one that misses the exit-2 contract is a failed unit only.
    digested = [i for i in wrong if reference[i] is not None]
    if digested:
        problems.append(f"{len(digested)} well-formed units ended wrongly")
    correct = not problems

    record = {
        "workload": workload.name,
        "env": environment(args.seed),
        "units": len(units),
        "failed_units": sorted(wrong),
        "failed_frac": len(wrong) / len(units),
        "pass_digest": actual_digest,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not args.trace:
        record["samples"] = len(latencies)
        record["pass_s"] = passes
        record["measured_pass_s"] = raw_passes
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")

    for problem in problems:
        print(f"problem: {problem}")
    print(f"env: {json.dumps(record['env'])}")
    print(f"{workload.name}: units={len(units)} failed_frac={record['failed_frac']:.4f}"
          + (f" samples={len(latencies)} passes={len(passes)}" if not args.trace else "")
          + f" digest={actual_digest[:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": len(units),
        "failed": len(wrong),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, names) -> int:
    """Run every workload in its own process and print each one's lines."""
    worst = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
