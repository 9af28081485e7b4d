"""pointedcat benchmark: one workload, timed in fresh interpreters.

    python3 perfbench/run.py --workload level1-doubles --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` with ``PYTHONPATH`` and nothing is built or installed.

A run is a closed loop with one client.  It starts ``worker.py`` for
``SETUP_RUNS`` set-up-only children, then for whole passes over the
workload's op list, one child at a time, until the next pass would end
more than ``--seconds`` after the first began (at least ``MIN_PASSES``).
Every child is a fresh interpreter with a fixed ``PYTHONHASHSEED``, so
pointedcat's ``lru_cache``s start empty, and its bytecode comes from a
cache under ``.perfbench_cache/``, warmed before timing.  An op that
overruns ``OP_BUDGET_S`` is killed and counted as failed; the run goes on
with its next pass.

With ``--trace 0`` the metrics are the end-to-end ones:

    setup_s        median over the set-up-only children of the time from
                   spawning one to its inputs being ready (pointedcat
                   imported, inputs generated)
    wall_s         time the op list takes: the sum over ops of each op's
                   median latency over the run's passes
    op_p50_ms      median over ops of each op's median latency
    op_p90_ms      p90 of the same, or the highest percentile with at least
                   ten ops beyond it (the record line says which)
    peak_rss_mib   median over passes of the child's ru_maxrss (for
                   cli-chain, the largest CLI process of the pass)

Every time is scaled to a reference core speed (``speed.py``): the worker
probes the core between every two ops, and the parent before and after
every set-up child, and each time is multiplied by ``speed.REFERENCE_MS``
over the probe time around it (see ``op_speeds``).  The host's other
tenants slow all work on a core alike, for seconds to minutes, and the
scaling takes that out; the run and its children are pinned to one core
so that the probes time the core the work runs on.  The raw
fastest-latency wall time and the median probe are printed in the record
line.

With ``--trace 1`` passes alternate between plain and traced (span
wrappers from ``spans.py``), and the metrics are the per-layer medians over
the traced passes (times scaled by each pass's median probe) plus
``trace.overhead_ratio``, traced ``wall_s`` over plain ``wall_s``.

Stdout ends with a ``{"record": ...}`` line (machine, seed, op counts,
failure ratio) and then the result object.  Every pass's raw latencies
and probes go to ``.perfbench_out/samples-<workload>-<seed>.json``.

The exit code is 1 when any op failed, timed out, or returned a result
that disagrees with its pinned digest or closed-form check, and 2 when the
checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("level1-doubles", "level2-battery", "cohomology-classify", "cli-chain")

SETUP_RUNS = 12
# Every op is measured at least this often, so its median has a choice even
# when one pass fills --seconds.
MIN_PASSES = 2
# An op that runs longer is killed and counted as a timeout.  The slowest
# op takes under 2 s on a 2-vCPU Intel Xeon VM.
OP_BUDGET_S = 30.0
# Time a child may take to set up, and between one op and the next.
GRACE_S = 30.0
# No pass goes on past this point, so a run always ends within 180 s.
HARD_CAP_S = 150.0


def child_env() -> dict:
    """The pinned environment of every child interpreter."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH", "PYTHONSTARTUP")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(CACHE / "pycache"))
    return env


@dataclass
class Pass:
    """What one child reported; ``errors`` holds (op key, reason)."""

    mode: str
    setup_s: float | None = None
    # Core speed probes taken by the parent before the spawn and after exit.
    spawn_probes: tuple[float, float] | None = None
    op_count: int = 0
    ops_ms: dict[str, float] = field(default_factory=dict)
    probes: dict[str, list[float]] = field(default_factory=dict)
    errors: list[tuple[str, str]] = field(default_factory=list)
    attempted: int = 0
    completed: bool = False
    wall_s: float | None = None
    rss_kib: int | None = None
    layers: dict | None = None
    duration_s: float = 0.0


def run_child(workload: str, seed: int, mode: str, hard_deadline: float, log) -> Pass:
    """Start one worker, follow its events, and kill it when an op overruns."""
    result = Pass(mode)
    before = speed.probe()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(OUT)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log,
        start_new_session=True,
    )
    fd = proc.stdout.fileno()
    deadline = spawned + GRACE_S
    current, current_start = None, 0.0
    buffer = b""
    try:
        while True:
            wait = min(deadline, hard_deadline) - time.monotonic()
            if wait <= 0:
                os.killpg(proc.pid, signal.SIGKILL)
                if current is None:
                    result.attempted += 1
                    result.errors.append(("-", "timeout outside an op"))
                else:
                    result.ops_ms[current] = (time.monotonic() - current_start) * 1000.0
                    result.errors.append((current, "timeout"))
                break
            if not select.select([fd], [], [], wait)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buffer += chunk
            *lines, buffer = buffer.split(b"\n")
            for line in lines:
                event = json.loads(line)
                now = time.monotonic()
                kind = event["ev"]
                if kind == "ready":
                    result.setup_s = event["t"] - spawned
                    result.op_count = event["ops"]
                elif kind == "start":
                    current, current_start = event["key"], now
                    result.attempted += 1
                    deadline = now + OP_BUDGET_S + GRACE_S / 6
                    continue
                elif kind == "op":
                    result.ops_ms[current] = event["ms"]
                    result.probes[current] = event["probes"]
                    if event["error"]:
                        result.errors.append((current, event["error"]))
                    current = None
                elif kind == "done":
                    result.completed = True
                    result.wall_s = event["wall_s"]
                    result.rss_kib = event["rss_kib"]
                    result.layers = event["layers"]
                deadline = now + GRACE_S
    finally:
        if proc.poll() is None:
            try:
                proc.wait(timeout=GRACE_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 and not result.errors:
        if current is not None:
            result.errors.append((current, f"worker exited with {proc.returncode}"))
        else:
            result.attempted += 1
            result.errors.append(("-", f"worker exited with {proc.returncode}"))
    if mode != "setup" and not result.completed and not result.errors:
        result.attempted += 1
        result.errors.append(("-", "worker ended without finishing its pass"))
    result.duration_s = time.monotonic() - spawned
    result.spawn_probes = (before, speed.probe())
    return result


def quantile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks; NaN for no values."""
    if not values:
        return math.nan
    xs = sorted(values)
    k = (len(xs) - 1) * p
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_level(n: int) -> float:
    """0.9, or the highest level with at least ten samples beyond it (not below 0.5)."""
    return max(0.5, min(0.9, 1.0 - 10.0 / n)) if n else 0.5


def warm_bytecode() -> None:
    """Compile pointedcat and the benchmark into the benchmark's bytecode cache."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "pointedcat"), str(HERE)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, check=True, timeout=120,
    )


def machine_record(workload: str, seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": source.hexdigest()[:16],
        "loadavg_1m": os.getloadavg()[0],
    }


def median_or_nan(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def probe_ms(p: Pass) -> float:
    """The median of the core-speed probes a pass took between its ops."""
    return median_or_nan(x for pair in p.probes.values() for x in pair)


def op_speeds(p: Pass) -> dict[str, float]:
    """Each op's probe time: the median of the four probes from the one before
    the op before it to the one after the op after it.

    A single probe lasts a few ms and catches or misses short bursts of other
    load; four of them, about an op to each side, read the core's speed over
    the op far more steadily.  An op killed at its time budget has no probe
    after it and is left out; the run is then failed anyway.
    """
    keys = list(p.probes)
    if not keys:
        return {}
    seq = [p.probes[keys[0]][0]] + [p.probes[key][1] for key in keys]
    return {key: statistics.median(seq[max(0, i - 1):i + 3]) for i, key in enumerate(keys)}


def op_latencies(passes: list[Pass]) -> dict[str, float]:
    """Each op's median latency over ``passes``, scaled to reference speed, in ms."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for key, probe in op_speeds(p).items():
            samples.setdefault(key, []).append(speed.scale(p.ops_ms[key], probe))
    return {key: statistics.median(values) for key, values in samples.items()}


def end_to_end(setups: list[float], plain: list[Pass]) -> tuple[dict, dict]:
    latencies = list(op_latencies(plain).values())
    rss = [p.rss_kib for p in plain if p.rss_kib is not None]
    level = tail_level(len(latencies))
    fastest: dict[str, float] = {}
    for p in plain:
        for key, ms in p.ops_ms.items():
            fastest[key] = min(ms, fastest.get(key, math.inf))
    metrics = {
        "setup_s": (median_or_nan(setups), "s"),
        "wall_s": (sum(latencies) / 1000.0, "s"),
        "op_p50_ms": (quantile(latencies, 0.5), "ms"),
        "op_p90_ms": (quantile(latencies, level), "ms"),
        "peak_rss_mib": (median_or_nan(rss) / 1024.0, "MiB"),
    }
    extra = {"op_samples": len(latencies), "op_tail_level": level,
             "passes": len(plain), "pass_wall_s": [p.wall_s for p in plain],
             "raw_fastest_wall_s": sum(fastest.values()) / 1000.0,
             "probe_ms_median": median_or_nan(probe_ms(p) for p in plain),
             "setup_samples": len(setups)}
    return metrics, extra


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict:
    samples: dict[str, list[float]] = {}
    for p in traced:
        factor = speed.REFERENCE_MS / probe_ms(p)
        layers = {name: value * factor if name.endswith("_ms") else value
                  for name, value in p.layers.items()}
        found = layers.pop("cocycles.find_mu.found")
        calls = layers["cocycles.find_mu.calls"]
        layers["cocycles.find_mu.found_ratio"] = found / calls if calls else 0.0
        for name, value in layers.items():
            samples.setdefault(name, []).append(value)
    metrics = {name: (statistics.median(values), unit_of(name))
               for name, values in samples.items()}
    plain_wall = sum(op_latencies(plain).values())
    traced_wall = sum(op_latencies(traced).values())
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pointedcat" / "__init__.py").is_file():
        print(f"perfbench: no pointedcat sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    # The run and every process it starts share one core, so the speed
    # probes time the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record = machine_record(args.workload, args.seed)
    cores = record["nproc"] or 1
    # A run keeps one core busy, so back-to-back runs alone hold the load
    # near 1; more than that means other work shares the cores.
    if record["loadavg_1m"] > cores - 0.5:
        print(f"perfbench: warning: load average {record['loadavg_1m']:.2f} on {cores} "
              "cores; other work is running and timings will be noisy", file=sys.stderr)
    warm_bytecode()

    started = time.monotonic()
    hard_deadline = started + HARD_CAP_S
    with open(OUT / "worker.log", "a", encoding="utf-8") as log:
        setup_runs = [run_child(args.workload, args.seed, "setup", hard_deadline, log)
                      for _ in range(SETUP_RUNS)]
        measuring = time.monotonic()
        passes: list[Pass] = []
        while time.monotonic() < hard_deadline:
            mode = "traced" if args.trace and len(passes) % 2 == 1 else "pass"
            if len(passes) >= MIN_PASSES:
                estimate = statistics.median(p.duration_s for p in passes)
                if time.monotonic() - measuring + estimate > args.seconds:
                    break
            passes.append(run_child(args.workload, args.seed, mode, hard_deadline, log))

    everything = setup_runs + passes
    with open(OUT / f"samples-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as handle:
        json.dump([{"mode": p.mode, "ops_ms": p.ops_ms, "probes": p.probes} for p in passes], handle)
    plain = [p for p in passes if p.mode == "pass"]
    traced = [p for p in passes if p.mode == "traced"]
    setups = [speed.scale(p.setup_s, statistics.mean(p.spawn_probes))
              for p in setup_runs if p.setup_s is not None]
    errors = [e for p in everything for e in p.errors]
    attempted = sum(p.attempted for p in everything)
    correct = not errors and all(p.completed for p in passes) and bool(plain)
    if args.trace and not (traced and all(p.completed for p in traced)):
        correct = False

    metrics, extra = end_to_end(setups, plain)
    if args.trace:
        metrics = per_layer(plain, traced) if plain and traced and all(
            p.completed for p in plain + traced) else {}
    record.update(extra)
    record.update(attempted=attempted, failed=len(errors),
                  fail_ratio=len(errors) / attempted if attempted else 0.0,
                  ops_per_pass=max((p.op_count for p in everything), default=0),
                  traced_passes=len(traced))
    for key, reason in errors[:20]:
        print(f"perfbench: op {key} failed: {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'fail_ratio':40s} {record['fail_ratio']:14.6g} failed/attempted "
          f"(base {attempted})")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": len(errors) if attempted else 1,
        "metrics": {name: {"value": None if math.isnan(value) else value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
