"""One pass of a workload in a fresh interpreter.

    python perfbench/worker.py WORKLOAD SEED MODE OUTDIR

MODE is ``setup`` (set up, report, exit), ``pass`` (set up, then run every
op once) or ``traced`` (a pass with span wrappers installed).  The worker
writes one JSON event per line to stdout:

    {"ev": "ready", "t": <time.monotonic() when set-up ended>, "ops": 31}
    {"ev": "start", "key": "level1|rank|Z5"}     before each op
    {"ev": "op", "ms": 12.5, "probes": [4.6, 4.5], "error": null}   after it
    {"ev": "done", "wall_s": ..., "rss_kib": ..., "layers": {...} | null}

``error`` is null when the op returned and its result matched its pinned
digest and closed-form check.  ``probes`` are the core-speed probes
(``speed.probe``, ms) taken just before and just after the op.  The parent enforces the per-op time budget
by killing the worker.
"""

import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
import speed


def emit(**event) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def main() -> int:
    workload, seed, mode, outdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    started = time.perf_counter()
    import pointedcat.cli  # noqa: F401  (the whole package, as the CLI loads it)

    cli_import_ms = (time.perf_counter() - started) * 1000.0
    import workloads

    workdir = outdir / f"{workload}-{mode}"
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.build(workload, seed, workdir)
    pinned = workloads.load_digests()
    emit(ev="ready", t=time.monotonic(), ops=len(ops))
    if mode == "setup":
        return 0

    for module_name, attr in workloads.COLD_CACHES:
        if getattr(sys.modules[module_name], attr).cache_info().currsize != 0:
            raise RuntimeError(f"{module_name}.{attr} cache is warm before the first op")

    traced = mode == "traced"
    rec = spans.Recorder()
    if traced:
        spans.install(rec)
    workloads.CLI.traced = traced
    workloads.CLI.spans_dir = workdir
    wall = 0.0
    gc.collect()
    probe = speed.probe()
    for op in ops:
        emit(ev="start", key=op.key)
        rec.enabled = traced
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        rec.enabled = False
        wall += elapsed
        if error is None:
            error = workloads.verify(op, result, pinned)
        del result
        # Start every op from a collected heap, so its cost does not depend
        # on the garbage the (seeded) ops before it left behind, and probe
        # the core's speed between every two ops.
        gc.collect()
        before, probe = probe, speed.probe()
        emit(ev="op", ms=elapsed * 1000.0, probes=[before, probe], error=error)

    layers = None
    if traced:
        layers = _layers(rec, workload, workdir, cli_import_ms, workloads.CLI.process_ms)
        rec.dump(outdir / f"spans-{workload}.jsonl")
    who = resource.RUSAGE_CHILDREN if workload == "cli-chain" else resource.RUSAGE_SELF
    emit(ev="done", wall_s=wall, rss_kib=resource.getrusage(who).ru_maxrss, layers=layers)
    return 0


def _layers(rec, workload: str, workdir: Path, cli_import_ms: float,
            process_ms: list[float]) -> dict:
    """Per-layer totals of this pass; for cli-chain, summed over the CLI processes."""
    if workload != "cli-chain":
        layers = rec.summary()
        layers["cli.import_ms"] = cli_import_ms
        layers["cli.process_ms"] = 0.0
        return layers
    layers: dict = {}
    imports = []
    for path in sorted(workdir.glob("cli-*.json")):
        part = json.loads(path.read_text(encoding="utf-8"))
        imports.append(part.pop("cli.import_ms"))
        spans.add(layers, part)
    layers["cli.import_ms"] = statistics.median(imports)
    layers["cli.process_ms"] = statistics.median(process_ms)
    return layers


if __name__ == "__main__":
    sys.exit(main())
