"""Traced stand-in for ``python -m pointedcat.cli``.

Installs the span wrappers, runs ``pointedcat.cli.main(argv)`` and exits
with its code.  At exit it writes the process's span summary and the time
``import pointedcat.cli`` took to the JSON file named by $PERFBENCH_SPANS,
and the spans themselves next to it with the suffix ``.jsonl``.

    PERFBENCH_SPANS=out.json python perfbench/cli_launcher.py center double:Z3
"""

import json
import os
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    started = time.perf_counter()
    import pointedcat.cli as cli

    import_ms = (time.perf_counter() - started) * 1000.0
    rec = spans.Recorder()
    spans.install(rec)
    run = rec.wrap(spans.CLI_MAIN, cli.main)
    rec.enabled = True
    try:
        return run(sys.argv[1:])
    finally:
        rec.enabled = False
        summary = rec.summary()
        summary["cli.import_ms"] = import_ms
        path = Path(os.environ["PERFBENCH_SPANS"])
        path.write_text(json.dumps(summary), encoding="utf-8")
        rec.dump(path.with_suffix(".jsonl"))


if __name__ == "__main__":
    sys.exit(main())
