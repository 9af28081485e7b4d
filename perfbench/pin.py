"""Recompute ``digests.json``: the digest of every op any seed can generate.

    python3 perfbench/pin.py

Run it only on a commit whose results are trusted (the pins were taken at
commit 5bebd5a); a later change to pointedcat must reproduce them.  Every
op must also pass its closed-form check, or nothing is written.
"""

import itertools
import json
import os
import shutil
import sys

import run

os.environ.update(run.child_env())
sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def main() -> int:
    workdir = run.OUT / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    ops = itertools.chain(workloads.level1_all(), workloads.level2_all(),
                          workloads.classify_all(), workloads.cli_all(workdir))
    digests, failures = {}, []
    for op in ops:  # lazily: a file-backed op runs while its own files exist
        value = op.reduce(op.run())
        problem = op.check(value)
        if problem:
            failures.append(f"{op.key}: {problem}")
        got = workloads.digest(value)
        if digests.setdefault(op.key, got) != got:
            failures.append(f"{op.key}: two inputs with one key disagree")
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        return 1
    with open(workloads.DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(digests.items())), handle, indent=1)
        handle.write("\n")
    print(f"pinned {len(digests)} digests in {workloads.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
