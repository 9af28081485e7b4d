"""Every benchmark op still gives the result pinned in perfbench/digests.json.

perfbench/workloads.py lists every op any seed can make and pins the digest
of each one's reduced result; ``workloads.verify`` compares a result with
its pin and with the op's closed-form check.  This runs every op once,
in process for the library workloads and as subprocesses for the CLI ones,
so a change that moves a pinned result fails here and not only in a
benchmark run.  perfbench/ is imported without writing bytecode, and
nothing under it is written: the CLI ops write their files under tmp_path.
"""

import importlib
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


def _cold(workloads):
    for module_name, attr in workloads.COLD_CACHES:
        getattr(sys.modules[module_name], attr).cache_clear()


@pytest.mark.parametrize("name", ["level1_all", "level2_all", "classify_all", "cli_all"])
def test_every_op_matches_its_pinned_digest(workloads, name, tmp_path, monkeypatch):
    # the CLI ops start ``python -m pointedcat.cli`` with this environment
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(p for p in (str(ROOT / "src"), path) if p))
    pinned = workloads.load_digests()
    ops = workloads.cli_all(tmp_path) if name == "cli_all" else getattr(workloads, name)()
    _cold(workloads)
    problems, count = [], 0
    try:
        for op in ops:  # lazily: a file-backed CLI op runs while its files exist
            problems.append(workloads.verify(op, op.run(), pinned))
            count += 1
    finally:
        _cold(workloads)
    assert count and [p for p in problems if p] == []
