"""The benchmark's tracer and cache checks must still find what they name.

perfbench/spans.py wraps the functions in its TARGETS table and
perfbench/workloads.py asserts the caches in COLD_CACHES are empty before a
pass.  Both tables are read from the source with ast, so nothing under
perfbench/ is imported or written; a refactor that renames or removes one
of these names fails here instead of in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _table(filename: str, name: str):
    tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in perfbench/{filename}")


def test_every_span_target_resolves():
    targets = _table("spans.py", "TARGETS")
    assert targets
    for metric, module_name, owner, attr in targets:
        module = importlib.import_module(module_name)
        if owner is None:
            assert callable(getattr(module, attr, None)), metric
        else:
            # spans.install wraps the function found in the class __dict__
            assert callable(vars(getattr(module, owner)).get(attr)), metric


def test_every_cold_cache_is_an_lru_cache():
    caches = _table("workloads.py", "COLD_CACHES")
    assert caches
    for module_name, attr in caches:
        fn = getattr(importlib.import_module(module_name), attr)
        assert hasattr(fn, "cache_info"), f"{module_name}.{attr}"


def test_rank_counter_reads_an_integer_row_count():
    """spans.py's counter for cyclotomic.rank.max_dim reads ``.rows`` of the
    ranked CycloMatrix; a root table, kept as exponents, must still carry
    it as an int without building its entries."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    (note,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_note_rank"]
    assert "rows" in {n.attr for n in ast.walk(note) if isinstance(n, ast.Attribute)}
    from pointedcat.cyclotomic import CycloMatrix, root_of_unity

    matrix = CycloMatrix.from_roots([[root_of_unity(4, k) for k in range(4)]] * 3)
    assert type(matrix.rows) is int and matrix.rows == 3
    assert matrix.exponents is not None and matrix._entries is None
