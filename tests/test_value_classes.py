"""The hand-written frozen value classes keep the contract of the generated
classes they replaced, and the CLI starts without the class generator.

``dataclasses`` appears here only as the oracle: each sample's repr and
field-wise hash are compared with those of a generated frozen class holding
the same field values.
"""

import copy
import dataclasses
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import pointedcat.cli  # noqa: F401  (every module, so every value class)
from pointedcat import battery, brmod, cocycles, cyclotomic, groups, metric
from pointedcat._value import Value, replace
from pointedcat.cyclotomic import ONE, root_of_unity
from pointedcat.errors import InvalidQuadraticForm, NotSubgroup, ParseError

SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_cli_imports_no_class_generator():
    """``import pointedcat.cli`` brings in neither ``dataclasses`` nor the
    ``inspect`` it imports; a work check, not a timing."""
    code = (
        "import sys; before = set(sys.modules); import pointedcat.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    assert proc.stdout.strip() == "[]"


IMPORT_BUDGET = ("hashlib", "_hashlib", "_sha256", "_sha2", "fractions", "decimal", "numbers")


def test_the_cli_imports_neither_openssl_nor_fractions():
    """``import pointedcat.cli`` loads none of the budget modules.  A report's
    digest loads only the built-in sha256 module where the interpreter has
    one (else ``hashlib``), and integer commands no ``fractions``; the
    battery divides, and loads it then."""
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "new = lambda: sorted(set(sys.modules) - before)\n"
        "import pointedcat.cli\n"
        "seen = {'import': new()}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [pointedcat.cli.main(['center', 'double:Z3', '--json']),\n"
        "             pointedcat.cli.main(['tmatrix', 'semion', '--json'])]\n"
        "    seen['commands'] = new()\n"
        "    codes.append(pointedcat.cli.main(['battery', '--json']))\n"
        "seen['battery'] = new()\n"
        "print(json.dumps({'codes': codes, **seen}))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=True)
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0, 0, 0]
    assert not set(IMPORT_BUDGET) & set(seen["import"])
    assert not {"fractions", "decimal", "numbers"} & set(seen["commands"])
    assert "fractions" in seen["battery"]
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
        assert {"_sha256", "_sha2"} & set(seen["commands"])
        assert {"hashlib", "_hashlib"}.isdisjoint(seen["commands"] + seen["battery"])


def _symmetric(literal: str, label: str) -> metric.PointedBFC:
    group = groups.parse_group(literal)
    return metric.make_category(cocycles.QuadraticForm(group, (ONE,) * group.order), label=label)


def _samples():
    """One instance of each value class, by class name."""
    g = groups.parse_group("Z4xZ2")
    sub = groups.subgroup_generated(g, [(2, 0)])
    semion = metric.preset("semion")
    base = _symmetric("Z2", "value sample")
    classes = brmod.schur_classes(base)
    svect = metric.preset("svect")
    mu = brmod.build_module_cat(svect, groups.full_subgroup(svect.group),
                                groups.characters(svect.group)[0]).mu
    summary = battery.run_all(battery.default_cases()[:1], include_global=False)
    return {
        "RootOfUnity": root_of_unity(8, 3),
        "CycloNumber": cyclotomic.embed(root_of_unity(4, 1), 4),
        "CycloMatrix": cyclotomic.CycloMatrix.identity(2),
        "AbelianGroup": g,
        "Subgroup": sub,
        "Quotient": groups.quotient(g, sub),
        "Presentation": groups.cyclic_presentation(sub),
        "Character": groups.characters(g)[3],
        "AbelianCocycle": semion.cocycle,
        "TwoCochain": mu,
        "QuadraticForm": semion.form,
        "CocycleClass": cocycles.classify_h3ab(groups.parse_group("Z2"), 2)[0],
        "PointedBFC": semion,
        "SMatrix1": metric.smatrix1(semion),
        "CenterReport": metric.detect_center(metric.preset("toric")),
        "BraidedModuleCat": classes[1].representative,
        "SchurClass": classes[1].schur,
        "ClassRep": classes[1],
        "SMatrix2": brmod.smatrix2(base),
        "Pi0Report": brmod.pi0_report(base),
        "BatteryCase": battery.default_cases()[0],
        "BatteryRow": summary.rows[0],
        "BatterySummary": summary,
    }


SAMPLES = _samples()
# equal only to themselves
IDENTITY_EQ = {"SMatrix1", "SMatrix2"}
# equality promotes conductors, so no hash
UNHASHABLE = {"CycloNumber", "CycloMatrix"}
# the hash is kept from construction; it still agrees with equality
KEPT_HASH = {"AbelianCocycle", "QuadraticForm", "PointedBFC"}
# a dict field makes the field-wise hash fail, as it did before
DICT_FIELDS = {"Quotient", "Presentation"}


def _oracle(obj):
    """A generated frozen class of the same name holding obj's field values."""
    cls = dataclasses.make_dataclass(type(obj).__name__, obj._fields, frozen=True)
    return cls(*(getattr(obj, name) for name in obj._fields))


def test_every_value_class_is_sampled():
    assert {cls.__name__ for cls in Value.__subclasses__()} == set(SAMPLES)
    assert len(SAMPLES) == 23
    assert all(type(obj).__name__ == name for name, obj in SAMPLES.items())


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_are_frozen(name):
    obj = SAMPLES[name]
    for field in obj._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(obj, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_repr_is_the_generated_text(name):
    obj = SAMPLES[name]
    if name == "CycloNumber":  # its own repr, as before
        assert repr(obj) == "CycloNumber(4, ['0', '1'])"
    else:
        assert repr(obj) == repr(_oracle(obj))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_fields_compare_and_hash_equal(name):
    obj = SAMPLES[name]
    rebuilt = replace(obj)
    assert rebuilt is not obj and obj == obj
    assert obj != tuple(getattr(obj, field) for field in obj._fields)
    assert obj != _oracle(obj)
    restored = [pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)]
    assert all(type(r) is type(obj) and repr(r) == repr(obj) for r in restored)
    if name in IDENTITY_EQ:
        assert rebuilt != obj and hash(obj) != hash(rebuilt)
        return
    assert rebuilt == obj and not rebuilt != obj
    assert all(r == obj for r in restored)
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    elif name in DICT_FIELDS:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(obj)
    elif name in KEPT_HASH:
        assert hash(rebuilt) == hash(obj)
    else:
        assert hash(rebuilt) == hash(obj) == hash(_oracle(obj))


def test_unequal_fields_compare_unequal():
    assert root_of_unity(8, 3) != root_of_unity(8, 5)
    assert groups.parse_group("Z4") != groups.parse_group("Z2xZ2")
    z2 = groups.parse_group("Z2")
    assert groups.full_subgroup(z2) != groups.trivial_subgroup(z2)
    assert metric.preset("semion") != metric.preset("semion-bar")
    assert replace(SAMPLES["BatteryRow"], passed=False) != SAMPLES["BatteryRow"]


def test_replace_runs_the_checks_again():
    with pytest.raises(ParseError, match="root of unity out of range: z4\\^4"):
        replace(root_of_unity(4, 1), exponent=4)
    with pytest.raises(ParseError, match="not in canonical form: z4\\^2"):
        replace(root_of_unity(4, 1), exponent=2)
    with pytest.raises(ParseError, match="invalid cyclic factors"):
        replace(SAMPLES["AbelianGroup"], factors=(4, 0))
    with pytest.raises(NotSubgroup, match="negation"):
        replace(SAMPLES["Subgroup"], elements=((0, 0), (1, 0)))
    form = SAMPLES["QuadraticForm"]
    with pytest.raises(InvalidQuadraticForm, match="q\\(0\\) must be 1"):
        replace(form, values=tuple(reversed(form.values)))
    with pytest.raises(TypeError):
        replace(root_of_unity(4, 1), degree=2)
    assert replace(root_of_unity(4, 1), exponent=3) == root_of_unity(4, 3)
    c = SAMPLES["AbelianCocycle"]
    doubled = replace(c, conductor=2 * c.conductor, psi_exp=[2 * k for k in c.psi_exp],
                      omega_exp=[2 * k for k in c.omega_exp])
    assert doubled == c and hash(doubled) == hash(c) and doubled._results == {}
