"""JSON formats and literal syntax shared by the CLI and file inputs.

Category files are JSON objects with a "group" literal and one of:
  * "q": {element: root literal, ...}          direct quadratic form
  * "q_gen": [...] with optional "pairings"    generator form
  * "psi"/"omega" tables                       explicit cocycle
Elements are written "(1,0)" (bare "1" for rank-one groups) in keys and as
integer arrays in emitted JSON; roots of unity use the "zN^k" literal with
"1" and "-1" as aliases.  Omitted table entries default to 1.
"""

from __future__ import annotations

import itertools
import json
import re

from .cyclotomic import ONE, format_root, parse_int, parse_root, roots_of_unity
from .errors import ParseError, ValidationError
from .groups import AbelianGroup, Element, format_group, parse_group
from .cocycles import (
    AbelianCocycle,
    QuadraticForm,
    cocycle_failure,
    cocycle_from_tables,
    form_from_generators,
    trace_form,
)
from .metric import PointedBFC, make_category, preset, preset_names

_PAREN = re.compile(r"\(([^()]*)\)")


def format_element_key(g: Element) -> str:
    if len(g) == 1:
        return str(g[0])
    return "(" + ",".join(str(c) for c in g) + ")"


def _parse_args(text: str, group: AbelianGroup, count: int) -> tuple[Element, ...]:
    s = text.strip()
    parts = _PAREN.findall(s) if "(" in s else s.split(",")
    if len(parts) != count:
        raise ParseError(f"key {text!r} should list {count} element(s)")
    out = []
    for part in parts:
        try:
            coords = tuple(parse_int(c.strip()) for c in part.split(","))
        except ValueError as exc:
            raise ParseError(f"bad element {part!r} in key {text!r}") from exc
        if len(coords) != group.rank:
            raise ParseError(
                f"element {part!r} has {len(coords)} coordinates, expected {group.rank}"
            )
        out.append(group.reduce(coords))
    return tuple(out)


def _object(raw, what: str) -> dict:
    if not isinstance(raw, dict):
        raise ParseError(f"{what} must be a JSON object, got {type(raw).__name__}")
    return raw


def _claim(keys: dict, slot, key: str, name: str):
    """``slot``, recorded as named by ``key`` of table ``name``; two keys may not."""
    if slot in keys:
        raise ParseError(f"{name} keys {keys[slot]!r} and {key!r} name the same entry")
    keys[slot] = key
    return slot


def _root_table(raw: dict, group: AbelianGroup, arity: int) -> dict:
    table, keys = {}, {}
    name = ('"q"', '"omega"', '"psi"')[arity - 1]
    for key, literal in _object(raw, name).items():
        args = _parse_args(key, group, arity)
        table[_claim(keys, args if arity > 1 else args[0], key, name)] = parse_root(str(literal))
    return table


# ----------------------------------------------------------------------
# Quadratic forms and cocycles.
# ----------------------------------------------------------------------

def qf_from_json(data: dict, group: AbelianGroup) -> QuadraticForm:
    if "q" in data:
        table = _root_table(data["q"], group, 1)
        values = tuple(table.get(g, ONE) for g in group.elements())
        return QuadraticForm(group, values)
    if "q_gen" in data:
        if not isinstance(data["q_gen"], list):
            raise ParseError('"q_gen" must be a JSON array of root literals')
        gens = [parse_root(str(v)) for v in data["q_gen"]]
        if len(gens) != group.rank:
            raise ParseError(
                f"q_gen lists {len(gens)} values for {group.rank} cyclic factors"
            )
        pairings, keys = {}, {}
        for key, literal in _object(data.get("pairings", {}), '"pairings"').items():
            try:
                i, j = (parse_int(p.strip()) for p in key.split(","))
            except ValueError as exc:
                raise ParseError(f"bad pairing key {key!r}") from exc
            if not 0 <= i < j < group.rank:
                raise ParseError(f"pairing key {key!r} out of range")
            pairings[_claim(keys, (i, j), key, '"pairings"')] = parse_root(str(literal))
        return form_from_generators(group, gens, pairings)
    raise ParseError('quadratic form JSON needs a "q" or "q_gen" entry')


def qf_to_json(form: QuadraticForm) -> dict:
    group = form.group
    return {
        "group": format_group(group),
        "q": {
            format_element_key(g): format_root(form.q(g))
            for g in group.elements()
            if not form.q(g).is_one
        },
    }


def cocycle_from_json(data: dict, group: AbelianGroup, validate: bool = True) -> AbelianCocycle:
    psi = _root_table(data.get("psi", {}), group, 3)
    omega = _root_table(data.get("omega", {}), group, 2)
    cocycle = cocycle_from_tables(group, psi, omega)
    if validate:
        failure = cocycle_failure(cocycle)
        if failure is not None:
            raise ValidationError(
                f"cocycle violates the {failure[0]} condition at {failure[1]}"
            )
    return cocycle


def raw_cocycle_from_source(source: str, stdin_text: str | None = None):
    """Cocycle tables without the validity gate, for diagnostic commands.

    Returns (label, cocycle or None).  Presets hand over their own (valid)
    cocycle; files and stdin are parsed but deliberately not validated.
    """
    name = source.strip()
    if _is_preset(name):
        cat = preset(name)
        return cat.label, cat.cocycle
    payload = _category_payload(_read_json(name, stdin_text))
    group = parse_group(str(payload["group"]))
    label = str(payload.get("label", ""))
    if "psi" not in payload and "omega" not in payload:
        return label, None
    return label, cocycle_from_json(payload, group, validate=False)


def cocycle_to_json(cocycle: AbelianCocycle) -> dict:
    """The entries other than 1, from the exponents, keyed in element-index order."""
    keys = [format_element_key(g) for g in cocycle.group.elements()]
    roots = roots_of_unity(cocycle.conductor)
    out = {"group": format_group(cocycle.group)}
    for name, exps, arity in (("psi", cocycle.psi_exp, 3), ("omega", cocycle.omega_exp, 2)):
        slots = itertools.product(keys, repeat=arity)
        out[name] = {",".join(s): format_root(roots[k]) for s, k in zip(slots, exps) if k}
    return out


# ----------------------------------------------------------------------
# Categories.
# ----------------------------------------------------------------------

def _category_payload(data):
    """Find the category object: the JSON itself, or one nested in a run report."""
    if not isinstance(data, dict):
        raise ParseError("category JSON must be an object")
    nested = data.get("category")
    if isinstance(nested, dict) and "group" in nested:
        return nested
    if isinstance(data.get("results"), dict):
        return _category_payload(data["results"])
    if "group" in data:
        return data
    raise ParseError('category JSON needs a "group" literal')


def category_from_json(data: dict) -> PointedBFC:
    payload = _category_payload(data)
    group = parse_group(str(payload["group"]))
    label = str(payload.get("label", ""))
    has_tables = "psi" in payload or "omega" in payload
    cocycle = cocycle_from_json(payload, group) if has_tables else None
    if "q" in payload or "q_gen" in payload:
        form = qf_from_json(payload, group)
    elif cocycle is not None:
        form = trace_form(cocycle)
    else:
        raise ParseError('category JSON needs "q", "q_gen" or cocycle tables')
    return make_category(form, cocycle, label)


def category_to_json(category: PointedBFC) -> dict:
    out = {"label": category.label}
    out.update(qf_to_json(category.form))
    if category.cocycle is not None:
        tables = cocycle_to_json(category.cocycle)
        out["psi"] = tables["psi"]
        out["omega"] = tables["omega"]
    return out


def _is_preset(name: str) -> bool:
    return name.lower() in preset_names() or name.lower().startswith("double:")


def _read_json(name: str, stdin_text: str | None):
    """The JSON value of a category argument that is not a preset: "-" for
    stdin, else a UTF-8 file path.  Every read, decode or nesting failure is a ParseError."""
    if name == "-":
        if stdin_text is None:
            raise ParseError("no data on stdin for category '-'")
        try:
            return json.loads(stdin_text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"stdin is not valid JSON: {exc}") from exc
    try:
        with open(name, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParseError(
            f"{name!r} is neither a preset ({', '.join(preset_names())}, "
            f"double:<group>) nor a readable file"
        ) from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"{name!r} is not valid JSON: {exc}") from exc


def source_group(source: str, stdin_text: str | None = None) -> AbelianGroup:
    """The group of a category argument, found without building the category:
    G x G for "double:<G>", else the preset's group or the JSON's "group"."""
    name = source.strip()
    if name.lower().startswith("double:"):
        return AbelianGroup(parse_group(name[len("double:"):]).factors * 2)
    if _is_preset(name):
        return preset(name).group
    return parse_group(str(_category_payload(_read_json(name, stdin_text))["group"]))


def load_category(source: str, stdin_text: str | None = None) -> PointedBFC:
    """Resolve a category argument: preset name, "-" for stdin, or a JSON file."""
    name = source.strip()
    if _is_preset(name):
        return preset(name)
    return category_from_json(_read_json(name, stdin_text))


# ----------------------------------------------------------------------
# Report fragments.
# ----------------------------------------------------------------------

def element_array(g: Element) -> list[int]:
    return list(g)


def matrix_strings(roots) -> list[list[str]]:
    return [[format_root(r) for r in row] for row in roots]
