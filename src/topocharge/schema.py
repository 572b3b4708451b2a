"""The two document formats, simulation manifests (MANIFEST) and catalog
entries (ENTRY), each one table of keys, and the one walker `_read` that
reads a document against its table and refuses a value by its key path.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path

import yaml


class UsageError(ValueError):
    """Bad command-line, manifest or entry input; exits with EXIT_USAGE."""


# libyaml's safe loader where PyYAML was built with it
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(source):
    """The document of YAML text or an open text file, read with libyaml
    where PyYAML has it.

    A source that libyaml refuses is read again by the pure-Python loader,
    which either reads it or raises an error that quotes the failing line.
    """
    try:
        return yaml.load(source, Loader=_YAML_LOADER)
    except yaml.YAMLError:
        if not isinstance(source, str):
            source.seek(0)
        return yaml.load(source, Loader=yaml.SafeLoader)


@dataclass(frozen=True)
class _Required:
    kind: object  # of a table key that must be given, and not as null


@dataclass(frozen=True)
class _Default:
    kind: object  # of a table key that reads as value when missing or null
    value: object


def _read(value, kind, path: str = "", noun: str = "manifest"):
    """value read as a kind of a noun's format and named by its key path.

    A table refuses keys it does not name and drops null values, so a null
    key takes its default: a missing _Default key reads as (a copy of) its
    value, and a null or missing _Required key is refused.  A table keyed
    by str maps any name to one kind.  An int refuses a number with a
    fractional part.
    """
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise UsageError(f"{path} must be a list, got {value!r}")
        # a number in a list is named by the list, a mapping by its index
        return [_read(item, kind[0], path if kind[0] in (int, float) else f"{path}[{i}]", noun)
                for i, item in enumerate(value)]
    if kind in (int, float):
        try:
            if isinstance(value, bool):  # YAML reads true, yes and on as booleans
                raise TypeError
            number = kind(value)
            integral = kind is float or number == float(value)
        except (TypeError, ValueError, OverflowError):
            raise UsageError(f"{path} must be a number, got {value!r}") from None
        if not integral:
            raise UsageError(f"{path} must be an integer, got {value!r}")
        return number
    if not isinstance(kind, (type, dict)):
        return kind(value, path)
    if kind in (str, Path):
        if not isinstance(value, str):
            raise UsageError(f"{path} must be {'a path' if kind is Path else 'text'}, "
                             f"got {value!r}")
        return value
    if not isinstance(value, dict):
        raise UsageError(f"{path or 'a ' + noun} must be a mapping, got {value!r}")
    if kind is dict:
        return value
    if str in kind:
        kind = {key: kind[str] for key in value if isinstance(key, str)}
    where = f"{path}." if path else ""
    unknown = [f"{where}{key}" for key in value if key not in kind]
    if unknown:
        raise UsageError(f"unknown {noun} key(s) {', '.join(unknown)}")
    for key, sub in kind.items():
        if isinstance(sub, _Required) and value.get(key) is None:
            raise UsageError(f"{where}{key} is required")
    read = {key: _read(item, getattr(kind[key], "kind", kind[key]), f"{where}{key}", noun)
            for key, item in value.items() if item is not None}
    return {key: copy.copy(sub.value) for key, sub in kind.items()
            if isinstance(sub, _Default) and key not in read} | read


def _bound(kind, holds, needs: str):
    """The reader of a kind whose value must satisfy holds; a value that
    does not is refused as "<path> must be <needs>"."""

    def read(value, path: str):
        value = _read(value, kind, path)
        if not holds(value):
            raise UsageError(f"{path} must be {needs}, got {value!r}")
        return value

    return read


def _u0(value, path: str) -> dict:
    """u0 is a table; an expression is short for {expr: ...}."""
    return _read({"expr": value} if isinstance(value, str) else value, _U0, path)


def _check(value, path: str) -> dict:
    """A check: its type picks its key table, and so its default tolerance."""
    kind = _read(value, dict, path).get("type")
    if not isinstance(kind, str) or kind not in CHECKS:
        raise UsageError(f"unknown check type {kind!r} (known: {', '.join(CHECKS)})")
    return _read(value, CHECKS[kind], path)


# The manifest format.  A key's kind is str (text), Path (a path), dict (a
# mapping its reader checks), float or int, a nested table, a one-item list
# of a kind, or a function that reads the value, such as a _bound; a kind
# wrapped in _Required must be given, and one in _Default has a default.
_POSITIVE = _bound(_bound(float, lambda v: v > 0, "> 0"), math.isfinite, "finite")
_FINITE = _bound(_bound(float, lambda v: v >= 0, ">= 0"), math.isfinite, "finite")
_CURVE = {"rect": _bound(_bound([float], lambda r: len(r) == 4, "[x0, x1, y0, y1]"),
                         lambda r: all(map(math.isfinite, r)) and r[0] != r[1] and r[2] != r[3],
                         "finite with x0 != x1 and y0 != y1")}
_CURVED = (lambda spec: "rect" in spec.get("curve", {}),
           "a table with curve: {rect: [x0, x1, y0, y1]}")
_REAL = _bound(float, math.isfinite, "finite")
_U0 = {"expr": str, "constant": float,
       "modes": [{"a": _Required(_REAL), "k": _Required([int]), "phase": [_REAL]}]}
# check types and their keys; a None tolerance is resolution doubling
CHECKS = {"mass": {"type": str, "tolerance": _Default(_FINITE, 1e-9)}, "balance": _bound(
    {"type": str, "tolerance": _Default(_FINITE, None), "curve": _CURVE}, *_CURVED)}
MANIFEST = {
    "pde": _Required(str), "params": dict, "t_end": _FINITE, "cfl": _POSITIVE, "dt": _POSITIVE,
    "samples": _bound(int, lambda n: n >= 2, ">= 2 (t = 0 and t_end)"),
    "f": str, "seed": int, "out": Path,
    "grid": {"resolutions": _bound([int], lambda ns: all(n > 0 for n in ns), "positive"),
             "periods": [float]},
    "u0": _u0,
    "constraints": [{"density": _Required(str), "tolerance": _FINITE}],
    "charges": [_bound({"id": _Required(str), "tolerance": _FINITE, "curve": _CURVE}, *_CURVED)],
    "checks": [_check],
}


def _axis(value, path: str) -> int:
    """An axis letter, read as its index in txyz."""
    if value not in ("t", "x", "y", "z"):
        raise UsageError(f"{path} must be t, x, y or z, got {value!r}")
    return "txyz".index(value)


# The catalog-entry format, read by the same walker: expressions are text in
# the entry's jet grammar, which catalog._build_entry reads and verifies, and
# _references checks each id that a key names.
_NAME = _Required(_bound(str, bool, "non-empty text"))
_OBJECT = {"id": _NAME, "note": str, "repair": _Default(str, "")}
_CASED = {**_OBJECT, "case": _Default(str, "generic")}
_SIG = _Required(lambda v, path: tuple(
    _axis(a, path) for a in _read(v, _bound(str, bool, "axis letters"), path)))
_PHI = _Required(lambda v, path: v if v == "reconstruct" else _read(v, [str], path))
ENTRY = {
    "name": _NAME, "title": _Required(str), "note": str,
    "dim": _Required(_bound(int, lambda d: 1 <= d <= 3, "1, 2 or 3")),
    "params": _Default({str: {"square": _Default(_bound(int, lambda q: q > 0, "> 0"), None)}}, {}),
    "arbfuns": _Default({str: {
        "sig": _SIG, "rule": _Default(_bound(str, "biharmonic".__eq__, "biharmonic"), "")}}, {}),
    "cases": _Default({str: {str: str}}, {}),
    "G": _Required(str), "leading": _Required(str), "rhs": _Required(str),
    "factor": _Default(str, "1"),
    "div_form": {"k": _Required(_axis), "F": _Required([str]), "factor": _Default(str, "1")},
    "multipliers": _Default([{**_CASED, "Q": _Required(str)}], []),
    "currents": _Default([{**_CASED, "multiplier": _Required(str), "pairing": _Required(str),
                           "T": _Required(str), "Phi": _PHI}], []),
    "identities": _Default([{**_OBJECT, "current": _Required(str), "R": str, "R_touches": [int],
                             "index": _Default(_bound(int, lambda i: i >= 0, ">= 0"), 0)}], []),
    "charges": _Default([{**_OBJECT, "current": _Required(str), "printed_gamma": [str]}], []),
}


def _references(doc: dict) -> dict:
    """doc once each case binds declared parameters, each id is new in its
    list, each case, multiplier and current named is declared (a current's
    multiplier of its own case or generic) and each vector has dim
    components; else UsageError by key path."""
    for case, binding in doc["cases"].items():
        if unknown := [p for p in binding if p not in doc["params"]]:
            raise UsageError(f"cases.{case}.{unknown[0]} names no parameter")
    declared = {"case": {"generic": {}, **doc["cases"]}}
    vectors = {"div_form.F": doc["div_form"]["F"]} if "div_form" in doc else {}
    for group in ("multipliers", "currents", "identities", "charges"):
        ids = declared[group[:-1]] = {}
        for i, obj in enumerate(doc[group]):
            at = f"{group}[{i}]"
            for ref in ("case", "multiplier", "current"):
                if ref in obj and obj[ref] not in declared[ref]:
                    raise UsageError(f"{at}.{ref} names no {ref} {obj[ref]!r}")
            if "multiplier" in obj and (case := declared["multiplier"][obj["multiplier"]]["case"]) \
                    not in ("generic", obj["case"]):
                raise UsageError(f"{at}.multiplier {obj['multiplier']!r} is of case {case}, "
                                 f"not generic or {obj['case']}")
            if obj["id"] in ids:
                raise UsageError(f"{at}.id repeats {obj['id']!r}")
            ids[obj["id"]] = obj
            vectors |= {f"{at}.{key}": obj[key] for key in ("Phi", "printed_gamma")
                        if isinstance(obj.get(key), list)}
    for at, vector in vectors.items():
        if len(vector) != doc["dim"]:
            raise UsageError(f"{at} must have dim = {doc['dim']} components, got {len(vector)}")
    return doc
