"""Deterministic JSON files for point sets, spreads, and reports.

Every document carries "schema" and "kind" fields plus a params header
naming the parameter triple and the field moduli, so a file is
self-describing.  Coordinates are lowercase hex strings of the packed
point integers (bit 0 is the constant coefficient of chunk 0); keys are
sorted and separators fixed, so equal content gives equal bytes.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .hyperoval import HyperovalSpec, TranslationHyperoval
from .record import Record
from .reduction import CorrespondenceMaps, Spread

SCHEMA_VERSION = 1

POINT_SET_KINDS = ("hyperoval", "affine_points", "directions")


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _hex(p: int) -> str:
    return f"0x{p:x}"


def _parse_int(s, where: str) -> int:
    if not isinstance(s, str):
        raise ParseError(f"{where}: expected hex string, got {type(s).__name__}")
    try:
        return int(s, 16)
    except ValueError as exc:
        raise ParseError(f"{where}: bad hex literal {s!r}") from exc


def params_header(spec: HyperovalSpec, maps: CorrespondenceMaps) -> dict:
    t = maps.tower
    return {
        "h": spec.h,
        "k": spec.k,
        "i": spec.i,
        "strict": spec.strict,
        "q": 1 << spec.h,
        "field_degree": spec.hk,
        "modulus_small": _hex(t.small.modulus),
        "modulus_big": _hex(t.big.modulus),
        "ambient_dim": 2 * spec.k,
        "chunk_bits": spec.h,
    }


def point_set_dict(kind: str, points, spec: HyperovalSpec,
                   maps: CorrespondenceMaps) -> dict:
    if kind not in POINT_SET_KINDS:
        raise ValueError(f"unknown point set kind {kind!r}")
    pts = sorted(points)
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "params": params_header(spec, maps),
        "count": len(pts),
        "points": [_hex(p) for p in pts],
    }


def hyperoval_dict(hov: TranslationHyperoval) -> dict:
    d = point_set_dict("hyperoval", hov.plane_points, hov.spec, hov.maps)
    d["affine"] = [_hex(p) for p in hov.affine.ordered]
    d["infinity"] = [_hex(p) for p in sorted(hov.infinity)]
    return d


def spread_dict(spread: Spread, spec: HyperovalSpec,
                maps: CorrespondenceMaps) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "spread",
        "params": params_header(spec, maps),
        "count": len(spread.elements),
        "elements": sorted([_hex(r) for r in el] for el in spread.elements),
    }


def spectrum_dict(hist, spec: HyperovalSpec, maps: CorrespondenceMaps) -> dict:
    d = hist.to_json_dict()
    d["schema"] = SCHEMA_VERSION
    d["kind"] = "spectrum"
    d["params"] = params_header(spec, maps)
    return d


class PointSetFile(Record):
    kind: str
    params: dict
    points: tuple
    moduli: tuple  # (small, big) field moduli, None where the file has none


def loads_json(text: str) -> dict:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(d, dict):
        raise ParseError("top level must be a JSON object")
    if d.get("schema") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema {d.get('schema')!r}")
    if "kind" not in d:
        raise ParseError("missing 'kind'")
    return d


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="ascii") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return loads_json(text)


def parse_point_set(d: dict) -> PointSetFile:
    if d.get("kind") not in POINT_SET_KINDS:
        raise ParseError(f"not a point set document: kind {d.get('kind')!r}")
    if not isinstance(d.get("points"), list):
        raise ParseError("missing 'points' array")
    pts = tuple(_parse_int(s, f"points[{n}]") for n, s in enumerate(d["points"]))
    if d.get("count") != len(pts):
        raise ParseError(f"count {d.get('count')} != {len(pts)} points listed")
    params = d.get("params")
    if not isinstance(params, dict):
        raise ParseError("missing 'params' object")
    for key in ("h", "k", "i"):
        if not isinstance(params.get(key), int):
            raise ParseError(f"params.{key} missing or not an int")
    moduli = tuple(
        None if params.get(key) is None else _parse_int(params[key], f"params.{key}")
        for key in ("modulus_small", "modulus_big")
    )
    return PointSetFile(kind=d["kind"], params=params, points=pts, moduli=moduli)


def load_point_set(path: str) -> PointSetFile:
    return parse_point_set(load_json(path))
