"""JSON document shapes, round trips, and malformed input handling."""

import pytest

from hoval.errors import ParseError
from hoval.hyperoval import HyperovalSpec, build_hyperoval, directions
from hoval.serialize import (
    dumps,
    hyperoval_dict,
    load_point_set,
    loads_json,
    parse_point_set,
    point_set_dict,
    spread_dict,
)
from oracles import save


@pytest.fixture(scope="module")
def hov():
    return build_hyperoval(HyperovalSpec(3, 2, 1))


def test_dumps_is_compact_and_sorted():
    s = dumps({"b": 1, "a": [2, 3]})
    assert s == '{"a":[2,3],"b":1}\n'


def test_point_set_round_trip(hov, tmp_path):
    d = directions(hov.affine, hov.maps)
    doc = point_set_dict("directions", d.points, hov.spec, hov.maps)
    path = tmp_path / "d.json"
    save(str(path), doc)
    loaded = load_point_set(str(path))
    assert loaded.kind == "directions"
    assert frozenset(loaded.points) == d.points
    assert loaded.params["h"] == 3 and loaded.params["modulus_small"] == "0xb"


def test_points_sorted_and_hex(hov):
    doc = point_set_dict("affine_points", hov.affine.points, hov.spec, hov.maps)
    vals = [int(s, 16) for s in doc["points"]]
    assert vals == sorted(vals)
    assert doc["count"] == 64


def test_unknown_kind_rejected(hov):
    with pytest.raises(ValueError):
        point_set_dict("mystery", [1], hov.spec, hov.maps)


def test_hyperoval_dict_sections(hov):
    doc = hyperoval_dict(hov)
    assert doc["count"] == 66
    assert len(doc["affine"]) == 64
    assert len(doc["infinity"]) == 2


def test_spread_dict_shape(hov):
    doc = spread_dict(hov.maps.abb_spread, hov.spec, hov.maps)
    assert doc["kind"] == "spread"
    assert doc["count"] == 65
    assert doc["elements"] == sorted(doc["elements"])


def test_loads_rejects_non_json():
    with pytest.raises(ParseError):
        loads_json("nope")


def test_loads_rejects_non_object():
    with pytest.raises(ParseError):
        loads_json("[1,2]")


def test_loads_rejects_wrong_schema():
    with pytest.raises(ParseError):
        loads_json('{"schema":99,"kind":"directions"}')


def test_loads_rejects_missing_kind():
    with pytest.raises(ParseError):
        loads_json('{"schema":1}')


def test_parse_point_set_guards(hov):
    d = directions(hov.affine, hov.maps)
    doc = point_set_dict("directions", d.points, hov.spec, hov.maps)

    bad = dict(doc)
    bad["count"] = 3
    with pytest.raises(ParseError):
        parse_point_set(bad)

    bad = dict(doc)
    bad["points"] = ["0xzz"]
    bad["count"] = 1
    with pytest.raises(ParseError):
        parse_point_set(bad)

    bad = dict(doc)
    bad["points"] = [17]
    bad["count"] = 1
    with pytest.raises(ParseError):
        parse_point_set(bad)

    bad = dict(doc)
    del bad["params"]
    with pytest.raises(ParseError):
        parse_point_set(bad)

    bad = dict(doc)
    bad["params"] = {"h": "three", "k": 2, "i": 1}
    with pytest.raises(ParseError):
        parse_point_set(bad)

    bad = dict(doc)
    bad["kind"] = "spread"
    with pytest.raises(ParseError):
        parse_point_set(bad)
