"""The frozen record base every stage result is built on, and the
tests' copy-with-changes of a record (oracles.replace)."""

import pytest

from hoval.cplanes import AxiomReport
from hoval.errors import GcdHypothesisViolated
from hoval.hyperoval import HyperovalSpec
from hoval.record import Record
from oracles import replace


class _Pair(Record):
    left: int
    right: int = 0
    how: str = "scan"
    _uncompared = ("how",)


class _OtherPair(Record):
    left: int
    right: int = 0
    how: str = "scan"
    _uncompared = ("how",)


def test_record_contract():
    a = AxiomReport("A4", True, 12, None, {"triples": 3}, bins="pair-scan")
    assert a == replace(a, bins="cyclic-group") and a != replace(a, checked=13)
    assert "bins" not in repr(a) and "pair-scan" not in repr(a)

    p = _Pair(1, how="group")
    assert (p.left, p.right, p.how) == (1, 0, "group")
    assert p == _Pair(1, 0) and hash(p) == hash((1, 0))
    assert repr(p) == "_Pair(left=1, right=0)"
    assert p != _OtherPair(1, 0) and _OtherPair(1, 0) != p

    for change in (lambda: setattr(p, "left", 2), lambda: delattr(p, "left"),
                   lambda: setattr(p, "extra", 2)):
        with pytest.raises(AttributeError):
            change()
    assert p.left == 1

    q = replace(p, right=5, how="pairs")
    assert (q.left, q.right, q.how) == (1, 5, "pairs")
    assert replace(q, right=0) == p and replace(p) == p

    for bad in (lambda: _Pair(1, colour=2), lambda: _Pair(1, left=2),
                lambda: _Pair(right=2), lambda: _Pair(1, 2, "x", 4),
                lambda: replace(p, colour=2)):
        with pytest.raises(TypeError):
            bad()

    assert HyperovalSpec(3, 2, i=1) == HyperovalSpec(3, 2, 1, strict=True)
    with pytest.raises(ValueError):
        HyperovalSpec(3, 2, 6)
    with pytest.raises(ValueError):
        replace(HyperovalSpec(3, 2, 1), k=0)
    with pytest.raises(GcdHypothesisViolated):
        HyperovalSpec(4, 2, 2)
