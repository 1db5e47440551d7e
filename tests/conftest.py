"""Fixtures shared by the test modules."""

import pytest

from hoval.projective import ProjSpace


@pytest.fixture
def line_key_calls(monkeypatch):
    """A list that grows by one on every ProjSpace.pair_line_key call."""
    calls = []
    real = ProjSpace.pair_line_key

    def counted(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(ProjSpace, "pair_line_key", counted)
    return calls
