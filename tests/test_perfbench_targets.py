"""The benchmark traces library functions by name; they must all resolve."""

import importlib
from pathlib import Path

import mcftn_otfs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    original = mcftn_otfs.precode_mimo.sic_precode
    with tracing.Tracer() as tracer:
        assert mcftn_otfs.precode_mimo.sic_precode is not original
    assert not tracer._restore
    assert mcftn_otfs.precode_mimo.sic_precode is original
