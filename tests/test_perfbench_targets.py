"""The benchmark's hooks into the library: the functions it traces by name
must all resolve, and every workload must pass its correctness gate."""

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


def test_every_workload_passes_the_gate(monkeypatch):
    # the gate holds the recorded BER counts and capacities of seed 0, so a
    # drift fails here before it reaches the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    gate = importlib.import_module("gate")
    workloads = importlib.import_module("workloads")
    ber_cells = 0
    for name in workloads.NAMES:
        specs = workloads.specs(name, 0)
        reference = gate.load_reference(name, 0)
        checker = gate.Gate(specs, reference)
        results = [mcftn_otfs.run_sweep(spec) for spec in specs]
        assert checker.check(results) == 0, (name, checker.messages)
        # the gate lets a BER count drift a little; the counts are
        # byte-stable for a fixed seed, so they must equal the record exactly
        for res, ref in zip(results, reference["specs"]):
            if res.spec.metric == "ber":
                for p in res.points:
                    want = ref["errors"][p.scheme][res.spec.snr_points_db.index(p.snr_db)]
                    assert p.errors == want, (name, p.scheme, p.snr_db)
                    ber_cells += 1
    assert ber_cells > 0
