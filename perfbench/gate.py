"""Correctness gate behind the benchmark's pass ratio.

A cell is one (spec, scheme, SNR) of a sweep. A cell fails when its sweep
raised `ConfigError` or `NumericalError`, when it breaks an invariant that
holds for any seed, when it differs from the first sweep of the same run,
or, for the seeds in `reference.json`, when it differs from the values
recorded for this benchmark's sizes.

Invariants checked for any seed:
- every spec of a workload saw the same channel draws (equal path digests,
  one per realization): the paired-sweep contract;
- capacity: finite, non-negative, non-decreasing in SNR per realization;
  `siso_pa` >= `siso_nopa` per realization, which holds because unit
  allocation meets the same budget tr(G) = MN, itself checked on the Gram;
- BER: 0 <= errors <= bits per realization, with the bit count of the spec.

Reference tolerances: capacity means to a relative 1e-8, path digests
exactly, BER error counts within 0.1% of the reference count or 2 errors,
whichever is larger (decisions on the boundary can flip when another CPU
kernel changes the last bits of the noise or the equalizer).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_SEEDS = (0, 1)      # 0 is the default seed, 1 is held out
CAPACITY_RTOL = 1e-8
BER_SLACK_REL = 1e-3
BER_SLACK_ABS = 2
ORDER_TOL = 1e-9              # relative slack for the ordering invariants
TRACE_TOL = 1e-9              # relative slack on tr(G) = MN


def load_reference(workload: str, seed: int):
    """Recorded reference for (workload, seed), or None if none was recorded."""
    table = json.loads(REFERENCE_FILE.read_text())
    return table.get(workload, {}).get(str(seed))


def reference_from(results: list) -> dict:
    """Reference entry for one sweep's results (the format `Gate` checks)."""
    specs = []
    for res in results:
        entry = {"digests": list(res.channel_digests)}
        key = "capacity" if res.spec.metric == "capacity" else "errors"
        field = "mean" if key == "capacity" else "errors"
        entry[key] = {s: [getattr(p, field) for p in res.points if p.scheme == s]
                      for s in res.spec.schemes}
        specs.append(entry)
    return {"specs": specs}


class Gate:
    """Checks sweeps of one workload and counts attempted and failed cells."""

    def __init__(self, specs: list, reference: dict | None):
        from mcftn_otfs import build_gram

        self.specs = specs
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self._first = None
        self._gram_ok = []
        for spec in specs:
            mn = spec.config.mn
            tr = np.trace(build_gram(spec.config).matrix).real
            self._gram_ok.append(abs(tr - mn) <= TRACE_TOL * mn)

    def cells(self, i: int) -> list:
        spec = self.specs[i]
        return [(i, s, snr) for s in spec.schemes for snr in spec.snr_points_db]

    def check(self, results: list) -> int:
        """Check one sweep (one result or exception per spec); return failed cells."""
        bad = {}

        def fail(cells, why):
            for cell in cells:
                bad.setdefault(cell, why)

        first = results[0]
        for i, res in enumerate(results):
            if isinstance(res, Exception):
                fail(self.cells(i), f"{type(res).__name__}: {res}")
                continue
            if not self._gram_ok[i]:
                fail(self.cells(i), "gram trace differs from MN")
            if res.spec.metric == "capacity":
                self._check_capacity(i, res, fail)
            else:
                self._check_ber(i, res, fail)
            digests = res.channel_digests
            if len(digests) != res.spec.n_realizations:
                fail(self.cells(i), "one digest per realization expected")
            if i and not isinstance(first, Exception) and digests != first.channel_digests:
                fail(self.cells(i), "paired specs saw different channel draws")
            if self.reference is not None:
                self._check_reference(i, res, fail)
            if self._first is not None and not isinstance(self._first[i], Exception):
                prev = self._first[i].values
                for cell in self.cells(i):
                    if not np.array_equal(prev[cell[1:]], res.values[cell[1:]]):
                        fail([cell], "differs from the first sweep of this run")
        if self._first is None:
            self._first = results

        n_cells = sum(len(self.cells(i)) for i in range(len(self.specs)))
        self.attempted += n_cells
        self.failed += len(bad)
        for cell, why in sorted(bad.items(), key=str)[:5]:
            self.messages.append(f"cell {cell}: {why}")
        return len(bad)

    def _check_capacity(self, i, res, fail):
        spec = res.spec
        for s in spec.schemes:
            prev = None
            for snr in spec.snr_points_db:
                v = res.values[(s, snr)]
                if not np.all(np.isfinite(v)) or np.any(v < 0.0):
                    fail([(i, s, snr)], "capacity not finite and non-negative")
                elif prev is not None and np.any(v < prev - ORDER_TOL * np.abs(prev)):
                    fail([(i, s, snr)], "capacity falls as SNR rises")
                prev = v
        if "siso_pa" in spec.schemes and "siso_nopa" in spec.schemes:
            for snr in spec.snr_points_db:
                pa, nopa = res.values[("siso_pa", snr)], res.values[("siso_nopa", snr)]
                if np.any(pa < nopa - ORDER_TOL * np.maximum(1.0, np.abs(nopa))):
                    fail([(i, "siso_pa", snr), (i, "siso_nopa", snr)],
                         "water-filling below unit allocation")

    def _check_ber(self, i, res, fail):
        from mcftn_otfs.link import bits_per_symbol

        spec, cfg = res.spec, res.spec.config
        per_real = bits_per_symbol(spec.constellation) * cfg.n_tx * cfg.mn * spec.n_frames
        if res.bits_per_realization != per_real:
            fail(self.cells(i), "bits per realization differ from the spec")
        for p in res.points:
            v = res.values[(p.scheme, p.snr_db)]
            if (np.any(v < 0) or np.any(v > per_real) or p.bits != per_real * spec.n_realizations
                    or p.errors != int(np.sum(v)) or not 0 <= p.errors <= p.bits):
                fail([(i, p.scheme, p.snr_db)], "error count outside [0, bits]")

    def _check_reference(self, i, res, fail):
        ref = self.reference["specs"][i]
        if list(res.channel_digests) != ref["digests"]:
            fail(self.cells(i), "channel digests differ from the reference")
        for p in res.points:
            j = res.spec.snr_points_db.index(p.snr_db)
            if res.spec.metric == "capacity":
                want = ref["capacity"][p.scheme][j]
                if abs(p.mean - want) > CAPACITY_RTOL * abs(want):
                    fail([(i, p.scheme, p.snr_db)], f"capacity {p.mean!r} != reference {want!r}")
            else:
                want = ref["errors"][p.scheme][j]
                if abs(p.errors - want) > max(BER_SLACK_ABS, BER_SLACK_REL * want):
                    fail([(i, p.scheme, p.snr_db)], f"errors {p.errors} != reference {want}")
