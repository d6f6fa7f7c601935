"""Self-test of the benchmark harness at tiny sizes; run from the repo root.

    python3 perfbench/selftest.py

Checks that:
1. run.py --tiny prints, for every workload and both trace modes, a last
   line with exactly the result keys and every metric BENCHMARK.json names,
   with its unit;
2. the gate passes unperturbed results and fails cells when a reference
   value is perturbed or a sweep raises, so the pass ratio can drop;
3. run.py exits non-zero without a result in a directory that holds only
   BENCHMARK.json and perfbench/.
Takes about 15 seconds.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import worker  # noqa: F401  (pins BLAS threads and puts ./src on the path first)

import gate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, set(got) ^ set(want)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"ok  {workload} trace {trace}: {len(got)} metrics")


def check_gate_fails() -> None:
    from mcftn_otfs import NumericalError, run_sweep

    for workload in workloads.NAMES:
        specs = workloads.specs(workload, 3, tiny=True)
        results = [run_sweep(spec) for spec in specs]
        reference = gate.reference_from(results)
        assert gate.Gate(specs, reference).check(results) == 0

        entry = reference["specs"][0]
        key = "capacity" if "capacity" in entry else "errors"
        scheme = specs[0].schemes[0]
        perturbed = copy.deepcopy(reference)
        cell = perturbed["specs"][0][key][scheme]
        cell[-1] = cell[-1] * (1 + 1e-6) + 1e-6 if key == "capacity" else 2 * cell[-1] + 10
        checker = gate.Gate(specs, perturbed)
        checker.check(results)
        assert checker.failed / checker.attempted > 0, "perturbed reference passed"

        perturbed = copy.deepcopy(reference)
        perturbed["specs"][0]["digests"][0] = "0" * 64
        assert gate.Gate(specs, perturbed).check(results) > 0, "perturbed digest passed"

        checker = gate.Gate(specs, None)
        n_failed = checker.check([NumericalError("injected")] + results[1:])
        assert n_failed == len(checker.cells(0)), "a raising sweep must fail its cells"
        print(f"ok  {workload}: gate fails perturbed references and raising sweeps")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, workloads.NAMES[0], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "run.py succeeded without the library"
    assert "correct" not in proc.stdout, "run.py printed a result without the library"
    print("ok  bare directory: exit code", proc.returncode)


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(bench)
    check_gate_fails()
    check_bare_directory()


if __name__ == "__main__":
    main()
