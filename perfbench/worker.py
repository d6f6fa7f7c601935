"""Workload process of the benchmark; run from the root of a checkout.

    python3 perfbench/worker.py setup  WORKLOAD SEED [--tiny]
    python3 perfbench/worker.py sweep  WORKLOAD SEED SECONDS TRACE [--tiny]
    python3 perfbench/worker.py record

`setup` times, in this fresh process, `import mcftn_otfs` plus `build_gram`
and `sfft_matrix` of each of the workload's configs. `sweep` repeats the
workload's sweep for about SECONDS (at least MIN_SWEEPS times) and applies
the correctness gate to every sweep. With TRACE=0 it runs a `setup` process
before each sweep and after the last, so set-up is sampled across the whole
run rather than in one burst; with TRACE=1 it alternates untraced and
traced sweeps. Each prints one JSON line. `record` rewrites reference.json
for the reference seeds. BLAS threads are pinned to 1 before numpy loads,
and the library is imported from ./src of the checkout, never from an
installed copy.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path.cwd() / "src"
sys.path.insert(0, str(SRC))
MIN_SWEEPS = 3


def import_library():
    import mcftn_otfs

    if not Path(mcftn_otfs.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"mcftn_otfs imported from {mcftn_otfs.__file__}, not from {SRC}")
    return mcftn_otfs


def setup(workload: str, seed: int, tiny: bool) -> dict:
    t0 = time.perf_counter()
    lib = import_library()
    import workloads

    for spec in workloads.specs(workload, seed, tiny):
        lib.build_gram(spec.config)
        lib.sfft_matrix(spec.config)
    return {"setup_s": time.perf_counter() - t0}


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": deps.get("blas"), "lapack": deps.get("lapack"),
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def sweep(workload: str, seed: int, seconds: float, traced: bool, tiny: bool) -> dict:
    lib = import_library()
    import gate
    import tracing
    import workloads

    specs = workloads.specs(workload, seed, tiny)
    checker = gate.Gate(specs, None if tiny else gate.load_reference(workload, seed))

    def one_sweep():
        results = []
        t0 = time.perf_counter()
        for spec in specs:
            try:
                results.append(lib.run_sweep(spec))
            except (lib.ConfigError, lib.NumericalError) as exc:
                results.append(exc)
        elapsed = time.perf_counter() - t0
        checker.check(results)
        return elapsed

    def setup_probe():
        args = [sys.executable, __file__, "setup", workload, str(seed)] + ["--tiny"] * tiny
        proc = subprocess.run(args, capture_output=True, text=True, check=True, timeout=60)
        return json.loads(proc.stdout)["setup_s"]

    untraced, traced_s, setup_s = [], [], []
    tracer = tracing.Tracer()
    start = time.perf_counter()
    while True:
        if not traced:
            setup_s.append(setup_probe())
        untraced.append(one_sweep())
        if traced:
            with tracer:
                traced_s.append(one_sweep())
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if len(untraced) >= MIN_SWEEPS and elapsed + per_round > seconds:
            break
    if not traced:
        setup_s.append(setup_probe())

    out = {"sweep_s": untraced, "setup_s": setup_s, "attempted": checker.attempted,
           "failed": checker.failed, "messages": checker.messages, "environment": environment()}
    if traced:
        layers = tracing.layer_metrics(
            tracer.spans, len(traced_s), sum(traced_s),
            realizations=sum(s.n_realizations for s in specs),
            paths_per_set=specs[0].config.L)
        layers["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced) - 1.0
        out.update(traced_s=traced_s, layers=layers,
                   spans={"fields": ["name", "parent", "start", "end"], "spans": tracer.spans})
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def record() -> None:
    lib = import_library()
    import gate
    import workloads

    table = {}
    for workload in workloads.NAMES:
        for seed in gate.REFERENCE_SEEDS:
            results = [lib.run_sweep(spec) for spec in workloads.specs(workload, seed)]
            table.setdefault(workload, {})[str(seed)] = gate.reference_from(results)
    gate.REFERENCE_FILE.write_text(json.dumps(table, indent=1) + "\n")


def main(argv: list) -> None:
    tiny = "--tiny" in argv
    args = [a for a in argv if a != "--tiny"]
    if args[:1] == ["setup"] and len(args) == 3:
        print(json.dumps(setup(args[1], int(args[2]), tiny)))
    elif args[:1] == ["sweep"] and len(args) == 5:
        print(json.dumps(sweep(args[1], int(args[2]), float(args[3]), args[4] == "1", tiny)))
    elif args == ["record"]:
        record()
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
