"""Sweep benchmark of mcftn_otfs; run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop: one workload process, one `run_sweep` call at a time, BLAS
pinned to one thread. With --trace 0 it repeats the workload's sweep for
about S seconds, times set-up in a fresh process before each sweep and
after the last, and reports the end-to-end metrics (medians). With
--trace 1 it alternates untraced and traced sweeps and reports the
per-layer metrics. Every sweep passes through the correctness gate. The last line of standard output is
the JSON result; the line before it records the environment. The full
record, spans included, goes to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, timeout=10)
    return out.stdout.strip() or "unknown"


def run_worker(args: list, deadline: float) -> dict:
    """Run perfbench/worker.py in a fresh process and parse its JSON line.

    The worker gets its own process group, so a timeout also stops the
    set-up processes it may have started.
    """
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {' '.join(args)} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="sub-second workload shapes, for the harness self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "mcftn_otfs" / "__init__.py").is_file():
        print(f"no library at {root / 'src' / 'mcftn_otfs'}; run from a checkout root",
              file=sys.stderr)
        return 2

    environment = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "tiny": args.tiny,
                   "loadavg_start": os.getloadavg(), "nproc": os.cpu_count(),
                   "affinity": len(os.sched_getaffinity(0)), "commit": git_commit(root)}

    out = run_worker(["sweep", args.workload, str(args.seed), str(args.seconds),
                      str(args.trace)] + ["--tiny"] * args.tiny, deadline)
    environment.update(out.pop("environment"), loadavg_end=os.getloadavg())
    for line in out["messages"]:
        print(f"gate: {line}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": out["layers"][name], "unit": unit}
                   for name, unit in tracing.metric_units().items()}
    else:
        metrics = {
            "sweep_s": {"value": statistics.median(out["sweep_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(out["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MiB"},
            "pass_ratio": {"value": 1.0 - out["failed"] / out["attempted"], "unit": "ratio"},
        }
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}

    record_dir = HERE / "out"
    record_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (record_dir / name).write_text(json.dumps(
        {"environment": environment, **out, "result": result}))
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
