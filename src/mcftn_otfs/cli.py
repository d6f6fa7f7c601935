"""Command line front end: capacity sweeps, BER sweeps and Gram dumps.

Configuration comes from an optional JSON file plus flag overrides; outputs
are RFC-4180 CSV files with a matching gnuplot script so nothing here ever
needs a plotting dependency. Exit codes: 0 success, 1 configuration error,
2 numerical failure. The output directory is the --out flag if given, else
the MCFTN_OTFS_OUT environment variable, else the working directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

from .core import ConfigError, NumericalError, SystemConfig
from .montecarlo import SCHEMES, SweepSpec, run_sweep
from .pulse import build_gram

CAPACITY_HEADER = ["snr_db", "scheme", "alpha", "beta", "mean_bps_hz", "stderr", "n"]
BER_HEADER = ["snr_db", "scheme", "alpha", "beta", "ber", "ci_low", "ci_high", "bits"]
GRAM_HEADER = ["row", "col", "re", "im"]
GRAM_EIGS_HEADER = ["index", "eigenvalue"]

_SYSTEM_KEYS = {f.name for f in fields(SystemConfig)}
_SWEEP_KEYS = {"snr_db", "n_realizations", "schemes", "n_frames", "constellation"}
_INT_KEYS = {"M", "N", "L", "n_tx", "n_rx", "seed", "n_realizations", "n_frames"}


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as configuration errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def load_config(path: str | None) -> dict:
    """Read a JSON config; integer-valued floats of integer keys become ints."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for key in raw:
        if key not in _SYSTEM_KEYS | _SWEEP_KEYS:
            raise ConfigError(f"unknown config key {key!r} in {path}")
    for key in _INT_KEYS & raw.keys():
        if isinstance(raw[key], float) and raw[key].is_integer():
            raw[key] = int(raw[key])
    return raw


def build_parser() -> _Parser:
    parser = _Parser(prog="mcftn-otfs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("capacity", "sweep normalized capacity over SNR"),
        ("ber", "sweep uncoded BER over SNR"),
        ("gram", "dump the pulse Gram matrix and its spectrum"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default: $MCFTN_OTFS_OUT or '.')")
        p.add_argument("--M", type=int, dest="M")
        p.add_argument("--N", type=int, dest="N")
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--theta", type=float)
        p.add_argument("--L", type=int, dest="L")
        p.add_argument("--n-tx", type=int, dest="n_tx")
        p.add_argument("--n-rx", type=int, dest="n_rx")
        p.add_argument("--seed", type=int)
        if name != "gram":
            p.add_argument("--snr", help="comma-separated SNR points in dB")
            p.add_argument("--realizations", type=int)
            p.add_argument("--schemes", help=f"comma-separated subset of: {', '.join(SCHEMES)}")
            p.add_argument("--frames", type=int, help="frames per realization (ber)")
            p.add_argument("--constellation", choices=("bpsk", "qpsk"))
    return parser


def _system_config(raw: dict, args) -> SystemConfig:
    merged = {"M": 8, "N": 4}
    for key in _SYSTEM_KEYS:
        if key in raw:
            merged[key] = raw[key]
    for key in ("M", "N", "alpha", "beta", "theta", "L", "n_tx", "n_rx", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    try:
        return SystemConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc))


def _sweep_spec(raw: dict, args, metric: str, cfg: SystemConfig) -> SweepSpec:
    snr = raw.get("snr_db", [0.0, 5.0, 10.0, 15.0, 20.0])
    if getattr(args, "snr", None):
        try:
            snr = [float(s) for s in args.snr.split(",") if s.strip()]
        except ValueError:
            raise ConfigError(f"cannot parse --snr {args.snr!r}")
    schemes = raw.get("schemes", ["siso_pa"])
    if getattr(args, "schemes", None):
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    spec_kwargs = {
        "config": cfg,
        "snr_points_db": snr,
        "schemes": schemes,
        "metric": metric,
        "n_realizations": raw.get("n_realizations", 500),
        "n_frames": raw.get("n_frames", 50),
        "constellation": raw.get("constellation", "bpsk"),
    }
    if getattr(args, "realizations", None) is not None:
        spec_kwargs["n_realizations"] = args.realizations
    if getattr(args, "frames", None) is not None:
        spec_kwargs["n_frames"] = args.frames
    if getattr(args, "constellation", None) is not None:
        spec_kwargs["constellation"] = args.constellation
    return SweepSpec(**spec_kwargs)


def _out_dir(args) -> str:
    out = args.out or os.environ.get("MCFTN_OTFS_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _plot_script(csv_name: str, schemes, ycol: int, ylabel: str,
                 logscale: bool) -> str:
    lines = [
        f"# gnuplot script; expects {csv_name} in the same directory",
        "set datafile separator ','",
        "set xlabel 'SNR (dB)'",
        f"set ylabel '{ylabel}'",
        "set grid",
        "set key left top",
    ]
    if logscale:
        lines.append("set logscale y")
    plots = [
        f"  '{csv_name}' every ::1 using 1:(strcol(2) eq '{s}' ? ${ycol} : 1/0) "
        f"with linespoints title '{s}'"
        for s in schemes
    ]
    lines.append("plot \\")
    lines.append(", \\\n".join(plots))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args, metric: str) -> int:
    raw = load_config(args.config)
    cfg = _system_config(raw, args)
    spec = _sweep_spec(raw, args, metric, cfg)
    result = run_sweep(spec)
    out = _out_dir(args)

    if metric == "capacity":
        rows = [
            (p.snr_db, p.scheme, cfg.alpha, cfg.beta, p.mean, p.stderr, p.n)
            for p in result.points
        ]
        csv_path = os.path.join(out, "capacity.csv")
        _write_csv(csv_path, CAPACITY_HEADER, rows)
        script = _plot_script("capacity.csv", spec.schemes, 5,
                              "normalized capacity (bits/s/Hz)", logscale=False)
        gp_path = os.path.join(out, "capacity.gp")
    else:
        rows = [
            (p.snr_db, p.scheme, cfg.alpha, cfg.beta, p.ber, p.ci_low, p.ci_high, p.bits)
            for p in result.points
        ]
        csv_path = os.path.join(out, "ber.csv")
        _write_csv(csv_path, BER_HEADER, rows)
        script = _plot_script("ber.csv", spec.schemes, 5,
                              "uncoded BER", logscale=True)
        gp_path = os.path.join(out, "ber.gp")

    with open(gp_path, "w", encoding="utf-8") as fh:
        fh.write(script)
    print(f"wrote {csv_path}")
    print(f"wrote {gp_path}")
    return 0


def _cmd_gram(args) -> int:
    raw = load_config(args.config)
    cfg = _system_config(raw, args)
    gram = build_gram(cfg)
    out = _out_dir(args)

    g = gram.matrix
    rows = [
        (i, j, g[i, j].real, g[i, j].imag)
        for i in range(g.shape[0])
        for j in range(g.shape[1])
    ]
    gram_path = os.path.join(out, "gram.csv")
    _write_csv(gram_path, GRAM_HEADER, rows)
    eig_rows = [(i, float(v)) for i, v in enumerate(gram.eigenvalues)]
    eigs_path = os.path.join(out, "gram_eigs.csv")
    _write_csv(eigs_path, GRAM_EIGS_HEADER, eig_rows)

    print(f"wrote {gram_path}")
    print(f"wrote {eigs_path}")
    print(f"size {g.shape[0]}, active modes {gram.n_active}, "
          f"condition number {_fmt(gram.condition_number)}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "capacity":
            return _cmd_sweep(args, "capacity")
        if args.command == "ber":
            return _cmd_sweep(args, "ber")
        return _cmd_gram(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
