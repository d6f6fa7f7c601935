"""Command line front end: capacity sweeps, BER sweeps and Gram dumps.

Each command takes only the flags that change its output (gram the lattice,
capacity also the channel and the sweep, ber also the frames and the
constellation), and every flag parses straight into its JSON config key. The
settings are the CLI's own defaults (an 8x4 grid and the 0-20 dB SNR grid),
then the optional JSON file (any key some command reads, but not N0 or
sigma_x2: each SNR point sets sigma_x2/N0), then the flags given; they split
into SystemConfig and SweepSpec fields, which supply every other default and
reject every invalid value. Units are normalized: time (tau_max) in the
Nyquist symbol interval T0, frequency (nu_max) in 1/T0 and energy per unit
symbol energy, so there are no T0 or E0 keys. Outputs are RFC-4180 CSV
files with a matching gnuplot script so nothing here ever needs a plotting
dependency. Exit codes: 0 success, 1 configuration error, 2 numerical
failure. The output directory is the --out flag if given, else the
MCFTN_OTFS_OUT environment variable, else the working directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .core import ConfigError, NumericalError, SystemConfig
from .link import CONSTELLATIONS
from .montecarlo import SCHEMES, SweepSpec, run_sweep
from .pulse import build_gram

CAPACITY_HEADER = ["snr_db", "scheme", "alpha", "beta", "mean_bps_hz", "stderr", "n"]
BER_HEADER = ["snr_db", "scheme", "alpha", "beta", "ber", "ci_low", "ci_high", "bits"]
GRAM_HEADER = ["row", "col", "re", "im"]
GRAM_EIGS_HEADER = ["index", "eigenvalue"]

# metric -> (CSV header, point fields after the alpha/beta columns, y label, log y)
_OUTPUTS = {
    "capacity": (CAPACITY_HEADER, ("mean", "stderr", "n"),
                 "normalized capacity (bits/s/Hz)", False),
    "ber": (BER_HEADER, ("ber", "ci_low", "ci_high", "bits"), "uncoded BER", True),
}

_DEFAULTS = {"M": 8, "N": 4, "snr_db": (0.0, 5.0, 10.0, 15.0, 20.0)}
_SNR_KEYS = {"N0", "sigma_x2"}
_SYSTEM_KEYS = {f.name for f in fields(SystemConfig)} - _SNR_KEYS
_SWEEP_KEYS = {"snr_db", "n_realizations", "schemes", "n_frames", "constellation"}
_INT_KEYS = {f.name for f in fields(SystemConfig) + fields(SweepSpec) if f.type == "int"}
_LATTICE_FLAGS = ("M", "N", "alpha", "beta", "theta")   # all the Gram reads
_LINK_FLAGS = ("L", "n_tx", "n_rx", "seed")


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
        if key in _SNR_KEYS:
            raise ConfigError(f"config key {key!r} in {path} is not a setting: each sweep "
                              f"point sets the SNR sigma_x2/N0 from snr_db")
        if key not in _SYSTEM_KEYS | _SWEEP_KEYS:
            raise ConfigError(f"unknown config key {key!r} in {path}")
    for key in _INT_KEYS & raw.keys():
        if isinstance(raw[key], float) and raw[key].is_integer():
            raw[key] = int(raw[key])
    return raw


def _list(text: str) -> list:
    """Items of a comma-separated flag; SweepSpec converts and checks them."""
    return [item.strip() for item in text.split(",") if item.strip()]


def build_parser() -> _Parser:
    parser = _Parser(prog="mcftn-otfs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("capacity", "sweep normalized capacity over SNR"),
        ("ber", "sweep uncoded BER over SNR"),
        ("gram", "dump the pulse Gram matrix and its spectrum"),
    ):
        # flags not given stay out of the namespace, so they never mask the file
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default: $MCFTN_OTFS_OUT or '.')")
        for key in _LATTICE_FLAGS + (_LINK_FLAGS if name != "gram" else ()):
            p.add_argument("--" + key.replace("_", "-"), type=int if key in _INT_KEYS else float)
        if name != "gram":
            p.add_argument("--snr", dest="snr_db", metavar="SNR", type=_list,
                           help="comma-separated SNR points in dB")
            p.add_argument("--realizations", dest="n_realizations", metavar="REALIZATIONS",
                           type=int)
            p.add_argument("--schemes", type=_list,
                           help=f"comma-separated subset of: {', '.join(SCHEMES)}")
        if name == "ber":
            p.add_argument("--frames", dest="n_frames", metavar="FRAMES", type=int,
                           help="frames per realization")
            p.add_argument("--constellation", choices=CONSTELLATIONS)
    return parser


def _out_dir(out: str | None) -> str:
    out = out or os.environ.get("MCFTN_OTFS_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    print(f"wrote {path}")


def _plot_script(csv_name: str, schemes, ylabel: str, logscale: bool) -> str:
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
        f"  '{csv_name}' every ::1 using 1:(strcol(2) eq '{s}' ? $5 : 1/0) "
        f"with linespoints title '{s}'"
        for s in schemes
    ]
    lines.append("plot \\")
    lines.append(", \\\n".join(plots))
    return "\n".join(lines) + "\n"


def _cmd_sweep(spec: SweepSpec, out: str | None) -> int:
    header, columns, ylabel, logscale = _OUTPUTS[spec.metric]
    cfg = spec.config
    rows = [
        (p.snr_db, p.scheme, cfg.alpha, cfg.beta, *(getattr(p, c) for c in columns))
        for p in run_sweep(spec).points
    ]
    out = _out_dir(out)
    _write_csv(os.path.join(out, f"{spec.metric}.csv"), header, rows)
    gp_path = os.path.join(out, f"{spec.metric}.gp")
    with open(gp_path, "w", encoding="utf-8") as fh:
        fh.write(_plot_script(f"{spec.metric}.csv", spec.schemes, ylabel, logscale))
    print(f"wrote {gp_path}")
    return 0


def _cmd_gram(cfg: SystemConfig, out: str | None) -> int:
    gram = build_gram(cfg)
    out = _out_dir(out)
    rows = [(i, j, v.real, v.imag) for (i, j), v in np.ndenumerate(gram.matrix)]
    _write_csv(os.path.join(out, "gram.csv"), GRAM_HEADER, rows)
    eig_rows = [(i, float(v)) for i, v in enumerate(gram.eigenvalues)]
    _write_csv(os.path.join(out, "gram_eigs.csv"), GRAM_EIGS_HEADER, eig_rows)
    print(f"size {gram.size}, active modes {gram.n_active}, "
          f"condition number {_fmt(gram.condition_number)}")
    return 0


def main(argv=None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
        command, out = flags.pop("command"), flags.pop("out", None)
        settings = {**_DEFAULTS, **load_config(flags.pop("config", None)), **flags}
        cfg = SystemConfig(**{k: v for k, v in settings.items() if k in _SYSTEM_KEYS})
        if command == "gram":
            return _cmd_gram(cfg, out)
        sweep = {k: v for k, v in settings.items() if k in _SWEEP_KEYS}
        return _cmd_sweep(SweepSpec(config=cfg, snr_points_db=sweep.pop("snr_db"),
                                    metric=command, **sweep), out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
