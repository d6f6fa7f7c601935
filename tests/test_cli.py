"""Command line interface tests: files, headers, overrides, exit codes."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcftn_otfs.cli as cli
from mcftn_otfs import NumericalError, SystemConfig, build_gram


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# -------------------------------------------------------------- config ------

def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = cli.main(["gram", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "nope.json" in err


def test_invalid_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["gram", "--config", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_non_object_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert cli.main(["gram", "--config", str(bad)]) == 1


def test_unknown_config_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps({"M": 2, "N": 2, "bandwidth": 1.0}))
    assert cli.main(["gram", "--config", str(bad)]) == 1
    assert "bandwidth" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"seed": 1.5},
    {"snr_db": 5},
    {"snr_db": ["a"]},
    {"n_realizations": "3"},
    {"n_frames": 2.5},
    {"tau_max": float("nan")},
    {"T0": float("nan")},
    {"nu_max": float("inf")},
    {"M": True},
    {"alpha": True},
    {"theta": "x"},
    {"alpha": 0.7, "allow_small_alpha": "no"},
    {"T0": 10 ** 400},
    {"nu_max": 1e6},
], ids=["seed-float", "snr-scalar", "snr-text", "realizations-text", "frames-float",
        "tau-max-nan", "t0-nan", "nu-max-inf", "m-bool", "alpha-bool", "theta-text",
        "small-alpha-text", "t0-huge-int", "nu-max-huge"])
def test_malformed_config_value_exits_1(tmp_path, capsys, bad):
    conf = tmp_path / "bad.json"
    conf.write_text(json.dumps({"M": 2, "N": 2, "n_realizations": 1, **bad}))
    assert cli.main(["ber", "--config", str(conf), "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, ints", [
    ("capacity", {"M": 2, "N": 2, "L": 2, "seed": 3, "n_realizations": 2}),
    ("ber", {"M": 2, "N": 2, "n_tx": 1, "n_rx": 1, "n_realizations": 2, "n_frames": 3}),
], ids=["capacity", "ber"])
def test_integer_valued_floats_match_ints(tmp_path, command, ints):
    # every integer key accepts 2.0 for 2, and the output does not change
    outputs = []
    for name, values in (("int", ints), ("float", {k: float(v) for k, v in ints.items()})):
        conf = tmp_path / f"{name}.json"
        conf.write_text(json.dumps({"alpha": 0.9, "beta": 0.9, "snr_db": [0.0, 8.0], **values}))
        assert cli.main([command, "--config", str(conf), "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / f"{command}.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", ["--snr=4000", "--snr=-4000", "--snr=", "--schemes="])
def test_malformed_flag_value_exits_1(tmp_path, capsys, flag):
    # SNR points outside [-150, 150] dB and empty lists are configuration errors
    rc = cli.main(["capacity", "--M", "2", "--N", "2", "--realizations", "1", flag,
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "capacity.csv").exists()


def test_unknown_flag_exits_1(tmp_path, capsys):
    assert cli.main(["capacity", "--bogus", "1"]) == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_parameter_exits_1(tmp_path, capsys):
    rc = cli.main(["gram", "--alpha", "1.5", "--out", str(tmp_path)])
    assert rc == 1
    assert "alpha" in capsys.readouterr().err


def test_numerical_failure_exits_2(tmp_path, capsys, monkeypatch):
    def boom(spec):
        raise NumericalError("synthetic instability")
    monkeypatch.setattr(cli, "run_sweep", boom)
    rc = cli.main(["capacity", "--M", "2", "--N", "2", "--out", str(tmp_path)])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------- gram ------

def test_gram_dump_matches_library(tmp_path, capsys):
    rc = cli.main(["gram", "--M", "2", "--N", "2", "--alpha", "0.8",
                   "--beta", "0.9", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gram.csv" in out and "active modes" in out

    rows = read_csv(tmp_path / "gram.csv")
    assert rows[0] == cli.GRAM_HEADER
    assert len(rows) == 1 + 16
    g = np.zeros((4, 4), dtype=complex)
    for i, j, re, im in rows[1:]:
        g[int(i), int(j)] = float(re) + 1j * float(im)
    cfg = SystemConfig(M=2, N=2, alpha=0.8, beta=0.9)
    np.testing.assert_allclose(g, build_gram(cfg).matrix, atol=1e-11)

    eig_rows = read_csv(tmp_path / "gram_eigs.csv")
    assert eig_rows[0] == cli.GRAM_EIGS_HEADER
    eigs = [float(r[1]) for r in eig_rows[1:]]
    assert eigs == sorted(eigs, reverse=True)
    np.testing.assert_allclose(eigs, build_gram(cfg).eigenvalues, atol=1e-11)


def test_gram_default_grid_size(tmp_path):
    rc = cli.main(["gram", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "gram.csv")
    assert len(rows) == 1 + 32 * 32


# --------------------------------------------------------------- sweeps -----

CAP_ARGS = ["capacity", "--M", "2", "--N", "2", "--alpha", "0.9", "--beta", "0.9",
            "--snr", "0,10", "--realizations", "2"]


def test_capacity_csv_layout(tmp_path, capsys):
    rc = cli.main(CAP_ARGS + ["--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "capacity.csv")
    assert rows[0] == cli.CAPACITY_HEADER
    assert len(rows) == 1 + 2            # one scheme, two SNR points
    for row in rows[1:]:
        assert row[1] == "siso_pa"
        assert row[2] == "0.9" and row[3] == "0.9"
        assert int(row[6]) == 2
    assert float(rows[2][4]) > float(rows[1][4])   # capacity grows with SNR

    script = (tmp_path / "capacity.gp").read_text()
    assert "set datafile separator ','" in script
    assert "capacity.csv" in script
    assert "siso_pa" in script
    assert "logscale" not in script


BER_ARGS = ["ber", "--M", "2", "--N", "2", "--alpha", "0.9", "--beta", "0.9",
            "--snr", "0,8", "--realizations", "2", "--frames", "3", "--n-tx", "2",
            "--n-rx", "2", "--constellation", "qpsk", "--schemes", "sic,wf_relaxed"]


def test_capacity_output_stable_across_runs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(CAP_ARGS + ["--out", str(d1)]) == 0
    assert cli.main(CAP_ARGS + ["--out", str(d2)]) == 0
    assert (d1 / "capacity.csv").read_bytes() == (d2 / "capacity.csv").read_bytes()
    assert (d1 / "capacity.gp").read_bytes() == (d2 / "capacity.gp").read_bytes()
    # fresh processes with different string hashing write the same bytes
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"proc{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        for args in (CAP_ARGS, BER_ARGS):
            subprocess.run([sys.executable, "-m", "mcftn_otfs.cli", *args, "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=120)
        runs.append([(out / name).read_bytes() for name in ("capacity.csv", "ber.csv")])
    assert runs[0] == runs[1]
    assert runs[0][0] == (d1 / "capacity.csv").read_bytes()


def test_ber_csv_layout(tmp_path):
    rc = cli.main(["ber", "--M", "2", "--N", "2", "--alpha", "0.9", "--beta", "0.9",
                   "--snr", "0,8", "--realizations", "2", "--frames", "3",
                   "--schemes", "siso_pa,siso_unprecoded", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "ber.csv")
    assert rows[0] == cli.BER_HEADER
    assert len(rows) == 1 + 4            # two schemes x two SNR points
    schemes = {row[1] for row in rows[1:]}
    assert schemes == {"siso_pa", "siso_unprecoded"}
    for row in rows[1:]:
        ber, lo, hi = float(row[4]), float(row[5]), float(row[6])
        assert 0.0 <= lo <= ber <= hi <= 1.0
        assert int(row[7]) == 2 * 3 * 4  # realizations * frames * bits/frame
    script = (tmp_path / "ber.gp").read_text()
    assert "set logscale y" in script


def test_mimo_capacity_via_flags(tmp_path):
    rc = cli.main(["capacity", "--M", "2", "--N", "2", "--alpha", "0.9",
                   "--beta", "0.9", "--n-tx", "2", "--n-rx", "2",
                   "--snr", "10", "--realizations", "1",
                   "--schemes", "sic", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "capacity.csv")
    assert len(rows) == 2
    assert rows[1][1] == "sic"


# ------------------------------------------------------------- overrides ----

def test_flags_override_config_file(tmp_path):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({
        "M": 2, "N": 2, "alpha": 1.0, "beta": 1.0,
        "snr_db": [5.0], "n_realizations": 1,
    }))
    rc = cli.main(["capacity", "--config", str(conf), "--alpha", "0.9",
                   "--beta", "0.9", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "capacity.csv")
    assert rows[1][2] == "0.9"
    assert len(rows) == 2                # snr grid from the file


def test_config_file_sweep_keys(tmp_path):
    conf = tmp_path / "run.json"
    conf.write_text(json.dumps({
        "M": 2, "N": 2, "alpha": 0.9, "beta": 0.9, "seed": 5,
        "snr_db": [0.0, 6.0], "n_realizations": 2,
        "schemes": ["siso_pa", "siso_nopa"],
    }))
    rc = cli.main(["capacity", "--config", str(conf), "--out", str(tmp_path)])
    assert rc == 0
    rows = read_csv(tmp_path / "capacity.csv")
    assert len(rows) == 1 + 4
    assert {row[1] for row in rows[1:]} == {"siso_pa", "siso_nopa"}


def test_env_var_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("MCFTN_OTFS_OUT", str(target))
    rc = cli.main(["gram", "--M", "2", "--N", "2"])
    assert rc == 0
    assert (target / "gram.csv").exists()


def test_out_flag_beats_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MCFTN_OTFS_OUT", str(tmp_path / "env"))
    explicit = tmp_path / "flag"
    rc = cli.main(["gram", "--M", "2", "--N", "2", "--out", str(explicit)])
    assert rc == 0
    assert (explicit / "gram.csv").exists()
    assert not (tmp_path / "env").exists()


SWEEP_OPTIONS = ["--snr", "--realizations", "--schemes", "--frames", "--constellation"]
SYSTEM_OPTIONS = ["-h", "--help", "--config", "--out", "--M", "--N", "--alpha", "--beta",
                  "--theta", "--L", "--n-tx", "--n-rx", "--seed"]


def test_cli_surface_flags_match_json_keys(tmp_path):
    # no subcommand gains or loses an option
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: [o for a in p._actions for o in a.option_strings]
               for name, p in sub.choices.items()}
    assert options == {"capacity": SYSTEM_OPTIONS + SWEEP_OPTIONS,
                       "ber": SYSTEM_OPTIONS + SWEEP_OPTIONS,
                       "gram": SYSTEM_OPTIONS}

    # each sweep setting changes the output, and its flag and its JSON key
    # write the same bytes over the same base file
    base = {"M": 2, "N": 2, "alpha": 0.9, "beta": 0.9, "snr_db": [0.0, 8.0],
            "n_realizations": 2, "n_frames": 2}
    cases = [
        ("capacity", ["--snr", "0,7"], {"snr_db": [0.0, 7.0]}),
        ("capacity", ["--realizations", "3"], {"n_realizations": 3}),
        ("capacity", ["--schemes", "siso_nopa,siso_pa"], {"schemes": ["siso_nopa", "siso_pa"]}),
        ("ber", ["--frames", "4"], {"n_frames": 4}),
        ("ber", ["--constellation", "qpsk"], {"constellation": "qpsk"}),
        ("ber", ["--n-tx", "2", "--n-rx", "2", "--schemes", "sic"],
         {"n_tx": 2, "n_rx": 2, "schemes": ["sic"]}),
    ]

    def run(command, name, flags, settings):
        conf = tmp_path / f"{name}.json"
        conf.write_text(json.dumps(settings))
        out = tmp_path / name
        assert cli.main([command, "--config", str(conf), "--out", str(out)] + flags) == 0
        return (out / f"{command}.csv").read_bytes()

    for i, (command, flags, keys) in enumerate(cases):
        by_flag = run(command, f"flag{i}", flags, base)
        assert by_flag == run(command, f"key{i}", [], {**base, **keys}), flags
        assert by_flag != run(command, f"base{i}", [], base), flags
