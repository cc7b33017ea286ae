from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adwynn.adaptive import Trajectory, starting_design
from adwynn.cli import main, read_replay_file
from adwynn.model import BUILTIN_MODELS, builtin_bundle


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "model": {"name": "michaelis_menten"},
        "theta_bar": [1.0, 1.0],
        "noise": {"variant": "iid_gaussian", "sigma": 0.1},
        "wynn": {"n_max": 12},
        "mc": {"replicates": 2, "checkpoints": [8, 12], "workers": 1},
        "oracle": {"theta": [1.0, 1.0], "tol": 1e-4},
        "seed": 7,
        "output": {"dir": str(tmp_path), "prefix": "t"},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


# ---------------------------------------------------------------- config


def test_config_missing_model_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"wynn": {"n_max": 5}}))
    rc = main(["simulate", "--config", str(path)])
    assert rc == 2
    assert "missing required key $.model" in capsys.readouterr().err


def test_config_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n "model": {\n BROKEN\n}\n}')
    rc = main(["simulate", "--config", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert ":3:" in err  # line of the defect


def test_config_validates_theta_bar(tmp_path, capsys):
    path, _ = _write_config(tmp_path, theta_bar=[9.0, 9.0])
    rc = main(["simulate", "--config", str(path)])
    assert rc == 2
    assert "theta_bar" in capsys.readouterr().err


def test_config_validates_noise(tmp_path, capsys):
    path, _ = _write_config(tmp_path, noise={"variant": "iid_scaled_t", "df": 3.0, "scale": 1.0})
    rc = main(["simulate", "--config", str(path)])
    assert rc == 2


def test_config_rejects_non_numeric_values(tmp_path, capsys):
    path, _ = _write_config(tmp_path, wynn={"n_max": "many"})
    assert main(["simulate", "--config", str(path)]) == 2
    path, _ = _write_config(tmp_path, theta_bar=["a", "b"])
    assert main(["simulate", "--config", str(path)]) == 2
    path, _ = _write_config(
        tmp_path, mc={"replicates": 2, "checkpoints": ["x"], "workers": 1}
    )
    assert main(["mc", "--config", str(path)]) == 2
    path, _ = _write_config(tmp_path, noise={"variant": "iid_gaussian", "sigma": "low"})
    assert main(["simulate", "--config", str(path)]) == 2


_BEYOND_FLOAT = 10**400  # a JSON integer literal that no float can hold


@pytest.mark.parametrize(
    "section,entries,key",
    [
        ("wynn", {"theta_check_points_per_axis": 5}, "theta_check_points_per_axis"),
        ("wynn", {"polish": "no"}, "$.wynn.polish"),
        ("wynn", {"estimator": 5}, "$.wynn.estimator"),
        ("wynn", {"refresh_evry": 3}, "$.wynn.refresh_evry"),
        ("fit", {"grid_points_per_axis": 15}, "grid_points_per_axis"),
        ("fit", {"max_halvings": 40}, "max_halvings"),
        ("fit", {"max_iterations": 200}, "$.fit.max_iterations"),
        ("fit", {"step_tol": 1e-10}, "step_tol"),
        ("fit", {"max_iter": 5}, "$.fit.max_iter"),
        ("mc", {"replicate": 2}, "$.mc.replicate"),
        ("oracle", {"tolerance": 1e-4}, "$.oracle.tolerance"),
        ("source", {"kind": "simulated", "file": "r.txt"}, "$.source.file"),
        ("output", {"prefx": "u"}, "$.output.prefx"),
        ("mc", {"keep_paths": True}, "$.mc.keep_paths"),
        ("oracle", {"max_iterations": True}, "$.oracle.max_iterations"),
        ("oracle", {"tol": True}, "$.oracle.tol"),
        ("model", {"parmas": {"grid_resolution": 11}}, "$.model.parmas"),
        ("$", {"seed": True}, "$.seed"),
        ("$", {"sed": 5}, "$.sed"),
        ("oracle", {"tol": -1e-4}, "$.oracle.tol"),
        ("oracle", {"tol": math.nan}, "$.oracle.tol"),
        ("oracle", {"max_iterations": 100000}, "$.oracle.max_iterations"),
        ("model", {"params": {"x_bounds": [0, _BEYOND_FLOAT]}}, "x_bounds"),
        ("model", {"name": "polynomial", "params": {"coef_bound": _BEYOND_FLOAT}}, "coef_bound"),
        ("model", {"params": {"grid_resolution": 21.5}}, "grid_resolution"),
        ("model", {"params": {"x_bounds": [[0.1, 3.0]]}}, "x_bounds"),
        ("model", {"params": {"theta_bounds": [0.2, 3.0]}}, "theta_bounds"),
        ("model", {"name": "one_param_exponential", "params": {"theta_bounds": [[0.5, 2.0]]}}, "theta_bounds"),
        ("model", {"params": {"degree": 2}}, "degree"),
        ("noise", {"sigma": _BEYOND_FLOAT}, "$.noise"),
        ("$", {"theta_bar": [_BEYOND_FLOAT, 1.0]}, "$.theta_bar"),
        ("oracle", {"tol": _BEYOND_FLOAT}, "$.oracle.tol"),
        ("wynn", {"refresh_every": 3}, "$.wynn.refresh_every"),
        ("wynn", {"pd_floor": 1e-8}, "$.wynn.pd_floor"),
    ],
)
def test_config_bad_section_value_exits_2_naming_key(tmp_path, capsys, section, entries, key):
    """``section`` "$" puts the entries at the top level of the document.  The
    keys of the fixed numerical settings are retired: set even to the fixed
    value, each exits 2 as an unknown key."""
    _, cfg = _write_config(tmp_path)
    overrides = entries if section == "$" else {section: {**cfg.get(section, {}), **entries}}
    path, _ = _write_config(tmp_path, **overrides)
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


def test_config_integer_literal_beyond_digit_limit_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"model": {"name": "michaelis_menten"}, "seed": ' + "9" * 5000 + "}")
    assert main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_grid_too_large_to_allocate_exits_1(tmp_path, capsys):
    # 10**18 float64 grid points are 8 EiB, beyond any address space, so the
    # allocation fails at once
    params = {"grid_resolution": 10**18}
    path, _ = _write_config(tmp_path, model={"name": "michaelis_menten", "params": params})
    assert main(["oracle", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


# integers stay at most 50 so that no n_max, grid or iteration count makes an example
# slow; the model's degree and the per-axis counts of the parameter grids, whose sizes
# grow as a power of p, stay smaller still
_INT = st.integers(-3, 50)
# JSON integers beyond float range, which json.loads keeps as Python ints
_HUGE = st.integers(10**309, 10**400) | st.integers(-(10**400), -(10**309))
_NUMBER = st.one_of(
    _INT,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300]),
    _HUGE,
)
# JSON values that no integer key accepts: the integers a key can take come from its
# own strategy below
_OTHER_TYPE = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(_NUMBER, max_size=3),
    st.lists(st.lists(_NUMBER, max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), _INT, max_size=2),
)
_VECTOR = st.one_of(st.lists(_NUMBER, max_size=3), st.lists(st.floats(0.0, 4.0), min_size=1, max_size=3))
_PAIRS = st.lists(st.lists(st.floats(-1.0, 4.0), min_size=2, max_size=2), min_size=1, max_size=3)
# the documented keys of docs/formats.md (except $.output, which says where files go),
# each with values of its own type, in and out of range, beside values of other types
_DOCUMENTED_KEYS = {
    ("model", "name"): st.sampled_from(sorted(BUILTIN_MODELS)),
    ("model", "params", "x_bounds"): _VECTOR,
    ("model", "params", "grid_resolution"): _INT,
    ("model", "params", "theta_bounds"): st.one_of(_PAIRS, _VECTOR),
    ("model", "params", "degree"): st.integers(-2, 2),
    ("model", "params", "coef_bound"): _NUMBER,
    ("theta_bar",): _VECTOR,
    ("noise", "variant"): st.sampled_from(
        ["iid_gaussian", "iid_scaled_t", "heteroscedastic", "non_ah"]
    ),
    ("noise", "sigma"): _NUMBER,
    ("source", "kind"): st.sampled_from(["simulated", "replay"]),
    ("source", "replay_file"): st.text(max_size=4),
    ("wynn", "n_max"): _INT,
    ("oracle", "theta"): _VECTOR,
    ("oracle", "tol"): _NUMBER,
    ("mc", "replicates"): _INT,
    ("mc", "checkpoints"): _VECTOR,
    ("mc", "workers"): _INT,
    ("mc", "keep_paths"): _INT,
    ("seed",): st.integers(-(2**70), 2**70),
}
_MUTATION = st.sampled_from(sorted(_DOCUMENTED_KEYS)).flatmap(
    lambda key: st.tuples(st.just(key), st.one_of(_DOCUMENTED_KEYS[key], _OTHER_TYPE))
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["simulate", "oracle"]),
    mutations=st.lists(_MUTATION, min_size=1, max_size=3),
)
def test_any_config_exits_0_1_or_2(command, mutations):
    """Documented keys set to values of any JSON type, in or out of range:
    the command returns 0, 1 or 2 with a one-line error, never a traceback."""
    with tempfile.TemporaryDirectory() as out:
        cfg = {
            "model": {"name": "michaelis_menten", "params": {"grid_resolution": 21}},
            "theta_bar": [1.0, 1.0],
            "noise": {"variant": "iid_gaussian", "sigma": 0.1},
            "wynn": {"n_max": 20},
            "oracle": {"theta": [1.0, 1.0]},
            "seed": 7,
            "output": {"dir": out, "prefix": "t"},
        }
        for key, value in mutations:
            node = cfg
            for part in key[:-1]:
                if not isinstance(node.get(part), dict):
                    node[part] = {}
                node = node[part]
            node[key[-1]] = value
        path = f"{out}/cfg.json"
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--config", path])
    assert rc in (0, 1, 2)
    if rc:
        prefix = "config error: " if rc == 2 else "error: "
        assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1


# ---------------------------------------------------------------- simulate


def test_simulate_writes_trajectory(tmp_path, capsys):
    path, _ = _write_config(tmp_path)
    rc = main(["simulate", "--config", str(path), "--n-max", "4"])
    assert rc == 0
    csv_lines = (tmp_path / "t_trajectory.csv").read_text().splitlines()
    assert csv_lines[0] == "n,x0,y,theta0,theta1,logdet,max_d"
    assert len(csv_lines) == 1 + (4 - 2)  # header + n_max - n_start rows
    obj = json.loads((tmp_path / "t_trajectory.json").read_text())
    assert obj["schema"] == "adwynn.trajectory.v1"
    assert len(obj["points"]) == 4
    # the fixed settings, in the layout of the files written while they were keys
    assert json.dumps(obj["config"]) == json.dumps({
        "n_max": 4, "pd_floor": 1e-8, "theta_check_points_per_axis": 5,
        "fit": {"grid_points_per_axis": 15, "max_iterations": 200, "step_tol": 1e-10,
                "max_halvings": 40},
    })


def test_simulate_deterministic_bytes(tmp_path):
    path, _ = _write_config(tmp_path)
    main(["simulate", "--config", str(path), "--prefix", "a"])
    main(["simulate", "--config", str(path), "--prefix", "b"])
    a = (tmp_path / "a_trajectory.json").read_bytes()
    b = (tmp_path / "b_trajectory.json").read_bytes()
    assert a == b
    assert (tmp_path / "a_trajectory.csv").read_bytes() == (
        tmp_path / "b_trajectory.csv"
    ).read_bytes()
    main(["simulate", "--config", str(path), "--prefix", "c", "--seed", "8"])
    assert (tmp_path / "c_trajectory.json").read_bytes() != a


def test_simulate_replay_source(tmp_path):
    replay = tmp_path / "replay.txt"
    replay.write_text("OBSERVE 0.5\nOBSERVE 0.7\n\nOBSERVE 0.2\nOBSERVE 0.1\n")
    path, _ = _write_config(
        tmp_path, source={"kind": "replay", "replay_file": str(replay)}
    )
    rc = main(["simulate", "--config", str(path), "--n-max", "4", "--prefix", "rp"])
    assert rc == 0
    obj = json.loads((tmp_path / "rp_trajectory.json").read_text())
    assert obj["responses"] == [0.5, 0.7, 0.2, 0.1]


def test_simulate_replay_exhaustion_exits_1(tmp_path, capsys):
    replay = tmp_path / "replay.txt"
    replay.write_text("OBSERVE 0.5\n")
    path, _ = _write_config(
        tmp_path, source={"kind": "replay", "replay_file": str(replay)}
    )
    rc = main(["simulate", "--config", str(path), "--n-max", "4"])
    assert rc == 1
    assert "exhausted" in capsys.readouterr().err


def test_simulate_with_regressors_not_finite_exits_1_naming_the_point(tmp_path, capsys):
    # f(0, theta) is 0/0 at theta2 = 0, where the start's parameter sample reaches
    path, _ = _write_config(
        tmp_path,
        model={"name": "michaelis_menten",
               "params": {"x_bounds": [0.0, 3.0], "theta_bounds": [[0.2, 3.0], [0.0, 3.0]]}},
        theta_bar=[1.0, 0.02], wynn={"n_max": 300}, seed=0,
    )
    assert main(["simulate", "--config", str(path)]) == 1
    assert "regressors are not finite at x = [0.0]" in capsys.readouterr().err
    assert not (tmp_path / "t_trajectory.json").exists()


@pytest.mark.parametrize("command", ["simulate", "mc"])
def test_regressors_not_finite_print_one_error_line(tmp_path, command):
    """The 0/0 of the corner above reaches stderr only as the program's one
    error line, without numpy's warnings about it; run as the console
    command, since pytest collects the warnings it would print."""
    path, _ = _write_config(
        tmp_path,
        model={"name": "michaelis_menten",
               "params": {"x_bounds": [0.0, 3.0], "theta_bounds": [[0.2, 3.0], [0.0, 3.0]]}},
        theta_bar=[1.0, 0.02], wynn={"n_max": 300}, seed=0,
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    path_entries = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
    proc = subprocess.run([sys.executable, "-m", "adwynn.cli", command, "--config", str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("error: model michaelis_menten: regressors are not finite at "
                           "x = [0.0], theta = [0.2, 0.0]\n")


def test_read_replay_file_validates(tmp_path):
    from adwynn.errors import ConfigError

    bad = tmp_path / "bad.txt"
    bad.write_text("OBSERVE 1.0\nNOPE 2\n")
    with pytest.raises(ConfigError):
        read_replay_file(str(bad))
    for value in ("nan", "inf"):
        bad.write_text(f"OBSERVE 1.0\n\nOBSERVE {value}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{bad}:3: observation must be finite")):
            read_replay_file(str(bad))


_NOISE_PARAMS = {
    "iid_gaussian": {"sigma": 0.1},
    "iid_scaled_t": {"df": 6.0, "scale": 0.1},
    "heteroscedastic": {"sigma": 0.1, "decay": 1.0},
    "non_ah": {"sigma_odd": 0.05, "sigma_even": 0.1},
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "section,variant,key",
    [("noise", variant, key) for variant, params in _NOISE_PARAMS.items() for key in params],
)
def test_nonfinite_config_value_exits_2(tmp_path, capsys, section, variant, key, value):
    """json reads NaN and Infinity; they fail at the config boundary, naming the key."""
    override = {"noise": {"variant": variant, **_NOISE_PARAMS[variant], key: value}}
    path, _ = _write_config(tmp_path, **override)
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: $.{section}: {key} must be a finite number")
    assert not (tmp_path / "t_trajectory.json").exists()


@pytest.mark.parametrize("command, source", [
    ("simulate", "simulated"), ("simulate", "replay"), ("session", "stdin"),
])
def test_n_max_flag_below_one_exits_2_naming_the_flag(tmp_path, capsys, command, source):
    replay = tmp_path / "replay.txt"
    replay.write_text("OBSERVE 0.5\n")
    extra = {"source": {"kind": "replay", "replay_file": str(replay)}} if source == "replay" else {}
    path, _ = _write_config(tmp_path, **extra)
    assert main([command, "--config", str(path), "--n-max", "0"]) == 2
    assert capsys.readouterr().err == "config error: --n-max must be finite and >= 1, got 0\n"
    assert not (tmp_path / "t_trajectory.json").exists()


def test_simulate_n_max_below_start_exits_2(tmp_path, capsys):
    path, _ = _write_config(tmp_path)
    assert main(["simulate", "--config", str(path), "--n-max", "1"]) == 2
    assert "below the starting design size" in capsys.readouterr().err


# ---------------------------------------------------------------- oracle


def test_oracle_polynomial(tmp_path):
    cfg = {
        "model": {"name": "polynomial", "params": {"degree": 1}},
        "oracle": {"theta": [0.0, 0.0], "tol": 1e-6},
        "output": {"dir": str(tmp_path), "prefix": "po"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["oracle", "--config", str(path)])
    assert rc == 0
    obj = json.loads((tmp_path / "po_design.json").read_text())
    w = {round(s[0], 6): w for s, w in zip(obj["support"], obj["weights"])}
    assert w[-1.0] == pytest.approx(0.5, abs=1e-3)
    assert w[1.0] == pytest.approx(0.5, abs=1e-3)
    assert obj["equivalence_gap"] <= 2e-6
    assert "logdet" in obj


def test_oracle_single_parameter_model(tmp_path):
    cfg = {
        "model": {"name": "one_param_exponential"},
        "oracle": {"theta": [1.0], "tol": 1e-6},
        "output": {"dir": str(tmp_path), "prefix": "p1"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["oracle", "--config", str(path)])
    assert rc == 0
    obj = json.loads((tmp_path / "p1_design.json").read_text())
    assert len(obj["support"]) == 1
    assert obj["weights"] == [1.0]


@pytest.mark.parametrize("tol", ["nan", "-1e-4", "inf"])
def test_oracle_bad_tol_flag_exits_2(tmp_path, capsys, tol):
    path, _ = _write_config(tmp_path)
    assert main(["oracle", "--config", str(path), f"--tol={tol}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--tol" in err


def test_oracle_unattainable_tol_exits_1(tmp_path, capsys):
    path, _ = _write_config(tmp_path, oracle={"theta": [0.2, 0.2], "tol": 1e-4})
    rc = main(["oracle", "--config", str(path), "--tol", "0"])
    assert rc == 1
    assert "gap" in capsys.readouterr().err


# ---------------------------------------------------------------- mc


def test_mc_smoke_run(tmp_path):
    import time

    path, _ = _write_config(
        tmp_path, wynn={"n_max": 50}, mc={"replicates": 2, "checkpoints": [25, 50], "workers": 1}
    )
    t0 = time.time()
    rc = main(["mc", "--config", str(path)])
    assert time.time() - t0 < 10.0
    assert rc == 0
    obj = json.loads((tmp_path / "t_mc.json").read_text())
    assert obj["replicates"] == 2
    assert set(obj["per_checkpoint"]) == {"25", "50"}
    csv_lines = (tmp_path / "t_mc.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 2 * 2  # header + R x checkpoints


def test_mc_zero_noise_errors_tiny(tmp_path):
    path, _ = _write_config(
        tmp_path,
        noise={"variant": "iid_gaussian", "sigma": 0.0},
        mc={"replicates": 5, "checkpoints": [10], "workers": 1},
    )
    rc = main(["mc", "--config", str(path)])
    assert rc == 0
    obj = json.loads((tmp_path / "t_mc.json").read_text())
    errs = obj["per_checkpoint"]["10"]["error_samples"]
    assert max(errs) <= 1e-6


def test_mc_deterministic_bytes(tmp_path):
    path, _ = _write_config(tmp_path)
    main(["mc", "--config", str(path), "--prefix", "m1"])
    main(["mc", "--config", str(path), "--prefix", "m2"])
    assert (tmp_path / "m1_mc.json").read_bytes() == (tmp_path / "m2_mc.json").read_bytes()
    assert (tmp_path / "m1_mc.csv").read_bytes() == (tmp_path / "m2_mc.csv").read_bytes()


@pytest.mark.parametrize(
    "mc,flags,key",
    [
        ({"checkpoints": []}, [], "$.mc.checkpoints"),
        ({"checkpoints": [10, 10]}, [], "$.mc.checkpoints"),
        ({"checkpoints": [12, 0]}, [], "$.mc.checkpoints[1]"),
        ({"checkpoints": 12}, [], "$.mc.checkpoints"),
        ({"replicates": 0}, [], "$.mc.replicates"),
        ({"workers": -3}, [], "$.mc.workers"),
        ({"keep_paths": -1}, [], "$.mc.keep_paths"),
        ({}, ["--replicates", "0"], "--replicates"),
        ({}, ["--workers", "0"], "--workers"),
    ],
)
def test_mc_bad_value_exits_2_naming_key(tmp_path, capsys, mc, flags, key):
    path, _ = _write_config(
        tmp_path, mc={"replicates": 2, "checkpoints": [8, 12], "workers": 1, **mc}
    )
    assert main(["mc", "--config", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not (tmp_path / "t_mc.json").exists()


@pytest.mark.parametrize(
    "overrides,key",
    [
        ({"mc": {"replicates": 2, "checkpoints": [1, 12], "workers": 1}}, "$.mc.checkpoints"),
        ({"mc": {"replicates": 2, "workers": 1}, "wynn": {"n_max": 1}}, "$.wynn.n_max"),
    ],
    ids=["checkpoints", "n_max"],
)
def test_mc_checkpoint_before_start_exits_2(tmp_path, capsys, monkeypatch, overrides, key):
    """A checkpoint below the starting design exits 2 naming where it came
    from, before any replicate runs or any file is written."""
    import adwynn.analysis as analysis

    ran = []
    monkeypatch.setattr(analysis, "_replicate_worker", lambda args: ran.append(args))
    path, _ = _write_config(tmp_path, **overrides)
    assert main(["mc", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert "precedes the starting design size" in err
    assert ran == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# ---------------------------------------------------------------- diagnose


def test_diagnose_two_point_trajectory(tmp_path):
    path, _ = _write_config(tmp_path)
    main(["simulate", "--config", str(path), "--n-max", "30", "--prefix", "dg"])
    rc = main(
        [
            "diagnose",
            str(tmp_path / "dg_trajectory.json"),
            "--d",
            "0.05",
            "--cell-diameter",
            "0.05",
            "--out-dir",
            str(tmp_path),
            "--prefix",
            "dg",
        ]
    )
    assert rc == 0
    obj = json.loads((tmp_path / "dg_diagnostics.json").read_text())
    assert obj["requested_clusters"] == 2
    assert obj["n0"] is None or obj["n0"] >= 1
    assert len(obj["window_masses"]) == 30


def test_diagnose_reads_trajectory_echoing_retired_wynn_keys(tmp_path):
    # trajectories written before polish, refresh_every and estimator were retired
    path, _ = _write_config(tmp_path)
    main(["simulate", "--config", str(path), "--n-max", "20", "--prefix", "old"])
    traj_path = tmp_path / "old_trajectory.json"
    obj = json.loads(traj_path.read_text())
    obj["config"].update({"polish": False, "refresh_every": 1, "estimator": "ls"})
    traj_path.write_text(json.dumps(obj))
    assert Trajectory.from_jsonable(obj).config_echo["estimator"] == "ls"
    flags = ["--d", "0.05", "--cell-diameter", "0.05", "--out-dir", str(tmp_path)]
    assert main(["diagnose", str(traj_path), *flags, "--prefix", "old"]) == 0
    assert (tmp_path / "old_diagnostics.json").exists()


def test_diagnose_huge_window_is_total_mass(tmp_path):
    path, _ = _write_config(tmp_path)
    main(["simulate", "--config", str(path), "--n-max", "10", "--prefix", "dh"])
    rc = main(
        [
            "diagnose",
            str(tmp_path / "dh_trajectory.json"),
            "--d",
            "10.0",
            "--cell-diameter",
            "0.1",
            "--out-dir",
            str(tmp_path),
            "--prefix",
            "dh",
        ]
    )
    assert rc == 0
    obj = json.loads((tmp_path / "dh_diagnostics.json").read_text())
    assert all(v == 1.0 for v in obj["window_masses"].values())


def test_diagnose_masses_match_recount(tmp_path):
    path, _ = _write_config(tmp_path)
    main(["simulate", "--config", str(path), "--n-max", "25", "--prefix", "dr"])
    traj = json.loads((tmp_path / "dr_trajectory.json").read_text())
    main(
        [
            "diagnose",
            str(tmp_path / "dr_trajectory.json"),
            "--d",
            "0.05",
            "--cell-diameter",
            "0.05",
            "--out-dir",
            str(tmp_path),
            "--prefix",
            "dr",
        ]
    )
    obj = json.loads((tmp_path / "dr_diagnostics.json").read_text())
    pts = np.asarray(traj["points"], dtype=float).ravel()
    for cluster in obj["clusters"]:
        lo, hi = cluster["point_min"][0], cluster["point_max"][0]
        count = int(np.sum((pts >= lo) & (pts <= hi)))
        assert cluster["count"] <= count  # recount over the span bounds the members


def test_diagnose_parse_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{broken")
    rc = main(["diagnose", str(bad), "--d", "0.1", "--cell-diameter", "0.1"])
    assert rc == 2


def _twenty_point_trajectory(tmp_path):
    path, _ = _write_config(tmp_path)
    main(["simulate", "--config", str(path), "--n-max", "20", "--prefix", "tw"])
    return str(tmp_path / "tw_trajectory.json")


@pytest.mark.parametrize("n", ["500", "1"])
def test_diagnose_n_outside_trajectory_exits_2(tmp_path, capsys, n):
    traj = _twenty_point_trajectory(tmp_path)
    capsys.readouterr()
    rc = main(["diagnose", traj, "--d", "0.1", "--cell-diameter", "0.1", "--n", n])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--n" in err and "20" in err
    assert not (tmp_path / "adwynn_diagnostics.json").exists()


@pytest.mark.parametrize("flag", ["--d", "--cell-diameter"])
@pytest.mark.parametrize("value", ["0", "-0.1"])
def test_diagnose_nonpositive_diameter_exits_2(tmp_path, capsys, flag, value):
    traj = _twenty_point_trajectory(tmp_path)
    capsys.readouterr()
    args = {"--d": "0.1", "--cell-diameter": "0.1", flag: value}
    rc = main(["diagnose", traj, *[a for kv in args.items() for a in kv]])
    assert rc == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--epsilon", "nan"), ("--epsilon", "-1"), ("--epsilon", "0"), ("--epsilon", "inf"),
     ("--d", "inf"), ("--cell-diameter", "inf")],
    ids=["nan", "-1", "0", "inf", "d-inf", "cell-diameter-inf"],
)
def test_diagnose_epsilon_must_be_positive(tmp_path, capsys, flag, value):
    # a NaN epsilon made every stage pass the mass bound; an infinite epsilon
    # gave n0 = 1, and infinite diameters one cluster
    traj = _twenty_point_trajectory(tmp_path)
    capsys.readouterr()
    args = {"--d": "0.1", "--cell-diameter": "0.1", "--epsilon": "0.05", flag: value}
    assert main(["diagnose", traj, *[a for kv in args.items() for a in kv]]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "adwynn_diagnostics.json").exists()


def _swap_bounds(box):
    return {**box, "lower": box["upper"], "upper": box["lower"]}


def _shift_one_record(records):
    records[3] = {**records[3], "y_next": records[3]["y_next"] + 1.0}
    return records


@pytest.mark.parametrize(
    "key, corrupt",
    [
        ("seed", lambda v: None),
        ("points", lambda v: 5),
        ("records", lambda v: 5),
        ("final_fit", lambda v: 5),
        ("design_space", _swap_bounds),
        ("design_space", lambda v: {}),
        ("design_space", lambda v: {"kind": "sphere"}),
        ("points", lambda v: [[math.nan]] * len(v)),
        ("records", _shift_one_record),
    ],
    ids=["seed-null", "points-5", "records-5", "final_fit-5", "box-lower-above-upper",
         "region-empty", "region-sphere", "points-nan", "record-off-its-column"],
)
def test_diagnose_malformed_trajectory_exits_2(tmp_path, capsys, key, corrupt):
    """A trajectory file with one bad key exits 2 naming the file and the key,
    where it once ended in a traceback, exit 1, or meaningless clusters; a
    design_space that is neither a box nor a finite set is such a key."""
    traj = _twenty_point_trajectory(tmp_path)
    obj = json.loads(Path(traj).read_text())
    obj[key] = corrupt(obj[key])
    Path(traj).write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["diagnose", traj, "--d", "0.1", "--cell-diameter", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot parse trajectory file {traj}: {key}"), err
    assert not (tmp_path / "adwynn_diagnostics.json").exists()


def test_write_json_is_strict_json(tmp_path):
    from dataclasses import replace

    from adwynn.adaptive import Scenario, WynnConfig
    from adwynn.analysis import run_study
    from adwynn.cli import write_json
    from adwynn.noise import IIDGaussian

    mm = builtin_bundle("michaelis_menten")
    scenario = Scenario(
        mm.model,
        mm.design_space,
        mm.parameter_space,
        np.array([1.0, 1.0]),
        IIDGaussian(0.1),
        WynnConfig(n_max=10),
    )
    report = run_study(scenario, 2, [10], seed=3)
    report = replace(
        report,
        defficiency_samples={10: np.array([math.nan, 0.9])},
        defficiency_quantiles={10: (math.nan,) * 5},
    )
    path = tmp_path / "r_mc.json"
    write_json(path, report.to_jsonable())

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    obj = json.loads(path.read_text(), parse_constant=reject)
    assert obj["per_checkpoint"]["10"]["defficiency_samples"] == [None, 0.9]
    assert obj["per_checkpoint"]["10"]["defficiency_quantiles"] == [None] * 5


# ---------------------------------------------------------------- session


class _Duplex:
    """Joint fake stdin/stdout driving the session protocol in-process."""

    def __init__(self, respond):
        self.out_lines: list[str] = []
        self._respond = respond
        self._buffer = ""

    # stdout side
    def write(self, s):
        self._buffer += s
        while "\n" in self._buffer:
            line, self._buffer = self._buffer.split("\n", 1)
            self.out_lines.append(line)

    def flush(self):
        pass

    # stdin side
    def readline(self):
        reply = self._respond(self.out_lines)
        return reply if reply is not None else ""


def _session_config(tmp_path, n_max=8):
    cfg = {
        "model": {"name": "michaelis_menten"},
        "wynn": {"n_max": n_max},
        "seed": 3,
        "output": {"dir": str(tmp_path), "prefix": "s"},
    }
    path = tmp_path / "sess.json"
    path.write_text(json.dumps(cfg))
    return path


def test_session_noiseless_pipe_recovers_truth(tmp_path, monkeypatch):
    theta_bar = np.array([1.0, 1.0])
    bundle = builtin_bundle("michaelis_menten")

    def respond(lines):
        last = lines[-1]
        assert last.startswith("SUGGEST") or last.startswith("ERR")
        for line in reversed(lines):
            if line.startswith("SUGGEST"):
                x = float(line.split()[2])
                y = float(bundle.model.mu(np.array([x]), theta_bar))
                return f"OBSERVE {y!r}\n"
        raise AssertionError("no SUGGEST before read")

    duplex = _Duplex(respond)
    monkeypatch.setattr(sys, "stdin", duplex)
    monkeypatch.setattr(sys, "stdout", duplex)
    rc = main(["session", "--config", str(_session_config(tmp_path, n_max=20))])
    assert rc == 0
    obj = json.loads((tmp_path / "s_trajectory.json").read_text())
    assert np.allclose(obj["final_fit"]["theta_hat"], theta_bar, atol=1e-6)
    estimates = [l for l in duplex.out_lines if l.startswith("ESTIMATE")]
    assert len(estimates) == 20 - obj["n_start"] + 1

    # cross-check against a zero-noise simulated run: identical responses
    # must drive identical point selection and an identical final record
    sim_cfg = {
        "model": {"name": "michaelis_menten"},
        "theta_bar": [1.0, 1.0],
        "noise": {"variant": "iid_gaussian", "sigma": 0.0},
        "wynn": {"n_max": 20},
        "seed": 3,
        "output": {"dir": str(tmp_path), "prefix": "simref"},
    }
    (tmp_path / "simref.json").write_text(json.dumps(sim_cfg))
    assert main(["simulate", "--config", str(tmp_path / "simref.json")]) == 0
    ref = json.loads((tmp_path / "simref_trajectory.json").read_text())
    assert ref["points"] == obj["points"]
    assert np.allclose(ref["final_fit"]["theta_hat"], obj["final_fit"]["theta_hat"], atol=1e-12)


def test_session_immediate_quit_saves_partial(tmp_path, monkeypatch):
    duplex = _Duplex(lambda lines: "QUIT\n")
    monkeypatch.setattr(sys, "stdin", duplex)
    monkeypatch.setattr(sys, "stdout", duplex)
    rc = main(["session", "--config", str(_session_config(tmp_path))])
    assert rc == 1
    obj = json.loads((tmp_path / "s_trajectory.json").read_text())
    assert obj["points"] == []
    assert obj["final_fit"] is None


def test_session_malformed_observe_reprompts(tmp_path, monkeypatch):
    state = {"bad_sent": False}

    def respond(lines):
        if not state["bad_sent"]:
            state["bad_sent"] = True
            return "OBSERVE abc\n"
        return "QUIT\n"

    duplex = _Duplex(respond)
    monkeypatch.setattr(sys, "stdin", duplex)
    monkeypatch.setattr(sys, "stdout", duplex)
    rc = main(["session", "--config", str(_session_config(tmp_path))])
    assert rc == 1
    suggests = [l for l in duplex.out_lines if l.startswith("SUGGEST")]
    errs = [l for l in duplex.out_lines if l.startswith("ERR")]
    assert len(errs) == 1
    assert len(suggests) == 2
    assert suggests[0] == suggests[1]  # state unchanged, same prompt repeated
    obj = json.loads((tmp_path / "s_trajectory.json").read_text())
    assert obj["points"] == []


def test_session_eof_before_start_exits_1(tmp_path, monkeypatch):
    duplex = _Duplex(lambda lines: None)  # immediate EOF
    monkeypatch.setattr(sys, "stdin", duplex)
    monkeypatch.setattr(sys, "stdout", duplex)
    rc = main(["session", "--config", str(_session_config(tmp_path))])
    assert rc == 1


def _noiseless_until_quit(quit_when):
    """Session replies: noiseless responses at (1, 1) until ``quit_when``
    (responses sent so far, ESTIMATE lines seen) asks for QUIT."""
    bundle = builtin_bundle("michaelis_menten")
    sent = []

    def respond(lines):
        estimates = sum(line.startswith("ESTIMATE") for line in lines)
        if quit_when(len(sent), estimates):
            return "QUIT\n"
        x = float(lines[-1].split()[2])
        sent.append(float(bundle.model.mu(np.array([x]), np.array([1.0, 1.0]))))
        return f"OBSERVE {sent[-1]!r}\n"

    return respond


def test_session_quit_mid_loop_keeps_steps(tmp_path, monkeypatch):
    # one ESTIMATE follows the starting design, then one per adaptive step
    duplex = _Duplex(_noiseless_until_quit(lambda sent, estimates: estimates > 5))
    monkeypatch.setattr(sys, "stdin", duplex)
    monkeypatch.setattr(sys, "stdout", duplex)
    rc = main(["session", "--config", str(_session_config(tmp_path, n_max=20))])
    assert rc == 1
    obj = json.loads((tmp_path / "s_trajectory.json").read_text())
    assert len(obj["points"]) == obj["n_start"] + 5
    assert len(obj["records"]) == 5
    assert obj["final_fit"] is not None
    traj = Trajectory.from_jsonable(obj)
    assert traj.n == obj["n_start"] + 5
    assert traj.estimates.shape == (6, 2)
    header = (tmp_path / "s_trajectory.csv").read_text().splitlines()[0]
    assert header == "n,x0,y,theta0,theta1,logdet,max_d"


def test_session_quit_mid_start_has_no_fit(tmp_path, monkeypatch):
    duplex = _Duplex(_noiseless_until_quit(lambda sent, estimates: sent >= 1))
    monkeypatch.setattr(sys, "stdin", duplex)
    monkeypatch.setattr(sys, "stdout", duplex)
    rc = main(["session", "--config", str(_session_config(tmp_path))])
    assert rc == 1
    obj = json.loads((tmp_path / "s_trajectory.json").read_text())
    assert len(obj["points"]) == 1
    assert obj["estimates"] == []
    assert obj["final_fit"] is None
    assert Trajectory.from_jsonable(obj).estimates.shape == (0, 2)
    header = (tmp_path / "s_trajectory.csv").read_text().splitlines()[0]
    assert header == "n,x0,y,theta0,theta1,logdet,max_d"


def test_session_estimate_follows_each_refit(tmp_path, monkeypatch):
    duplex = _Duplex(_noiseless_until_quit(lambda sent, estimates: False))
    monkeypatch.setattr(sys, "stdin", duplex)
    monkeypatch.setattr(sys, "stdout", duplex)
    path = tmp_path / "sess.json"
    path.write_text(json.dumps({
        "model": {"name": "michaelis_menten"},
        "wynn": {"n_max": 12},
        "output": {"dir": str(tmp_path), "prefix": "s"},
    }))
    assert main(["session", "--config", str(path)]) == 0
    obj = json.loads((tmp_path / "s_trajectory.json").read_text())
    steps = 12 - obj["n_start"]
    estimates = [l for l in duplex.out_lines if l.startswith("ESTIMATE")]
    # one refit after the starting design, then one after every step
    assert len(estimates) == 1 + steps
    assert [[float(v) for v in l.split()[1:]] for l in estimates] == obj["estimates"]


def test_session_n_max_below_start_exits_2(tmp_path, monkeypatch, capsys):
    duplex = _Duplex(lambda lines: "QUIT\n")
    monkeypatch.setattr(sys, "stdin", duplex)
    rc = main(["session", "--config", str(_session_config(tmp_path, n_max=1))])
    assert rc == 2
    assert "below the starting design size" in capsys.readouterr().err
    assert not (tmp_path / "s_trajectory.json").exists()


class _Lab:
    """A session's stdin and stdout in-process.  It answers each read with
    the line ``script`` (the number of earlier reads) returns, '' being EOF,
    or with the noiseless response at (1, 1) to the last SUGGEST if that is
    None; and it records each write and each flush of stdout."""

    def __init__(self, script):
        self.script = script
        self.writes: list[str] = []
        self.flushed: list[int] = []  # the number of writes at each flush
        self.reads = 0
        self._mu = builtin_bundle("michaelis_menten").model.mu

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        self.flushed.append(len(self.writes))

    def readline(self):
        assert self.flushed and self.flushed[-1] == len(self.writes)  # the prompt is out
        line = self.script(self.reads)
        self.reads += 1
        if line is not None:
            return line
        x = float("".join(self.writes).splitlines()[-1].split()[2])
        return f"OBSERVE {float(self._mu(np.array([x]), np.array([1.0, 1.0])))!r}\n"


def _run_lab(tmp_path, monkeypatch, n_max, script):
    lab = _Lab(script)
    monkeypatch.setattr(sys, "stdin", lab)
    monkeypatch.setattr(sys, "stdout", lab)
    rc = main(["session", "--config", str(_session_config(tmp_path, n_max=n_max))])
    obj = json.loads((tmp_path / "s_trajectory.json").read_text())
    return rc, lab, obj


def _suggest(n, x):
    return f"SUGGEST {n} {' '.join(map(repr, x))}\n"


def _estimate(theta):
    return f"ESTIMATE {' '.join(map(repr, theta))}\n"


def test_session_transcripts_write_each_step_once(tmp_path, monkeypatch):
    """Four scripted sessions.  Each stdout is the protocol's line stream: a
    SUGGEST before each read, ERR and the same SUGGEST after a malformed
    line, an ESTIMATE after each refit.  Every ESTIMATE goes out in the same
    write and flush as the next SUGGEST, or alone as the session's last write,
    so an adaptive step costs one flush."""
    n_max = 8
    rc, lab, full = _run_lab(tmp_path, monkeypatch, n_max, lambda reads: None)
    assert rc == 0
    points, estimates, n_start = full["points"], full["estimates"], full["n_start"]
    steps = n_max - n_start
    starting = [_suggest(i + 1, x) for i, x in enumerate(points[:n_start])]
    adaptive = [_estimate(estimates[k]) + _suggest(n_start + k + 1, points[n_start + k])
                for k in range(steps)]
    assert lab.writes == starting + adaptive + [_estimate(estimates[-1])]
    assert lab.flushed == list(range(1, n_start + steps + 2))

    # a malformed line at the first adaptive prompt, then QUIT at the re-prompt
    script = {n_start: "OBSERVE abc\n", n_start + 1: "QUIT\n"}
    rc, lab, obj = _run_lab(tmp_path, monkeypatch, n_max, script.get)
    assert rc == 1 and obj["points"] == points[:n_start]
    prompt = _suggest(n_start + 1, points[n_start])
    assert lab.writes == starting + [
        _estimate(estimates[0]) + prompt, "ERR not a decimal: 'abc'\n" + prompt
    ]
    assert lab.flushed == list(range(1, n_start + 3))

    # EOF at the second starting point: no fit, so no ESTIMATE
    rc, lab, obj = _run_lab(tmp_path, monkeypatch, n_max, lambda reads: "" if reads else None)
    assert rc == 1 and obj["final_fit"] is None
    assert lab.writes == starting[:2] and lab.flushed == [1, 2]

    # n_max = n_start: the one ESTIMATE is the last write, flushed before main returns
    rc, lab, obj = _run_lab(tmp_path, monkeypatch, n_start, lambda reads: None)
    assert rc == 0 and obj["estimates"] == estimates[:1]
    assert lab.writes == starting + [_estimate(estimates[0])]
    assert lab.flushed == list(range(1, n_start + 2))


def test_session_console_writes_the_last_estimate_before_exit(tmp_path):
    """The console command with n_max = n_start: the refit's ESTIMATE is the
    last line of stdout, as the process leaves it."""
    bundle = builtin_bundle("michaelis_menten")
    start = starting_design(bundle.model, bundle.design_space, bundle.parameter_space)
    responses = [float(bundle.model.mu(x, np.array([1.0, 1.0]))) for x in start]
    path = _session_config(tmp_path, n_max=start.shape[0])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "adwynn.cli", "session", "--config", str(path)],
        input="".join(f"OBSERVE {y!r}\n" for y in responses),
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    obj = json.loads((tmp_path / "s_trajectory.json").read_text())
    assert proc.stdout == "".join(
        _suggest(i + 1, x) for i, x in enumerate(obj["points"])
    ) + _estimate(obj["estimates"][0])


_SESSION_LINE = st.one_of(
    st.floats().map(lambda v: f"OBSERVE {v!r}"),
    st.floats(-2.0, 2.0).map(lambda v: f"OBSERVE {v!r}"),
    st.sampled_from(["", "QUIT", " QUIT ", "OBSERVE", "OBSERVE abc", "OBSERVE 1 2",
                     "observe 1", "OBSERVE 1e151", "OBSERVE -1e150", "OBSERVE 0x10"]),
    st.text(st.characters(blacklist_characters="\n\r"), max_size=12),
)


def _accepts(line: str) -> bool:
    parts = line.split()
    if len(parts) != 2 or parts[0] != "OBSERVE":
        return False
    try:
        y = float(parts[1])
    except ValueError:
        return False
    return math.isfinite(y) and abs(y) <= 1e150


@settings(max_examples=25, deadline=None)
@given(lines=st.lists(_SESSION_LINE, max_size=14))
def test_any_session_input_reprompts_or_saves_a_round_tripping_trajectory(lines):
    """Any line sequence, then EOF: each malformed line gets ERR and the same
    prompt again, each accepted response lands in the trajectory in order, the
    ESTIMATE lines are the trajectory's estimates, and the partial or complete
    trajectory round-trips through Trajectory.from_jsonable."""
    n_max = 6
    accepted, errors = [], 0
    for line in lines:  # the protocol, line by line, until the run ends
        if line.strip() == "QUIT" or len(accepted) == n_max:
            break
        if _accepts(line):
            accepted.append(float(line.split()[1]))
        else:
            errors += 1
    with tempfile.TemporaryDirectory() as out:
        path = f"{out}/sess.json"
        with open(path, "w") as fh:
            json.dump({"model": {"name": "michaelis_menten"}, "wynn": {"n_max": n_max},
                       "output": {"dir": out, "prefix": "s"}}, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        stdin = io.StringIO("".join(line + "\n" for line in lines))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            saved, sys.stdin = sys.stdin, stdin
            try:
                rc = main(["session", "--config", path])
            finally:
                sys.stdin = saved
        with open(f"{out}/s_trajectory.json") as fh:
            obj = json.load(fh)
    assert rc == (0 if len(accepted) == n_max else 1), stderr.getvalue()
    out_lines = stdout.getvalue().splitlines()
    err_at = [i for i, line in enumerate(out_lines) if line.startswith("ERR ")]
    assert len(err_at) == errors
    for i in err_at:
        prompt = [line for line in out_lines[:i] if line.startswith("SUGGEST ")][-1]
        assert out_lines[i + 1] == prompt
    assert obj["responses"] == accepted
    estimates = [line for line in out_lines if line.startswith("ESTIMATE ")]
    assert [[float(v) for v in line.split()[1:]] for line in estimates] == obj["estimates"]
    if obj["n_start"] == 0:  # the starting design is incomplete
        assert obj["final_fit"] is None and obj["estimates"] == []
    else:
        assert obj["final_fit"]["theta_hat"] == obj["estimates"][-1]
        assert len(obj["estimates"]) == len(accepted) - obj["n_start"] + 1
    assert Trajectory.from_jsonable(obj).to_jsonable() == obj


def test_importing_the_cli_leaves_the_analysis_layer_unloaded():
    """A session imports only what it runs: the study and diagnostics
    commands import ``adwynn.analysis`` (and its process pool) themselves."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, adwynn.cli; print('adwynn.analysis' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
