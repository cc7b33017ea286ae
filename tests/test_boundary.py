"""Every numeric key of the run configuration and of the trajectory file,
set to a JSON boolean or a string (and each integer key to a fraction),
fails where it is read, with a message that begins with the key.

A case names the key as its message does: a ``$.`` path for the
configuration, ``$.model: <key>`` and ``$.noise: <key>`` for the
parameters that the model factory and the noise variant check, and the
bare dotted path for the trajectory file.  A list-valued key is tried
as a whole and at its first number.  The ids ending in
``once_accepted`` are the inputs an earlier reader took as numbers
(``true`` as 1.0, ``"0.1"`` as 0.1, ``201.5`` as 201), so that a config
or a file ran on values it never held.
"""

from __future__ import annotations

import copy
import json

import pytest

from adwynn.adaptive import Trajectory
from adwynn.cli import main
from adwynn.errors import DomainError

BASE = {
    "model": {"name": "michaelis_menten"},
    "theta_bar": [1.0, 1.0],
    "noise": {"variant": "iid_gaussian", "sigma": 0.1},
    "wynn": {"n_max": 12},
    "oracle": {"theta": [1.0, 1.0], "tol": 1e-4},
    "mc": {"replicates": 2, "checkpoints": [8, 12], "workers": 1, "keep_paths": 0},
    "seed": 7,
}
# the noise variant that takes each noise parameter, with valid values
NOISE = {
    "sigma": {"variant": "iid_gaussian", "sigma": 0.1},
    "df": {"variant": "iid_scaled_t", "df": 6.0, "scale": 0.1},
    "scale": {"variant": "iid_scaled_t", "df": 6.0, "scale": 0.1},
    "decay": {"variant": "heteroscedastic", "sigma": 0.1, "decay": 1.0},
    "sigma_odd": {"variant": "non_ah", "sigma_odd": 0.05, "sigma_even": 0.1},
    "sigma_even": {"variant": "non_ah", "sigma_odd": 0.05, "sigma_even": 0.1},
}
# the model that takes each model parameter, with a valid value
MODEL = {
    "x_bounds": ("michaelis_menten", [0.1, 3.0]),
    "grid_resolution": ("michaelis_menten", 21),
    "theta_bounds": ("michaelis_menten", [[0.2, 3.0], [0.2, 3.0]]),
    "degree": ("polynomial", 1),
    "coef_bound": ("polynomial", 2.0),
}
CONFIG_KEYS = (
    "$.seed", "$.wynn.n_max", "$.theta_bar", "$.oracle.theta", "$.oracle.tol",
    "$.mc.replicates", "$.mc.workers", "$.mc.keep_paths", "$.mc.checkpoints",
    *(f"$.noise.{key}" for key in NOISE), *(f"$.model.params.{key}" for key in MODEL),
)
FILE_KEYS = (
    "design_space.lower", "design_space.upper", "design_space.grid_resolution",
    "parameter_space.lower", "parameter_space.upper", "n_start", "seed", "final_fit.sse_value",
)
LISTS = {"$.theta_bar", "$.oracle.theta", "$.mc.checkpoints", "$.model.params.x_bounds",
         "$.model.params.theta_bounds", "design_space.lower", "design_space.upper",
         "design_space.grid_resolution", "parameter_space.lower", "parameter_space.upper"}
INTEGERS = {"$.seed", "$.wynn.n_max", "$.mc.replicates", "$.mc.workers", "$.mc.keep_paths",
            "$.mc.checkpoints", "$.model.params.grid_resolution", "$.model.params.degree",
            "design_space.grid_resolution", "n_start", "seed"}
ONCE_ACCEPTED = {
    '$.noise.sigma@value=true', '$.noise.sigma@value="0.1"', '$.noise.scale@value=true',
    '$.noise.scale@value="0.1"', '$.noise.decay@value=true', '$.noise.decay@value="0.1"',
    '$.noise.sigma_odd@value=true', '$.noise.sigma_even@value=true',
    '$.noise.sigma_even@value="0.1"',
    'design_space.lower@value=true', 'design_space.lower@value="0.1"',
    'design_space.lower@first=true', 'design_space.lower@first="0.1"',
    'design_space.upper@value=true', 'design_space.upper@first=true',
    'design_space.grid_resolution@first=201.5',
    'parameter_space.lower@first=true', 'parameter_space.lower@first="0.1"',
    'parameter_space.upper@first=true',
}


def _named(key: str, spot: str) -> str:
    """The start of the message for ``key`` set wrong at ``spot``."""
    section, _, last = key.rpartition(".")
    if section in ("$.noise", "$.model.params"):
        return f"{section.removesuffix('.params')}: {last}"
    return key + ("[0]" if key == "$.mc.checkpoints" and spot == "first" else "")


def _cases(keys):
    cases = []
    for key in keys:
        for spot in ("value", "first") if key in LISTS else ("value",):
            for bad in (True, "0.1", *([201.5] if key in INTEGERS else [])):
                case_id = f"{key}@{spot}={json.dumps(bad)}"
                if case_id in ONCE_ACCEPTED:
                    case_id += "-once_accepted"
                cases.append(pytest.param(key, spot, bad, id=case_id))
    return cases


def _set(doc: dict, key: str, spot: str, bad) -> None:
    """Set ``key`` of ``doc`` (a dotted path, '$.' for the root) to ``bad``,
    or with ``spot`` "first" the first number of its list."""
    parts = key.removeprefix("$.").split(".")
    for part in parts[:-1]:
        doc = doc[part]
    if spot == "value":
        doc[parts[-1]] = bad
        return
    node = doc[parts[-1]]
    while isinstance(node[0], list):
        node = node[0]
    node[0] = bad


def _config_for(key: str) -> dict:
    cfg = copy.deepcopy(BASE)
    section, _, last = key.rpartition(".")
    if section == "$.noise":
        cfg["noise"] = dict(NOISE[last])
    elif section == "$.model.params":
        name, value = MODEL[last]
        cfg["model"] = {"name": name, "params": {last: value}}
    return cfg


@pytest.mark.parametrize("key, spot, bad", _cases(CONFIG_KEYS))
def test_config_value_of_wrong_type_exits_2_naming_key(tmp_path, capsys, key, spot, bad):
    cfg = _config_for(key)
    _set(cfg, key, spot, bad)
    cfg["output"] = {"dir": str(tmp_path), "prefix": "t"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {_named(key, spot)}"), err
    assert err.count("\n") == 1
    assert not (tmp_path / "t_trajectory.json").exists()


@pytest.fixture(scope="module")
def trajectory_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("trajectory")
    cfg = {**BASE, "wynn": {"n_max": 20}, "output": {"dir": str(out), "prefix": "t"}}
    (out / "cfg.json").write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(out / "cfg.json")]) == 0
    return json.loads((out / "t_trajectory.json").read_text())


@pytest.mark.parametrize("key, spot, bad", _cases(FILE_KEYS))
def test_trajectory_value_of_wrong_type_fails_naming_key(
    tmp_path, capsys, trajectory_file, key, spot, bad
):
    """Through ``Trajectory.from_jsonable`` a DomainError, through
    ``adwynn diagnose`` exit 2; both messages begin with the key."""
    obj = copy.deepcopy(trajectory_file)
    _set(obj, key, spot, bad)
    with pytest.raises(DomainError) as caught:
        Trajectory.from_jsonable(obj)
    assert str(caught.value).startswith(_named(key, spot)), caught.value
    path = tmp_path / "bad_trajectory.json"
    path.write_text(json.dumps(obj))
    argv = ["diagnose", str(path), "--d", "0.1", "--cell-diameter", "0.1", "--out-dir",
            str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot parse trajectory file {path}: {key}"), err
    assert not (tmp_path / "adwynn_diagnostics.json").exists()
