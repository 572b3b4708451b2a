"""The exact subcommands never import numpy: the package loads the
numerical modules (grids, evolution, quadrature) on first use and every
name it serves is the object of its defining module; the manifest module
imports them when a manifest is planned or run."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import topocharge
from topocharge import evolution, manifest

SRC = Path(topocharge.__file__).resolve().parents[1]

EXACT_COMMANDS = (
    ["catalog", "show", "kp"],
    ["verify", "kp", "current-1"],
    ["reduce", "kp", "current-3"],
    ["potential", "nv", "charge-2"],
)


def test_exact_commands_import_no_numpy():
    code = "\n".join([
        "import sys",
        "import topocharge.cli",
        "assert 'numpy' not in sys.modules, 'import topocharge.cli loaded numpy'",
        *(f"assert topocharge.cli.main({argv!r}) == 0" for argv in EXACT_COMMANDS),
        "assert 'numpy' not in sys.modules, 'an exact command loaded numpy'",
        "print('no numpy')",
    ])
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("name: kp\n") and run.stdout.endswith("no numpy\n")


def test_all_names_are_the_defining_modules_objects():
    for name in topocharge.__all__:
        obj = getattr(topocharge, name)
        if inspect.ismodule(obj):
            assert obj is sys.modules[f"topocharge.{name}"]
        else:
            assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert topocharge.evolve is evolution.evolve
    assert {"evolve", "GridField", "loop_integral", "quadrature"} <= set(dir(topocharge))


def test_star_import():
    namespace = {}
    exec("from topocharge import *", namespace)
    assert set(topocharge.__all__) <= set(namespace)
    assert namespace["evolve"] is evolution.evolve
    assert namespace["quadrature"] is sys.modules["topocharge.quadrature"]


def test_numerical_names_are_read_when_asked_for(monkeypatch):
    # the manifest module binds no numerical name itself: plan and run read
    # each off its defining module at call time, so a binding set there is
    # the one they run
    assert not {"evolve", "KhatEvolver", "GridField", "loop_integral", "check_constraint",
                "evolution", "grids", "quadrature", "np", "numpy"} & set(vars(manifest))

    class Called(Exception):
        pass

    def stand_in(*args, **kwargs):
        raise Called

    monkeypatch.setattr(evolution, "evolve", stand_in)
    assert topocharge.evolve is stand_in
    doc = {"pde": "kdv_lagrangian", "grid": {"resolutions": [16], "periods": [6.25]},
           "t_end": 0.01, "samples": 2}
    with pytest.raises(Called):
        manifest.run(manifest.plan(doc))
