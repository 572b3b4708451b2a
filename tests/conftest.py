"""Fixtures shared by the test modules."""

import functools
from pathlib import Path

import pytest

MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"


@pytest.fixture(scope="session")
def simulated():
    """stem -> (reports, exit code) of `simulate` on manifests/<stem>.yaml,
    each manifest run at most once per session."""
    from topocharge import catalog as cat
    from topocharge import cli

    @functools.cache
    def run(stem: str):
        return cli.simulate(cat.load_yaml((MANIFESTS / f"{stem}.yaml").read_text(encoding="utf-8")))

    return run
