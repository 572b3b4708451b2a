"""Fixtures shared by the test modules."""

import functools
from pathlib import Path

import pytest

MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"


@pytest.fixture(scope="session")
def simulated():
    """stem -> (reports, exit code) of `simulate` on manifests/<stem>.yaml,
    each manifest run at most once per session.  While a manifest runs,
    `simulated.steps[stem]` records evolve's meta["steps"] per grid shape."""
    from topocharge import catalog as cat
    from topocharge import evolution, manifest

    @functools.cache
    def run(stem: str):
        steps = run.steps[stem] = {}
        evolve = evolution.evolve

        def counted(evolver, u0, *args, **kwargs):
            traj = evolve(evolver, u0, *args, **kwargs)
            steps[u0.shape] = traj.meta["steps"]
            return traj

        evolution.evolve = counted
        try:
            doc = cat.load_yaml((MANIFESTS / f"{stem}.yaml").read_text(encoding="utf-8"))
            return manifest.run(manifest.plan(doc))
        finally:
            evolution.evolve = evolve

    run.steps = {}
    return run
