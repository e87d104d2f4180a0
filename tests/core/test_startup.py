"""Start-up cost: only trace generation imports numpy.

Most regenerations of the paper are served from the warm run cache, and
importing numpy costs more than the rest of ``import repro``.  The
application registry therefore imports a generator's module (and with
it numpy) when that application is first asked for.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps import APP_ORDER, make_generator

SRC_DIR = Path(repro.__file__).resolve().parent.parent

#: a fresh process: the entry points' imports, one paper grid, one point
WARM_POINT = """
import sys
import repro, repro.cli, repro.experiments, repro.core.sweeps, repro.core.store
from repro.core.executor import run_points
from repro.experiments import EXPERIMENTS

grid = EXPERIMENTS["figure01"].grid(0.05, None)
point = next(p for p in grid if p[0] == "radix")
result = run_points([point], jobs=1)[0]
print(result.app_name, "numpy" in sys.modules)
"""


def test_point_served_from_warm_cache_imports_no_numpy(tmp_path):
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
        REPRO_STORE_PATH=str(tmp_path / "store.sqlite"),
        REPRO_DISK_CACHE="1",
        REPRO_RESULT_STORE="1",
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", WARM_POINT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        for _ in range(2)
    ]
    for run in runs:
        assert run.returncode == 0, run.stderr
    # the cold run generates radix's trace, which needs numpy; the warm
    # rerun reads the cached result and never loads it
    assert [run.stdout.split() for run in runs] == [["radix", "True"], ["radix", "False"]]


def test_registry_resolves_every_app_and_rejects_unknown_names():
    assert [make_generator(name).name for name in APP_ORDER] == list(APP_ORDER)
    with pytest.raises(ValueError) as err:
        make_generator("fourier")
    assert str(err.value) == (
        f"unknown application 'fourier'; available: {sorted(APP_ORDER)}"
    )
