"""`_kernels` gives the same bits on every interpreter present.

`_kernels` runs the closed loop's hot loops on Python floats and the
standard library alone, so its outputs rest on the interpreter's float
arithmetic and `math` module, not on NumPy.  Each of Python 3.10, 3.12
and 3.13 that is installed runs tests/kernel_bytes.py, which loads
`_kernels.py` by its path, on the same cases as this process: the
Cholesky kernel (a failing pivot included), both walks of the decoder at
k = 1, 4 and 10 and the box test that picks the walk, and the plant
integration.  Its outputs must equal this process's, float for float.
A version that is not installed is skipped; nothing is installed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kernel_bytes
from seqmpc import _kernels
from seqmpc.harness import ScenarioConfig
from seqmpc.verify import random_subproblem

VERSIONS = ("3.10", "3.12", "3.13")
SEED = 20261022


def interpreter(version):
    """An interpreter of `version` that runs: `python<version>` on PATH,
    else one installed beside this interpreter (a sibling of
    `sys.base_prefix`, as pyenv lays versions out); None if none reports
    that version."""
    siblings = Path(sys.base_prefix).parent.glob(f"{version}.*/bin/python{version}")
    found = [shutil.which(f"python{version}"), *map(str, sorted(siblings))]
    probe = "import sys; print('%d.%d' % sys.version_info[:2])"
    for exe in filter(None, found):
        try:
            run = subprocess.run([exe, "-I", "-B", "-c", probe], capture_output=True, text=True,
                                 timeout=30)
        except OSError:
            continue
        if run.returncode == 0 and run.stdout.strip() == version:
            return exe
    return None


def plant_args(rng, cfg):
    """`integrate_plant`'s arguments at a random state and switch states."""
    m, g = cfg.machine(), cfg.grid()
    return [
        *rng.normal(0, 20, 4).tolist(), float(rng.uniform(600, 800)),
        float(rng.uniform(-5, 5)), float(rng.uniform(-200, 200)),
        float(rng.uniform(0, 6.3)), float(rng.uniform(0, 0.5)),
        *rng.integers(-1, 2, 6).tolist(),
        m.r_s, m.l_s, m.psi_pm, m.pole_pairs, g.r_n, g.l_n, g.e_peak, g.omega_n,
        cfg.c_dc, cfg.inertia, float(rng.normal(0, 50)), cfg.t_s, cfg.substeps,
    ]


@pytest.fixture(scope="module")
def cases():
    """The cases of `kernel_bytes.outputs`, as JSON gives them back."""
    rng = np.random.default_rng(SEED)
    drawn = [random_subproblem(rng, n_h) for n_h in (1, 2, 3, 4, 5, 6)]
    gram = [plan.quad[side].ravel().tolist() for _, plan, side in drawn]
    b = rng.normal(size=(9, 5))
    gram.append((b @ b.T).ravel().tolist())  # rank 5: a failing pivot
    decode = []
    for qp, _, _ in drawn[:3]:
        n = len(qp.target)
        decode.append((qp.factor, qp.target))
        # the target of a point inside the box, where `sd_search` takes the
        # plain walk, and of a point far outside it
        x = rng.uniform(-1.0, 1.0, n)
        for scale in (1.0, 6.0):
            decode.append((qp.factor, (np.reshape(qp.factor, (n, n)) @ (scale * x)).tolist()))
    plant = [plant_args(rng, ScenarioConfig()) for _ in range(4)]
    return json.loads(json.dumps({"gram": gram, "decode": decode, "plant": plant}))


@pytest.fixture(scope="module")
def here(cases):
    return kernel_bytes.outputs(_kernels, cases)


def test_cases_cover_both_walks_and_a_failing_pivot(here):
    assert {case[0] for case in here["sd_search"]} == {True, False}
    assert [pivot for _, pivot in here["cholesky_lower"]][-1] >= 0
    assert all(pivot == -1 for _, pivot in here["cholesky_lower"][:-1])


@pytest.mark.parametrize("version", VERSIONS)
def test_kernels_give_the_same_bits(version, cases, here):
    exe = interpreter(version)
    if exe is None:
        pytest.skip(f"Python {version} is not installed")
    run = subprocess.run(
        [exe, "-I", "-B", kernel_bytes.__file__, _kernels.__file__],
        input=json.dumps(cases), capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["version"] == [int(v) for v in version.split(".")]
    assert result["outputs"] == here
