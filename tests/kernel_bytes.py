"""The outputs of `_kernels`' hot loops on given inputs, on any interpreter
from Python 3.10 on: the standard library only.

Usage: python -I -B tests/kernel_bytes.py PATH/TO/_kernels.py < cases.json

Loads `_kernels.py` by its path, outside its package and without NumPy,
runs `outputs` on the cases read from standard input and prints one JSON
object: the interpreter's (major, minor) version and the outputs, each
float by its hex form, so that two interpreters' outputs compare bit for
bit.  tests/test_interpreters.py builds the cases.
"""

import importlib.util
import json
import sys

#: list lengths each decode case is searched for
KS = (1, 4, 10)


def exact(value):
    """`value` with each float replaced by its hex form and each tuple by a list."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return value


def outputs(kernels, cases):
    """What `kernels` gives on `cases`: `cholesky_lower` of each flat Gram
    matrix of "gram"; `outside_box`, which picks the walk, and `sd_search`
    at each k of KS of each (flat factor, target) of "decode"; and
    `integrate_plant` of each argument list of "plant"."""
    searches = [
        [kernels.outside_box(h, c)] + [kernels.sd_search(h, c, k) for k in KS]
        for h, c in cases["decode"]
    ]
    return {
        "cholesky_lower": exact([kernels.cholesky_lower(a) for a in cases["gram"]]),
        "sd_search": exact(searches),
        "integrate_plant": exact([kernels.integrate_plant(*args) for args in cases["plant"]]),
    }


def load(path):
    """The module of the file `path`, imported under the name `_kernels`."""
    spec = importlib.util.spec_from_file_location("_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


if __name__ == "__main__":
    result = outputs(load(sys.argv[1]), json.load(sys.stdin))
    print(json.dumps({"version": list(sys.version_info[:2]), "outputs": result}))
