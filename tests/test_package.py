"""The package's public surface: `__all__` and the names `__init__` imports
agree, so a removed name cannot linger in either.  And the sources parse at
the oldest Python that pyproject.toml admits."""

import ast
import inspect
import re
from pathlib import Path

import seqmpc

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert len(seqmpc.__all__) == len(set(seqmpc.__all__))
    for name in seqmpc.__all__:
        assert hasattr(seqmpc, name), name


def test_every_public_name_is_exported():
    public = {
        name for name, value in vars(seqmpc).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(seqmpc.__all__) - {"__version__"}


def test_sources_parse_with_the_grammar_of_the_oldest_supported_python():
    """Every file of src/seqmpc and tools parses with the grammar of the
    `requires-python` floor.  This checks syntax only, not the standard
    library: a module or function added after the floor still passes."""
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.M)
    version = (3, int(floor.group(1)))
    files = sorted([*(ROOT / "src" / "seqmpc").glob("*.py"), *(ROOT / "tools").glob("*.py")])
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=version)
