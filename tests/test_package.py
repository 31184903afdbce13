"""The package's public surface: `__all__` and the names `__init__` imports
agree, so a removed name cannot linger in either."""

import inspect

import seqmpc


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
