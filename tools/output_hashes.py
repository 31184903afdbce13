"""Print the SHA-256 digests of the files that `seqmpc run` and `seqmpc sweep`
write, the check that a change keeps the outputs byte for byte.

Usage: python tools/output_hashes.py [RUN_CONFIG SWEEP_CONFIG]

The defaults are configs/base.ini and configs/sweep_horizons.ini.  Each
command runs as `python -m seqmpc.cli` with this checkout's src/ first on
PYTHONPATH, into a temporary directory that is removed afterwards.  Prints
one line per output file, `sha256  run/NAME` or `sha256  sweep/NAME`, in
name order.  Exits with the command's exit code when a command fails, and
with 1 on a usage error.  It uses the standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULTS = (ROOT / "configs" / "base.ini", ROOT / "configs" / "sweep_horizons.ini")


def output_hashes(run_config, sweep_config) -> list:
    """(digest, name) of every file the two commands write, run's first.
    Raises subprocess.CalledProcessError when a command fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    hashes = []
    with tempfile.TemporaryDirectory() as tmp:
        for command, config in (("run", run_config), ("sweep", sweep_config)):
            out = Path(tmp) / command
            subprocess.run(
                [sys.executable, "-m", "seqmpc.cli", command,
                 "--config", str(Path(config).resolve()), "--out", str(out)],
                env=env, check=True, stdout=subprocess.DEVNULL,
            )
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                hashes.append((digest, f"{command}/{path.name}"))
    return hashes


def main(argv) -> int:
    if len(argv) not in (0, 2):
        print("Usage: python tools/output_hashes.py [RUN_CONFIG SWEEP_CONFIG]", file=sys.stderr)
        return 1
    try:
        hashes = output_hashes(*(argv or DEFAULTS))
    except subprocess.CalledProcessError as exc:
        print(f"seqmpc {exc.cmd[3]} exited {exc.returncode}", file=sys.stderr)
        return exc.returncode
    for digest, name in hashes:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
