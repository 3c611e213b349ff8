"""Run one benchmark workload in a fresh, clean interpreter.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-proteins --seed 1 \\
        --seconds 12 --trace 0

The workload runs in a child process whose environment has no
``REPRO_*`` variables and no BLAS/OpenMP thread settings, so the program
runs at its defaults whatever the calling shell exports; ``PYTHONPATH``
points at this checkout's ``src``.  The child's output passes through;
its last line is the result object.  A checkout without ``src/repro``
exits with status 2 and prints no result.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment prefixes and names that select another configuration of
#: the program: its own switches and the BLAS/OpenMP thread counts.
DROP_PREFIXES = ("REPRO_", "OMP_", "OPENBLAS_", "MKL_", "BLIS_", "GOTO_")
DROP_KEYS = ("NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: A run that has not finished by then is killed and fails.
TIMEOUT_S = 175


def clean_environment() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(DROP_PREFIXES) and key not in DROP_KEYS}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    command = [sys.executable, str(HERE / "workload.py"), *argv]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=clean_environment(),
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
