"""The package has no third-party runtime dependency: numpy stays out.

Eq. 5/Eq. 6 run as one scalar path over a request's few replicas, so
nothing under ``src/`` needs numpy. Importing it anyway would cost
every run its import time and memory; this guard fails if any public
entry point pulls it back in.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY_MODULES = (
    "repro.cli",
    "repro.sim",
    "repro.serve",
    "repro.tape",
    "repro.experiments.harness",
)


def test_entry_points_do_not_import_numpy() -> None:
    script = "\n".join(
        [f"import {module}" for module in ENTRY_MODULES]
        + ["import sys", "print('numpy' in sys.modules)"]
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=SRC,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
