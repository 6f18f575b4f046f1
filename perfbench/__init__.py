"""perfbench: noise-calibrated, layer-attributed benchmark for the CATOCS stack.

Run from the repository root::

    python -m perfbench run [--workload NAME] [--seed N] [--seconds S]
    python -m perfbench compare A.json B.json
    python -m perfbench selfcheck

See ``perfbench/README.md`` for the workloads, the metric catalogue and the
noise method.  Nothing here is imported by ``src/``; the benchmark drives the
stack from outside and claims no gain of its own.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Identifies the ``--out`` JSON layout; bump on any incompatible change.
SCHEMA = "perfbench/v1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def ensure_repro_importable() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` (the repo is a src layout
    and the benchmark must run from a bare checkout with no ``PYTHONPATH``).

    Raises :class:`SystemExit` with a non-zero code when there is no program
    to measure, e.g. in a directory holding only the benchmark's own files.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {SRC}/repro is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
