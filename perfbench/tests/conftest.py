"""Run with ``python -m pytest perfbench/tests -q`` from the repository root.

Outside the tier-1 ``testpaths`` on purpose: these test the benchmark, not
the program, and a few of them spawn child interpreters.
"""

from perfbench import ensure_repro_importable

ensure_repro_importable()
