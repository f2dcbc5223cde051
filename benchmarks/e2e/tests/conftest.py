"""Self-tests of the benchmark harness.

Run with ``python -m pytest benchmarks/e2e/tests`` from the repository
root; they are not part of the tier-1 suite (``testpaths = ["tests"]``).
"""

import pathlib
import sys

_E2E = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_E2E))
sys.path.insert(0, str(_E2E.parents[1] / "src"))
