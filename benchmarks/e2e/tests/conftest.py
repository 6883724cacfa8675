"""Self-tests of the benchmark harness.

Run with ``python -m pytest benchmarks/e2e/tests -q`` from the repository
root; tier-1's ``testpaths`` does not collect them.  The harness is imported
the way ``run.py`` imports it: as the package ``e2e`` under ``benchmarks/``.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]

for entry in (str(E2E.parent), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: size divisor of every pass the tests run; never a baseline
QUICK = 8
