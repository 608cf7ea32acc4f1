"""Path set-up for ``pytest benchmarks/e2e/tests``."""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1]
ROOT = HARNESS.parents[1]

for entry in (str(ROOT / "src"), str(HARNESS)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
