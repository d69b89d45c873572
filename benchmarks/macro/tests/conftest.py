"""Make the benchmark's own modules (and ``repro``) importable."""

import sys
from pathlib import Path

MACRO_DIR = Path(__file__).resolve().parent.parent
for entry in (MACRO_DIR, MACRO_DIR.parent.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
