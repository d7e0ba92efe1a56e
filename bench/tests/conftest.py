"""Make the benchmark's modules importable by the harness tests.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench/tests -q``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
