"""Put the package source and the benchmark modules on the import path."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parents[1] / "src"), str(_HERE.parent)]
