"""Import the efgames package from the checkout's own sources.

The benchmark measures the code in ``src/`` next to this directory, never an
installed copy, so a checkout without sources fails instead of silently
measuring something else.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ProgramMissing(Exception):
    """The checkout holds no importable efgames sources."""


def load() -> ModuleType:
    if not (SRC / "efgames" / "__init__.py").is_file():
        raise ProgramMissing(f"no efgames sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module("efgames")
    if Path(module.__file__).resolve().parent != SRC / "efgames":
        raise ProgramMissing(f"efgames imported from {module.__file__}, not {SRC}")
    return module
