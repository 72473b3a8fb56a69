"""Locate the numsgps sources of the checkout this benchmark lives in.

The benchmark measures the package in ``<checkout>/src``, never an installed
copy, so a checkout without its sources fails instead of timing something else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class MissingProgram(RuntimeError):
    """The checkout does not hold the numsgps sources."""


def load_numsgps(root: Path = ROOT):
    """Import numsgps from ``root/src`` and return the module."""
    src = (root / "src").resolve()
    if not (src / "numsgps" / "__init__.py").is_file():
        raise MissingProgram(f"no numsgps sources under {src}")
    sys.path.insert(0, str(src))
    import numsgps

    if not Path(numsgps.__file__).resolve().is_relative_to(src):
        raise MissingProgram(f"numsgps was imported from {numsgps.__file__}, not from {src}")
    return numsgps
