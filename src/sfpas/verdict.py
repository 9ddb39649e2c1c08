"""The stability verdict shared by the exact tests (``families``) and
the numerical Kempf-Ness oracle (``quiver``).

It lives apart from both so that the exact lane imports it without
numpy.
"""

from __future__ import annotations

import enum


class Verdict(str, enum.Enum):
    STABLE = "Stable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    UNSTABLE = "Unstable"
    BORDERLINE = "Borderline"
