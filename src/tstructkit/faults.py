"""Fault-injection switches for the verification harness.

Each named fault deliberately breaks one internal check or formula.  The
verification command must detect every injected fault and fail; this is a
test of the test suite, never of production behavior.  All faults are off
by default and only the CLI --mutate flag (or a test) turns one on.
"""

from __future__ import annotations

FAULT_NAMES = (
    "drop-extension-closure",    # closure/closedness checks ignore the extensions rule
    "skip-kernel-condition",     # narrow-sequence validator skips the kernel condition
    "swap-ext-direction",        # derived Hom counts Ext against degree k-1 instead of k+1
    "perp-ignores-ext",          # perpendicular categories test Hom vanishing only
    "wide-closure-skips-kernels",  # closure scans omit the kernels rule
)

_active: set = set()


def activate(name: str):
    if name not in FAULT_NAMES:
        raise ValueError(f"unknown fault {name!r}; known: {FAULT_NAMES}")
    _active.add(name)


def clear():
    _active.clear()


def is_active(name: str) -> bool:
    return name in _active


def snapshot() -> frozenset:
    return frozenset(_active)

