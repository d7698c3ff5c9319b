"""Removed: the 8-bit saturating screen and its length-binned packs.

Every engine now runs the exact lane sweep only
(:mod:`repro.align.intersequence`, and :mod:`repro.align.multiquery`
for stacked queries).  ``docs/performance.md`` records why the screen
went: since the query-major sweep it cost time instead of saving it.

What is left here exists for ``perfbench/`` alone: its span targets
(``perfbench/tracing.py``) still name ``repro.align.screening`` and the
screen's names in other modules, and instrumenting a missing name
fails.  :func:`perfbench_placeholder` stands in for every such name;
no code path calls it.  The ``perfbench/`` blocks, and this module,
go once perfbench stops naming them.
"""

# --- perfbench/ span targets (perfbench/tracing.py is the only caller) ---
from .intersequence import (  # noqa: F401
    _padded_profile,
    pack_database,
    sw_score_batch,
)


def perfbench_placeholder(*args, **kwargs):
    """Stand-in for a removed screen function; never called."""
    raise NotImplementedError(
        "the 8-bit screen was removed; this name only keeps "
        "perfbench/tracing.py's span targets resolving"
    )
# --- end of perfbench/ span targets ---
