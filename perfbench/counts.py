"""Byte counts of the plan and of each stage, from array sizes.

Two kinds, labelled in every name that reports them:

* **counted** -- ``nbytes`` of arrays that really exist: the plan's filter
  arrays, its workspace (``PlanWorkspace.memory_breakdown``) and, as a
  cross-check, ``PlanCache.plan_nbytes``;
* **computed** -- bytes a stage moves, from the shapes of its operands:
  each input read once and each output written once, plus one write and
  one read of every intermediate NumPy materialises.  Cache misses and
  reuse are ignored.

Both repeat exactly for a given plan, so a change that shrinks a plan or a
stage's traffic shows as a count, not as a timing.
"""

from __future__ import annotations

import numpy as np

from repro.core import PlanCache

C16, I8, I2 = 16, 8, 2  # complex128, int64, int16 bytes


def filter_bytes(plan) -> dict[str, int]:
    """Counted bytes of every array the plan's filter holds, by attribute."""
    return {name: int(arr.nbytes) for name, arr in vars(plan.filt).items()
            if isinstance(arr, np.ndarray)}


def plan_bytes(plan) -> dict[str, int]:
    """Counted resident bytes of one plan and its workspace, by component."""
    parts = {f"filter.{name}": b for name, b in filter_bytes(plan).items()}
    ws = plan.workspace().memory_breakdown()
    for part in ("gather_bytes", "tap_bytes", "scratch_bytes"):
        parts[f"workspace.{part[:-6]}"] = int(ws[part])
    parts["total"] = sum(parts.values())
    parts["plan_cache.plan_nbytes"] = int(PlanCache.plan_nbytes(plan))
    return parts


def stage_bytes(plan, signals: int = 1) -> dict[str, int]:
    """Computed bytes each stage moves for one call over ``signals`` rows.

    ``recovery.scores`` is the int16 vote-score scratch the stage zeroes
    and scans on every call (one length-``n`` row per signal).
    """
    p = plan.params
    n, B, L, k = p.n, p.B, p.loops, p.k
    v, m = p.voting_loops, p.select_count
    padded = plan.rounds * B
    candidates = v * m * (n // B)
    scores = n * I2
    per_signal = {
        # gather index + gathered sample + tap per element, folded output
        "perm_filter": L * padded * (I8 + C16 + C16) + L * B * C16,
        "bucket_fft": 2 * L * B * C16,
        # |Z| of the voting rows, the argpartition scratch, the selection
        "cutoff": v * B * (C16 + 2 * I8) + v * m * I8,
        # candidate keys written and read by the dedupe, the score array
        # zeroed, scattered into and scanned
        "recovery": 2 * candidates * I8 + 3 * scores,
        # one bucket value and one filter tap per (hit, loop), the estimate
        "estimation": k * L * (C16 + C16) + k * L * C16,
        "recovery.scores": scores,
    }
    return {name: b * signals for name, b in per_signal.items()}
