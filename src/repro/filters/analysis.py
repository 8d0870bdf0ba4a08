"""Quality metrics for flat-window filters.

These back the filter unit tests and the documentation plots: given a
:class:`~repro.filters.base.FlatFilter` they measure how flat the passband
really is, how much energy leaks past the design stop-band, and how sharp the
transition region is — the properties Section III of the paper relies on
("nearly flat inside the pass region and has an exponential tail outside").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import FlatFilter

__all__ = ["FilterReport", "analyze_filter"]


@dataclass(frozen=True)
class FilterReport:
    """Measured characteristics of a flat-window filter.

    Attributes
    ----------
    passband_min / passband_max:
        Extremes of ``|G_hat|`` over the in-bucket offsets ``|o| <= n/(2B)``.
    passband_ripple:
        ``1 - passband_min / passband_max``.
    stopband_max:
        Max ``|G_hat|`` at offsets beyond one bucket spacing (``|o| >= n/B``).
    transition_width:
        Bins between the last offset with response >= 0.9 and the first
        with response <= 0.1 (one-sided).
    support:
        Time-domain tap count.
    """

    passband_min: float
    passband_max: float
    passband_ripple: float
    stopband_max: float
    transition_width: int
    support: int


def analyze_filter(filt: FlatFilter, B: int) -> FilterReport:
    """Measure ``filt`` against the bucket geometry implied by ``B`` buckets."""
    n = filt.n
    n_div_b = n // B
    half_bucket = n_div_b // 2
    mags = np.abs(filt.full_response())

    # Offsets within the own-bucket region, both sides of DC.
    pos = mags[: half_bucket + 1]
    neg = mags[n - half_bucket :] if half_bucket > 0 else np.empty(0)
    band = np.concatenate([pos, neg])
    pb_min = float(band.min())
    pb_max = float(band.max())

    stop = filt.stopband_leakage(beyond=n_div_b)

    # One-sided transition sharpness on the positive-offset side.
    hi_idx = 0
    for d in range(half_bucket, n // 2):
        if mags[d] < 0.9 * pb_max:
            break
        hi_idx = d
    lo_idx = n // 2 - 1
    for d in range(hi_idx, n // 2):
        if mags[d] <= 0.1 * pb_max:
            lo_idx = d
            break

    return FilterReport(
        passband_min=pb_min,
        passband_max=pb_max,
        passband_ripple=0.0 if pb_max == 0 else 1.0 - pb_min / pb_max,
        stopband_max=stop,
        transition_width=max(0, lo_idx - hi_idx),
        support=filt.width,
    )
