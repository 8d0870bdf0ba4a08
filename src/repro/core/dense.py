"""Dense-FFT reference helpers.

Thin wrappers over :func:`numpy.fft.fft` that extract sparse ground truth —
what the accuracy experiments compare sFFT output against, and what the
quickstart example shows side by side.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..utils.validation import as_complex_signal

__all__ = ["dense_fft", "dense_topk", "reconstruct_time"]


def dense_fft(x) -> np.ndarray:
    """Full forward DFT (the ``O(n log n)`` baseline the paper beats)."""
    # Ground-truth reference is pinned to numpy on purpose: correctness
    # oracles must not move when the production FFT seam is swapped.
    return np.fft.fft(as_complex_signal(x))  # reprolint: ignore[fft-registry-bypass]


def dense_topk(spectrum: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` largest-magnitude coefficients of a dense spectrum.

    Returns ``(locations_ascending, values)`` — the ground truth a correct
    sparse transform must reproduce.
    """
    spec = np.asarray(spectrum)
    if spec.ndim != 1:
        raise ParameterError(f"spectrum must be 1-D, got shape {spec.shape}")
    if not 1 <= k <= spec.size:
        raise ParameterError(f"k={k} must be in [1, {spec.size}]")
    idx = np.argpartition(np.abs(spec), -k)[-k:]
    idx = np.sort(idx).astype(np.int64)
    return idx, spec[idx]


def reconstruct_time(locations: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Inverse transform of a sparse spectrum back to ``n`` time samples."""
    locs = np.asarray(locations, dtype=np.int64)
    vals = np.asarray(values, dtype=np.complex128)
    if locs.shape != vals.shape:
        raise ParameterError("locations and values must align")
    spec = np.zeros(n, dtype=np.complex128)
    spec[locs % n] = vals
    return np.fft.ifft(spec)  # reprolint: ignore[fft-registry-bypass]
