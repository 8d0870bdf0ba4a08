"""The one dispatch point for every dense FFT we run.

The paper's step 3 is "call the vendor FFT on the buckets": cuFFT on the
GPU, FFTW on the CPU baseline, chosen when the code is built.  This module
is the CPU-side analog of that vendor seam: :func:`get_backend` returns the
one FFT — :func:`numpy.fft.fft` / :func:`numpy.fft.ifft` over
``complex128`` — that the bucket FFT (:func:`repro.core.subsampled.
bucket_fft`), filter synthesis and the simulated-FFTW comparator
(:mod:`repro.cpu.fftw`) all call through.  Swapping the vendor is an edit
here, not a run-time setting.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FftBackend", "get_backend"]


class FftBackend:
    """NumPy's pocketfft behind the ``fft``/``ifft`` seam."""

    name = "numpy"

    def fft(self, a: np.ndarray, *, axis: int = -1) -> np.ndarray:
        """Complex DFT of ``a`` along ``axis``."""
        return np.fft.fft(a, axis=axis)

    def ifft(self, a: np.ndarray, *, axis: int = -1) -> np.ndarray:
        """Inverse complex DFT of ``a`` along ``axis``."""
        return np.fft.ifft(a, axis=axis)


_BACKEND = FftBackend()


def get_backend() -> FftBackend:
    """The FFT every dense transform in the package runs."""
    return _BACKEND
