"""Flat-window filter container.

A *flat window* is the signal-processing heart of sFFT: a filter ``G`` whose
time-domain support is a short ``w ≪ n`` taps while its frequency response is
approximately 1 over a "pass region" of about one bucket width ``n/B`` and
approximately 0 (below a design tolerance ``delta``) outside roughly twice
that region.  Multiplying the permuted signal by ``G`` and folding into ``B``
buckets therefore bins each spectral coefficient into one bucket with
negligible leakage — in only ``O(w)`` time.

The container keeps the time taps and the *exact* frequency response of
those (truncated) taps over the window of offsets ``|d| <= reach`` that
estimation reads (``reach = min(2n/B, n/2)``), so dividing a bucket value by
``G_hat`` at the coefficient's offset is unbiased by construction.  The
length-``n`` response is only ever computed on demand
(:meth:`FlatFilter.full_response`), for filter analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FilterDesignError, ParameterError

__all__ = ["FlatFilter"]


@dataclass(frozen=True)
class FlatFilter:
    """A flat-window filter for binning spectra into ``B`` buckets.

    Attributes
    ----------
    n:
        Signal size the filter was designed for.
    time:
        Complex time-domain taps, length ``w`` (possibly zero-padded at the
        tail so ``w`` is a multiple of ``B`` — see
        :func:`~repro.filters.flat_window.make_flat_window`).  The binning
        step computes ``y[i] = x[(sigma*i + tau) % n] * time[i]``.
    response:
        Exact DFT of the taps placed at positions ``0..w-1`` of a
        length-``n`` array, at the ``2*reach + 1`` offsets
        ``-reach..reach``: ``response[reach + d]`` is the response a
        coefficient picks up when it sits ``d`` bins *below* the sampled
        bucket center (estimation divides by ``response[reach - offset]``).
    window_name:
        Which base window built this filter (``"gaussian"`` or
        ``"dolph-chebyshev"``).
    lobefrac:
        Design half-width of the base window's spectral main lobe as a
        fraction of ``n``.
    tolerance:
        Design stop-band leakage level ``delta``.
    box_width:
        Width (in bins) of the frequency-domain boxcar that flattens the
        passband.
    """

    n: int
    time: np.ndarray
    response: np.ndarray
    window_name: str
    lobefrac: float
    tolerance: float
    box_width: int

    def __post_init__(self) -> None:
        if self.time.ndim != 1 or self.response.ndim != 1:
            raise FilterDesignError("filter arrays must be 1-D")
        if self.response.size % 2 == 0 or self.reach > self.n // 2:
            raise FilterDesignError(
                f"response window of {self.response.size} offsets is not "
                f"-reach..reach with reach <= n/2 (n={self.n})"
            )
        if self.time.size > self.n:
            raise FilterDesignError(
                f"filter support {self.time.size} exceeds signal size {self.n}"
            )

    @property
    def width(self) -> int:
        """Time-domain support ``w`` (number of taps, including padding)."""
        return self.time.size

    @property
    def reach(self) -> int:
        """Largest ``|offset|`` the stored :attr:`response` window covers."""
        return (self.response.size - 1) // 2

    def response_at(self, offsets: np.ndarray) -> np.ndarray:
        """Frequency response at signed bin offsets ``|offset| <= reach``.

        The return has the shape of ``offsets``; an offset outside the
        stored window raises :class:`~repro.errors.ParameterError` (use
        :meth:`full_response` for the whole circle).
        """
        off = np.asarray(offsets, dtype=np.int64)
        if off.size and int(np.abs(off).max()) > self.reach:
            raise ParameterError(
                f"offset beyond the stored response window (reach={self.reach})"
            )
        return self.response[self.reach + off]

    def full_response(self) -> np.ndarray:
        """The length-``n`` DFT of the zero-padded taps (not cached).

        ``full_response()[d % n]`` equals ``response[reach + d]`` inside the
        window.  Costs one length-``n`` FFT per call: analysis only, never
        the transform.
        """
        from ..core.fft_backend import get_backend  # core imports filters

        padded = np.zeros(self.n, dtype=np.complex128)
        padded[: self.time.size] = self.time
        return get_backend().fft(padded)

    def passband_halfwidth(self) -> int:
        """Half-width (bins) of the region where ``|G_hat|`` stays above 1/2.

        Measured from the actual response rather than the design spec, so
        tests can assert the construction met its contract.
        """
        half = self.n // 2
        mags = np.abs(self.full_response()[:half])
        # Walk outward from DC until the response first drops below 0.5.
        for d in range(1, half):
            if mags[d] < 0.5:
                return d - 1
        return half - 1

    def stopband_leakage(self, beyond: int) -> float:
        """Max ``|G_hat|`` at offsets with ``beyond <= |offset| <= n/2``."""
        if beyond >= self.n // 2:
            return 0.0
        # Offsets beyond..n/2 and their negatives n/2..n-beyond form one
        # contiguous run of the length-n response.
        full = self.full_response()
        return float(np.abs(full[beyond : self.n - beyond + 1]).max())
