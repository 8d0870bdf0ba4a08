"""Exactly-k-sparse signal generation.

The paper's entire evaluation (Figures 2 and 5) runs on signals that are
exactly ``k``-sparse in the frequency domain: ``k`` uniformly random
locations with unit-magnitude random-phase coefficients, optionally plus
additive noise.  :class:`SparseSignal` carries both the time-domain samples
handed to the transforms and the ground-truth spectrum the accuracy metrics
compare against.

Spectrum convention: ``spectrum = numpy.fft.fft(time)`` — what sFFT recovers
is the NumPy-forward DFT of the time samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..utils.rng import RngLike, ensure_rng
from ..utils.validation import check_positive_int

__all__ = ["SparseSignal", "make_sparse_signal", "random_support"]


@dataclass(frozen=True)
class SparseSignal:
    """A time-domain signal with known sparse spectral ground truth.

    Attributes
    ----------
    time:
        Complex time-domain samples, length ``n``.
    locations:
        Sorted integer frequencies of the significant coefficients.
    values:
        Complex coefficient values at ``locations`` (forward-DFT scale).
    """

    time: np.ndarray
    locations: np.ndarray
    values: np.ndarray

    @property
    def n(self) -> int:
        """Signal length."""
        return self.time.size

    @property
    def k(self) -> int:
        """Number of significant coefficients."""
        return self.locations.size

    def dense_spectrum(self) -> np.ndarray:
        """Ground-truth dense spectrum (zeros off the sparse support)."""
        spec = np.zeros(self.n, dtype=np.complex128)
        spec[self.locations] = self.values
        return spec

    def with_time(self, new_time: np.ndarray) -> "SparseSignal":
        """Copy of this signal with different time samples (e.g. + noise)."""
        if new_time.shape != self.time.shape:
            raise ParameterError("replacement time samples must match shape")
        return SparseSignal(
            time=np.asarray(new_time, dtype=np.complex128),
            locations=self.locations,
            values=self.values,
        )


def random_support(
    n: int, k: int, rng: np.random.Generator, *, min_separation: int = 0
) -> np.ndarray:
    """Draw ``k`` distinct frequencies from ``[0, n)``, optionally separated.

    ``min_separation`` enforces a minimum circular distance between chosen
    frequencies — the well-separated regime where a single sFFT inner loop
    already isolates every coefficient.  Rejection-samples; raises
    :class:`ParameterError` when the constraint is infeasible
    (``k * min_separation >= n``).
    """
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    if k > n:
        raise ParameterError(f"k={k} cannot exceed n={n}")
    if min_separation <= 0:
        return np.sort(rng.choice(n, size=k, replace=False))
    if k * min_separation >= n:
        raise ParameterError(
            f"cannot place k={k} frequencies with separation {min_separation} in n={n}"
        )
    # Classic spacing trick: draw k points in [0, n - k*sep), sort, then
    # re-inflate by adding i*sep — guarantees pairwise gaps >= sep without
    # rejection (circular gap between last and first also holds because the
    # total slack is reserved).
    slack = n - k * min_separation
    base = np.sort(rng.choice(slack, size=k, replace=False))
    locs = base + min_separation * np.arange(k)
    return locs.astype(np.int64)


def make_sparse_signal(
    n: int,
    k: int,
    *,
    seed: RngLike = None,
    amplitude: float = 1.0,
    random_phase: bool = True,
    min_separation: int = 0,
    locations: np.ndarray | None = None,
    values: np.ndarray | None = None,
) -> SparseSignal:
    """Generate an exactly ``k``-sparse signal of length ``n``.

    By default coefficients have magnitude ``amplitude * n`` — i.e. each tone
    contributes unit amplitude per time sample, matching the reference sFFT
    benchmark inputs — with uniform random phases.  Explicit ``locations`` /
    ``values`` override the random draws (both or either).
    """
    n = check_positive_int(n, "n")
    rng = ensure_rng(seed)

    if locations is None:
        locs = random_support(n, k, rng, min_separation=min_separation)
    else:
        locs = np.unique(np.asarray(locations, dtype=np.int64) % n)
        if locs.size != k:
            raise ParameterError(
                f"locations must contain k={k} distinct frequencies, got {locs.size}"
            )

    if values is None:
        if random_phase:
            phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
        else:
            phases = np.zeros(k)
        vals = amplitude * n * np.exp(1j * phases)
    else:
        vals = np.asarray(values, dtype=np.complex128)
        if vals.size != k:
            raise ParameterError(f"values must have k={k} entries, got {vals.size}")

    spec = np.zeros(n, dtype=np.complex128)
    spec[locs] = vals
    # Signal synthesis defines the ground truth; keep it on the numpy
    # oracle so test inputs stay put whatever FFT the seam runs.
    time = np.fft.ifft(spec)  # reprolint: ignore[fft-registry-bypass]
    return SparseSignal(time=time, locations=locs, values=vals)
