"""Simulated parallel FFTW (the paper's multicore CPU dense baseline).

Functional execution runs the package's one FFT
(:func:`repro.core.fft_backend.get_backend`), numerically the transform
FFTW computes; ``threads`` only enters the cost model.
The cost model prices a planned, multithreaded FFTW execution on the
Table II machine:

* arithmetic: ``~5 n log2 n`` real FLOPs at the machine's tuned-code
  efficiency (all cores);
* memory: a cache-oblivious FFT streams the working set through DRAM
  ``ceil(log2 n / log2 Z)`` times (``Z`` = elements fitting in L3), in and
  out per pass;
* the execution time is the roofline max of the two plus per-thread
  fork/join overhead.

Small transforms fit in cache and are FLOP-bound; the crossover to
bandwidth-bound behaviour around ``n ~ 2^20`` (L3 = 15 MB) is what bends
FFTW's runtime curve upward in Figure 5(a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..utils.modmath import is_power_of_two
from ..utils.validation import as_complex_signal
from .cpuspec import SANDY_BRIDGE_E5_2640, CpuSpec

__all__ = ["FftwPlan"]

_COMPLEX = 16


@dataclass(frozen=True)
class FftwPlan:
    """A planned multithreaded dense FFT on the simulated CPU."""

    n: int
    threads: int = 6
    cpu: CpuSpec = SANDY_BRIDGE_E5_2640

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n):
            raise ParameterError(f"n must be a power of two, got {self.n}")
        if self.threads < 1:
            raise ParameterError(f"threads must be >= 1, got {self.threads}")

    def execute(self, x) -> np.ndarray:
        """Run the transform (functional; numerically identical to FFTW).

        Runs the same FFT as the bucket FFT,
        :func:`repro.core.fft_backend.get_backend`.
        """
        from ..core.fft_backend import get_backend

        return get_backend().fft(as_complex_signal(x, self.n))

    # -- cost ---------------------------------------------------------------

    @property
    def flops(self) -> float:
        """Standard FFT operation count, ``5 n log2 n``."""
        return 5.0 * self.n * math.log2(self.n)

    @property
    def dram_passes(self) -> int:
        """Times the working set streams through DRAM (1 if cache-resident)."""
        if self.n * _COMPLEX <= self.cpu.l3_bytes:
            return 0
        cache_elems = max(2, self.cpu.l3_bytes // _COMPLEX)
        return max(1, math.ceil(math.log2(self.n) / math.log2(cache_elems)))

    def estimated_time(self) -> float:
        """Modeled wall-clock of one planned execution."""
        cores = min(self.threads, self.cpu.cores)
        scale = (cores / self.cpu.cores) * self.cpu.parallel_efficiency
        flop_s = self.flops / (self.cpu.effective_flops * max(scale, 1e-6))
        mem_s = (
            self.dram_passes * 2 * self.n * _COMPLEX / self.cpu.effective_bandwidth
        )
        fork_join = self.cpu.sync_overhead_s * cores
        return max(flop_s, mem_s) + fork_join
