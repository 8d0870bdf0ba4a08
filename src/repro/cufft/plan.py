"""Simulated cuFFT: functional batched FFTs plus a Kepler cost model.

The reproduction needs cuFFT twice: as the *baseline* the paper beats
(Figure 5: dense ``O(n log n)`` transform of the whole signal) and as a
*building block* of cusFFT itself (step 3's batched ``B``-point transform).

Functional execution delegates to :func:`numpy.fft.fft` — numerically the
same transform cuFFT computes.  The cost model captures what made cuFFT's
performance on Kepler: a Stockham autosort FFT is executed as
``ceil(log2(n) / log2(radix))`` passes, each streaming the whole working set
through global memory once in and once out, so large transforms are purely
bandwidth-bound:

    ``time ≈ passes * 2 * n * 16B / effective_bandwidth``

Batched mode (paper step 3: "by sharing the twiddle factors, the batched
cuFFT combines the number of outer_loops transforms into one function call")
amortizes per-pass kernel launches across the whole batch — the ablation
benchmark ``abl-batch`` measures exactly that saving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cusim.device import DeviceSpec
from ..cusim.kernel import KernelSpec
from ..cusim.memory import AccessPattern, GlobalAccess
from ..errors import ParameterError
from ..utils.modmath import is_power_of_two

__all__ = ["CufftPlan"]

#: log2 of the butterfly radix a Kepler Stockham kernel applies per pass
#: (radix-8, the sweet spot for double precision on GK110).
RADIX_LOG2 = 3
_BLOCK = 256
_COMPLEX = 16  # bytes per complex128


@dataclass(frozen=True)
class CufftPlan:
    """A planned (batched) complex-to-complex transform.

    Attributes
    ----------
    n:
        Transform length (power of two).
    batch:
        Number of independent transforms executed per call.
    """

    n: int
    batch: int = 1

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n):
            raise ParameterError(f"transform length must be a power of two, got {self.n}")
        if self.batch < 1:
            raise ParameterError(f"batch must be >= 1, got {self.batch}")

    @property
    def passes(self) -> int:
        """Stockham passes to complete one transform."""
        return max(1, math.ceil(math.log2(self.n) / RADIX_LOG2))

    @property
    def total_elements(self) -> int:
        """Elements moved per pass across the whole batch."""
        return self.n * self.batch

    # -- functional ---------------------------------------------------------

    def execute(self, data: np.ndarray) -> np.ndarray:
        """Run the transform: 1-D input of length ``n`` (batch 1) or a
        ``(batch, n)`` array."""
        arr = np.asarray(data, dtype=np.complex128)
        if arr.ndim == 1:
            if self.batch != 1 or arr.size != self.n:
                raise ParameterError(
                    f"expected ({self.batch}, {self.n}) input, got shape {arr.shape}"
                )
            # This class *models cuFFT itself*; it is a vendor FFT, not a
            # consumer of the CPU vendor seam, so it does not route
            # through get_backend().
            return np.fft.fft(arr)  # reprolint: ignore[fft-registry-bypass]
        if arr.shape != (self.batch, self.n):
            raise ParameterError(
                f"expected ({self.batch}, {self.n}) input, got shape {arr.shape}"
            )
        return np.fft.fft(arr, axis=-1)  # reprolint: ignore[fft-registry-bypass]

    def inverse(self, data: np.ndarray) -> np.ndarray:
        """Inverse transform (cuFFT ``CUFFT_INVERSE`` with 1/n scaling applied)."""
        arr = np.asarray(data, dtype=np.complex128)
        return np.fft.ifft(arr, axis=-1)  # reprolint: ignore[fft-registry-bypass]

    # -- cost ----------------------------------------------------------------

    def kernel_specs(self) -> list[KernelSpec]:
        """One Stockham kernel launch per pass over the whole batch."""
        elems = self.total_elements
        grid = max(1, -(-elems // _BLOCK))
        butterfly_flops = 8.0 * RADIX_LOG2  # complex MAdds per element per pass
        return [
            KernelSpec(
                name=f"cufft_stockham_n{self.n}",
                grid_blocks=grid,
                threads_per_block=_BLOCK,
                flops_per_thread=butterfly_flops,
                accesses=(
                    GlobalAccess(AccessPattern.COALESCED, elems, _COMPLEX),
                    GlobalAccess(
                        AccessPattern.COALESCED, elems, _COMPLEX, is_write=True
                    ),
                ),
                shared_per_block=_BLOCK * _COMPLEX,
            )
            for _ in range(self.passes)
        ]

    def estimated_time(self, device: DeviceSpec) -> float:
        """Isolated execution-time estimate (sum of the pass kernels)."""
        from ..cusim.kernel import estimate_kernel

        return sum(estimate_kernel(s, device).total_s for s in self.kernel_specs())

    def estimated_time_unbatched(self, device: DeviceSpec) -> float:
        """Cost of calling a batch-1 plan ``batch`` times (the naive
        alternative the paper's batched mode replaces)."""
        single = CufftPlan(self.n, 1)
        return self.batch * single.estimated_time(device)
