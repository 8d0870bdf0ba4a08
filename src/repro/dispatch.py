"""Modeled dense-vs-sparse recommendation from the cost models.

The paper's Figure 5(a) crossover raises the obvious operational question:
*given this (n, k), should I run the dense FFT or the sparse one?*  Because
both sides of the trade have machine models here, the answer is a lookup:
:func:`recommend_transform` prices cuFFT, cusFFT, FFTW, and PsFFT for the
shape and returns the modeled winner per platform.

The verdict is *modeled* — the paper's Kepler K20x and Sandy Bridge
machines — and serves the GPU figures.  It does not decide how this
repository's NumPy pipeline runs: on the CPU the model picks dense at
``n = 2^20`` and ``2^22``, where the sparse transform measures faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cpu.cpuspec import SANDY_BRIDGE_E5_2640, CpuSpec
from .cpu.fftw import FftwPlan
from .cpu.psfft import PsFFT
from .cufft.plan import CufftPlan
from .cusim.device import KEPLER_K20X, DeviceSpec
from .errors import ParameterError
from .gpu.config import OPTIMIZED, CusfftConfig
from .gpu.cusfft import CusFFT

__all__ = ["DispatchDecision", "recommend_transform"]


@dataclass(frozen=True)
class DispatchDecision:
    """Modeled times and winners for one ``(n, k)`` shape.

    Attributes
    ----------
    gpu_winner / cpu_winner:
        ``"sparse"`` or ``"dense"`` per platform.
    times:
        Modeled seconds: ``{"cufft", "cusfft", "fftw", "psfft"}``.
    """

    n: int
    k: int
    gpu_winner: str
    cpu_winner: str
    times: dict[str, float]

    @property
    def gpu_advantage(self) -> float:
        """Dense/sparse time ratio on the GPU (>1 means sparse wins)."""
        return self.times["cufft"] / self.times["cusfft"]

    @property
    def cpu_advantage(self) -> float:
        """Dense/sparse time ratio on the CPU (>1 means sparse wins)."""
        return self.times["fftw"] / self.times["psfft"]


def recommend_transform(
    n: int,
    k: int,
    *,
    device: DeviceSpec = KEPLER_K20X,
    cpu: CpuSpec = SANDY_BRIDGE_E5_2640,
    config: CusfftConfig = OPTIMIZED,
    **overrides,
) -> DispatchDecision:
    """Price dense vs sparse on both platforms and name the winners.

    ``overrides`` go to the sparse parameter derivation (e.g.
    ``profile="fast"``); the dense transforms have no parameters.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    times = {
        "cufft": CufftPlan(n).estimated_time(device),
        "cusfft": CusFFT.create(
            n, k, config=config, device=device, **overrides
        ).estimated_time(),
        "fftw": FftwPlan(n, threads=cpu.cores, cpu=cpu).estimated_time(),
        "psfft": PsFFT.create(n, k, threads=cpu.cores, cpu=cpu, **overrides).estimated_time(),
    }
    return DispatchDecision(
        n=n,
        k=k,
        gpu_winner="sparse" if times["cusfft"] < times["cufft"] else "dense",
        cpu_winner="sparse" if times["psfft"] < times["fftw"] else "dense",
        times=times,
    )

