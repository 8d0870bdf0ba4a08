"""Extension experiments beyond the paper's evaluation.

The paper's conclusion promises to "continue to explore the performance of
the algorithm on other emerging parallel architectures, such as DSPs and
Intel Xeon Phi"; these experiments follow through on the reproduction:

* ``ext-devices`` — cusFFT across simulated GPU generations plus PsFFT on
  the Xeon Phi model (the named future-work target);
* ``ext-tuning``  — model-driven parameter autotuning vs the paper's fixed
  formula (the per-size ``Bcst`` tuning the authors did by hand);
* ``ext-noise``   — functional recovery robustness vs SNR (extends the
  noiseless Fig 5(f));
* ``ext-ldg``     — routing the signal gathers through Kepler's read-only
  data cache (described in the paper's Section II-A but unused by cusFFT);
* ``ext-offgrid`` — leakage stress with non-integer tone frequencies, the
  known boundary of the exactly-sparse model.
"""

from __future__ import annotations

import numpy as np

from ..analysis.accuracy import score_result
from ..core.dense import dense_fft
from ..core.plan import make_plan
from ..core.sfft import sfft
from ..core.variants import sfft_batch
from ..cpu.cpuspec import CPU_DEVICES
from ..cpu.psfft import PsFFT
from ..cusim.device import GPU_DEVICES
from ..gpu.config import OPTIMIZED
from ..gpu.cusfft import CusFFT
from ..signals.noise import add_awgn
from ..signals.sparse import make_sparse_signal
from ..tuning import tune_parameters
from ..utils.modmath import ilog2
from ..utils.tables import format_ratio, format_seconds
from .base import ExperimentResult, paper_kwargs

__all__ = [
    "run_ext_devices",
    "run_ext_tuning",
    "run_ext_noise",
    "run_ext_ldg",
    "run_ext_offgrid",
    "run_ext_exact",
]


def run_ext_devices(
    sizes: list[int] | None = None, k: int = 1000
) -> ExperimentResult:
    """Modeled cusFFT/PsFFT across architectures (the paper's future work)."""
    sizes = sizes or [1 << 22, 1 << 24, 1 << 27]
    rows = []
    for n in sizes:
        kw = paper_kwargs(k)
        cells = [f"2^{ilog2(n)}"]
        for dev in GPU_DEVICES:
            t = CusFFT.create(n, k, config=OPTIMIZED, device=dev, **kw)
            cells.append(format_seconds(t.estimated_time()))
        for cpu in CPU_DEVICES:
            cells.append(
                format_seconds(PsFFT.create(n, k, threads=cpu.cores, cpu=cpu, **kw).estimated_time())
            )
        rows.append(tuple(cells))
    headers = (
        "n",
        *(f"cusFFT {d.name}" for d in GPU_DEVICES),
        *(f"PsFFT {c.name}" for c in CPU_DEVICES),
    )
    return ExperimentResult(
        experiment_id="ext-devices",
        title=f"cusFFT/PsFFT across simulated architectures (k={k})",
        headers=headers,
        rows=tuple(rows),
        notes=(
            "extension: K40 wins on bandwidth; Maxwell's 1/32-rate double "
            "precision makes the FFT/estimation stages compute-bound and "
            "costs it the lead despite faster atomics — double-precision "
            "sFFT ports to Maxwell but does not speed up; Xeon Phi's 60-way "
            "MLP accelerates the gathers well past the Sandy Bridge box",
        ),
    )


def run_ext_tuning(
    sizes: list[int] | None = None, k: int = 1000
) -> ExperimentResult:
    """Model-driven autotuning vs the fixed-formula parameters."""
    sizes = sizes or [1 << p for p in range(20, 28)]
    rows = []
    for n in sizes:
        kw = paper_kwargs(k)
        formula = CusFFT.create(n, k, config=OPTIMIZED, **kw).estimated_time()
        tuned = tune_parameters(n, k, executor="gpu", config=OPTIMIZED, **kw)
        rows.append(
            (
                f"2^{ilog2(n)}",
                format_seconds(formula),
                format_seconds(tuned.modeled_time_s),
                tuned.params.B,
                format_ratio(formula / tuned.modeled_time_s),
            )
        )
    return ExperimentResult(
        experiment_id="ext-tuning",
        title=f"Autotuned vs formula-derived parameters (k={k})",
        headers=("n", "formula", "tuned", "tuned B", "gain"),
        rows=tuple(rows),
        notes=(
            "extension: the tuner reproduces the authors' hand-tuned "
            "per-size Bcst — it smooths the power-of-two rounding sawtooth "
            "in B = sqrt(n*k/log n)",
        ),
    )


def run_ext_noise(
    n: int = 1 << 18,
    k: int = 50,
    snrs: tuple[float, ...] = (40.0, 30.0, 20.0, 10.0, 5.0, 0.0),
    *,
    trials: int = 3,
    seed: int = 7,
) -> ExperimentResult:
    """Functional recovery robustness vs SNR."""
    rows = []
    plan = make_plan(n, k, seed=seed, **paper_kwargs(k))
    for snr in snrs:
        # All trials share the hoisted plan: one batched call per SNR.
        sigs = [make_sparse_signal(n, k, seed=seed + 13 * t)
                for t in range(trials)]
        noisy = np.stack([
            add_awgn(sig.time, snr, seed=seed + 31 * t)[0]
            for t, sig in enumerate(sigs)
        ])
        recalls, errs = [], []
        for sig, res in zip(sigs, sfft_batch(noisy, plan=plan)):
            rep = score_result(res, sig.locations, sig.values)
            recalls.append(rep.recall)
            errs.append(rep.l1_error / n)
        rows.append(
            (
                f"{snr:.0f} dB",
                f"{np.mean(recalls):.4f}",
                f"{np.mean(errs):.3e}",
            )
        )
    return ExperimentResult(
        experiment_id="ext-noise",
        title=f"Recovery vs SNR (n=2^{ilog2(n)}, k={k}, {trials} trials)",
        headers=("SNR", "recall", "mean L1/coeff"),
        rows=tuple(rows),
        notes=(
            "extension: the paper evaluates noiseless inputs; voting keeps "
            "recall high well below 20 dB while value error scales with the "
            "noise floor",
        ),
    )


def run_ext_ldg(
    sizes: list[int] | None = None, k: int = 1000
) -> ExperimentResult:
    """Read-only-cache gathers (``__ldg``): a beyond-the-paper optimization.

    The paper's Section II-A describes Kepler's 48 KB read-only data cache
    but cusFFT never exploits it.  Routing the (read-only!) signal gathers
    through that path shrinks each scattered load from a 128-byte L1
    transaction to a 32-byte texture-path transaction — a 4x wire-traffic
    cut on the transform's dominant access stream.
    """
    sizes = sizes or [1 << 22, 1 << 24, 1 << 26, 1 << 27]
    rows = []
    for n in sizes:
        kw = paper_kwargs(k)
        off = CusFFT.create(n, k, config=OPTIMIZED, **kw).estimated_time()
        on = CusFFT.create(
            n, k, config=OPTIMIZED.with_(use_ldg=True), **kw
        ).estimated_time()
        rows.append(
            (
                f"2^{ilog2(n)}",
                format_seconds(off),
                format_seconds(on),
                format_ratio(off / on),
            )
        )
    return ExperimentResult(
        experiment_id="ext-ldg",
        title=f"Read-only-cache (__ldg) signal gathers (k={k})",
        headers=("n", "without __ldg", "with __ldg", "speedup"),
        rows=tuple(rows),
        notes=(
            "extension: projected gain from the Kepler read-only path the "
            "paper describes but does not use; grows with n as the gather "
            "stream's share of total traffic grows",
        ),
    )


def run_ext_offgrid(
    n: int = 1 << 16,
    k: int = 16,
    offsets: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    *,
    trials: int = 3,
    seed: int = 19,
) -> ExperimentResult:
    """Off-grid leakage stress: tones displaced off the DFT grid.

    The exactly-sparse model (the paper's evaluation regime) assumes
    integer frequencies; a displacement of ``delta`` bins smears each tone
    into a Dirichlet tail.  This sweep measures how gracefully recovery
    degrades: nearest-bin recall and the fraction of tone energy captured
    by the recovered coefficients.
    """
    from ..signals.workloads import make_offgrid_tones

    rows = []
    plan = make_plan(n, k, seed=seed, **paper_kwargs(k))
    for delta in offsets:
        # One batched call per offset: the trials share the hoisted plan.
        tones = [make_offgrid_tones(n, k, delta, seed=seed + 7 * t)
                 for t in range(trials)]
        batch = sfft_batch(np.stack([x for x, _ in tones]), plan=plan)
        recalls, captured = [], []
        for (x, freqs), res in zip(tones, batch):
            found = res.locations.astype(np.float64)
            hit = sum(
                1 for f in freqs if np.min(np.abs(found - round(f))) <= 1
            )
            recalls.append(hit / k)
            spec_energy = np.abs(dense_fft(x)) ** 2
            captured.append(
                float(
                    np.abs(res.values).__pow__(2).sum() / spec_energy.sum()
                )
            )
        rows.append(
            (
                f"{delta:.1f}",
                f"{np.mean(recalls):.3f}",
                f"{np.mean(captured):.3f}",
            )
        )
    return ExperimentResult(
        experiment_id="ext-offgrid",
        title=f"Off-grid tone recovery (n=2^{ilog2(n)}, k={k}, {trials} trials)",
        headers=("grid offset (bins)", "nearest-bin recall", "energy captured"),
        rows=tuple(rows),
        notes=(
            "extension: leakage stress outside the paper's exactly-sparse "
            "evaluation — recall of the nearest bin stays high, but the "
            "energy captured by k on-grid coefficients drops toward the "
            "half-bin worst case (the known limitation of on-grid sparse "
            "recovery; off-grid variants are future work)",
        ),
    )


def run_ext_exact(
    sizes: list[int] | None = None,
    k: int = 100,
    *,
    seed: int = 23,
) -> ExperimentResult:
    """sFFT-3.0-style exactly-sparse transform vs the windowed pipeline.

    The paper's reference [3] locates coefficients by *phase decoding* on
    one-sample-shifted buckets, replacing the candidate-region voting
    entirely.  Functional comparison: samples touched and wall-clock of
    both algorithms on identical exactly-sparse inputs (same answers
    required).
    """
    import time as _time

    from ..core.exact import sfft_exact
    from ..core.plan import make_plan as _make_plan

    sizes = sizes or [1 << 14, 1 << 16, 1 << 18]
    rows = []
    for n in sizes:
        sig = make_sparse_signal(n, k, seed=seed + n % 97)
        plan = _make_plan(n, k, seed=seed + 1, **paper_kwargs(k))
        t0 = _time.perf_counter()
        res_w = sfft(sig.time, plan=plan)
        t_windowed = _time.perf_counter() - t0
        t0 = _time.perf_counter()
        res_e, stats = sfft_exact(sig.time, k, seed=seed + 2)
        t_exact = _time.perf_counter() - t0
        truth = set(sig.locations.tolist())
        ok_w = set(res_w.locations.tolist()) == truth
        ok_e = set(res_e.locations.tolist()) == truth
        windowed_samples = plan.filt.width * plan.loops
        rows.append(
            (
                f"2^{ilog2(n)}",
                f"{windowed_samples}",
                f"{stats.samples_touched}",
                format_ratio(windowed_samples / stats.samples_touched),
                format_seconds(t_windowed),
                format_seconds(t_exact),
                "yes" if ok_w else "NO",
                "yes" if ok_e else "NO",
            )
        )
    return ExperimentResult(
        experiment_id="ext-exact",
        title=f"Exactly-sparse phase-decoding transform vs windowed pipeline (k={k})",
        headers=(
            "n", "windowed samples", "exact samples", "sample ratio",
            "windowed time", "exact time", "windowed exact?", "phase exact?",
        ),
        rows=tuple(rows),
        notes=(
            "extension (paper ref [3], sFFT 3.0): phase-encoded location + "
            "peeling removes the voting machinery; noiseless inputs only — "
            "sample counts include its residual-refinement polish.  At "
            "small n the paper-profile windowed pipeline operates at k/B ~ "
            "20% where its recall dips below 1.0; the phase decoder's "
            "peeling is immune to that regime",
        ),
    )
