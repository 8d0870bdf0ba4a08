"""The sparse FFT pipeline — paper Section III end-to-end (CPU reference).

One driver, :func:`run_stack_pipeline`, strings the six steps together over
an ``(S, n)`` stack of signals that share one plan:

1-2. permute + filter + fold into buckets  (:mod:`~repro.core.workspace`)
3.   batched ``B``-point FFT               (:mod:`~repro.core.subsampled`)
4.   cutoff                                (:mod:`~repro.core.cutoff`)
5.   reverse hash + voting                 (:mod:`~repro.core.recovery`)
6.   median magnitude reconstruction       (:mod:`~repro.core.estimation`)

:func:`sfft` validates one signal, resolves its plan and runs the pipeline
on a stack of one; the batched engine (:mod:`repro.core.batch`) and the
sharded executor (:mod:`repro.core.executor`) run it on whole stacks and
shards.  A stack of one bins into the plan workspace's resident ``(L, B)``
scratch and votes into its resident length-``n`` score array, so a single
call allocates neither.

:func:`sfft` doubles as the profiling harness behind Figure 2: with
``profile=True`` each step runs inside a :class:`~repro.obs.Tracer` span,
which is how the paper identified perm+filter as the dominant cost.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError, RecoveryError
from ..obs import MetricsRegistry, Tracer, emit_sfft_metrics, global_registry
from ..utils.rng import RngLike
from ..utils.validation import as_complex_signal
from .comb import comb_approved_residues
from .cutoff import cutoff_rows
from .estimation import estimate_values_stack
from .params import resolve_sfft_config
from .plan import SfftPlan
from .plan_cache import cached_plan
from .recovery import recover_locations_stack

__all__ = ["SparseFFTResult", "sfft", "run_stack_pipeline",
           "comb_masks_for_stack", "STEP_NAMES"]

STEP_NAMES = ("perm_filter", "bucket_fft", "cutoff", "recovery", "estimation")


@dataclass(frozen=True)
class SparseFFTResult:
    """Sparse transform output: the recovered ``(location, value)`` pairs.

    Attributes
    ----------
    n:
        Transform size the locations index into.
    locations:
        Recovered frequencies, ascending ``int64``.
    values:
        Complex coefficient estimates aligned with ``locations``
        (``numpy.fft.fft`` scale).
    votes:
        Location-loop vote count per recovered frequency.
    step_times:
        Wall-clock seconds per pipeline step when profiling was requested,
        else ``None``.  A view over ``trace``: each step's spans summed.
        Includes a ``"comb"`` entry when the sFFT-2.0 pre-filter ran.
    trace:
        The :class:`~repro.obs.Tracer` that clocked the run (profiling
        only); ``trace.export_chrome_trace()`` renders it for
        ``chrome://tracing`` / Perfetto.
    """

    n: int
    locations: np.ndarray
    values: np.ndarray
    votes: np.ndarray
    step_times: dict[str, float] | None = field(default=None, compare=False)
    trace: Tracer | None = field(default=None, compare=False, repr=False)

    @property
    def k_found(self) -> int:
        """Number of recovered coefficients."""
        return self.locations.size

    def to_dense(self) -> np.ndarray:
        """Dense length-``n`` spectrum with the recovered coefficients."""
        spec = np.zeros(self.n, dtype=np.complex128)
        spec[self.locations] = self.values
        return spec

    def top(self, k: int) -> "SparseFFTResult":
        """Restrict to the ``k`` largest-magnitude coefficients."""
        if k >= self.k_found:
            return self
        order = np.argpartition(np.abs(self.values), -k)[-k:]
        order = order[np.argsort(self.locations[order])]
        return SparseFFTResult(
            n=self.n,
            locations=self.locations[order],
            values=self.values[order],
            votes=self.votes[order],
            step_times=self.step_times,
            trace=self.trace,
        )

    def as_dict(self) -> dict[int, complex]:
        """``{frequency: value}`` mapping (convenient for assertions)."""
        return {int(f): complex(v) for f, v in zip(self.locations, self.values)}


@shape_contract("X:(S, n), plan:* -> (S, W)",
                bind={"n": "plan.n", "W": "comb_width"})
def comb_masks_for_stack(
    X: np.ndarray,
    plan: SfftPlan,
    comb_width: int,
    comb_loops: int,
    seed: RngLike,
) -> np.ndarray:
    """Per-signal sFFT-2.0 Comb masks, built row by row in stack order.

    The masks are data-dependent, hence per-signal.  Computed in *stack
    order* so a :class:`numpy.random.Generator` seed draws the same
    permutation sequence whether the stack later runs serially or sharded.
    """
    return np.stack([
        comb_approved_residues(
            X[s], comb_width, plan.params.k, loops=comb_loops, seed=seed
        )
        for s in range(X.shape[0])
    ])


def _no_stage(name, **attrs):
    return nullcontext()


@shape_contract("X:(S, n):complex128, plan:* -> *",
                bind={"n": "plan.n", "B": "plan.params.B",
                      "L": "plan.params.loops",
                      "v": "plan.params.voting_loops"})
def run_stack_pipeline(
    X: np.ndarray,
    plan: SfftPlan,
    *,
    workspace=None,
    cutoff_method: str = "topk",
    residue_filters: np.ndarray | None = None,
    trim_to_k: bool = True,
    strict: bool = False,
    signal_offset: int = 0,
    stage=None,
    metrics: MetricsRegistry | None = None,
) -> list[SparseFFTResult]:
    """Drive a validated ``(S, n)`` stack through the six-step pipeline.

    ``X`` must already be a validated stack (see
    :func:`~repro.core.batch.as_signal_stack`) and any Comb masks must be
    precomputed (``residue_filters``, one row per signal — see
    :func:`comb_masks_for_stack`).  ``workspace`` is the
    :class:`~repro.core.workspace.PlanWorkspace` to execute with — the
    sharded executor passes a per-worker clone; the default is the plan's
    cached workspace.  ``signal_offset`` shifts signal indices in
    ``strict`` error messages so shard errors name the global stack row.
    ``stage`` is an optional ``stage(name, **attrs)`` callable returning a
    context manager, used to clock each stage (:func:`sfft` opens tracer
    spans through it, the executor per-shard spans).  ``metrics``
    receives each signal's ``sfft.*`` metrics
    (:func:`~repro.obs.emit_sfft_metrics`).
    """
    S = X.shape[0]
    params = plan.params
    B, L = params.B, params.loops
    v_loops = params.voting_loops
    ws = plan.workspace() if workspace is None else workspace
    stage = _no_stage if stage is None else stage

    # Steps 1-2: one chunked gather + fold over every (signal, loop) row.
    # A single signal folds into the workspace's resident scratch.
    with stage("perm_filter", signals=S, loops=L, B=B):
        raw = ws.bin_fused(X[0]) if S == 1 \
            else ws.bin_fused_stack(X).reshape(S * L, B)

    # Step 3: one (S*L, B) batched bucket FFT through the process-default
    # FFT backend.
    with stage("bucket_fft", B=B, batch=S * L):
        rows = ws.bucket_fft(raw).reshape(S, L, B)

    # Step 4: batched cutoff over all (signal, voting-loop) rows at once.
    with stage("cutoff", method=cutoff_method):
        flat_sel = cutoff_rows(
            np.abs(rows[:, :v_loops, :]).reshape(S * v_loops, B),
            params.select_count,
            method=cutoff_method,
        )
        selected = [
            flat_sel[s * v_loops:(s + 1) * v_loops] for s in range(S)
        ]

    # Step 5: one flat vote pass for every signal; a single signal votes
    # into the workspace's resident score array.
    perms_v = list(plan.permutations[:v_loops])
    with stage("recovery", loops=v_loops):
        hits, votes = recover_locations_stack(
            selected, perms_v, B, params.vote_threshold,
            residue_filters=residue_filters,
            scores_out=ws.scores if S == 1 else None,
        )

    if strict:
        for s in range(S):
            if hits[s].size < params.k:
                raise RecoveryError(
                    f"signal {signal_offset + s}: recovered only "
                    f"{hits[s].size} of k={params.k} coefficients"
                )

    # Step 6: all signals' estimates in one vectorized pass.
    with stage("estimation", hits=int(sum(h.size for h in hits))):
        values = estimate_values_stack(
            hits, rows, list(plan.permutations), plan.filt, B
        )

    results = []
    for s in range(S):
        if metrics is not None:
            emit_sfft_metrics(
                metrics, B=B, n=params.n,
                selected_sizes=[int(sel.size) for sel in selected[s]],
                hits=hits[s], votes=votes[s], permutations=perms_v,
            )
        res = SparseFFTResult(
            n=params.n, locations=hits[s], values=values[s], votes=votes[s]
        )
        if trim_to_k:
            res = res.top(params.k)
        results.append(res)
    return results


def sfft(
    x,
    k: int | None = None,
    *,
    plan: SfftPlan | None = None,
    seed: RngLike = None,
    cutoff_method: str = "topk",
    comb_width: int | None = None,
    comb_loops: int = 3,
    trim_to_k: bool = True,
    strict: bool = False,
    profile: bool = False,
    verify: bool = False,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    **plan_overrides,
) -> SparseFFTResult:
    """Compute the sparse FFT of ``x``.

    Parameters
    ----------
    x:
        Length-``n`` signal (``n`` a power of two); real inputs are widened
        to complex.
    k:
        Target sparsity.  Optional when ``plan`` is given.
    plan:
        A reusable :class:`~repro.core.plan.SfftPlan`; obtained from the
        process-level plan cache (with ``seed`` / ``plan_overrides``) when
        omitted, so repeat convenience calls of one shape pay filter
        synthesis once — see :mod:`repro.core.plan_cache`.  Passing
        ``plan_overrides`` alongside a plan raises
        :class:`~repro.errors.ParameterError`.
    cutoff_method:
        ``"topk"`` (baseline sort&select) or ``"threshold"`` (fast
        k-selection).
    comb_width:
        Enable the sFFT-2.0 Comb pre-filter with ``W = comb_width`` residue
        classes (a power of two dividing ``n``): ``comb_loops`` cheap
        aliasing passes screen the spectrum and location recovery only
        votes for approved residues.  ``None`` (default) disables it.
    trim_to_k:
        Keep only the ``k`` largest recovered coefficients (the paper
        reports exactly ``k``).
    strict:
        Raise :class:`~repro.errors.RecoveryError` if fewer than ``k``
        coefficients survive voting.
    profile:
        Record per-step wall-clock times in the result (as spans on a
        :class:`~repro.obs.Tracer`, surfaced through ``step_times``).
    tracer:
        Record spans into this tracer instead of a fresh one (implies
        profiling); lets a run-scoped trace hold many transforms.
    metrics:
        Registry receiving the ``sfft.*`` metrics (bucket occupancy,
        recovery votes/hits, collisions).  Defaults to
        :func:`repro.obs.global_registry` when profiling is active.
    verify:
        Debugging aid: additionally compute the dense FFT and raise
        :class:`~repro.errors.RecoveryError` unless the recovered support
        matches its top-``k`` (costs ``O(n log n)`` — development only).

    Returns
    -------
    SparseFFTResult
    """
    if plan is None:
        if k is None:
            raise ParameterError("either k or a plan must be provided")
        x = as_complex_signal(x)
        # The resolution seam: explicit overrides win verbatim; otherwise
        # a configured wisdom store, then paper defaults (see
        # repro.core.params).
        resolved = resolve_sfft_config(
            x.size, k, explicit=plan_overrides, comb_width=comb_width,
        )
        if comb_width is None:
            comb_width = resolved.comb_width
        plan = cached_plan(x.size, k, seed=seed, **resolved.overrides)
    else:
        if plan_overrides:
            raise ParameterError(
                f"unexpected options {sorted(plan_overrides)}: plan "
                f"derivation overrides do not apply to an explicit plan"
            )
        x = as_complex_signal(x, plan.n)
    params = plan.params

    profiling = profile or tracer is not None
    stage = _no_stage
    if profiling:
        if tracer is None:
            tracer = Tracer()
        span_start = len(tracer.spans)

        def stage(name: str, **attrs):
            return tracer.span(name, category="sfft", **attrs)

    # Optional sFFT-2.0 Comb screen — timed as its own step so Figure-2
    # style breakdowns account for every stage that ran.
    X = x[None]
    residue_filters = None
    if comb_width is not None:
        with stage("comb", W=comb_width, loops=comb_loops):
            residue_filters = comb_masks_for_stack(
                X, plan, comb_width, comb_loops, seed
            )

    [result] = run_stack_pipeline(
        X, plan,
        cutoff_method=cutoff_method,
        residue_filters=residue_filters,
        trim_to_k=trim_to_k,
        strict=strict,
        stage=stage,
        metrics=(metrics if metrics is not None else global_registry())
        if profiling else None,
    )

    if profiling:
        # step_times is a view over this call's spans, plus "comb" when
        # the pre-filter ran.
        by_name: dict[str, float] = {}
        for sp in tracer.spans[span_start:]:
            if sp.category == "sfft":
                by_name[sp.name] = by_name.get(sp.name, 0.0) + sp.duration_s
        times = {name: by_name.get(name, 0.0) for name in STEP_NAMES}
        if "comb" in by_name:
            times = {"comb": by_name["comb"], **times}
        result = replace(result, step_times=times, trace=tracer)
    if verify:
        # Verification deliberately uses the numpy oracle, not the
        # configured backend, so verify-mode checks the backend too.
        dense = np.fft.fft(x)  # reprolint: ignore[fft-registry-bypass]
        top = np.argpartition(np.abs(dense), -params.k)[-params.k :]
        want = set(int(f) for f in top)
        got = set(int(f) for f in result.locations)
        if got != want:
            raise RecoveryError(
                f"verification failed: sparse support {sorted(got)[:8]}... "
                f"!= dense top-k {sorted(want)[:8]}..."
            )
    return result
