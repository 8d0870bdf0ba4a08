"""Per-plan execution workspaces — allocate once, transform many times.

A :class:`~repro.core.plan.SfftPlan` holds everything that is *logically*
reusable across executions (filter, permutation schedule); this module holds
everything that is *physically* reusable: the derived index matrices and the
scratch buffers the hot path would otherwise rebuild per call.

For one plan the workspace precomputes

* the ``(L, w)`` **gather-index matrix** — each row is the permuted signal
  index stream ``(i*sigma_r + tau_r) mod n`` of loop ``r``, the closed-form
  index mapping of the paper's Figure 3 materialized for all loops at once;
* the **padded tap matrix** — the filter taps zero-extended to ``rounds*B``
  and reshaped ``(rounds, B)``, the exact layout Algorithm 2's loop-partition
  kernel reads round by round;
* **scratch buffers** — the raw ``(L, B)`` time-domain bucket matrix and the
  ``int16`` vote-score array the recovery step accumulates into.

With those in place, :meth:`PlanWorkspace.bin_fused` performs the paper's
steps 1-2 for *all* ``L`` loops — gather, tap multiply, reshape-sum fold —
and :meth:`PlanWorkspace.bin_fused_stack` extends the same kernel over a
stack of ``S`` signals for the batched engine (:mod:`repro.core.batch`).
Both, and the :data:`GATHER_ELEMENT_CAP` fallback, run one chunked loop
(:meth:`PlanWorkspace._gather_fold`) over ``(signal, loop)`` rows: every
gather lands in one buffer of at most :data:`STACK_CHUNK_ELEMENTS`
elements (or one row, if a row is longer), so no call materialises the
``(L, rounds*B)`` — let alone ``(S, L, rounds*B)`` — gathered intermediate.
Chunks hold whole rows, so each row folds in the same order, and to the
same bits, whatever the chunk size.

This is the CPU analog of ``cusim``'s
:class:`~repro.cusim.memory_pool.DeviceMemoryPool`: device codes keep
per-plan index/scratch arrays resident between launches for the same
reason.

Workspaces are cached on their plan (see
:meth:`repro.core.plan.SfftPlan.workspace`) and are **not thread-safe** —
the scratch buffers are shared state.  Concurrent executors call
:meth:`PlanWorkspace.clone` for a private twin per worker: the immutable
derived arrays (gather matrix, tap layout) are *shared* while the scratch
buffers are fresh, so an N-worker pool pays the index precomputation once.
:meth:`SfftPlan.reseeded` returns a *new* plan object, so a reseeded
schedule never sees a stale gather matrix.

Taking the :data:`GATHER_ELEMENT_CAP` fallback (regenerating gather rows on
the fly instead of materializing the index matrix) is visible as the
``sfft.workspace.gather_cap_fallback`` counter in the global metrics
registry — the path trades speed for footprint and should never engage
silently.
"""

from __future__ import annotations

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError
from .permutation import permuted_indices
from .subsampled import bucket_fft as _dispatch_bucket_fft

__all__ = ["PlanWorkspace", "GATHER_ELEMENT_CAP"]

#: Above this many gather-matrix elements (``L * w``) the workspace stops
#: materializing the ``(L, w)`` index matrix and regenerates rows on the
#: fly instead — the asymptotic regime where the index matrix would rival
#: the signal itself in footprint (int64 gather entries are 8 bytes each).
GATHER_ELEMENT_CAP = 1 << 25

#: Per-chunk budget (complex elements) for every gather intermediate,
#: single-signal or stacked.  The gather/tap/fold kernel walks the
#: ``(signal, loop)`` rows in chunks of whole rows whose gathered samples
#: fit this budget (at least one row per chunk), reusing one buffer.  One
#: giant gather output defeats the cache it is trying to feed and, at
#: large ``n``, costs a fresh multi-MB allocation per call — measured at
#: n=2^22, the ``(L, w)`` gather took 66 MB per call where one row takes
#: 6.5 MB.  2^17 complex elements is 2 MB: small plans gather all loops (or
#: several signals) per chunk, large plans degrade to one row at a time.
STACK_CHUNK_ELEMENTS = 1 << 17


class PlanWorkspace:
    """Precomputed gather indices, tap layout, and scratch for one plan.

    Parameters
    ----------
    plan:
        The :class:`~repro.core.plan.SfftPlan` to execute.  The workspace
        snapshots the plan's permutations and filter at construction; it
        must be rebuilt for a reseeded plan (``plan.reseeded()`` returns a
        fresh plan whose :meth:`~repro.core.plan.SfftPlan.workspace` does
        exactly that).
    gather_cap:
        Override for :data:`GATHER_ELEMENT_CAP` (tests exercise the
        fallback path without paying for a huge plan).
    """

    def __init__(self, plan, *, gather_cap: int | None = None):
        params = plan.params
        self.plan = plan
        self.n = params.n
        self.B = params.B
        self.loops = params.loops
        self.width = plan.filt.width
        self.rounds = plan.rounds
        self._padded = self.rounds * self.B
        self._gather_cap = GATHER_ELEMENT_CAP if gather_cap is None \
            else int(gather_cap)
        self._materialize_gather = (
            self.loops * self._padded <= self._gather_cap
        )
        if not self._materialize_gather:
            # Regenerating rows on the fly is a graceful degradation, not a
            # silent one: surface it in the shared metrics registry.
            from ..obs import global_registry

            global_registry().counter(
                "sfft.workspace.gather_cap_fallback"
            ).inc()
        self._gather: np.ndarray | None = None
        self._taps_flat: np.ndarray | None = None
        self._taps_matrix: np.ndarray | None = None
        #: raw time-domain bucket scratch, one row per loop
        self.raw = np.empty((self.loops, self.B), dtype=np.complex128)
        #: vote-score scratch (int16: scores are bounded by the loop count)
        self.scores = np.zeros(self.n, dtype=np.int16)

    # -- derived arrays (lazy) ---------------------------------------------

    @property
    def taps_flat(self) -> np.ndarray:
        """Filter taps zero-extended to ``rounds * B`` (often a no-copy view)."""
        if self._taps_flat is None:
            time = self.plan.filt.time
            if time.size == self._padded:
                self._taps_flat = time
            else:
                padded = np.zeros(self._padded, dtype=np.complex128)
                padded[: time.size] = time
                self._taps_flat = padded
        return self._taps_flat

    @property
    def taps_matrix(self) -> np.ndarray:
        """The padded taps reshaped ``(rounds, B)`` — Algorithm 2's layout."""
        if self._taps_matrix is None:
            self._taps_matrix = self.taps_flat.reshape(self.rounds, self.B)
        return self._taps_matrix

    @property
    def gather(self) -> np.ndarray | None:
        """The ``(L, rounds*B)`` gather-index matrix, or ``None`` above cap.

        Row ``r`` holds ``(i*sigma_r + tau_r) mod n`` for ``i`` in
        ``range(rounds*B)``; entries past the true filter width ``w`` are
        still valid indices but meet zero taps, so their gathers contribute
        nothing.
        """
        if self._gather is None and self._materialize_gather:
            gather = np.empty((self.loops, self._padded), dtype=np.int64)
            for r in range(self.loops):
                gather[r] = self._gather_row(r)
            self._gather = gather
        return self._gather

    @shape_contract(
        "r:* -> (rounds*B,)", dtype="int64",
        bind={"rounds": "self.rounds", "B": "self.B"},
        attrs={"self._padded": "rounds*B"},
    )
    def _gather_row(self, r: int) -> np.ndarray:
        return permuted_indices(self.plan.permutations[r], self._padded)

    # -- memory accounting -------------------------------------------------

    def memory_breakdown(self) -> dict[str, int]:
        """Current footprint in bytes, split the way :meth:`clone` shares.

        Counts only *materialized* arrays (the lazy gather/tap properties
        stay at zero until first touched, so accounting never forces an
        allocation).  ``gather_bytes`` and ``tap_bytes`` are the immutable
        arrays clones share; ``scratch_bytes`` is the private per-worker
        part.  ``tap_bytes`` is 0 when :attr:`taps_flat` resolved to a
        no-copy view of the plan's own filter (the plan already owns those
        bytes); the reshaped :attr:`taps_matrix` is always a view and never
        counted.
        """
        gather_bytes = 0 if self._gather is None else int(self._gather.nbytes)
        tap_bytes = 0
        if self._taps_flat is not None \
                and self._taps_flat is not self.plan.filt.time:
            tap_bytes = int(self._taps_flat.nbytes)
        scratch_bytes = int(self.raw.nbytes) + int(self.scores.nbytes)
        return {
            "gather_bytes": gather_bytes,
            "tap_bytes": tap_bytes,
            "scratch_bytes": scratch_bytes,
            "total_bytes": gather_bytes + tap_bytes + scratch_bytes,
        }

    # -- concurrency -------------------------------------------------------

    def clone(self) -> "PlanWorkspace":
        """A private twin for a concurrent worker: shared indices, own scratch.

        The derived arrays (gather matrix, padded taps) are immutable on
        the hot path, so the clone *shares* them — an N-worker pool pays
        index precomputation once — while the mutable scratch (``raw``,
        ``scores``) is freshly allocated per clone.
        """
        if self._materialize_gather:
            _ = self.gather  # build once here, before sharing
        _ = self.taps_flat
        twin = PlanWorkspace(self.plan, gather_cap=self._gather_cap)
        twin._gather = self._gather
        twin._taps_flat = self._taps_flat
        twin._taps_matrix = self._taps_matrix
        return twin

    def adopt_shared(
        self,
        *,
        taps_flat: np.ndarray,
        gather: np.ndarray | None = None,
    ) -> None:
        """Adopt externally shared derived arrays (process-pool workers).

        The process execution mode (:mod:`repro.core.executor`,
        ``mode="process"``) places the immutable derived arrays in
        shared memory; worker processes rebuild their workspace around
        read-only views of those segments instead of recomputing them —
        the cross-process twin of what :meth:`clone` does for threads.
        Scratch (``raw``, ``scores``) stays private to this instance.

        ``gather=None`` leaves the gather matrix unmaterialized (the
        above-cap regime, where rows regenerate on the fly); shapes and
        dtypes are validated against this workspace's plan so a stale
        descriptor fails loudly instead of corrupting the transform.
        """
        expected = (self._padded,)
        if taps_flat.shape != expected or taps_flat.dtype != np.complex128:
            raise ParameterError(
                f"shared taps_flat must be complex128 {expected}, got "
                f"{taps_flat.dtype} {taps_flat.shape}"
            )
        self._taps_flat = taps_flat
        self._taps_matrix = taps_flat.reshape(self.rounds, self.B)
        if gather is not None:
            gshape = (self.loops, self._padded)
            if gather.shape != gshape or gather.dtype != np.int64:
                raise ParameterError(
                    f"shared gather matrix must be int64 {gshape}, got "
                    f"{gather.dtype} {gather.shape}"
                )
            self._gather = gather
            self._materialize_gather = True

    # -- bucket FFT dispatch -----------------------------------------------

    @shape_contract("buckets:(M, K) -> (M, K)", dtype="complex128")
    def bucket_fft(self, buckets: np.ndarray) -> np.ndarray:
        """Step 3: :func:`repro.core.subsampled.bucket_fft` on the buckets."""
        return _dispatch_bucket_fft(buckets)

    # -- fused binning -----------------------------------------------------

    @shape_contract(
        "X:(S, n), out:(S*L, B) -> (S*L, B)", dtype="complex128",
        bind={"n": "self.n", "L": "self.loops", "B": "self.B",
              "rounds": "self.rounds"},
        attrs={"self.taps_flat": "(rounds*B,):complex128",
               "self._padded": "rounds*B"},
    )
    def _gather_fold(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gather, tap and fold every ``(signal, loop)`` row of ``X``.

        Row ``s*L + r`` of ``out`` receives signal ``s`` binned through
        loop ``r``.  Rows are processed in chunks of whole rows bounded by
        :data:`STACK_CHUNK_ELEMENTS`, all gathered into one reused buffer;
        a chunk may span a signal boundary, costing one extra ``take``.
        ``mode="wrap"`` is a no-op on the always-valid indices but lets
        ``take`` write straight into ``out=`` (the default ``"raise"``
        gathers into a temporary first).
        """
        L, B, padded = self.loops, self.B, self._padded
        total = X.shape[0] * L
        per_chunk = max(1, min(total, STACK_CHUNK_ELEMENTS // padded))
        buf = np.empty((per_chunk, padded), dtype=np.complex128)
        taps, gather = self.taps_flat, self.gather
        for lo in range(0, total, per_chunk):
            hi = min(lo + per_chunk, total)
            y = buf[: hi - lo]
            row = lo
            while row < hi:
                s, r = divmod(row, L)
                stop = min(hi - row, L - r)
                # Above GATHER_ELEMENT_CAP the index rows regenerate here.
                idx = gather[r:r + stop] if gather is not None else np.stack(
                    [self._gather_row(q) for q in range(r, r + stop)])
                np.take(X[s], idx, out=y[row - lo: row - lo + stop],
                        mode="wrap")
                row += stop
            y *= taps
            np.sum(y.reshape(hi - lo, self.rounds, B), axis=1,
                   out=out[lo:hi])
        return out

    @shape_contract(
        "x:(n,) -> (L, B)", dtype="complex128",
        bind={"n": "self.n", "L": "self.loops", "B": "self.B",
              "rounds": "self.rounds"},
        attrs={"self.raw": "(L, B):complex128"},
    )
    def bin_fused(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Steps 1-2 for all ``L`` loops: gather, tap, fold.

        Produces the same ``(L, B)`` bucket matrix as ``L``
        :func:`~repro.core.binning.bin_vectorized` calls (row for row)
        through the chunked kernel :meth:`_gather_fold`.  With ``out``
        omitted the plan-owned scratch is reused, so steady-state
        executions allocate only the chunk buffer.
        """
        if x.size != self.n:
            raise ParameterError(
                f"signal length {x.size} != plan n={self.n}"
            )
        buckets = self.raw if out is None else out
        if buckets.shape != (self.loops, self.B):
            raise ParameterError(
                f"out must have shape {(self.loops, self.B)}, got {buckets.shape}"
            )
        x = np.asarray(x, dtype=np.complex128)
        self._gather_fold(x.reshape(1, self.n), buckets)
        return buckets

    @shape_contract(
        "X:(S, n) -> (S, L, B)", dtype="complex128",
        bind={"n": "self.n", "L": "self.loops", "B": "self.B"},
    )
    def bin_fused_stack(self, X: np.ndarray) -> np.ndarray:
        """Fused binning over an ``(S, n)`` signal stack -> ``(S, L, B)``.

        Per-signal rows are identical to :meth:`bin_fused` on that signal:
        the same kernel runs over all ``S*L`` ``(signal, loop)`` rows, so
        a chunk (see :data:`STACK_CHUNK_ELEMENTS`) may hold several
        signals at small ``n`` and a single loop of one signal at large
        ``n``.
        """
        X = np.asarray(X, dtype=np.complex128)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ParameterError(
                f"signal stack must be (S, {self.n}), got {X.shape}"
            )
        S = X.shape[0]
        out = np.empty((S * self.loops, self.B), dtype=np.complex128)
        self._gather_fold(X, out)
        return out.reshape(S, self.loops, self.B)

    @shape_contract(
        "x:(n,) -> (L, B)", dtype="complex128",
        bind={"n": "self.n", "L": "self.loops", "B": "self.B",
              "rounds": "self.rounds"},
        attrs={"self.gather": "(L, rounds*B):int64",
               "self.taps_flat": "(rounds*B,):complex128"},
        expect_violation=True,
    )
    def _selfcheck_transposed_fold(self, x: np.ndarray) -> np.ndarray:
        """Negative control for the shape checker — never call this.

        A deliberately transposed fold: the reshape conserves elements
        (so reshape-conservation alone cannot catch it) but the result is
        ``(B, L)`` where the contract — and every real consumer — demands
        ``(L, B)``.  The static checker must flag the return or
        ``shape-checker-selfcheck`` fires, exactly as the naive histogram
        keeps the race detector honest.  Runtime enforcement rejects it
        too: under ``REPRO_CHECK_CONTRACTS=1`` calling this raises
        :class:`~repro.errors.ContractError`.
        """
        y = x[self.gather]
        y *= self.taps_flat
        folded = np.sum(y.reshape(self.loops, self.rounds, self.B), axis=1)
        return folded.reshape(self.B, self.loops)
