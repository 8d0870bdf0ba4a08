"""Location recovery — reverse the hash, vote across loops (paper step 5).

Each selected bucket ``J`` of a loop covers the permuted spectral positions
within half a bucket width of its centre, ``p in [ceil((J-0.5)*n/B),
ceil((J+0.5)*n/B))``.  Undoing the permutation (multiply by ``sigma^{-1}``)
turns those into candidate *original* frequencies; a frequency that is truly
large falls in a selected bucket of (almost) every loop, while noise
candidates repeat rarely.  Keeping candidates with at least
``vote_threshold`` votes across the ``L`` loops is the paper's
``I' = { i : s_i > L/2 }``.

A loop votes at most once per frequency, and that needs no sort of the
``m*n/B`` candidates: the bucket regions ``[J*n/B - n/(2B), (J+1)*n/B -
n/(2B))`` tile ``[0, n)`` (mod ``n``) without overlap, and multiplying by
``sigma^{-1}`` is a bijection mod ``n``, so *distinct* buckets yield
disjoint candidate sets.  Deduplicating the at most ``m`` selected bucket
indices is therefore enough, after which the candidates scatter straight
into the scores.

The GPU kernel (Algorithm 4) does exactly this with one thread per selected
bucket and ``atomicAdd`` on a length-``n`` score array; here the votes are a
vectorized fancy-index increment — the same scatter-add, minus the
hardware, and safe without ``np.add.at`` because no index repeats.
"""

from __future__ import annotations

import numpy as np

from ..analysis.staticcheck.contracts import shape_contract
from ..errors import ParameterError
from .permutation import Permutation

__all__ = [
    "candidate_frequencies",
    "VoteAccumulator",
    "recover_locations",
    "recover_locations_stack",
]


def _distinct_int64(values: np.ndarray) -> np.ndarray:
    """Distinct values of a 1-D int64 array, ascending — sort-based.

    Semantically ``np.unique``, but routed through an explicit sort, which
    has a fraction of ``unique``'s fixed cost on the few dozen to few
    hundred bucket keys a loop selects, and on NumPy builds where
    ``unique`` takes a hash-table path is an order of magnitude faster at
    the larger volumes :meth:`VoteAccumulator.add_loop_votes` sees.
    """
    if values.size <= 1:
        return values
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


@shape_contract("selected_buckets:*, perm:* -> *", dtype="int64",
                bind={"n": "perm.n", "B": "B"})
def candidate_frequencies(
    selected_buckets: np.ndarray, perm: Permutation, B: int
) -> np.ndarray:
    """Original-domain candidate frequencies for the selected buckets.

    Returns a flat int64 array of ``len(selected) * (n//B)`` candidates,
    one block of ``n//B`` per selected bucket; distinct buckets give
    disjoint blocks (see the module docstring).  Mirrors Algorithm 4's
    ``low``/``high`` region and ``loc = (low + j) * a % n`` walk, in closed
    form — with a mask in place of ``% n`` when ``n`` is a power of two.
    """
    n = perm.n
    if B < 1 or n % B != 0:
        raise ParameterError(f"B={B} must divide n={n}")
    n_div_b = n // B
    J = np.asarray(selected_buckets, dtype=np.int64)
    if J.ndim != 1:
        raise ParameterError(f"selected buckets must be 1-D, got shape {J.shape}")
    if J.size == 0:
        return np.empty(0, dtype=np.int64)
    if np.any((J < 0) | (J >= B)):
        raise ParameterError("bucket indices out of range")
    # ceil((J - 0.5) * n/B) == J*n_div_b - n_div_b//2 in exact integer
    # arithmetic, avoiding float rounding at big n.
    low = J * n_div_b - n_div_b // 2
    cands = low[:, None] + np.arange(n_div_b, dtype=np.int64)
    cands *= perm.sigma_inv
    if n & (n - 1) == 0:
        # Two's complement: the low bits of the (possibly negative)
        # product are the product mod n.
        cands &= n - 1
    else:
        cands %= n
    return cands.ravel()


class VoteAccumulator:
    """Per-transform vote scores over the ``n`` frequencies.

    A dense ``int16`` score array — the direct analog of the GPU kernel's
    ``score[n]`` buffer (Algorithm 4).  ``int16`` suffices because scores
    are bounded by the loop count.

    :meth:`add_loop_votes` takes arbitrary candidates (repeats allowed) and
    pays for a sort to vote once per frequency.  The hot path,
    :func:`recover_locations`, needs no candidate sort: it deduplicates a
    loop's selected *buckets* instead, because distinct buckets own
    disjoint candidate regions and ``sigma^{-1}`` maps disjoint sets to
    disjoint sets, and scatters into :attr:`scores` directly.

    ``scores_out`` lets a caller supply the buffer (the per-plan workspace
    keeps one resident so the hot path allocates nothing); it is zeroed on
    entry and owned by the accumulator for the transform's duration.
    """

    def __init__(self, n: int, *, scores_out: np.ndarray | None = None):
        if n < 1:
            raise ParameterError(f"n must be positive, got {n}")
        self.n = int(n)
        if scores_out is None:
            self.scores = np.zeros(self.n, dtype=np.int16)
        else:
            if scores_out.shape != (self.n,) or scores_out.dtype != np.int16:
                raise ParameterError(
                    f"scores_out must be int16 of shape ({self.n},), got "
                    f"{scores_out.dtype} {scores_out.shape}"
                )
            scores_out.fill(0)
            self.scores = scores_out

    def add_loop_votes(self, candidates: np.ndarray) -> None:
        """Add one loop's candidates (each distinct frequency votes once).

        Within a loop the same frequency can appear from two adjacent
        selected buckets' overlapping edges; deduplicate so a loop
        contributes at most one vote per frequency, keeping the
        across-loop vote count meaningful.
        """
        if candidates.size == 0:
            return
        uniq = _distinct_int64(np.asarray(candidates, dtype=np.int64))
        self.scores[uniq] += 1

    def hits(self, threshold: int) -> np.ndarray:
        """Frequencies with at least ``threshold`` votes, ascending."""
        if threshold < 1:
            raise ParameterError(f"threshold must be >= 1, got {threshold}")
        return np.flatnonzero(self.scores >= threshold).astype(np.int64)


@shape_contract("selected_per_loop:*, permutations:* -> *",
                bind={"n": "permutations[0].n", "B": "B"})
def recover_locations(
    selected_per_loop: list[np.ndarray],
    permutations: list[Permutation],
    B: int,
    vote_threshold: int,
    *,
    residue_filter: np.ndarray | None = None,
    scores_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run voting over all loops; return ``(hit_frequencies, their_scores)``.

    ``residue_filter`` is the optional sFFT-2.0 Comb screen (see
    :mod:`repro.core.comb`): a boolean mask of length ``W`` — candidates
    whose residue ``f mod W`` is not approved never enter the vote, cutting
    the scatter-add work to the approved classes.  ``scores_out`` is an
    optional preallocated ``int16`` score buffer (zeroed here), letting the
    workspace-driven path vote without allocating a length-``n`` array.
    """
    if len(selected_per_loop) != len(permutations):
        raise ParameterError("one selected-bucket set per permutation required")
    if not permutations:
        raise ParameterError("at least one loop is required")
    if residue_filter is not None:
        residue_filter = np.asarray(residue_filter, dtype=bool)
        if residue_filter.ndim != 1 or residue_filter.size < 1:
            raise ParameterError("residue_filter must be a 1-D boolean mask")
    acc = VoteAccumulator(permutations[0].n, scores_out=scores_out)
    for sel, perm in zip(selected_per_loop, permutations):
        # One vote per frequency per loop: distinct buckets, distinct
        # candidates (module docstring).
        buckets = _distinct_int64(np.asarray(sel, dtype=np.int64))
        cands = candidate_frequencies(buckets, perm, B)
        if residue_filter is not None and cands.size:
            cands = cands[residue_filter[cands % residue_filter.size]]
        acc.scores[cands] += 1
    hits = acc.hits(vote_threshold)
    return hits, acc.scores[hits].astype(np.int64)


@shape_contract("selected:*, permutations:* -> *",
                bind={"S": "len(selected)", "n": "permutations[0].n",
                      "B": "B"})
def recover_locations_stack(
    selected: list[list[np.ndarray]],
    permutations: list[Permutation],
    B: int,
    vote_threshold: int,
    *,
    residue_filters: np.ndarray | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Voting for a whole signal stack — the batched engine's step 5.

    ``selected[s][r]`` holds signal ``s``'s selected buckets in loop ``r``
    (the loops share one permutation schedule — that is what "one plan"
    means).  Instead of ``S`` separate accumulators, one flat ``(S * n)``
    ``int16`` score array votes for all signals at once: per loop, the
    selected buckets of every signal are keyed ``s * B + J`` and
    deduplicated in one vectorised pass (at most ``S * m`` keys), and their
    candidates, offset by ``s * n``, scatter straight into the scores —
    distinct keys own disjoint candidates, as in :func:`recover_locations`.

    ``residue_filters`` is the optional per-signal Comb screen, one boolean
    mask row per signal (masks are data-dependent, so they cannot be shared
    across the stack).  Returns per-signal ``(hits, votes)`` lists matching
    :func:`recover_locations` signal for signal.
    """
    S = len(selected)
    if S < 1:
        raise ParameterError("at least one signal is required")
    if not permutations:
        raise ParameterError("at least one loop is required")
    loops = len(permutations)
    for rows in selected:
        if len(rows) != loops:
            raise ParameterError(
                "one selected-bucket set per (signal, permutation) required"
            )
    masks = None
    if residue_filters is not None:
        masks = np.asarray(residue_filters, dtype=bool)
        if masks.ndim != 2 or masks.shape[0] != S or masks.shape[1] < 1:
            raise ParameterError(
                f"residue_filters must be (S, W) boolean, got {masks.shape}"
            )
    n = permutations[0].n
    if B < 1 or n % B != 0:
        raise ParameterError(f"B={B} must divide n={n}")
    n_div_b = n // B
    scores = np.zeros(S * n, dtype=np.int16)
    for r, perm in enumerate(permutations):
        rows = [np.asarray(selected[s][r], dtype=np.int64) for s in range(S)]
        sizes = [row.size for row in rows]
        if not any(sizes):
            continue
        buckets = np.concatenate(rows)
        if np.any((buckets < 0) | (buckets >= B)):
            raise ParameterError("bucket indices out of range")
        sig_idx = np.repeat(np.arange(S, dtype=np.int64), sizes)
        sig_idx, buckets = np.divmod(_distinct_int64(sig_idx * B + buckets), B)
        cands = candidate_frequencies(buckets, perm, B)
        sig_rows = np.repeat(sig_idx, n_div_b)
        if masks is not None:
            keep = masks[sig_rows, cands % masks.shape[1]]
            cands, sig_rows = cands[keep], sig_rows[keep]
        scores[sig_rows * n + cands] += 1
    per_signal = scores.reshape(S, n)
    hits = [np.flatnonzero(per_signal[s] >= vote_threshold).astype(np.int64)
            for s in range(S)]
    votes = [per_signal[s, h].astype(np.int64) for s, h in enumerate(hits)]
    return hits, votes
