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
:func:`recover_locations_stack` is the one implementation;
:func:`recover_locations` runs it on a stack of one signal.
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
    return _candidate_block(J, perm, n_div_b).ravel()


def _candidate_block(
    J: np.ndarray, perm: Permutation, n_div_b: int
) -> np.ndarray:
    """``(len(J), n_div_b)`` candidates: each bucket's region, unpermuted."""
    n = perm.n
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
    return cands


class VoteAccumulator:
    """Per-transform vote scores over the ``n`` frequencies — the oracle.

    A dense ``int16`` score array — the direct analog of the GPU kernel's
    ``score[n]`` buffer (Algorithm 4).  ``int16`` suffices because scores
    are bounded by the loop count.

    :meth:`add_loop_votes` takes arbitrary candidates (repeats allowed) and
    pays for a sort to vote once per frequency.  The pipeline,
    :func:`recover_locations_stack`, needs no candidate sort: it
    deduplicates the selected *buckets* instead, because distinct buckets
    own disjoint candidate regions and ``sigma^{-1}`` maps disjoint sets
    to disjoint sets; the tests check it against this class.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ParameterError(f"n must be positive, got {n}")
        self.n = int(n)
        self.scores = np.zeros(self.n, dtype=np.int16)

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


def _scatter_votes(
    scores: np.ndarray,
    selected: list[list[np.ndarray]],
    permutations: list[Permutation],
    B: int,
) -> None:
    """Add every ``(signal, loop)`` row's votes to the flat ``(S*n)`` scores.

    Its own function so that the key and candidate arrays are freed before
    the caller scans the scores.
    """
    S, loops, n = len(selected), len(permutations), permutations[0].n
    # Row s*loops + r of the flat list is signal s, loop r; its keys
    # (r*S + s)*B + J sort loop-major, so each loop's keys form one run.
    rows = [np.asarray(row, dtype=np.int64)
            for per_signal in selected for row in per_signal]
    buckets = np.concatenate(rows)
    if np.any((buckets < 0) | (buckets >= B)):
        raise ParameterError("bucket indices out of range")
    row_of = np.repeat(np.arange(S * loops), [row.size for row in rows])
    keys = _distinct_int64(
        (row_of % loops * S + row_of // loops) * B + buckets
    )
    run, J = np.divmod(keys, B)  # run = r*S + s
    runs = np.searchsorted(run, np.arange(0, (loops + 1) * S, S)).tolist()
    sig = run % S
    for r, perm in enumerate(permutations):
        a, b = runs[r], runs[r + 1]
        if a == b:
            continue
        cands = _candidate_block(J[a:b], perm, n // B)
        if S > 1:
            cands += (sig[a:b] * n)[:, None]
        scores[cands] += 1


@shape_contract("selected_per_loop:*, permutations:* -> *",
                bind={"n": "permutations[0].n", "B": "B"})
def recover_locations(
    selected_per_loop: list[np.ndarray],
    permutations: list[Permutation],
    B: int,
    vote_threshold: int,
    *,
    scores_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run voting over all loops; return ``(hit_frequencies, their_scores)``.

    :func:`recover_locations_stack` on a stack of one signal.
    ``scores_out`` is an optional length-``n`` ``int16`` score buffer.
    """
    hits, votes = recover_locations_stack(
        [selected_per_loop], permutations, B, vote_threshold,
        scores_out=scores_out,
    )
    return hits[0], votes[0]


@shape_contract("selected:*, permutations:* -> *",
                bind={"S": "len(selected)", "n": "permutations[0].n",
                      "B": "B"})
def recover_locations_stack(
    selected: list[list[np.ndarray]],
    permutations: list[Permutation],
    B: int,
    vote_threshold: int,
    *,
    scores_out: np.ndarray | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Voting for a signal stack — the pipeline's step 5.

    ``selected[s][r]`` holds signal ``s``'s selected buckets in loop ``r``
    (the loops share one permutation schedule — that is what "one plan"
    means).  One flat ``(S * n)`` ``int16`` score array votes for all
    signals at once.  The selected buckets of every ``(signal, loop)``
    row are concatenated once, keyed ``(r * S + s) * B + J`` and
    deduplicated with one sort, so each loop's distinct keys form one
    contiguous run; each loop then scatters its keys' candidates, offset
    by ``s * n``, straight into the scores — distinct keys own disjoint
    candidates (module docstring), so no index repeats within a scatter.

    ``scores_out`` is an optional ``(S * n,)`` ``int16`` score buffer,
    zeroed here (the pipeline passes the workspace's resident one for a
    single signal).  Returns per-signal ``(hits, votes)`` lists, hits
    ascending.
    """
    S = len(selected)
    if S < 1:
        raise ParameterError("at least one signal is required")
    if not permutations:
        raise ParameterError("at least one loop is required")
    if vote_threshold < 1:
        raise ParameterError(f"threshold must be >= 1, got {vote_threshold}")
    loops = len(permutations)
    for rows in selected:
        if len(rows) != loops:
            raise ParameterError(
                "one selected-bucket set per (signal, permutation) required"
            )
    n = permutations[0].n
    if B < 1 or n % B != 0:
        raise ParameterError(f"B={B} must divide n={n}")
    if scores_out is None:
        scores = np.zeros(S * n, dtype=np.int16)
    else:
        if scores_out.shape != (S * n,) or scores_out.dtype != np.int16:
            raise ParameterError(
                f"scores_out must be int16 of shape ({S * n},), got "
                f"{scores_out.dtype} {scores_out.shape}"
            )
        scores_out.fill(0)
        scores = scores_out

    _scatter_votes(scores, selected, permutations, B)
    hot = np.flatnonzero(scores >= vote_threshold)
    votes = scores[hot].astype(np.int64)
    edges = np.searchsorted(hot, np.arange(S + 1) * n).tolist()
    spans = list(zip(edges, edges[1:]))
    return ([hot[a:b] - s * n for s, (a, b) in enumerate(spans)],
            [votes[a:b] for a, b in spans])
