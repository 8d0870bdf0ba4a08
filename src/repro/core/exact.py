"""Exactly-sparse sparse FFT (the paper's reference [3], sFFT-3.0 style).

The paper's Section II-C cites Hassanieh et al.'s *Nearly Optimal Sparse
Fourier Transform* as the asymptotically faster successor of the algorithm
cusFFT parallelizes.  For *exactly* sparse spectra its key idea replaces
the location machinery (candidate regions + voting over ``O(log n)``
loops) with **phase-encoded location**:

* bin the spectrum as usual (permute, flat-window filter, fold, ``B``-point
  FFT), and bin a *one-sample-shifted* copy of the permuted signal the same
  way.  Shifting permuted time by one multiplies the coefficient at
  permuted position ``p`` by ``e^{2πi p / n}`` — and the filter response
  cancels in the ratio of the two bucket values, so for a bucket holding a
  single coefficient the ratio's phase reveals ``p`` *directly*;
* a singleton is certified by ``|u[m]| == |v[m]|`` (the shift is a pure
  phase) plus the consistency check that the decoded ``p`` hashes back to
  the bucket it was read from;
* buckets that fail (collisions) are deferred: recovered coefficients are
  subtracted *analytically* from later rounds, whose fresh permutations
  re-scatter the survivors (iterative peeling).

A note on why the filter is still needed: plain aliasing (subsample by
``n/B``) would be cheaper, but its classes are residues mod ``B`` and a
dilation only *permutes* residue classes — two frequencies congruent mod
``B`` collide under **every** ``σ``.  The window's hash depends on the full
permuted position, so the permutation genuinely separates coefficients.

Each round costs two ``w``-tap gathers and two ``B``-point FFTs and decodes
locations in ``O(B)`` — against the windowed pipeline's ``L`` loops plus an
``O(select · n/B)`` reverse-hash search.  The price is robustness: a single
phase carries no redundancy, so this variant is for noiseless
(machine-precision) sparse spectra; use :func:`repro.core.sfft` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError, RecoveryError
from ..filters.base import FlatFilter
from ..filters.flat_window import make_flat_window
from ..utils.modmath import next_power_of_two
from ..utils.rng import RngLike, ensure_rng
from ..utils.validation import as_complex_signal, check_positive_int
from .binning import bin_vectorized
from .permutation import Permutation, random_permutation
from .sfft import SparseFFTResult
from .subsampled import bucket_fft

__all__ = ["ExactSfftStats", "sfft_exact"]


@dataclass
class ExactSfftStats:
    """Diagnostics of one exactly-sparse transform run."""

    rounds: int = 0
    samples_touched: int = 0
    singletons_found: int = 0
    collisions_seen: int = 0
    per_round_found: list[int] = field(default_factory=list)


def _subtract_found(
    u: np.ndarray,
    v: np.ndarray,
    found: dict[int, complex],
    perm: Permutation,
    filt: FlatFilter,
    n: int,
    B: int,
) -> None:
    """Remove already-recovered coefficients from both bucket vectors."""
    if not found:
        return
    n_div_b = n // B
    fs = np.fromiter(found.keys(), dtype=np.int64, count=len(found))
    vals = np.fromiter(found.values(), dtype=np.complex128, count=len(found))
    p = (fs * perm.sigma) % n
    hashed = (p + n_div_b // 2) // n_div_b
    dist = p - hashed * n_div_b
    phase_tau = np.exp(2j * np.pi * perm.tau * fs.astype(np.float64) / n)
    shift_phase = np.exp(2j * np.pi * p / n)
    # A coefficient registers in its own bucket and — through the filter's
    # transition region — in the immediate neighbours; subtract all three
    # (the response two buckets out is at the design tolerance).  The
    # offsets stay within 1.5 n/B, inside the stored response window.
    for db in (-1, 0, 1):
        g = filt.response[filt.reach - dist + db * n_div_b]
        contrib = vals * phase_tau * g / n
        np.subtract.at(u, (hashed + db) % B, contrib)
        np.subtract.at(v, (hashed + db) % B, contrib * shift_phase)


def sfft_exact(
    x,
    k: int | None = None,
    *,
    bucket_factor: int = 4,
    max_rounds: int = 12,
    seed: RngLike = None,
    rel_tol: float = 1e-6,
    strict: bool = True,
) -> tuple[SparseFFTResult, ExactSfftStats]:
    """Recover an exactly ``k``-sparse spectrum by phase decoding + peeling.

    Parameters
    ----------
    x:
        Length-``n`` signal, ``n`` a power of two, whose spectrum has at
        most ``k`` nonzero coefficients (to machine precision).
    k:
        Sparsity bound.
    bucket_factor:
        Buckets per coefficient (``B = next_pow2(bucket_factor * k)``).
    max_rounds:
        Peeling rounds before giving up.
    rel_tol:
        Relative tolerance for the singleton test and the noise-dust floor.
    strict:
        Raise :class:`~repro.errors.RecoveryError` if unresolved energy
        remains after ``max_rounds``; otherwise return what was found.

    Returns
    -------
    (result, stats):
        Recovered coefficients (same container as :func:`repro.core.sfft`)
        plus peeling diagnostics.
    """
    x = as_complex_signal(x)
    n = x.size
    if n & (n - 1):
        raise ParameterError(f"n must be a power of two, got {n}")
    k = check_positive_int(k, "k")
    if k >= n:
        raise ParameterError(f"k={k} must be < n={n}")
    B = min(n // 2, next_power_of_two(max(4, bucket_factor * k)))
    n_div_b = n // B
    rng = ensure_rng(seed)
    filt = make_flat_window(n, B, tolerance=1e-9, pad_to_multiple=B)
    scale_ref = float(np.abs(x).max()) * n

    found: dict[int, complex] = {}
    found_rounds: dict[int, int] = {}
    stats = ExactSfftStats()

    for round_idx in range(max_rounds):
        perm = random_permutation(n, rng)
        shifted = Permutation(
            n=n, sigma=perm.sigma, sigma_inv=perm.sigma_inv,
            tau=(perm.tau + perm.sigma) % n,
        )
        u = bucket_fft(bin_vectorized(x, filt, B, perm))
        v = bucket_fft(bin_vectorized(x, filt, B, shifted))
        stats.rounds += 1
        stats.samples_touched += 2 * filt.width

        _subtract_found(u, v, found, perm, filt, n, B)

        mags = np.abs(u)
        floor = rel_tol * max(scale_ref / n, float(mags.max()) if mags.size else 1.0)
        live = np.flatnonzero(mags > floor)
        new_found = 0
        for m in live:
            a, b = u[m], v[m]
            # Singleton: the one-sample shift is a pure phase.
            if abs(abs(a) - abs(b)) > rel_tol * abs(a):
                stats.collisions_seen += 1
                continue
            phase = np.angle(b / a)
            p = int(round(phase / (2 * np.pi / n))) % n
            # Consistency: the decoded position must hash to this bucket.
            if ((p + n_div_b // 2) // n_div_b) % B != m:
                stats.collisions_seen += 1
                continue
            dist = p - ((p + n_div_b // 2) // n_div_b) * n_div_b
            g = filt.response[filt.reach - dist]
            if abs(g) < 0.1:   # outside the reliable passband
                stats.collisions_seen += 1
                continue
            f = int((p * perm.sigma_inv) % n)
            val = complex(
                n * a / g * np.exp(-2j * np.pi * perm.tau * f / n)
            )
            if f in found:
                found[f] += val
            else:
                found[f] = val
                found_rounds[f] = round_idx
            stats.singletons_found += 1
            new_found += 1
        stats.per_round_found.append(new_found)

        # Drop entries peeled down to numerical dust (self-corrections).
        for f in [f for f, c in found.items() if abs(c) <= rel_tol * scale_ref / n]:
            del found[f]

        if new_found == 0 and (len(found) >= k or not live.size):
            break

    if strict:
        # Residual check on a fresh permutation.
        perm = random_permutation(n, rng)
        u = bucket_fft(bin_vectorized(x, filt, B, perm))
        v = u.copy()
        _subtract_found(u, v, found, perm, filt, n, B)
        if np.abs(u).max() > 100 * rel_tol * scale_ref / n:
            raise RecoveryError(
                f"exact recovery incomplete after {stats.rounds} rounds "
                f"({len(found)} of <= {k} coefficients; residual remains — "
                "is the input truly exactly sparse?)"
            )

    locs = np.array(sorted(found), dtype=np.int64)

    # Residual-driven refinement: estimate each value's *error* from fresh
    # residual buckets (everything found subtracted) and correct.  Because
    # the corrections are bounded by the residual — already small — bucket
    # collisions only corrupt error-of-error, unlike a raw re-estimation.
    if locs.size:
        from .estimation import estimate_values

        for _ in range(2):
            polish_perms = [random_permutation(n, rng) for _ in range(3)]
            rows = np.empty((len(polish_perms), B), dtype=np.complex128)
            for r, perm in enumerate(polish_perms):
                rows[r] = bucket_fft(bin_vectorized(x, filt, B, perm))
                dummy = rows[r].copy()
                _subtract_found(rows[r], dummy, found, perm, filt, n, B)
            stats.samples_touched += len(polish_perms) * filt.width
            delta = estimate_values(locs, rows, polish_perms, filt, B)
            for f, dv in zip(locs, delta):
                found[int(f)] += complex(dv)
        vals = np.array([found[int(f)] for f in locs], dtype=np.complex128)
    else:
        vals = np.empty(0, dtype=np.complex128)

    votes = np.array(
        [stats.rounds - found_rounds[int(f)] for f in locs], dtype=np.int64
    )
    result = SparseFFTResult(n=n, locations=locs, values=vals, votes=votes)
    return result.top(k), stats
