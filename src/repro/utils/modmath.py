"""Modular arithmetic helpers used by the sFFT permutation machinery.

The sparse FFT permutes the spectrum with a random dilation ``sigma`` that
must be invertible modulo the signal size ``n`` (for power-of-two ``n`` this
simply means *odd*).  Binning then walks the signal at stride ``sigma`` and
location recovery walks candidate frequencies at stride ``sigma^{-1}``.
Everything here is exact integer math; NumPy vectorized variants are provided
for the hot paths.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError

__all__ = [
    "gcd",
    "mod_inverse",
    "is_power_of_two",
    "ilog2",
    "next_power_of_two",
    "random_odd",
    "random_invertible",
    "mod_mult_range",
]


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of ``a`` and ``b`` (non-negative result)."""
    return math.gcd(int(a), int(b))


def mod_inverse(a: int, n: int) -> int:
    """Return ``a^{-1} mod n``.

    Uses the extended Euclidean algorithm.  Raises :class:`ParameterError`
    when ``a`` is not invertible modulo ``n`` (i.e. ``gcd(a, n) != 1``) so
    that a bad permutation parameter is caught at plan time rather than as a
    silent wrong answer.
    """
    n = int(n)
    if n <= 0:
        raise ParameterError(f"modulus must be positive, got {n}")
    a = int(a) % n
    if math.gcd(a, n) != 1:
        raise ParameterError(f"{a} is not invertible modulo {n}")
    # Extended Euclid: maintain r = old_s * a + old_t * n.
    old_r, r = a, n
    old_s, s = 1, 0
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_s % n


def is_power_of_two(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    n = int(n)
    return n > 0 and (n & (n - 1)) == 0


def ilog2(n: int) -> int:
    """Exact integer log2 of a power-of-two ``n``.

    Raises :class:`ParameterError` for non-powers of two; sFFT parameter
    derivation assumes power-of-two sizes throughout (as does the paper).
    """
    if not is_power_of_two(n):
        raise ParameterError(f"{n} is not a power of two")
    return int(n).bit_length() - 1


def next_power_of_two(n: int) -> int:
    """Smallest power of two ``>= n`` (with ``next_power_of_two(0) == 1``)."""
    n = int(n)
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def random_odd(n: int, rng: np.random.Generator) -> int:
    """Draw a uniformly random odd integer in ``[1, n)``.

    For power-of-two ``n`` the odd residues are exactly the units mod ``n``,
    so this is the fast path for drawing a permutation dilation.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2 to draw an odd residue, got {n}")
    return int(rng.integers(0, n // 2)) * 2 + 1


def random_invertible(n: int, rng: np.random.Generator) -> int:
    """Draw a uniformly random unit modulo ``n`` (``gcd(sigma, n) == 1``).

    This mirrors the rejection loop in the paper's Algorithm 1
    (``while gcd(a, n) != 1``), but takes the O(1) odd-residue shortcut when
    ``n`` is a power of two.
    """
    n = int(n)
    if n < 2:
        raise ParameterError(f"need n >= 2 to draw a unit, got {n}")
    if is_power_of_two(n):
        return random_odd(n, rng)
    while True:
        a = int(rng.integers(1, n))
        if math.gcd(a, n) == 1:
            return a


def mod_mult_range(start: int, count: int, step: int, n: int) -> np.ndarray:
    """Vectorized ``(start + i*step) mod n`` for ``i in range(count)``.

    This is the *index mapping* of the paper's Figure 3: the serial code's
    loop-carried recurrence ``index = (index + step) % n`` is replaced by a
    closed form on the loop iterator, which is what makes the permutation
    loop parallelizable.  Computed in ``int64``; ``count * step`` can exceed
    2**63 for huge inputs, so the multiplication is done modulo ``n`` via
    Python ints only when it would overflow.  For power-of-two ``n`` the
    reduction is a mask, ``& (n - 1)``: the same values as ``% n`` on the
    non-negative products, several times faster.
    """
    n = int(n)
    if n <= 0:
        raise ParameterError(f"modulus must be positive, got {n}")
    count = int(count)
    step = int(step) % n
    start = int(start) % n
    i = np.arange(count, dtype=np.int64)
    if count > 0 and step > 0 and (count - 1) > (2**62) // step:
        # Overflow-safe fallback: iterate in Python ints (rare; huge n only).
        out = np.empty(count, dtype=np.int64)
        v = start
        for j in range(count):
            out[j] = v
            v = (v + step) % n
        return out
    i *= step
    i += start
    if is_power_of_two(n):
        i &= n - 1
        return i
    return i % n
