"""Unit tests for modular arithmetic helpers."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.utils.modmath import (
    gcd,
    ilog2,
    is_power_of_two,
    mod_inverse,
    mod_mult_range,
    next_power_of_two,
    random_invertible,
    random_odd,
)


class TestGcd:
    def test_basic(self):
        assert gcd(12, 18) == 6

    def test_coprime(self):
        assert gcd(35, 64) == 1

    def test_zero(self):
        assert gcd(0, 7) == 7


class TestModInverse:
    def test_small(self):
        assert mod_inverse(3, 7) == 5

    def test_power_of_two_modulus(self):
        inv = mod_inverse(5, 16)
        assert (5 * inv) % 16 == 1

    def test_inverse_of_one(self):
        assert mod_inverse(1, 1024) == 1

    def test_negative_argument_reduced(self):
        inv = mod_inverse(-3, 16)
        assert (-3 * inv) % 16 == 1

    def test_non_invertible_raises(self):
        with pytest.raises(ParameterError):
            mod_inverse(4, 16)

    def test_bad_modulus_raises(self):
        with pytest.raises(ParameterError):
            mod_inverse(3, 0)

    @pytest.mark.parametrize("n", [8, 64, 1 << 20])
    def test_roundtrip_many(self, n):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = int(rng.integers(0, n // 2)) * 2 + 1
            assert (a * mod_inverse(a, n)) % n == 1


class TestPowerOfTwo:
    def test_is_power_of_two(self):
        assert is_power_of_two(1)
        assert is_power_of_two(1 << 30)
        assert not is_power_of_two(0)
        assert not is_power_of_two(12)
        assert not is_power_of_two(-8)

    def test_ilog2(self):
        assert ilog2(1) == 0
        assert ilog2(1 << 27) == 27

    def test_ilog2_rejects_non_power(self):
        with pytest.raises(ParameterError):
            ilog2(12)

    def test_next_power_of_two(self):
        assert next_power_of_two(0) == 1
        assert next_power_of_two(1) == 1
        assert next_power_of_two(5) == 8
        assert next_power_of_two(8) == 8
        assert next_power_of_two(1025) == 2048


class TestRandomDraws:
    def test_random_odd_is_odd_and_in_range(self, rng):
        for _ in range(50):
            v = random_odd(256, rng)
            assert v % 2 == 1 and 0 < v < 256

    def test_random_invertible_power_of_two(self, rng):
        for _ in range(50):
            v = random_invertible(1024, rng)
            assert gcd(v, 1024) == 1

    def test_random_invertible_composite(self, rng):
        for _ in range(50):
            v = random_invertible(360, rng)
            assert gcd(v, 360) == 1

    def test_small_modulus_rejected(self, rng):
        with pytest.raises(ParameterError):
            random_odd(1, rng)
        with pytest.raises(ParameterError):
            random_invertible(1, rng)


class TestModMultRange:
    def test_matches_recurrence(self):
        n, start, step, count = 1000, 7, 33, 200
        expected = []
        v = start
        for _ in range(count):
            expected.append(v)
            v = (v + step) % n
        got = mod_mult_range(start, count, step, n)
        assert got.tolist() == expected

    def test_empty(self):
        assert mod_mult_range(0, 0, 3, 10).size == 0

    @pytest.mark.parametrize("n", [1 << 10, 1 << 22, 1 << 31, 1000, 3 * (1 << 20)])
    def test_mask_and_modulo_paths_agree(self, n):
        # Power-of-two n reduces with a mask, other n with ``%``; both must
        # give the plain ``(start + i*step) % n`` stream, dtype included.
        rng = np.random.default_rng(n)
        for _ in range(4):
            start = int(rng.integers(0, n))
            step = int(rng.integers(1, n)) | 1
            count = int(rng.integers(1, 5000))
            got = mod_mult_range(start, count, step, n)
            ref = (np.arange(count, dtype=np.int64) * step + start) % n
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, ref)
            assert got[-1] == (start + (count - 1) * step) % n

    def test_negative_step_wraps(self):
        got = mod_mult_range(0, 4, -1, 10)
        assert got.tolist() == [0, 9, 8, 7]

    def test_bad_modulus(self):
        with pytest.raises(ParameterError):
            mod_mult_range(0, 4, 1, 0)

    def test_huge_values_no_overflow(self):
        # step * count would overflow int64 without the mod reduction path.
        n = (1 << 62) + 1
        got = mod_mult_range(5, 3, n - 1, n)
        assert got.tolist() == [5, 4, 3]
