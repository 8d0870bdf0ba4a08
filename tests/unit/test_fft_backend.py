"""Unit tests: the one FFT seam every dense transform calls through."""

import numpy as np

from repro.core import get_backend


def test_get_backend_is_numpy():
    backend = get_backend()
    assert backend.name == "numpy"
    assert get_backend() is backend


def test_backend_is_bit_identical_to_numpy_fft(rng):
    a = (rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64)))
    np.testing.assert_array_equal(get_backend().fft(a), np.fft.fft(a, axis=-1))
    np.testing.assert_array_equal(
        get_backend().ifft(a, axis=0), np.fft.ifft(a, axis=0)
    )
