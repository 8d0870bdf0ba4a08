"""Unit tests for the flat-window filter stack."""

import numpy as np
import pytest
from scipy.signal.windows import chebwin

from repro.errors import FilterDesignError, ParameterError
from repro.filters import (
    FlatFilter,
    analyze_filter,
    chebyshev_support,
    dirichlet_kernel,
    dolph_chebyshev_window,
    gaussian_support,
    gaussian_window,
    make_flat_window,
)


class TestGaussianWindow:
    def test_peak_and_symmetry(self):
        w = gaussian_window(101, 0.01, 1e-6)
        assert w.max() == pytest.approx(1.0)
        assert np.allclose(w, w[::-1])

    def test_tails_reach_tolerance(self):
        tol = 1e-6
        width = gaussian_support(0.01, tol)
        w = gaussian_window(width, 0.01, tol)
        assert w[0] <= tol * 10

    def test_spectrum_meets_stopband_spec(self):
        n, lobefrac, tol = 4096, 0.01, 1e-6
        width = gaussian_support(lobefrac, tol)
        w = gaussian_window(width, lobefrac, tol)
        padded = np.zeros(n)
        padded[:width] = w
        spec = np.abs(np.fft.fft(padded))
        spec /= spec.max()
        edge = int(np.ceil(lobefrac * n))
        # Everything beyond the design lobe must be near tolerance level.
        assert spec[edge + 2 : n - edge - 2].max() < tol * 50

    def test_bad_args(self):
        with pytest.raises(FilterDesignError):
            gaussian_window(2, 0.01, 1e-6)
        with pytest.raises(FilterDesignError):
            gaussian_window(11, 0.7, 1e-6)
        with pytest.raises(FilterDesignError):
            gaussian_window(11, 0.01, 2.0)
        with pytest.raises(FilterDesignError):
            gaussian_support(0.0, 1e-6)


class TestChebyshevWindow:
    @pytest.mark.parametrize("w,tol", [(65, 1e-4), (129, 1e-6), (257, 1e-8)])
    def test_matches_scipy(self, w, tol):
        mine = dolph_chebyshev_window(w, tol)
        ref = chebwin(w, at=-20 * np.log10(tol))
        assert np.abs(mine - ref / ref.max()).max() < 1e-12

    def test_equiripple_sidelobes(self):
        w, tol = 129, 1e-5
        taps = dolph_chebyshev_window(w, tol)
        nfft = 8192
        spec = np.abs(np.fft.fft(taps, nfft))
        spec /= spec.max()
        # Main-lobe edge: |W(nu)| first reaches the ripple level where
        # beta*cos(pi*nu) = 1, i.e. nu0 = acos(1/beta)/pi.
        beta = np.cosh(np.arccosh(1 / tol) / (w - 1))
        nu0 = np.arccos(1 / beta) / np.pi
        main = int(np.ceil(nu0 * nfft)) + 2
        side = spec[main : nfft - main]
        # Side lobes sit at the tolerance level (equiripple), never above.
        assert side.max() == pytest.approx(tol, rel=0.05)
        assert side.max() <= tol * 1.01

    def test_support_formula_sane(self):
        w = chebyshev_support(0.01, 1e-8)
        # ~ (1/pi)/lobefrac * acosh(1e8) ~ 586
        assert 500 < w < 700
        assert w % 2 == 1

    def test_smaller_tolerance_needs_more_taps(self):
        assert chebyshev_support(0.01, 1e-10) > chebyshev_support(0.01, 1e-4)

    def test_rejects_even_length(self):
        with pytest.raises(FilterDesignError):
            dolph_chebyshev_window(64, 1e-6)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(FilterDesignError):
            dolph_chebyshev_window(65, 1.5)


class TestDirichletKernel:
    def test_peak_value(self):
        d = dirichlet_kernel(np.array([0.0]), 7, 64)
        assert d[0] == pytest.approx(7.0)

    def test_matches_sum_of_exponentials(self):
        n, b = 64, 5
        t = np.arange(-10, 11, dtype=float)
        direct = sum(
            np.exp(2j * np.pi * d * t / n) for d in range(-(b // 2), b // 2 + 1)
        )
        assert np.abs(dirichlet_kernel(t, b, n) - direct.real).max() < 1e-9

    def test_even_width_rejected(self):
        with pytest.raises(FilterDesignError):
            dirichlet_kernel(np.zeros(1), 4, 64)


class TestFlatWindow:
    @pytest.mark.parametrize("window", ["dolph-chebyshev", "gaussian"])
    def test_passband_flat_and_stopband_clean(self, window):
        n, B = 4096, 64
        f = make_flat_window(n, B, window=window, tolerance=1e-8)
        rep = analyze_filter(f, B)
        assert rep.passband_ripple < 1e-4
        assert rep.stopband_max < 1e-5
        assert rep.passband_min > 0.9

    def test_response_is_exact_dft_of_taps(self):
        n, B = 2048, 32
        f = make_flat_window(n, B)
        padded = np.zeros(n, dtype=complex)
        padded[: f.width] = f.time
        offsets = np.arange(-f.reach, f.reach + 1)
        assert np.abs(np.fft.fft(padded)[offsets % n] - f.response).max() \
            < 1e-12

    def test_pad_to_multiple(self):
        n, B = 2048, 32
        f = make_flat_window(n, B, pad_to_multiple=B)
        assert f.width % B == 0
        assert f.width <= n

    def test_support_much_smaller_than_n(self):
        n, B = 1 << 16, 64
        f = make_flat_window(n, B)
        assert f.width < n // 4

    def test_support_capped_at_n(self):
        # Tiny n with large B forces the cap; filter still valid.
        f = make_flat_window(64, 16)
        assert f.width <= 64
        assert np.isfinite(np.abs(f.response)).all()

    def test_response_at_wraps_negative_offsets(self):
        f = make_flat_window(1024, 32)
        vals = f.response_at(np.array([-1, 0, 1]))
        assert vals.shape == (3,)
        assert abs(vals[1]) > 0.9

    def test_passband_halfwidth_covers_bucket(self):
        n, B = 4096, 64
        f = make_flat_window(n, B)
        assert f.passband_halfwidth() >= n // (2 * B)

    def test_invalid_args(self):
        with pytest.raises(FilterDesignError):
            make_flat_window(100, 7)  # B does not divide n
        with pytest.raises(FilterDesignError):
            make_flat_window(64, 1)
        with pytest.raises(FilterDesignError):
            make_flat_window(1024, 32, window="hann")
        with pytest.raises(FilterDesignError):
            make_flat_window(1024, 32, tolerance=0.0)
        with pytest.raises(FilterDesignError):
            make_flat_window(2, 2)

    def test_flatfilter_validates_shapes(self):
        def build(time_len, response_len):
            return FlatFilter(
                n=16,
                time=np.zeros(time_len, complex),
                response=np.zeros(response_len, complex),
                window_name="gaussian",
                lobefrac=0.1,
                tolerance=1e-6,
                box_width=3,
            )

        assert build(4, 9).reach == 4
        with pytest.raises(FilterDesignError):
            build(4, 8)  # not a symmetric -reach..reach window
        with pytest.raises(FilterDesignError):
            build(4, 19)  # reach 9 > n/2
        with pytest.raises(FilterDesignError):
            build(17, 9)  # more taps than n

    def test_gaussian_needs_more_taps_than_chebyshev(self):
        # Chebyshev is optimal: for the same spec it needs fewer taps.
        g = make_flat_window(1 << 14, 64, window="gaussian")
        c = make_flat_window(1 << 14, 64, window="dolph-chebyshev")
        assert c.width <= g.width


# (n, B) pairs covering both response-window branches: the chirp-z
# convolution (2^16 and up) and the length-n FFT fallback (tiny n).
_WINDOW_GRID = [(1 << 10, 16), (1 << 12, 128), (1 << 14, 64), (1 << 16, 512),
                (1 << 18, 1024), (1 << 20, 8192)]


def _assert_window_is_exact(f):
    """The stored window is the full response at -reach..reach, and holds
    the global peak the taps were normalised by."""
    n = f.n
    offsets = np.arange(-f.reach, f.reach + 1)
    full = f.full_response()
    assert np.abs(full[offsets % n] - f.response).max() <= 1e-13
    peak = int(np.argmax(np.abs(full)))
    assert min(peak, n - peak) <= f.reach
    assert np.abs(full).max() == pytest.approx(1.0, abs=1e-13)


class TestResponseWindow:
    @pytest.mark.parametrize("window", ["dolph-chebyshev", "gaussian"])
    @pytest.mark.parametrize("n,B", _WINDOW_GRID)
    def test_window_matches_full_response(self, n, B, window):
        f = make_flat_window(n, B, window=window, pad_to_multiple=B)
        assert f.reach == min(2 * (n // B), n // 2)
        _assert_window_is_exact(f)

    @pytest.mark.parametrize("window", ["dolph-chebyshev", "gaussian"])
    def test_capped_filter_window(self, window):
        n, B = 256, 32
        f = make_flat_window(n, B, window=window, pad_to_multiple=B)
        assert f.width >= n - B  # support hit the signal length
        _assert_window_is_exact(f)

    def test_both_branches_give_the_same_window(self, monkeypatch):
        from repro.filters import flat_window

        n, B = 1 << 16, 512
        chirp = make_flat_window(n, B, pad_to_multiple=B)
        monkeypatch.setattr(flat_window, "_smooth_length", lambda m: n)
        dense = make_flat_window(n, B, pad_to_multiple=B)
        assert np.abs(chirp.response - dense.response).max() <= 1e-13
        assert np.abs(chirp.time - dense.time).max() <= 1e-13

    def test_response_at_raises_beyond_reach(self):
        f = make_flat_window(1024, 32)
        edge = np.array([-f.reach, f.reach])
        assert np.array_equal(f.response_at(edge), f.response[[0, -1]])
        with pytest.raises(ParameterError):
            f.response_at(np.array([f.reach + 1]))
        with pytest.raises(ParameterError):
            f.response_at(np.array([0, -f.reach - 1]))

    def test_plan_holds_no_length_n_array(self):
        from perfbench.counts import plan_bytes

        from repro.core import PlanCache, make_plan

        n = 1 << 16
        plan = make_plan(n, 16, seed=1)
        for name, arr in vars(plan.filt).items():
            if isinstance(arr, np.ndarray):
                assert arr.size < n, name
        counts = plan_bytes(plan)
        assert PlanCache.plan_nbytes(plan) == counts["total"]
        assert counts["filter.response"] == 16 * (4 * n // plan.B + 1)
