"""Integration tests for the experiment harness.

These run every registered experiment (at reduced sizes where the runner
accepts them) and assert the *paper-shape properties* each figure claims —
the reproduction's headline guarantees.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    EXPERIMENTS,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.experiments.fig5 import sweep_runtimes_vs_n

SMALL_SIZES = [1 << p for p in (18, 20, 22)]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        # Every table and figure of the evaluation section.
        expected = {
            "fig2a", "fig2b", "fig5a", "fig5b", "fig5c", "fig5d", "fig5e",
            "fig5f", "table1", "table2",
        }
        assert expected <= set(EXPERIMENTS)

    def test_ablations_registered(self):
        assert {"abl-partition", "abl-layout", "abl-select", "abl-batch"} <= set(
            EXPERIMENTS
        )

    def test_unknown_id_raises(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig9z")

    def test_list_sorted(self):
        ids = [s.experiment_id for s in list_experiments()]
        assert ids == sorted(ids)

    def test_specs_have_paper_refs(self):
        for spec in list_experiments():
            assert spec.paper_ref
            assert spec.description


class TestExperimentsMdGenerator:
    """``scripts/generate_experiments_md.py`` names exactly the registry."""

    @pytest.fixture(scope="class")
    def generator(self):
        name = "generate_experiments_md"
        path = Path(__file__).resolve().parents[2] / "scripts" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_order_lists_every_experiment_once(self, generator):
        assert sorted(generator.ORDER) == sorted(EXPERIMENTS)

    def test_commentary_covers_exactly_the_registry(self, generator):
        assert set(generator.COMMENTARY) == set(EXPERIMENTS)

    def test_options_bind_to_registered_runners(self, generator):
        for exp_id, options in generator.OPTIONS.items():
            assert exp_id in EXPERIMENTS
            inspect.signature(EXPERIMENTS[exp_id].runner).bind(**options)


class TestResultRendering:
    def test_render_and_markdown(self):
        res = run_experiment("table2")
        text = res.render()
        md = res.to_markdown()
        assert "table2" in text
        assert md.startswith("**table2**")
        assert "|---" in md

    def test_rows_match_headers(self):
        for exp_id in ("table1", "table2"):
            res = run_experiment(exp_id)
            for row in res.rows:
                assert len(row) == len(res.headers)


class TestFigureShapes:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep_runtimes_vs_n(SMALL_SIZES + [1 << 24, 1 << 26])

    def test_fig5a_sfft_sublinear_dense_superlinear(self, sweep):
        first, last = sweep[0], sweep[-1]
        growth = last["n"] / first["n"]
        assert last["cusfft_opt"] / first["cusfft_opt"] < growth / 4
        assert last["cufft"] / first["cufft"] > growth / 4

    def test_fig5c_speedup_grows(self, sweep):
        speedups = [d["cufft"] / d["cusfft_opt"] for d in sweep]
        assert speedups[-1] > speedups[0]
        assert speedups[-1] > 5

    def test_fig5c_crossover_location(self, sweep):
        # cuFFT wins at 2^18; cusFFT wins by 2^24 — the paper's crossover
        # band.
        assert sweep[0]["cufft"] < sweep[0]["cusfft_opt"]
        by_n = {d["n"]: d for d in sweep}
        d24 = by_n[1 << 24]
        assert d24["cufft"] > d24["cusfft_opt"]

    def test_fig5d_range(self, sweep):
        first, last = sweep[0], sweep[-1]
        assert first["fftw"] / first["cusfft_opt"] < 1.0
        assert last["fftw"] / last["cusfft_opt"] > 10.0

    def test_fig5e_always_faster_than_psfft(self, sweep):
        for d in sweep:
            assert d["psfft"] > d["cusfft_opt_h2d"]

    def test_optimized_beats_baseline(self, sweep):
        for d in sweep:
            assert d["cusfft_opt"] < d["cusfft_base"]

    def test_fig5b_slow_growth_in_k(self):
        res = run_experiment("fig5b", n=1 << 24, ks=[100, 1000])
        assert len(res.rows) == 2

    def test_fig5f_errors_small(self):
        # n=2^20 keeps k/B in the paper's sparse regime (a few percent);
        # smaller n at the same k inflates collisions beyond the paper's
        # operating point.
        res = run_experiment("fig5f", n=1 << 20, ks=[50, 100], trials=1)
        for row in res.rows:
            mean_err = float(row[1])
            recall = float(row[3])
            assert mean_err < 1e-3
            assert recall >= 0.99


class TestFig2Shapes:
    def test_fig2a_perm_filter_share_grows(self):
        res = run_experiment("fig2a")
        first_share = float(res.rows[0][2].rstrip("%"))
        last_share = float(res.rows[-1][2].rstrip("%"))
        assert last_share > first_share

    def test_fig2a_estimation_share_falls(self):
        res = run_experiment("fig2a")
        first = float(res.rows[0][5].rstrip("%")) + float(res.rows[0][6].rstrip("%"))
        last = float(res.rows[-1][5].rstrip("%")) + float(res.rows[-1][6].rstrip("%"))
        assert last < first

    def test_fig2b_recovery_grows_with_k(self):
        res = run_experiment("fig2b", n=1 << 24, ks=[500, 4000])
        first = float(res.rows[0][5].rstrip("%"))
        last = float(res.rows[-1][5].rstrip("%"))
        assert last > first

    def test_fig2a_measured_mode(self):
        res = run_experiment(
            "fig2a", sizes=[1 << 14, 1 << 16], k=16, measured=True
        )
        assert len(res.rows) == 2


class TestAblationShapes:
    def test_partition_beats_atomics(self):
        res = run_experiment("abl-partition", sizes=[1 << 24])
        speedup = float(res.rows[0][3].rstrip("x"))
        assert speedup > 1.0

    def test_layout_neutral_under_honest_model(self):
        # Documented reproduction finding: the layout transformation is
        # ~0.8-1.0x under a bandwidth-honest model (see the experiment's
        # note); assert it stays in that band so a regression in either
        # direction is caught.
        res = run_experiment("abl-layout", sizes=[1 << 22])
        speedup = float(res.rows[0][3].rstrip("x"))
        assert 0.5 < speedup < 1.3
        assert any("REPRODUCTION FINDING" in n for n in res.notes)

    def test_fast_select_helps(self):
        res = run_experiment("abl-select", sizes=[1 << 24])
        speedup = float(res.rows[0][3].rstrip("x"))
        assert speedup > 1.2

    def test_batching_helps(self):
        res = run_experiment("abl-batch", sizes=[1 << 24])
        speedup = float(res.rows[0][4].rstrip("x"))
        assert speedup > 1.0


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5a" in out and "table1" in out

    def test_run_one(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table2"]) == 0
        assert "Sandy Bridge" in capsys.readouterr().out

    def test_markdown_mode(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table2", "--markdown"]) == 0
        assert "|---" in capsys.readouterr().out

    def test_unknown_id(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["nope"]) == 2


class TestExtensionExperiments:
    def test_ext_devices_rows(self):
        res = run_experiment("ext-devices", sizes=[1 << 22])
        assert len(res.rows) == 1
        assert len(res.headers) == 6  # n + 3 GPUs + 2 CPUs

    def test_ext_tuning_never_worse(self):
        res = run_experiment("ext-tuning", sizes=[1 << 21, 1 << 22])
        for row in res.rows:
            gain = float(row[4].rstrip("x"))
            assert gain >= 1.0 - 1e-9

    def test_ext_noise_recall_degrades_gracefully(self):
        res = run_experiment(
            "ext-noise", n=1 << 14, k=16, snrs=(30.0, 0.0), trials=1
        )
        recall_hi = float(res.rows[0][1])
        recall_lo = float(res.rows[1][1])
        assert recall_hi >= recall_lo
        assert recall_hi == 1.0

    def test_ext_ldg_monotone_gain(self):
        res = run_experiment("ext-ldg", sizes=[1 << 22, 1 << 26])
        gains = [float(r[3].rstrip("x")) for r in res.rows]
        assert all(g > 1.0 for g in gains)
        assert gains[-1] >= gains[0]

    def test_ext_exact_phase_decoder_wins_small_n(self):
        res = run_experiment("ext-exact", sizes=[1 << 14], k=50)
        row = res.rows[0]
        assert row[7] == "yes"  # phase decoder exact

    def test_ext_exact_registered(self):
        assert "ext-exact" in EXPERIMENTS
