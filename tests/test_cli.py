"""End-to-end tests of the sfs-bench command-line interface."""

import io
import json
import os

import numpy as np
import pytest

from sfsampler import GmmExactDrift, make_gaussian_mixture, samplers
from sfsampler.cli import main
from sfsampler.output import write_samples_csv

PM2_TARGET = {
    "kind": "gaussian_mixture",
    "weights": [0.75, 0.25],
    "means": [-2.0, 2.0],
    "covs": [0.2, 0.8],
}

RING_TARGET = {"kind": "ring", "r0": 2.0, "sigma": 0.2}


def write_config(tmp_path, name="config.json", **doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestDriftCheck:
    def test_skewed_bimodal_point(self, tmp_path, capsys):
        doc = {"target": PM2_TARGET, "x": [0.3], "t": 0.5, "beta": 1.0}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert main(["drift-check", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        target = make_gaussian_mixture(**{k: PM2_TARGET[k] for k in ("weights", "means", "covs")})
        expected = GmmExactDrift(target, 1.0)(np.array([0.3]), 0.5)
        assert out["variant"] == "gmm_exact"
        assert np.asarray(out["drift"]) == pytest.approx(expected, rel=1e-12)

    def test_quadrature_variant(self, tmp_path, capsys):
        doc = {"target": RING_TARGET, "x": [1.0, 0.0], "t": 0.2, "variant": "quadrature"}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert main(["drift-check", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["drift"][0] == pytest.approx(0.7102051705436702, abs=1e-12)

    def test_missing_key_is_config_error(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"target": PM2_TARGET, "x": [0.0]}))
        assert main(["drift-check", "--input", str(path)]) == 2

    def test_bad_time_is_config_error(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"target": PM2_TARGET, "x": [0.0], "t": 1.0}))
        assert main(["drift-check", "--input", str(path)]) == 2

    def test_malformed_json_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text('{"target": {')
        assert main(["drift-check", "--input", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_input_is_config_error(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text("5")
        assert main(["drift-check", "--input", str(path)]) == 2

    def test_malformed_json_stdin_is_config_error(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"target": {'))
        assert main(["drift-check"]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("beta", "abc"), ("M", "many"), ("t", "soon"), ("n_nodes", "x"), ("x", ["a", 0.1]),
         ("x", [0.3]), ("antithetic", "false")],
    )
    def test_malformed_field_named(self, tmp_path, capsys, field, value):
        # [0.3] is one coordinate short of the 2-d ring
        doc = {"target": RING_TARGET, "x": [0.3, 0.1], "t": 0.5, "variant": "stein_mc",
               field: value}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert main(["drift-check", "--input", str(path)]) == 2
        assert f"field '{field}'" in capsys.readouterr().err


    @pytest.mark.parametrize("field, value", [("seed", "x"), ("M", "many"), ("antithetic", "no")])
    def test_pool_field_named_for_the_exact_drift(self, tmp_path, capsys, field, value):
        # the pool fields are checked whichever variant the input asks for
        doc = {"target": PM2_TARGET, "x": [0.1], "t": 0.5, field: value}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert main(["drift-check", "--input", str(path)]) == 2
        assert f"field '{field}'" in capsys.readouterr().err


    def test_input_beyond_memory_exits_2_without_traceback(self, tmp_path, capsys):
        # d = 10^15 asks NumPy for 7.1 PiB for one mean, beyond any address space, so the
        # allocation fails at once whatever the memory overcommit policy
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"target": {"kind": "two_mode_gmm", "d": 10**15},
                                    "x": [0.1], "t": 0.5}))
        assert main(["drift-check", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR[config] out of memory: Unable to allocate")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestConfigHandling:
    def test_unknown_field_rejected(self, tmp_path):
        for extra in ({"stepsize": 0.1}, {"experiment": "sample"}):
            cfg = write_config(tmp_path, target=PM2_TARGET, **extra)
            assert main(["sample", "--config", cfg]) == 2

    def test_missing_weights_named(self, tmp_path, capsys):
        bad = {"kind": "gaussian_mixture", "means": [0.0], "covs": [1.0]}
        cfg = write_config(tmp_path, target=bad)
        assert main(["sample", "--config", cfg]) == 2
        assert "weights" in capsys.readouterr().err

    def test_flag_overrides_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, target=PM2_TARGET, beta=1.0, h=0.125, n_chains=3, out=str(out)
        )
        assert main(["sample", "--config", cfg, "--beta", "2"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["beta"] == 2.0

    def test_nonexistent_config(self):
        assert main(["sample", "--config", "/nonexistent/cfg.json"]) == 2

    def test_malformed_target_file_named(self, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text('{"kind": "gaussian_mixture", "weights": [')
        cfg = write_config(tmp_path, target_file=str(target), h=0.125, out=str(tmp_path / "o"))
        assert main(["sample", "--config", cfg]) == 2
        assert "field 'target_file'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_h_rejected(self, tmp_path):
        cfg = write_config(tmp_path, target=PM2_TARGET, h=0.3)
        assert main(["sample", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("n_chains", "10"), ("seed", True), ("threads", 1.5), ("M", "200"), ("ref_level", 12.0)],
    )
    def test_non_integer_field_named(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, target=PM2_TARGET, h=0.125, out=str(tmp_path / "o"),
                           **{field: value})
        assert main(["sample", "--config", cfg]) == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value", [("antithetic", "no"), ("full", "yes")])
    def test_non_boolean_field_named(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, target=PM2_TARGET, h=0.125, out=str(tmp_path / "o"),
                           **{field: value})
        assert main(["sample", "--config", cfg]) == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind, field, value",
        [("gaussian_mixture", "weights", "ab"),
         ("gaussian_mixture", "weights", [0.75, float("nan")]),
         ("gaussian_mixture", "means", ["a", "b"]),
         ("gaussian_mixture", "means", [[-2.0], [2.0, 1.0]]),
         ("gaussian_mixture", "means", [float("nan"), 2.0]),
         ("gaussian_mixture", "covs", [0.2, "x"]),
         ("gaussian_mixture", "covs", [[[0.2, 0.0], [0.0]], 0.8]),
         ("gaussian_mixture", "covs", [0.2, float("inf")]),
         ("two_mode_gmm", "d", 2.5),
         ("two_mode_gmm", "separation", "far"),
         ("two_mode_gmm", "separation", float("nan")),
         ("two_mode_gmm", "variance", float("inf")),
         ("gaussian_mixture", "weights", [1e308, 1e308]),
         ("two_mode_gmm", "weights", [1e308, 1e308])],
    )
    def test_bad_target_parameter_named(self, tmp_path, capsys, kind, field, value):
        # JSON NaN and Infinity included: they are config errors, not numerical failures
        base = dict(PM2_TARGET) if kind == "gaussian_mixture" else {"kind": kind, "d": 2}
        cfg = write_config(tmp_path, target={**base, field: value}, h=0.125,
                           out=str(tmp_path / "o"))
        assert main(["sample", "--config", cfg]) == 2
        assert f"target field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("full", [[], ["--full"]], ids=["scaled", "full"])
    @pytest.mark.parametrize("full_d", ["many", 0, 2.5, None])
    def test_bad_full_d_named_with_or_without_full(self, tmp_path, capsys, full, full_d):
        target = {"kind": "two_mode_gmm", "d": 1, "full_d": full_d}
        cfg = write_config(tmp_path, target=target, h=0.125, out=str(tmp_path / "o"))
        assert main(["sample", "--config", cfg, *full]) == 2
        assert "target field 'full_d'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_full_d_unknown_for_a_kind_without_d(self, tmp_path, capsys):
        cfg = write_config(tmp_path, target={**RING_TARGET, "full_d": 3}, h=0.125,
                           out=str(tmp_path / "o"))
        assert main(["sample", "--config", cfg]) == 2
        assert "target field 'full_d': unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("full, d", [([], 1), (["--full"], 3)], ids=["scaled", "full"])
    def test_full_d_taken_only_under_full(self, tmp_path, full, d):
        out = tmp_path / "o"
        target = {"kind": "two_mode_gmm", "d": 1, "full_d": 3}
        cfg = write_config(tmp_path, target=target, h=0.125, n_chains=2, out=str(out))
        assert main(["sample", "--config", cfg, *full]) == 0
        assert json.loads((out / "meta.json").read_text())["dim"] == d

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_uint64_named(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, target=PM2_TARGET, h=0.125, out=str(tmp_path / "o"))
        assert main(["sample", "--config", cfg, "--seed", seed]) == 2
        assert "field 'seed'" in capsys.readouterr().err


NAN = float("nan")
RUN = {"target": PM2_TARGET, "h": 0.125, "n_chains": 3, "out": "o"}
DRIFT_AT = {"x": [0.1, 0.2], "t": 0.5}


class TestInputTable:
    @pytest.mark.parametrize(
        "verb, doc, named",
        [("drift-check", {"target": {"kind": "ring", "r0": "x"}, **DRIFT_AT}, "target field 'r0'"),
         ("drift-check", {"target": {"kind": "ring", "r0": NAN}, **DRIFT_AT}, "target field 'r0'"),
         ("drift-check", {"target": {"kind": "ring", "sigma": "x"}, **DRIFT_AT},
          "target field 'sigma'"),
         ("drift-check", {"target": {"kind": "bayes_ridge", "y": "abc"}, **DRIFT_AT},
          "target field 'y'"),
         ("drift-check", {"target": RING_TARGET, **DRIFT_AT, "beat": 5}, "field 'beat'"),
         ("sample", {**RUN, "target": [1, 2]}, "field 'target'"),
         ("sample", {**RUN, "target": {"kind": "funnel", "alpha": NAN}}, "target field 'alpha'"),
         ("sample", {**RUN, "sampler": "ula", "horizon": NAN}, "field 'horizon'"),
         ("sample", {**RUN, "sampler": "uld", "gamma": NAN}, "field 'gamma'"),
         ("sample", {**RUN, "out": 5}, "field 'out'"),
         ("compare", {**RUN, "variants": 5}, "field 'variants'"),
         ("compare", {**RUN, "target": "ring", "betas": [1.0, 2.0]}, "field 'target'")],
        ids=["ring-r0-text", "ring-r0-nan", "ring-sigma-text", "ridge-y-text", "unknown-field",
             "target-list", "funnel-alpha-nan", "ula-horizon-nan", "uld-gamma-nan", "out-number",
             "variants-number", "target-text"],
    )
    def test_malformed_input_exits_2_naming_the_field(self, tmp_path, monkeypatch, capsys,
                                                      verb, doc, named):
        # NaN is written as JSON NaN; nothing may be written, relative to any directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.json").write_text(json.dumps(doc))
        flag = "--input" if verb == "drift-check" else "--config"
        assert main([verb, flag, "in.json"]) == 2
        assert named in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["in.json"]


class TestSample:
    def test_shape_and_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, target=PM2_TARGET, h=0.125, n_chains=3, out=str(out), seed=1
        )
        assert main(["sample", "--config", cfg]) == 0
        lines = (out / "samples.csv").read_text().splitlines()
        assert lines[0] == "chain,dim_0"
        assert len(lines) == 4
        assert (out / "meta.json").exists()
        assert (out / "hist_dim0.csv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert "wall_time_s" not in meta

    @pytest.mark.parametrize(
        "sampler, extra, named",
        [("ula", {"beta": 3.0, "M": 17, "antithetic": True}, "beta"),
         ("ula", {"gamma": 2.0}, "gamma"),
         ("baoab", {"drift": "gmm_exact"}, "drift"),
         ("sfs", {"horizon": 3.0}, "horizon")],
    )
    def test_field_the_sampler_never_reads_exits_2(self, tmp_path, capsys, sampler, extra, named):
        cfg = write_config(tmp_path, target=PM2_TARGET, sampler=sampler, h=0.125, n_chains=3,
                           out=str(tmp_path / "o"), **extra)
        assert main(["sample", "--config", cfg]) == 2
        assert f"field '{named}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rerun_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = write_config(
                tmp_path, target=PM2_TARGET, h=0.0625, n_chains=32, out=str(out), seed=7
            )
            assert main(["sample", "--config", cfg]) == 0
        assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()
        assert (out_a / "meta.json").read_bytes() == (out_b / "meta.json").read_bytes()

    def test_ring_histogram_peaks_near_radius(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            target=RING_TARGET,
            h=0.01,
            n_chains=512,
            M=200,
            out=str(out),
            seed=3,
        )
        assert main(["sample", "--config", cfg]) == 0
        samples = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)[:, 1:]
        radii = np.sqrt(np.sum(samples**2, axis=1))
        density, edges = np.histogram(radii, bins=40, density=True)
        peak = 0.5 * (edges[np.argmax(density)] + edges[np.argmax(density) + 1])
        assert peak == pytest.approx(2.0, abs=0.3)


    def test_zero_mass_exits_3_naming_chains(self, tmp_path, capsys):
        # a component mean of 1e200 overflows every pool point's log-density to -inf
        far = {"kind": "gaussian_mixture", "weights": [1.0], "means": [1e200], "covs": [1.0]}
        cfg = write_config(tmp_path, target=far, drift="stein_mc", M=4, h=0.25, n_chains=3,
                           out=str(tmp_path / "o"))
        with np.errstate(over="ignore"):
            assert main(["sample", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("ERROR[zero-mass]")
        assert "3 chains lost all Monte Carlo weight mass, first at step 0" in err
        assert "[0, 1, 2]" in err


class TestConvergence:
    def test_gaussian_target_reported_exact(self, tmp_path, capsys):
        target = {
            "kind": "gaussian_mixture",
            "weights": [1.0],
            "means": [[1.5]],
            "covs": [[[2.0]]],
        }
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            target=target,
            beta=2.0,
            h_list=[2.0**-3, 2.0**-4, 2.0**-5],
            ref_level=8,
            n_chains=32,
            out=str(out),
        )
        assert main(["convergence", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["exact"] is True
        assert report["slope"] is None
        assert "exact" in capsys.readouterr().out

    def test_gmm_slope_passes_default_band(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            target=PM2_TARGET,
            h_list=[2.0**-6, 2.0**-7, 2.0**-8],
            ref_level=11,
            n_chains=512,
            out=str(out),
            seed=123,
        )
        assert main(["convergence", "--config", cfg]) == 0
        report = json.loads((out / "report.json").read_text())
        assert 0.85 <= report["slope"] <= 1.15
        assert (out / "rates.csv").exists()

    def test_gate_failure_exits_4(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            target=PM2_TARGET,
            h_list=[2.0**-6, 2.0**-7, 2.0**-8],
            ref_level=11,
            n_chains=512,
            out=str(out),
            seed=123,
            band=[2.0, 3.0],
        )
        assert main(["convergence", "--config", cfg]) == 4

    def test_thread_count_never_changes_the_files(self, tmp_path, monkeypatch, blocks_of):
        blocks_of(512)  # 600 chains make two blocks
        workers = []

        class RecordingPool(samplers.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(samplers, "ThreadPoolExecutor", RecordingPool)
        cfg = write_config(tmp_path, target=PM2_TARGET, h_list=[2.0**-2, 2.0**-3, 2.0**-4],
                           ref_level=6, n_chains=600, band=[0.0, 2.0])
        for threads in ("1", "2"):
            args = ["--threads", threads, "--out", str(tmp_path / threads)]
            assert main(["convergence", "--config", cfg, *args]) == 0
        assert workers == [2]
        for name in ("rates.csv", "report.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_non_dyadic_step_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path, target=PM2_TARGET, h_list=[0.1, 0.05, 0.025], out=str(tmp_path / "o")
        )
        assert main(["convergence", "--config", cfg]) == 2

    def test_missing_h_list_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, target=PM2_TARGET, out=str(tmp_path / "o"))
        assert main(["convergence", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [("h_list", ["x", 0.25, 0.125]), ("h_list", [0, 0.25, 0.125]),
         ("h_list", [-0.5, 0.25, 0.125]), ("h_list", 0.25), ("h_list", [True, 0.25, 0.125]),
         ("band", ["a", "b"]), ("band", [0.9, "x"])],
    )
    def test_malformed_field_named(self, tmp_path, capsys, field, value):
        doc = {"h_list": [0.25, 0.125, 0.0625], "ref_level": 6, "n_chains": 4, field: value}
        cfg = write_config(tmp_path, target=PM2_TARGET, out=str(tmp_path / "o"), **doc)
        assert main(["convergence", "--config", cfg]) == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("extra, named", [({"gamma": 7.0, "horizon": 3.0}, "gamma"),
                                               ({"horizon": 3.0}, "horizon")])
    def test_langevin_field_exits_2(self, tmp_path, capsys, extra, named):
        cfg = write_config(tmp_path, target=PM2_TARGET, h_list=[0.25, 0.125, 0.0625], ref_level=6,
                           n_chains=4, out=str(tmp_path / "o"), **extra)
        assert main(["convergence", "--config", cfg]) == 2
        assert f"field '{named}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_langevin_sampler_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, target=PM2_TARGET, sampler="ula", h_list=[0.25, 0.125, 0.0625],
                           ref_level=6, n_chains=4, out=str(tmp_path / "o"))
        assert main(["convergence", "--config", cfg]) == 2
        assert "field 'sampler'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ref_level_outside_ladder_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, target=PM2_TARGET, h_list=[0.25, 0.125, 0.0625], out=str(tmp_path / "o")
        )
        assert main(["convergence", "--config", cfg, "--ref-level", "21"]) == 2
        assert "ref_level" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestW2Command:
    def test_file_against_itself(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        write_samples_csv(np.random.default_rng(0).standard_normal((32, 2)), str(path))
        assert main(["w2", str(path), str(path)]) == 0
        value = float(capsys.readouterr().out.splitlines()[0])
        assert value == 0.0

    def test_single_row_point_masses(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(np.array([[0.0]]), str(a))
        write_samples_csv(np.array([[3.0]]), str(b))
        assert main(["w2", str(a), str(b)]) == 0
        assert float(capsys.readouterr().out.splitlines()[0]) == pytest.approx(3.0)

    def test_gaussian_shift_estimate(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(rng.standard_normal((1000, 1)), str(a))
        write_samples_csv(rng.standard_normal((1000, 1)) + 2.0, str(b))
        assert main(["w2", str(a), str(b), "--method", "1d"]) == 0
        assert float(capsys.readouterr().out.splitlines()[0]) == pytest.approx(2.0, abs=0.1)

    def test_dimension_mismatch_exits_2(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_samples_csv(np.zeros((4, 1)), str(a))
        write_samples_csv(np.zeros((4, 2)), str(b))
        assert main(["w2", str(a), str(b)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        path = tmp_path / "a.csv"
        write_samples_csv(np.zeros((2, 1)), str(path))
        assert main(["w2", str(path), str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize(
        "body, where",
        [("0,1.0,2.0\n1,1.0,abc\n", "row 3, column 'dim_1'"),
         ("0,1.0,2.0\n1,1.0\n", "row 3 has 2 columns"),
         ("0,1.0,nan\n1,1.0,2.0\n", "row 2, column 'dim_1'")],
        ids=["non_numeric", "ragged", "nan"],
    )
    def test_malformed_samples_exit_2(self, tmp_path, capsys, body, where):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_samples_csv(np.zeros((2, 2)), str(good))
        bad.write_text("chain,dim_0,dim_1\n" + body)
        assert main(["w2", str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert f"samples file '{bad}' {where}" in captured.err
        assert captured.out == ""


class TestCompare:
    def test_beta_sweep_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            target=PM2_TARGET,
            betas=[1.0, 2.0],
            h=0.0625,
            n_chains=64,
            out=str(out),
            seed=11,
        )
        assert main(["compare", "--config", cfg]) == 0
        assert (out / "samples_sfs_beta1.csv").exists()
        assert (out / "samples_sfs_beta2.csv").exists()
        assert (out / "modes.csv").exists()
        assert (out / "w2.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["variants"]) == {"sfs_beta1", "sfs_beta2"}
        assert "sfs_beta1|sfs_beta2" in summary["w2"]

    def test_every_failing_variant_reported(self, tmp_path, capsys):
        # stein_mc loses all weight mass and gmm_exact diverges: both run, both are named.
        # The mode is split into two halves: the exact drift's log weights, whose square
        # of the mean overflows, are only formed for more than one component
        far = {"kind": "gaussian_mixture", "weights": [0.5, 0.5], "means": [1e200, 1e200],
               "covs": [1.0, 1.0]}
        cfg = write_config(
            tmp_path,
            target=far,
            variants=[{"label": "a", "drift": "stein_mc"}, {"label": "b", "drift": "gmm_exact"}],
            M=4,
            h=0.25,
            n_chains=3,
            out=str(tmp_path / "o"),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["compare", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert "2 of 2 variants failed" in err
        assert "a: 3 chains lost all Monte Carlo weight mass" in err
        assert "b: 3 chains diverged" in err

    def test_identical_variants_zero_w2(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            target=PM2_TARGET,
            variants=[
                {"label": "a", "sampler": "sfs", "beta": 1.0},
                {"label": "b", "sampler": "sfs", "beta": 1.0},
            ],
            h=0.0625,
            n_chains=32,
            out=str(out),
            seed=4,
        )
        assert main(["compare", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["w2"]["a|b"] == 0.0

    @pytest.mark.parametrize(
        "field, doc",
        [
            ("betas", {"betas": [1, 1.0]}),
            ("variants", {"variants": [{"label": "a", "beta": 1.0}, {"label": "a", "beta": 2.0}]}),
        ],
    )
    def test_duplicate_labels_rejected_before_sampling(self, tmp_path, capsys, field, doc):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, target=PM2_TARGET, h=0.0625, n_chains=8, out=str(out), **doc)
        assert main(["compare", "--config", cfg]) == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label", ["", "..", "../x", "a/b", "a\\b"])
    def test_unsafe_label_rejected_before_sampling(self, tmp_path, capsys, label):
        out = tmp_path / "out"
        variants = [{"label": label, "beta": 1.0}, {"label": "b", "beta": 2.0}]
        cfg = write_config(tmp_path, target=PM2_TARGET, h=0.0625, n_chains=8, out=str(out),
                           variants=variants)
        assert main(["compare", "--config", cfg]) == 2
        assert "field 'variants'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("target", RING_TARGET), ("out", "elsewhere"), ("h_list", [0.5]), ("full", True),
         ("variants", []), ("betas", [1.0]), ("band", [0.0, 2.0]), ("ref_level", 3)],
    )
    def test_variant_field_it_cannot_change_named(self, tmp_path, capsys, field, value):
        out = tmp_path / "out"
        variants = [{"label": "a", "beta": 1.0}, {"label": "b", "beta": 2.0, field: value}]
        cfg = write_config(tmp_path, target=PM2_TARGET, h=0.0625, n_chains=8, out=str(out),
                           variants=variants)
        assert main(["compare", "--config", cfg]) == 2
        assert f"field 'variants': field '{field}': unknown" in capsys.readouterr().err
        assert not out.exists()

    def test_single_variant_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            target=PM2_TARGET,
            variants=[{"label": "a", "sampler": "sfs"}],
            out=str(tmp_path / "o"),
        )
        assert main(["compare", "--config", cfg]) == 2
