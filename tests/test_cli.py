"""End-to-end tests of the sfs-bench command-line interface."""

import io
import json

import numpy as np
import pytest

from sfsampler import GmmExactDrift, make_gaussian_mixture
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


class TestConfigHandling:
    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, target=PM2_TARGET, stepsize=0.1)
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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_uint64_named(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, target=PM2_TARGET, h=0.125, out=str(tmp_path / "o"))
        assert main(["sample", "--config", cfg, "--seed", seed]) == 2
        assert "field 'seed'" in capsys.readouterr().err


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

    def test_non_dyadic_step_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path, target=PM2_TARGET, h_list=[0.1, 0.05, 0.025], out=str(tmp_path / "o")
        )
        assert main(["convergence", "--config", cfg]) == 2

    def test_missing_h_list_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, target=PM2_TARGET, out=str(tmp_path / "o"))
        assert main(["convergence", "--config", cfg]) == 2


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

    def test_single_variant_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            target=PM2_TARGET,
            variants=[{"label": "a", "sampler": "sfs"}],
            out=str(tmp_path / "o"),
        )
        assert main(["compare", "--config", cfg]) == 2
