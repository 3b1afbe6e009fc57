"""The benchmark's four workloads.

Each workload builds its targets, configs and inputs from a seed (`build`,
timed as set-up), runs one round of operations through the package's public
entry points (`steps`, timed as wall time), and checks the round's outputs
(`check`, not timed). Every call into the package goes through a module
attribute (`samplers.run_ensemble`, `metrics.w2_exact_smalln`, ...) so that a
tracer patching those attributes sees it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

import sfsampler
from sfsampler import cli, metrics, samplers, targets

import checks

# One worker thread and one 512-chain ensemble block per sampler call: on a shared
# two-core machine a second worker makes each round wait for the busier core.
# The traced run's thread check reruns the main call with one more block at 1
# and 2 threads.
THREADS = 1
CHAINS = 512
REF_LEVEL = 9  # convergence reference grid, step 2**-9


class Step:
    """Operations made by one call `fn()`; if the call raises, all of them fail.

    Steps write their results into the `out` dict handed to `steps`.
    """

    def __init__(self, label, ops, fn):
        self.label, self.ops, self.fn = label, ops, fn


def _digest_arrays(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _digest_dir(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _read_samples(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row[1:]] for row in rows])


# --- bimodal_1d ----------------------------------------------------------------------


class Bimodal1d:
    name = "bimodal_1d"
    why = ("the paper's 1-d experiment via sfs-bench compare and convergence: many cheap steps, "
           "so per-call overhead of drift, gradient, ladder, cli and output dominates")

    THETA, CENTRES, VARIANCES = (0.75, 0.25), (-6.0, 6.0), (0.2, 0.8)

    def build(self, seed, tiny=False):
        n = 64 if tiny else CHAINS
        target = {"kind": "gaussian_mixture", "weights": list(self.THETA),
                  "means": list(self.CENTRES), "covs": list(self.VARIANCES)}
        langevin = {"h": 0.04, "horizon": 2.0 if tiny else 10.0}
        compare = {
            "target": target, "n_chains": n, "seed": seed, "threads": THREADS,
            "variants": [
                {"label": "sfs_beta1", "sampler": "sfs", "beta": 1.0, "h": 0.001},
                {"label": "sfs_beta2", "sampler": "sfs", "beta": 2.0, "h": 0.001},
                {"label": "ula", "sampler": "ula", **langevin},
                {"label": "uld", "sampler": "uld", **langevin},
            ],
        }
        levels = range(3, 7)
        convergence = {
            "target": {"kind": "gaussian_mixture", "weights": [0.5, 0.5],
                       "means": [-1.0, 1.0], "covs": [0.8, 0.8]},
            "h_list": [2.0 ** -k for k in levels], "ref_level": REF_LEVEL,
            "n_chains": n, "seed": seed + 1,
        }
        # the main sampling call: the compare verb's sfs_beta1 variant
        main = (sfsampler.SfsConfig(n_steps=1000, beta=1.0, drift="gmm_exact"),
                targets.make_gaussian_mixture(self.THETA, self.CENTRES, self.VARIANCES), n, seed)
        langevin_steps = int(round(langevin["horizon"] / langevin["h"]))
        chain_steps = n * (2 * 1000 + 2 * langevin_steps) + n * (2 ** REF_LEVEL + sum(2 ** k for k in levels))
        return {"compare": compare, "convergence": convergence, "main": main,
                "chain_steps": chain_steps, "seed": seed}

    def write_configs(self, plan, workdir):
        paths = {}
        for key in ("compare", "convergence"):
            paths[key] = os.path.join(workdir, f"{key}.json")
            with open(paths[key], "w") as fh:
                json.dump(plan[key], fh)
        plan["config_paths"] = paths

    def steps(self, plan, outdir, out):
        n_var = len(plan["compare"]["variants"])
        pairs = n_var * (n_var - 1) // 2

        def verb(name):
            def run():
                args = [name, "--config", plan["config_paths"][name],
                        "--out", os.path.join(outdir, name)]
                code = cli.main(args)
                if code != 0:
                    raise RuntimeError(f"sfs-bench {name} exited {code}")
            return run

        return [
            Step("compare", ["verb:compare"] + ["sampler:run_ensemble"] * n_var
                 + ["eval:mode_weights"] * n_var + ["eval:w2"] * pairs, verb("compare")),
            Step("convergence", ["verb:convergence", "sampler:strong_error_curve"],
                 verb("convergence")),
        ]

    def read(self, outdir):
        cdir = os.path.join(outdir, "compare")
        with open(os.path.join(cdir, "summary.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(outdir, "convergence", "report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(cdir, "w2.csv"), newline="") as fh:
            w2 = {(r["variant_a"], r["variant_b"]): float(r["w2"]) for r in csv.DictReader(fh)}
        samples = {lab: _read_samples(os.path.join(cdir, f"samples_{lab}.csv"))[:, 0]
                   for lab in summary["modes"]}
        return {"summary": summary, "report": report, "w2": w2, "samples": samples}

    def digest(self, outdir, out):
        return _digest_dir(os.path.join(outdir, "compare")) + _digest_dir(os.path.join(outdir, "convergence"))

    def main_samples(self, outdir, out):
        return _read_samples(os.path.join(outdir, "compare", "samples_sfs_beta1.csv"))

    def check(self, plan, outdir, out):
        res = self.read(outdir)
        modes, samples = res["summary"]["modes"], res["samples"]
        problems, errors = [], {}
        for lab in ("sfs_beta1", "sfs_beta2", "ula", "uld"):
            if lab not in modes:
                return [f"summary.json has no mode report for '{lab}'"]
            radius = modes[lab]["radius"]
            if not 0.0 < radius < 6.0:
                problems.append(f"{lab}: capture radius {radius} does not keep the balls disjoint")
            own = checks.nearest_centre_weights(
                samples[lab][:, None], np.reshape(self.CENTRES, (-1, 1)), radius)
            problems += checks.check_close(f"{lab} mode weights", modes[lab]["weights"], own)
            errors[lab] = checks.mode_error(own, self.THETA)
            if lab.startswith("sfs"):
                expected = checks.bimodal_capture(self.THETA, self.CENTRES, self.VARIANCES, radius)
                problems += checks.check_binomial(lab, own, expected, len(samples[lab]))
        problems += checks.check_langevin_collapse(
            {k: errors[k] for k in ("sfs_beta1", "sfs_beta2")},
            {k: errors[k] for k in ("ula", "uld")})
        a, b = samples["sfs_beta1"], samples["sfs_beta2"]
        w2 = res["w2"].get(("sfs_beta1", "sfs_beta2"))
        problems += checks.check_close("w2 sfs_beta1|sfs_beta2", w2, checks.w2_sorted_1d(a, b))
        floor = checks.resampling_floor(np.random.default_rng([plan["seed"], 7]), len(a),
                                        self.THETA, self.CENTRES, self.VARIANCES)
        problems += checks.check_temperature_invariance(w2, floor)
        problems += checks.check_slope(res["report"]["slope"])
        return problems


# --- mixture_d5_full ---------------------------------------------------------------------

def _d5_mixture():
    d = 5

    def equicorrelated(rho, scale):
        return scale * (np.full((d, d), rho) + (1.0 - rho) * np.eye(d))

    weights = np.array([0.5, 0.3, 0.2])
    means = np.array([[-4.0, 0, 0, 0, 0], [4.0, 2, 0, 0, 0], [0.0, -2, 4, 1, 0]])
    covs = [equicorrelated(0.5, 0.6), equicorrelated(-0.2, 0.4),
            np.diag([0.3, 0.5, 0.7, 0.9, 1.1]) + 0.2]
    return weights, means, covs


class MixtureD5Full:
    name = "mixture_d5_full"
    why = ("run_ensemble with gmm_exact on a 5-d three-component correlated mixture at beta 1 and 2, "
           "then exact W2: the full-covariance drift and the O(n^3) assignment dominate")

    RADIUS = 3.0  # below half the smallest centre distance (6.08)

    def build(self, seed, tiny=False):
        n, steps = (64, 10) if tiny else (CHAINS, 40)
        weights, means, covs = _d5_mixture()
        target = targets.make_gaussian_mixture(weights, means, covs)
        cfgs = [sfsampler.SfsConfig(n_steps=steps, beta=b, drift="gmm_exact") for b in (1.0, 2.0)]
        gen = np.random.default_rng([seed, 1])
        iid = [checks.draw_mixture(gen, n, weights, means, covs) for _ in range(2)]
        return {"target": target, "cfgs": cfgs, "n": n, "seed": seed, "iid": iid,
                "mixture": (weights, means, covs), "main": (cfgs[0], target, n, seed),
                "chain_steps": 2 * n * steps}

    def steps(self, plan, outdir, out):
        def sample():
            out["batches"] = [samplers.run_ensemble(c, plan["target"], plan["n"], plan["seed"],
                                                    threads=THREADS) for c in plan["cfgs"]]

        def evaluate():
            centres = plan["mixture"][1]
            iid1, iid2 = plan["iid"]
            out["modes"] = [metrics.mode_weights(b, centres, self.RADIUS).weights
                            for b in out["batches"]]
            out["w2"] = [metrics.w2_exact_smalln(b.samples, iid1) for b in out["batches"]]
            out["w2_iid"] = metrics.w2_exact_smalln(iid1, iid2)

        return [Step("sample", ["sampler:run_ensemble"] * 2, sample),
                Step("evaluate", ["eval:mode_weights"] * 2 + ["eval:w2"] * 3, evaluate)]

    def digest(self, outdir, out):
        return _digest_arrays(*(b.samples for b in out["batches"]), np.array(out["w2"]))

    def main_samples(self, outdir, out):
        return out["batches"][0].samples

    def check(self, plan, outdir, out):
        weights, means, covs = plan["mixture"]
        ref = checks.draw_mixture(np.random.default_rng([plan["seed"], 2]), 200_000,
                                  weights, means, covs)
        iid1, iid2 = plan["iid"]
        problems = checks.check_close("w2 of the i.i.d. pair", out["w2_iid"],
                                      checks.w2_assignment(iid1, iid2), tol=1e-9)
        floor = checks.w2_iid_floor(np.random.default_rng([plan["seed"], 3]), plan["n"],
                                    weights, means, covs)
        for b, modes, w2, cfg in zip(out["batches"], out["modes"], out["w2"], plan["cfgs"]):
            label = f"beta {cfg.beta:g}"
            problems += checks.check_moments(label, b.samples, weights, means, covs, ref)
            problems += checks.check_mixture_modes(label, b.samples, modes, means, self.RADIUS, ref)
            problems += checks.check_w2_ratio(label, w2, floor)
        return problems


# --- mc_d10_ring -----------------------------------------------------------------------------


class McD10Ring:
    name = "mc_d10_ring"
    why = ("grad_mc (M=200) on the d=10 two-mode mixture at beta 5 and gradient-free stein_mc on the "
           "ring: target evaluations over B x M pool points dominate")

    D, RADIUS = 10, 4.8

    def build(self, seed, tiny=False):
        n = 64 if tiny else CHAINS
        two_mode = targets.make_two_mode_gmm(self.D, separation=6.0, variance=0.25)
        ring = targets.make_builtin("ring", r0=2.0, sigma=0.2)
        grad_cfg = sfsampler.SfsConfig(n_steps=10, beta=5.0, drift="grad_mc", n_mc=200)
        ring_cfg = sfsampler.SfsConfig(n_steps=50, beta=1.0, drift="stein_mc", n_mc=200)
        return {"two_mode": two_mode, "ring": ring, "grad_cfg": grad_cfg, "ring_cfg": ring_cfg,
                "n": n, "seed": seed, "main": (ring_cfg, ring, n, seed + 1),
                "chain_steps": n * (grad_cfg.n_steps + ring_cfg.n_steps)}

    def centres(self):
        return np.stack([-6.0 * np.ones(self.D), 6.0 * np.ones(self.D)])

    def steps(self, plan, outdir, out):
        n, seed = plan["n"], plan["seed"]

        def sample():
            out["two_mode"] = samplers.run_ensemble(plan["grad_cfg"], plan["two_mode"], n, seed,
                                                    threads=THREADS)
            out["ring"] = samplers.run_ensemble(plan["ring_cfg"], plan["ring"], n, seed + 1,
                                                threads=THREADS)

        def evaluate():
            out["modes"] = metrics.mode_weights(out["two_mode"], self.centres(), self.RADIUS).weights

        return [Step("sample", ["sampler:run_ensemble"] * 2, sample),
                Step("evaluate", ["eval:mode_weights"], evaluate)]

    def digest(self, outdir, out):
        return _digest_arrays(out["two_mode"].samples, out["ring"].samples)

    def main_samples(self, outdir, out):
        return out["ring"].samples

    def check(self, plan, outdir, out):
        own = checks.nearest_centre_weights(out["two_mode"].samples, self.centres(), self.RADIUS)
        problems = checks.check_close("d10 mode weights", out["modes"], own)
        problems += checks.check_both_modes("grad_mc beta 5", own)
        return problems + checks.check_ring(out["ring"].samples)


# --- gaussian_d100 ----------------------------------------------------------------------------


class GaussianD100:
    name = "gaussian_d100"
    why = ("anisotropic diagonal Gaussian in d=100 with gmm_exact over 1000 steps: the drift is cheap, "
           "so Philox draws and the B x n_steps x d noise buffer set time and peak memory")

    D, STEPS, BETA = 100, 1000, 1.0

    def build(self, seed, tiny=False):
        n, steps = (64, 100) if tiny else (CHAINS, self.STEPS)
        alpha = np.linspace(-2.0, 2.0, self.D)
        var = np.geomspace(0.25, 4.0, self.D)
        target = targets.make_gaussian_mixture([1.0], [alpha], [var])
        cfg = sfsampler.SfsConfig(n_steps=steps, beta=self.BETA, drift="gmm_exact")
        return {"target": target, "cfg": cfg, "n": n, "seed": seed, "alpha": alpha, "var": var,
                "main": (cfg, target, n, seed), "chain_steps": n * steps}

    def steps(self, plan, outdir, out):
        def sample():
            out["batch"] = samplers.run_ensemble(plan["cfg"], plan["target"], plan["n"],
                                                 plan["seed"], threads=THREADS)

        def evaluate():
            out["moments"] = metrics.moment_stats(out["batch"])

        return [Step("sample", ["sampler:run_ensemble"], sample),
                Step("evaluate", ["eval:moment_stats"], evaluate)]

    def digest(self, outdir, out):
        return _digest_arrays(out["batch"].samples)

    def main_samples(self, outdir, out):
        return out["batch"].samples

    def check(self, plan, outdir, out):
        return checks.check_gaussian(out["batch"].samples, plan["alpha"], plan["var"], self.BETA,
                                     plan["cfg"].n_steps, reported_mean=out["moments"][0])


WORKLOADS = {w.name: w for w in (Bimodal1d(), MixtureD5Full(), McD10Ring(), GaussianD100())}
