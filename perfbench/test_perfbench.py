"""Tests of the benchmark itself: every workload at a tiny size, traced and
untraced, and every correctness check fed a deliberately wrong input.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_tiny_untraced_and_traced(name, tmp_path):
    runner = run.Runner(workloads, name, seed=3, workdir=str(tmp_path), tiny=True)
    values = run.run_untraced(runner, seconds=0)
    assert values["wall_s"] > 0 and values["chain_steps_per_s"] > 0
    layers = run.run_traced(runner, seconds=0, trace_dir=str(tmp_path))
    assert runner.failed == 0 and runner.errors == []
    assert runner.problems == []
    assert layers["samplers.chain_steps"] == runner.plan["chain_steps"]
    assert set(layers) == set(run.layer_units())
    assert os.path.exists(tmp_path / f"spans-{name}-seed3.csv")


def test_checkout_without_package_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bimodal_1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- checks against wrong inputs ------------------------------------------------------

THETA, CENTRES, VARIANCES = (0.75, 0.25), (-6.0, 6.0), (0.2, 0.8)


def bimodal_draw(gen, n, theta=THETA):
    covs = [np.array([[v]]) for v in VARIANCES]
    return checks.draw_mixture(gen, n, theta, np.reshape(CENTRES, (-1, 1)), covs)[:, 0]


def test_bimodal_weights_reject_one_mode():
    gen = np.random.default_rng(0)
    expected = checks.bimodal_capture(THETA, CENTRES, VARIANCES, 2.5)
    good = checks.nearest_centre_weights(bimodal_draw(gen, 2000)[:, None], [[-6.0], [6.0]], 2.5)
    assert checks.check_binomial("good", good, expected, 2000) == []
    one_mode = bimodal_draw(gen, 2000, theta=(1.0, 0.0))
    bad = checks.nearest_centre_weights(one_mode[:, None], [[-6.0], [6.0]], 2.5)
    assert checks.check_binomial("one mode", bad, expected, 2000)


def test_langevin_collapse_rejects_a_baseline_that_recovers():
    assert checks.check_langevin_collapse({"sfs": 0.01}, {"ula": 0.75}) == []
    assert checks.check_langevin_collapse({"sfs": 0.01}, {"ula": 0.015})


def test_temperature_invariance_rejects_a_distinct_law():
    gen = np.random.default_rng(1)
    floor = checks.resampling_floor(gen, 512, THETA, CENTRES, VARIANCES)
    same = checks.w2_sorted_1d(bimodal_draw(gen, 512), bimodal_draw(gen, 512))
    assert checks.check_temperature_invariance(same, floor) == []
    other = checks.w2_sorted_1d(bimodal_draw(gen, 512), bimodal_draw(gen, 512, (0.5, 0.5)))
    assert checks.check_temperature_invariance(other, floor)


def test_slope_check_rejects_half_order():
    h = 2.0 ** -np.arange(4, 9)
    half = np.polyfit(np.log(h), np.log(0.3 * h**0.5), 1)[0]
    assert checks.check_slope(1.01) == []
    assert checks.check_slope(half)
    assert checks.check_slope(None)


def test_check_close_rejects_a_disagreeing_program_value():
    assert checks.check_close("w", [0.5, 0.5], [0.5, 0.5]) == []
    assert checks.check_close("w", [0.5, 0.5], [0.6, 0.4])


def test_mixture_checks_reject_a_shifted_sample_and_one_component():
    weights, means, covs = workloads._d5_mixture()
    gen = np.random.default_rng(2)
    ref = checks.draw_mixture(gen, 100_000, weights, means, covs)
    good = checks.draw_mixture(gen, 1024, weights, means, covs)
    assert checks.check_moments("good", good, weights, means, covs, ref) == []
    assert checks.check_mixture_modes("good", good, checks.nearest_centre_weights(good, means, 3.0),
                                      means, 3.0, ref) == []
    shifted = good + 0.5
    assert checks.check_moments("shifted", shifted, weights, means, covs, ref)
    one_comp = checks.draw_mixture(gen, 1024, [1.0], means[:1], covs[:1])
    assert checks.check_mixture_modes("one", one_comp,
                                      checks.nearest_centre_weights(one_comp, means, 3.0),
                                      means, 3.0, ref)


def test_w2_check_rejects_a_single_component():
    weights, means, covs = workloads._d5_mixture()
    gen = np.random.default_rng(5)
    floor = checks.w2_iid_floor(gen, 256, weights, means, covs, pairs=3)
    iid = checks.draw_mixture(gen, 256, weights, means, covs)
    good = checks.draw_mixture(gen, 256, weights, means, covs)
    assert checks.check_w2_ratio("good", checks.w2_assignment(good, iid), floor) == []
    one = checks.draw_mixture(gen, 256, [1.0], means[:1], covs[:1])
    assert checks.check_w2_ratio("one component", checks.w2_assignment(one, iid), floor)


def test_mc_checks_reject_one_mode_and_a_wrong_ring():
    assert checks.check_both_modes("both", [0.45, 0.5]) == []
    assert checks.check_both_modes("one", [0.95, 0.0])
    gen = np.random.default_rng(3)
    angle = gen.uniform(0, 2 * np.pi, 2000)
    for r0, ok in ((2.0, True), (2.5, False)):
        r = r0 + 0.2 * gen.standard_normal(2000)
        ring = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
        assert (checks.check_ring(ring) == []) == ok


def test_euler_moments_properties():
    alpha, var = np.array([-1.0, 0.5, 2.0]), np.array([1.0, 0.3, 3.0])
    # constant drift when var == beta: the Euler chain is exact
    m, v = checks.euler_gaussian_moments(alpha[:1], var[:1], 1.0, 7)
    assert np.allclose(m, alpha[:1]) and np.allclose(v, var[:1])
    # otherwise the Euler law approaches the target at order one in h
    errs = [np.abs(np.concatenate(checks.euler_gaussian_moments(alpha, var, 1.0, n))
                   - np.concatenate([alpha, var])).max() for n in (100, 200, 400)]
    assert 1.8 < errs[0] / errs[1] < 2.2 and 1.8 < errs[1] / errs[2] < 2.2


def test_gaussian_check_rejects_a_shifted_gaussian():
    alpha, var = np.linspace(-2, 2, 100), np.geomspace(0.25, 4.0, 100)
    m, v = checks.euler_gaussian_moments(alpha, var, 1.0, 1000)
    gen = np.random.default_rng(4)
    good = m + np.sqrt(v) * gen.standard_normal((1024, 100))
    assert checks.check_gaussian(good, alpha, var, 1.0, 1000) == []
    assert checks.check_gaussian(good + 0.5, alpha, var, 1.0, 1000)
    assert checks.check_gaussian(m + 1.5 * np.sqrt(v) * gen.standard_normal((1024, 100)),
                                 alpha, var, 1.0, 1000)


def test_self_time_subtracts_the_union_of_overlapping_children():
    t = tracing.Tracer()
    spans = [tracing.Span(0, "p", 0.0, None, 0, {}), tracing.Span(1, "c", 1.0, 0, 1, {}),
             tracing.Span(2, "c", 2.0, 0, 2, {})]
    for s, end in zip(spans, (10.0, 4.0, 5.0)):
        s.end = end
    t.spans = spans
    assert t.self_time("p") == pytest.approx(6.0)
    assert t.self_time("c") == pytest.approx(6.0)
