"""Tests for the target zoo: mixtures, shaped densities, gradients, serialization."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from sfsampler import (
    grad_potential,
    log_g_and_grad,
    log_g_beta,
    make_builtin,
    make_custom,
    make_gaussian_mixture,
    make_two_mode_gmm,
    target_from_dict,
    target_to_dict,
)
from sfsampler.errors import ConfigError, GradientUnavailable
from sfsampler.numerics import log_sum_exp


def full_covariance_d5():
    """Three 5-d components: random SPD, equicorrelated, and diagonal."""
    b = np.random.default_rng(8).standard_normal((5, 5))
    equi = 0.6 * (np.full((5, 5), 0.5) + 0.5 * np.eye(5))
    covs = [b @ b.T / 5.0 + 0.3 * np.eye(5), equi, np.diag([0.3, 0.5, 0.7, 0.9, 1.1])]
    means = np.array([[-4.0, 0, 0, 0, 0], [4.0, 2, 0, 0, 0], [0.0, -2, 4, 1, 0]])
    return np.array([0.5, 0.3, 0.2]), means, covs


def finite_difference_grad(potential, x, eps=1e-5):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = eps
        g[j] = (potential(x + e) - potential(x - e)) / (2.0 * eps)
    return g


class TestGaussianMixtureConstruction:
    def test_single_gaussian_2d(self):
        t = make_gaussian_mixture([1.0], [[0.0, 0.0]], [np.eye(2)])
        assert t.dim == 2
        assert t.mixture.n_components == 1

    def test_skewed_bimodal_target(self):
        t = make_gaussian_mixture([0.75, 0.25], [-6.0, 6.0], [0.2, 0.8])
        assert t.dim == 1
        assert t.mixture.weights == pytest.approx([0.75, 0.25])

    def test_weight_sum_validation(self):
        with pytest.raises(ConfigError):
            make_gaussian_mixture([0.5, 0.6], [-1.0, 1.0], [1.0, 1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            make_gaussian_mixture([1.5, -0.5], [-1.0, 1.0], [1.0, 1.0])

    def test_component_count_mismatch(self):
        with pytest.raises(ConfigError):
            make_gaussian_mixture([0.5, 0.5], [-1.0, 1.0], [1.0])

    @pytest.mark.parametrize("variance", [5e-324, 1e-310])
    def test_subnormal_variance_rejected_without_a_warning(self, variance):
        # 1 / variance would overflow; tier-1 turns numpy's overflow warning into an error
        with pytest.raises(ConfigError, match="singular"):
            make_two_mode_gmm(2, variance=variance)
        with pytest.raises(ConfigError, match="singular"):
            make_gaussian_mixture([0.5, 0.5], [-1.0, 1.0], [1.0, variance])

    def test_log_density_normalized(self):
        # integrate exp(log_density) over a wide grid; mixture density integrates to 1
        t = make_gaussian_mixture([0.3, 0.7], [-2.0, 1.0], [0.5, 1.5])
        xs = np.linspace(-20.0, 20.0, 200_001)[:, None]
        total = np.trapezoid(np.exp(t.mixture.log_density(xs)), xs[:, 0])
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_component_log_densities_match_scipy(self):
        weights, means, covs = full_covariance_d5()
        gmm = make_gaussian_mixture(weights, means, covs).mixture
        assert gmm.rotations is not None
        x = np.random.default_rng(3).standard_normal((200, 5)) * 3.0
        got = gmm.component_log_densities(x)
        for i, (m, c) in enumerate(zip(means, covs)):
            assert np.max(np.abs(got[:, i] - multivariate_normal.logpdf(x, m, c))) < 1e-10

    def test_mixture_sampling_moments(self):
        t = make_gaussian_mixture([0.25, 0.75], [-1.0, 3.0], [0.5, 2.0])
        gen = np.random.default_rng(0)
        draws = t.mixture.sample(400_000, gen)
        mean = 0.25 * -1.0 + 0.75 * 3.0
        second = 0.25 * (0.5 + 1.0) + 0.75 * (2.0 + 9.0)
        assert draws.mean() == pytest.approx(mean, abs=0.02)
        assert np.mean(draws**2) == pytest.approx(second, rel=0.02)


class TestBuiltinPotentials:
    def test_ring_on_ridge(self):
        ring = make_builtin("ring", r0=2.0, sigma=0.2)
        assert ring.potential(np.array([2.0, 0.0])) == pytest.approx(0.0)

    def test_funnel_origin(self):
        funnel = make_builtin("funnel", alpha=0.6)
        assert funnel.potential(np.array([0.0, 0.0])) == pytest.approx(0.0)

    def test_bayes_ridge_posterior(self):
        # y = 0, sigma1 = sigma2 = 1: V = ||eta||^2, the N(0, I/2) potential
        t = make_builtin("bayes_ridge", y=[0.0, 0.0], sigma1=1.0, sigma2=1.0)
        assert t.potential(np.zeros(2)) == pytest.approx(0.0)
        eta = np.array([0.3, -1.2])
        assert t.potential(eta) == pytest.approx(np.sum(eta**2))
        assert grad_potential(t, eta) == pytest.approx(2.0 * eta)

    def test_example64_gradient_matches_finite_differences(self):
        t = make_builtin("example64")
        x = np.array([1.0, 1.0])
        fd = finite_difference_grad(t.potential, x)
        assert grad_potential(t, x) == pytest.approx(fd, abs=1e-6)

    def test_ring_gradient(self):
        ring = make_builtin("ring", r0=2.0, sigma=0.2)
        assert grad_potential(ring, np.array([2.0, 0.0])) == pytest.approx([0.0, 0.0])
        x = np.array([1.3, -0.4])
        fd = finite_difference_grad(ring.potential, x)
        assert grad_potential(ring, x) == pytest.approx(fd, abs=1e-6)

    def test_ring_comes_from_its_radial_profile(self):
        ring = make_builtin("ring", r0=2.0, sigma=0.2)
        x = np.array([[0.0, 0.0], [1.3, -0.4], [-3.0, 2.5]])
        r = np.linalg.norm(x, axis=-1)
        assert ring.potential(x) == pytest.approx(12.5 * (r - 2.0) ** 2, rel=1e-14)
        grad = grad_potential(ring, x)
        assert np.array_equal(grad[0], [0.0, 0.0])       # exactly 0 at the origin, not NaN
        expect = 25.0 * ((r[1:] - 2.0) / r[1:])[:, None] * x[1:]
        assert grad[1:] == pytest.approx(expect, rel=1e-14)
        assert np.array_equal(grad_potential(ring, np.zeros(2)), [0.0, 0.0])

    def test_funnel_gradient(self):
        funnel = make_builtin("funnel", alpha=0.6)
        x = np.array([0.5, 1.5])
        fd = finite_difference_grad(funnel.potential, x)
        assert grad_potential(funnel, x) == pytest.approx(fd, abs=1e-6)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_builtin("banana")


class TestGradients:
    def test_quadratic_potential(self):
        t = make_gaussian_mixture([1.0], [[0.0, 0.0, 0.0]], [np.eye(3)])
        x = np.array([0.4, -1.0, 2.0])
        assert grad_potential(t, x) == pytest.approx(x)

    def test_mixture_gradient_matches_finite_differences(self):
        t = make_gaussian_mixture(
            [0.4, 0.6],
            [[-1.0, 0.5], [2.0, -0.5]],
            [np.array([[1.0, 0.3], [0.3, 0.8]]), 0.5 * np.eye(2)],
        )
        x = np.array([0.2, 0.7])
        fd = finite_difference_grad(t.potential, x)
        assert grad_potential(t, x) == pytest.approx(fd, abs=1e-6)

    def test_full_covariance_gradient_matches_dense_solve(self):
        weights, means, covs = full_covariance_d5()
        t = make_gaussian_mixture(weights, means, covs)
        x = np.random.default_rng(4).standard_normal((50, 5)) * 3.0
        logp = np.stack(
            [np.log(w) + multivariate_normal.logpdf(x, m, c)
             for w, m, c in zip(weights, means, covs)],
            axis=-1,
        )
        post = np.exp(logp - logp.max(axis=-1, keepdims=True))
        post /= post.sum(axis=-1, keepdims=True)
        expect = sum(post[:, i : i + 1] * np.linalg.solve(c, (x - m).T).T
                     for i, (m, c) in enumerate(zip(means, covs)))
        assert np.max(np.abs(grad_potential(t, x) - expect)) < 1e-10

    def test_gradient_unavailable(self):
        t = make_custom(lambda x: np.sum(np.abs(x), axis=-1), dim=2)
        with pytest.raises(GradientUnavailable):
            grad_potential(t, np.zeros(2))


def mixture(kappa, rotated, d=3, seed=0):
    gen = np.random.default_rng(seed)
    means = gen.uniform(-4.0, 4.0, (kappa, d))
    if rotated:
        covs = [m @ m.T / d + 0.2 * np.eye(d) for m in gen.standard_normal((kappa, d, d))]
        covs = [0.5 * (c + c.T) for c in covs]
    else:
        covs = list(gen.uniform(0.2, 2.0, (kappa, d)))
    return make_gaussian_mixture(gen.dirichlet(np.ones(kappa)), means, covs)


def log_sum_exp_gradient(target, x):
    """grad V = sum_i p_i Sigma_i^{-1} (x - alpha_i), the posterior weights p_i normalised by
    log-sum-exp over the component log densities; also returns p (kappa, n) and the bound
    max_d sum_i p_i |Sigma_i^{-1} (x - alpha_i)| per point."""
    gmm = target.mixture
    comp = gmm.component_log_densities(x).T + np.log(gmm.weights)[:, None]
    post = np.exp(comp - log_sum_exp(comp, axis=0))
    terms = np.stack([np.linalg.solve(c.entries, (x - m).T).T for m, c in zip(gmm.means, gmm.covs)])
    return np.einsum("kn,knd->nd", post, terms), post, np.einsum("kn,knd->n", post, np.abs(terms))


def mixture_points(target, gen):
    """Points within a standard deviation of each mode, and points 50 to 80 of them away."""
    gmm, d = target.mixture, target.dim
    sd = gmm.max_std()
    near = [m + 0.5 * sd * gen.standard_normal((20, d)) for m in gmm.means]
    way = gen.standard_normal((40, d))
    way /= np.linalg.norm(way, axis=-1, keepdims=True)
    way *= sd * gen.uniform(50.0, 80.0, (40, 1))
    far = gmm.means[gen.integers(0, len(gmm.means), 40)] + way
    return np.concatenate(near), far


class TestMixtureGradient:
    """The mixture gradient, a weighted mean of the components' maps, against the log-sum-exp
    formula and finite differences."""

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    @pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
    def test_matches_the_log_sum_exp_formula(self, kappa, rotated):
        target = mixture(kappa, rotated, seed=kappa)
        near, far = mixture_points(target, np.random.default_rng(kappa))
        for x in (near, far):
            expect, _, bound = log_sum_exp_gradient(target, x)
            err = np.max(np.abs(grad_potential(target, x) - expect), axis=-1)
            assert np.all(err <= 1e-12 * bound)
        if kappa > 1:  # far out one component takes all of the posterior weight
            post = log_sum_exp_gradient(target, far)[1]
            assert np.mean(np.max(post, axis=0) == 1.0) > 0.5

    @pytest.mark.parametrize("kappa", [1, 2, 3])
    @pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
    def test_matches_central_differences_of_the_potential(self, kappa, rotated):
        target = mixture(kappa, rotated, seed=10 + kappa)
        for x in mixture_points(target, np.random.default_rng(kappa)):
            got = grad_potential(target, x)
            for j in range(target.dim):
                e = np.zeros(target.dim)
                e[j] = 1e-7 * np.maximum(1.0, np.max(np.abs(x)))
                fd = (target.potential(x + e) - target.potential(x - e)) / (2.0 * e[j])
                scale = np.maximum(1.0, np.abs(got).max(axis=-1))
                assert np.all(np.abs(got[:, j] - fd) <= 1e-6 * scale)


class TestLogGBeta:
    def test_reference_gaussian_is_constant(self):
        beta = 2.0
        t = make_gaussian_mixture([1.0], [0.0], [beta])
        xs = np.array([[-3.0], [0.0], [5.0]])
        vals = log_g_beta(t, beta, xs)
        assert vals == pytest.approx(np.full(3, vals[0]), abs=1e-12)

    def test_shifted_gaussian_linear_in_x(self):
        # N(alpha, 1) at beta = 1, d = 1: expanding -(x - alpha)^2/2 + x^2/2
        # gives log g = alpha x - alpha^2 / 2 under the drop-constant convention
        alpha = 1.3
        t = make_custom(lambda x: 0.5 * np.sum((x - alpha) ** 2, axis=-1), dim=1)
        xs = np.array([[-1.0], [0.0], [2.5]])
        vals = log_g_beta(t, 1.0, xs)
        expect = alpha * xs[:, 0] - 0.5 * alpha**2
        assert vals == pytest.approx(expect, abs=1e-12)
        # the mixture route carries a different dropped constant but the same slope
        gm = make_gaussian_mixture([1.0], [alpha], [1.0])
        gvals = log_g_beta(gm, 1.0, xs)
        assert gvals - gvals[1] == pytest.approx(expect - expect[1], abs=1e-12)

    def test_ring_value(self):
        ring = make_builtin("ring", r0=2.0, sigma=0.2)
        assert log_g_beta(ring, 1.0, np.array([2.0, 0.0])) == pytest.approx(2.0)

    def test_rho_floor(self):
        ring = make_builtin("ring", r0=2.0, sigma=0.2, rho=0.1)
        far = np.array([100.0, 0.0])
        # without the floor the ratio underflows; with it, bounded below by log(rho)
        assert log_g_beta(ring, 1.0, far) >= np.log(0.1) - 1e-12

    def test_invalid_beta(self):
        t = make_gaussian_mixture([1.0], [0.0], [1.0])
        with pytest.raises(ConfigError):
            log_g_beta(t, 0.0, np.zeros(1))

    def test_invalid_rho(self):
        with pytest.raises(ConfigError):
            make_builtin("ring", rho=1.0)


def d5_full_mixture():
    """The 5-d three-component correlated mixture of the mixture_d5_full benchmark."""
    def equicorrelated(r, scale):
        return scale * (np.full((5, 5), r) + (1.0 - r) * np.eye(5))

    covs = [equicorrelated(0.5, 0.6), equicorrelated(-0.2, 0.4),
            np.diag([0.3, 0.5, 0.7, 0.9, 1.1]) + 0.2]
    means = np.array([[-4.0, 0, 0, 0, 0], [4.0, 2, 0, 0, 0], [0.0, -2, 4, 1, 0]])
    return [0.5, 0.3, 0.2], means, covs


PROTOCOL_TARGETS = {
    "two_mode_gmm": lambda rho: make_two_mode_gmm(3, separation=2.0, variance=0.5, rho=rho),
    "mixture_d5_full": lambda rho: make_gaussian_mixture(*d5_full_mixture(), rho=rho),
    "ring": lambda rho: make_builtin("ring", r0=2.0, sigma=0.5, rho=rho),
    "funnel": lambda rho: make_builtin("funnel", rho=rho),
    "example64": lambda rho: make_builtin("example64", rho=rho),
    "bayes_ridge": lambda rho: make_builtin("bayes_ridge", y=[0.5, -1.0, 2.0], rho=rho),
}


class TestLogGAndGrad:
    BETA = 1.5

    @staticmethod
    def points(target, n=6):
        return np.random.default_rng(12).standard_normal((n, target.dim)) * 1.5

    @pytest.mark.parametrize("rho", [0.0, 0.1])
    @pytest.mark.parametrize("name", sorted(PROTOCOL_TARGETS))
    def test_value_matches_log_g_beta(self, name, rho):
        t = PROTOCOL_TARGETS[name](rho)
        x = self.points(t)
        value, _ = log_g_and_grad(t, self.BETA, x)
        assert np.max(np.abs(value - log_g_beta(t, self.BETA, x))) < 1e-12

    @pytest.mark.parametrize("rho", [0.0, 0.1])
    @pytest.mark.parametrize("name", sorted(PROTOCOL_TARGETS))
    def test_gradient_matches_finite_differences(self, name, rho):
        t = PROTOCOL_TARGETS[name](rho)
        for x in self.points(t):
            _, grad = t.log_g_and_grad(self.BETA, x)
            fd = finite_difference_grad(lambda y: log_g_beta(t, self.BETA, y), x)
            assert grad == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_floor_gradient_zero_where_density_underflows(self):
        # a mean of 1e200 overflows the component log-density to -inf: sigma is 0, not NaN
        t = make_gaussian_mixture([1.0], [1e200], [1.0], rho=0.2)
        with np.errstate(over="ignore", invalid="ignore"):
            value, grad = log_g_and_grad(t, 1.0, np.array([[0.5], [-1.0]]))
        assert value == pytest.approx(np.full(2, np.log(0.2)))
        assert np.array_equal(grad, np.zeros((2, 1)))

    def test_gradient_unavailable(self):
        t = make_custom(lambda x: np.sum(np.abs(x), axis=-1), dim=2)
        with pytest.raises(GradientUnavailable):
            log_g_and_grad(t, 1.0, np.zeros(2))


class TestSerialization:
    def test_round_trip_gaussian_mixture(self):
        t = make_gaussian_mixture([0.75, 0.25], [-6.0, 6.0], [0.2, 0.8])
        doc = target_to_dict(t)
        t2 = target_from_dict(doc)
        assert t2.mixture.weights == pytest.approx(t.mixture.weights)
        assert t2.mixture.means == pytest.approx(t.mixture.means)
        xs = np.array([[-6.2], [0.1], [5.9]])
        assert t2.potential(xs) == pytest.approx(t.potential(xs))

    def test_round_trip_two_mode(self):
        t = make_two_mode_gmm(10, separation=6.0, variance=0.25)
        t2 = target_from_dict(target_to_dict(t))
        assert t2.dim == 10
        assert t2.mixture.means == pytest.approx(t.mixture.means)

    def test_round_trip_ring(self):
        t = make_builtin("ring", r0=2.0, sigma=0.2)
        t2 = target_from_dict(target_to_dict(t))
        x = np.array([1.1, 0.7])
        assert t2.potential(x) == pytest.approx(t.potential(x))

    @pytest.mark.parametrize(
        "doc",
        [{"kind": "gaussian_mixture", "weights": [0.75, 0.25], "means": [[-2.0, 0.0], [2.0, 1.0]],
          "covs": [[[1.0, 0.3], [0.3, 0.8]], [0.5, 0.7]], "rho": 0.1},
         {"kind": "two_mode_gmm", "d": 3, "separation": 2.0, "variance": 0.5},
         {"kind": "ring", "r0": 2.0, "sigma": 0.3, "rho": 0.1},
         {"kind": "funnel", "alpha": 0.5},
         {"kind": "example64"},
         {"kind": "bayes_ridge", "y": [0.5, -1.0, 2.0], "sigma1": 0.7}],
        ids=lambda doc: doc["kind"],
    )
    def test_round_trip_every_builtin_kind(self, doc):
        t = target_from_dict(doc)
        again = target_to_dict(t)
        t2 = target_from_dict(again)
        assert target_to_dict(t2) == again
        assert (t2.kind, t2.dim, t2.rho) == (doc["kind"], t.dim, doc.get("rho", 0.0))
        x = np.random.default_rng(5).standard_normal((4, t.dim))
        assert np.array_equal(t2.potential(x), t.potential(x))

    def test_missing_field_named_in_error(self):
        with pytest.raises(ConfigError, match="weights"):
            target_from_dict({"kind": "gaussian_mixture", "means": [0.0], "covs": [1.0]})

    def test_missing_kind(self):
        with pytest.raises(ConfigError):
            target_from_dict({"weights": [1.0]})
