import numpy as np
import pytest

from shiftcal import (
    DomainClassifier,
    estimate_weights,
    generate,
    train_domain_classifier,
    upsample_balance,
)
from shiftcal.bench import default_grid
from shiftcal.density_ratio import H_CLAMP
from shiftcal.newton import GRADIENT_TOLERANCE


def two_blobs(rng, n, separation=4.0, dim=3):
    source = rng.standard_normal((n, dim))
    target = rng.standard_normal((n, dim))
    target[:, 0] += separation
    return source, target


def regularized_gradient(clf, source, target):
    """Gradient of mean BCE + l2/2 ||w||^2 at the fitted (weights, bias)."""
    x = (np.vstack([source, target]) - clf.feature_mean) / clf.feature_std
    y = np.concatenate([np.ones(len(source)), np.zeros(len(target))])
    p = 1.0 / (1.0 + np.exp(-(x @ clf.weights + clf.bias)))
    grad_w = x.T @ (p - y) / len(y) + clf.l2_strength * clf.weights
    return np.append(grad_w, np.mean(p - y))


class TestFeatureValidation:
    def test_validation(self):
        """Both entry points reject 1-d, non-finite or empty feature matrices on either side."""
        good = np.ones((3, 2))
        for bad in (np.array([1.0, 2.0]), np.array([[np.inf, 1.0]]), np.array([[1.0, np.nan]]), np.ones((0, 2))):
            for source, target in ((bad, good), (good, bad)):
                with pytest.raises(ValueError, match="features"):
                    upsample_balance(source, target, seed=0)
                with pytest.raises(ValueError, match="features"):
                    train_domain_classifier(source, target)


class TestUpsampleBalance:
    def test_equal_sizes_pass_through_unchanged(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((50, 2))
        b = rng.standard_normal((50, 2))
        outs = [upsample_balance(a, b, seed) for seed in (0, 1, 99)]
        for oa, ob in outs:
            assert np.array_equal(oa, a)
            assert np.array_equal(ob, b)

    def test_smaller_side_is_resampled_to_match(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 2))
        b = rng.standard_normal((80, 2))
        oa, ob = upsample_balance(a, b, seed=7)
        assert oa.shape == (80, 2)
        assert np.array_equal(ob, b)
        # every resampled row must be one of the originals
        for row in oa:
            assert any(np.array_equal(row, orig) for orig in a)

    def test_seeded_and_reproducible(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((20, 2))
        b = rng.standard_normal((45, 2))
        oa1, _ = upsample_balance(a, b, seed=11)
        oa2, _ = upsample_balance(a, b, seed=11)
        oa3, _ = upsample_balance(a, b, seed=12)
        assert np.array_equal(oa1, oa2)
        assert not np.array_equal(oa1, oa3)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            upsample_balance(np.ones((4, 2)), np.ones((4, 3)), seed=0)


class TestTrainDomainClassifier:
    def test_separable_domains_separate(self):
        rng = np.random.default_rng(11)
        source, target = two_blobs(rng, 400)
        clf = train_domain_classifier(source, target)
        h_source = clf.predict_source_probability(source)
        h_target = clf.predict_source_probability(target)
        assert h_source.mean() > 0.9
        assert h_target.mean() < 0.1
        assert np.all(h_source > 0.0)
        assert np.all(h_source < 1.0)

    def test_gradient_convergence_on_well_conditioned_problem(self):
        # the 1/n penalty makes the loss strongly convex, so Newton
        # steps drive the gradient below tolerance well within budget
        rng = np.random.default_rng(11)
        source, target = two_blobs(rng, 400)
        clf = train_domain_classifier(source, target)
        assert clf.converged
        assert clf.iterations < 5000

    def test_identical_distributions_give_near_unit_weights(self):
        rng = np.random.default_rng(13)
        source = rng.standard_normal((1500, 3))
        target = rng.standard_normal((1500, 3))
        clf = train_domain_classifier(source, target)
        w = estimate_weights(clf, source)
        assert abs(float(w.mean()) - 1.0) < 0.15

    def test_standardization_statistics_are_pooled(self):
        rng = np.random.default_rng(17)
        source = rng.standard_normal((60, 2)) + 5.0
        target = rng.standard_normal((40, 2)) - 5.0
        clf = train_domain_classifier(source, target)
        pooled = np.vstack([source, target])
        assert np.allclose(clf.feature_mean, pooled.mean(axis=0))
        assert np.allclose(clf.feature_std, pooled.std(axis=0))

    def test_constant_feature_column_is_harmless(self):
        rng = np.random.default_rng(19)
        source = np.hstack([rng.standard_normal((50, 1)), np.ones((50, 1))])
        target = np.hstack([rng.standard_normal((50, 1)) + 3.0, np.ones((50, 1))])
        clf = train_domain_classifier(source, target)
        h = clf.predict_source_probability(source)
        assert np.all(np.isfinite(h))

    def test_rounded_constant_column_ignores_new_values(self):
        # 0.1 is inexact, so the pooled std of a 0.1 column comes out near
        # 3.5e-16, not 0; scaling by it would blow a new value up to ~1e14
        rng = np.random.default_rng(29)
        source = np.hstack([rng.standard_normal((300, 1)), np.full((300, 1), 0.1)])
        target = np.hstack([rng.standard_normal((500, 1)) + 0.5, np.full((500, 1), 0.1)])
        clf = train_domain_classifier(source, target)
        w = estimate_weights(clf, np.array([[0.0, 0.1], [0.0, 0.2]]))
        assert np.isclose(w[1], w[0], rtol=1e-9, atol=0.0)

    def test_default_l2_strength_is_one_over_n(self):
        rng = np.random.default_rng(23)
        source = rng.standard_normal((30, 2))
        target = rng.standard_normal((50, 2))
        clf = train_domain_classifier(source, target)
        assert clf.l2_strength == 1.0 / 80.0

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        source, target = two_blobs(rng, 150)
        a = train_domain_classifier(source, target)
        b = train_domain_classifier(source, target)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.final_loss == b.final_loss


class TestNewtonSolve:
    @staticmethod
    def _assert_at_optimum(clf, source, target):
        grad = regularized_gradient(clf, source, target)
        assert clf.converged
        assert np.linalg.norm(grad) < GRADIENT_TOLERANCE
        assert clf.iterations <= 20

    def test_two_blobs_reach_the_optimum_in_few_steps(self):
        source, target = two_blobs(np.random.default_rng(11), 400)
        clf = train_domain_classifier(source, target)
        self._assert_at_optimum(clf, source, target)

    def test_default_grid_task_reaches_the_optimum_in_few_steps(self):
        scenario = dict(default_grid())["shift1.5_scale1.2_t2"]
        task = generate(scenario, 2000, 2000, seed=3)
        source, target = upsample_balance(task.source_train, task.target, seed=3)
        clf = train_domain_classifier(source, target)
        self._assert_at_optimum(clf, source, target)

    @staticmethod
    def _assert_finite(clf, features):
        assert np.all(np.isfinite(clf.weights))
        assert np.isfinite(clf.bias)
        assert np.isfinite(clf.final_loss)
        assert np.all(np.isfinite(estimate_weights(clf, features)))

    def test_unpenalized_separable_blobs_stay_finite(self):
        # the domains are separable, so only the 1/n penalty bounds the weights
        source, target = two_blobs(np.random.default_rng(47), 100, separation=20.0)
        clf = train_domain_classifier(source, target)
        self._assert_finite(clf, np.vstack([source, target]))

    def test_unpenalized_constant_column_stays_finite(self):
        # the standardized constant column is all zeros, so its weight gets
        # no gradient and stays exactly 0
        rng = np.random.default_rng(53)
        source = np.hstack([rng.standard_normal((50, 1)), np.ones((50, 1))])
        target = np.hstack([rng.standard_normal((50, 1)) + 1.0, np.ones((50, 1))])
        clf = train_domain_classifier(source, target)
        self._assert_finite(clf, source)
        assert clf.weights[1] == 0.0

    def test_singular_hessian_falls_back_to_least_squares(self, monkeypatch):
        # np.linalg.solve raises LinAlgError on a singular Hessian; the
        # least-squares direction must still reach the optimum
        def singular(hess, grad):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        source, target = two_blobs(np.random.default_rng(11), 400)
        clf = train_domain_classifier(source, target)
        self._assert_at_optimum(clf, source, target)

    def test_overflowing_step_is_rejected(self, monkeypatch):
        # a direction that overflows the margins gives a NaN or infinite
        # loss at every step length; the fit must stop where it stands
        monkeypatch.setattr(np.linalg, "solve", lambda hess, grad: np.full_like(grad, 1e308))
        source, target = two_blobs(np.random.default_rng(61), 50)
        clf = train_domain_classifier(source, target)
        assert not clf.converged
        assert clf.iterations == 1
        assert clf.final_loss == pytest.approx(np.log(2.0))
        self._assert_finite(clf, source)

    def test_one_row_per_domain_stays_finite(self):
        rng = np.random.default_rng(59)
        source, target = rng.standard_normal((1, 3)), rng.standard_normal((1, 3))
        clf = train_domain_classifier(source, target)
        self._assert_finite(clf, rng.standard_normal((5, 3)))


class TestEstimateWeights:
    def test_ratio_formula_and_clamp(self):
        clf = DomainClassifier(
            weights=np.array([100.0]),
            bias=0.0,
            feature_mean=np.zeros(1),
            feature_std=np.ones(1),
            l2_strength=0.0,
            iterations=1,
            converged=True,
            final_loss=0.0,
        )
        # extreme positive score: H ~ 1, clamped, weight bottoms out
        w = estimate_weights(clf, np.array([[100.0], [-100.0]]))
        lo = H_CLAMP / (1.0 - H_CLAMP)
        hi = (1.0 - H_CLAMP) / H_CLAMP
        assert w.dtype == np.float64 and w.shape == (2,)
        assert np.isclose(w[0], lo, rtol=1e-9)
        assert np.isclose(w[1], hi, rtol=1e-9)

    def test_half_probability_gives_unit_weight(self):
        clf = DomainClassifier(
            weights=np.zeros(2),
            bias=0.0,
            feature_mean=np.zeros(2),
            feature_std=np.ones(2),
            l2_strength=0.0,
            iterations=0,
            converged=True,
            final_loss=0.0,
        )
        w = estimate_weights(clf, np.ones((5, 2)))
        assert np.all(w == 1.0)
