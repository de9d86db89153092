import math
import tracemalloc

import numpy as np
import pytest

from shiftcal import (
    ShiftScenario,
    generate,
    label_stream_seed,
    sample_labels,
    softmax_with_temperature,
    true_renyi,
    true_weight,
)
from shiftcal.metrics import _BATCH_ELEMENTS
from shiftcal.synthshift import _draw_labels, true_log_weight


def basic_scenario(**overrides):
    params = dict(
        dimension=3,
        num_classes=2,
        spacing=2.0,
        shift_magnitude=0.8,
        variance_scale=1.2,
        distortion_temperature=2.0,
    )
    params.update(overrides)
    return ShiftScenario.axis_aligned(**params)


def block_rows(scenario):
    """Rows per generation block: the working-set budget over K * d elements per row."""
    return max(1, _BATCH_ELEMENTS // (scenario.num_classes * scenario.dimension))


def random_scenario(k, d, seed):
    rng = np.random.default_rng(seed)
    return ShiftScenario(
        class_means=2.0 * rng.standard_normal((k, d)), class_variance=1.3,
        shift=0.4 * rng.standard_normal(d), variance_scale=1.2, distortion_temperature=2.5,
    )


class TestScenarioConstruction:
    def test_axis_aligned_layout(self):
        scn = ShiftScenario.axis_aligned(
            dimension=4, num_classes=3, spacing=2.0, shift_magnitude=1.5
        )
        want = np.zeros((3, 4))
        want[0, 0] = want[1, 1] = want[2, 2] = 2.0
        assert np.array_equal(scn.class_means, want)
        assert np.array_equal(scn.shift, [1.5, 0.0, 0.0, 0.0])
        assert scn.dimension == 4
        assert scn.num_classes == 3

    def test_more_classes_than_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ShiftScenario.axis_aligned(dimension=2, num_classes=3)

    @pytest.mark.parametrize("dimension", [0, -1])
    def test_dimension_below_one_rejected(self, dimension):
        with pytest.raises(ValueError, match=f"dimension must be at least 1, got {dimension}"):
            ShiftScenario.axis_aligned(dimension=dimension, num_classes=0)

    def test_parameter_validation(self):
        means = np.zeros((2, 2))
        with pytest.raises(ValueError):
            ShiftScenario(means, 1.0, np.zeros(3), 1.0, 1.0)
        with pytest.raises(ValueError):
            ShiftScenario(means, -1.0, np.zeros(2), 1.0, 1.0)
        with pytest.raises(ValueError):
            ShiftScenario(means, 1.0, np.zeros(2), 0.0, 1.0)
        with pytest.raises(ValueError):
            ShiftScenario(means, 1.0, np.zeros(2), 1.0, math.inf)
        with pytest.raises(ValueError):
            ShiftScenario(np.array([[np.nan, 0.0]]), 1.0, np.zeros(2), 1.0, 1.0)


class TestDensitiesAndWeights:
    def test_pinned_one_dimensional_ratio(self):
        # single unit-variance component at 0 shifted by 1:
        # log q - log p = x - 1/2
        scn = ShiftScenario.axis_aligned(
            dimension=1, num_classes=1, spacing=0.0, shift_magnitude=1.0
        )
        assert true_weight(scn, 0.5)[0] == 1.0
        assert np.isclose(true_weight(scn, 2.0)[0], math.exp(1.5), rtol=1e-12)
        assert np.isclose(true_weight(scn, -1.0)[0], math.exp(-1.5), rtol=1e-12)

    def test_no_shift_means_unit_weights_exactly(self):
        scn = basic_scenario(shift_magnitude=0.0, variance_scale=1.0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        w = true_weight(scn, x)
        assert np.all(w == 1.0)

    def test_log_weight_consistent_with_densities(self):
        scn = basic_scenario()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 3))
        lw = true_log_weight(scn, x)
        assert np.array_equal(lw, scn.log_density_target(x) - scn.log_density_source(x))

    def test_source_density_integrates_to_one(self):
        scn = ShiftScenario(
            class_means=np.array([[0.0], [1.5]]),
            class_variance=1.0,
            shift=np.zeros(1),
            variance_scale=1.0,
            distortion_temperature=1.0,
        )
        grid = np.linspace(-12.0, 14.0, 20001)
        density = np.exp(scn.log_density_source(grid))
        assert abs(np.trapezoid(density, grid) - 1.0) < 1e-8

    def test_posterior_rows_normalized(self):
        scn = basic_scenario()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((25, 3))
        post = np.exp(scn.log_posterior(x))
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_point_shapes_accepted(self):
        scn1 = ShiftScenario.axis_aligned(dimension=1, num_classes=1)
        assert scn1.log_density_source(0.3).shape == (1,)
        assert scn1.log_density_source([0.1, 0.2, 0.3]).shape == (3,)
        scn2 = ShiftScenario.axis_aligned(dimension=2, num_classes=2)
        assert scn2.log_density_source([0.1, 0.2]).shape == (1,)
        with pytest.raises(ValueError):
            scn2.log_density_source([0.1, 0.2, 0.3])

    def test_non_finite_points_are_rejected(self):
        scn = ShiftScenario.axis_aligned(4, 3, 2.0, 1.0)
        x = np.array([[0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0]])
        calls = (
            lambda x: sample_labels(scn, x, 0),
            lambda x: true_weight(scn, x),
            lambda x: true_log_weight(scn, x),
            scn.log_posterior,
            scn.log_density_source,
            scn.log_density_target,
        )
        for call in calls:
            with pytest.raises(ValueError, match=r"points must be finite, got non-finite rows \[1, 2\]"):
                call(x)
            assert np.all(np.isfinite(call(x[:1])))
        one_dimensional = ShiftScenario.axis_aligned(dimension=1, num_classes=1)
        for points in (np.nan, [0.5, -np.inf]):
            with pytest.raises(ValueError, match="points must be finite"):
                one_dimensional.log_density_source(points)


class TestLabelStreams:
    def test_stream_seeds(self):
        assert label_stream_seed(7, "source") == (7, 1)
        assert label_stream_seed(7, "target") == (7, 2)
        with pytest.raises(ValueError):
            label_stream_seed(7, "val")

    def test_labels_depend_only_on_features_and_stream(self):
        scn = basic_scenario()
        task = generate(scn, 200, 100, seed=5)
        regrown = sample_labels(scn, task.target, label_stream_seed(5, "target"))
        assert np.array_equal(regrown, task.target_labels)
        full_source = np.concatenate([task.source_train, task.source_val])
        regrown = sample_labels(scn, full_source, label_stream_seed(5, "source"))
        assert np.array_equal(
            regrown, np.concatenate([task.source_train_labels, task.source_val_labels])
        )

    def test_frequency_matches_posterior_at_a_tied_point(self):
        two = ShiftScenario(
            class_means=np.array([[-1.0], [1.0]]),
            class_variance=1.0,
            shift=np.zeros(1),
            variance_scale=1.0,
            distortion_temperature=1.0,
        )
        x = np.zeros((4000, 1))
        labels = sample_labels(two, x, seed=9)
        assert abs(labels.mean() - 0.5) < 0.03

    def test_labels_are_integer_dtype(self):
        scn = basic_scenario()
        labels = sample_labels(scn, np.zeros((5, 3)), seed=1)
        assert labels.dtype == np.int64


class TestGenerate:
    def test_shapes_and_split_sizes(self):
        scn = basic_scenario()
        task = generate(scn, 100, 50, seed=3, val_fraction=0.2)
        assert task.source_train.shape == (80, 3)
        assert task.source_val.shape == (20, 3)
        assert task.target.shape == (50, 3)
        assert task.source_train_logits.shape == (80, 2)
        assert task.source_val_logits.shape == (20, 2)
        assert task.target_logits.shape == (50, 2)
        assert task.true_weights.shape == (20,)
        for split in (task.source_train, task.source_val, task.target):
            assert type(split) is np.ndarray and split.dtype == np.float64

    def test_deterministic_per_seed(self):
        scn = basic_scenario()
        a = generate(scn, 120, 60, seed=11)
        b = generate(scn, 120, 60, seed=11)
        assert np.array_equal(a.source_train, b.source_train)
        assert np.array_equal(a.target, b.target)
        assert np.array_equal(a.target_labels, b.target_labels)
        assert np.array_equal(a.true_weights, b.true_weights)
        c = generate(scn, 120, 60, seed=12)
        assert not np.array_equal(a.target, c.target)

    def test_one_log_posterior_per_split(self, monkeypatch):
        """Each split's labels and logits come from one log-posterior evaluation."""
        rows = []
        log_posterior = ShiftScenario.log_posterior

        def counted(scenario, x):
            rows.append(len(x))
            return log_posterior(scenario, x)

        monkeypatch.setattr(ShiftScenario, "log_posterior", counted)
        generate(basic_scenario(), 100, 50, seed=3)
        assert rows == [100, 50]
        # splits larger than one generation block still take one call each
        scn = ShiftScenario.axis_aligned(dimension=30, num_classes=30, spacing=2.0, shift_magnitude=1.0)
        assert 400 > block_rows(scn)
        rows.clear()
        generate(scn, 400, 300, seed=3)
        assert rows == [400, 300]

    def test_true_weights_are_closed_form_on_val_split(self):
        scn = basic_scenario()
        task = generate(scn, 150, 70, seed=13)
        assert np.array_equal(task.true_weights, true_weight(scn, task.source_val))

    def test_logits_recover_posterior_at_true_temperature(self):
        scn = basic_scenario(distortion_temperature=2.5)
        task = generate(scn, 80, 40, seed=17)
        probs = softmax_with_temperature(task.target_logits, 2.5).probs
        want = np.exp(scn.log_posterior(task.target))
        assert np.allclose(probs, want, atol=1e-12)

    def test_target_shift_moves_the_sample_mean(self):
        scn = basic_scenario(shift_magnitude=1.5, variance_scale=1.0)
        task = generate(scn, 4000, 4000, seed=19)
        gap = task.target.mean(axis=0) - np.concatenate(
            [task.source_train, task.source_val]
        ).mean(axis=0)
        assert abs(gap[0] - 1.5) < 0.1
        assert np.all(np.abs(gap[1:]) < 0.1)

    def test_split_validation(self):
        scn = basic_scenario()
        with pytest.raises(ValueError):
            generate(scn, 1, 10, seed=0)
        with pytest.raises(ValueError):
            generate(scn, 10, 0, seed=0)
        with pytest.raises(ValueError):
            generate(scn, 10, 10, seed=0, val_fraction=0.0)
        with pytest.raises(ValueError):
            generate(scn, 10, 10, seed=0, val_fraction=1.0)
        with pytest.raises(ValueError):
            generate(scn, 2, 10, seed=0, val_fraction=0.9)


class TestRowBlocks:
    """Densities and posteriors run on blocks of rows sized by the working-set
    budget; every row must come out as it does when computed alone."""

    SHAPES = [(30, 30), (7, 40)]

    @pytest.mark.parametrize("k,d", SHAPES)
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_blocks_equal_one_row_at_a_time(self, k, d, offset):
        scn = random_scenario(k, d, k + d)
        n = 2 * block_rows(scn) + offset
        x = np.random.default_rng(n).standard_normal((n, d)) * 2.0
        for f in (scn.log_posterior, scn.log_density_source, scn.log_density_target,
                  lambda x: true_log_weight(scn, x)):
            alone = np.concatenate([f(x[i : i + 1]) for i in range(n)])
            assert np.array_equal(f(x), alone)

    @pytest.mark.parametrize("k,d", SHAPES)
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_generated_labels_equal_one_row_at_a_time(self, k, d, offset):
        scn = random_scenario(k, d, k * d)
        n = 2 * block_rows(scn) + offset
        task = generate(scn, n, n, seed=offset + 5)
        source = np.concatenate([task.source_train, task.source_val])
        for split, x, labels, logits in (
            ("source", source, np.concatenate([task.source_train_labels, task.source_val_labels]),
             np.concatenate([task.source_train_logits, task.source_val_logits])),
            ("target", task.target, task.target_labels, task.target_logits),
        ):
            alone = np.concatenate([scn.log_posterior(x[i : i + 1]) for i in range(n)])
            assert np.array_equal(labels, _draw_labels(alone, label_stream_seed(offset + 5, split)))
            assert np.array_equal(logits, scn.distortion_temperature * alone)
        assert np.array_equal(task.true_weights, np.exp(
            np.concatenate([true_log_weight(scn, row[None]) for row in task.source_val])
        ))

    def test_generation_memory_stays_near_the_task_arrays(self):
        """A K = d = 30 task of 3000 + 3000 rows: one (rows, K, d) stack of a
        whole split would hold 21.6 MB, more than seven times the task itself.
        Blocks fill one posterior per split, scaled into its logits in place,
        so the peak stays below 1.6 times the task; a concatenated block list
        and a scaled copy took it to 1.9."""
        scn = ShiftScenario.axis_aligned(dimension=30, num_classes=30, spacing=2.0, shift_magnitude=1.0)
        generate(scn, 10, 10, seed=0)
        tracemalloc.start()
        try:
            task = generate(scn, 3000, 3000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        task_bytes = sum(v.nbytes for v in vars(task).values() if isinstance(v, np.ndarray))
        assert peak < 1.6 * task_bytes


class TestTrueRenyi:
    def test_pinned_pure_shift_values(self):
        scn = ShiftScenario.axis_aligned(
            dimension=1, num_classes=1, shift_magnitude=1.0
        )
        assert np.isclose(true_renyi(scn, 0.5), math.exp(0.25), rtol=1e-12)
        assert np.isclose(true_renyi(scn, 1.0), math.exp(0.5), rtol=1e-12)
        assert np.isclose(true_renyi(scn, 2.0), math.exp(1.0), rtol=1e-12)

    def test_pinned_kl_with_variance_scale(self):
        scn = ShiftScenario.axis_aligned(
            dimension=1, num_classes=1, variance_scale=2.0
        )
        want = math.exp(0.5 * (2.0 - 1.0 - math.log(2.0)))
        assert np.isclose(true_renyi(scn, 1.0), want, rtol=1e-12)

    def test_no_shift_gives_one(self):
        scn = ShiftScenario.axis_aligned(dimension=3, num_classes=1)
        for alpha in (0.5, 1.0, 2.0):
            assert true_renyi(scn, alpha) == 1.0

    def test_divergent_integral_rejected(self):
        scn = ShiftScenario.axis_aligned(
            dimension=1, num_classes=1, variance_scale=2.0
        )
        with pytest.raises(ValueError):
            true_renyi(scn, 2.0)

    def test_requires_single_component(self):
        scn = basic_scenario()
        with pytest.raises(ValueError):
            true_renyi(scn, 1.0)

    def test_rejects_bad_alpha(self):
        scn = ShiftScenario.axis_aligned(dimension=1, num_classes=1)
        with pytest.raises(ValueError):
            true_renyi(scn, 0.0)
        with pytest.raises(ValueError):
            true_renyi(scn, math.nan)

    def test_empirical_moments_match_closed_form(self):
        # moderate shift keeps the moment estimator well behaved at this n
        scn = ShiftScenario.axis_aligned(
            dimension=1, num_classes=1, shift_magnitude=0.5
        )
        task = generate(scn, 25000, 10, seed=23, val_fraction=0.8)
        w = task.true_weights
        for alpha in (0.5, 1.0, 2.0):
            moment = float(np.mean(w ** (alpha + 1.0)))
            estimate = moment ** (1.0 / alpha)
            assert np.isclose(estimate, true_renyi(scn, alpha + 1.0), rtol=0.05)
