"""Diagonal Gaussian algebra: Fisher estimation, running average, and the
weighted product with its normalizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afec_lab.errors import ConfigError, ShapeError
from afec_lab.nn import Batch, DenseLayer, Network
from afec_lab.posterior import (DiagGaussian, estimate_diag_fisher,
                                fisher_running_average,
                                gaussian_weighted_product, snapshot_anchor)
from afec_lab.tasks import AngularLayout, gen_angular_task


def linear_model(w: float) -> Network:
    return Network([], {"out": DenseLayer(np.array([[w]]), np.zeros(1),
                                          "identity")})


class FakeData:
    """Minimal stand-in carrying just what Fisher estimation reads."""

    def __init__(self, x, y, head="out"):
        self.inputs_train = np.asarray(x, dtype=np.float64)
        self.targets_train = np.asarray(y)
        self.head = head

    def batch(self, split):
        return Batch(self.inputs_train, self.targets_train, self.head)


class TestDiagGaussian:
    def test_negative_precision_rejected(self):
        with pytest.raises(ShapeError):
            DiagGaussian(np.zeros(2), np.array([1.0, -0.1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            DiagGaussian(np.zeros(2), np.zeros(3))


class TestEstimateDiagFisher:
    def test_zero_residual_gives_zero_fisher(self):
        net = linear_model(1.0)
        data = FakeData([[3.0]], [[3.0]])
        f = estimate_diag_fisher(net, data, "mse")
        np.testing.assert_array_equal(f, np.zeros(2))

    def test_single_sample_hand_oracle(self):
        # y = w*x, x=3, residual r: the weight's per-sample NLL gradient is
        # r*x, so its Fisher entry is (3r)^2
        for r in (0.5, -2.0):
            net = linear_model(1.0)
            data = FakeData([[3.0]], [[3.0 - r]])
            f = estimate_diag_fisher(net, data, "mse")
            assert f[0] == pytest.approx((3.0 * r) ** 2, rel=1e-12)
            assert f[1] == pytest.approx(r ** 2, rel=1e-12)

    def test_duplicating_samples_leaves_fisher_unchanged(self):
        net = Network.create(4, [5], "tanh", {"out": 3}, seed=0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal((6, 3))
        f1 = estimate_diag_fisher(net, FakeData(x, y), "mse")
        f2 = estimate_diag_fisher(net, FakeData(np.tile(x, (2, 1)),
                                                np.tile(y, (2, 1))), "mse")
        np.testing.assert_allclose(f1, f2, rtol=1e-12)

    def test_order_independence(self):
        net = Network.create(4, [5], "tanh", {"out": 3}, seed=0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 4))
        y = rng.standard_normal((8, 3))
        perm = rng.permutation(8)
        f1 = estimate_diag_fisher(net, FakeData(x, y), "mse")
        f2 = estimate_diag_fisher(net, FakeData(x[perm], y[perm]), "mse")
        np.testing.assert_allclose(f1, f2, rtol=1e-12, atol=1e-18)

    @pytest.mark.parametrize("seed", range(5))
    def test_entries_nonnegative_and_finite(self, seed):
        net = Network.create(6, [8, 5], "relu", {"out": 4}, seed=seed)
        rng = np.random.default_rng(seed + 50)
        data = FakeData(rng.standard_normal((10, 6)),
                        rng.integers(0, 4, size=10))
        f = estimate_diag_fisher(net, data, "cross_entropy")
        assert np.all(f >= 0)
        assert np.all(np.isfinite(f))

    def test_unused_head_has_zero_fisher(self):
        net = Network.create(4, [5], "tanh", {"a": 2, "b": 3}, seed=0)
        rng = np.random.default_rng(3)
        data = FakeData(rng.standard_normal((5, 4)),
                        rng.standard_normal((5, 2)), head="a")
        f = estimate_diag_fisher(net, data, "mse")
        np.testing.assert_array_equal(f[net.head_slice("b")], 0.0)

    def test_empty_dataset_rejected(self):
        net = linear_model(1.0)
        data = FakeData(np.zeros((1, 1)), np.zeros((1, 1)))
        data.inputs_train = np.zeros((0, 1))
        with pytest.raises(ShapeError):
            estimate_diag_fisher(net, data, "mse")

    def test_matches_explicit_per_sample_gradients(self):
        net = Network.create(3, [4], "tanh", {"out": 2}, seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((7, 3))
        y = rng.standard_normal((7, 2))
        f = estimate_diag_fisher(net, FakeData(x, y), "mse")
        total = np.zeros(net.param_count)
        for i in range(7):
            batch = Batch(x[i:i + 1], y[i:i + 1], "out")
            out, cache = net._forward_cached(batch.inputs, "out")
            g = net._backward("out", cache, out - y[i:i + 1])
            total += g * g
        np.testing.assert_allclose(f, total / 7, rtol=1e-12, atol=1e-18)


class TestFisherRunningAverage:
    def test_base_case_t1(self):
        prev = np.array([9.0, 9.0])
        new = np.array([0.3, 0.7])
        np.testing.assert_array_equal(fisher_running_average(prev, new, 1), new)

    def test_hand_oracle_t2(self):
        out = fisher_running_average(np.array([0.2, 0.4]),
                                     np.array([0.6, 0.0]), 2)
        np.testing.assert_allclose(out, [0.4, 0.2], rtol=1e-15)

    def test_fixed_point(self):
        f = np.array([0.1, 2.0, 3.5])
        for t in (1, 2, 7):
            np.testing.assert_allclose(fisher_running_average(f, f, t), f,
                                       rtol=1e-15)

    def test_invalid_t_rejected(self):
        with pytest.raises(ConfigError):
            fisher_running_average(np.zeros(2), np.zeros(2), 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="equal length"):
            fisher_running_average(np.zeros(2), np.zeros(3), 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_fold_equals_batch_mean(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        fishers = [rng.uniform(0, 5, size=6) for _ in range(n)]
        folded = np.zeros(6)
        for t, f in enumerate(fishers, start=1):
            folded = fisher_running_average(folded, f, t)
        np.testing.assert_allclose(folded, np.mean(fishers, axis=0),
                                   rtol=1e-12, atol=1e-15)


def _rand_gaussian(rng, dim):
    return DiagGaussian(rng.normal(0, 3, size=dim),
                        1.0 / rng.uniform(0.1, 5.0, size=dim))


class TestWeightedProduct:
    def test_beta_zero_returns_first_exactly(self):
        rng = np.random.default_rng(0)
        g1, g2 = _rand_gaussian(rng, 5), _rand_gaussian(rng, 5)
        res = gaussian_weighted_product(g1, g2, 0.0)
        np.testing.assert_array_equal(res.mixture.mean, g1.mean)
        np.testing.assert_array_equal(res.mixture.precision, g1.precision)
        assert res.log_norm == 0.0

    def test_beta_one_returns_second_exactly(self):
        rng = np.random.default_rng(1)
        g1, g2 = _rand_gaussian(rng, 5), _rand_gaussian(rng, 5)
        res = gaussian_weighted_product(g1, g2, 1.0)
        np.testing.assert_array_equal(res.mixture.mean, g2.mean)
        np.testing.assert_array_equal(res.mixture.precision, g2.precision)
        assert res.log_norm == 0.0

    def test_symmetric_unit_variance_midpoint(self):
        g1 = DiagGaussian(np.array([0.0]), np.array([1.0]))
        g2 = DiagGaussian(np.array([2.0]), np.array([1.0]))
        res = gaussian_weighted_product(g1, g2, 0.5)
        assert res.mixture.mean[0] == pytest.approx(1.0, rel=1e-12)
        assert 1.0 / res.mixture.precision[0] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_exchange_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        g1, g2 = _rand_gaussian(rng, 4), _rand_gaussian(rng, 4)
        beta = rng.uniform(0.05, 0.95)
        a = gaussian_weighted_product(g1, g2, beta)
        b = gaussian_weighted_product(g2, g1, 1.0 - beta)
        np.testing.assert_allclose(a.mixture.mean, b.mixture.mean,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a.mixture.precision, b.mixture.precision,
                                   rtol=1e-12)
        assert a.log_norm == pytest.approx(b.log_norm, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_mean_between_and_variance_bounded(self, seed):
        rng = np.random.default_rng(seed + 1000)
        g1, g2 = _rand_gaussian(rng, 6), _rand_gaussian(rng, 6)
        beta = rng.uniform(0.05, 0.95)
        res = gaussian_weighted_product(g1, g2, beta)
        lo = np.minimum(g1.mean, g2.mean)
        hi = np.maximum(g1.mean, g2.mean)
        different = g1.mean != g2.mean
        assert np.all(res.mixture.mean[different] > lo[different])
        assert np.all(res.mixture.mean[different] < hi[different])
        v = 1.0 / res.mixture.precision
        assert np.all(v <= np.maximum(1.0 / g1.precision, 1.0 / g2.precision)
                      + 1e-12)

    def test_normalizer_against_numerical_integration(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            mu1, mu2 = rng.normal(0, 2, size=2)
            s1, s2 = rng.uniform(0.3, 3.0, size=2)
            beta = rng.uniform(0.05, 0.95)
            g1 = DiagGaussian(np.array([mu1]), np.array([1.0 / s1 ** 2]))
            g2 = DiagGaussian(np.array([mu2]), np.array([1.0 / s2 ** 2]))
            res = gaussian_weighted_product(g1, g2, beta)
            span = abs(mu1) + abs(mu2) + 10 * (s1 + s2)
            x = np.linspace(-span, span, 200_001)
            p1 = np.exp(-0.5 * (x - mu1) ** 2 / s1 ** 2) / (s1 * math.sqrt(2 * math.pi))
            p2 = np.exp(-0.5 * (x - mu2) ** 2 / s2 ** 2) / (s2 * math.sqrt(2 * math.pi))
            z = np.trapezoid(p1 ** (1 - beta) * p2 ** beta, x)
            assert math.exp(res.log_norm) == pytest.approx(z, rel=1e-4)

    def test_invalid_beta_rejected(self):
        g = DiagGaussian(np.zeros(2), np.ones(2))
        for beta in (-0.1, 1.1):
            with pytest.raises(ConfigError):
                gaussian_weighted_product(g, g, beta)

    def test_zero_precision_rejected(self):
        g1 = DiagGaussian(np.zeros(2), np.array([1.0, 0.0]))
        g2 = DiagGaussian(np.zeros(2), np.ones(2))
        with pytest.raises(ConfigError):
            gaussian_weighted_product(g1, g2, 0.5)

    def test_dimension_mismatch_rejected(self):
        g1 = DiagGaussian(np.zeros(2), np.ones(2))
        g2 = DiagGaussian(np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError):
            gaussian_weighted_product(g1, g2, 0.5)


@settings(max_examples=50, deadline=None)
@given(mu1=st.floats(-5, 5), mu2=st.floats(-5, 5),
       s1=st.floats(0.2, 4.0), s2=st.floats(0.2, 4.0),
       beta=st.floats(0.01, 0.99))
def test_product_precision_positive_property(mu1, mu2, s1, s2, beta):
    g1 = DiagGaussian(np.array([mu1]), np.array([1.0 / s1 ** 2]))
    g2 = DiagGaussian(np.array([mu2]), np.array([1.0 / s2 ** 2]))
    res = gaussian_weighted_product(g1, g2, beta)
    assert res.mixture.precision[0] > 0
    assert np.isfinite(res.log_norm)


class TestSnapshotAnchor:
    def _task(self, seed=0):
        return gen_angular_task(AngularLayout.identity(4), 10, 6, 0.5, seed)

    def test_mean_is_bitwise_copy_of_params(self):
        task = self._task()
        net = Network.create(6, [5], "tanh", {task.head: 2}, seed=0)
        anchor = snapshot_anchor(net, task, "angular_mse")
        np.testing.assert_array_equal(anchor.mean, net.get_params())

    def test_precision_matches_fisher_estimate(self):
        task = self._task()
        net = Network.create(6, [5], "tanh", {task.head: 2}, seed=0)
        anchor = snapshot_anchor(net, task, "angular_mse")
        np.testing.assert_array_equal(
            anchor.precision, estimate_diag_fisher(net, task, "angular_mse"))

    def test_repeated_snapshots_identical(self):
        task = self._task()
        net = Network.create(6, [5], "tanh", {task.head: 2}, seed=0)
        a = snapshot_anchor(net, task, "angular_mse")
        b = snapshot_anchor(net, task, "angular_mse")
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.precision, b.precision)
