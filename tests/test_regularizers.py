"""Anchor penalties, the expansion procedure, and importance estimators."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afec_lab.continual import (SequenceConfig, load_state, penalized_grad,
                                penalty_terms, save_state)
from afec_lab.errors import ConfigError, ShapeError
from afec_lab.nn import Batch, DenseLayer, Network, SGD
from afec_lab.posterior import DiagGaussian, gaussian_weighted_product
from afec_lab.regularizers import (EXPANSION_INITS, RegState,
                                   importance_update, quadratic_penalty,
                                   train_expanded)
from afec_lab.tasks import AngularLayout, gen_angular_task


def small_task(seed=0):
    return gen_angular_task(AngularLayout.identity(4), 10, 6, 0.5, seed)


def small_net(task, seed=0):
    return Network.create(task.input_dim, [8], "tanh", {task.head: 2}, seed)


class TestQuadraticPenalty:
    def test_at_anchor_is_zero(self):
        anchor = DiagGaussian(np.array([1.0, -2.0]), np.array([3.0, 4.0]))
        value, grad = quadratic_penalty(anchor.mean.copy(), anchor, 5.0)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_hand_oracle(self):
        # F=[1,3], diff=[1,-1], lam=2: value = (2/2)(1*1 + 3*1) = 4,
        # grad = 2*F*diff = [2, -6]
        anchor = DiagGaussian(np.zeros(2), np.array([1.0, 3.0]))
        value, grad = quadratic_penalty(np.array([1.0, -1.0]), anchor, 2.0)
        assert value == pytest.approx(4.0)
        np.testing.assert_allclose(grad, [2.0, -6.0])

    def test_lambda_zero_is_free(self):
        anchor = DiagGaussian(np.zeros(3), np.ones(3))
        value, grad = quadratic_penalty(np.array([5.0, -7.0, 9.0]), anchor, 0.0)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_zero_precision_coordinate_contributes_nothing(self):
        anchor = DiagGaussian(np.zeros(2), np.array([0.0, 1.0]))
        value, grad = quadratic_penalty(np.array([100.0, 1.0]), anchor, 2.0)
        assert value == pytest.approx(1.0)
        assert grad[0] == 0.0

    def test_negative_lambda_rejected(self):
        anchor = DiagGaussian(np.zeros(2), np.ones(2))
        with pytest.raises(ConfigError):
            quadratic_penalty(np.zeros(2), anchor, -1.0)

    def test_length_mismatch_rejected(self):
        anchor = DiagGaussian(np.zeros(2), np.ones(2))
        with pytest.raises(ShapeError):
            quadratic_penalty(np.zeros(3), anchor, 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        anchor = DiagGaussian(rng.normal(size=6), rng.uniform(0, 3, size=6))
        params = rng.normal(size=6)
        value, grad = quadratic_penalty(params, anchor, 1.7)
        eps = 1e-6
        for i in range(6):
            bumped = params.copy()
            bumped[i] += eps
            hi, _ = quadratic_penalty(bumped, anchor, 1.7)
            bumped[i] -= 2 * eps
            lo, _ = quadratic_penalty(bumped, anchor, 1.7)
            numeric = (hi - lo) / (2 * eps)
            assert abs(grad[i] - numeric) < 1e-8 * max(1.0, abs(grad[i]))

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed + 40)
        params = rng.normal(size=8)
        mean = rng.normal(size=8)
        prec = rng.uniform(0, 2, size=8)
        perm = rng.permutation(8)
        v1, _ = quadratic_penalty(params, DiagGaussian(mean, prec), 3.0)
        v2, _ = quadratic_penalty(params[perm],
                                  DiagGaussian(mean[perm], prec[perm]), 3.0)
        assert v1 == pytest.approx(v2, rel=1e-13)


class TestRegState:
    def test_zeros_factory_shapes(self):
        state = RegState.zeros(12)
        assert state.task_count == 0
        assert state.anchor.mean.shape == (12,)
        assert state.importance.shape == (12,)

    def test_zeros_are_one_read_only_vector(self):
        # no update writes into a field; one that tried must not change
        # the sibling branches that share the vector
        state = RegState.zeros(3)
        vectors = [state.anchor.mean, state.anchor.precision,
                   state.importance, state.path_accum, state.prev_params,
                   state.fisher_ema, state.score_accum]
        assert all(v is vectors[0] for v in vectors)
        for vector in vectors:
            with pytest.raises(ValueError, match="read-only"):
                vector += 1.0
            with pytest.raises(ValueError, match="read-only"):
                vector[0] = 1.0
        np.testing.assert_array_equal(vectors[0], np.zeros(3))

    def test_json_roundtrip(self, tmp_path):
        # through the state file, whose reader is the only one
        net = Network([], {"out": DenseLayer(np.array([[1.0], [2.0], [3.0]]),
                                             np.array([0.5]), "identity")})
        state = RegState.zeros(4)
        state.importance = np.array([0.0, 1.0, 2.0, 3.0])
        state.anchor = DiagGaussian(np.array([1.5, -2.0, 0.25, -0.0]),
                                    np.array([0.0, 3.0, 0.5, 7.0]))
        state.task_count = 3
        path = str(tmp_path / "state.json")
        save_state(path, net, state,
                   (0, [[1.0] * (j + 1) for j in range(3)], [np.nan, 1.0, 1.0]))
        _, back, _ = load_state(path)
        np.testing.assert_array_equal(back.importance, state.importance)
        np.testing.assert_array_equal(back.anchor.mean, state.anchor.mean)
        np.testing.assert_array_equal(back.anchor.precision,
                                      state.anchor.precision)
        assert back.anchor.mean.dtype == np.float64
        assert np.signbit(back.anchor.mean[3])
        assert back.task_count == 3

    def test_serialized_size_constant_in_task_count(self):
        sizes = set()
        for t in range(1, 6):
            state = RegState.zeros(10)
            state.task_count = t
            state.anchor = DiagGaussian(np.full(10, 0.5), np.full(10, 0.25))
            sizes.add(len(json.dumps(state.to_json())))
        assert len(sizes) == 1


def random_anchor(size, seed):
    rng = np.random.default_rng(seed)
    return DiagGaussian(rng.normal(size=size), rng.uniform(0, 1, size=size))


class TestAfecTotalLoss:
    """The gradient training follows: the task gradient plus the anchor
    penalties that penalty_terms selects, added by penalized_grad."""

    def _setup(self, seed=0):
        task = small_task(seed)
        net = small_net(task, seed)
        batch = Batch(task.inputs_train[:8], task.targets_train[:8], task.head)
        state = RegState.zeros(net.param_count)
        return net, batch, state

    def test_both_penalties_off_is_plain_loss(self):
        net, batch, state = self._setup()
        state.anchor = random_anchor(net.param_count, 1)
        state.task_count = 1
        expanded = random_anchor(net.param_count, 2)
        cfg = SequenceConfig(method="afec", lam=0.0, lam_e=0.0)
        terms = penalty_terms(cfg, state, expanded)
        assert terms == []
        _, ref_grad = net.loss_and_grad(batch, "angular_mse")
        np.testing.assert_array_equal(
            penalized_grad(net.get_params(), ref_grad, terms), ref_grad)

    def test_lam_e_zero_matches_single_penalty_objective(self):
        net, batch, state = self._setup()
        state.anchor = random_anchor(net.param_count, 1)
        state.task_count = 1
        expanded = random_anchor(net.param_count, 2)
        cfg = SequenceConfig(method="afec", lam=2.5, lam_e=0.0)
        terms = penalty_terms(cfg, state, expanded)
        _, base_grad = net.loss_and_grad(batch, "angular_mse")
        _, pen_grad = quadratic_penalty(net.get_params(), state.anchor, 2.5)
        got = penalized_grad(net.get_params(), base_grad.copy(), terms)
        np.testing.assert_array_equal(got, base_grad + pen_grad)
        ewc = SequenceConfig(method="ewc", lam=2.5)
        np.testing.assert_array_equal(
            got, penalized_grad(net.get_params(), base_grad,
                                penalty_terms(ewc, state, None)))

    def test_params_at_both_anchors_gives_task_loss_only(self):
        net, batch, state = self._setup()
        params = net.get_params()
        state.anchor = DiagGaussian(params.copy(), np.ones(net.param_count))
        state.task_count = 2
        expanded = DiagGaussian(params.copy(), np.ones(net.param_count))
        cfg = SequenceConfig(method="afec", lam=7.0, lam_e=3.0)
        terms = penalty_terms(cfg, state, expanded)
        assert len(terms) == 2
        assert all(quadratic_penalty(params, anchor, lam)[0] == 0.0
                   for anchor, lam in terms)
        _, ref_grad = net.loss_and_grad(batch, "angular_mse")
        np.testing.assert_array_equal(penalized_grad(params, ref_grad, terms),
                                      ref_grad)

    def test_no_old_penalty_before_first_task(self):
        net, batch, state = self._setup()
        state.anchor = DiagGaussian(np.ones(net.param_count),
                                    np.ones(net.param_count))
        cfg = SequenceConfig(method="afec", lam=100.0, lam_e=0.0)
        terms = penalty_terms(cfg, state, None)
        assert terms == []
        _, ref_grad = net.loss_and_grad(batch, "angular_mse")
        np.testing.assert_array_equal(
            penalized_grad(net.get_params(), ref_grad, terms), ref_grad)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           lam=st.floats(0.01, 100.0), lam_e=st.floats(0.01, 100.0))
    def test_penalty_is_the_weighted_product(self, seed, lam, lam_e):
        """The paper's derivation: the two-anchor penalty is -log of the
        weighted product of the anchors' Gaussians. With c = lam + lam_e
        and beta = lam_e / c, its gradient is c * p_mix * (theta - m_mix)
        for the product's mean m_mix and precision p_mix."""
        rng = np.random.default_rng(seed)
        size = 50

        def anchor():
            return DiagGaussian(rng.normal(0.0, 3.0, size),
                                10.0 ** rng.uniform(-3.0, 3.0, size))
        old, expanded = anchor(), anchor()
        theta = rng.normal(0.0, 3.0, size)
        c = lam + lam_e
        mix = gaussian_weighted_product(old, expanded, lam_e / c).mixture
        got = penalized_grad(theta, np.zeros(size),
                             [(old, lam), (expanded, lam_e)])
        want = c * mix.precision * (theta - mix.mean)
        # Rounding of either side is a few ulps of c times the largest
        # term: 1 - beta loses digits when lam is much smaller than lam_e.
        scale = c * (old.precision * (abs(theta) + abs(old.mean))
                     + expanded.precision * (abs(theta) + abs(expanded.mean)))
        assert np.all(abs(got - want) <= 64 * np.finfo(float).eps * scale)

    def test_terms_added_in_order_into_grad(self):
        net, batch, state = self._setup()
        state.anchor = random_anchor(net.param_count, 1)
        state.task_count = 1
        expanded = random_anchor(net.param_count, 2)
        cfg = SequenceConfig(method="afec", lam=3.0, lam_e=0.7)
        terms = penalty_terms(cfg, state, expanded)
        assert [lam for _, lam in terms] == [3.0, 0.7]
        assert terms[1][0] is expanded
        params = net.get_params()
        _, grad = net.loss_and_grad(batch, "angular_mse")
        kept = grad.copy()
        assert penalized_grad(params, grad, terms) is grad
        old = quadratic_penalty(params, state.anchor, 3.0)[1]
        new = quadratic_penalty(params, expanded, 0.7)[1]
        np.testing.assert_array_equal(grad, (kept + old) + new)


class TestRegWithAfecLoss:
    """The old anchor of the importance-based methods (MAS, SI, RWalk and
    their AFEC variants) is weighted by the importance, not the Fisher."""

    def test_importance_equal_fisher_matches_afec(self):
        task = small_task()
        net = small_net(task)
        batch = Batch(task.inputs_train[:8], task.targets_train[:8], task.head)
        state = RegState.zeros(net.param_count)
        state.anchor = random_anchor(net.param_count, 2)
        state.importance = state.anchor.precision.copy()
        state.task_count = 1
        params = net.get_params()
        _, grad = net.loss_and_grad(batch, "angular_mse")
        afec = penalty_terms(SequenceConfig(method="afec", lam=4.0), state,
                             None)
        expected = penalized_grad(params, grad.copy(), afec)
        assert np.any(expected != grad)
        for method in ("mas", "si", "rwalk", "mas_afec"):
            terms = penalty_terms(SequenceConfig(method=method, lam=4.0),
                                  state, None)
            np.testing.assert_array_equal(
                penalized_grad(params, grad.copy(), terms), expected)
        state.importance = np.zeros(net.param_count)
        terms = penalty_terms(SequenceConfig(method="mas", lam=4.0), state,
                              None)
        np.testing.assert_array_equal(
            penalized_grad(params, grad.copy(), terms), grad)

    def test_unknown_method_rejected(self):
        # "ewc_afec" would otherwise select the importance as old weights
        with pytest.raises(ConfigError):
            SequenceConfig(method="ewc_afec")


class TestTrainExpanded:
    def test_zero_epochs_copy_main_returns_current_params(self):
        task = small_task()
        net = small_net(task)
        [anchor] = train_expanded([net], task, {"kind": "sgd", "lr": 0.01},
                                  epochs=0, batch_size=8,
                                  loss_kind="angular_mse", seed=0)
        np.testing.assert_array_equal(anchor.mean, net.get_params())

    def test_main_network_untouched(self):
        task = small_task()
        net = small_net(task)
        before = net.get_params()
        train_expanded([net], task, {"kind": "adam", "lr": 0.001}, epochs=3,
                       batch_size=8, loss_kind="angular_mse", seed=0)
        np.testing.assert_array_equal(net.get_params(), before)

    def test_deterministic_across_calls(self):
        task = small_task()
        net = small_net(task)
        kwargs = dict(epochs=2, batch_size=8, loss_kind="angular_mse",
                      seed=3, task_index=1)
        [a] = train_expanded([net], task, {"kind": "adam"}, **kwargs)
        [b] = train_expanded([net], task, {"kind": "adam"}, **kwargs)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.precision, b.precision)

    def test_fresh_random_differs_from_copy_main(self):
        task = small_task()
        net = small_net(task)
        kwargs = dict(epochs=1, batch_size=8, loss_kind="angular_mse", seed=0)
        [a] = train_expanded([net], task, {"kind": "sgd", "lr": 1e-4},
                             **kwargs)
        [b] = train_expanded([net], task, {"kind": "sgd", "lr": 1e-4},
                             init="fresh_random", **kwargs)
        assert np.any(a.mean != b.mean)

    def test_unknown_init_returned_for_every_network(self):
        task = small_task()
        nets = [small_net(task, seed) for seed in (0, 1)]
        a, b = train_expanded(nets, task, {"kind": "sgd"}, epochs=1,
                              init="warm", batch_size=8,
                              loss_kind="angular_mse", seed=0)
        assert a is b
        assert isinstance(a, ConfigError)
        assert str(a) == "unknown expansion_init 'warm'"

    def test_empty_task_returned_for_every_network(self):
        task = small_task()
        nets = [small_net(task, seed) for seed in (0, 1)]
        task.inputs_train = task.inputs_train[:0]
        outcomes = train_expanded(nets, task, {"kind": "sgd"}, epochs=1,
                                  batch_size=8, loss_kind="angular_mse",
                                  seed=0)
        assert [type(o) for o in outcomes] == [ShapeError] * 2
        assert str(outcomes[0]) == "expansion needs a non-empty task"

    @pytest.mark.parametrize("init", EXPANSION_INITS)
    def test_rows_equal_their_own_expansions(self, init):
        # fresh_random trains one network for every row: one anchor
        task = small_task()
        nets = [small_net(task, seed) for seed in (0, 1, 2)]
        kwargs = dict(epochs=2, init=init, batch_size=8,
                      loss_kind="angular_mse", seed=3, task_index=1)
        rows = train_expanded(nets, task, {"kind": "adam"}, **kwargs)
        for net, row in zip(nets, rows):
            [own] = train_expanded([net], task, {"kind": "adam"}, **kwargs)
            np.testing.assert_array_equal(row.mean, own.mean)
            np.testing.assert_array_equal(row.precision, own.precision)
        assert (len({id(row) for row in rows})
                == (1 if init == "fresh_random" else 3))

    def test_training_reduces_task_loss(self):
        task = small_task()
        net = small_net(task)
        batch = Batch(task.inputs_train, task.targets_train, task.head)
        before = net.loss_only(batch, "angular_mse")
        [anchor] = train_expanded([net], task, {"kind": "adam", "lr": 0.01},
                                  epochs=30, batch_size=16,
                                  loss_kind="angular_mse", seed=0)
        probe = net.clone()
        probe.set_params(anchor.mean)
        assert probe.loss_only(batch, "angular_mse") < before


class TestImportanceUpdate:
    def _state_and_net(self, seed=0):
        task = small_task(seed)
        net = small_net(task, seed)
        return task, net, RegState.zeros(net.param_count)

    def test_zero_gradients_leave_importance_unchanged(self):
        task, net, state = self._state_and_net()
        for _ in range(5):
            importance_update("si", state, "step",
                              grad=np.zeros(net.param_count),
                              delta=np.zeros(net.param_count))
        importance_update("si", state, "task_end", net=net, task=task,
                          start=net.get_params())
        np.testing.assert_array_equal(state.importance,
                                      np.zeros(net.param_count))

    def test_mas_constant_output_gives_zero_increment(self):
        task, _, _ = self._state_and_net()
        # zero weights in every layer make the output constant in the inputs
        # and insensitive to first-layer weights; use an all-zero head so the
        # squared-norm derivative vanishes everywhere
        net = small_net(task)
        params = np.zeros(net.param_count)
        net.set_params(params)
        state = RegState.zeros(net.param_count)
        importance_update("mas", state, "task_end", net=net, task=task,
                          start=net.get_params())
        np.testing.assert_array_equal(state.importance,
                                      np.zeros(net.param_count))

    def test_si_descent_accumulates_positive_path(self):
        # 1-parameter quadratic loss 0.5*w^2 descended by SGD: every step has
        # grad*delta < 0, so the path accumulator must end positive
        state = RegState.zeros(1)
        w = np.array([2.0])
        state.prev_params = w.copy()
        opt = SGD(lr=0.1)
        for _ in range(10):
            grad = w.copy()
            before = w.copy()  # the step updates w in place
            opt.step(w, grad)
            importance_update("si", state, "step", grad=grad,
                              delta=w - before)
        assert state.path_accum[0] > 0

    def test_si_consolidation_hand_oracle(self):
        state = RegState.zeros(2)
        state.path_accum = np.array([3.0, -1.0])
        fake_net = Network([], {"out": DenseLayer(np.array([[1.0]]),
                                                  np.array([0.5]), "identity")})
        importance_update("si", state, "task_end", net=fake_net, task=None,
                          start=np.array([0.0, 0.0]))
        params = fake_net.get_params()
        expect0 = 3.0 / ((params[0] - 0.0) ** 2 + 0.1)
        np.testing.assert_allclose(state.importance, [expect0, 0.0])
        np.testing.assert_array_equal(state.prev_params, params)
        np.testing.assert_array_equal(state.path_accum, [0.0, 0.0])

    def test_rwalk_combines_fisher_ema_and_scores(self):
        state = RegState.zeros(2)
        net = Network([], {"out": DenseLayer(np.array([[0.0]]), np.zeros(1),
                                             "identity")})
        grad = np.array([2.0, 0.0])
        importance_update("rwalk", state, "step", grad=grad,
                          delta=np.array([-0.2, 0.0]))
        assert state.fisher_ema[0] == pytest.approx(0.1 * 4.0)
        importance_update("rwalk", state, "task_end", net=net, task=None,
                          start=net.get_params())
        assert state.importance[0] > 0

    @pytest.mark.parametrize("method", ["mas", "si", "rwalk"])
    def test_importance_stays_nonnegative(self, method):
        task, net, state = self._state_and_net(1)
        rng = np.random.default_rng(9)
        for round_ in range(3):
            start = net.get_params()
            for _ in range(4):
                importance_update(
                    method, state, "step",
                    grad=rng.normal(size=net.param_count),
                    delta=rng.normal(size=net.param_count) * 0.01)
            importance_update(method, state, "task_end", net=net, task=task,
                              start=start)
            assert np.all(state.importance >= 0)

    def test_unknown_method_and_event_rejected(self):
        state = RegState.zeros(2)
        with pytest.raises(ConfigError):
            importance_update("ewc", state, "step")
        with pytest.raises(ConfigError):
            importance_update("si", state, "checkpoint")
        with pytest.raises(ConfigError):  # marked by task_end's start=
            importance_update("si", state, "task_start")
