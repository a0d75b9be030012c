"""Network forward/backward, loss, and optimizer tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afec_lab.errors import ConfigError, NumericError, ShapeError
from afec_lab.nn import (ACTIVATIONS, Adam, Batch, DenseLayer, Network, SGD,
                         _activate, _activate_grad, finite_diff_check,
                         make_optimizer)
from afec_lab.posterior import estimate_diag_fisher
from afec_lab.regularizers import _mas_increment
from afec_lab.tasks import TaskDataset, make_angular_sequence


def random_net(seed, input_dim=5, hidden=(8, 6), heads=None, activation="tanh"):
    heads = heads or {"out": 3}
    return Network.create(input_dim, list(hidden), activation, heads, seed)


def random_batch(seed, net, head="out", loss_kind="mse", n=7):
    rng = np.random.default_rng(seed)
    d_in = net.body[0].in_dim
    d_out = net.heads[head].out_dim
    x = rng.standard_normal((n, d_in))
    if loss_kind == "cross_entropy":
        y = rng.integers(0, d_out, size=n)
    elif loss_kind == "angular_mse":
        phi = rng.uniform(0, 2 * np.pi, size=n)
        y = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    else:
        y = rng.standard_normal((n, d_out))
    return Batch(x, y, head)


class TestForward:
    def test_identity_layer_passes_input_through(self):
        net = Network([], {"out": DenseLayer(np.eye(4), np.zeros(4), "identity")})
        x = np.arange(8.0).reshape(2, 4)
        out = net.forward(Batch(x, np.zeros((2, 4)), "out"))
        np.testing.assert_array_equal(out, x)

    def test_relu_zeroes_negative_preactivations(self):
        body = [DenseLayer(np.eye(3), np.zeros(3), "relu")]
        net = Network(body, {"out": DenseLayer(np.eye(3), np.zeros(3), "identity")})
        x = -np.ones((2, 3))
        out = net.forward(Batch(x, np.zeros((2, 3)), "out"))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))

    def test_forward_is_deterministic(self):
        net = random_net(0)
        batch = random_batch(1, net)
        a = net.forward(batch)
        b = net.forward(batch)
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch_raises(self):
        net = random_net(0, input_dim=5)
        with pytest.raises(ShapeError):
            net.forward(Batch(np.zeros((2, 4)), np.zeros((2, 3)), "out"))

    def test_unknown_head_raises(self):
        net = random_net(0)
        with pytest.raises(ConfigError):
            net.forward(Batch(np.zeros((2, 5)), np.zeros((2, 3)), "nope"))

    def test_non_finite_activation_names_layer(self):
        net = random_net(0, activation="identity")
        huge = np.full((1, 5), 1e308)
        # The overflowing inputs and the first layer's matmul each warn.
        with pytest.warns(RuntimeWarning), \
                pytest.raises(NumericError, match="layer"):
            net.forward(Batch(huge * huge.sum(), np.zeros((1, 3)), "out"))


class TestArch:
    @pytest.mark.parametrize("hidden,activation", [
        ([8, 6], "tanh"), ([4], "relu"), ([], "identity")])
    def test_round_trips_through_create(self, hidden, activation):
        heads = {"a": 3, "b": 2}
        net = Network.create(5, hidden, activation, heads, seed=4)
        assert net.arch() == (5, hidden, activation, heads)
        again = Network.create(*net.arch(), seed=4)
        assert again.arch() == net.arch()
        np.testing.assert_array_equal(again.get_params(), net.get_params())

    def test_linear_model_reads_back_identity(self):
        net = Network.create(5, [], "relu", {"out": 3}, seed=1)
        assert net.arch() == (5, [], "identity", {"out": 3})
        np.testing.assert_array_equal(
            Network.create(*net.arch(), seed=1).get_params(), net.get_params())


class TestLossAndGrad:
    def test_perfect_fit_gives_zero_loss_and_grad(self):
        net = Network([], {"out": DenseLayer(np.eye(3), np.zeros(3), "identity")})
        x = np.random.default_rng(0).standard_normal((4, 3))
        loss, grad = net.loss_and_grad(Batch(x, x.copy(), "out"), "mse")
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(net.param_count))

    def test_one_parameter_linear_model(self):
        # y = w*x with x=2, target 0, w=1: loss (wx)^2 = 4, dL/dw = 2*wx*x = 8
        net = Network([], {"out": DenseLayer(np.array([[1.0]]), np.zeros(1),
                                             "identity")})
        batch = Batch(np.array([[2.0]]), np.array([[0.0]]), "out")
        loss, grad = net.loss_and_grad(batch, "mse")
        assert loss == pytest.approx(4.0)
        assert grad[0] == pytest.approx(8.0)

    def test_uniform_logits_cross_entropy_is_log_c(self):
        for c in (2, 5, 10):
            net = Network([], {"out": DenseLayer(np.zeros((3, c)), np.zeros(c),
                                                 "identity")})
            batch = Batch(np.ones((4, 3)), np.array([0, 1, 0, 1]) % c, "out")
            loss, _ = net.loss_and_grad(batch, "cross_entropy")
            assert loss == pytest.approx(math.log(c), rel=1e-12)

    def test_regression_loss_nonnegative(self):
        net = random_net(3)
        batch = random_batch(4, net)
        loss, _ = net.loss_and_grad(batch, "mse")
        assert loss >= 0.0

    def test_angular_targets_must_be_unit(self):
        net = random_net(0, heads={"angle": 2})
        bad = Batch(np.zeros((2, 5)), np.full((2, 2), 0.9), "angle")
        with pytest.raises(ShapeError):
            net.loss_and_grad(bad, "angular_mse")

    def test_cross_entropy_rejects_out_of_range_labels(self):
        net = random_net(0)
        batch = Batch(np.zeros((2, 5)), np.array([0, 3]), "out")
        with pytest.raises(ShapeError):
            net.loss_and_grad(batch, "cross_entropy")

    @pytest.mark.parametrize("loss_kind,targets,error", [
        ("mse", np.zeros((2, 2)), "regression targets must match"),
        ("cross_entropy", np.array([0.0, 1.0]), "must be class indices")])
    def test_malformed_targets_rejected(self, loss_kind, targets, error):
        net = random_net(0)
        with pytest.raises(ShapeError, match=error):
            net.loss_and_grad(Batch(np.zeros((2, 5)), targets, "out"),
                              loss_kind)

    def test_unknown_loss_kind(self):
        net = random_net(0)
        with pytest.raises(ConfigError):
            net.loss_and_grad(random_batch(1, net), "huber")

    def test_head_isolation(self):
        # gradients through one head never touch the other head's parameters
        net = random_net(0, heads={"h1": 3, "h2": 4})
        batch = random_batch(1, net, head="h1")
        _, grad = net.loss_and_grad(batch, "mse")
        other = net.head_slice("h2")
        np.testing.assert_array_equal(grad[other], 0.0)
        assert np.any(grad[net.head_slice("h1")] != 0.0)


class TestStack:
    """A stacked network runs S networks of one architecture on one batch;
    each row's loss and gradient are its own network's bit for bit."""

    @pytest.mark.parametrize("loss_kind,heads", [
        ("mse", None), ("angular_mse", {"out": 2}),
        ("cross_entropy", {"out": 4})])
    @pytest.mark.parametrize("count", [1, 3])
    def test_rows_equal_their_own_networks(self, loss_kind, heads, count):
        nets = [random_net(seed, heads=heads) for seed in range(count)]
        batch = random_batch(9, nets[0], loss_kind=loss_kind)
        stacked, rows = Network.stack(nets)
        losses, grads = stacked.loss_and_grad(batch, loss_kind)
        assert grads.shape == (count, nets[0].param_count)
        for net, row, loss, grad in zip(nets, rows, losses, grads):
            np.testing.assert_array_equal(row.params, net.params)
            own_loss, own_grad = net.loss_and_grad(batch, loss_kind)
            assert loss == pytest.approx(own_loss, rel=1e-13)
            assert grad.tobytes() == own_grad.tobytes()

    def test_rows_view_the_stack_and_copy_the_networks(self):
        nets = [random_net(seed) for seed in range(2)]
        kept = [net.get_params() for net in nets]
        stacked, rows = Network.stack(nets)
        stacked.params += 1.0
        for net, row, params in zip(nets, rows, kept):
            np.testing.assert_array_equal(net.params, params)
            np.testing.assert_array_equal(row.params, params + 1.0)
            assert np.shares_memory(row.params, stacked.params)

    def test_non_finite_rows_are_named(self):
        nets = [random_net(seed) for seed in range(3)]
        nets[1].body[0].w[0, 0] = np.nan
        stacked, _ = Network.stack(nets)
        with pytest.raises(NumericError, match="body layer 0") as caught:
            stacked.loss_and_grad(random_batch(2, nets[0]), "mse")
        assert caught.value.rows.tolist() == [False, True, False]

    def test_architectures_must_match(self):
        with pytest.raises(ShapeError, match="one architecture"):
            Network.stack([random_net(0), random_net(0, hidden=(8, 5))])


class TestFiniteDiff:
    def test_linear_model_tight(self):
        net = Network([], {"out": DenseLayer(np.array([[1.0]]), np.zeros(1),
                                             "identity")})
        batch = Batch(np.array([[2.0]]), np.array([[0.0]]), "out")
        assert finite_diff_check(net, batch, "mse") < 1e-6

    def test_random_two_layer_tanh(self):
        net = random_net(7, hidden=(6, 5), activation="tanh")
        batch = random_batch(8, net)
        assert finite_diff_check(net, batch, "mse", max_coords=8) < 1e-4

    def test_identity_hidden_layers(self):
        net = random_net(9, hidden=(6, 5), activation="identity")
        batch = random_batch(10, net)
        assert finite_diff_check(net, batch, "mse") < 1e-4

    def test_zero_loss_point_absolute_error(self):
        # at the exact minimum both the analytic and the numeric derivative
        # are ~0, so compare them absolutely rather than relatively
        net = Network([], {"out": DenseLayer(np.eye(2), np.zeros(2), "identity")})
        x = np.ones((3, 2))
        batch = Batch(x, x.copy(), "out")
        _, grad = net.loss_and_grad(batch, "mse")
        params = net.get_params()
        eps = 1e-5
        for i in range(net.param_count):
            bumped = params.copy()
            bumped[i] = params[i] + eps
            net.set_params(bumped)
            hi = net.loss_only(batch, "mse")
            bumped[i] = params[i] - eps
            net.set_params(bumped)
            lo = net.loss_only(batch, "mse")
            numeric = (hi - lo) / (2 * eps)
            assert abs(grad[i] - numeric) < 1e-8
            net.set_params(params)

    @pytest.mark.parametrize("loss_kind", ["mse", "cross_entropy", "angular_mse"])
    @pytest.mark.parametrize("seed", range(5))
    def test_all_losses_all_seeds(self, loss_kind, seed):
        heads = {"out": 2 if loss_kind == "angular_mse" else 4}
        net = random_net(seed, hidden=(8, 6), heads=heads, activation="tanh")
        batch = random_batch(seed + 100, net, loss_kind=loss_kind)
        assert finite_diff_check(net, batch, loss_kind) < 1e-4

    def test_nonpositive_eps_rejected(self):
        net = random_net(0)
        with pytest.raises(ConfigError):
            finite_diff_check(net, random_batch(1, net), "mse", eps=0.0)

    def test_check_restores_parameters(self):
        net = random_net(0)
        before = net.get_params()
        finite_diff_check(net, random_batch(1, net), "mse", max_coords=4)
        np.testing.assert_array_equal(net.get_params(), before)


class TestParamView:
    def test_flatten_unflatten_roundtrip(self):
        net = random_net(2, heads={"a": 3, "b": 2})
        params = net.get_params()
        net.set_params(params)
        np.testing.assert_array_equal(net.get_params(), params)

    def test_set_then_get_arbitrary_vector(self):
        net = random_net(2)
        vec = np.random.default_rng(5).standard_normal(net.param_count)
        net.set_params(vec)
        np.testing.assert_array_equal(net.get_params(), vec)

    def test_wrong_length_rejected(self):
        net = random_net(2)
        with pytest.raises(ShapeError):
            net.set_params(np.zeros(net.param_count + 1))

    def test_param_count_matches_layer_sizes(self):
        net = random_net(0, input_dim=5, hidden=(8, 6), heads={"out": 3})
        expected = 5 * 8 + 8 + 8 * 6 + 6 + 6 * 3 + 3
        assert net.param_count == expected

    def test_clone_is_deep(self):
        net = random_net(0)
        twin = net.clone()
        twin.set_params(np.zeros(twin.param_count))
        assert np.any(net.get_params() != 0.0)

    def test_get_params_is_a_snapshot(self):
        net = random_net(2)
        params = net.get_params()
        kept = params.copy()
        net.set_params(params + 1.0)
        np.testing.assert_array_equal(params, kept)

    def test_clone_shares_no_memory(self):
        net = random_net(0, heads={"a": 3, "b": 2})
        twin = net.clone()
        ours = [a for l in [*net.body, *net.heads.values()] for a in (l.w, l.b)]
        theirs = [a for l in [*twin.body, *twin.heads.values()]
                  for a in (l.w, l.b)]
        assert not any(np.shares_memory(x, y) for x in ours for y in theirs)
        np.testing.assert_array_equal(twin.get_params(), net.get_params())

    def test_same_seed_same_init(self):
        a = random_net(11).get_params()
        b = random_net(11).get_params()
        np.testing.assert_array_equal(a, b)

    def test_mismatched_body_layers_rejected(self):
        l1 = DenseLayer(np.zeros((4, 5)), np.zeros(5), "relu")
        l2 = DenseLayer(np.zeros((6, 3)), np.zeros(3), "relu")
        with pytest.raises(ShapeError):
            Network([l1, l2], {"out": DenseLayer(np.zeros((3, 2)), np.zeros(2))})

    @pytest.mark.parametrize("heads,params,error", [
        ({"out": DenseLayer(np.zeros((4, 2)), np.zeros(2))}, None,
         "does not match body output dim"),
        ({"out": DenseLayer(np.zeros((3, 2)), np.zeros(2))}, np.zeros(16),
         "of length 17"),
        ({"out": DenseLayer(np.zeros((3, 2)), np.zeros(2))},
         np.zeros(17, dtype=np.float32), "expected float64")])
    def test_inconsistent_layers_or_params_rejected(self, heads, params,
                                                    error):
        body = [DenseLayer(np.zeros((2, 3)), np.zeros(3), "relu")]
        with pytest.raises(ShapeError, match=error):
            Network(body, heads, params)


class TestPerSampleGradMoment:
    @pytest.mark.parametrize("power", [1, 2])
    def test_matches_explicit_per_sample_loop(self, power):
        net = random_net(3, hidden=(6, 4), activation="tanh")
        batch = random_batch(4, net, n=9)
        rng = np.random.default_rng(5)
        delta = rng.standard_normal((batch.n, net.heads["out"].out_dim))
        got = net.per_sample_grad_moment(batch, lambda out: delta,
                                         power=power)
        total = np.zeros(net.param_count)
        for i in range(batch.n):
            one = Batch(batch.inputs[i:i + 1], batch.targets[i:i + 1], "out")
            _, cache = net._forward_cached(one.inputs, one.head)
            g = net._backward(one.head, cache, delta[i:i + 1])
            total += np.abs(g) ** power
        np.testing.assert_allclose(got, total / batch.n, rtol=1e-12, atol=1e-15)

    def test_power_validation(self):
        net = random_net(0)
        batch = random_batch(1, net)
        with pytest.raises(ConfigError):
            net.per_sample_grad_moment(batch, np.zeros_like, power=3)

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_moment_raises(self, power, bad):
        # one output gradient of a diverged network; as in training, numpy
        # does not warn of the inf - inf it makes
        net = random_net(0)
        batch = random_batch(1, net)
        delta = np.zeros((batch.n, 3))
        delta[1, 2] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match="per-sample gradient"):
            net.per_sample_grad_moment(batch, lambda out: delta, power=power)


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes()


def _classification_task():
    rng = np.random.default_rng(7)
    return TaskDataset(name="c", inputs_train=rng.standard_normal((12, 5)),
                       inputs_test=rng.standard_normal((4, 5)),
                       targets_train=rng.integers(0, 3, 12),
                       targets_test=rng.integers(0, 3, 4),
                       kind="classification", head_dim=3, seed=0, head="c")


class TestNoWritesIntoCallerArrays:
    """The backward pass writes in place into what it owns, and never into
    the batch inputs or the output gradient it is given. A float64 task's
    train batch is the task's own input matrix, so a write there would
    change every later result."""

    # The NLL delta of a classification task is one network's, so the
    # stacked net runs the regression task only.
    @pytest.mark.parametrize("net_kind,task_kind", [
        *((kind, task) for kind in (*ACTIVATIONS, "linear")
          for task in ("regression", "classification")),
        ("stacked", "regression")])
    def test_inputs_and_delta_unchanged(self, net_kind, task_kind):
        if task_kind == "regression":
            task, loss_kind = make_angular_sequence(
                1, 4, samples_per_class=3, input_dim=5)[0], "angular_mse"
        else:
            task, loss_kind = _classification_task(), "cross_entropy"
        arch = {task.head: task.head_dim}
        if net_kind == "stacked":
            net, _ = Network.stack([Network.create(5, [8, 6], "relu", arch, s)
                                    for s in range(3)])
        else:
            net = Network.create(5, [] if net_kind == "linear" else [8, 6],
                                 "relu" if net_kind == "linear" else net_kind,
                                 arch, 1)
        batch = task.batch("train")
        assert batch.inputs is task.inputs_train
        delta = np.random.default_rng(2).standard_normal(
            net.forward(batch).shape)
        kept_inputs, kept_delta = _bits(task.inputs_train), _bits(delta)
        net.loss_and_grad(batch, loss_kind)
        for power in (1, 2):
            net.per_sample_grad_moment(batch, lambda out: delta, power)
        estimate_diag_fisher(net, task, loss_kind)
        _mas_increment(net, task)
        assert _bits(batch.inputs) == kept_inputs
        assert _bits(task.inputs_train) == kept_inputs
        assert _bits(delta) == kept_delta


def _reference_grad(net, batch, delta_of, pw=None):
    """The gradient of a ReLU net by a backward pass that keeps the
    pre-activations z and masks on z > 0."""
    x = batch.inputs
    xs, zs = [x], []
    for layer in net.body:
        z = x @ layer.w
        z += layer.b
        x = np.maximum(z, 0.0)
        zs.append(z)
        xs.append(x)
    head = net.heads[batch.head]
    out = x @ head.w
    out += head.b
    layers = [*net.body, head]
    d = delta_of(out)
    parts = []
    for i in range(len(layers) - 1, -1, -1):
        if i < len(net.body):
            d = d * (zs[i] > 0.0)
        x, g = (xs[i], d) if pw is None else (pw(xs[i]), pw(d))
        parts[:0] = [(x.T @ g).ravel(), np.add.reduce(g, axis=0)]
        if i > 0:
            d = d @ layers[i].w.T
    return np.concatenate(parts)


class TestReluMaskEdges:
    # First-layer weights: times the inputs 1, -1, 2, 0.5 and 0, they give
    # pre-activations at 0.0, at subnormals of either sign and at large
    # values.
    EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e100, -1e100, 1.5, -1.5]

    @staticmethod
    def _net_and_batch():
        rng = np.random.default_rng(11)
        body = [DenseLayer(np.array([TestReluMaskEdges.EDGES]), np.zeros(8),
                           "relu"),
                DenseLayer(rng.standard_normal((8, 4)), np.zeros(4), "relu")]
        net = Network(body, {"out": DenseLayer(
            rng.standard_normal((4, 2)), rng.standard_normal(2))})
        x = np.array([[1.0], [-1.0], [2.0], [0.5], [0.0]])
        return net, Batch(x, rng.standard_normal((5, 2)), "out")

    def test_edges_reached(self):
        net, batch = self._net_and_batch()
        z = batch.inputs @ net.body[0].w
        for value in (0.0, 5e-324, -5e-324, 1e100, -1e100):
            assert (z == value).any()

    def test_loss_and_grad_matches_mask_on_pre_activations(self):
        net, batch = self._net_and_batch()
        _, grad = net.loss_and_grad(batch, "mse")
        want = _reference_grad(
            net, batch, lambda out: net._loss_delta(out, batch, "mse")[1])
        assert _bits(grad) == _bits(want)

    @pytest.mark.parametrize("power", [1, 2])
    def test_per_sample_moment_matches_mask_on_pre_activations(self, power):
        net, batch = self._net_and_batch()
        delta = np.random.default_rng(3).standard_normal((batch.n, 2))
        got = net.per_sample_grad_moment(batch, lambda out: delta, power)
        pw = np.square if power == 2 else np.abs
        want = _reference_grad(net, batch, lambda out: delta, pw) / batch.n
        assert _bits(got) == _bits(want)

    def test_mask_from_output_at_every_edge(self):
        # a gemm sum plus a bias is never -0.0, so a forward pass cannot
        # reach that edge; the mask is checked on it directly
        z = np.array([*self.EDGES, np.inf, -np.inf, np.nan])
        a = _activate("relu", z.copy())
        np.testing.assert_array_equal(_activate_grad("relu", a), z > 0.0)


class TestOptimizers:
    def test_sgd_hand_arithmetic(self):
        opt = SGD(lr=0.1, momentum=0.0)
        out = opt.step(np.array([1.0]), np.array([2.0]))
        assert out[0] == pytest.approx(0.8)

    def test_sgd_zero_grad_is_fixed_point(self):
        opt = SGD(lr=0.1, momentum=0.0)
        params = np.array([3.0, -1.0])
        before = params.copy()
        np.testing.assert_array_equal(opt.step(params, np.zeros(2)), before)

    def test_sgd_momentum_accumulates(self):
        opt = SGD(lr=0.1, momentum=0.9)
        p = np.array([0.0])
        p = opt.step(p, np.array([1.0]))   # v=1, p=-0.1
        p = opt.step(p, np.array([1.0]))   # v=1.9, p=-0.29
        assert p[0] == pytest.approx(-0.29)

    def test_adam_first_step_magnitude(self):
        # with bias correction the first update is lr * g/|g| (up to eps)
        opt = Adam(lr=0.001)
        for g in (0.5, 3.0, 100.0):
            step = np.array([1.0]) - opt.__class__(lr=0.001).step(
                np.array([1.0]), np.array([g]))
            assert step[0] == pytest.approx(0.001, rel=1e-6)

    def test_adam_reference_recurrence(self):
        rng = np.random.default_rng(9)
        params = rng.standard_normal(4)
        grads = [rng.standard_normal(4) for _ in range(5)]
        opt = Adam(lr=0.01)
        m = np.zeros(4)
        v = np.zeros(4)
        expect = params.copy()
        got = params.copy()
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            expect = expect - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            got = opt.step(got, g)
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    @pytest.mark.parametrize("opt", [SGD(lr=0.1), Adam(lr=0.01)])
    def test_non_finite_grad_rejected(self, opt):
        with pytest.raises(NumericError):
            opt.step(np.zeros(2), np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("opt", [SGD(lr=0.1), Adam(lr=0.01)])
    def test_shape_mismatch_rejected(self, opt):
        with pytest.raises(ShapeError, match="length mismatch"):
            opt.step(np.zeros(2), np.zeros(3))

    def test_adam_bit_identical_to_textbook_recurrence(self):
        rng = np.random.default_rng(11)
        params = rng.standard_normal(40)
        grads = [rng.standard_normal(40) * scale
                 for scale in (1.0, 1e-3, 50.0, 0.0, 1.0, 1e-8, 3.0)]
        b1, b2, lr, eps = 0.9, 0.999, 0.01, 1e-8
        opt = Adam(lr=lr)
        m = np.zeros(40)
        v = np.zeros(40)
        expect = got = params
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            expect = expect - lr * m_hat / (np.sqrt(v_hat) + eps)
            got = opt.step(got, g)
            assert np.array_equal(got, expect)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sgd_bit_identical_to_textbook_recurrence(self, momentum):
        rng = np.random.default_rng(12)
        params = rng.standard_normal(40)
        grads = [rng.standard_normal(40) * scale
                 for scale in (1.0, 1e-3, 50.0, 0.0, -2.0, 1e-8)]
        opt = SGD(lr=0.05, momentum=momentum)
        velocity = np.zeros(40)
        expect = got = params
        for g in grads:
            velocity = momentum * velocity + g
            expect = expect - 0.05 * velocity
            got = opt.step(got, g)
            assert np.array_equal(got, expect)

    @pytest.mark.parametrize("make", [lambda: SGD(lr=0.1),
                                      lambda: SGD(lr=0.1, momentum=0.9),
                                      lambda: Adam(lr=0.01)])
    def test_step_leaves_arguments_and_earlier_results_alone(self, make):
        # The step writes into `params`, in place, and returns it; `grad`
        # and the optimizer's own arrays stay apart from it.
        opt = make()
        rng = np.random.default_rng(13)
        params = rng.standard_normal(30)
        for _ in range(5):
            grad = rng.standard_normal(30)
            params_before, grad_before = params.copy(), grad.copy()
            assert opt.step(params, grad) is params
            assert not np.array_equal(params, params_before)
            assert np.array_equal(grad, grad_before)
            # No moment or velocity array aliases the parameters or grad.
            state = [a for a in vars(opt).values()
                     if isinstance(a, np.ndarray)]
            assert state
            assert not any(np.shares_memory(a, b) for a in state
                           for b in (params, grad))

    def test_adam_nan_grad_leaves_moments_and_step_count(self):
        opt = Adam(lr=0.01)
        params = np.array([1.0, -2.0, 0.5])
        for g in ([0.1, 0.2, -0.3], [1.0, -1.0, 2.0]):
            params = opt.step(params, np.array(g))
        m, v, t = opt._m.copy(), opt._v.copy(), opt._t
        before = params.copy()
        with pytest.raises(NumericError):
            opt.step(params, np.array([0.5, np.nan, 0.1]))
        assert np.array_equal(params, before)
        assert np.array_equal(opt._m, m)
        assert np.array_equal(opt._v, v)
        assert opt._t == t

    def test_sgd_nan_grad_leaves_velocity(self):
        opt = SGD(lr=0.1, momentum=0.9)
        params = opt.step(np.array([1.0, -2.0]), np.array([0.3, -0.4]))
        velocity, before = opt._velocity.copy(), params.copy()
        with pytest.raises(NumericError):
            opt.step(params, np.array([np.inf, 0.0]))
        assert np.array_equal(params, before)
        assert np.array_equal(opt._velocity, velocity)

    def test_training_loss_non_increasing_small_lr(self):
        net = random_net(1, activation="tanh")
        batch = random_batch(2, net)
        opt = SGD(lr=1e-3)
        last = np.inf
        for _ in range(100):
            loss, grad = net.loss_and_grad(batch, "mse")
            assert loss <= last + 1e-12
            last = loss
            net.set_params(opt.step(net.get_params(), grad))

    def test_make_optimizer(self):
        assert isinstance(make_optimizer({"kind": "sgd"}), SGD)
        assert isinstance(make_optimizer({"kind": "adam"}), Adam)
        with pytest.raises(ConfigError):
            make_optimizer({"kind": "rmsprop"})
        # a key the chosen kind would silently ignore
        with pytest.raises(ConfigError, match="momentum"):
            make_optimizer({"kind": "adam", "momentum": 0.9})


class TestBatch:
    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            Batch(np.zeros((0, 3)), np.zeros((0, 3)), "out")

    def test_target_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Batch(np.zeros((3, 2)), np.zeros((2, 2)), "out")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
def test_grad_matches_finite_differences_property(seed, n):
    net = random_net(seed, hidden=(5,), activation="tanh")
    batch = random_batch(seed + 1, net, n=n)
    assert finite_diff_check(net, batch, "mse", max_coords=6) < 1e-4


# Row norms straddling the unit-target bound 1e-9 + 1e-5 on either side.
_NEAR_UNIT = [1.0, 1.0 + 1.0001e-5, 1.0 - 1.0001e-5, 1.0 + 0.9999e-5,
              1.0 - 0.9999e-5, 1.0 + 1e-5 + 1e-9, 1.0 - 1e-5 - 1e-9,
              math.nan, math.inf, 0.0]
_radius = st.one_of(st.sampled_from(_NEAR_UNIT),
                    st.floats(1.0 - 3e-5, 1.0 + 3e-5),
                    st.floats(allow_nan=True, allow_infinity=True))
_polar_row = st.builds(lambda phi, r: [r * math.cos(phi), r * math.sin(phi)],
                       st.floats(0.0, 2.0 * math.pi), _radius)
_raw_row = st.lists(st.one_of(st.floats(-1.5, 1.5),
                              st.sampled_from([math.nan, math.inf, -math.inf])),
                    min_size=2, max_size=2)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.one_of(_polar_row, _raw_row), min_size=1, max_size=4))
def test_angular_unit_check_matches_allclose_property(rows):
    targets = np.array(rows, dtype=np.float64)
    net = random_net(0, input_dim=3, hidden=(4,), heads={"angle": 2})
    batch = Batch(np.zeros((len(rows), 3)), targets, "angle")
    with np.errstate(all="ignore"):
        expected = bool(np.allclose(np.linalg.norm(targets, axis=1), 1.0,
                                    atol=1e-9))
        try:
            net.loss_and_grad(batch, "angular_mse")
            accepted = True
        except ShapeError:
            accepted = False
    assert accepted == expected
