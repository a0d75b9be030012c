"""The block-by-block optimizer steps and penalty gradient: the bits of the
textbook whole-vector formulas, and no whole-vector temporaries, in a step
or in a task's training; and the backward pass's bound on its temporaries."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afec_lab import continual
from afec_lab.continual import SequenceConfig, penalized_grad, run_sequence
from afec_lab.errors import NumericError, ShapeError
from afec_lab.nn import BLOCK, SGD, Adam, Batch, Network
from afec_lab.posterior import DiagGaussian
from afec_lab.regularizers import RegState, quadratic_penalty
from afec_lab.tasks import make_angular_sequence

# Sizes around the block size, and one that ends in a partial block.
SIZES = [5, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
# Signed zeros, subnormals and the edges of the normal range.
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
            2.2250738585072014e-308, 1e-300, -1e150]
WIDE_P = 269_322  # split_idx_wide's parameter count


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes()


@st.composite
def vectors(draw, size, count):
    """`count` vectors of `size` elements: scaled normals with special
    values placed at drawn positions, block edges among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = [i for b in range(0, size, BLOCK) for i in (b - 1, b) if 0 <= i]
    out = []
    for _ in range(count):
        vec = rng.standard_normal(size) * draw(st.sampled_from(
            [1.0, 1e-8, 1e3]))
        spots = draw(st.lists(st.sampled_from(edges) | st.integers(
            0, size - 1), max_size=8))
        for spot in spots:
            vec[spot] = draw(st.sampled_from(SPECIALS))
        out.append(vec)
    return out


def _textbook_adam(params, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        params = params - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, m, v


def _textbook_sgd(params, grads, lr, momentum):
    velocity = np.zeros_like(params)
    for g in grads:
        velocity = momentum * velocity + g
        params = params - lr * velocity
    return params, velocity


class TestBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SIZES).flatmap(
        lambda size: vectors(size, 4)), st.sampled_from([1e-3, 0.05]))
    def test_adam(self, vecs, lr):
        params, grads = vecs[0], vecs[1:]
        opt = Adam(lr=lr)
        got = params.copy()
        for g in grads:
            assert opt.step(got, g) is got
        want, m, v = _textbook_adam(params, grads, lr)
        assert _bits(got) == _bits(want)
        assert (_bits(opt._m), _bits(opt._v)) == (_bits(m), _bits(v))

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SIZES).flatmap(lambda size: vectors(size, 4)),
           st.sampled_from([0.0, 0.9]))
    def test_sgd(self, vecs, momentum):
        params, grads = vecs[0], vecs[1:]
        opt = SGD(lr=0.05, momentum=momentum)
        got = params.copy()
        for g in grads:
            assert opt.step(got, g) is got
        want, velocity = _textbook_sgd(params, grads, 0.05, momentum)
        assert _bits(got) == _bits(want)
        assert _bits(opt._velocity) == _bits(velocity)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SIZES).flatmap(lambda size: vectors(size, 6)),
           st.lists(st.sampled_from([0.0, 1.0, 37.5, 1e-3]), min_size=1,
                    max_size=2))
    def test_penalty(self, vecs, lams):
        params, grad = vecs[0], vecs[1]
        terms = [(DiagGaussian(mean, np.abs(prec)), lam) for mean, prec, lam
                 in zip(vecs[2::2], vecs[3::2], lams)]
        want = grad.copy()
        for anchor, lam in terms:
            want = want + lam * (anchor.precision * (params - anchor.mean))
        got = penalized_grad(params, grad, terms)
        assert got is grad
        assert _bits(got) == _bits(want)

    def test_penalty_adds_into_the_given_vector(self):
        rng = np.random.default_rng(3)
        params, mean, prec, total = rng.standard_normal((4, BLOCK + 3))
        anchor = DiagGaussian(mean, np.abs(prec))
        want = total + quadratic_penalty(params, anchor, 2.5)[1]
        value, out = quadratic_penalty(params, anchor, 2.5, add_to=total)
        assert value is None and out is total
        assert _bits(total) == _bits(want)
        with pytest.raises(ShapeError, match="add_to"):
            quadratic_penalty(params, anchor, 2.5, add_to=total[:-1])

    @pytest.mark.parametrize("make", [lambda: Adam(lr=0.01),
                                      lambda: SGD(lr=0.1, momentum=0.9)])
    def test_nan_in_the_last_block_writes_nothing(self, make):
        size = 3 * BLOCK + 7
        rng = np.random.default_rng(5)
        opt = make()
        params = rng.standard_normal(size)
        opt.step(params, rng.standard_normal(size))
        state = {name: _bits(value) if isinstance(value, np.ndarray)
                 else value for name, value in vars(opt).items()}
        before = _bits(params)
        grad = rng.standard_normal(size)
        grad[-1] = np.nan
        with pytest.raises(NumericError):
            opt.step(params, grad)
        assert _bits(params) == before
        assert state == {name: _bits(value) if isinstance(value, np.ndarray)
                         else value for name, value in vars(opt).items()}


def _peak_bytes(fn, *args) -> int:
    """The most memory `fn(*args)` held at once, as tracemalloc (which
    numpy reports its buffers to) saw it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStepMemory:
    def test_adam_step_allocates_less_than_one_vector(self):
        rng = np.random.default_rng(0)
        params, grad = (rng.standard_normal(WIDE_P) for _ in range(2))
        opt = Adam(lr=1e-3)
        opt.step(params, grad)  # the first step makes the moments
        # not even a whole-vector mask of bools
        assert _peak_bytes(opt.step, params, grad) < params.nbytes // 8

    def test_penalized_grad_allocates_only_scratch(self):
        rng = np.random.default_rng(1)
        params, grad, m1, p1, m2, p2 = (rng.standard_normal(WIDE_P)
                                        for _ in range(6))
        terms = [(DiagGaussian(m1, np.abs(p1)), 100.0),
                 (DiagGaussian(m2, np.abs(p2)), 10.0)]
        peak = _peak_bytes(penalized_grad, params, grad, terms)
        # the sum goes into `grad`: less than two blocks of scratch
        assert peak < 2 * 8 * BLOCK

    def test_afec_task_copies_no_parameter_vector(self, monkeypatch):
        # P >= 2^16, so the walk trains one row at a time; at task 2 it
        # has the old and the expanded anchor as penalty terms.
        tasks = make_angular_sequence(2, 4, 0, samples_per_class=10,
                                      input_dim=256)
        seen = []

        def train(walk, group, _fn=continual._Walk.train):
            if group[0].t == 0:
                return _fn(walk, group)
            tracemalloc.start()
            try:
                return _fn(walk, group)
            finally:
                seen.append((group, tracemalloc.get_traced_memory()[1]))
                tracemalloc.stop()
        monkeypatch.setattr(continual._Walk, "train", train)
        run_sequence(SequenceConfig(method="afec", lam=1.0, lam_e=1.0,
                                    epochs=1, batch_size=8,
                                    arch={"hidden": [256],
                                          "activation": "relu"}), tasks)
        [([node], peak)] = seen
        assert node.net.param_count >= 2 ** 16 and len(node.terms) == 2
        vector = 8 * node.net.param_count
        # the trained row, Adam's two moments and the gradient row, and
        # the optimizer's and the penalty's blocks of scratch; a copy of
        # the penalized gradient or of the trained parameters is a fifth
        # vector
        assert peak < 4 * vector + 4 * 8 * BLOCK


class TestZeroStateMemory:
    """A fresh state's seven vectors are one zero vector of stride 0, and
    its digest makes no copy of it."""

    P = 66_306  # Network.create(256, [256], "relu", {"out": 2})

    def test_zero_state_holds_no_vector(self):
        RegState.zeros(self.P)
        tracemalloc.start()
        try:
            state = RegState.zeros(self.P)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert state.importance.shape == (self.P,)
        assert held < 1024  # a real zero vector held 8 * P = 530 KB

    def test_zero_state_construction_makes_no_mask(self):
        # DiagGaussian checks the precision through each block's min and
        # max: the state's objects and one reduction's iterator take
        # about 2 KB. A mask of the whole vector peaked at 67.9 KB, and
        # one block's mask is BLOCK bytes, 16 KB.
        RegState.zeros(self.P)
        assert _peak_bytes(RegState.zeros, self.P) < 4096

    def test_digest_copies_no_vector(self, monkeypatch):
        net = Network.create(256, [256], "relu", {"out": 2}, seed=0)
        assert net.param_count == self.P
        state = RegState.zeros(self.P)
        # at 4096 elements, one block of the parameters' text peaks near
        # 0.55 MB whatever P is; at 512, the digest peaks near 75 KB
        monkeypatch.setattr(continual, "_ENCODE_BLOCK", 512)
        continual._state_digest(net, state)
        peak = _peak_bytes(continual._state_digest, net, state)
        # a whole-vector copy of the zero vector is 8 * P
        assert peak < 8 * self.P // 4


class TestBackwardMemory:
    """The backward pass holds no pre-activations and runs the per-sample
    pass in place. With a pre-activation cache and out-of-place powers,
    the per-sample pass held 8.4 [n, 64] arrays above its result and the
    stacked pass 7.6 [S, n, 64] arrays above its gradient."""

    @pytest.mark.parametrize("power", [1, 2])
    def test_per_sample_pass_holds_four_activations(self, power):
        net = Network.create(16, [64, 64], "relu", {"out": 2}, seed=0)
        rng = np.random.default_rng(0)
        batch = Batch(rng.standard_normal((800, 16)),
                      rng.standard_normal((800, 2)), "out")
        net.per_sample_grad_moment(batch, lambda out: 2.0 * out, power)
        peak = _peak_bytes(net.per_sample_grad_moment, batch,
                           lambda out: 2.0 * out, power)
        # the result and four [n, 64] arrays
        assert peak <= 8 * net.param_count + 4 * 8 * batch.n * 64

    def test_stacked_loss_and_grad_holds_four_activations(self):
        stacked, _ = Network.stack([
            Network.create(16, [64, 64], "relu", {"out": 2}, seed=s)
            for s in range(5)])
        rng = np.random.default_rng(1)
        batch = Batch(rng.standard_normal((64, 16)),
                      rng.standard_normal((64, 2)), "out")
        stacked.loss_and_grad(batch, "mse")
        peak = _peak_bytes(stacked.loss_and_grad, batch, "mse")
        # the [S, P] gradient and four [S, n, 64] arrays
        assert peak <= stacked.params.nbytes + 4 * 8 * 5 * batch.n * 64
