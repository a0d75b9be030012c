"""Dense feed-forward networks with exact reverse-mode gradients.

Networks are small multi-head MLPs stored in float64. All parameters flatten
into a single vector (body layers first, then heads in insertion order), and
every training operation works on that flat view. Heads are plain linear
layers; several tasks may share one head or each own their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

ACTIVATIONS = ("relu", "tanh", "identity")


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "tanh":
        return np.tanh(z)
    if name == "identity":
        return z
    raise ConfigError(f"unknown activation {name!r}")


def _activate_grad(name: str, a: np.ndarray):
    """The derivative from the output `a` alone: relu's a = max(z, 0) is
    > 0 exactly where z is, also at -0.0 and subnormals."""
    if name == "relu":
        return a > 0.0  # multiplying by a bool mask multiplies by 1.0 or 0.0
    if name == "tanh":
        return 1.0 - a * a
    if name == "identity":
        return 1.0
    raise ConfigError(f"unknown activation {name!r}")


# The bound np.allclose(norms, 1.0, atol=1e-9) applies: atol + rtol * |1.0|
# with the default rtol of 1e-5. A NaN or inf norm is outside it.
_UNIT_TOL = 1e-9 + 1e-5


@dataclass
class DenseLayer:
    w: np.ndarray  # [in_dim, out_dim]
    b: np.ndarray  # [out_dim]
    activation: str = "identity"

    @property
    def in_dim(self) -> int:
        return self.w.shape[-2]

    @property
    def out_dim(self) -> int:
        return self.w.shape[-1]


@dataclass
class Batch:
    """One minibatch: inputs [n, d_in], targets (class ids or real vectors), head id."""

    inputs: np.ndarray
    targets: np.ndarray
    head: str

    def __post_init__(self):
        self.inputs, self.targets = batch_arrays(self.inputs, self.targets)

    @classmethod
    def of_checked(cls, inputs: np.ndarray, targets: np.ndarray,
                   head: str) -> "Batch":
        """A batch of float64 arrays that batch_arrays has checked, or of
        non-empty index slices of them, without checking them again:
        TaskDataset.batch draws its batches so."""
        batch = object.__new__(cls)
        batch.inputs, batch.targets, batch.head = inputs, targets, head
        return batch

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def batch_arrays(inputs, targets, least: int = 1, dtype=np.float64):
    """The inputs as a `dtype` [n, d_in] matrix with n >= `least`, and n
    targets: float64 if they are floats, int64 class ids otherwise. These
    are a Batch's checks; TaskDataset runs them once on each split (uint8
    pixels keep their dtype), so the batches it draws need no check of
    their own."""
    inputs = np.asarray(inputs, dtype=dtype)
    if inputs.ndim != 2 or inputs.shape[0] < least:
        raise ShapeError("batch inputs must be a non-empty [n, d_in] matrix")
    if np.asarray(targets).dtype.kind == "f":
        targets = np.asarray(targets, dtype=np.float64)
    else:
        targets = np.asarray(targets, dtype=np.int64)
    if len(targets) != inputs.shape[0]:
        raise ShapeError("batch targets and inputs disagree on sample count")
    return inputs, targets


def _init_layer(in_dim: int, out_dim: int, activation: str, key) -> DenseLayer:
    # Glorot-uniform weights from a counter-based generator keyed per layer;
    # biases start at zero.
    rng = np.random.default_rng(key)
    lim = math.sqrt(6.0 / (in_dim + out_dim))
    w = rng.uniform(-lim, lim, size=(in_dim, out_dim))
    return DenseLayer(w=w, b=np.zeros(out_dim), activation=activation)


class Network:
    """MLP body plus named linear output heads.

    The flat parameter layout is fixed at construction: body layer 0 (w then
    b), body layer 1, ..., then each head in insertion order.

    A stacked network (see `stack`) holds the parameters of S networks of
    one architecture as the rows of an [S, P] buffer; its layer views are
    [S, in, out] and [S, out], and its forward and backward passes run all
    S networks on one [n, d_in] batch at once.
    """

    def __init__(self, body: list[DenseLayer], heads: dict[str, DenseLayer],
                 params: np.ndarray | None = None):
        """The layers' values are copied into a new flat buffer; a given
        float64 `params` of shape [P] or [S, P] is used as the buffer
        instead, and the layers only lend their shapes and activations."""
        if not heads:
            raise ConfigError("network needs at least one head")
        for i in range(1, len(body)):
            if body[i].in_dim != body[i - 1].out_dim:
                raise ShapeError(f"body layers {i - 1} and {i} do not chain")
        feat = body[-1].out_dim if body else None
        for name, h in heads.items():
            if feat is not None and h.in_dim != feat:
                raise ShapeError(f"head {name!r} does not match body output dim")
        # This network's layers are views of one flat buffer, `params`;
        # optimizers step it in place.
        layers = [*body, *heads.values()]
        if params is None:
            params = np.concatenate(
                [np.concatenate([l.w.ravel(), l.b]) for l in layers]
            ).astype(np.float64)
        self.params = params
        self._offsets: dict[object, tuple[slice, slice]] = {}
        lead = params.shape[:-1]  # (S,) when stacked
        views = []
        pos = 0
        for key, layer in zip([*range(len(body)), *heads], layers):
            ws = slice(pos, pos + layer.in_dim * layer.out_dim)
            bs = slice(ws.stop, ws.stop + layer.out_dim)
            pos = bs.stop
            self._offsets[key] = (ws, bs)
            views.append(DenseLayer(
                params[..., ws].reshape(*lead, layer.in_dim, layer.out_dim),
                params[..., bs], layer.activation))
        if params.dtype != np.float64 or params.shape[-1] != pos:
            raise ShapeError(f"expected float64 parameters of length {pos}, "
                             f"got {params.dtype} of shape {params.shape}")
        self.param_count = pos
        self.body = views[:len(body)]
        self.heads = dict(zip(heads, views[len(body):]))
        # Per head: (layer, weight slice, bias slice) from input to output.
        self._chains = {
            name: [(layer, *self._offsets[key]) for key, layer in
                   [*enumerate(self.body), (name, self.heads[name])]]
            for name in self.heads}

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, input_dim: int, hidden: list[int], activation: str,
               heads: dict[str, int], seed: int) -> "Network":
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        body = []
        prev = input_dim
        for i, width in enumerate(hidden):
            body.append(_init_layer(prev, width, activation, [seed, i]))
            prev = width
        head_layers = {}
        for j, (name, dim) in enumerate(heads.items()):
            head_layers[name] = _init_layer(prev, dim, "identity",
                                            [seed, len(hidden) + j])
        return cls(body, head_layers)

    def clone(self) -> "Network":
        return Network(self.body, self.heads)

    @classmethod
    def stack(cls, nets: list["Network"]) -> tuple["Network", list["Network"]]:
        """A stacked network whose [S, P] buffer holds a copy of each
        network's parameters as a row, and one network per row that views
        that row; the given networks are not touched."""
        first = nets[0]
        if any(net.arch() != first.arch() for net in nets):
            raise ShapeError("stacked networks must share one architecture")
        params = np.stack([net.params for net in nets])
        return (cls(first.body, first.heads, params),
                [cls(first.body, first.heads, row) for row in params])

    def arch(self) -> tuple:
        """(input_dim, hidden, activation, heads), as `create` takes them."""
        first = [*self.body, *self.heads.values()][0]
        return (first.in_dim, [l.out_dim for l in self.body],
                self.body[0].activation if self.body else "identity",
                {name: h.out_dim for name, h in self.heads.items()})

    # -- flat parameter view ------------------------------------------------

    def get_params(self) -> np.ndarray:
        """A snapshot of the flat parameter vector; later updates to the
        network do not reach it."""
        return self.params.copy()

    def set_params(self, params: np.ndarray) -> None:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.param_count,):
            raise ShapeError(f"expected {self.param_count} parameters, "
                             f"got shape {params.shape}")
        self.params[...] = params

    def head_slice(self, name: str) -> slice:
        ws, bs = self._offsets[name]
        return slice(ws.start, bs.stop)

    def body_slice(self) -> slice:
        if not self.body:
            return slice(0, 0)
        return slice(0, self._offsets[len(self.body) - 1][1].stop)

    # -- forward / backward -------------------------------------------------

    def _forward_cached(self, inputs: np.ndarray, head: str):
        """(outputs, activations entering each layer) for `_backward`."""
        if head not in self.heads:
            raise ConfigError(f"unknown head {head!r}")
        if inputs.shape[1] != (self.body[0].in_dim if self.body
                               else self.heads[head].in_dim):
            raise ShapeError("input dimension does not match the network")
        # Stacked, every product is [n, d] or [S, n, d] @ [S, d, h]: one
        # gemm per row, as an unstacked network of that row would make.
        acts = [inputs]  # activations entering each layer, head last
        x = inputs
        for i, layer in enumerate(self.body):
            z = x @ layer.w
            z += layer.b[..., None, :]
            x = _activate(layer.activation, z)
            _check_finite(x, f"body layer {i}")
            acts.append(x)
        out = x @ self.heads[head].w
        out += self.heads[head].b[..., None, :]
        _check_finite(out, f"head {head!r}")
        return out, acts

    def forward(self, batch: Batch) -> np.ndarray:
        out, _ = self._forward_cached(batch.inputs, batch.head)
        return out

    def _loss_delta(self, outputs: np.ndarray, batch: Batch, loss_kind: str):
        """Return (loss, dloss/doutputs) for the whole batch."""
        n = batch.n
        if loss_kind in ("mse", "angular_mse"):
            targets = batch.targets
            if targets.ndim != 2 or targets.shape != outputs.shape[-2:]:
                raise ShapeError("regression targets must match output shape")
            if loss_kind == "angular_mse":
                # np.linalg.norm(targets, axis=1), computed the same way.
                norms = np.sqrt(np.add.reduce(targets * targets, axis=1))
                if (targets.shape[1] != 2
                        or not (np.abs(norms - 1.0) <= _UNIT_TOL).all()):
                    raise ShapeError("angular_mse targets must be unit 2-vectors")
            resid = outputs - targets
            loss = (resid * resid).reshape(*outputs.shape[:-2], -1).sum(-1) / n
            return _per_row(loss), 2.0 * resid / n
        if loss_kind == "cross_entropy":
            labels = batch.targets
            if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
                raise ShapeError("cross_entropy targets must be class indices")
            if labels.min() < 0 or labels.max() >= outputs.shape[-1]:
                raise ShapeError("class index out of range for head")
            shifted = outputs - outputs.max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=-1,
                                                        keepdims=True))
            picked = (..., np.arange(n), labels)
            loss = -logp[picked].mean(axis=-1)
            delta = np.exp(logp)
            delta[picked] -= 1.0
            return _per_row(loss), delta / n
        raise ConfigError(f"unknown loss kind {loss_kind!r}")

    def _backward(self, head: str, acts: list, delta: np.ndarray,
                  pw=None) -> np.ndarray:
        """Backprop an output-space gradient into a flat parameter gradient.

        `acts` from `_forward_cached` is consumed, popped as the pass
        descends. An elementwise ufunc `pw` is applied to each layer's
        inputs and output-space gradients before the sum over samples (see
        per_sample_grad_moment), in place except on the batch inputs
        `acts[0]` and on `delta`: neither is ever written.
        """
        chain = self._chains[head]
        grad = np.zeros(self.params.shape)
        d = delta
        for i in range(len(chain) - 1, -1, -1):
            layer, ws, bs = chain[i]
            x, g = acts.pop(), d
            if i > 0:  # x is layer i - 1's output; read it before pw writes
                d = g @ np.swapaxes(layer.w, -1, -2)
                d *= _activate_grad(chain[i - 1][0].activation, x)
            if pw is not None:
                x = pw(x, out=x) if i > 0 else pw(x)
                g = pw(g) if g is delta else pw(g, out=g)
            np.matmul(np.swapaxes(x, -1, -2), g,
                      out=grad[..., ws].reshape(layer.w.shape))
            np.add.reduce(g, axis=-2, out=grad[..., bs])
        return grad

    def loss_and_grad(self, batch: Batch, loss_kind: str):
        """Exact reverse-mode gradient of the batch loss; grad is flat. A
        stacked network returns each row's loss and an [S, P] gradient."""
        out, acts = self._forward_cached(batch.inputs, batch.head)
        loss, delta = self._loss_delta(out, batch, loss_kind)
        return loss, self._backward(batch.head, acts, delta)

    def loss_only(self, batch: Batch, loss_kind: str) -> float:
        out, _ = self._forward_cached(batch.inputs, batch.head)
        loss, _ = self._loss_delta(out, batch, loss_kind)
        return loss

    def per_sample_grad_moment(self, batch: Batch, delta_of,
                               power: int) -> np.ndarray:
        """Mean over samples of |per-sample parameter gradient|**power.

        `delta_of(outputs)` is the per-sample output-space gradient
        [n, d_out] (no batch averaging) at the outputs of this one forward
        pass; that array is not written. For a dense layer the per-sample
        weight gradient is the outer product of its input activation and
        delta, so elementwise powers factorize and the whole moment reduces
        to one matrix product per layer. Used for diagonal Fisher estimates
        (power=2) and gradient-magnitude importances (power=1).
        """
        if power not in (1, 2):
            raise ConfigError("power must be 1 or 2")
        out, acts = self._forward_cached(batch.inputs, batch.head)
        pw = np.square if power == 2 else np.abs
        moment = self._backward(batch.head, acts, delta_of(out), pw)
        moment /= batch.n
        if not np.isfinite(moment).all():
            raise NumericError("non-finite per-sample gradient moment")
        return moment


def _check_finite(x: np.ndarray, where: str) -> None:
    """Raise NumericError if `x` holds a non-finite value; for a stacked
    [S, n, d] `x`, the error's `rows` marks the networks whose rows do."""
    if not np.isfinite(x).all():
        exc = NumericError(f"non-finite activations in {where}")
        exc.rows = ~np.isfinite(x).all(axis=(-2, -1))
        raise exc


def _per_row(loss):
    """A loss per stacked network, or a float for one network."""
    return float(loss) if np.ndim(loss) == 0 else loss


def finite_diff_check(net: Network, batch: Batch, loss_kind: str,
                      eps: float = 1e-5, max_coords: int = 64,
                      seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients
    over a sampled coordinate subset."""
    if eps <= 0:
        raise ConfigError("eps must be positive")
    _, grad = net.loss_and_grad(batch, loss_kind)
    params = net.get_params()
    rng = np.random.default_rng([seed, net.param_count])
    count = min(max_coords, net.param_count)
    coords = rng.choice(net.param_count, size=count, replace=False)
    worst = 0.0
    for i in coords:
        bumped = params.copy()
        bumped[i] = params[i] + eps
        net.set_params(bumped)
        hi = net.loss_only(batch, loss_kind)
        bumped[i] = params[i] - eps
        net.set_params(bumped)
        lo = net.loss_only(batch, loss_kind)
        numeric = (hi - lo) / (2.0 * eps)
        rel = abs(grad[i] - numeric) / max(1e-12, abs(grad[i]) + abs(numeric))
        worst = max(worst, rel)
    net.set_params(params)
    return worst


# Elements per block of an optimizer step or a penalty gradient: 128 KB of
# float64 per vector. A step runs all of its operations over one block
# before the next, so the block's vectors stay in L2 between passes, and
# its scratch is block-sized rather than a whole vector.
BLOCK = 2 ** 14


def blocks(size: int):
    """The slices that cut a vector of `size` elements into BLOCKs."""
    return (slice(start, start + BLOCK) for start in range(0, size, BLOCK))


def _check_finite_grad(grad: np.ndarray) -> None:
    """Raise NumericError if `grad` holds a non-finite value; checked block
    by block, so no whole-vector mask is made."""
    for block in blocks(grad.size):
        if not np.isfinite(grad[block]).all():
            raise NumericError("non-finite gradient in optimizer step")


class SGD:
    """Plain SGD with optional momentum; `step` updates the vector `params`
    in place, block by block (see BLOCK)."""

    def __init__(self, lr: float = 0.01, momentum: float = 0.0):
        self.lr = lr
        self.momentum = momentum
        self._velocity: np.ndarray | None = None
        self._scratch: np.ndarray | None = None  # one block

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if params.shape != grad.shape:
            raise ShapeError("params and grad length mismatch")
        _check_finite_grad(grad)
        if self._velocity is None:
            self._velocity = np.zeros_like(params)
            self._scratch = np.empty(min(params.size, BLOCK))
        for block in blocks(params.size):
            velocity, p = self._velocity[block], params[block]
            velocity *= self.momentum
            velocity += grad[block]
            p -= np.multiply(self.lr, velocity, out=self._scratch[:p.size])
        return params


class Adam:
    """Adam with bias correction. `step` updates the vector `params` in
    place, block by block (see BLOCK), and returns it."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float = 0.001):
        self.lr = lr
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0
        self._scratch: list[np.ndarray] = []  # two blocks

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if params.shape != grad.shape:
            raise ShapeError("params and grad length mismatch")
        _check_finite_grad(grad)
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
            self._scratch = [np.empty(min(params.size, BLOCK))
                             for _ in range(2)]
        self._t += 1
        c1, c2 = 1.0 - self.beta1, 1.0 - self.beta2
        bias1, bias2 = 1.0 - self.beta1 ** self._t, 1.0 - self.beta2 ** self._t
        # The textbook recurrence, written into the moments and then the
        # parameters after the check above, so a failed step writes
        # nothing; every operation keeps its operands and order, so blocking
        # changes no bit.
        for block in blocks(params.size):
            m, v, g, p = (self._m[block], self._v[block], grad[block],
                          params[block])
            update = self._scratch[0][:p.size]
            denom = self._scratch[1][:p.size]
            m *= self.beta1
            m += np.multiply(c1, g, out=update)
            g2 = np.multiply(c2, g, out=update)
            g2 *= g
            v *= self.beta2
            v += g2
            np.divide(m, bias1, out=update)  # m_hat
            update *= self.lr
            np.divide(v, bias2, out=denom)  # v_hat
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            p -= update
        return params


_OPTIMIZER_KEYS = {"sgd": {"kind", "lr", "momentum"}, "adam": {"kind", "lr"}}


def make_optimizer(spec: dict):
    """Build an optimizer from its config object; a key the chosen kind
    would ignore is an error."""
    kind = spec.get("kind", "adam")
    if not isinstance(kind, str) or kind not in _OPTIMIZER_KEYS:
        raise ConfigError(f"unknown optimizer kind {kind!r}")
    extra = set(spec) - _OPTIMIZER_KEYS[kind]
    if extra:
        raise ConfigError(f"optimizer: key(s) {sorted(extra)} do not apply "
                          f"to kind {kind!r}")
    lr = spec.get("lr", 0.01 if kind == "sgd" else 0.001)
    if not (_is_finite_number(lr) and lr > 0):
        raise ConfigError(f"optimizer.lr: expected a finite number > 0, "
                          f"got {lr!r}")
    if kind == "sgd":
        momentum = spec.get("momentum", 0.0)
        if not (_is_finite_number(momentum) and 0 <= momentum < 1):
            raise ConfigError(f"optimizer.momentum: expected a finite number "
                              f"in [0, 1), got {momentum!r}")
        return SGD(lr=lr, momentum=momentum)
    return Adam(lr=lr)


def _is_finite_number(value) -> bool:
    """An int or float that is finite; bools are rejected."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))
