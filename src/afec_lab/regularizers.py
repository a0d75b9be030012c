"""Quadratic anchor penalties and the expansion-convergence procedure.

Implements the EWC-style Fisher-weighted penalty, its generic
importance-weighted variants (MAS, SI, RWALK), and the active-forgetting
extension: a temporary network is trained penalty-free on the new task
(expansion), snapshotted as a second anchor, and a second quadratic penalty
pulls the main parameters toward it (convergence). The expanded anchor is
discarded after the task, so persisted state stays constant-size in the
number of tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import BLOCK, Network, blocks, make_optimizer
from .posterior import DiagGaussian, snapshot_anchor

_EXPAND_INIT_KEY = 810001
_EXPAND_SHUFFLE_KEY = 810002

EXPANSION_INITS = ("copy_main", "fresh_random")

# RegState's vectors besides the anchor's mean and precision.
STATE_VECTORS = ("importance", "path_accum", "prev_params", "fisher_ema",
                 "score_accum")

SI_DAMP = 0.1
RWALK_EMA_DECAY = 0.9


@dataclass
class RegState:
    """Persisted continual-learning state; size is constant in the number of
    tasks learned."""

    anchor: DiagGaussian
    importance: np.ndarray
    path_accum: np.ndarray
    prev_params: np.ndarray
    fisher_ema: np.ndarray
    score_accum: np.ndarray
    task_count: int = 0

    @classmethod
    def zeros(cls, param_count: int) -> "RegState":
        """A state whose seven vectors are one read-only zero vector of
        stride 0, 8 bytes at any size: no field is written into (see copy)."""
        z = np.broadcast_to(0.0, (param_count,))
        return cls(anchor=DiagGaussian(z, z), importance=z, path_accum=z,
                   prev_params=z, fisher_ema=z, score_accum=z, task_count=0)

    def copy(self) -> "RegState":
        """A copy that shares the vectors. Every update rebinds a field to a
        new vector and none writes into one, so neither state sees the
        other's later updates."""
        return replace(self)

    def to_doc(self, vector=lambda vec: vec) -> dict:
        """The state's JSON layout with `vector(vec)` in each vector's
        place, in this order (by default, the vector itself). The run
        digest and the state file's header derive from it."""
        return {"anchor": {"mean": vector(self.anchor.mean),
                           "precision": vector(self.anchor.precision)},
                **{name: vector(getattr(self, name)) for name in STATE_VECTORS},
                "task_count": self.task_count}


def quadratic_penalty(params: np.ndarray, anchor: DiagGaussian, lam: float,
                      *, add_to: np.ndarray | None = None):
    """(lam/2) * sum_i w_i (theta_i - anchor_i)^2 and its gradient
    lam * (w * (theta - anchor)); anchor precision plays the role of the
    per-parameter weight.

    With `add_to`, the gradient is added into that vector instead, block by
    block (see nn.BLOCK) with the same bits as `add_to + gradient`, and
    (None, add_to) is returned: no value and no whole-vector temporary is
    computed."""
    if lam < 0:
        raise ConfigError("lambda must be >= 0")
    if params.shape != anchor.mean.shape:
        raise ShapeError("params and anchor length mismatch")
    if add_to is None:
        diff = params - anchor.mean
        weighted = anchor.precision * diff
        value = 0.5 * lam * float(diff @ weighted)
        return value, lam * weighted
    if add_to.shape != params.shape:
        raise ShapeError("params and add_to length mismatch")
    scratch = np.empty(min(params.size, BLOCK))
    for block in blocks(params.size):
        total = add_to[block]
        term = np.subtract(params[block], anchor.mean[block],
                           out=scratch[:total.size])
        term *= anchor.precision[block]
        term *= lam
        total += term
    return None, add_to


def epoch_batches(task, batch_size: int, key):
    """Seeded shuffle of the training split, yielded in minibatches."""
    order = np.random.default_rng(key).permutation(task.n_train)
    for start in range(0, len(order), batch_size):
        yield task.batch("train", order[start:start + batch_size])


def train_lockstep(nets: list[Network], task, *, epochs: int, batch_size: int,
                   key: list, loss_kind: str, step) -> list:
    """Train networks of one architecture in lock-step on the same
    minibatches, shuffled by `key` + [epoch]: per batch, one stacked
    loss_and_grad, then `step(i, net, grad)` for each network i still
    training, with the network that now holds its parameters and its own
    gradient row. A network whose forward pass or step raises stops there,
    as it would alone; the others go on. Returns, per network, the trained
    network or the exception that stopped it. A trained network is a
    read-only view of a stacked buffer, so it can serve as an anchor that
    never moves; the given networks are not touched."""
    outcomes: list = [None] * len(nets)
    live = [*range(len(nets))]
    stacked, rows = Network.stack(nets)
    for epoch in range(epochs):
        for batch in epoch_batches(task, batch_size, [*key, epoch]):
            stepped = False
            while live and not stepped:
                failed: dict[int, Exception] = {}
                try:
                    _, grads = stacked.loss_and_grad(batch, loss_kind)
                except Exception as exc:  # `rows` names the failed networks
                    mask = getattr(exc, "rows", np.ones(len(live), bool))
                    failed = {i: exc for i, bad in zip(live, mask) if bad}
                else:
                    stepped = True
                    for i, net, grad in zip(live, rows, grads):
                        try:
                            step(i, net, grad)
                        except Exception as exc:
                            failed[i] = exc
                    # so the next batch's gradients are not made while
                    # these are still held
                    del grads, grad
                if failed:  # the others go on in a stack of their own
                    outcomes = [failed.get(i, o) for i, o in
                                enumerate(outcomes)]
                    rows = [net for i, net in zip(live, rows)
                            if i not in failed]
                    live = [i for i in live if i not in failed]
                    if live:
                        stacked, rows = Network.stack(rows)
    for i, net in zip(live, rows):
        net.params.flags.writeable = False
        outcomes[i] = net
    return outcomes


def train_expanded(nets: list[Network], task, opt_spec: dict, *,
                   epochs: int, init: str = "copy_main", batch_size: int,
                   loss_kind: str, seed: int, task_index: int = 0) -> list:
    """Synaptic expansion: train a temporary network on the task loss
    alone, in lock-step (a copy of each given network, or one fresh network
    for them all), and snapshot its anchor (parameters + Fisher). Returns,
    per given network, its anchor, which rows may share, or the exception
    that failed it. The given networks are never touched."""
    try:
        if init not in EXPANSION_INITS:
            raise ConfigError(f"unknown expansion_init {init!r}")
        if task.n_train == 0:
            raise ShapeError("expansion needs a non-empty task")
        starts = nets
        if init == "fresh_random":
            fresh_seed = (_EXPAND_INIT_KEY + 1000003 * seed
                          + 997 * task_index) % (2 ** 31)
            starts = [Network.create(*nets[0].arch(), seed=fresh_seed)]
        opts = [make_optimizer(opt_spec) for _ in starts]
    except Exception as exc:
        return [exc] * len(nets)
    outcomes = train_lockstep(
        starts, task, epochs=epochs, batch_size=batch_size,
        key=[_EXPAND_SHUFFLE_KEY, seed, task_index], loss_kind=loss_kind,
        step=lambda i, tmp, grad: opts[i].step(tmp.params, grad))
    opts.clear()  # the moments are not needed for the Fisher
    for i, tmp in enumerate(outcomes):
        if not isinstance(tmp, Exception):
            try:
                outcomes[i] = snapshot_anchor(tmp, task, loss_kind)
            except Exception as exc:
                outcomes[i] = exc
    return outcomes * len(nets) if init == "fresh_random" else outcomes


# -- baseline importance estimators ------------------------------------------

def importance_update(method: str, state: RegState, event: str, *,
                      net: Network | None = None, task=None,
                      start: np.ndarray | None = None,
                      grad: np.ndarray | None = None,
                      delta: np.ndarray | None = None) -> RegState:
    """Advance the method-specific importance. Mutates and returns `state`.

    event "step" (`grad`, `delta`): one optimizer step, with the unpenalized
    loss gradient and the parameter change it made.
    event "task_end" (`net`, for SI/RWalk `start`, the parameters the task
    started from, and for MAS `task`): consolidates the task's path into
    the importance and zeroes it; `prev_params` becomes `net.params`, the
    trained parameters, which must be read-only (see train_lockstep).
    """
    if method not in ("mas", "si", "rwalk"):
        raise ConfigError(f"unknown importance method {method!r}")
    if event == "step":
        if method in ("si", "rwalk"):
            state.path_accum = state.path_accum - grad * delta
        if method == "rwalk":
            state.fisher_ema = (RWALK_EMA_DECAY * state.fisher_ema
                                + (1.0 - RWALK_EMA_DECAY) * grad ** 2)
        return state
    if event == "task_end":
        params = net.params
        if method == "mas":
            state.importance = state.importance + _mas_increment(net, task)
        else:
            task_delta = params - start
            score = np.maximum(state.path_accum, 0.0) / (task_delta ** 2 + SI_DAMP)
            if method == "si":
                state.importance = state.importance + score
            else:  # rwalk
                state.score_accum = state.score_accum + score
                state.importance = state.fisher_ema + state.score_accum
            state.path_accum = np.broadcast_to(0.0, params.shape)
        state.prev_params = params
        return state
    raise ConfigError(f"unknown importance event {event!r}")


def _mas_increment(net: Network, task) -> np.ndarray:
    """Mean absolute per-sample gradient of the squared output norm."""
    batch = task.batch("train")
    return net.per_sample_grad_moment(batch, lambda out: 2.0 * out, power=1)
