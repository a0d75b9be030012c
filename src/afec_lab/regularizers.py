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

from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import Batch, Network, make_optimizer
from .posterior import DiagGaussian, snapshot_anchor

_EXPAND_INIT_KEY = 810001
_EXPAND_SHUFFLE_KEY = 810002

EXPANSION_INITS = ("copy_main", "fresh_random")

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
        z = lambda: np.zeros(param_count)
        return cls(anchor=DiagGaussian(z(), z()), importance=z(),
                   path_accum=z(), prev_params=z(), fisher_ema=z(),
                   score_accum=z(), task_count=0)

    def copy(self) -> "RegState":
        """A copy that shares the vectors. Every update rebinds a field to a
        new vector and none writes into one, so neither state sees the
        other's later updates."""
        return replace(self)

    def to_doc(self) -> dict:
        """The state's JSON layout with each vector still an array. The
        state file, the run digest and to_json all derive from it."""
        return _field_dict(self)

    def to_json(self) -> dict:
        return _tolists(self.to_doc())

    @classmethod
    def from_json(cls, obj: dict) -> "RegState":
        parse = {"anchor": DiagGaussian.from_json, "task_count": int}
        return cls(**{f.name: parse.get(f.name, np.asarray)(obj[f.name])
                      for f in fields(cls)})


def _field_dict(obj) -> dict:
    """A dataclass's fields by name, nested dataclasses as dicts; unlike
    dataclasses.asdict, no value is copied."""
    doc = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        doc[f.name] = _field_dict(value) if is_dataclass(value) else value
    return doc


def _tolists(doc: dict) -> dict:
    return {key: _tolists(value) if isinstance(value, dict)
            else value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in doc.items()}


def quadratic_penalty(params: np.ndarray, anchor: DiagGaussian, lam: float):
    """(lam/2) * sum_i w_i (theta_i - anchor_i)^2 and its gradient; anchor
    precision plays the role of the per-parameter weight."""
    if lam < 0:
        raise ConfigError("lambda must be >= 0")
    if params.shape != anchor.mean.shape:
        raise ShapeError("params and anchor length mismatch")
    diff = params - anchor.mean
    weighted = anchor.precision * diff
    value = 0.5 * lam * float(diff @ weighted)
    return value, lam * weighted


def epoch_batches(task, batch_size: int, key):
    """Seeded shuffle of the training split, yielded in minibatches. The
    task checked its training arrays when it was built."""
    order = np.random.default_rng(key).permutation(task.n_train)
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        yield Batch.of_checked(task.inputs_train[idx], task.targets_train[idx],
                               task.head)


def train_expanded(net: Network, task, opt_spec: dict, *, epochs: int,
                   init: str = "copy_main", batch_size: int, loss_kind: str,
                   seed: int, task_index: int = 0) -> DiagGaussian:
    """Synaptic expansion: train a temporary network (a copy of `net`, or
    freshly initialized) on the task loss alone and return its anchor
    (parameter snapshot + Fisher). The main network is never touched and
    the temporary one is discarded by the caller."""
    if init not in EXPANSION_INITS:
        raise ConfigError(f"unknown expansion_init {init!r}")
    if task.n_train == 0:
        raise ShapeError("expansion needs a non-empty task")
    tmp = net.clone()
    if init == "fresh_random":
        fresh_seed = (_EXPAND_INIT_KEY + 1000003 * seed + 997 * task_index) % (2 ** 31)
        fresh = Network.create(*net.arch(), seed=fresh_seed)
        tmp.set_params(fresh.get_params())
    opt = make_optimizer(opt_spec)
    for epoch in range(epochs):
        for batch in epoch_batches(task, batch_size,
                                   [_EXPAND_SHUFFLE_KEY, seed, task_index, epoch]):
            _, grad = tmp.loss_and_grad(batch, loss_kind)
            tmp.set_params(opt.step(tmp.get_params(), grad))
    return snapshot_anchor(tmp, task, loss_kind)


# -- baseline importance estimators ------------------------------------------

@dataclass
class StepInfo:
    """Event payload for importance_update.

    event "task_start": marks the pre-task parameters.
    event "step": one optimizer step; carries the unpenalized loss gradient
    and the resulting parameter change.
    event "task_end": consolidates per-task accumulators into the importance;
    MAS additionally needs the trained network and the task data.
    """

    event: str
    grad: np.ndarray | None = None
    delta: np.ndarray | None = None
    net: Network | None = None
    task: object = None


def importance_update(method: str, state: RegState, info: StepInfo) -> RegState:
    """Advance the method-specific importance. Mutates and returns `state`."""
    if method not in ("mas", "si", "rwalk"):
        raise ConfigError(f"unknown importance method {method!r}")
    if info.event == "task_start":
        state.prev_params = info.net.get_params()
        state.path_accum = np.zeros_like(state.path_accum)
        return state
    if info.event == "step":
        if method in ("si", "rwalk"):
            state.path_accum = state.path_accum - info.grad * info.delta
        if method == "rwalk":
            state.fisher_ema = (RWALK_EMA_DECAY * state.fisher_ema
                                + (1.0 - RWALK_EMA_DECAY) * info.grad ** 2)
        return state
    if info.event == "task_end":
        params = info.net.get_params()
        if method == "mas":
            state.importance = state.importance + _mas_increment(info.net, info.task)
        else:
            task_delta = params - state.prev_params
            score = np.maximum(state.path_accum, 0.0) / (task_delta ** 2 + SI_DAMP)
            if method == "si":
                state.importance = state.importance + score
            else:  # rwalk
                state.score_accum = state.score_accum + score
                state.importance = state.fisher_ema + state.score_accum
            state.path_accum = np.zeros_like(state.path_accum)
        state.prev_params = params
        return state
    raise ConfigError(f"unknown importance event {info.event!r}")


def _mas_increment(net: Network, task) -> np.ndarray:
    """Mean absolute per-sample gradient of the squared output norm."""
    batch = Batch(task.inputs_train, task.targets_train, task.head)
    outputs = net.forward(batch)
    return net.per_sample_grad_moment(batch, 2.0 * outputs, power=1)
