"""End-to-end continual-learning driver.

Runs a method over a task sequence: optional synaptic expansion, penalized
training of the main network, anchor/importance updates, and evaluation of
every task seen so far through its own head. Also hosts the linear transfer
probe, the random-init baseline, and run-state persistence.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .metrics import AccMatrix
from .nn import (ACTIVATIONS, Batch, Network, SGD, _is_finite_number,
                 make_optimizer)
from .posterior import DiagGaussian, estimate_diag_fisher, fisher_running_average
from .regularizers import (EXPANSION_INITS, RegState, epoch_batches,
                           importance_update, quadratic_penalty, train_expanded)

log = logging.getLogger("afec_lab")

METHODS = ("finetune", "ewc", "afec", "mas", "si", "rwalk",
           "mas_afec", "si_afec", "rwalk_afec")

_MAIN_SHUFFLE_KEY = 910001
_PROBE_HEAD_KEY = 910002
_PROBE_SHUFFLE_KEY = 910003

STATE_VERSION = 1

# Base methods anchored by an importance instead of the Fisher.
_IMPORTANCE_METHODS = ("mas", "si", "rwalk")


def _is_count(value, least: int = 1) -> bool:
    # type() rather than isinstance(), which would let bools through
    return type(value) is int and value >= least


def _arch_problem(hidden, activation) -> str | None:
    """What is wrong with an architecture, led by the field's name."""
    if not (isinstance(hidden, (list, tuple)) and all(map(_is_count, hidden))):
        return f"hidden: expected a list of integers >= 1, got {hidden!r}"
    if activation not in ACTIVATIONS:
        return (f"activation: expected one of {', '.join(ACTIVATIONS)}, "
                f"got {activation!r}")
    return None


@dataclass
class ArchSpec:
    hidden: list[int] = field(default_factory=lambda: [64, 64])
    activation: str = "relu"

    def __post_init__(self):
        problem = _arch_problem(self.hidden, self.activation)
        if problem:
            raise ConfigError(f"arch.{problem}")


@dataclass
class SequenceConfig:
    method: str
    lam: float = 0.0
    lam_e: float = 0.0
    epochs: int = 10
    batch_size: int = 32
    optimizer: dict = field(default_factory=lambda: {"kind": "adam", "lr": 0.001})
    seed: int = 0
    arch: ArchSpec = field(default_factory=ArchSpec)
    expansion_epochs: int | None = None  # None: same budget as main training
    expansion_init: str = "copy_main"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        for name, least in (("epochs", 1), ("batch_size", 1), ("seed", 0),
                            ("expansion_epochs", 1)):
            value = getattr(self, name)
            if not (_is_count(value, least)
                    or name == "expansion_epochs" and value is None):
                raise ConfigError(f"{name}: expected an integer >= {least}, "
                                  f"got {value!r}")
        for name, value in (("lambda", self.lam), ("lambda_e", self.lam_e)):
            if not (_is_finite_number(value) and value >= 0):
                raise ConfigError(f"{name}: expected a finite number >= 0, "
                                  f"got {value!r}")
        if self.expansion_init not in EXPANSION_INITS:
            raise ConfigError(f"expansion_init: unknown value "
                              f"{self.expansion_init!r}")
        if not isinstance(self.optimizer, dict):
            raise ConfigError("optimizer: expected an object")
        make_optimizer(self.optimizer)
        if isinstance(self.arch, dict) and set(self.arch) <= {"hidden",
                                                               "activation"}:
            self.arch = ArchSpec(**self.arch)
        if not isinstance(self.arch, ArchSpec):
            raise ConfigError(f"arch: expected an object with the keys hidden "
                              f"and activation, got {self.arch!r}")

    @property
    def base_method(self) -> str:
        """The method without its expansion; finetune is ewc at lambda 0."""
        if self.method in ("finetune", "afec"):
            return "ewc"
        return self.method.removesuffix("_afec")

    @property
    def uses_expansion(self) -> bool:
        return self.method.endswith("afec") and self.lam_e != 0.0

    @property
    def effective_lam(self) -> float:
        return 0.0 if self.method == "finetune" else self.lam

    def _key_doc(self) -> dict:
        doc = asdict(self)
        if not self.uses_expansion:
            doc["method"] = self.base_method
            doc["lam_e"] = 0.0
        doc["lam"] = self.effective_lam
        return doc

    def run_key(self) -> str:
        """The canonical JSON of the config with three fields normalized, so
        that configs with equal keys train the same run bit for bit:
        without expansion a method is its base (finetune and afec are ewc,
        mas_afec is mas), lam is the effective lam, and lam_e counts only
        when there is an expansion. Every other field is kept as it is, so
        a field added later splits runs by default."""
        return _canonical(self._key_doc())

    def family_key(self) -> str:
        """The run key without lam and lam_e. The runs of one family differ
        only in their penalty strengths, so they train the same tasks up to
        the first task whose penalty terms tell them apart, and
        run_sequence trains that common prefix once."""
        doc = self._key_doc()
        del doc["lam"], doc["lam_e"]
        return _canonical(doc)


@dataclass
class RunResult:
    acc_matrix: AccMatrix
    per_task_new_accuracy: list[float]
    config: dict
    state_digest: str
    start_task: int = 0

    @property
    def checksum(self) -> str:
        doc = {"acc": self.acc_matrix.a,
               "pre": _json_floats(self.acc_matrix.pre_train),
               "abar": self.acc_matrix.abar.tolist(),
               "state_digest": self.state_digest}
        return hashlib.sha256(_canonical(doc).encode()).hexdigest()


def _json_floats(vec) -> list:
    if vec is None:
        return []
    return [None if not np.isfinite(v) else float(v) for v in vec]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# Elements per text block of an encoded vector. Blocks bound the encoder's
# transient memory: a 270k-parameter vector encoded whole needs its tolist(),
# its text and the text's bytes at once (about 20 MB), at the end of every
# run, and that transient would set the peak RSS and move it by up to 10 MB
# with the heap's layout.
_ENCODE_BLOCK = 4096


def _encode_array(arr: np.ndarray) -> list[str]:
    """The text of `_canonical(arr.tolist())` as a list of pieces; a vector
    is encoded `_ENCODE_BLOCK` elements at a time."""
    if arr.ndim != 1 or arr.size <= _ENCODE_BLOCK:
        return [_canonical(arr.tolist())]
    pieces = ["["]
    for start in range(0, arr.size, _ENCODE_BLOCK):
        text = _canonical(arr[start:start + _ENCODE_BLOCK].tolist())
        pieces.append(("," if start else "") + text[1:-1])
    pieces.append("]")
    return pieces


def _iter_canonical(obj, memo: dict):
    """Yield the text of `_canonical(obj)` in chunks, where a float64 array
    stands in for its tolist().

    Each distinct array is encoded once per `memo`. Arrays are matched on
    their bytes: == would equate -0.0 with 0.0, which repr differently, and
    never match NaN. The memo is an argument rather than a closure variable
    so that no reference cycle keeps it alive after the caller is done.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64:
            raise TypeError(f"cannot encode a {obj.dtype} array")
        key = (obj.shape, obj.tobytes())
        if key not in memo:
            memo[key] = _encode_array(obj)
        yield from memo[key]
    elif isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("only string keys can be encoded")
        yield "{"
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "") + _canonical(key) + ":"
            yield from _iter_canonical(obj[key], memo)
        yield "}"
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, item in enumerate(obj):
            if i:
                yield ","
            yield from _iter_canonical(item, memo)
        yield "]"
    else:
        yield _canonical(obj)


def write_atomic(path, chunks) -> None:
    """Write the text chunks to `path` through a temporary file in the same
    directory, so `path` holds either its old content or all of the new."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _loss_kind(task) -> str:
    return "angular_mse" if task.kind == "regression_angle" else "cross_entropy"


def _collect_heads(tasks) -> dict[str, int]:
    heads: dict[str, int] = {}
    for task in tasks:
        if task.head in heads:
            if heads[task.head] != task.head_dim:
                raise ConfigError(f"head {task.head!r} declared with two dims")
        else:
            heads[task.head] = task.head_dim
    return heads


def evaluate(net: Network, task) -> float:
    """Test accuracy through the task's own head.

    Classification scores argmax matches; angular regression maps the output
    2-vector to its angle and scores nearest-class-angle matches.
    """
    batch = Batch(task.inputs_test, task.targets_test, task.head)
    out = net.forward(batch)
    if task.kind == "classification":
        return float(np.mean(np.argmax(out, axis=1) == task.labels_test))
    pred_angle = np.arctan2(out[:, 1], out[:, 0])
    diff = pred_angle[:, None] - task.class_angles[None, :]
    dist = np.abs((diff + np.pi) % (2.0 * np.pi) - np.pi)
    pred_class = np.argmin(dist, axis=1)
    return float(np.mean(pred_class == task.labels_test))


def random_init_baseline(tasks, arch: ArchSpec, seeds) -> np.ndarray:
    """Mean accuracy of each task on freshly initialized networks."""
    if len(seeds) < 1:
        raise ConfigError("need at least one seed")
    heads = _collect_heads(tasks)
    input_dim = tasks[0].input_dim
    abar = np.zeros(len(tasks))
    for seed in seeds:
        net = Network.create(input_dim, arch.hidden, arch.activation, heads, seed)
        abar += [evaluate(net, task) for task in tasks]
    return abar / len(seeds)


def _state_digest(net: Network, state: RegState) -> str:
    """sha256 of the canonical JSON of the parameters and the whole
    regularizer state, streamed through the hash chunk by chunk."""
    digest = hashlib.sha256()
    doc = {"params": net.params, "reg_state": state.to_doc()}
    for chunk in _iter_canonical(doc, {}):
        digest.update(chunk.encode())
    return digest.hexdigest()


def penalty_terms(cfg: SequenceConfig, state: RegState,
                  expanded: DiagGaussian | None) -> list[tuple]:
    """The (anchor, strength) penalty terms of one task, old anchor first.

    The old anchor is weighted by the averaged Fisher or, for MAS/SI/RWalk,
    by the importance; it exists from the second task on. Terms of zero
    strength are left out, so AFEC with lam_e = 0 is EWC bit for bit.
    """
    terms = []
    if cfg.effective_lam != 0.0 and state.task_count > 0:
        weights = (state.anchor.precision if cfg.base_method == "ewc"
                   else state.importance)
        terms.append((DiagGaussian(state.anchor.mean, weights),
                      cfg.effective_lam))
    if expanded is not None and cfg.lam_e != 0.0:
        terms.append((expanded, cfg.lam_e))
    return terms


def penalized_grad(params: np.ndarray, grad: np.ndarray,
                   terms: list[tuple]) -> np.ndarray:
    """`grad` plus each term's penalty gradient, added in order without
    modifying `grad`; summing the penalties first would round differently."""
    total = grad
    for anchor, lam in terms:
        total = total + quadratic_penalty(params, anchor, lam)[1]
    return total


# A diverging run overflows before its isfinite checks raise NumericError;
# numpy's own overflow warnings would only repeat that error, outside the
# log format.
@np.errstate(over="ignore", invalid="ignore")
def run_sequence(cfg: SequenceConfig | list[SequenceConfig], tasks, *,
                 resume: tuple | None = None, save_state_to=None):
    """Continually learn the task sequence with the configured method.

    `cfg` is one SequenceConfig, or a list of configs of one family (equal
    `family_key`). A family is walked depth first as a tree of tasks: at
    each task its members share the pre-training evaluation, the expansion
    and the importance task_start event, then split by the penalty terms
    they apply, and each branch trains on its own copy of the network and
    state only where there is more than one branch. Each member's result
    equals that of its own run bit for bit. One config returns its
    RunResult and raises what its run raised; a list returns, per config,
    its RunResult or the exception that failed its branch.

    `resume` is a (net, state, seed) triple from load_state; training then
    continues from state.task_count and the result only contains rows for the
    newly trained tasks. All randomness is keyed by (seed, task, epoch), so a
    resumed run reproduces the uninterrupted one exactly.
    """
    single = isinstance(cfg, SequenceConfig)
    configs = [cfg] if single else list(cfg)
    if not configs or len({c.family_key() for c in configs}) != 1:
        raise ConfigError("run_sequence takes configs that differ only in "
                          "lam and lam_e")
    if save_state_to is not None and len(configs) > 1:
        raise ConfigError("save_state_to takes a single config")
    if not tasks:
        raise ConfigError("need at least one task")
    input_dim = tasks[0].input_dim
    if any(t.input_dim != input_dim for t in tasks):
        raise ConfigError("all tasks must share one input dimension")

    first = configs[0]
    # As Network.arch() reads it back: a linear model has no activation.
    arch = (input_dim, list(first.arch.hidden),
            first.arch.activation if first.arch.hidden else "identity",
            _collect_heads(tasks))
    if resume is not None:
        net, state, seed = resume
        if seed != first.seed:
            raise ConfigError("resume state was written with a different seed")
        if net.arch() != arch:
            raise ConfigError("resume state does not match the configured arch")
    else:
        net = Network.create(*arch, first.seed)
        state = RegState.zeros(net.param_count)

    abar = random_init_baseline(tasks, first.arch, [first.seed])
    start_task = state.task_count
    outcomes: list = [None] * len(configs)

    # Each item: the members that share `net` and `state` at the start of
    # task t, their accuracy rows and pre-training accuracies so far, and a
    # plan: None while the task's shared part is still to run, else the
    # (terms, copy) of one branch.
    stack = [(start_task, list(range(len(configs))), net, state, [],
              np.full(len(tasks), np.nan), None)]
    while stack:
        t, members, net, state, rows, pre_train, plan = stack.pop()
        cfg = configs[members[0]]
        try:
            if t == len(tasks):
                digest = _state_digest(net, state)
                for i in members:
                    outcomes[i] = _run_result(configs[i], rows, abar,
                                              pre_train, digest, start_task)
            elif plan is None:
                task = tasks[t]
                if t > 0:
                    pre_train = pre_train.copy()
                    pre_train[t] = evaluate(net, task)
                expanded = None
                if cfg.uses_expansion:
                    expanded = train_expanded(
                        net, task, cfg.optimizer,
                        epochs=cfg.expansion_epochs or cfg.epochs,
                        init=cfg.expansion_init, batch_size=cfg.batch_size,
                        loss_kind=_loss_kind(task), seed=cfg.seed,
                        task_index=t)
                if cfg.base_method in _IMPORTANCE_METHODS:
                    importance_update(cfg.base_method, state, "task_start",
                                      net=net)
                branches: dict[tuple, tuple] = {}
                for i in members:
                    terms = penalty_terms(configs[i], state, expanded)
                    branches.setdefault(tuple(lam for _, lam in terms),
                                        (terms, []))[1].append(i)
                # Popped in order, so the last branch runs after its
                # siblings have copied the shared net and state, and trains
                # on them in place.
                for k, (terms, branch) in reversed([*enumerate(
                        branches.values())]):
                    stack.append((t, branch, net, state, rows, pre_train,
                                  (terms, k < len(branches) - 1)))
            else:
                terms, copy = plan
                if copy:
                    net, state = net.clone(), state.copy()
                rows = rows + [_learn_task(cfg, net, state, tasks, t, terms)]
                if save_state_to is not None:
                    save_state(save_state_to, net, state, cfg.seed)
                log.info("method=%s seed=%d task=%d new_acc=%.4f "
                         "running_acc=%.4f%s", cfg.method, cfg.seed, t + 1,
                         rows[-1][-1], float(np.mean(rows[-1])),
                         f" runs={len(members)}" if len(members) > 1 else "")
                stack.append((t + 1, members, net, state, rows, pre_train,
                              None))
        except Exception as exc:
            if single:
                raise
            for i in members:
                outcomes[i] = exc
    return outcomes[0] if single else outcomes


def _learn_task(cfg: SequenceConfig, net: Network, state: RegState, tasks,
                t: int, terms: list[tuple]) -> list[float]:
    """Train task t with the penalty `terms` (and SI/RWalk's per-step
    importance) by stepping `net.params` in place, evaluate every task so
    far, then anchor `state` at a copy of the trained network. Returns the
    accuracies."""
    task, loss_kind = tasks[t], _loss_kind(tasks[t])
    opt = make_optimizer(cfg.optimizer)
    tracks_path = cfg.base_method in ("si", "rwalk")
    for epoch in range(cfg.epochs):
        for batch in epoch_batches(task, cfg.batch_size,
                                   [_MAIN_SHUFFLE_KEY, cfg.seed, t, epoch]):
            _, grad = net.loss_and_grad(batch, loss_kind)
            before = net.get_params() if tracks_path else None
            opt.step(net.params, penalized_grad(net.params, grad, terms))
            if tracks_path:
                importance_update(cfg.base_method, state, "step", grad=grad,
                                  delta=net.params - before)

    row = [evaluate(net, tasks[k]) for k in range(t + 1)]
    if cfg.base_method in _IMPORTANCE_METHODS:
        importance_update(cfg.base_method, state, "task_end", net=net,
                          task=task)
        state.anchor = DiagGaussian(net.get_params(), state.anchor.precision)
    else:
        fisher = estimate_diag_fisher(net, task, loss_kind)
        state.anchor = DiagGaussian(
            net.get_params(),
            fisher_running_average(state.anchor.precision, fisher, t + 1))
    state.task_count = t + 1
    return row


def _run_result(cfg: SequenceConfig, rows: list[list[float]], abar, pre_train,
                digest: str, start_task: int) -> RunResult:
    # Resumed runs only report rows for the tasks they actually trained;
    # skipped leading rows are zero-padded to keep the matrix triangular.
    padded = [[0.0] * (j + 1) for j in range(start_task)] + rows
    matrix = AccMatrix(a=[[float(v) for v in row] for row in padded],
                       abar=abar.copy(), pre_train=pre_train.copy())
    per_task_new = [rows[i][start_task + i] for i in range(len(rows))]
    return RunResult(acc_matrix=matrix, per_task_new_accuracy=per_task_new,
                     config=asdict(cfg), state_digest=digest,
                     start_task=start_task)


def transfer_probe(net: Network, probe_task, epochs: int, lr: float) -> float:
    """Freeze the feature extractor, train a fresh linear head on the probe
    task, and return its test accuracy. The given network is not modified."""
    if not net.body:
        raise ConfigError("transfer probe needs a network with a body")
    probe_net = _probe_network(net.body, probe_task)
    before = probe_net.get_params()[probe_net.body_slice()]
    head_slice = probe_net.head_slice(probe_task.head)
    opt = SGD(lr=lr)
    loss_kind = _loss_kind(probe_task)
    for epoch in range(epochs):
        for batch in epoch_batches(probe_task, 32,
                                   [_PROBE_SHUFFLE_KEY, probe_task.seed, epoch]):
            _, grad = probe_net.loss_and_grad(batch, loss_kind)
            masked = np.zeros_like(grad)
            masked[head_slice] = grad[head_slice]
            opt.step(probe_net.params, masked)
    assert np.array_equal(before, probe_net.params[probe_net.body_slice()])
    return evaluate(probe_net, probe_task)


def _probe_network(body, probe_task) -> Network:
    from .nn import _init_layer  # fresh head, keyed by the probe task seed
    feat = body[-1].out_dim
    head = _init_layer(feat, probe_task.head_dim, "identity",
                       [_PROBE_HEAD_KEY, probe_task.seed])
    return Network(body, {probe_task.head: head})


# -- run-state persistence ----------------------------------------------------

def save_state(path, net: Network, state: RegState, seed: int) -> None:
    """Write the full run state as one canonical JSON document."""
    input_dim, hidden, activation, heads = net.arch()
    doc = {
        "version": STATE_VERSION,
        "net": {"input_dim": input_dim, "hidden": hidden,
                "activation": activation, "heads": [*map(list, heads.items())],
                "params": net.get_params()},
        "reg_state": state.to_doc(),
        "rng": {"scheme": "counter", "seed": seed},
        "task_count": state.task_count,
    }
    write_atomic(path, itertools.chain(_iter_canonical(doc, {}), ["\n"]))


def load_state(path):
    """Read a run-state file; returns (net, reg_state, seed). A field that
    is missing or malformed raises a FormatError naming it."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    for key in ("version", "net", "reg_state", "rng", "task_count"):
        if not isinstance(doc, dict) or key not in doc:
            raise FormatError(f"{path}: missing field {key!r}")
    if doc["version"] != STATE_VERSION:
        raise FormatError(f"{path}: unsupported version {doc['version']!r} "
                          f"in field 'version'")
    netdoc, rng = doc["net"], doc["rng"]
    for key in ("input_dim", "hidden", "activation", "heads", "params"):
        if not isinstance(netdoc, dict) or key not in netdoc:
            raise FormatError(f"{path}: missing field 'net.{key}'")
    if not _is_count(netdoc["input_dim"]):
        raise FormatError(f"{path}: field 'net.input_dim' must be an "
                          f"integer >= 1")
    problem = _arch_problem(netdoc["hidden"], netdoc["activation"])
    if problem:
        raise FormatError(f"{path}: field net.{problem}")
    heads = netdoc["heads"]
    if not (isinstance(heads, list) and heads
            and all(isinstance(h, list) and len(h) == 2
                    and isinstance(h[0], str) and _is_count(h[1])
                    for h in heads)
            and len({h[0] for h in heads}) == len(heads)):
        raise FormatError(f"{path}: field 'net.heads' must be a non-empty "
                          f"list of [name, size >= 1] pairs with distinct "
                          f"names")
    if not (isinstance(rng, dict) and rng.get("scheme") == "counter"
            and type(rng.get("seed")) is int):
        raise FormatError(f"{path}: field 'rng' must hold scheme 'counter' "
                          f"and an integer seed")
    if type(doc["task_count"]) is not int or doc["task_count"] < 0:
        raise FormatError(f"{path}: field 'task_count' must be an "
                          f"integer >= 0")
    net = Network.create(netdoc["input_dim"], netdoc["hidden"],
                         netdoc["activation"], dict(heads), seed=rng["seed"])
    template = {"net": {"params": net.get_params()},
                "reg_state": RegState.zeros(net.param_count).to_doc()}
    parsed = _parse_like(path, "", doc, template)
    net.set_params(parsed["net"]["params"])
    try:
        state = RegState.from_json(parsed["reg_state"])
    except ShapeError as exc:  # a negative precision
        raise FormatError(f"{path}: field 'reg_state.anchor': {exc}") from exc
    if state.task_count != doc["task_count"]:
        raise FormatError(f"{path}: field 'task_count' disagrees with reg_state")
    return net, state, rng["seed"]


def _parse_like(path, name: str, value, template):
    """`value` shaped like `template`, its vectors as float64 arrays. Each
    vector must be a list of finite numbers as long as the template's, and
    each other leaf an integer >= 0; the first field that is not raises a
    FormatError naming it."""
    if isinstance(template, dict):
        if not isinstance(value, dict):
            raise FormatError(f"{path}: field {name!r} must be an object")
        parsed = {}
        for key, sub in template.items():
            field_name = f"{name}.{key}" if name else key
            if key not in value:
                raise FormatError(f"{path}: missing field {field_name!r}")
            parsed[key] = _parse_like(path, field_name, value[key], sub)
        return parsed
    if isinstance(template, np.ndarray):
        try:
            vec = np.asarray(value)
        except ValueError:  # ragged nesting
            vec = None
        if (vec is None or vec.dtype.kind not in "iuf"
                or vec.shape != template.shape
                or not np.all(np.isfinite(vec))):
            raise FormatError(f"{path}: field {name!r} must be a list of "
                              f"{template.size} finite numbers")
        return vec.astype(np.float64, copy=False)
    if type(value) is not int or value < 0:
        raise FormatError(f"{path}: field {name!r} must be an integer >= 0")
    return value
