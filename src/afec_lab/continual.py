"""End-to-end continual-learning driver.

Runs a method over a task sequence: optional synaptic expansion, penalized
training of the main network, anchor/importance updates, and evaluation of
every task seen so far through its own head. Also hosts the linear transfer
probe, the random-init baseline, and run-state persistence.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .metrics import AccMatrix, _is_accuracy, write_atomic
from .nn import (ACTIVATIONS, Network, SGD, _all_finite, _is_finite_number,
                 make_optimizer)
from .posterior import DiagGaussian, estimate_diag_fisher, fisher_running_average
from .regularizers import (EXPANSION_INITS, STATE_VECTORS, RegState,
                           epoch_batches, importance_update, quadratic_penalty,
                           train_expanded, train_lockstep)

log = logging.getLogger("afec_lab")

METHODS = ("finetune", "ewc", "afec", "mas", "si", "rwalk",
           "mas_afec", "si_afec", "rwalk_afec")

_MAIN_SHUFFLE_KEY = 910001
_PROBE_HEAD_KEY = 910002
_PROBE_SHUFFLE_KEY = 910003

STATE_VERSION = 3


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

    @property
    def run_method(self) -> str:
        """The method whose run this config trains: without an expansion,
        its base method (finetune and afec are ewc, mas_afec is mas)."""
        return self.method if self.uses_expansion else self.base_method

    @property
    def strengths(self) -> tuple[float, float]:
        """The penalty strengths the run applies: the effective lam, and
        lam_e only when there is an expansion. Configs of one family with
        equal strengths train the same run bit for bit."""
        return self.effective_lam, self.lam_e if self.uses_expansion else 0.0

    @property
    def family(self) -> tuple[int, str]:
        """The seed and run method. Configs of one family that agree in every
        other field, as run_sequence's do, share each task until their
        penalty terms tell them apart; run_sequence trains it once."""
        return self.seed, self.run_method


@dataclass
class RunResult:
    acc_matrix: AccMatrix
    config: dict
    state_digest: str

    @property
    def per_task_new_accuracy(self) -> list[float]:
        """The accuracy of each task just after training it."""
        return [row[t] for t, row in enumerate(self.acc_matrix.a)]

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


# Elements per text block of an encoded vector. Blocks bound the digest's
# transient memory: a 270k-parameter vector encoded whole needs its tolist(),
# its text and the text's bytes at once (about 20 MB), at the end of every
# run, and that transient would set the peak RSS and move it by up to 10 MB
# with the heap's layout. An all-zero block's text is made once per size:
_ENCODE_BLOCK = 4096
_zero_text = functools.cache(lambda size: ",".join(["0.0"] * size))


def _encode_array(vec: np.ndarray):
    """Yield the text of `_canonical(vec.tolist())` for a 1-D float64
    vector in pieces, `_ENCODE_BLOCK` elements at a time. A block whose
    bits are all zero (-0.0 has one set) is written without formatting."""
    yield "["
    for start in range(0, vec.size, _ENCODE_BLOCK):
        block = vec[start:start + _ENCODE_BLOCK]
        if start:
            yield ","
        yield (_canonical(block.tolist())[1:-1] if block.view(np.uint64).any()
               else _zero_text(block.size))
    yield "]"


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
    batch = task.batch("test")
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
    regularizer state, `_canonical` of their tolist()s.

    json lays the document out with a "" in each vector's place, and each
    vector's text is streamed into the hash block by block. A vector whose
    bytes occur again is encoded once and its text kept. Vectors are
    matched on a sha256 of their buffers, fed block by block once per
    object, so RegState.zeros' vector is never copied whole: == would
    equate -0.0 with 0.0, which repr differently, and never match NaN.
    """
    vectors = []
    skeleton = json.dumps({"params": net.params, "reg_state": state.to_doc()},
                          sort_keys=True, separators=(",", ":"),
                          default=lambda vec: vectors.append(vec) or "")
    pieces = skeleton.split('""')
    assert len(pieces) == len(vectors) + 1  # the document holds no string
    by_id = {id(vec): vec for vec in vectors}
    keyed = {i: _buffer_key(vec) for i, vec in by_id.items()}
    keys = [keyed[id(vec)] for vec in vectors]
    texts = {key: None for key, count in collections.Counter(keys).items()
             if count > 1}  # the text of each repeated vector, once encoded
    digest = hashlib.sha256(pieces[0].encode())
    for vec, key, piece in zip(vectors, keys, pieces[1:]):
        if key in texts and texts[key] is None:
            texts[key] = [*_encode_array(vec)]
        for chunk in texts[key] if key in texts else _encode_array(vec):
            digest.update(chunk.encode())
        digest.update(piece.encode())
    return digest.hexdigest()


def _buffer_key(vec: np.ndarray) -> tuple:
    key = hashlib.sha256()
    for start in range(0, vec.size, _ENCODE_BLOCK):
        key.update(np.ascontiguousarray(vec[start:start + _ENCODE_BLOCK]))
    return vec.shape, key.digest()


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
    """Add each term's penalty gradient into `grad`, in order, and return
    it: `grad` is overwritten. Summing the penalties first would round
    differently."""
    for anchor, lam in terms:
        quadratic_penalty(params, anchor, lam, add_to=grad)
    return grad


# A lock-step group's [S, P] buffer holds at most this many parameters, or
# one network's: the walk trains S = max(1, _LOCKSTEP_BUDGET // P) rows at
# once. Beyond it, more rows would add live memory (their networks, states
# and optimizer moments) faster than they save per-step dispatch.
_LOCKSTEP_BUDGET = 2 ** 16


def _param_count(input_dim, hidden, activation, heads) -> int:
    """The parameter count of Network.create(input_dim, hidden, ...)."""
    dims = [input_dim, *hidden]
    return (sum((a + 1) * b for a, b in zip(dims, dims[1:]))
            + sum((dims[-1] + 1) * d for d in heads.values()))


def _shared_settings(cfg: SequenceConfig) -> str:
    """The config without the fields the configs of one walk may differ in."""
    doc = asdict(cfg)
    for name in ("method", "lam", "lam_e", "seed"):
        del doc[name]
    return _canonical(doc)


@dataclass
class _Node:
    """The configs (`members`, indices) that share one run at the start of
    task t: its `net`, `state`, accuracy `rows` so far and pre-training
    accuracies (NaN first; to task t once opened). `terms` is None while
    the task's shared part is still to run, else the branch's penalty
    terms. A fresh root's `net` and `state` are None until it is opened."""
    t: int
    members: list[int]
    net: Network | None
    state: RegState | None
    rows: list[list[float]]
    pre_train: np.ndarray | list
    terms: list | None = None


# A diverging run overflows before its isfinite checks raise NumericError;
# numpy's own overflow warnings would only repeat that error, outside the
# log format.
@np.errstate(over="ignore", invalid="ignore")
def run_sequence(cfg: SequenceConfig | list[SequenceConfig], tasks, *,
                 resume: tuple | None = None, save_state_to=None,
                 on_outcome=None):
    """Continually learn the task sequence with the configured method.

    `cfg` is one SequenceConfig, or a list of configs that differ only in
    method, lam, lam_e and seed. The configs of one family (equal
    `family`) are walked as a tree of tasks from one root: at each task
    its members share the pre-training evaluation and the expansion, then
    split by the penalty terms they apply, so members of equal `strengths`
    train once.

    Each seed's families are walked on their own, the seeds in the order
    they first appear. A walk is depth first over groups of up to K =
    max(1, _LOCKSTEP_BUDGET // P) nodes at one task, in one phase (see
    _Walk.run). A group's nodes draw the same minibatches, so their
    expansions, one per distinct network, and then their branches train
    in lock-step: one stacked forward and backward per batch (see
    train_lockstep). K = 1 walks one node at a time.

    Each member's result, with its own config, equals that of its own run
    bit for bit. A config's outcome, its RunResult or the exception that
    failed its branch, goes to on_outcome(index, outcome) once final; else
    one config returns or raises it, and a list returns each config's.

    `resume` is what load_state returns, for configs of one family, and is
    not written into: it becomes the root node, which starts at
    state.task_count with the saved accuracy rows and pre-training
    accuracies. All randomness is keyed by (seed, task, epoch), so a
    resumed run's result equals the uninterrupted run's.
    """
    single = isinstance(cfg, SequenceConfig)
    configs = [cfg] if single else list(cfg)
    if not configs or len(set(map(_shared_settings, configs))) != 1:
        raise ConfigError("run_sequence takes configs that differ only in "
                          "method, lam, lam_e and seed")
    families: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        families.setdefault(c.family, []).append(i)
    if resume is not None and len(families) > 1:
        raise ConfigError("resume takes configs of one family")
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
    net = state = None
    rows, pre_train = [], []  # of the tasks trained before this call
    if resume is not None:
        net, state, (seed, rows, pre_train) = resume
        if seed != first.seed:
            raise ConfigError("resume state was written with a different seed")
        if net.arch() != arch:
            raise ConfigError("resume state does not match the configured arch")
        if state.task_count >= len(tasks):  # none is left to train
            raise ConfigError(
                f"resume state has trained {state.task_count} tasks, "
                f"{'all of' if state.task_count == len(tasks) else 'more than'}"
                f" the sequence's {len(tasks)}")
    outcomes = [None] * len(configs)
    walk = _Walk(configs, tasks, arch, save_state_to,
                 on_outcome or outcomes.__setitem__)
    width = max(1, _LOCKSTEP_BUDGET // _param_count(*arch))
    for seed in dict.fromkeys(s for s, _ in families):
        walk.run([_Node(len(rows), members, net, state, rows, pre_train)
                  for (s, _), members in families.items() if s == seed], width)
    if on_outcome is None:
        if single and isinstance(outcomes[0], Exception):
            raise outcomes[0]
        return outcomes[0] if single else outcomes


class _Walk:
    """The walks of a run_sequence call. It passes each config's outcome
    to sink(index, outcome) once, when final; each node carries its own
    run's bookkeeping."""

    def __init__(self, configs, tasks, arch, save_state_to, sink):
        self.configs, self.tasks, self.arch = configs, tasks, arch
        self.save_state_to, self.sink = save_state_to, sink
        self.abar: dict[int, np.ndarray] = {}  # seed -> random-init ACC

    def run(self, children: list[_Node], width: int) -> None:
        """Walk one seed's roots, `children`, depth first over a stack of
        groups of at most `width` nodes: the roots, an opened group's
        branches and a trained group's children, cut `width` to a group."""
        stack: list[list[_Node]] = []
        while children or stack:
            stack += [children[i:i + width]
                      for i in range(0, len(children), width)][::-1]
            group = stack.pop()
            children = (self.finish if group[0].t == len(self.tasks)
                        else self.open if group[0].terms is None
                        else self.train)(group)

    def cfg(self, node: _Node) -> SequenceConfig:
        return self.configs[node.members[0]]

    def fail(self, node: _Node, exc: Exception) -> None:
        for i in node.members:
            self.sink(i, exc)

    def open(self, group: list[_Node]) -> list[_Node]:
        """The shared part of each node's task: the expansion of each
        distinct network (in lock-step across the group) and the
        pre-training evaluation, onto the node's `pre_train`. A node fails
        with the first of these that raises. Returns each node's branches."""
        t, cfg = group[0].t, self.cfg(group[0])
        task = self.tasks[t]
        if group[0].net is None:  # roots, of one seed and architecture
            net = Network.create(*self.arch, cfg.seed)
            for node in group:
                node.net, node.state = net, RegState.zeros(net.param_count)
        nets = [*dict.fromkeys(node.net for node in group
                               if self.cfg(node).uses_expansion)]
        anchors = dict(zip(nets, train_expanded(
            nets, task, cfg.optimizer,
            epochs=cfg.expansion_epochs or cfg.epochs,
            init=cfg.expansion_init, batch_size=cfg.batch_size,
            loss_kind=_loss_kind(task), seed=cfg.seed, task_index=t)
            if nets else []))
        children = []
        for node in group:
            cfg = self.cfg(node)
            anchor = anchors[node.net] if cfg.uses_expansion else None
            try:
                node.pre_train = np.append(node.pre_train, evaluate(
                    node.net, task) if t > 0 else np.nan)
                branches: dict[tuple, tuple] = {}
                if not isinstance(anchor, Exception):
                    for i in node.members:
                        terms = penalty_terms(self.configs[i], node.state,
                                              anchor)
                        branches.setdefault(tuple(lam for _, lam in terms),
                                            (terms, []))[1].append(i)
            except Exception as exc:
                anchor = exc
            # outside the try: an error of the sink is not the node's
            if isinstance(anchor, Exception):
                self.fail(node, anchor)
                continue
            children += [replace(node, members=branch, terms=terms)
                         for terms, branch in branches.values()]
        return children

    def train(self, group: list[_Node]) -> list[_Node]:
        """Train task t on each of the group's branches, all in lock-step
        on the minibatches of (seed, t, epoch), which they share: a copy of
        its network with its penalty terms, and SI/RWalk's per-step
        importance into a copy of its state. Then evaluate every task so
        far and anchor the state at the trained network. Returns each
        branch's node at the next task; the group's nodes are not touched."""
        t, cfgs = group[0].t, [self.cfg(node) for node in group]
        task = self.tasks[t]
        states = [node.state.copy() for node in group]
        opts = [make_optimizer(cfg.optimizer) for cfg in cfgs]
        paths = [cfg.base_method if cfg.base_method in ("si", "rwalk")
                 else None for cfg in cfgs]

        def step(i, net, grad):
            before = net.get_params() if paths[i] else None
            # penalized in place, but into a copy where the path update
            # below needs the unpenalized gradient
            opts[i].step(net.params, penalized_grad(
                net.params, grad.copy() if paths[i] and group[i].terms
                else grad, group[i].terms))
            if paths[i]:
                importance_update(paths[i], states[i], "step", grad=grad,
                                  delta=net.params - before)

        nets = train_lockstep(
            [node.net for node in group], task, epochs=cfgs[0].epochs,
            batch_size=cfgs[0].batch_size,
            key=[_MAIN_SHUFFLE_KEY, cfgs[0].seed, t],
            loss_kind=_loss_kind(task), step=step)
        opts.clear()  # each row's optimizer moments go before its Fisher
        children = []
        for node, cfg, net, state in zip(group, cfgs, nets, states):
            if isinstance(net, Exception):  # rows may share it
                self.fail(node, net)
                continue
            try:
                rows = [*node.rows, _consolidate(cfg, net, state, self.tasks,
                                                 t, node.net.params)]
                if self.save_state_to is not None:  # of the one config
                    save_state(self.save_state_to, net, state,
                               (cfg.seed, rows, node.pre_train))
                log.info("method=%s seed=%d task=%d new_acc=%.4f "
                         "running_acc=%.4f%s", cfg.method, cfg.seed, t + 1,
                         rows[-1][-1], float(np.mean(rows[-1])),
                         f" cells={len(node.members)}"
                         if len(node.members) > 1 else "")
                children.append(_Node(t + 1, node.members, net, state, rows,
                                      node.pre_train))
            except Exception as exc:
                self.fail(node, exc)
        return children

    def finish(self, group: list[_Node]) -> list:
        """Each member's RunResult, from its node's run, to the sink,
        outside the try: an error of the sink is not the node's."""
        for node in group:
            cfg = self.cfg(node)
            try:
                if cfg.seed not in self.abar:
                    self.abar[cfg.seed] = random_init_baseline(
                        self.tasks, cfg.arch, [cfg.seed])
                digest = _state_digest(node.net, node.state)
            except Exception as exc:
                self.fail(node, exc)
                continue
            for i in node.members:
                matrix = AccMatrix([[*row] for row in node.rows],
                                   self.abar[cfg.seed], node.pre_train)
                self.sink(i, RunResult(matrix, asdict(self.configs[i]),
                                       digest))
        return []


def _consolidate(cfg: SequenceConfig, net: Network, state: RegState, tasks,
                 t: int, start: np.ndarray) -> list[float]:
    """Evaluate every task so far, then anchor `state` at the read-only
    parameters of the network trained on task t from `start`, weighed by
    the averaged Fisher (EWC) or task_end's importance. Returns the row."""
    task = tasks[t]
    row = [evaluate(net, tasks[k]) for k in range(t + 1)]
    precision = state.anchor.precision
    if cfg.base_method == "ewc":
        precision = fisher_running_average(
            precision, estimate_diag_fisher(net, task, _loss_kind(task)), t + 1)
    else:
        importance_update(cfg.base_method, state, "task_end", net=net,
                          task=task, start=start)
    state.anchor = DiagGaussian(net.params, precision)
    state.task_count = t + 1
    return row


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

def save_state(path, net: Network, state: RegState, run: tuple) -> None:
    """Write the run state: a canonical JSON header line, with each
    vector's slot ("zero" or a payload index), the payload's sha256 and
    `run` (load_state's seed, rows, pre_train), then each distinct non-zero
    vector (by _buffer_key) once, as little-endian float64."""
    seed, rows, pre_train = run
    input_dim, hidden, activation, heads = net.arch()
    vectors = {}  # by _buffer_key, in the order of first use

    def slot(vec):
        if not vec.view(np.uint64).any():
            return "zero"
        key = _buffer_key(vec)
        vectors.setdefault(key, np.ascontiguousarray(vec, "<f8"))
        return [*vectors].index(key)
    doc = {"version": STATE_VERSION, "rng": {"scheme": "counter", "seed": seed},
           "net": {"input_dim": input_dim, "hidden": hidden,
                   "activation": activation,
                   "heads": [*map(list, heads.items())],
                   "params": slot(net.params)},
           "reg_state": state.to_doc(slot), "acc_matrix": rows,
           "pre_train": _json_floats(pre_train)}
    payload = b"".join(vectors.values())
    doc["sha256"] = hashlib.sha256(payload).hexdigest()
    write_atomic(path, _canonical(doc) + "\n", payload)


def load_state(path):
    """Read a run-state file; returns (net, reg_state, (seed, rows,
    pre_train)), with one accuracy row and one pre-training accuracy (NaN
    for the first) per trained task. A field that is missing or malformed,
    or a payload that is not the header's, raises a FormatError naming it."""
    with open(path, "rb") as fh:
        header, payload = fh.readline(), fh.read()
    try:
        doc = json.loads(header)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FormatError(f"{path}: the header line is not JSON") from exc
    version = doc.get("version") if isinstance(doc, dict) else None
    if type(version) is not int or version != STATE_VERSION:
        raise FormatError(f"{path}: unsupported version {version!r} in "
                          f"field 'version'")
    input_dim, hidden, activation, heads, rng, t, rows, pre = (
        _field(path, doc, name) for name in (
            "net.input_dim", "net.hidden", "net.activation", "net.heads",
            "rng", "reg_state.task_count", "acc_matrix", "pre_train"))
    problem = _arch_problem(hidden, activation)
    if problem:
        raise FormatError(f"{path}: field net.{problem}")
    names = ["net.params", *(f"reg_state.{name}" for name in (
        "anchor.mean", "anchor.precision", *STATE_VECTORS))]
    slots = [_field(path, doc, name) for name in names]
    count = len({s for s in slots if type(s) is int})
    for name, ok, rule in (
            ("net.input_dim", _is_count(input_dim), "be an integer >= 1"),
            ("net.heads", isinstance(heads, list) and heads and all(
                isinstance(h, list) and len(h) == 2 and isinstance(h[0], str)
                and _is_count(h[1]) for h in heads)
             and len({h[0] for h in heads}) == len(heads),
             "be non-empty [name, size >= 1] pairs, with distinct names"),
            ("rng", isinstance(rng, dict) and rng.get("scheme") == "counter"
             and type(rng.get("seed")) is int,
             "hold scheme 'counter' and an integer seed"),
            ("reg_state.task_count", _is_count(t, 0), "be an integer >= 0"),
            ("acc_matrix", isinstance(rows, list) and len(rows) == t and all(
                isinstance(row, list) and len(row) == j + 1
                and all(map(_is_accuracy, row)) for j, row in enumerate(rows)),
             f"hold one row per trained task ({t}), row j of j + 1 "
             f"accuracies in [0, 1]"),
            ("pre_train", isinstance(pre, list) and len(pre) == t and all(
                v is None if j == 0 else _is_accuracy(v)
                for j, v in enumerate(pre)),
             f"hold one entry per trained task ({t}): null, then "
             f"accuracies in [0, 1]"),
            *((name, s == "zero" or type(s) is int and 0 <= s < count,
               f"be \"zero\" or a payload index below {count}")
              for name, s in zip(names, slots))):
        if not ok:
            raise FormatError(f"{path}: field {name!r} must {rule}")
    net = Network.create(input_dim, hidden, activation, dict(heads),
                         seed=rng["seed"])
    size = net.param_count
    if len(payload) != 8 * size * count:
        raise FormatError(f"{path}: the payload holds {len(payload)} bytes, "
                          f"not {count} vectors of {size} float64")
    if hashlib.sha256(payload).hexdigest() != _field(path, doc, "sha256"):
        raise FormatError(f"{path}: payload does not match field 'sha256'")
    # read-only views of the payload, not copies
    views = [np.frombuffer(payload, "<f8", size, 8 * size * i).astype(
        np.float64, copy=False) for i in range(count)]
    for name, s in zip(names, slots):
        if s != "zero" and not _all_finite(views[s]):
            raise FormatError(f"{path}: field {name!r} must hold finite "
                              f"numbers")
    zero = RegState.zeros(size).importance
    params, mean, precision, *rest = [zero if s == "zero" else views[s]
                                      for s in slots]
    try:
        anchor = DiagGaussian(mean, precision)
    except ShapeError as exc:  # a negative precision
        raise FormatError(f"{path}: field 'reg_state.anchor': {exc}") from exc
    state = RegState(anchor, **dict(zip(STATE_VECTORS, rest)), task_count=t)
    if state.path_accum.any():  # the next task's SI/RWalk path starts at 0
        raise FormatError(f"{path}: field 'reg_state.path_accum' must be 0 "
                          f"between tasks")
    # numpy reads the null as NaN
    return (Network(net.body, net.heads, params), state,
            (rng["seed"], rows, np.array(pre, dtype=np.float64)))


def _field(path, doc: dict, name: str):
    """The header's field at the dotted `name`."""
    value = doc
    for key in name.split("."):
        if not (isinstance(value, dict) and key in value):
            raise FormatError(f"{path}: missing field {name!r}")
        value = value[key]
    return value
