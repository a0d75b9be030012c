"""Sequence driver, evaluation, transfer probe, and state persistence."""

import contextlib
import dataclasses
import gc
import hashlib
import itertools
import json
import os
import re
import sys
import tempfile
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afec_lab import continual
from afec_lab.cli import result_to_json
from afec_lab.continual import (METHODS, ArchSpec, SequenceConfig, _canonical,
                                _state_digest, evaluate,
                                load_state, random_init_baseline, run_sequence,
                                save_state, transfer_probe)
from afec_lab.errors import ConfigError, FormatError
from afec_lab.nn import DenseLayer, Network
from afec_lab.posterior import DiagGaussian
from afec_lab.regularizers import EXPANSION_INITS, RegState, train_expanded
from afec_lab.tasks import (AngularLayout, gen_angular_task,
                            make_angular_sequence, make_conflicting_pair,
                            split_tasks)

ARCH = ArchSpec(hidden=[16, 16])


def quick_task(seed=0, classes=4):
    return gen_angular_task(AngularLayout.identity(classes), 20, 6, 0.5, seed)


def quick_pair(seed=0):
    return list(make_conflicting_pair(6, seed, samples_per_class=20,
                                      input_dim=6, cluster_spread=0.5))


def quick_cfg(method, **kw):
    kw.setdefault("epochs", 3)
    kw.setdefault("arch", ARCH)
    return SequenceConfig(method=method, **kw)


class TestEvaluate:
    def test_perfect_regressor_scores_one(self):
        task = quick_task()
        # a lookup-free perfect model: memorize via a big net is overkill;
        # instead score the targets themselves through an identity head
        net = Network([], {task.head: DenseLayer(np.eye(2), np.zeros(2),
                                                 "identity")})
        perfect = task.__class__(**{**task.__dict__})
        perfect.inputs_test = task.targets_test.copy()
        assert evaluate(net, perfect) == 1.0

    def test_untrained_ten_class_head_near_chance(self):
        # single untrained nets are very noisy (clusters map to few predicted
        # classes), so average over many initializations
        accs = []
        for seed in range(40):
            task = gen_angular_task(AngularLayout.identity(10), 40, 8, 0.5,
                                    seed % 7)
            net = Network.create(8, [16], "relu", {task.head: 2}, seed)
            accs.append(evaluate(net, task))
        assert abs(np.mean(accs) - 0.1) < 0.05

    def test_deterministic(self):
        task = quick_task()
        net = Network.create(6, [8], "relu", {task.head: 2}, 0)
        assert evaluate(net, task) == evaluate(net, task)

    def test_classification_argmax(self):
        images = np.eye(4)
        labels = np.array([0, 1, 0, 1])
        task = split_tasks(np.tile(images, (8, 1)),
                           np.tile(labels, 8), 2, seed=0)[0]
        net = Network.create(4, [8], "relu", {task.head: 2}, 0)
        acc_val = evaluate(net, task)
        assert 0.0 <= acc_val <= 1.0


class TestRandomInitBaseline:
    def test_chance_level_for_balanced_classes(self):
        tasks = [gen_angular_task(AngularLayout.identity(10), 40, 8, 0.5, s)
                 for s in range(2)]
        abar = random_init_baseline(tasks, ARCH, seeds=range(10))
        assert np.all(np.abs(abar - 0.1) < 0.06)

    def test_single_seed_reproducible(self):
        tasks = [quick_task()]
        a = random_init_baseline(tasks, ARCH, seeds=[3])
        b = random_init_baseline(tasks, ARCH, seeds=[3])
        np.testing.assert_array_equal(a, b)

    def test_length_matches_tasks(self):
        tasks = quick_pair()
        assert len(random_init_baseline(tasks, ARCH, seeds=[0])) == 2

    def test_no_seeds_rejected(self):
        with pytest.raises(ConfigError):
            random_init_baseline([quick_task()], ARCH, seeds=[])


class TestRunSequence:
    def test_single_task_any_method(self):
        result = run_sequence(quick_cfg("ewc", lam=100.0, seed=0),
                              [quick_task()])
        assert len(result.acc_matrix.a) == 1
        assert len(result.acc_matrix.a[0]) == 1

    def test_finetune_equals_afec_with_zero_penalties(self):
        tasks = quick_pair()
        a = run_sequence(quick_cfg("finetune", seed=1), tasks)
        b = run_sequence(quick_cfg("afec", lam=0.0, lam_e=0.0, seed=1), tasks)
        assert a.checksum == b.checksum

    @pytest.mark.parametrize("seed", range(3))
    def test_afec_with_lam_e_zero_equals_ewc_bitwise(self, seed):
        tasks = quick_pair(seed)
        ewc = run_sequence(quick_cfg("ewc", lam=50.0, seed=seed), tasks)
        ablated = run_sequence(quick_cfg("afec", lam=50.0, lam_e=0.0,
                                         seed=seed), tasks)
        assert ewc.checksum == ablated.checksum

    def test_run_determinism(self):
        tasks = quick_pair()
        a = run_sequence(quick_cfg("afec", lam=10.0, lam_e=1.0, seed=5), tasks)
        b = run_sequence(quick_cfg("afec", lam=10.0, lam_e=1.0, seed=5), tasks)
        assert a.checksum == b.checksum

    def test_diagonal_equals_per_task_new_accuracy(self):
        tasks = quick_pair()
        result = run_sequence(quick_cfg("si", lam=1.0, seed=0), tasks)
        diag = [result.acc_matrix.a[i][i] for i in range(2)]
        assert diag == result.per_task_new_accuracy

    def test_matrix_is_lower_triangular(self):
        tasks = quick_pair()
        result = run_sequence(quick_cfg("mas", lam=1.0, seed=0), tasks)
        assert [len(row) for row in result.acc_matrix.a] == [1, 2]

    def test_pre_train_chance_for_unseen_disjoint_heads(self):
        rng = np.random.default_rng(0)
        images = rng.uniform(size=(200, 6))
        labels = np.repeat(np.arange(10), 20)
        tasks = split_tasks(images, labels, 5, seed=0)
        result = run_sequence(quick_cfg("finetune", seed=0), tasks)
        pre = result.acc_matrix.pre_train[1]
        assert abs(pre - 0.2) < 0.25

    @pytest.mark.parametrize("method", ["mas_afec", "si_afec", "rwalk_afec"])
    def test_importance_variants_run(self, method):
        tasks = quick_pair()
        result = run_sequence(quick_cfg(method, lam=1.0, lam_e=0.5, seed=0),
                              tasks)
        assert 0.0 <= result.acc_matrix.a[1][1] <= 1.0

    def test_mismatched_input_dims_rejected(self):
        t1 = quick_task()
        t2 = gen_angular_task(AngularLayout.identity(4), 20, 7, 0.5, 0)
        with pytest.raises(ConfigError):
            run_sequence(quick_cfg("finetune", seed=0), [t1, t2])

    def test_no_tasks_rejected(self):
        with pytest.raises(ConfigError):
            run_sequence(quick_cfg("finetune", seed=0), [])

    def test_one_head_of_two_dims_rejected(self):
        t1, t2 = quick_pair()
        t2 = dataclasses.replace(t2, head=t1.head, head_dim=t1.head_dim + 1)
        with pytest.raises(ConfigError, match="declared with two dims"):
            run_sequence(quick_cfg("finetune", seed=0), [t1, t2])

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            SequenceConfig(method="gem")

    def test_config_echo_round_trips(self):
        result = run_sequence(quick_cfg("ewc", lam=2.0, seed=0),
                              [quick_task()])
        assert result.config["method"] == "ewc"
        assert result.config["lam"] == 2.0


class TestSequenceConfig:
    def test_negative_strengths_rejected(self):
        with pytest.raises(ConfigError, match="lambda"):
            SequenceConfig(method="afec", lam=-1.0)
        with pytest.raises(ConfigError, match="lambda_e"):
            SequenceConfig(method="afec", lam_e=-0.5)

    def test_non_finite_rejected(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                SequenceConfig(method="afec", lam=bad)
            with pytest.raises(ConfigError):
                SequenceConfig(method="afec", lam_e=bad)

    def test_unknown_init_rejected(self):
        with pytest.raises(ConfigError, match="expansion_init"):
            SequenceConfig(method="afec", expansion_init="warm")

    @pytest.mark.parametrize("bad", [0, -1, True, 1.5, "2"])
    def test_bad_expansion_epochs_rejected(self, bad):
        with pytest.raises(ConfigError, match="expansion_epochs"):
            SequenceConfig(method="afec", expansion_epochs=bad)

    @pytest.mark.parametrize("key", ["lam", "lam_e"])
    def test_bool_strength_rejected(self, key):
        with pytest.raises(ConfigError, match="lambda"):
            SequenceConfig(method="afec", **{key: True})

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "0", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            SequenceConfig(method="ewc", seed=seed)

    @pytest.mark.parametrize("key,value", [
        ("optimizer", "adam"), ("optimizer", {"kind": "adam", "lr": 0}),
        ("arch", "relu"), ("arch", {"hidden": [8], "width": 8}),
        ("arch", {"hidden": [0]})])
    def test_bad_run_setting_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            SequenceConfig(method="ewc", **{key: value})

    def test_base_method(self):
        bases = {m: SequenceConfig(method=m).base_method for m in METHODS}
        assert bases == {"finetune": "ewc", "ewc": "ewc", "afec": "ewc",
                         "mas": "mas", "si": "si", "rwalk": "rwalk",
                         "mas_afec": "mas", "si_afec": "si",
                         "rwalk_afec": "rwalk"}

    def test_expansion_epochs_none_or_positive_accepted(self):
        assert SequenceConfig(method="afec").expansion_epochs is None
        assert SequenceConfig(method="afec",
                              expansion_epochs=2).expansion_epochs == 2


class TestStrengths:
    def test_equal_strengths_give_equal_runs(self):
        """Over every method and zero/nonzero strengths, configs of one
        family and equal strengths give result docs that differ only in
        their config."""
        tasks = quick_pair()
        docs: dict[tuple, set] = {}
        for method in METHODS:
            for lam in (0.0, 1.0):
                for lam_e in (0.0, 1.0):
                    cfg = quick_cfg(method, lam=lam, lam_e=lam_e, seed=2,
                                    epochs=1)
                    doc = result_to_json(run_sequence(cfg, tasks))
                    del doc["config"]
                    docs.setdefault((cfg.family, cfg.strengths),
                                    set()).add(json.dumps(doc, sort_keys=True))
        # Per base method: lam 0 and 1 without expansion, and with it.
        assert len(docs) == 16
        assert all(len(texts) == 1 for texts in docs.values())

    def test_family_is_the_seed_and_run_method(self):
        cfg = SequenceConfig(method="afec", lam=2.0, lam_e=0.5, seed=3,
                             expansion_init="fresh_random")
        assert cfg.family == (3, "afec")
        assert cfg.strengths == (2.0, 0.5)
        mas_afec = SequenceConfig(method="mas_afec", lam=2.0, lam_e=0.0,
                                  seed=3)
        mas = SequenceConfig(method="mas", lam=2.0, lam_e=7.0, seed=3)
        assert mas_afec.run_method == mas.run_method == "mas"
        assert mas_afec.family == mas.family == (3, "mas")
        assert mas_afec.strengths == mas.strengths == (2.0, 0.0)
        assert SequenceConfig(method="finetune", lam=2.0).strengths == \
            (0.0, 0.0)


class TestTransferProbe:
    def _trained_net(self, seed=0):
        tasks = quick_pair(seed)
        cfg = quick_cfg("finetune", seed=seed, epochs=10)
        heads = {tasks[0].head: tasks[0].head_dim}
        net = Network.create(tasks[0].input_dim, cfg.arch.hidden,
                             cfg.arch.activation, heads, seed)
        return net, tasks

    def test_body_bitwise_unchanged(self):
        net, tasks = self._trained_net()
        before = net.get_params()
        transfer_probe(net, tasks[0], epochs=3, lr=0.001)
        np.testing.assert_array_equal(net.get_params(), before)

    def test_zero_epochs_is_chance_level(self):
        accs = []
        for seed in range(5):
            task = gen_angular_task(AngularLayout.identity(10), 40, 8, 0.5,
                                    seed)
            net = Network.create(8, [16], "relu", {task.head: 2}, seed)
            accs.append(transfer_probe(net, task, epochs=0, lr=0.01))
        assert abs(np.mean(accs) - 0.1) < 0.06

    def test_trained_body_beats_random_body(self):
        trained_scores, random_scores = [], []
        for seed in range(5):
            task = gen_angular_task(AngularLayout.identity(6), 40, 8, 0.5,
                                    seed, name="base")
            cfg = SequenceConfig(method="finetune", epochs=20, seed=seed,
                                 arch=ARCH)
            import tempfile, os
            with tempfile.TemporaryDirectory() as td:
                path = os.path.join(td, "s.json")
                run_sequence(cfg, [task], save_state_to=path)
                net, _, _ = load_state(path)
            fresh = Network.create(8, ARCH.hidden, ARCH.activation,
                                   {task.head: 2}, seed + 100)
            trained_scores.append(transfer_probe(net, task, epochs=20, lr=0.001))
            random_scores.append(transfer_probe(fresh, task, epochs=20,
                                                lr=0.001))
        assert np.mean(trained_scores) > np.mean(random_scores)

    def test_headless_body_rejected(self):
        task = quick_task()
        net = Network([], {task.head: DenseLayer(np.eye(2), np.zeros(2))})
        with pytest.raises(ConfigError):
            transfer_probe(net, task, epochs=1, lr=0.01)


class TestSnapshotsOwnTheirMemory:
    """The optimizers step `net.params` in place. The expanded anchor is
    taken from a network that trains on, so it must be a copy. A trained
    network's anchors (the mean, and SI/RWalk's previous parameters) are
    its own parameters, which train_lockstep leaves read-only: a write
    raises instead of silently moving every later penalty."""

    def _assert_own_memory(self, net, arrays):
        for a in arrays:
            assert not np.shares_memory(a, net.params)
        kept = [a.copy() for a in arrays]
        net.params += 1.0
        for a, k in zip(arrays, kept):
            np.testing.assert_array_equal(a, k)

    @pytest.mark.parametrize("method", METHODS)
    def test_learn_task_snapshots(self, method, monkeypatch):
        # the trained network and state of a two-task run, as the walk
        # finishes them
        finished = []

        def finish(walk, group, _fn=continual._Walk.finish):
            finished.extend(group)
            return _fn(walk, group)
        monkeypatch.setattr(continual._Walk, "finish", finish)
        run_sequence(quick_cfg(method, lam=1.0, lam_e=1.0, epochs=1),
                     _RESUME_TASKS[:2])
        [node] = finished
        anchors = [node.state.anchor.mean]
        if quick_cfg(method).base_method == "ewc":  # no importance path
            assert not node.state.prev_params.any()
        else:
            anchors.append(node.state.prev_params)
        assert all(np.shares_memory(a, node.net.params) for a in anchors)
        kept = [a.copy() for a in anchors]
        with pytest.raises(ValueError, match="read-only"):
            node.net.params += 1.0
        for a, k in zip(anchors, kept):
            assert a.tobytes() == k.tobytes()

    @pytest.mark.parametrize("init", EXPANSION_INITS)
    def test_expanded_anchor(self, init):
        task = _RESUME_TASKS[0]
        net = Network.create(task.input_dim, [8], "relu",
                             {task.head: task.head_dim}, 0)
        for epochs in (0, 2):
            [anchor] = train_expanded([net], task, {"kind": "adam"},
                                      epochs=epochs, init=init, batch_size=8,
                                      loss_kind=continual._loss_kind(task),
                                      seed=0)
            self._assert_own_memory(net, [anchor.mean])


_RESUME_TASKS = make_angular_sequence(3, 4, 0, samples_per_class=10,
                                      input_dim=6, cluster_spread=0.5)


def _outcome_text(outcome) -> str:
    """A run's result doc and checksum, or the error it raised, as text."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    return json.dumps([result_to_json(outcome), outcome.checksum],
                      sort_keys=True)


def _result_text(result) -> str:
    """The text of the result file the CLI writes for `result`."""
    return json.dumps(result_to_json(result), sort_keys=True) + "\n"


def _own_run(cfg, tasks, **kwargs) -> str:
    try:
        return _outcome_text(run_sequence(cfg, tasks, **kwargs))
    except Exception as exc:
        return _outcome_text(exc)


_STRENGTHS = st.sampled_from([0.0, 0.5, 20.0])
_OPTIMIZERS = [{"kind": "adam", "lr": 0.01},
               {"kind": "sgd", "lr": 0.05, "momentum": 0.9}]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFamilyWalk:
    """run_sequence over a family trains the tasks its runs share once, and
    gives each run the result of its own run_sequence bit for bit."""

    @pytest.mark.parametrize("method", METHODS)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 1000), num_tasks=st.integers(1, 3),
           optimizer=st.sampled_from(_OPTIMIZERS),
           init=st.sampled_from(EXPANSION_INITS),
           strengths=st.lists(st.tuples(_STRENGTHS, _STRENGTHS),
                              min_size=1, max_size=5))
    def test_family_equals_own_runs(self, method, seed, num_tasks, optimizer,
                                    init, strengths):
        tasks = _RESUME_TASKS[:num_tasks]
        families: dict[str, list] = {}
        for lam, lam_e in strengths:
            cfg = quick_cfg(method, lam=lam, lam_e=lam_e, seed=seed,
                            epochs=1, optimizer=optimizer,
                            expansion_init=init)
            families.setdefault(cfg.family, []).append(cfg)
        for family in families.values():
            shared = run_sequence(family, tasks)
            assert [_outcome_text(r) for r in shared] == [
                _own_run(cfg, tasks) for cfg in family]

    def test_family_drops_only_the_strengths(self):
        keys = {quick_cfg("afec", lam=lam, lam_e=lam_e).family
                for lam in (0.0, 1.0, 5.0) for lam_e in (1.0, 2.0)}
        assert len(keys) == 1
        assert quick_cfg("afec", lam_e=1.0).family != \
            quick_cfg("afec", lam_e=0.0).family  # ewc's family
        assert quick_cfg("afec", lam_e=0.0).family == \
            quick_cfg("finetune", lam=3.0).family
        assert quick_cfg("ewc", seed=1).family != \
            quick_cfg("ewc", seed=2).family

    def test_configs_of_two_families_rejected(self):
        with pytest.raises(ConfigError, match="differ only in method, lam"):
            run_sequence([quick_cfg("ewc"), quick_cfg("ewc", epochs=2)],
                         quick_pair())
        with pytest.raises(ConfigError, match="one family"):
            run_sequence([quick_cfg("ewc", seed=1), quick_cfg("ewc", seed=2)],
                         quick_pair(), resume=(None, None, 1))
        with pytest.raises(ConfigError, match="single config"):
            run_sequence([quick_cfg("ewc"), quick_cfg("ewc", lam=1.0)],
                         quick_pair(), save_state_to="unused.json")

    def test_shared_tasks_train_once(self, monkeypatch):
        # afec at lambda_e 1 and 5 splits on the first task, where only
        # lambda_e tells runs apart; lambda splits them on the second
        rows = {"train_expanded": [], "train": []}

        def expand(nets, *args, _fn=continual.train_expanded, **kwargs):
            rows["train_expanded"].append(len(nets))
            return _fn(nets, *args, **kwargs)

        def train(walk, group, _fn=continual._Walk.train):
            rows["train"].append(len(group))
            return _fn(walk, group)
        monkeypatch.setattr(continual, "train_expanded", expand)
        monkeypatch.setattr(continual._Walk, "train", train)
        family = [quick_cfg("afec", lam=lam, lam_e=lam_e, epochs=1)
                  for lam in (1.0, 10.0, 100.0) for lam_e in (1.0, 5.0)]
        run_sequence(family, quick_pair())
        # expansions: 1 on task 1, then 1 per lambda_e branch on task 2;
        # main training: 2 branches on task 1, 6 on task 2; each task's
        # rows train in lock-step
        assert rows == {"train_expanded": [1, 2], "train": [2, 6]}

    def test_diverging_branch_fails_only_its_runs(self):
        # SGD at lambda_e 1e9 diverges on the first task, and lambda 1e9
        # on the second; the other runs still match their own runs
        family = [quick_cfg("afec", lam=lam, lam_e=lam_e, seed=4,
                            optimizer={"kind": "sgd", "lr": 0.01})
                  for lam in (1.0, 1e9) for lam_e in (1.0, 1e9)]
        tasks = quick_pair()
        shared = run_sequence(family, tasks)
        assert [type(r).__name__ for r in shared] == [
            "RunResult", "NumericError", "NumericError", "NumericError"]
        assert [_outcome_text(r) for r in shared] == [
            _own_run(cfg, tasks) for cfg in family]

    @pytest.mark.parametrize("method", METHODS)
    def test_resumed_family_equals_uninterrupted_runs(self, method,
                                                      tmp_path):
        # one lambda_e, so every run shares the first task and its state
        family = [quick_cfg(method, lam=lam, lam_e=0.5, seed=7, epochs=2)
                  for lam in (0.0, 0.5, 20.0)]
        tasks = _RESUME_TASKS
        path = str(tmp_path / "state.json")
        run_sequence(family[0], tasks[:1], save_state_to=path)
        resumed = run_sequence(family, tasks, resume=load_state(path))
        assert [_outcome_text(r) for r in resumed] == [
            _own_run(cfg, tasks) for cfg in family]


def _raising_at(fn, node_test, exc):
    """`fn`, but raising `exc` when it is called, directly or through other
    functions, from a _Walk method at a node that passes
    node_test(walk, node)."""
    def patched(*args, **kwargs):
        frame = sys._getframe(1)
        while frame and not isinstance(frame.f_locals.get("self"),
                                       continual._Walk):
            frame = frame.f_back
        node = frame and frame.f_locals.get("node")
        if node and node_test(frame.f_locals["self"], node):
            raise exc
        return fn(*args, **kwargs)
    return patched


# Every run shares its family's first task but afec's, which lambda_e
# splits there; lambda splits ewc and mas on the second task.
_NODE_CELLS = [quick_cfg(method, lam=lam, lam_e=lam_e, seed=2, epochs=1)
               for method, lam, lam_e in (
                   ("ewc", 1.0, 0.0), ("ewc", 10.0, 0.0), ("mas", 1.0, 0.0),
                   ("mas", 10.0, 0.0), ("afec", 1.0, 1.0),
                   ("afec", 1.0, 5.0))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNodeFailures:
    """An error in one node's part of the walk fails that node's cells
    alone, with that error; every other cell equals its own run."""

    @pytest.mark.parametrize("name,t,failed", [
        ("evaluate", 1, [5]),             # afec at lambda_e 5, pre-training
        ("importance_update", 0, [2, 3]),  # mas's root, at task_end
        ("_consolidate", 0, [0, 1]),      # ewc's shared first task
        ("_consolidate", 1, [1]),         # ewc at lambda 10, second task
        ("_state_digest", 2, [3])])       # mas at lambda 10, finishing
    def test_one_node_fails_alone(self, monkeypatch, name, t, failed):
        tasks = quick_pair()
        own = [_own_run(cell, tasks) for cell in _NODE_CELLS]
        exc = RuntimeError(f"{name} failed")
        target = _NODE_CELLS[failed[0]]
        monkeypatch.setattr(continual, name, _raising_at(
            getattr(continual, name),
            lambda walk, node: node.t == t and walk.cfg(node) == target, exc))
        outcomes = run_sequence(_NODE_CELLS, tasks)
        assert [i for i, o in enumerate(outcomes) if o is exc] == failed
        assert [_outcome_text(o) for i, o in enumerate(outcomes)
                if i not in failed] == [text for i, text in enumerate(own)
                                        if i not in failed]
        # the sink gets every config's outcome once, the list form's
        received = []
        assert run_sequence(_NODE_CELLS, tasks, on_outcome=lambda *pair:
                            received.append(pair)) is None
        assert sorted(i for i, _ in received) == [*range(len(_NODE_CELLS))]
        assert [i for i, o in received if o is exc] == failed
        assert {i: _outcome_text(o) for i, o in received} == {
            i: _outcome_text(o) for i, o in enumerate(outcomes)}

    def test_pre_training_error_comes_before_the_expansion(self,
                                                           monkeypatch):
        # on the second task both afec runs' expansions fail, and so does
        # the pre-training evaluation of afec at lambda_e 5: that run fails
        # with the evaluation's error, the other with the expansion's
        tasks = quick_pair()
        own = [_own_run(cell, tasks) for cell in _NODE_CELLS]
        expand_exc = RuntimeError("expansion failed")
        evaluate_exc = RuntimeError("evaluate failed")

        def expand(nets, *args, _fn=continual.train_expanded, **kwargs):
            anchors = _fn(nets, *args, **kwargs)
            return anchors if kwargs["task_index"] == 0 else [
                expand_exc] * len(nets)
        monkeypatch.setattr(continual, "train_expanded", expand)
        monkeypatch.setattr(continual, "evaluate", _raising_at(
            continual.evaluate, lambda walk, node: (
                node.t == 1 and walk.cfg(node) == _NODE_CELLS[5]),
            evaluate_exc))
        outcomes = run_sequence(_NODE_CELLS, tasks)
        assert outcomes[4] is expand_exc and outcomes[5] is evaluate_exc
        assert [_outcome_text(o) for o in outcomes[:4]] == own[:4]

    def test_failed_expansion_reaches_a_raising_sink_once(self, monkeypatch):
        # an error of the sink is not the node's: it ends the walk, and the
        # node's shared failed expansion is not passed on a second time
        expand_exc = RuntimeError("expansion failed")
        monkeypatch.setattr(continual, "train_expanded", lambda nets, *args,
                            **kwargs: [expand_exc] * len(nets))
        received = []

        def sink(i, outcome):
            received.append((i, outcome))
            raise OSError("no space left")
        with pytest.raises(OSError):
            run_sequence(_NODE_CELLS[4:], quick_pair(), on_outcome=sink)
        assert received == [(0, expand_exc)]

    def test_failed_state_save_fails_the_run(self, monkeypatch, tmp_path):
        # save_state_to takes one config: its run fails after the state of
        # its first task was saved
        exc = OSError("no space left")
        monkeypatch.setattr(continual, "save_state", _raising_at(
            continual.save_state, lambda walk, node: node.t == 1, exc))
        path = tmp_path / "state.json"
        with pytest.raises(OSError) as raised:
            run_sequence(_NODE_CELLS[0], quick_pair(),
                         save_state_to=str(path))
        assert raised.value is exc
        assert load_state(str(path))[1].task_count == 1


def _stack_sizes(monkeypatch) -> list[int]:
    """The number of rows of each stacked loss_and_grad call from now on."""
    sizes = []

    def counted(net, *args, _fn=Network.loss_and_grad, **kwargs):
        sizes.append(net.params.shape[0])
        return _fn(net, *args, **kwargs)
    monkeypatch.setattr(Network, "loss_and_grad", counted)
    return sizes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestLockstep:
    """run_sequence over configs of several methods and seeds trains the
    runs of one seed that sit at one task in lock-step, and gives each
    config the result of its own run_sequence bit for bit."""

    @pytest.mark.parametrize("optimizer", _OPTIMIZERS, ids=["adam", "sgd"])
    @pytest.mark.parametrize("init", EXPANSION_INITS)
    @pytest.mark.parametrize("budget", [continual._LOCKSTEP_BUDGET, 3000])
    def test_walk_equals_own_runs(self, optimizer, init, budget,
                                  monkeypatch):
        # at 3000 (7 rows of this 418-parameter net) the groups are capped
        monkeypatch.setattr(continual, "_LOCKSTEP_BUDGET", budget)
        tasks = _RESUME_TASKS
        cells = [quick_cfg(method, lam=lam, lam_e=0.5, seed=seed, epochs=1,
                           optimizer=optimizer, expansion_init=init)
                 for method in METHODS for lam in (0.0, 20.0)
                 for seed in (3, 4)]
        sizes = _stack_sizes(monkeypatch)
        shared = run_sequence(cells, tasks)
        # finetune trains in ewc's run at lambda 0, and from the second
        # task on each of the other 8 methods splits by lambda: 16 branches
        # per seed
        assert max(sizes) == min(16, budget // 418)
        assert [_outcome_text(r) for r in shared] == [
            _own_run(cell, tasks) for cell in cells]

    @pytest.mark.parametrize("lam,error", [
        (1e9, "non-finite gradient in optimizer step"),
        (1e4, "non-finite activations in head 'angle'")])
    def test_diverging_row_fails_alone(self, lam, error, monkeypatch):
        # SGD at this lambda diverges on the second task, in the optimizer
        # step or in the stacked forward pass; si at lambda 1 trains beside
        # it in every stacked step until then
        sgd = {"kind": "sgd", "lr": 0.01}
        cells = [quick_cfg("ewc", lam=lam, seed=4, optimizer=sgd),
                 quick_cfg("si", lam=1.0, seed=4, optimizer=sgd)]
        tasks = quick_pair()
        sizes = _stack_sizes(monkeypatch)
        with pytest.raises(Exception, match=re.escape(error)) as alone:
            run_sequence(cells[0], tasks)
        steps = len(sizes)
        sizes.clear()
        diverged, sibling = run_sequence(cells, tasks)
        assert type(diverged) is type(alone.value)
        assert str(diverged) == str(alone.value)
        # the failed row left the stack after the step its own run failed at
        assert sizes == [2] * steps + [1] * (len(sizes) - steps)
        assert _outcome_text(sibling) == _own_run(cells[1], tasks)

    def test_each_seed_is_walked_on_its_own(self, monkeypatch):
        # two rows per group of this 418-parameter net: seed 1's root
        # waits for all of seed 0's, though its family comes second
        monkeypatch.setattr(continual, "_LOCKSTEP_BUDGET", 2 * 418)
        cells = [quick_cfg(method, lam=1.0, lam_e=1.0, seed=seed, epochs=1)
                 for method, seed in (("ewc", 0), ("ewc", 1), ("si", 0),
                                      ("afec", 0))]
        calls = []

        def train(walk, group, _fn=continual._Walk.train):
            calls.append((group[0].t, [(walk.cfg(node).method,
                                        walk.cfg(node).seed)
                                       for node in group]))
            return _fn(walk, group)
        monkeypatch.setattr(continual._Walk, "train", train)
        run_sequence(cells, quick_pair())
        assert calls == [(t, rows) for rows in (
            [("ewc", 0), ("si", 0)], [("afec", 0)], [("ewc", 1)])
            for t in (0, 1)]

    def test_one_expansion_per_starting_network(self, monkeypatch):
        # the three roots share one network, so one expansion on the first
        # task; on the second each run has a network of its own
        rows = []

        def expand(nets, *args, _fn=continual.train_expanded, **kwargs):
            rows.append(len(nets))
            return _fn(nets, *args, **kwargs)
        monkeypatch.setattr(continual, "train_expanded", expand)
        cells = [quick_cfg(method, lam=1.0, lam_e=1.0, epochs=1)
                 for method in ("afec", "mas_afec", "si_afec", "ewc")]
        tasks = quick_pair()
        shared = run_sequence(cells, tasks)
        assert rows == [1, 3]
        assert [_outcome_text(r) for r in shared] == [
            _own_run(cell, tasks) for cell in cells]

    @pytest.mark.parametrize("seeds", [(0, 0, 0), (0, 0, 1)],
                             ids=["one_seed", "two_seeds"])
    def test_finished_subtrees_are_freed(self, monkeypatch, seeds):
        # one row per group: when a family starts its first task, the
        # networks made for the families walked before it, of its own seed
        # or of the seed walked before, are gone
        monkeypatch.setattr(continual, "_LOCKSTEP_BUDGET", 1)
        made = []

        def create(cls, *args, _fn=Network.create.__func__, **kwargs):
            net = _fn(cls, *args, **kwargs)
            made.append(weakref.ref(net))
            return net
        monkeypatch.setattr(Network, "create", classmethod(create))
        alive = {}

        def train(walk, group, _fn=continual._Walk.train):
            family = walk.cfg(group[0]).family
            if family not in alive:
                gc.collect()
                alive[family] = sum(ref() is not None for ref in made)
            return _fn(walk, group)
        monkeypatch.setattr(continual._Walk, "train", train)
        methods = ("ewc", "afec", "si")
        run_sequence([quick_cfg(method, lam=1.0, lam_e=1.0, epochs=1,
                                seed=seed)
                      for method, seed in zip(methods, seeds)], quick_pair())
        assert alive == {family: 1 for family in zip(seeds, methods)}

    def test_beyond_the_budget_the_walk_is_depth_first(self, monkeypatch):
        # P = 68,098 > 2**16, so one row at a time, one family after another
        arch = ArchSpec(hidden=[256, 256])
        cells = [quick_cfg("ewc", lam=lam, epochs=1, arch=arch)
                 for lam in (1.0, 10.0)]
        cells += [quick_cfg(method, lam=1.0, lam_e=1.0, epochs=1, arch=arch)
                  for method in ("si", "afec")]
        calls = []

        def train(walk, group, _fn=continual._Walk.train):
            calls.append((group[0].t, [(walk.cfg(node).method,
                                        walk.cfg(node).lam)
                                       for node in group]))
            return _fn(walk, group)
        monkeypatch.setattr(continual._Walk, "train", train)
        tasks = quick_pair()
        run_sequence(cells, tasks)
        walked, calls[:] = calls[:], []
        for family in (cells[:2], cells[2:3], cells[3:]):
            run_sequence(family, tasks)
        assert walked == calls
        assert walked == [(0, [("ewc", 1.0)]), (1, [("ewc", 1.0)]),
                          (1, [("ewc", 10.0)]), (0, [("si", 1.0)]),
                          (1, [("si", 1.0)]), (0, [("afec", 1.0)]),
                          (1, [("afec", 1.0)])]


class TestStatePersistence:
    def test_save_load_save_byte_identical(self, tmp_path):
        tasks = quick_pair()
        p1 = tmp_path / "s1.json"
        p2 = tmp_path / "s2.json"
        run_sequence(quick_cfg("ewc", lam=5.0, seed=0), tasks,
                     save_state_to=str(p1))
        net, state, seed = load_state(str(p1))
        save_state(str(p2), net, state, seed)
        assert p1.read_bytes() == p2.read_bytes()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        # the result file a resumed run writes is the uninterrupted run's
        tasks = quick_pair(2)
        cfg = quick_cfg("ewc", lam=5.0, seed=2)
        partial_path = tmp_path / "partial.json"
        run_sequence(cfg, tasks[:1], save_state_to=str(partial_path))
        resumed = run_sequence(cfg, tasks,
                               resume=load_state(str(partial_path)))
        assert _result_text(resumed) == _result_text(run_sequence(cfg, tasks))

    @pytest.mark.parametrize("method", METHODS)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), split=st.integers(1, 2),
           lam=st.sampled_from([0.0, 0.5, 20.0]),
           lam_e=st.sampled_from([0.0, 0.5, 20.0]))
    def test_resume_property(self, method, seed, split, lam, lam_e):
        """save -> load -> resume at any task boundary gives the result
        file of the uninterrupted run."""
        tasks = _RESUME_TASKS
        cfg = quick_cfg(method, lam=lam, lam_e=lam_e, seed=seed, epochs=2)
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "state.json")
            run_sequence(cfg, tasks[:split], save_state_to=path)
            resumed = run_sequence(cfg, tasks, resume=load_state(path))
        assert _result_text(resumed) == _result_text(run_sequence(cfg, tasks))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state(str(tmp_path / "nope.json"))

    def test_corrupt_json_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(FormatError, match="JSON"):
            load_state(str(path))

    def test_missing_field_named(self, tmp_path):
        tasks = quick_pair()
        path = tmp_path / "s.json"
        run_sequence(quick_cfg("ewc", lam=5.0, seed=0), tasks,
                     save_state_to=str(path))
        doc = json.loads(path.read_text())
        del doc["reg_state"]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="reg_state"):
            load_state(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        tasks = quick_pair()
        path = tmp_path / "s.json"
        run_sequence(quick_cfg("ewc", lam=5.0, seed=0), tasks,
                     save_state_to=str(path))
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="version"):
            load_state(str(path))

    def test_wrong_param_length_rejected(self, tmp_path):
        tasks = quick_pair()
        path = tmp_path / "s.json"
        run_sequence(quick_cfg("ewc", lam=5.0, seed=0), tasks,
                     save_state_to=str(path))
        doc = json.loads(path.read_text())
        doc["net"]["params"] = doc["net"]["params"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="params"):
            load_state(str(path))

    def test_resume_with_wrong_seed_rejected(self, tmp_path):
        tasks = quick_pair()
        path = tmp_path / "s.json"
        run_sequence(quick_cfg("ewc", lam=5.0, seed=0), tasks[:1],
                     save_state_to=str(path))
        net, state, seed = load_state(str(path))
        with pytest.raises(ConfigError):
            run_sequence(quick_cfg("ewc", lam=5.0, seed=1), tasks,
                         resume=(net, state, seed))

    def test_resume_longer_than_the_sequence_rejected(self, tmp_path):
        tasks = _RESUME_TASKS
        path = tmp_path / "s.json"
        run_sequence(quick_cfg("ewc", lam=5.0), tasks, save_state_to=str(path))
        with pytest.raises(ConfigError, match="trained 3 tasks, more than "
                                              "the sequence's 2"):
            run_sequence(quick_cfg("ewc", lam=5.0), tasks[:2],
                         resume=load_state(str(path)))

    def test_resume_of_a_finished_sequence_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        run_sequence(quick_cfg("ewc", lam=5.0), _RESUME_TASKS,
                     save_state_to=str(path))
        with pytest.raises(ConfigError, match="trained 3 tasks, all of the "
                                              "sequence's 3"):
            run_sequence(quick_cfg("ewc", lam=5.0), _RESUME_TASKS,
                         resume=load_state(str(path)))

    @pytest.mark.parametrize("saved,configured,accepted", [
        # Trained with tanh, configured with relu: training would go on
        # with tanh while the result recorded relu.
        ({"hidden": [8], "activation": "tanh"},
         {"hidden": [8], "activation": "relu"}, False),
        ({"hidden": [8], "activation": "relu"},
         {"hidden": [6], "activation": "relu"}, False),
        # A linear model has no activation to compare.
        ({"hidden": [], "activation": "tanh"},
         {"hidden": [], "activation": "relu"}, True)])
    def test_resume_must_match_the_configured_arch(self, tmp_path, saved,
                                                   configured, accepted):
        tasks = quick_pair()
        path = tmp_path / "s.json"
        run_sequence(quick_cfg("ewc", lam=5.0, arch=saved), tasks[:1],
                     save_state_to=str(path))
        cfg = quick_cfg("ewc", lam=5.0, arch=configured)
        if accepted:
            resumed = run_sequence(cfg, tasks, resume=load_state(str(path)))
            assert resumed.acc_matrix.T == 2
        else:
            with pytest.raises(ConfigError, match="arch"):
                run_sequence(cfg, tasks, resume=load_state(str(path)))

    def test_state_size_constant_across_task_counts(self, tmp_path):
        # compare a fixed-width serialization (8 bytes per stored number);
        # JSON text length wobbles with decimal rendering, which is about
        # formatting, not storage
        import pickle

        sizes = []
        for n in (1, 3, 5):
            tasks = [gen_angular_task(
                AngularLayout.identity(4), 20, 6, 0.5, seed=t, name=f"t{t}")
                for t in range(n)]
            path = tmp_path / f"s{n}.json"
            run_sequence(quick_cfg("ewc", lam=5.0, seed=0, epochs=2), tasks,
                         save_state_to=str(path))
            net, state, _ = load_state(str(path))
            assert state.task_count == n
            sizes.append(len(pickle.dumps(state.to_json())))
        assert len(set(sizes)) == 1


def _digest_case(params, *vectors):
    """A network stand-in holding `params`, and a RegState whose seven
    vectors are `vectors` cycled, in to_doc's order: anchor mean and
    precision, importance, path_accum, prev_params, fisher_ema and
    score_accum. The vectors need not be valid state."""
    net = types.SimpleNamespace(params=params, get_params=params.copy)
    state = RegState.zeros(1)
    state.anchor = DiagGaussian(np.zeros(1), np.zeros(1))
    owners = [state.anchor, state.anchor, *[state] * 5]
    names = ["mean", "precision", "importance", "path_accum", "prev_params",
             "fisher_ema", "score_accum"]
    for owner, name, vec in zip(owners, names,
                                itertools.cycle(vectors or [params])):
        setattr(owner, name, vec)
    return net, state


def _assert_digest_matches(net, state):
    assert _state_digest(net, state) == _old_state_digest(net, state)


@contextlib.contextmanager
def _counted_encodes():
    """Count the vectors that _state_digest encodes."""
    encoded = []
    original = continual._encode_array

    def encode(vec):
        encoded.append(vec)
        return original(vec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continual, "_encode_array", encode)
        yield encoded


# Floats around the places where repr changes form or precision.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, 1e-05, 9.999999999999999e-06,
                1.0000000000000001e-05, 0.0001, 9.999999999999999e-05, 1e16,
                9999999999999998.0, 1.0000000000000002e16, -1e16,
                1.7976931348623157e308, float("nan"), float("inf"),
                float("-inf")]

_vectors = st.lists(st.sampled_from(_EDGE_FLOATS)
                    | st.floats(allow_nan=True, allow_infinity=True),
                    max_size=6).map(lambda xs: np.array(xs, dtype=np.float64))


class TestDigestEncoder:
    """_state_digest against the one-string definition, _old_state_digest."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_one_string_definition(self, data):
        base = np.append(data.draw(_vectors), 0.0)
        # twins that differ only in the sign of their zeros
        twins = [base, np.where(base == 0.0, -base, base)]
        pool = data.draw(st.lists(_vectors, max_size=2)) + twins
        vectors = data.draw(st.lists(st.sampled_from(pool), min_size=8,
                                     max_size=8))
        _assert_digest_matches(*_digest_case(*vectors))

    def test_edge_floats(self):
        edge = np.array(_EDGE_FLOATS)
        _assert_digest_matches(*_digest_case(edge, edge[::-1].copy()))

    def test_each_distinct_vector_encoded_once(self):
        zeros, ones, nan = np.zeros(3), np.ones(2), np.array([np.nan])
        net, state = _digest_case(zeros, zeros.copy(), -zeros, nan,
                                  np.array([np.nan]), -zeros, ones, ones)
        with _counted_encodes() as encoded:
            _assert_digest_matches(net, state)
        assert len(encoded) == 4  # +0.0 zeros, -0.0 zeros, NaN, ones

    def test_only_repeated_vectors_are_kept(self):
        once, twice = np.arange(3.0), np.ones(2)
        kept = {}

        def profile(frame, event, arg):
            if (event == "return"
                    and frame.f_code is _state_digest.__code__):
                kept.update(frame.f_locals["texts"])
        sys.setprofile(profile)
        try:
            _state_digest(*_digest_case(once, twice, twice.copy()))
        finally:
            sys.setprofile(None)
        assert [*kept.values()] == [["[", "1.0,1.0", "]"]]

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2 * continual._ENCODE_BLOCK + 5])
    def test_long_vectors_encoded_in_blocks(self, extra):
        size = continual._ENCODE_BLOCK + extra
        vec = np.resize(np.array(_EDGE_FLOATS), size)
        vec[-1] = -0.0
        net, state = _digest_case(vec, vec.copy(), vec[::-1].copy())
        with _counted_encodes() as encoded:
            _assert_digest_matches(net, state)
        assert len(encoded) == 2

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_vectors, min_size=1, max_size=8))
    def test_block_boundaries(self, vectors):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(continual, "_ENCODE_BLOCK", 2)
            _assert_digest_matches(*_digest_case(*vectors))


def _old_state_digest(net, state):
    doc = {"params": net.get_params().tolist(), "reg_state": state.to_json()}
    return hashlib.sha256(_canonical(doc).encode()).hexdigest()


def _old_state_text(net, state, run):
    seed, rows, pre_train = run
    doc = {
        "version": 2,
        "net": {
            "input_dim": net.body[0].in_dim,
            "hidden": [l.out_dim for l in net.body],
            "activation": net.body[0].activation,
            "heads": [[name, l.out_dim] for name, l in net.heads.items()],
            "params": net.get_params().tolist(),
        },
        "reg_state": state.to_json(),
        "rng": {"scheme": "counter", "seed": seed},
        "acc_matrix": rows,
        "pre_train": [None, *pre_train[1:].tolist()],
    }
    return _canonical(doc) + "\n"


class TestStateDigest:
    @pytest.mark.parametrize("method", METHODS)
    def test_matches_one_string_definition(self, tmp_path, method):
        path = tmp_path / "s.json"
        result = run_sequence(quick_cfg(method, lam=2.0, lam_e=0.5, seed=0),
                              quick_pair(), save_state_to=str(path))
        net, state, seed = load_state(str(path))
        assert result.state_digest == _old_state_digest(net, state)
        assert _state_digest(net, state) == result.state_digest
        assert path.read_text() == _old_state_text(net, state, seed)

    def test_leaves_no_reference_cycles(self, tmp_path):
        path = tmp_path / "s.json"
        run_sequence(quick_cfg("mas", lam=2.0, seed=0), quick_pair(),
                     save_state_to=str(path))
        net, state, _ = load_state(str(path))
        gc.disable()
        try:
            gc.collect()
            _state_digest(net, state)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestAtomicStateWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "s.json"
        run_sequence(quick_cfg("ewc", lam=2.0, seed=0), quick_pair(),
                     save_state_to=str(path))
        before = path.read_bytes()
        net, state, seed = load_state(str(path))
        state.task_count += 1
        state.score_accum = object()  # json cannot encode it
        with pytest.raises(TypeError):
            save_state(str(path), net, state, seed)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]

    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s.json"
        run_sequence(quick_cfg("ewc", lam=2.0, seed=0), quick_pair(),
                     save_state_to=str(path))
        before = path.read_bytes()
        net, state, seed = load_state(str(path))
        net.params[0] += 1.0

        def fail(src, dst):
            raise OSError("replace failed")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            save_state(str(path), net, state, seed)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]

    def test_linear_model_round_trips(self, tmp_path):
        path = tmp_path / "s.json"
        cfg = quick_cfg("ewc", lam=2.0, seed=0, arch=ArchSpec(hidden=[]))
        result = run_sequence(cfg, quick_pair(), save_state_to=str(path))
        net, state, _ = load_state(str(path))
        assert not net.body
        assert _state_digest(net, state) == result.state_digest


def _set(keys, value):
    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value(doc[keys[-1]]) if callable(value) else value
    return mutate


def _drop(keys):
    def mutate(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return mutate


def _nan_at(i):
    return lambda vec: vec[:i] + [float("nan")] + vec[i + 1:]


class TestStrictLoadState:
    @pytest.fixture(scope="class")
    def state_doc(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("state") / "s.json"
        run_sequence(quick_cfg("rwalk", lam=2.0, seed=0), quick_pair(),
                     save_state_to=str(path))
        return json.loads(path.read_text())

    @pytest.mark.parametrize("field,mutate", [
        ("reg_state.importance", _set(["reg_state", "importance"],
                                      lambda v: v[:-1])),
        ("reg_state.path_accum", _set(["reg_state", "path_accum"], _nan_at(3))),
        ("reg_state.anchor.mean", _set(["reg_state", "anchor", "mean"],
                                       lambda v: ["0.5"] * len(v))),
        ("reg_state.anchor.precision", _set(
            ["reg_state", "anchor", "precision"],
            lambda v: [float("inf")] + v[1:])),
        ("reg_state.anchor", _set(["reg_state", "anchor", "precision"],
                                  lambda v: [-1.0] + v[1:])),
        ("reg_state.prev_params", _drop(["reg_state", "prev_params"])),
        ("reg_state.fisher_ema", _set(["reg_state", "fisher_ema"], None)),
        ("reg_state.score_accum", _set(["reg_state", "score_accum"],
                                       lambda v: [v, v])),
        ("reg_state.task_count", _set(["reg_state", "task_count"], "2")),
        ("net.params", _set(["net", "params"], lambda v: v + [0.0])),
        ("reg_state.task_count", _set(["reg_state", "task_count"], -1)),
        ("reg_state.task_count", _set(["reg_state", "task_count"], True)),
        ("net.activation", _set(["net", "activation"], "sigmoid")),
        ("net.hidden", _set(["net", "hidden"], [0])),
        ("net.input_dim", _set(["net", "input_dim"], 0)),
        ("net.heads", _set(["net", "heads"], [])),
        ("net.heads", _set(["net", "heads"], lambda h: [[h[0][0], 0]])),
        ("net.heads", _set(["net", "heads"], lambda h: h + h)),
        ("rng", _set(["rng", "seed"], "0")),
        # a JSON true among numbers, which numpy would read as 1.0
        ("net.params", _set(["net", "params"], lambda v: [True] + v[1:])),
        ("reg_state.importance", _set(["reg_state", "importance"],
                                      lambda v: v[:-1] + [True])),
        ("reg_state.anchor.mean", _set(["reg_state", "anchor", "mean"],
                                       lambda v: [False] + v[1:])),
        ("version", _set(["version"], True)),
        ("version", _set(["version"], 1.0)),
        ("reg_state.anchor", _set(["reg_state", "anchor"], 5)),
        ("reg_state", _set(["reg_state"], [])),
        ("reg_state.path_accum", _set(["reg_state", "path_accum"],
                                      lambda v: [v[:1]] + v[1:])),
        ("net.params", _drop(["net", "params"])),
        # the rows must number reg_state.task_count (2)
        ("acc_matrix", _set(["reg_state", "task_count"], 1)),
        ("acc_matrix", _set(["acc_matrix"], lambda a: a[:1])),
        ("acc_matrix", _set(["acc_matrix"], lambda a: a + [a[1] + [0.5]])),
        ("acc_matrix", _set(["acc_matrix"], lambda a: [a[1], a[0]])),
        ("acc_matrix", _set(["acc_matrix"], lambda a: [a[0], a[1][:1]])),
        ("acc_matrix", _set(["acc_matrix"], lambda a: [[True], a[1]])),
        ("acc_matrix", _set(["acc_matrix"], lambda a: [a[0], [a[1][0], 1.5]])),
        ("acc_matrix", _set(["acc_matrix"], lambda a: [[-0.25], a[1]])),
        ("acc_matrix", _set(["acc_matrix"], lambda a: [a[0], None])),
        ("acc_matrix", _set(["acc_matrix"], {})),
        ("acc_matrix", _drop(["acc_matrix"])),
        ("pre_train", _set(["pre_train"], lambda p: [0.5, p[1]])),
        ("pre_train", _set(["pre_train"], lambda p: [None, None])),
        ("pre_train", _set(["pre_train"], lambda p: [None, True])),
        ("pre_train", _set(["pre_train"], lambda p: [None, 2.0])),
        ("pre_train", _set(["pre_train"], lambda p: p[:1])),
        ("pre_train", _set(["pre_train"], lambda p: p + [0.5])),
        ("pre_train", _set(["pre_train"], 0.5)),
        ("pre_train", _drop(["pre_train"])),
        # a version-1 file: no rows, and a top-level task_count
        ("version", _set(["version"], 1)),
        ("reg_state.path_accum", _set(["reg_state", "path_accum"],
                                      lambda v: [0.5] + v[1:])),
    ])
    def test_bad_field_named(self, tmp_path, state_doc, field, mutate):
        doc = json.loads(json.dumps(state_doc))
        mutate(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=re.escape(field)):
            load_state(str(path))

    def test_not_utf8_named(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes('{"version": 1, "x": "\xff"}'.encode("latin-1"))
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: not UTF-8 (")):
            load_state(str(path))

    def test_unchanged_doc_loads(self, tmp_path, state_doc):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(state_doc))
        _, state, (seed, rows, pre_train) = load_state(str(path))
        assert (state.task_count, seed) == (2, 0)
        assert rows == state_doc["acc_matrix"]
        np.testing.assert_array_equal(pre_train,
                                      [np.nan, state_doc["pre_train"][1]])
