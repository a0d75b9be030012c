"""Config parsing, subcommands, exit codes, and grid parallelism."""

import concurrent.futures
import contextlib
import csv
import dataclasses
import functools
import glob
import io
import itertools
import json
import multiprocessing
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afec_lab
from afec_lab import cli, continual, metrics, tasks
from afec_lab.cli import (build_tasks, load_config, main,
                          parse_config, result_from_json, result_to_json)
from afec_lab.continual import SequenceConfig, run_sequence
from afec_lab.errors import ConfigError
from afec_lab.tasks import AngularLayout, gen_angular_task


def minimal_config(out_dir, **overrides):
    doc = {
        "version": 1,
        "benchmark": {"kind": "conflicting_pair", "num_classes": 6,
                      "samples_per_class": 20, "input_dim": 6,
                      "cluster_spread": 0.5, "seed": 0},
        "methods": ["finetune"],
        "lambda": 0,
        "lambda_e": 0,
        "seeds": [0],
        "epochs": 2,
        "batch_size": 16,
        "arch": {"hidden": [8], "activation": "relu"},
        "out_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_idx(tmp_path, num_classes, per_class, magic=0x00000803):
    """An IDX image/label pair of 2x2 images, `per_class` of each class."""
    labels = np.repeat(np.arange(num_classes), per_class).astype(np.uint8)
    images = np.random.default_rng(0).integers(
        0, 256, (len(labels), 2, 2)).astype(np.uint8)
    paths = (str(tmp_path / "images.idx"), str(tmp_path / "labels.idx"))
    with open(paths[0], "wb") as fh:
        fh.write(struct.pack(">IIII", magic, len(labels), 2, 2))
        fh.write(images.tobytes())
    with open(paths[1], "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(labels.tobytes())
    return paths


def assert_same_tasks(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, np.ndarray):
                np.testing.assert_array_equal(x, y)
            else:
                assert x == y, field.name


class TestParseConfig:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        doc = minimal_config(tmp_path, lamda=5)
        with pytest.raises(ConfigError, match="lamda"):
            parse_config(doc)

    def test_unknown_benchmark_key_rejected(self, tmp_path):
        doc = minimal_config(tmp_path)
        doc["benchmark"]["spread"] = 1.0
        with pytest.raises(ConfigError, match="spread"):
            parse_config(doc)

    def test_non_object_root_rejected(self):
        with pytest.raises(ConfigError, match="root must be a JSON object"):
            parse_config([])

    def test_wrong_version_rejected(self, tmp_path):
        doc = minimal_config(tmp_path, version=2)
        with pytest.raises(ConfigError, match="version"):
            parse_config(doc)

    def test_unknown_method_rejected(self, tmp_path):
        doc = minimal_config(tmp_path, methods=["gem"])
        with pytest.raises(ConfigError, match="gem"):
            parse_config(doc)

    def test_duplicate_seeds_rejected(self, tmp_path):
        doc = minimal_config(tmp_path, seeds=[1, 1])
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(doc)

    def test_missing_split_idx_file_rejected(self, tmp_path):
        doc = minimal_config(tmp_path)
        doc["benchmark"] = {"kind": "split_idx",
                            "images": str(tmp_path / "missing.idx"),
                            "labels": str(tmp_path / "missing2.idx"),
                            "classes_per_task": 5, "seed": 0}
        with pytest.raises(ConfigError, match="not found"):
            parse_config(doc)

    def test_scalar_and_list_hyperparameters(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path, **{"lambda": 5}))
        assert [cell.lam for cell in cfg.cells] == [5.0]
        cfg = parse_config(minimal_config(tmp_path,
                                          **{"lambda": [0, 1, 10]}))
        assert [cell.lam for cell in cfg.cells] == [0.0, 1.0, 10.0]

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(tmp_path, **{"lambda": []}))

    def test_file_not_found(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_directory(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape(
                f"config file cannot be read: {tmp_path} (IsADirectoryError")):
            load_config(str(tmp_path))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"out_dir": "r\xe9sultats"}')  # latin-1
        with pytest.raises(ConfigError, match=re.escape(
                f"config file cannot be read: {path} (UnicodeDecodeError")):
            load_config(str(path))


class TestRunSettings:
    """SequenceConfig owns the run settings: ExperimentConfig holds only
    the benchmark, the output directory and the cells."""

    RUN_KEYS = ("epochs", "batch_size", "optimizer", "arch",
                "expansion_epochs", "expansion_init")

    def test_no_shared_field(self):
        own = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
        assert own == {"benchmark", "out_dir", "cells"}
        assert not own & {f.name for f in dataclasses.fields(SequenceConfig)}

    def test_run_holds_the_keys_the_file_sets(self, tmp_path):
        doc = minimal_config(tmp_path, expansion_init="fresh_random")
        assert parse_config(doc).cells == [SequenceConfig(
            "finetune", 0.0, 0.0, epochs=2, batch_size=16,
            expansion_init="fresh_random",
            arch={"hidden": [8], "activation": "relu"})]

    def test_omitted_run_keys_take_sequence_config_defaults(self, tmp_path):
        out = tmp_path / "g"
        doc = minimal_config(out, methods=["ewc", "afec"], seeds=[0, 1],
                             **{"lambda": 2, "lambda_e": [0, 1]})
        for key in self.RUN_KEYS:
            doc.pop(key, None)
        assert main(["grid", "--config", write_config(tmp_path, doc)]) == 0
        for method, lam_e, seed in itertools.product(["ewc", "afec"], [0, 1],
                                                     [0, 1]):
            name = f"result_{method}_lam2_lame{lam_e}_seed{seed}.json"
            config = json.loads((out / name).read_text())["config"]
            assert config == dataclasses.asdict(
                SequenceConfig(method, 2.0, float(lam_e), seed=seed))

    def test_pool_workers_get_the_parsed_config(self, tmp_path, monkeypatch):
        seen = []  # the benchmark handed with each unit
        pool_class = concurrent.futures.ProcessPoolExecutor

        def recording(*args, **kwargs):
            pool = pool_class(*args, **kwargs)
            submit = pool.submit

            def recording_submit(fn, benchmark, cells):
                seen.append(benchmark)
                return submit(fn, benchmark, cells)
            pool.submit = recording_submit
            return pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            recording)
        doc = minimal_config(tmp_path / "g", seeds=[0, 1])
        assert main(["grid", "--config", write_config(tmp_path, doc),
                     "--jobs", "2"]) == 0
        assert seen == [parse_config(doc).benchmark] * 2


class TestBuildTasks:
    @pytest.mark.parametrize("kind,generator", [
        ("conflicting_pair", tasks.make_conflicting_pair),
        ("angular_sequence", tasks.make_angular_sequence)])
    def test_omitted_keys_take_generator_defaults(self, tmp_path, kind,
                                                  generator):
        doc = minimal_config(tmp_path)
        doc["benchmark"] = {"kind": kind}
        assert_same_tasks(build_tasks(parse_config(doc).benchmark),
                          list(generator()))

    def test_split_idx_omitted_keys_take_defaults(self, tmp_path):
        images, labels = write_idx(tmp_path, 10, 5)
        doc = minimal_config(tmp_path)
        doc["benchmark"] = {"kind": "split_idx", "images": images,
                            "labels": labels}
        assert_same_tasks(build_tasks(parse_config(doc).benchmark),
                          tasks.split_tasks(*tasks.load_idx(images, labels)))

    def test_conflicting_pair(self, tmp_path):
        cfg = parse_config(minimal_config(tmp_path))
        built = build_tasks(cfg.benchmark)
        assert len(built) == 2
        np.testing.assert_array_equal(built[0].inputs_train,
                                      built[1].inputs_train)

    def test_angular_sequence(self, tmp_path):
        doc = minimal_config(tmp_path)
        doc["benchmark"] = {"kind": "angular_sequence", "num_tasks": 3,
                            "num_classes": 6, "samples_per_class": 20,
                            "input_dim": 6, "cluster_spread": 0.5, "seed": 0}
        built = build_tasks(parse_config(doc).benchmark)
        assert len(built) == 3


class TestResultSerialization:
    def test_roundtrip(self):
        task = gen_angular_task(AngularLayout.identity(4), 20, 6, 0.5, 0)
        result = run_sequence(SequenceConfig(method="finetune", epochs=2,
                                             seed=0,
                                             arch={"hidden": [8],
                                                   "activation": "relu"}),
                              [task])
        back = result_from_json(result_to_json(result))
        assert back.checksum == result.checksum

    def test_roundtrip_of_a_resumed_run(self, tmp_path):
        # a run resumed at task 1 of 2 reads back as the whole run
        layouts = [AngularLayout.identity(4), AngularLayout.identity(4)]
        task_list = [gen_angular_task(layout, 20, 6, 0.5, k, name=f"t{k}")
                     for k, layout in enumerate(layouts)]
        cfg = SequenceConfig(method="ewc", lam=1.0, epochs=1, seed=0,
                             arch={"hidden": [8], "activation": "relu"})
        path = str(tmp_path / "state.json")
        run_sequence(cfg, task_list[:1], save_state_to=path)
        result = run_sequence(cfg, task_list,
                              resume=continual.load_state(path))
        doc = result_to_json(result)
        assert len(doc["per_task_new_accuracy"]) == 2
        back = result_from_json(json.loads(json.dumps(doc)))
        assert back.checksum == result.checksum
        assert back.per_task_new_accuracy == result.per_task_new_accuracy


class TestMainExitCodes:
    def test_run_success_and_outputs(self, tmp_path, capsys):
        out = tmp_path / "results"
        path = write_config(tmp_path, minimal_config(out))
        assert main(["run", "--config", path]) == 0
        assert (out / "summary.csv").exists()
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        path = write_config(tmp_path, minimal_config(tmp_path,
                                                     methods=["bogus"]))
        assert main(["run", "--config", path]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 2

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"out_dir": "r\xe9sultats"}')
        for path in (tmp_path, latin1):
            assert main(["run", "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith(
                f"config error: config file cannot be read: {path} (")

    def test_run_rejects_hyperparameter_lists(self, tmp_path, capsys):
        # 0 and -0.0 are equal values, but two cells with their own files
        for key, values in (("lambda", [0, 1]), ("lambda", [0, -0.0]),
                            ("lambda_e", [0, 1])):
            doc = minimal_config(tmp_path / "out", **{key: values})
            path = write_config(tmp_path, doc)
            assert main(["run", "--config", path]) == 2
            assert capsys.readouterr().err.startswith(
                "config error: lambda / lambda_e: run takes single values")
            assert not (tmp_path / "out").exists()

    def test_rerun_identical_summary(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        path = write_config(tmp_path, minimal_config(out1))
        assert main(["run", "--config", path]) == 0
        assert main(["run", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "summary.csv").read_bytes() == \
               (out2 / "summary.csv").read_bytes()

    def test_rerun_byte_identical_outputs(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        doc = minimal_config(out1, methods=["ewc", "afec"],
                             **{"lambda": 10, "lambda_e": 1})
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path]) == 0
        assert main(["run", "--config", path, "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert any(name.startswith("result_") for name in names)
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_stale_temp_file_is_replaced(self, tmp_path):
        # A writer killed mid-write leaves <file>.<pid>.tmp behind; a later
        # run with the same pid writes through it.
        clean, out = tmp_path / "clean", tmp_path / "stale"
        path = write_config(tmp_path, minimal_config(clean))
        assert main(["run", "--config", path]) == 0
        name = "result_finetune_lam0_lame0_seed0.json"
        out.mkdir()
        (out / f"{name}.{os.getpid()}.tmp").write_text("{\"partial")
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert (out / name).read_bytes() == (clean / name).read_bytes()
        assert not list(out.glob("*.tmp"))

    @staticmethod
    def blocked_config(tmp_path):
        """A config whose one result file's path is a directory, so its run
        fails after training, with exit 1."""
        doc = minimal_config(tmp_path / "out")
        cell = parse_config(doc).cells[0]
        result = cli._result_file(dataclasses.asdict(cell))
        (tmp_path / "out" / result).mkdir(parents=True)
        return write_config(tmp_path, doc)

    def test_repeated_failures_log_once_each(self, tmp_path, capsys):
        # Each run logs through the package handler, which main() replaces.
        path = self.blocked_config(tmp_path)
        for _ in range(2):
            assert main(["run", "--config", path]) == 1
            assert capsys.readouterr().err.count("ERROR run failed") == 1

    @pytest.mark.parametrize("level,shown", [("debug", True), ("info", False)])
    def test_traceback_only_at_debug(self, tmp_path, capsys, monkeypatch,
                                     level, shown):
        monkeypatch.setenv("AFEC_LAB_LOG", level)
        path = self.blocked_config(tmp_path)
        assert main(["run", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "ERROR run failed: IsADirectoryError" in err
        assert ("Traceback (most recent call last)" in err) == shown

    def test_seed_override(self, tmp_path):
        out = tmp_path / "results"
        path = write_config(tmp_path, minimal_config(out, seeds=[0, 1]))
        assert main(["run", "--config", path, "--seed-override", "7"]) == 0
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "7"


class TestConfigErrorsBeforeTraining:
    """Each bad value exits with code 2 before any cell trains, so no
    result file is written."""

    def assert_rejected(self, tmp_path, command, doc, *flags):
        path = write_config(tmp_path, doc)
        assert main([command, "--config", path, *flags]) == 2
        assert not list(tmp_path.glob("**/result_*.json"))

    @pytest.mark.parametrize("key,values", [
        ("lambda", [1, -1]), ("lambda_e", [0, -0.5]),
        ("lambda", [1, float("inf")]), ("lambda_e", [float("nan")])])
    def test_bad_penalty_strength(self, tmp_path, key, values):
        doc = minimal_config(tmp_path / "out", methods=["ewc", "afec"],
                             **{key: values})
        self.assert_rejected(tmp_path, "grid", doc)

    def test_negative_lambda_in_run(self, tmp_path):
        # finetune ignores lambda, so this was never caught during training
        doc = minimal_config(tmp_path / "out", **{"lambda": -1})
        self.assert_rejected(tmp_path, "run", doc)

    @pytest.mark.parametrize("key,value", [
        ("expansion_epochs", 0), ("expansion_epochs", -1),
        ("expansion_epochs", True), ("expansion_epochs", 1.5),
        ("epochs", True)])
    def test_bad_epoch_count(self, tmp_path, key, value):
        doc = minimal_config(tmp_path / "out", methods=["afec"],
                             **{"lambda_e": 1, key: value})
        self.assert_rejected(tmp_path, "run", doc)

    @pytest.mark.parametrize("optimizer", [
        {"kind": "adam", "momentum": 0.9}, {"kind": "sgd", "beta1": 0.9},
        {"kind": "rmsprop"}, "adam"])
    def test_optimizer_key_the_kind_ignores(self, tmp_path, optimizer):
        doc = minimal_config(tmp_path / "out", optimizer=optimizer)
        self.assert_rejected(tmp_path, "run", doc)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one(self, tmp_path, jobs):
        doc = minimal_config(tmp_path / "out")
        self.assert_rejected(tmp_path, "grid", doc, "--jobs", jobs)

    @pytest.mark.parametrize("optimizer", [
        {"kind": "adam", "lr": -1}, {"kind": "adam", "lr": 0},
        {"kind": "adam", "lr": True}, {"kind": "sgd", "lr": "x"},
        {"kind": "adam", "lr": float("nan")},
        {"kind": "sgd", "lr": float("inf")}, {"kind": "adam", "lr": None}])
    def test_bad_learning_rate(self, tmp_path, optimizer):
        doc = minimal_config(tmp_path / "out", optimizer=optimizer)
        self.assert_rejected(tmp_path, "run", doc)

    @pytest.mark.parametrize("momentum", [
        1, 1.5, -0.1, float("nan"), float("inf"), "0.9", True])
    def test_bad_momentum(self, tmp_path, momentum):
        doc = minimal_config(tmp_path / "out", optimizer={
            "kind": "sgd", "lr": 0.01, "momentum": momentum})
        self.assert_rejected(tmp_path, "run", doc)

    @pytest.mark.parametrize("arch", [
        {"hidden": [0]}, {"hidden": "64"}, {"hidden": [8, -1]},
        {"hidden": [True]}, {"hidden": [8.0]}, {"hidden": None},
        {"hidden": [8], "activation": "sigmoid"},
        {"hidden": [8], "activation": None}, "relu"])
    def test_bad_arch(self, tmp_path, arch):
        doc = minimal_config(tmp_path / "out", arch=arch)
        self.assert_rejected(tmp_path, "run", doc)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("kind,key,value", [
        ("conflicting_pair", "num_classes", 3.0),
        ("conflicting_pair", "num_classes", "x"),
        ("conflicting_pair", "num_classes", 1),
        ("conflicting_pair", "input_dim", 2.5),
        ("conflicting_pair", "input_dim", 0),
        ("conflicting_pair", "samples_per_class", 2),
        ("conflicting_pair", "seed", -1),
        ("conflicting_pair", "seed", True),
        ("conflicting_pair", "cluster_spread", "a"),
        ("conflicting_pair", "cluster_spread", 0),
        ("conflicting_pair", "cluster_spread", float("inf")),
        ("angular_sequence", "num_tasks", 0),
        ("split_idx", "classes_per_task", 1.5),
        ("split_idx", "images", 3)])
    def test_bad_benchmark_value(self, tmp_path, capsys, kind, key, value,
                                 jobs):
        doc = minimal_config(tmp_path / "out", methods=["ewc", "afec"],
                             seeds=[0, 1])
        if kind == "split_idx":
            images, labels = write_idx(tmp_path, 4, 5)
            doc["benchmark"] = {"kind": kind, "images": images,
                                "labels": labels, "classes_per_task": 2}
        doc["benchmark"].update(kind=kind, **{key: value})
        self.assert_rejected(tmp_path, "grid", doc, "--jobs", jobs)
        err = capsys.readouterr().err
        assert err.startswith(f"config error: benchmark.{key}: ")
        assert "Traceback" not in err and "initializer" not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("seeds", [[True], [0, -1], [0, 1.0], [[0]]])
    def test_bad_seed(self, tmp_path, capsys, seeds, jobs):
        doc = minimal_config(tmp_path / "out", seeds=seeds)
        self.assert_rejected(tmp_path, "grid", doc, "--jobs", jobs)
        assert capsys.readouterr().err.startswith("config error: seed")

    def test_negative_seed_override(self, tmp_path):
        doc = minimal_config(tmp_path / "out")
        self.assert_rejected(tmp_path, "run", doc, "--seed-override", "-1")

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_version_other_than_the_integer_1(self, tmp_path, capsys,
                                              version):
        doc = minimal_config(tmp_path / "out", version=version)
        self.assert_rejected(tmp_path, "run", doc)
        assert capsys.readouterr().err.startswith(
            f"config error: version: expected 1, got {version!r}")

    def test_bool_penalty_strength(self, tmp_path):
        doc = minimal_config(tmp_path / "out", **{"lambda": [1, True]})
        self.assert_rejected(tmp_path, "grid", doc)

    def test_empty_hidden_is_a_linear_model(self, tmp_path):
        out = tmp_path / "out"
        doc = minimal_config(out, arch={"hidden": [], "activation": "relu"},
                             optimizer={"kind": "sgd", "lr": 0.1,
                                        "momentum": 0.5})
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
        assert len(list(out.glob("result_*.json"))) == 1

    @pytest.mark.parametrize("out_dir,flags", [
        (5, []), ("", []), (None, ["--out", ""])])
    def test_bad_out_dir(self, tmp_path, capsys, out_dir, flags):
        doc = minimal_config(tmp_path / "out")
        if out_dir is not None:
            doc["out_dir"] = out_dir
        self.assert_rejected(tmp_path, "grid", doc, *flags)
        shown = "" if out_dir is None else out_dir
        assert capsys.readouterr().err == (
            f"config error: out_dir: expected a non-empty string, "
            f"got {shown!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", ["run", "grid", "datagen"])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_dir_that_is_or_lies_under_a_file(self, tmp_path, capsys,
                                                  under, command, jobs):
        # found only when the first result was written, after every cell
        # had trained: FileExistsError or NotADirectoryError, exit 1
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = str(blocker / "sub" if under else blocker)
        doc = minimal_config(tmp_path / "out", methods=["ewc", "afec"],
                             **{"lambda": 1, "lambda_e": 1})
        self.assert_rejected(tmp_path, command, doc, "--out", out,
                             "--jobs", jobs)
        assert capsys.readouterr().err == (
            f"config error: out_dir: cannot make {out!r} a directory: "
            f"{str(blocker)!r} is not one\n")
        assert blocker.read_text() == "kept\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "grid", "datagen"])
    def test_out_dir_that_climbs_back_to_a_file(self, tmp_path, capsys,
                                                monkeypatch, command):
        # os.makedirs would make `missing`, then fail on `file`, after
        # every cell had trained
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("kept\n")
        doc = minimal_config(tmp_path / "out", methods=["ewc", "afec"],
                             **{"lambda": 1, "lambda_e": 1})
        for out in ("missing/../file", "missing/sub/../../file/sub"):
            self.assert_rejected(tmp_path, command, doc, "--out", out)
            assert capsys.readouterr().err == (
                f"config error: out_dir: cannot make {out!r} a directory: "
                f"'file' is not one\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json",
                                                               "file"]

    def test_out_dir_through_a_symlink_to_a_directory(self, tmp_path):
        # link/.. is real/, not tmp_path/, where `out` is a file
        (tmp_path / "real" / "sub").mkdir(parents=True)
        (tmp_path / "link").symlink_to(tmp_path / "real" / "sub")
        (tmp_path / "out").write_text("kept\n")
        doc = minimal_config(tmp_path / "link" / ".." / "out")
        assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
        assert len(list((tmp_path / "real" / "out").glob("result_*"))) == 1
        assert (tmp_path / "out").read_text() == "kept\n"

    def test_failed_replace_keeps_previous_result(self, tmp_path,
                                                  monkeypatch):
        out = tmp_path / "out"
        path = write_config(tmp_path, minimal_config(out))
        assert main(["run", "--config", path]) == 0
        [result] = out.glob("result_*.json")
        before = result.read_bytes()
        path = write_config(tmp_path, minimal_config(out, epochs=3))

        def fail(src, dst):
            raise OSError("replace failed")
        monkeypatch.setattr(os, "replace", fail)
        assert main(["run", "--config", path]) == 1
        assert result.read_bytes() == before
        assert not list(out.glob("*.tmp"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("key,values,first,second", [
        ("lambda", [1, 1.0000000001], ("ewc", 1.0, 0.0, 0),
         ("ewc", 1.0000000001, 0.0, 0)),
        ("lambda", [1, 1], ("ewc", 1.0, 0.0, 0), ("ewc", 1.0, 0.0, 0)),
        ("lambda_e", [1234567, 1234568], ("ewc", 0.0, 1234567.0, 0),
         ("ewc", 0.0, 1234568.0, 0)),
        ("methods", ["ewc", "afec", "ewc"], ("ewc", 0.0, 0.0, 0),
         ("ewc", 0.0, 0.0, 0)),
        ("seeds", [0, 1, 0], ("ewc", 0.0, 0.0, 0), ("ewc", 0.0, 0.0, 0))])
    def test_cells_sharing_a_result_file(self, tmp_path, capsys, jobs, key,
                                         values, first, second):
        doc = minimal_config(tmp_path / "out", methods=["ewc"])
        doc[key] = values
        self.assert_rejected(tmp_path, "grid", doc, "--jobs", jobs)
        err = capsys.readouterr().err
        assert err.startswith("config error: methods, lambda, lambda_e and "
                              "seeds: ")
        assert f"cells {first!r} and {second!r} share the result file " in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


_DROP = object()  # the key is left out
_ODD_VALUES = [_DROP, None, True, -1, 0, 1.5, float("nan"), "", "x", [], {},
               [0, -1], ["ewc", "afec"], {"kind": "sgd", "lr": 0.1}]
# Axis values whose cells share file names: repeated, or printed alike.
_COLLIDING = [[1, 1], [0, 0], [1, 1.0000000001], [1234567, 1234568],
              ["ewc", "ewc"]]


class TestCliPromises:
    """A tiny grid config with one key dropped or set to an odd value keeps
    the CLI's promises: a config error exits 2 with one line before any
    cell trains and leaves nothing behind; an output path that a file
    blocks exits 1; otherwise each cell has its own result file or is
    named as failed (SGD can diverge), and only a failed cell exits 1."""

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(sorted(cli._TOP_FIELDS))
           | st.sampled_from(["out_dir", "lambda", "lambda_e", "methods",
                              "seeds"]),
           value=st.sampled_from(_ODD_VALUES) | st.sampled_from(_COLLIDING),
           out=st.sampled_from(["fresh", "file", "under_file"]))
    def test_exit_codes_keep_their_promises(self, key, value, out):
        doc = minimal_config(
            {"fresh": "out", "file": "blocker",
             "under_file": os.path.join("blocker", "out")}[out],
            methods=["ewc", "afec"], epochs=1, **{"lambda": [0, 1],
                                                  "lambda_e": 1})
        doc.pop(key, None)
        if value is not _DROP:
            doc[key] = value
        blocked = out != "fresh" and key != "out_dir"
        cwd, err = os.getcwd(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # so a relative out_dir lands in tmp
            try:
                with open("blocker", "w"), open("config.json", "w") as fh:
                    json.dump(doc, fh)
                with contextlib.redirect_stderr(err):
                    code = main(["grid", "--config", "config.json"])
                if code == 2:
                    assert err.getvalue().startswith("config error: ")
                    assert err.getvalue().count("\n") == 1
                    assert sorted(os.listdir()) == ["blocker", "config.json"]
                    return
                if blocked:
                    assert code == 1 and "ERROR run failed: " in err.getvalue()
                    return
                failed = err.getvalue().count("ERROR cell ")
                assert code == (1 if failed else 0), err.getvalue()
                config = parse_config(doc)
                names = {f"result_{metrics.cell_name(vars(cell))}.json"
                         for cell in config.cells}
                written = {name for name in os.listdir(config.out_dir)
                           if name.startswith("result_")}
                assert written <= names
                assert len(written) + failed == len(config.cells)
            finally:
                os.chdir(cwd)


# Values a result file's field or nested entry is replaced by: another JSON
# type, out of range, of a wrong length, or a boolean for a number.
_RESULT_VALUES = _ODD_VALUES + [False, 0.5, -0.5, 2, "a" * 64, "a/b", [0.5],
                                [0.5, 0.5, 0.5]]


def _typed(value):
    """A JSON value in which a boolean no longer equals the number 0 or 1;
    an int still equals its float."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return ("bool", value) if isinstance(value, bool) else value


def _json_paths(value, path=()):
    """The path of every key and nested entry of a JSON value."""
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


@pytest.fixture(scope="class")
def run_dir(tmp_path_factory):
    """The output directory of a valid two-cell `run`."""
    out = tmp_path_factory.mktemp("run") / "results"
    doc = minimal_config(out, methods=["ewc", "afec"], epochs=1,
                         **{"lambda": 1, "lambda_e": 1})
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["run", "--config", write_config(out.parent, doc)]) == 0
    return out


class TestResultFilePromises:
    """A result file with one field or nested entry replaced or deleted is
    either a config error naming the file, or exactly what `run` writes
    for its own fields, read back as written: `report` never exits 1."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_changed_result_is_named_or_read_back(self, run_dir, data):
        name = data.draw(st.sampled_from(
            sorted(p.name for p in run_dir.glob("result_*.json"))))
        doc = json.loads((run_dir / name).read_text())
        *parents, key = data.draw(st.sampled_from(list(_json_paths(doc))))
        value = data.draw(st.sampled_from(_RESULT_VALUES))
        holder = functools.reduce(lambda v, k: v[k], parents, doc)
        if value is _DROP:
            del holder[key]
        else:
            holder[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "results")
            shutil.copytree(run_dir, out)
            with open(os.path.join(out, name), "w") as fh:
                json.dump(doc, fh)
            config = os.path.join(tmp, "config.json")
            with open(config, "w") as fh:
                json.dump(minimal_config(out), fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["report", "--config", config])
            if code == 2:
                assert err.getvalue().startswith(
                    f"config error: {os.path.join(out, name)}: ")
                assert err.getvalue().count("\n") == 1
                return
            assert code == 0, err.getvalue()
            assert _typed(result_to_json(result_from_json(doc))) == _typed(doc)
            results = []
            for path in sorted(glob.glob(os.path.join(out, "result_*.json"))):
                with open(path) as fh:
                    results.append(result_from_json(json.load(fh)))
            metrics.emit_report(results, os.path.join(tmp, "again"))
            with open(os.path.join(out, "summary.csv")) as fh, open(
                    os.path.join(tmp, "again", "summary.csv")) as again:
                assert fh.read() == again.read()


class TestGrid:
    def grid_config(self, out_dir):
        return minimal_config(
            out_dir, methods=["ewc"], seeds=[0, 1],
            **{"lambda": 10, "lambda_e": [0.1, 1, 10]})

    def test_grid_rows_and_run_count(self, tmp_path):
        out = tmp_path / "g"
        path = write_config(tmp_path, self.grid_config(out))
        assert main(["grid", "--config", path]) == 0
        lines = (out / "grid.csv").read_text().strip().split("\n")
        assert lines[0] == "method,lambda,lambda_e,mean_acc,std_acc,seeds"
        assert len(lines) == 4
        results = list(out.glob("result_*.json"))
        assert len(results) == 6

    def test_signed_zero_settings_keep_their_rows(self, tmp_path):
        # 0 and -0.0 are equal numbers, but two cells with their own files,
        # so each is a setting of one seed, in numeric order
        out = tmp_path / "g"
        doc = minimal_config(out, methods=["ewc"], seeds=[0],
                             **{"lambda": [0, -0.0, 1]})
        assert main(["grid", "--config", write_config(tmp_path, doc)]) == 0
        assert len(list(out.glob("result_*.json"))) == 3
        rows = [line.split(",")
                for line in (out / "grid.csv").read_text().splitlines()]
        assert [row[:3] + row[5:] for row in rows[1:]] == [
            ["ewc", "-0", "0", "1"], ["ewc", "0", "0", "1"],
            ["ewc", "1", "0", "1"]]

    def test_best_cell_reported(self, tmp_path, capsys):
        out = tmp_path / "g"
        path = write_config(tmp_path, self.grid_config(out))
        main(["grid", "--config", path])
        printed = capsys.readouterr().out
        assert printed.startswith("best: method=ewc")

    def test_tie_breaks_to_smallest_lambda_e(self, tmp_path, capsys):
        # a finetune grid ignores the penalties entirely, so every cell ties
        out = tmp_path / "g"
        doc = minimal_config(out, methods=["finetune"], seeds=[0],
                             **{"lambda": [0, 1], "lambda_e": [0.5, 2]})
        path = write_config(tmp_path, doc)
        main(["grid", "--config", path])
        printed = capsys.readouterr().out
        assert "lambda=0 lambda_e=0.5" in printed

    def test_tie_names_the_run_key_method(self, tmp_path, capsys):
        # afec at lambda_e 0 is the ewc run under another name
        out = tmp_path / "g"
        doc = minimal_config(out, methods=["ewc", "afec"], seeds=[0],
                             **{"lambda": 100, "lambda_e": 0})
        assert main(["grid", "--config", write_config(tmp_path, doc)]) == 0
        assert capsys.readouterr().out.startswith(
            "best: method=ewc lambda=100 lambda_e=0 ")
        rows = [line.split(",")
                for line in (out / "grid.csv").read_text().splitlines()]
        assert [row[:3] for row in rows[1:]] == [["afec", "100", "0"],
                                                 ["ewc", "100", "0"]]
        assert rows[1][3:] == rows[2][3:]

    def test_serial_grid_parses_and_builds_once(self, tmp_path, monkeypatch):
        calls = {"parse_config": 0, "build_tasks": 0, "_run_cell": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        # afec at lambda_e > 0 expands, so all six cells are distinct runs;
        # the three of each seed form one family, and serially the grid is
        # one walk (one _run_cell) over the tasks built once
        doc = self.grid_config(tmp_path / "g")
        doc["methods"] = ["afec"]
        path = write_config(tmp_path, doc)
        assert main(["grid", "--config", path, "--jobs", "1"]) == 0
        assert calls == {"parse_config": 1, "build_tasks": 1, "_run_cell": 1}

    def test_equivalent_cells_train_once(self, tmp_path, monkeypatch):
        # Per seed, 12 cells hold 4 runs: finetune and ewc/afec at
        # lambda_e 0 are ewc at the effective lambda 0 or 1, and ewc ignores
        # lambda_e; only afec at lambda_e 1 (lambda 0 or 1) expands. The
        # ewc runs form one family and the afec runs another.
        doc = minimal_config(tmp_path / "serial",
                             methods=["finetune", "ewc", "afec"],
                             seeds=[0, 1],
                             **{"lambda": [0, 1], "lambda_e": [0, 1]})
        path = write_config(tmp_path, doc)
        units, learned = [], []

        def counted(task_list, cells, *args, _run_cell=cli._run_cell,
                    **kwargs):
            units.append((len(cells), {cell.strengths for cell in cells}))
            return _run_cell(task_list, cells, *args, **kwargs)

        def train(walk, group, _train=continual._Walk.train):
            learned.append([walk.cfg(node).seed for node in group])
            return _train(walk, group)
        monkeypatch.setattr(cli, "_run_cell", counted)
        monkeypatch.setattr(continual._Walk, "train", train)
        assert main(["grid", "--config", path, "--jobs", "1"]) == 0
        # One walk gets all 24 cells and walks each seed on its own; each
        # family trains two runs of two tasks that share the first, so
        # three tasks. Per seed, the two families train the first task in
        # lock-step, then their four branches the second.
        ewc, afec = {(0.0, 0.0), (1.0, 0.0)}, {(0.0, 1.0), (1.0, 1.0)}
        assert units == [(24, ewc | afec)]
        assert learned == [[0, 0], [0, 0, 0, 0], [1, 1], [1, 1, 1, 1]]
        assert main(["grid", "--config", path, "--jobs", "2",
                     "--out", str(tmp_path / "pool")]) == 0
        config = parse_config(doc)
        task_list = build_tasks(config.benchmark)
        names = set()
        for cell in config.cells:
            name = f"result_{metrics.cell_name(dataclasses.asdict(cell))}.json"
            own = result_to_json(run_sequence(cell, task_list))
            text = json.dumps(own, sort_keys=True) + "\n"
            assert (tmp_path / "serial" / name).read_text() == text
            assert (tmp_path / "pool" / name).read_text() == text
            names.add(name)
        for out in ("serial", "pool"):
            assert {p.name for p in (tmp_path / out).glob("result_*")} == names
        assert (tmp_path / "serial" / "grid.csv").read_bytes() == \
               (tmp_path / "pool" / "grid.csv").read_bytes()

    def test_stopped_serial_grid_keeps_finished_seeds(self, tmp_path,
                                                      monkeypatch):
        # Serially each seed is a unit, so seed 0's files are written when
        # its walk returns, before seed 1 starts.
        doc = minimal_config(tmp_path / "whole", methods=["ewc", "afec"],
                             seeds=[0, 1],
                             **{"lambda": [1, 10], "lambda_e": [0, 2]})
        path = write_config(tmp_path, doc)
        assert main(["grid", "--config", path, "--jobs", "1"]) == 0

        def train(walk, group, _train=continual._Walk.train):
            if walk.cfg(group[0]).seed == 1:
                raise KeyboardInterrupt
            return _train(walk, group)
        monkeypatch.setattr(continual._Walk, "train", train)
        stopped = tmp_path / "stopped"
        with pytest.raises(KeyboardInterrupt):
            main(["grid", "--config", path, "--jobs", "1",
                  "--out", str(stopped)])
        files = {p.name: p.read_bytes() for p in stopped.iterdir()}
        assert len(files) == 8
        assert all(name.endswith("_seed0.json") for name in files)
        assert files == {name: (tmp_path / "whole" / name).read_bytes()
                         for name in files}

    def test_stopped_serial_run_keeps_finished_families(self, tmp_path,
                                                        monkeypatch):
        # At one row per group the families of a seed are walked one after
        # another, and each result file is written as its run finishes, so
        # a run stopped in its third family keeps the first two.
        monkeypatch.setattr(continual, "_LOCKSTEP_BUDGET", 1)
        doc = minimal_config(tmp_path / "whole",
                             methods=["ewc", "afec", "si"],
                             **{"lambda": 1, "lambda_e": 1})
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", path]) == 0

        def train(walk, group, _train=continual._Walk.train):
            if walk.cfg(group[0]).method == "si":
                raise KeyboardInterrupt
            return _train(walk, group)
        monkeypatch.setattr(continual._Walk, "train", train)
        stopped = tmp_path / "stopped"
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", path, "--out", str(stopped)])
        files = {p.name: p.read_bytes() for p in stopped.iterdir()}
        assert sorted(files) == ["result_afec_lam1_lame1_seed0.json",
                                 "result_ewc_lam1_lame1_seed0.json"]
        assert files == {name: (tmp_path / "whole" / name).read_bytes()
                         for name in files}

    @pytest.mark.parametrize("methods,jobs,workers", [
        (["ewc"], 4, 2),    # ewc ignores lambda_e: one run per seed
        (["afec"], 4, 4),   # two families of three runs, split to 2+2+1+1
        (["afec"], 2, 2),   # one family per seed
        # finetune and ewc form one family of six cells and two runs per
        # seed, so four runs in all, each cell of a run in its unit
        (["finetune", "ewc"], 8, 4)])
    def test_pool_capped_at_distinct_runs(self, tmp_path, monkeypatch,
                                          methods, jobs, workers):
        seen = []
        pool_class = concurrent.futures.ProcessPoolExecutor

        def recording(*args, **kwargs):
            seen.append(kwargs["max_workers"])
            return pool_class(*args, **kwargs)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            recording)
        doc = self.grid_config(tmp_path / "g")
        doc["methods"] = methods
        path = write_config(tmp_path, doc)
        assert main(["grid", "--config", path, "--jobs", str(jobs)]) == 0
        assert seen == [workers]

    def test_one_unit_starts_no_pool(self, tmp_path, monkeypatch):
        # afec at lambda_e 0 is the ewc run: two cells, one run, one unit
        seen = []
        pool_class = concurrent.futures.ProcessPoolExecutor

        def recording(*args, **kwargs):
            seen.append(kwargs["max_workers"])
            return pool_class(*args, **kwargs)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            recording)
        doc = minimal_config(tmp_path, methods=["ewc", "afec"],
                             **{"lambda": 1, "lambda_e": 0})
        path = write_config(tmp_path, doc)
        files = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main(["grid", "--config", path, "--jobs", jobs,
                         "--out", str(out)]) == 0
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert seen == []
        assert files[0] == files[1] and len(files[0]) == 3

    def test_units_split_largest_first(self):
        assert cli._plan_units([[1], [2, 3, 4]], 1) == [[2, 3, 4], [1]]
        assert cli._plan_units([[1], [2, 3, 4]], 3) == [[3, 4], [1], [2]]
        assert cli._plan_units([[1], [2, 3]], 8) == [[1], [2], [3]]

    def test_parallel_matches_serial(self, tmp_path):
        out1 = tmp_path / "serial"
        out2 = tmp_path / "parallel"
        doc = self.grid_config(out1)
        path = write_config(tmp_path, doc)
        assert main(["grid", "--config", path, "--jobs", "1"]) == 0
        assert main(["grid", "--config", path, "--out", str(out2),
                     "--jobs", "4"]) == 0
        assert (out1 / "grid.csv").read_bytes() == \
               (out2 / "grid.csv").read_bytes()


def _with_config(change):
    """A result file's text with its config replaced by change(config)."""
    def corrupt(text):
        doc = json.loads(text)
        doc["config"] = change(doc["config"])
        return json.dumps(doc)
    return corrupt


def _with_fields(**fields):
    """A result file's text with the given fields replaced."""
    def corrupt(text):
        return json.dumps({**json.loads(text), **fields})
    return corrupt


def _with_first_pre_train(value):
    """A result file's text with pre_train[0] replaced."""
    def corrupt(text):
        doc = json.loads(text)
        doc["pre_train"][0] = value
        return json.dumps(doc)
    return corrupt


class TestDatagenAndReport:
    def test_datagen_prints_identity_angles(self, tmp_path, capsys):
        out = tmp_path / "data"
        doc = minimal_config(out)
        doc["benchmark"]["num_classes"] = 10
        path = write_config(tmp_path, doc)
        assert main(["datagen", "--config", path]) == 0
        printed = capsys.readouterr().out
        for angle in ("0.0 deg", "36.0 deg", "324.0 deg"):
            assert angle in printed
        assert (out / "taskA.csv").exists()
        assert (out / "taskB.csv").exists()

    def test_datagen_deterministic_files(self, tmp_path):
        doc = minimal_config(tmp_path / "d1")
        path = write_config(tmp_path, doc)
        main(["datagen", "--config", path])
        main(["datagen", "--config", path, "--out", str(tmp_path / "d2")])
        assert (tmp_path / "d1" / "taskA.csv").read_bytes() == \
               (tmp_path / "d2" / "taskA.csv").read_bytes()

    def test_report_rebuilds_from_results(self, tmp_path):
        out = tmp_path / "results"
        path = write_config(tmp_path, minimal_config(out))
        main(["run", "--config", path])
        summary = (out / "summary.csv").read_bytes()
        (out / "summary.csv").unlink()
        assert main(["report", "--config", path]) == 0
        assert (out / "summary.csv").read_bytes() == summary

    def test_report_on_a_grid_keeps_every_cell(self, tmp_path):
        out = tmp_path / "g"
        doc = minimal_config(out, methods=["ewc"], seeds=[0, 1],
                             **{"lambda": [1, 10], "lambda_e": [0, 2]})
        path = write_config(tmp_path, doc)
        assert main(["grid", "--config", path]) == 0
        assert main(["report", "--config", path]) == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert rows[0].startswith("method,seed,lambda,lambda_e,T,")
        cells = [row.split(",")[:4] for row in rows[1:]]
        assert cells == [["ewc", str(seed), lam, lam_e]
                         for lam in ("1", "10") for lam_e in ("0", "2")
                         for seed in (0, 1)]
        results = sorted(p.name for p in out.glob("result_*.json"))
        assert len(results) == 8
        assert sorted(p.name for p in out.glob("matrix_*.json")) == [
            "matrix_" + name.removeprefix("result_") for name in results]

    def test_report_on_two_benchmarks(self, tmp_path):
        # a 3-task ewc run and a 2-task afec run in one directory
        out = tmp_path / "mixed"
        three = minimal_config(out, methods=["ewc"], epochs=1)
        three["benchmark"] = {"kind": "angular_sequence", "num_tasks": 3,
                              "num_classes": 4, "samples_per_class": 10,
                              "input_dim": 6}
        assert main(["run", "--config", write_config(tmp_path, three)]) == 0
        two = minimal_config(out, methods=["afec"], lambda_e=1, epochs=1)
        assert main(["run", "--config", write_config(tmp_path, two)]) == 0
        (out / "new_task_accuracy.svg").unlink()
        assert main(["report", "--config", write_config(tmp_path, two)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["2", "3"]
        svg = (out / "new_task_accuracy.svg").read_text()
        lines = re.findall(r'<polyline points="([^"]*)"', svg)
        assert [len(points.split()) for points in lines] == [2, 3]
        assert (out / "avg_accuracy.svg").exists()

    def test_report_without_results_exits_2(self, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        path = write_config(tmp_path, minimal_config(out))
        assert main(["report", "--config", path]) == 2

    @pytest.mark.parametrize("corrupt,error", [
        (lambda text: '{"config": {}}', "KeyError: 'pre_train'"),
        (lambda text: text[:len(text) // 2], "JSONDecodeError: "),
        (lambda text: re.sub(r'"acc_matrix": \[\[[^]]*', '"acc_matrix": [[2.0',
                             text),
         "ShapeError: accuracies must lie in [0, 1]"),
        (_with_config(lambda c: {k: v for k, v in c.items()
                                 if k != "method"}),
         "FormatError: field 'config' must be an object"),
        (_with_config(lambda c: {**c, "lam": "x"}),
         "FormatError: field 'config' must be an object"),
        (_with_config(lambda c: [c]),
         "FormatError: field 'config' must be an object"),
        (_with_fields(pre_train=[None]),
         "ShapeError: pre_train must hold 2 accuracies, each NaN or in "
         "[0, 1]"),
        (_with_fields(pre_train=[None, "x"]),
         "ShapeError: pre_train must hold 2 accuracies"),
        (_with_fields(acc_matrix=[], abar=[], pre_train=[]),
         "ShapeError: an accuracy matrix needs at least one task"),
        (_with_fields(acc_matrix=[[True], [True, False]]),
         "ShapeError: accuracies must lie in [0, 1]"),
        (_with_fields(pre_train=[None, True]),
         "ShapeError: pre_train must hold 2 accuracies, each NaN or in "
         "[0, 1]"),
        (_with_fields(abar=[7.0, -3.0]),
         "ShapeError: abar must hold 2 accuracies, each in [0, 1]"),
        (_with_fields(per_task_new_accuracy=["x", 7]),
         "FormatError: field 'per_task_new_accuracy' is not what a run "
         "writes"),
        (_with_fields(per_task_new_accuracy=[5.0, -2.0]),
         "FormatError: field 'per_task_new_accuracy' is not what a run"),
        (_with_fields(per_task_new_accuracy=[0.5]),
         "FormatError: field 'per_task_new_accuracy' is not what a run"),
        (_with_fields(per_task_new_accuracy=[True, 0.5]),
         "FormatError: field 'per_task_new_accuracy' is not what a run"),
        (_with_fields(per_task_new_accuracy=0.5),
         "FormatError: field 'per_task_new_accuracy' is not what a run"),
        (_with_fields(state_digest=5),
         "FormatError: field 'state_digest' must be a 64-character "
         "lowercase hex string"),
        (_with_fields(state_digest="A" * 64),
         "FormatError: field 'state_digest' must be a 64-character"),
        (_with_fields(state_digest="a" * 63),
         "FormatError: field 'state_digest' must be a 64-character"),
        (_with_fields(abar=[0.333, True]),
         "ShapeError: abar must hold 2 accuracies, each in [0, 1]"),
        (_with_fields(pre_train=[None, float("nan")]),
         "FormatError: field 'pre_train' is not what a run writes"),
        (_with_config(lambda c: {**c, "method": "a/b"}),
         "FormatError: field 'config' must be an object of run settings "
         "(ConfigError: unknown method 'a/b')"),
        (_with_config(lambda c: {**c, "method": "x"}),
         "FormatError: field 'config' must be an object of run settings "
         "(ConfigError: unknown method 'x')"),
        (_with_config(lambda c: {**c, "lam": -5}),
         "FormatError: field 'config' must be an object of run settings "
         "(ConfigError: lambda: expected a finite number >= 0, got -5)"),
        (_with_config(lambda c: {**c, "lam_e": -0.5}),
         "FormatError: field 'config' must be an object of run settings "
         "(ConfigError: lambda_e: expected a finite number >= 0"),
        (_with_config(lambda c: {k: v for k, v in c.items() if k != "lam"}),
         "FormatError: field 'config' is not what a run writes"),
        (_with_config(lambda c: {**c, "seed": 1}),
         "FormatError: its config names the file "
         "result_finetune_lam0_lame0_seed1.json"),
        (_with_fields(extra=1),
         "FormatError: field 'extra' is not what a run writes"),
        *[(_with_fields(pre_train=value),
           "FormatError: field 'pre_train' must be a list")
          for value in (5, 0.5, True, None)],
        *[(_with_first_pre_train(value),
           "FormatError: field 'pre_train' must be null exactly at task 1")
          for value in (0, 0.5)],
        (_with_fields(pre_train=[None, None]),
         "FormatError: field 'pre_train' must be null exactly at task 1")],
        ids=["no_fields", "truncated", "accuracy_2", "no_method", "lam_x",
             "config_list", "pre_train_short", "pre_train_x",
             "empty_matrix", "acc_bool", "pre_train_bool",
             "abar_out_of_range", "new_acc_x", "new_acc_out_of_range",
             "new_acc_short", "new_acc_bool", "new_acc_scalar",
             "digest_int", "digest_upper", "digest_short", "abar_bool",
             "pre_train_nan", "method_slash", "method_x", "lam_negative",
             "lam_e_negative", "no_lam", "another_cells_file", "extra_field",
             "pre_train_5", "pre_train_half",
             "pre_train_true", "pre_train_null", "pre_train_0_zero",
             "pre_train_0_half", "pre_train_1_null"])
    def test_report_names_an_unreadable_result(self, tmp_path, capsys,
                                               corrupt, error):
        out = tmp_path / "results"
        path = write_config(tmp_path, minimal_config(out))
        assert main(["run", "--config", path]) == 0
        bad = out / "result_finetune_lam0_lame0_seed0.json"
        bad.write_text(corrupt(bad.read_text()))
        capsys.readouterr()
        assert main(["report", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: {error}")
        assert err.count("\n") == 1

    def test_report_on_a_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing"
        path = write_config(tmp_path, minimal_config(out))
        assert main(["report", "--config", path]) == 2
        assert capsys.readouterr().err == \
            f"config error: no result_*.json files in {out}\n"
        assert not out.exists()


def diverging_grid(out_dir):
    """Two cells; SGD with lambda=1e9 diverges on the second task."""
    return minimal_config(out_dir, methods=["ewc"], seeds=[0],
                          optimizer={"kind": "sgd", "lr": 0.01},
                          **{"lambda": [1, 1e9]})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCellFailures:
    FAILED = "method=ewc lambda=1e+09 lambda_e=0 seed=0"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_cell_named_and_finished_cells_kept(self, tmp_path,
                                                       capsys, jobs):
        out = tmp_path / "g"
        path = write_config(tmp_path, diverging_grid(out))
        assert main(["grid", "--config", path, "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert (f"ERROR cell {self.FAILED} failed: NumericError: "
                "non-finite gradient") in err
        assert "ERROR 1 of 2 cells failed" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == [
            "grid.csv", "result_ewc_lam1_lame0_seed0.json"]
        with open(out / "grid.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "lambda", "lambda_e", "mean_acc",
                           "std_acc", "seeds", "failed_seed", "error"]
        assert rows[1][:3] == ["ewc", "1", "0"] and rows[1][5:] == ["1", "", ""]
        assert rows[2][:7] == ["ewc", "1e+09", "0", "", "", "", "0"]
        assert rows[2][7].startswith("NumericError: non-finite")
        assert len(rows) == 3

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_equivalent_failed_cells_each_named(self, tmp_path, capsys,
                                                jobs):
        # afec at lambda_e 0 shares ewc's run, and so its failure
        doc = diverging_grid(tmp_path / "g")
        doc["methods"] = ["ewc", "afec"]
        path = write_config(tmp_path, doc)
        assert main(["grid", "--config", path, "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        for method in ("ewc", "afec"):
            assert (f"ERROR cell method={method} lambda=1e+09 lambda_e=0 "
                    f"seed=0 failed: NumericError") in err
        assert "ERROR 2 of 4 cells failed" in err
        with open(tmp_path / "g" / "grid.csv", newline="") as fh:
            failed = [row[:3] for row in csv.reader(fh) if row[6:7] == ["0"]]
        assert failed == [["ewc", "1e+09", "0"], ["afec", "1e+09", "0"]]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_diverging_branch_keeps_its_siblings(self, tmp_path, capsys,
                                                 jobs):
        # lambda 1, 1e9 and 10 form one family: they share the first task
        # and branch on the second, where only lambda 1e9 diverges
        out = tmp_path / "g"
        doc = diverging_grid(out)
        doc["lambda"] = [1, 1e9, 10]
        path = write_config(tmp_path, doc)
        assert main(["grid", "--config", path, "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert f"ERROR cell {self.FAILED} failed: NumericError" in err
        assert "ERROR 1 of 3 cells failed" in err
        config = parse_config(doc)
        task_list = build_tasks(config.benchmark)
        for cell in config.cells[::2]:  # lambda 1 and 10
            own = result_to_json(run_sequence(cell, task_list))
            name = f"result_ewc_lam{cell.lam:g}_lame0_seed0.json"
            assert (out / name).read_text() == \
                json.dumps(own, sort_keys=True) + "\n"
        assert sorted(p.name for p in out.glob("result_*")) == [
            "result_ewc_lam10_lame0_seed0.json",
            "result_ewc_lam1_lame0_seed0.json"]

    def test_divergence_prints_no_numpy_warning(self, tmp_path):
        path = write_config(tmp_path, diverging_grid(tmp_path / "g"))
        err = subprocess.run([sys.executable, "-m", "afec_lab.cli", "grid",
                              "--config", path, "--jobs", "2"],
                             env=fresh_env(), capture_output=True,
                             text=True).stderr
        assert "ERROR 1 of 2 cells failed" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cell_traceback_at_debug(self, tmp_path, capsys, monkeypatch,
                                     jobs):
        monkeypatch.setenv("AFEC_LAB_LOG", "debug")
        path = write_config(tmp_path, diverging_grid(tmp_path / "g"))
        assert main(["grid", "--config", path, "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert f"ERROR cell {self.FAILED} failed" in err
        # from a pool worker, the worker's own frames come along
        assert "Traceback (most recent call last)" in err
        assert "in train_lockstep" in err

    def test_shared_failure_traceback_at_debug(self, tmp_path, capsys,
                                               monkeypatch):
        # Per seed, ewc and afec at lambda_e 0 fail in one branch of a pool
        # worker's walk; each cell's log keeps the worker's frames. Two
        # seeds make two units, so a pool runs them.
        monkeypatch.setenv("AFEC_LAB_LOG", "debug")
        doc = diverging_grid(tmp_path / "g")
        doc.update(methods=["ewc", "afec"], seeds=[0, 1], **{"lambda": [1e9]})
        path = write_config(tmp_path, doc)
        assert main(["grid", "--config", path, "--jobs", "2"]) == 1
        err = capsys.readouterr().err
        assert "ERROR 4 of 4 cells failed" in err
        assert err.count("in train_lockstep") == 4

    def test_debug_log_same_from_the_pool(self, tmp_path):
        # The ERROR lines and their tracebacks, byte for byte; workers
        # interleave their INFO lines with the parent's, so those go.
        doc = diverging_grid(tmp_path / "g")
        doc["methods"] = ["ewc", "afec"]
        path = write_config(tmp_path, doc)
        logs = []
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "afec_lab.cli", "grid", "--config",
                 path, "--jobs", jobs, "--out", str(tmp_path / jobs)],
                env={**fresh_env(), "AFEC_LAB_LOG": "debug"},
                capture_output=True, text=True)
            assert proc.returncode == 1
            logs.append([line for line in proc.stderr.splitlines()
                         if not line.startswith("INFO ")])
        assert logs[0] == logs[1]
        assert sum(line.startswith("ERROR cell ") for line in logs[0]) == 2
        assert logs[0].count("Traceback (most recent call last):") == 2

    def test_diverging_fisher_is_a_numeric_error(self, tmp_path, capsys):
        # SGD at lr 0.1 diverges on the first task, and the afec runs'
        # Fisher estimates meet the overflowed per-sample gradients
        doc = minimal_config(tmp_path / "g", methods=["ewc", "afec"],
                             seeds=[1], epochs=1,
                             optimizer={"kind": "sgd", "lr": 0.1},
                             **{"lambda": [0, 1], "lambda_e": 1})
        assert main(["grid", "--config", write_config(tmp_path, doc)]) == 1
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("ERROR cell ")]
        assert failed and all("NumericError" in line for line in failed)
        assert any("per-sample gradient moment" in line for line in failed)

    def test_setting_with_a_failed_seed_is_never_best(self, tmp_path, capsys,
                                                      monkeypatch):
        # finetune ignores lambda, so lambda 0 and 1 tie and 0 wins; with
        # its weaker seed failed, lambda 0 would have the higher mean
        out = tmp_path / "g"
        doc = minimal_config(out, seeds=[0, 1], **{"lambda": [0, 1]})
        path = write_config(tmp_path, doc)
        assert main(["grid", "--config", path]) == 0
        assert capsys.readouterr().out.startswith(
            "best: method=finetune lambda=0 ")
        weak = int(np.argmin([metrics.acc(result_from_json(json.loads(
            (out / f"result_finetune_lam0_lame0_seed{seed}.json")
            .read_text())).acc_matrix) for seed in (0, 1)]))

        def failing(task_list, cells, on_outcome, *args,
                    _run_cell=cli._run_cell, **kwargs):
            def injected(i, outcome):
                if (cells[i].lam, cells[i].seed) == (0.0, weak):
                    outcome = RuntimeError("injected")
                on_outcome(i, outcome)
            return _run_cell(task_list, cells, injected, *args, **kwargs)
        monkeypatch.setattr(cli, "_run_cell", failing)
        assert main(["grid", "--config", path, "--out",
                     str(tmp_path / "f")]) == 1
        assert capsys.readouterr().out.startswith(
            "best: method=finetune lambda=1 ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("methods", [["finetune", "ewc"], ["ewc"]])
    def test_run_reports_finished_cells(self, tmp_path, capsys, jobs,
                                        methods):
        # finetune ignores lambda, so only ewc diverges
        out, whole = tmp_path / "r", tmp_path / "whole"
        doc = minimal_config(out, methods=methods,
                             optimizer={"kind": "sgd", "lr": 0.01},
                             **{"lambda": 1e9})
        assert main(["run", "--config", write_config(tmp_path, doc),
                     "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert f"ERROR cell {self.FAILED} failed" in err
        finished = methods[:-1]
        if finished:
            assert "WARNING report covers 1 of 2 cells" in err
        else:
            assert "report covers" not in err
        # the files of a run of the finished cells alone; none without one
        whole.mkdir()
        if finished:
            doc.update(methods=finished, out_dir=str(whole))
            assert main(["run", "--config", write_config(tmp_path, doc)]) == 0
        assert ({p.name: p.read_bytes() for p in out.iterdir()}
                == {p.name: p.read_bytes() for p in whole.iterdir()})

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_grid_of_failed_cells_keeps_its_table(self, tmp_path, capsys,
                                                  jobs):
        # The output directory appears with the first outcome, a failed one
        # included, so the table of failures still has a home.
        out = tmp_path / "g"
        doc = diverging_grid(out)
        doc["lambda"] = [1e9]
        path = write_config(tmp_path, doc)
        assert main(["grid", "--config", path, "--jobs", jobs]) == 1
        assert "ERROR 1 of 1 cells failed" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["grid.csv"]
        with open(out / "grid.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][:7] == ["ewc", "1e+09", "0", "", "", "", "0"]
        assert len(rows) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unwritable_result_stops_the_grid(self, tmp_path, capsys, jobs):
        # A directory where the first result file goes: writing it fails,
        # which is not a cell failure, so the command stops there.
        out = tmp_path / "g"
        (out / "result_ewc_lam1_lame0_seed0.json").mkdir(parents=True)
        path = write_config(tmp_path, diverging_grid(out))
        assert main(["grid", "--config", path, "--jobs", jobs]) == 1
        assert "ERROR run failed: IsADirectoryError" in capsys.readouterr().err
        assert not (out / "grid.csv").exists()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the patch reaches pool workers by fork")
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_raising_unit_ends_the_run(self, tmp_path, capsys, monkeypatch,
                                       jobs):
        # A unit that raises is not a cell failure: serially or from the
        # pool, it ends the command with one line and writes no table.
        def broken(cells, task_list, *args, **kwargs):
            raise RuntimeError("unit broke")
        monkeypatch.setattr(cli, "run_sequence", broken)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            functools.partial(
                                concurrent.futures.ProcessPoolExecutor,
                                mp_context=multiprocessing.get_context(
                                    "fork")))
        out = tmp_path / "g"
        doc = minimal_config(out, methods=["ewc", "afec"], seeds=[0, 1])
        assert main(["grid", "--config", write_config(tmp_path, doc),
                     "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err == "ERROR run failed: RuntimeError: unit broke\n"
        assert not out.exists()

    def test_grid_without_failures_keeps_its_table(self, tmp_path):
        out = tmp_path / "g"
        doc = minimal_config(out, methods=["ewc", "afec"], seeds=[0, 1],
                             **{"lambda": [1, 10], "lambda_e": [0, 2]})
        assert main(["grid", "--config", write_config(tmp_path, doc)]) == 0
        lines = ["method,lambda,lambda_e,mean_acc,std_acc,seeds"]
        for method in ("afec", "ewc"):
            for lam in (1, 10):
                for lam_e in (0, 2):
                    accs = []
                    for seed in (0, 1):
                        name = (f"result_{method}_lam{lam}_lame{lam_e}"
                                f"_seed{seed}.json")
                        result = result_from_json(
                            json.loads((out / name).read_text()))
                        accs.append(metrics.acc(result.acc_matrix))
                    lines.append(f"{method},{lam},{lam_e},"
                                 f"{float(np.mean(accs)):.6f},"
                                 f"{float(np.std(accs)):.6f},2")
        assert (out / "grid.csv").read_text() == "\n".join(lines) + "\n"


class TestTaskBuildErrors:
    """An error that only building the tasks finds is reported alike
    serially and from the pool: exit 2, one line, no traceback, and no
    output directory."""

    @pytest.mark.parametrize("problem", ["bad_magic", "indivisible",
                                         "no_images"])
    def test_serial_and_pool_alike(self, tmp_path, problem):
        images, labels = write_idx(
            tmp_path, 0 if problem == "no_images" else 6, 4,
            magic=0xDEAD if problem == "bad_magic" else 0x00000803)
        doc = minimal_config(tmp_path / "out", methods=["ewc", "afec"],
                             seeds=[0, 1])
        doc["benchmark"] = {"kind": "split_idx", "images": images,
                            "labels": labels,
                            "classes_per_task": 4 if problem == "indivisible"
                            else 2}
        path = write_config(tmp_path, doc)
        errors = []
        for jobs in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "afec_lab.cli",
                                   "grid", "--config", path, "--jobs", jobs],
                                  env=fresh_env(), capture_output=True,
                                  text=True)
            assert proc.returncode == 2
            assert not (tmp_path / "out").exists()
            errors.append(proc.stderr)
        assert errors[0] == errors[1]
        assert errors[0].startswith("config error: ")
        assert errors[0].count("\n") == 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_class_too_small_to_split(self, tmp_path, jobs):
        # 80/20 of two images leaves the test split empty
        images, labels = write_idx(tmp_path, 4, 2)
        doc = minimal_config(tmp_path / "out", methods=["ewc", "afec"])
        doc["benchmark"] = {"kind": "split_idx", "images": images,
                            "labels": labels, "classes_per_task": 2}
        proc = subprocess.run([sys.executable, "-m", "afec_lab.cli", "run",
                               "--config", write_config(tmp_path, doc),
                               "--jobs", jobs],
                              env=fresh_env(), capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: class ")
        assert "has 2 image(s); split_idx needs at least 3 per class" in \
            proc.stderr
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestIdxHeaderErrors:
    """An IDX header that declares empty images, or more bytes than its
    file holds, is a config error that names the file, at any --jobs."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("header,problem", [
        ((0xFFFFFFFF, 0xFFFF, 0xFFFF), "truncated at offset 16: expected "
         f"{0xFFFFFFFF * 0xFFFF * 0xFFFF} bytes, the file holds 96"),
        ((24, 0, 0), "image size 0x0 at offset 8; rows and cols must be "
         ">= 1")], ids=["huge", "empty"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, jobs, header,
                                     problem):
        images, labels = write_idx(tmp_path, 6, 4)
        with open(images, "r+b") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, *header))
        doc = minimal_config(tmp_path / "out", methods=["ewc", "afec"],
                             seeds=[0, 1])
        doc["benchmark"] = {"kind": "split_idx", "images": images,
                            "labels": labels, "classes_per_task": 2}
        assert main(["grid", "--config", write_config(tmp_path, doc),
                     "--jobs", jobs]) == 2
        assert capsys.readouterr().err == \
            f"config error: {images}: {problem}\n"
        assert not (tmp_path / "out").exists()


# -- OpenBLAS idle-thread timeout ---------------------------------------------

_TIMEOUT_VAR = "OPENBLAS_THREAD_TIMEOUT"

# Prints the timeout in the environment at the moment numpy is first
# imported, seen from an audit hook, not from the environment afterwards.
_PROBE = """
import os, sys
seen = []
def hook(event, args):
    if event == "import" and args[0] == "numpy" and not seen:
        seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.addaudithook(hook)
import afec_lab
print(seen)
"""


def fresh_env(timeout=None) -> dict:
    """This process's environment for a fresh interpreter that imports the
    afec_lab under test, with the timeout unset or set to `timeout`."""
    env = {k: v for k, v in os.environ.items() if k != _TIMEOUT_VAR}
    src = os.path.dirname(os.path.dirname(afec_lab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["AFEC_LAB_LOG"] = "quiet"
    if timeout is not None:
        env[_TIMEOUT_VAR] = timeout
    return env


class TestBlasThreadTimeout:
    @pytest.mark.parametrize("given,expected", [(None, "4"), ("28", "28")])
    def test_set_before_numpy_loads(self, given, expected):
        out = subprocess.run([sys.executable, "-c", _PROBE],
                             env=fresh_env(given), capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == repr([expected])

    @pytest.mark.parametrize("command,jobs", [("run", "1"), ("grid", "2")])
    def test_outputs_identical_under_either_timeout(self, tmp_path, command,
                                                    jobs):
        # 784 inputs into 256 hidden units: the forward product is large
        # enough for OpenBLAS to split it across its threads.
        doc = minimal_config(tmp_path, methods=["ewc", "afec"], seeds=[0, 1],
                             epochs=1, arch={"hidden": [256],
                                             "activation": "relu"},
                             **{"lambda": 10, "lambda_e": 1})
        doc["benchmark"].update(num_classes=4, input_dim=784)
        path = write_config(tmp_path, doc)
        outputs = []
        for timeout in (None, "28"):
            out = tmp_path / f"out_{timeout}"
            subprocess.run([sys.executable, "-m", "afec_lab.cli", command,
                            "--config", path, "--out", str(out),
                            "--jobs", jobs],
                           env=fresh_env(timeout), check=True)
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sum(name.startswith("result_") for name in outputs[0]) == 4
        assert outputs[0] == outputs[1]


# -- runtime dependencies -----------------------------------------------------

# Runs the CLI on argv[1:] with the test-only dependencies blocked: an
# import of either raises ImportError.
_WITHOUT_TEST_DEPS = """
import sys
sys.modules["scipy"] = sys.modules["hypothesis"] = None
import afec_lab.cli as cli
sys.exit(cli.main(sys.argv[1:]))
"""


class TestRuntimeDependencies:
    def test_run_and_report_need_only_numpy(self, tmp_path):
        out = tmp_path / "results"
        doc = minimal_config(out, methods=["ewc", "afec"],
                             **{"lambda": 1, "lambda_e": 1})
        path = write_config(tmp_path, doc)
        written = []
        for command in ("run", "report"):
            proc = subprocess.run(
                [sys.executable, "-c", _WITHOUT_TEST_DEPS, command,
                 "--config", path], env=fresh_env(), capture_output=True,
                text=True)
            assert proc.returncode == 0, proc.stderr
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
            (out / "summary.csv").unlink()  # for report to write again
        assert sorted(written[0]) == [
            "avg_accuracy.svg", "matrix_afec_lam1_lame1_seed0.json",
            "matrix_ewc_lam1_lame1_seed0.json", "new_task_accuracy.svg",
            "result_afec_lam1_lame1_seed0.json",
            "result_ewc_lam1_lame1_seed0.json", "summary.csv"]
        assert written[1] == written[0]


# -- pool start methods -------------------------------------------------------

# Runs the CLI with every ProcessPoolExecutor on the start method argv[1].
_WITH_START_METHOD = """
import concurrent.futures, functools, multiprocessing, sys
import afec_lab.cli as cli
concurrent.futures.ProcessPoolExecutor = functools.partial(
    concurrent.futures.ProcessPoolExecutor,
    mp_context=multiprocessing.get_context(sys.argv[1]))
sys.exit(cli.main(sys.argv[2:]))
"""


class TestStartMethods:
    """Under every start method this platform has, a pool writes the files
    and the INFO lines of the serial run."""

    @staticmethod
    def grid(tmp_path, method, jobs):
        doc = minimal_config(tmp_path, methods=["ewc", "afec"], seeds=[0, 1],
                             epochs=1, **{"lambda": [1, 10],
                                          "lambda_e": [0, 1]})
        out = tmp_path / f"{method}_{jobs}"
        proc = subprocess.run(
            [sys.executable, "-c", _WITH_START_METHOD, method, "grid",
             "--config", write_config(tmp_path, doc), "--out", str(out),
             "--jobs", jobs],
            env={**fresh_env(), "AFEC_LAB_LOG": "info"}, capture_output=True,
            text=True, check=True)
        info = sorted(line for line in proc.stderr.splitlines()
                      if line.startswith("INFO "))
        return {p.name: p.read_bytes() for p in out.iterdir()}, info

    @pytest.mark.parametrize("method",
                             multiprocessing.get_all_start_methods())
    def test_pool_matches_serial(self, tmp_path, method):
        files, info = self.grid(tmp_path, method, "2")
        serial_files, serial_info = self.grid(tmp_path, method, "1")
        assert len(serial_info) == 12
        assert info == serial_info
        assert files == serial_files
