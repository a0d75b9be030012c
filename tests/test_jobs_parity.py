"""A pool writes the serial run's files: each config runs at --jobs 1 and
--jobs 2, and every output file is compared byte for byte.

Serially each seed's cells train in one walk, in lock-step; from the pool
each family (seed and run method) is a unit of its own, so the rows that
share a lock-step group serially train apart there."""

import dataclasses
import json

import pytest

from afec_lab import metrics
from afec_lab.cli import build_tasks, main, parse_config, result_to_json
from afec_lab.continual import run_sequence

_PAIR = {"kind": "conflicting_pair", "num_classes": 4,
         "samples_per_class": 10, "input_dim": 4}
_SMALL = {"hidden": [8], "activation": "relu"}

CONFIGS = {
    # Runs of one family share their first tasks. The optimizers step the
    # network's parameters in place, and si takes a snapshot per step.
    "grid": ("grid", {
        "benchmark": _PAIR, "methods": ["ewc", "afec", "si"],
        "lambda": [1, 100], "lambda_e": [0, 10], "seeds": [0, 1],
        "epochs": 2, "arch": _SMALL}),
    # The nine methods of one seed: serially one lock-step walk, from the
    # pool a unit per family (only finetune and ewc share one).
    "methods": ("run", {
        "benchmark": _PAIR,
        "methods": ["finetune", "ewc", "afec", "mas", "si", "rwalk",
                    "mas_afec", "si_afec", "rwalk_afec"],
        "lambda": 10, "lambda_e": 1, "seeds": [0], "epochs": 2,
        "arch": _SMALL}),
    # P = 66,306 > 2**16 parameters, so every lock-step group holds one
    # node (K = 1) and each seed's walk is depth first across families.
    "wide": ("grid", {
        "benchmark": {**_PAIR, "input_dim": 256},
        "methods": ["ewc", "afec", "si", "mas_afec"], "lambda": 10,
        "lambda_e": [0, 5], "seeds": [0, 1], "epochs": 1,
        "arch": {"hidden": [256], "activation": "relu"}}),
    # afec at lambda_e 0 is the ewc run, so this grid is one unit and
    # starts no pool.
    "one_unit": ("grid", {
        "benchmark": _PAIR, "methods": ["ewc", "afec"], "lambda": 1,
        "lambda_e": 0, "seeds": [0], "epochs": 2, "arch": _SMALL}),
}


def run_both(tmp_path, capsys, command, doc):
    """Run `doc` at --jobs 1 and 2. Returns, per run, its exit code, its
    stderr lines but the INFO ones (workers interleave theirs with the
    parent's), and its files."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"version": 1, **doc}))
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code = main([command, "--config", str(path), "--jobs", jobs,
                     "--out", str(out)])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("INFO ")]
        runs.append((code, errors,
                     {p.name: p.read_bytes() for p in out.iterdir()}))
    return runs


@pytest.mark.parametrize("init", ["copy_main", "fresh_random"])
@pytest.mark.parametrize("name", CONFIGS)
def test_pool_writes_the_serial_files(tmp_path, capsys, name, init):
    command, doc = CONFIGS[name]
    serial, pool = run_both(tmp_path, capsys, command,
                            {**doc, "expansion_init": init})
    assert serial[:2] == (0, [])
    assert any(file.startswith("result_") for file in serial[2])
    assert pool == serial


@pytest.mark.parametrize("init", ["copy_main", "fresh_random"])
def test_one_walk_of_every_seed_writes_the_cli_files(tmp_path, capsys, init):
    # The CLI walks each seed apart; run_sequence given every cell walks
    # both seeds at once, and their roots must still train apart.
    command, doc = CONFIGS["grid"]
    doc = {**doc, "version": 1, "expansion_init": init}
    (_, _, files), _ = run_both(tmp_path, capsys, command, doc)
    config = parse_config(doc)
    outcomes = run_sequence(config.cells, build_tasks(config.benchmark))
    walked = {}
    for cell, result in zip(config.cells, outcomes):
        name = f"result_{metrics.cell_name(dataclasses.asdict(cell))}.json"
        text = json.dumps(result_to_json(result), sort_keys=True) + "\n"
        walked[name] = text.encode()
    files.pop("grid.csv")
    assert walked == files


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_cells_log_and_write_alike(tmp_path, capsys, monkeypatch):
    # SGD at lambda 1e9 diverges on the second task, and both methods'
    # cells share that run.
    monkeypatch.setenv("AFEC_LAB_LOG", "debug")
    serial, pool = run_both(tmp_path, capsys, "grid", {
        "benchmark": {"kind": "conflicting_pair", "num_classes": 6,
                      "samples_per_class": 20, "input_dim": 6,
                      "cluster_spread": 0.5},
        "methods": ["ewc", "afec"], "lambda": [1, 1e9], "seeds": [0],
        "epochs": 2, "batch_size": 16,
        "optimizer": {"kind": "sgd", "lr": 0.01}, "arch": _SMALL})
    assert serial[0] == 1
    assert serial[1].count("Traceback (most recent call last):") == 2
    assert pool == serial


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_shared_expansion_logs_alike(tmp_path, capsys, monkeypatch):
    # SGD at lr 0.1 makes the first task's expansion fail. Serially the
    # afec and mas_afec roots share that expansion and its exception; from
    # the pool each family expands alone. Each cell's traceback must read
    # the same either way.
    monkeypatch.setenv("AFEC_LAB_LOG", "debug")
    serial, pool = run_both(tmp_path, capsys, "grid", {
        "benchmark": {"kind": "conflicting_pair", "num_classes": 6,
                      "samples_per_class": 20, "input_dim": 6,
                      "cluster_spread": 0.5},
        "methods": ["afec", "mas_afec"], "lambda": [0, 1], "lambda_e": 1,
        "seeds": [1], "epochs": 1, "batch_size": 16,
        "optimizer": {"kind": "sgd", "lr": 0.1}, "arch": _SMALL})
    assert serial[0] == 1
    assert serial[1].count("Traceback (most recent call last):") == 4
    assert sum("in train_expanded" in line for line in serial[1]) == 4
    assert pool == serial
