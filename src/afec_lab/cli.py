"""Batch experiment front end.

Subcommands: run (each method x seed once), grid (Cartesian hyperparameter
search), datagen (materialize benchmark tasks to CSV), report (rebuild the
report from saved run results). Configs are strict JSON: unknown keys are
errors so hyperparameter typos cannot pass silently.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import metrics, tasks
from .continual import (ArchSpec, RunResult, SequenceConfig, _json_floats,
                        run_sequence, write_atomic)
from .errors import ConfigError, FormatError
from .metrics import AccMatrix, emit_report
from .nn import make_optimizer

log = logging.getLogger("afec_lab")
_LOG_HANDLER = "afec_lab.cli"

CONFIG_VERSION = 1

_BENCHMARK_FIELDS = {
    "conflicting_pair": {"kind", "num_classes", "samples_per_class",
                         "input_dim", "cluster_spread", "seed"},
    "angular_sequence": {"kind", "num_tasks", "num_classes",
                         "samples_per_class", "input_dim", "cluster_spread",
                         "seed"},
    "split_idx": {"kind", "images", "labels", "classes_per_task", "seed"},
}

_TOP_FIELDS = {"version", "benchmark", "methods", "lambda", "lambda_e",
               "seeds", "epochs", "batch_size", "optimizer", "arch",
               "expansion_epochs", "expansion_init", "out_dir"}


@dataclass
class ExperimentConfig:
    benchmark: dict
    methods: list[str]
    lam_values: list[float]
    lam_e_values: list[float]
    seeds: list[int]
    epochs: int
    batch_size: int
    optimizer: dict
    arch: dict
    out_dir: str
    expansion_epochs: int | None = None
    expansion_init: str = "copy_main"

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["lambda"] = doc.pop("lam_values")
        doc["lambda_e"] = doc.pop("lam_e_values")
        return {"version": CONFIG_VERSION, **doc}

    def sequence_config(self, method: str, lam: float, lam_e: float,
                        seed: int) -> SequenceConfig:
        return SequenceConfig(method=method, lam=lam, lam_e=lam_e,
                              epochs=self.epochs, batch_size=self.batch_size,
                              optimizer=self.optimizer, seed=seed,
                              arch=ArchSpec(**self.arch),
                              expansion_epochs=self.expansion_epochs,
                              expansion_init=self.expansion_init)


def _as_list(value, path: str) -> list[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    if (isinstance(value, list) and value
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value)):
        return [float(v) for v in value]
    raise ConfigError(f"{path}: expected a number or non-empty number list")


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    if doc.get("version") != CONFIG_VERSION:
        raise ConfigError(f"version: expected {CONFIG_VERSION}, "
                          f"got {doc.get('version')!r}")
    bench = doc.get("benchmark")
    if not isinstance(bench, dict) or "kind" not in bench:
        raise ConfigError("benchmark: expected an object with a 'kind' field")
    if bench["kind"] not in _BENCHMARK_FIELDS:
        raise ConfigError(f"benchmark.kind: unknown kind {bench['kind']!r}")
    extra = set(bench) - _BENCHMARK_FIELDS[bench["kind"]]
    if extra:
        raise ConfigError(f"benchmark: unknown key(s) {sorted(extra)}")
    if bench["kind"] == "split_idx":
        for key in ("images", "labels"):
            if key not in bench:
                raise ConfigError(f"benchmark.{key}: required for split_idx")
            if not os.path.exists(bench[key]):
                raise ConfigError(f"benchmark.{key}: file not found: {bench[key]}")
    methods = doc.get("methods")
    if not isinstance(methods, list) or not methods:
        raise ConfigError("methods: expected a non-empty list")
    seeds = doc.get("seeds")
    if (not isinstance(seeds, list) or not seeds
            or any(not isinstance(s, int) for s in seeds)):
        raise ConfigError("seeds: expected a non-empty list of integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds: seeds must be distinct")
    arch = doc.get("arch", {"hidden": [64, 64], "activation": "relu"})
    if not isinstance(arch, dict):
        raise ConfigError("arch: expected an object")
    extra = set(arch) - {"hidden", "activation"}
    if extra:
        raise ConfigError(f"arch: unknown key(s) {sorted(extra)}")
    optimizer = doc.get("optimizer", {"kind": "adam", "lr": 0.001})
    if not isinstance(optimizer, dict):
        raise ConfigError("optimizer: expected an object")
    make_optimizer(optimizer)
    config = ExperimentConfig(
        benchmark=bench,
        methods=list(methods),
        lam_values=_as_list(doc.get("lambda", 0.0), "lambda"),
        lam_e_values=_as_list(doc.get("lambda_e", 0.0), "lambda_e"),
        seeds=list(seeds),
        epochs=doc.get("epochs", 10),
        batch_size=doc.get("batch_size", 32),
        optimizer=optimizer,
        arch=arch,
        out_dir=doc.get("out_dir", "results"),
        expansion_epochs=doc.get("expansion_epochs"),
        expansion_init=doc.get("expansion_init", "copy_main"),
    )
    # SequenceConfig validates the method and training settings; build one
    # per cell setting so a bad value fails before any cell trains.
    for cell in itertools.product(config.methods, config.lam_values,
                                  config.lam_e_values, config.seeds[:1]):
        config.sequence_config(*cell)
    return config


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    return parse_config(doc)


def build_tasks(bench: dict) -> list:
    kind = bench["kind"]
    if kind == "conflicting_pair":
        pair = tasks.make_conflicting_pair(
            bench.get("num_classes", 10), bench.get("seed", 0),
            samples_per_class=bench.get("samples_per_class", 100),
            input_dim=bench.get("input_dim", 16),
            cluster_spread=bench.get("cluster_spread", 0.15))
        return list(pair)
    if kind == "angular_sequence":
        return tasks.make_angular_sequence(
            bench.get("num_tasks", 10), bench.get("num_classes", 10),
            bench.get("seed", 0),
            samples_per_class=bench.get("samples_per_class", 100),
            input_dim=bench.get("input_dim", 16),
            cluster_spread=bench.get("cluster_spread", 0.15))
    if kind == "split_idx":
        images, labels = tasks.load_idx(bench["images"], bench["labels"])
        return tasks.split_tasks(images, labels,
                                 bench.get("classes_per_task", 5),
                                 bench.get("seed", 0))
    raise ConfigError(f"benchmark.kind: unknown kind {kind!r}")


# -- result serialization -----------------------------------------------------

def result_to_json(result: RunResult) -> dict:
    m = result.acc_matrix
    return {
        "config": result.config,
        "acc_matrix": m.a,
        "abar": m.abar.tolist(),
        "pre_train": _json_floats(m.pre_train),
        "per_task_new_accuracy": result.per_task_new_accuracy,
        "state_digest": result.state_digest,
        "start_task": result.start_task,
    }


def result_from_json(doc: dict) -> RunResult:
    pre = np.array([np.nan if v is None else v for v in doc["pre_train"]])
    matrix = AccMatrix(a=doc["acc_matrix"], abar=np.asarray(doc["abar"]),
                       pre_train=pre)
    return RunResult(acc_matrix=matrix,
                     per_task_new_accuracy=doc["per_task_new_accuracy"],
                     config=doc["config"],
                     state_digest=doc["state_digest"],
                     start_task=doc.get("start_task", 0))


# -- cell execution -----------------------------------------------------------

def _run_cell(config: ExperimentConfig, task_list: list, method: str,
              lam: float, lam_e: float, seed: int) -> dict:
    seq = config.sequence_config(method, lam, lam_e, seed)
    return result_to_json(run_sequence(seq, task_list))


# The parsed config and built tasks of this pool worker; set once by
# _init_worker, read by every cell the worker runs.
_worker_setup: tuple | None = None


def _init_worker(config_json: dict) -> None:
    global _worker_setup
    config = parse_config(config_json)
    _worker_setup = (config, build_tasks(config.benchmark))


def _run_worker_cell(cell: tuple) -> dict:
    return _run_cell(*_worker_setup, *cell)


def _outcomes(get, items):
    """get(item) for each item, or the exception it raised."""
    for item in items:
        try:
            yield get(item)
        except Exception as exc:
            yield exc


def _run_cells(config: ExperimentConfig, cells: list[tuple], jobs: int):
    """Yield (cell, outcome) for every cell, in the order of `cells`, as
    each one finishes. The outcome is the cell's result doc, or the
    exception it raised: one failed cell does not stop the others.

    Cells with one run key train the same run bit for bit, so only the
    first cell of each key runs; every cell's doc then gets its own config.
    Tasks are built once per process: here when serial, once in each pool
    worker otherwise."""
    seqs = [config.sequence_config(*cell) for cell in cells]
    keys = [seq.run_key() for seq in seqs]
    runs: dict[str, tuple] = {}  # run key -> the first cell with that key
    for key, cell in zip(keys, cells):
        runs.setdefault(key, cell)
    pool = None
    if jobs <= 1:
        task_list = build_tasks(config.benchmark)
        outcomes = _outcomes(lambda cell: _run_cell(config, task_list, *cell),
                             runs.values())
    else:
        # Each worker builds the tasks once, so no more workers than runs.
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(runs)), initializer=_init_worker,
            initargs=(config.to_json(),))
        futures = [pool.submit(_run_worker_cell, cell)
                   for cell in runs.values()]
        outcomes = _outcomes(concurrent.futures.Future.result, futures)
    try:
        # Keys come up in the order of `runs`, which is the order of
        # `outcomes`, so a new key's outcome is always the next one.
        done: dict[str, object] = {}
        for cell, seq, key in zip(cells, seqs, keys):
            if key not in done:
                done[key] = next(outcomes)
            outcome = done[key]
            if not isinstance(outcome, Exception):
                outcome = {**outcome, "config": asdict(seq)}
            yield cell, outcome
    finally:
        if pool is not None:
            # If the caller stops early (a result file could not be
            # written, say), the queued runs are dropped instead of run.
            pool.shutdown(cancel_futures=True)


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _log_failure(message: str, exc: BaseException) -> None:
    """Log one line; at AFEC_LAB_LOG=debug, with the traceback (a pool
    worker's traceback comes along as the exception's cause)."""
    log.error("%s: %s", message, _error_text(exc),
              exc_info=exc if log.isEnabledFor(logging.DEBUG) else None)


def _write_result(out_dir: str, cell: tuple, doc: dict) -> RunResult:
    method, lam, lam_e, seed = cell
    name = f"result_{method}_lam{lam:g}_lame{lam_e:g}_seed{seed}.json"
    write_atomic(os.path.join(out_dir, name),
                 [json.dumps(doc, sort_keys=True), "\n"])
    return result_from_json(doc)


def _run_and_write(config: ExperimentConfig, cells: list[tuple], jobs: int):
    """Run the cells and write each finished cell's result file as soon as
    it is in. Returns ({cell: RunResult}, {cell: exception}); each failed
    cell is logged with its name and error."""
    os.makedirs(config.out_dir, exist_ok=True)
    results, failures = {}, {}
    for cell, outcome in _run_cells(config, cells, jobs):
        if isinstance(outcome, Exception):
            failures[cell] = outcome
            method, lam, lam_e, seed = cell
            _log_failure(f"cell method={method} lambda={lam:g} "
                         f"lambda_e={lam_e:g} seed={seed} failed", outcome)
        else:
            results[cell] = _write_result(config.out_dir, cell, outcome)
    if failures:
        log.error("%d of %d cells failed", len(failures), len(cells))
    return results, failures


# -- subcommands --------------------------------------------------------------

def cmd_run(config: ExperimentConfig, jobs: int) -> int:
    if len(config.lam_values) != 1 or len(config.lam_e_values) != 1:
        raise ConfigError("lambda / lambda_e: run takes single values; "
                          "use the grid subcommand for lists")
    lam, lam_e = config.lam_values[0], config.lam_e_values[0]
    cells = [(m, lam, lam_e, s) for m in config.methods for s in config.seeds]
    results, failures = _run_and_write(config, cells, jobs)
    if failures:
        return 1
    emit_report(list(results.values()), config.out_dir)
    return 0


def cmd_grid(config: ExperimentConfig, jobs: int) -> int:
    cells = [(m, lam, lam_e, s)
             for m in config.methods
             for lam in config.lam_values
             for lam_e in config.lam_e_values
             for s in config.seeds]
    results, failures = _run_and_write(config, cells, jobs)
    by_cell: dict[tuple, list[float]] = {}
    for cell, result in results.items():
        by_cell.setdefault(cell[:3], []).append(metrics.acc(result.acc_matrix))
    header = ["method", "lambda", "lambda_e", "mean_acc", "std_acc", "seeds"]
    # Failed cells get rows of their own, so the table gains two columns.
    tail = ["failed_seed", "error"] if failures else []
    rows = [header + tail]
    best = None
    for key in sorted(by_cell, key=lambda k: (k[0], k[1], k[2])):
        accs = by_cell[key]
        mean, std = float(np.mean(accs)), float(np.std(accs))
        rows.append([key[0], f"{key[1]:g}", f"{key[2]:g}", f"{mean:.6f}",
                     f"{std:.6f}", str(len(accs))] + [""] * len(tail))
        # Ties break toward the smallest lambda_e, then the smallest lambda.
        # A cell setting with a failed seed is never reported as the best.
        rank = (-mean, key[2], key[1], key[0])
        if len(accs) == len(config.seeds) and (best is None or rank < best[0]):
            best = (rank, key, mean)
    for (method, lam, lam_e, seed), exc in failures.items():
        rows.append([method, f"{lam:g}", f"{lam_e:g}", "", "", "", str(seed),
                     _error_text(exc)])
    with open(os.path.join(config.out_dir, "grid.csv"), "w",
              newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    if best is not None:
        (_, (method, lam, lam_e), mean) = best
        print(f"best: method={method} lambda={lam:g} lambda_e={lam_e:g} "
              f"mean_acc={mean:.6f}")
    return 1 if failures else 0


def cmd_datagen(config: ExperimentConfig) -> int:
    task_list = build_tasks(config.benchmark)
    os.makedirs(config.out_dir, exist_ok=True)
    for task in task_list:
        tasks.export_csv(task, os.path.join(config.out_dir, f"{task.name}.csv"))
        print(f"task {task.name}:")
        if task.kind == "regression_angle":
            for k, angle in enumerate(task.class_angles):
                print(f"  class {k}: {math.degrees(angle) % 360.0:.1f} deg")
        else:
            print(f"  {task.head_dim} classes, {task.n_train} train samples")
    return 0


def cmd_report(config: ExperimentConfig) -> int:
    results = []
    for name in sorted(os.listdir(config.out_dir)):
        if name.startswith("result_") and name.endswith(".json"):
            with open(os.path.join(config.out_dir, name)) as fh:
                results.append(result_from_json(json.load(fh)))
    if not results:
        raise ConfigError(f"no result_*.json files in {config.out_dir}")
    emit_report(results, config.out_dir)
    return 0


# -- entry point --------------------------------------------------------------

def _setup_logging() -> None:
    level = {"quiet": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("AFEC_LAB_LOG", "info"),
                                         logging.INFO)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    handler.set_name(_LOG_HANDLER)
    # Replace the handler an earlier main() call installed, so a process
    # that calls main repeatedly logs each line once, to the current stderr.
    for old in [h for h in log.handlers if h.get_name() == _LOG_HANDLER]:
        log.removeHandler(old)
        old.close()
    log.addHandler(handler)
    log.setLevel(level)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="afec-lab",
        description="Continual-learning experiments with active forgetting")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "grid", "datagen", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="override output dir")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel worker count")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the config's seed list with one seed")
    args = parser.parse_args(argv)
    _setup_logging()
    try:
        if args.jobs < 1:
            raise ConfigError("--jobs: expected an integer >= 1")
        config = load_config(args.config)
        if args.out is not None:
            config.out_dir = args.out
        if args.seed_override is not None:
            config.seeds = [args.seed_override]
        if args.command == "run":
            return cmd_run(config, args.jobs)
        if args.command == "grid":
            return cmd_grid(config, args.jobs)
        if args.command == "datagen":
            return cmd_datagen(config)
        return cmd_report(config)
    except (ConfigError, FormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        _log_failure("run failed", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
