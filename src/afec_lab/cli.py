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
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from . import metrics, tasks
from .continual import (RunResult, SequenceConfig, _is_count, _json_floats,
                        run_sequence, write_atomic)
from .errors import ConfigError, FormatError
from .metrics import AccMatrix, emit_report
from .nn import _is_finite_number

log = logging.getLogger("afec_lab")
_LOG_HANDLER = "afec_lab.cli"

CONFIG_VERSION = 1

_SYNTHETIC_FIELDS = {"kind", "num_classes", "samples_per_class", "input_dim",
                     "cluster_spread", "seed"}
_BENCHMARK_FIELDS = {
    "conflicting_pair": _SYNTHETIC_FIELDS,
    "angular_sequence": _SYNTHETIC_FIELDS | {"num_tasks"},
    "split_idx": {"kind", "images", "labels", "classes_per_task", "seed"},
}

_BENCHMARK_COUNTS = {"num_tasks": 1, "num_classes": 2, "samples_per_class": 3,
                     "input_dim": 1, "classes_per_task": 1, "seed": 0}

# The run settings a config may set; SequenceConfig holds their defaults.
_RUN_FIELDS = {"epochs", "batch_size", "optimizer", "arch",
               "expansion_epochs", "expansion_init"}

_TOP_FIELDS = {"version", "benchmark", "methods", "lambda", "lambda_e",
               "seeds", "out_dir"} | _RUN_FIELDS


@dataclass
class ExperimentConfig:
    """A checked config: the benchmark, the output directory, and the
    SequenceConfig of every cell of the grid, in run order."""
    benchmark: dict
    out_dir: str
    cells: list[SequenceConfig]


def _as_list(value, path: str) -> list[float]:
    values = value if isinstance(value, list) else [value]
    if not (values and all(map(_is_finite_number, values))):
        raise ConfigError(f"{path}: expected a finite number or a non-empty "
                          f"list of them")
    return [float(v) for v in values]


def _check_benchmark(bench) -> None:
    kind = bench.get("kind") if isinstance(bench, dict) else None
    if not isinstance(kind, str) or kind not in _BENCHMARK_FIELDS:
        raise ConfigError(f"benchmark: expected an object whose kind is one "
                          f"of {', '.join(_BENCHMARK_FIELDS)}")
    extra = set(bench) - _BENCHMARK_FIELDS[kind]
    if extra:
        raise ConfigError(f"benchmark: unknown key(s) {sorted(extra)}")
    for key, least in _BENCHMARK_COUNTS.items():
        if key in bench and not _is_count(bench[key], least):
            raise ConfigError(f"benchmark.{key}: expected an integer >= "
                              f"{least}, got {bench[key]!r}")
    spread = bench.get("cluster_spread")
    if "cluster_spread" in bench and not (_is_finite_number(spread)
                                          and spread > 0):
        raise ConfigError(f"benchmark.cluster_spread: expected a finite "
                          f"number > 0, got {spread!r}")
    for key in ("images", "labels") if kind == "split_idx" else ():
        path = bench.get(key)
        if not (isinstance(path, str) and os.path.isfile(path)):
            raise ConfigError(f"benchmark.{key}: required for split_idx, as "
                              f"an existing file; not found: {path!r}")


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    if doc.get("version") != CONFIG_VERSION:
        raise ConfigError(f"version: expected {CONFIG_VERSION}, "
                          f"got {doc.get('version')!r}")
    _check_benchmark(doc.get("benchmark"))
    for key in ("methods", "seeds"):
        if not isinstance(doc.get(key), list) or not doc[key]:
            raise ConfigError(f"{key}: expected a non-empty list")
    out_dir = doc.get("out_dir", "results")
    if not (isinstance(out_dir, str) and out_dir):
        raise ConfigError(f"out_dir: expected a non-empty string, "
                          f"got {out_dir!r}")
    lams = _as_list(doc.get("lambda", SequenceConfig.lam), "lambda")
    lam_es = _as_list(doc.get("lambda_e", SequenceConfig.lam_e), "lambda_e")
    run = {key: doc[key] for key in _RUN_FIELDS if key in doc}
    # SequenceConfig checks the method, the seed and the run settings, so a
    # bad value fails before any cell trains; so does a result file that
    # two cells would write.
    cells = [SequenceConfig(method=m, lam=lam, lam_e=lam_e, seed=seed, **run)
             for m, lam, lam_e, seed in itertools.product(
                 doc["methods"], lams, lam_es, doc["seeds"])]
    named: dict[str, tuple] = {}  # result file name -> its cell's values
    for cell in cells:
        values = (cell.method, cell.lam, cell.lam_e, cell.seed)
        name = metrics.cell_name(asdict(cell))
        if name in named:
            raise ConfigError(f"methods, lambda, lambda_e and seeds: cells "
                              f"{named[name]!r} and {values!r} share the "
                              f"result file result_{name}.json")
        named[name] = values
    return ExperimentConfig(benchmark=doc["benchmark"], out_dir=out_dir,
                            cells=cells)


def load_config(path, **overrides) -> ExperimentConfig:
    """Parse the config file, each override that is not None in its key."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file cannot be read: {path} "
                          f"({_error_text(exc)})")
    if isinstance(doc, dict):
        doc.update((k, v) for k, v in overrides.items() if v is not None)
    return parse_config(doc)


def build_tasks(bench: dict) -> list:
    """The tasks of a benchmark parse_config has checked; a key the config
    leaves out takes the generator's default."""
    kind, args = bench["kind"], {k: v for k, v in bench.items() if k != "kind"}
    if kind == "conflicting_pair":
        return list(tasks.make_conflicting_pair(**args))
    if kind == "angular_sequence":
        return tasks.make_angular_sequence(**args)
    images, labels = tasks.load_idx(args.pop("images"), args.pop("labels"))
    return tasks.split_tasks(images, labels, **args)


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
    if any(isinstance(v, bool) for v in doc["pre_train"]):  # np.array: 1.0
        raise FormatError("field 'pre_train' must hold null or numbers, "
                          "not booleans")
    pre = np.array([np.nan if v is None else v for v in doc["pre_train"]])
    matrix = AccMatrix(a=doc["acc_matrix"], abar=np.asarray(doc["abar"]),
                       pre_train=pre)
    config = doc["config"]
    if not (isinstance(config, dict) and isinstance(config.get("method"), str)
            and _is_finite_number(config.get("lam"))
            and _is_finite_number(config.get("lam_e"))
            and _is_count(config.get("seed"), 0)):
        raise FormatError("field 'config' must be an object with a string "
                          "method, finite numbers lam and lam_e, and an "
                          "integer seed >= 0")
    return RunResult(acc_matrix=matrix,
                     per_task_new_accuracy=doc["per_task_new_accuracy"],
                     config=config,
                     state_digest=doc["state_digest"],
                     start_task=doc.get("start_task", 0))


# -- cell execution -----------------------------------------------------------

def _run_cell(task_list: list, cells: list[SequenceConfig]) -> list:
    """Train one unit of work, `cells`, in one walk. Returns each cell's
    RunResult, or the exception that failed its run."""
    return run_sequence(cells, task_list)


# The built tasks of this pool worker, set by the first unit it runs.
_worker_tasks: list | None = None


def _run_worker_unit(benchmark: dict, cells: list[SequenceConfig]) -> list:
    global _worker_tasks
    if _worker_tasks is None:
        _setup_logging()  # a spawned worker does not inherit main's handler
        _worker_tasks = build_tasks(benchmark)
    outcomes = _run_cell(_worker_tasks, cells)
    for outcome in outcomes:  # a traceback does not pickle; its text does
        if isinstance(outcome, Exception):
            outcome.traceback_text = "".join(
                traceback.format_exception(outcome))
    return outcomes


def _plan_units(families: list[list], jobs: int) -> list[list]:
    """The units of work, largest first: one per family, and while there
    are fewer units than `jobs`, the largest unit split in half, until
    every unit is one run. Each half trains its shared prefix again."""
    units = sorted(families, key=len, reverse=True)
    while len(units) < jobs and len(units[0]) > 1:
        unit = units.pop(0)
        half = len(unit) // 2
        units = sorted(units + [unit[:half], unit[half:]], key=len,
                       reverse=True)
    return units


def _run_cells(config: ExperimentConfig, jobs: int):
    """Yield (cell index, outcome) for every cell as its unit of work
    returns. The outcome is the cell's RunResult, or the exception it
    raised: one failed cell does not stop the others. A unit that raises
    (a task-build error, say, or a killed pool worker) raises here, so it
    ends the run, serially or from the pool alike.

    A unit is walked by run_sequence, which trains cells of equal
    strengths once, shares the common tasks of a family (see
    SequenceConfig.family) and trains the runs of one seed in lock-step.
    Serially, or when the plan has one unit, each seed's cells are a unit,
    so a stopped run keeps the finished seeds' files. Otherwise a family is
    the pool's unit of work, and units are sized and split by distinct
    runs, so the cells of one run stay in one unit. Tasks are built once
    per process: here when serial or when there is one unit, otherwise in
    each pool worker with the first unit it runs."""
    cells = config.cells
    # family -> strengths -> the indices of the cells of that run
    families: dict[tuple, dict[tuple, list[int]]] = {}
    for i, cell in enumerate(cells):
        families.setdefault(cell.family, {}).setdefault(
            cell.strengths, []).append(i)
    units = [[i for run in unit for i in run] for unit in _plan_units(
        [[*runs.values()] for runs in families.values()], jobs)]
    if jobs <= 1 or len(units) == 1:
        task_list = build_tasks(config.benchmark)
        for seed in dict.fromkeys(cell.seed for cell in cells):
            unit = [i for i, cell in enumerate(cells) if cell.seed == seed]
            outcomes = _run_cell(task_list, [cells[i] for i in unit])
            yield from zip(unit, outcomes)
        return
    # Each worker builds the tasks once, so no more workers than units.
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=min(jobs, len(units)))
    try:
        futures = {pool.submit(_run_worker_unit, config.benchmark,
                               [cells[i] for i in unit]): unit
                   for unit in units}
        for future in concurrent.futures.as_completed(futures):
            yield from zip(futures[future], future.result())
    finally:
        # If the caller stops early (a result file could not be written,
        # say), the queued units are dropped instead of run.
        pool.shutdown(cancel_futures=True)


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _log_failure(message: str, exc: BaseException) -> None:
    """Log one line; at AFEC_LAB_LOG=debug, with the traceback: the text a
    pool worker stored on the exception, else the exception's own."""
    text = _error_text(exc)
    if log.isEnabledFor(logging.DEBUG):
        trace = getattr(exc, "traceback_text", None) or "".join(
            traceback.format_exception(exc))
        text += "\n" + trace.rstrip("\n")
    log.error("%s: %s", message, text)


def _run_and_write(config: ExperimentConfig, jobs: int):
    """Run every cell and write each finished cell's result file as its
    unit returns. After the last unit, log each failed cell with its name
    and error, in cell order, and return the (cell, RunResult) and the
    (cell, exception) pairs in cell order."""
    outcomes: dict[int, object] = {}  # cell index -> outcome
    for i, outcome in _run_cells(config, jobs):
        if not outcomes:  # so a task-build error makes no dir
            os.makedirs(config.out_dir, exist_ok=True)
        outcomes[i] = outcome
        if not isinstance(outcome, Exception):
            name = f"result_{metrics.cell_name(outcome.config)}.json"
            write_atomic(os.path.join(config.out_dir, name),
                         [json.dumps(result_to_json(outcome), sort_keys=True),
                          "\n"])
    pairs = [(config.cells[i], outcomes[i]) for i in sorted(outcomes)]
    results = [pair for pair in pairs if not isinstance(pair[1], Exception)]
    failures = [pair for pair in pairs if isinstance(pair[1], Exception)]
    for cell, exc in failures:
        _log_failure(f"cell method={cell.method} lambda={cell.lam:g} "
                     f"lambda_e={cell.lam_e:g} seed={cell.seed} failed", exc)
    if failures:
        log.error("%d of %d cells failed", len(failures), len(outcomes))
    return results, failures


# -- subcommands --------------------------------------------------------------

def cmd_run(config: ExperimentConfig, jobs: int) -> int:
    if len({(cell.method, cell.seed) for cell in config.cells}) < len(
            config.cells):
        raise ConfigError("lambda / lambda_e: run takes single values; "
                          "use the grid subcommand for lists")
    results, failures = _run_and_write(config, jobs)
    if failures:
        return 1
    emit_report([result for _, result in results], config.out_dir)
    return 0


def _setting(cell: SequenceConfig) -> tuple[str, str, str]:
    """The method, lambda and lambda_e of a cell as its result file names
    print them, so 0 and -0 are two settings, as they are two files."""
    return cell.method, f"{cell.lam:g}", f"{cell.lam_e:g}"


def cmd_grid(config: ExperimentConfig, jobs: int) -> int:
    results, failures = _run_and_write(config, jobs)
    failed = {_setting(cell) for cell, _ in failures}
    # setting -> one of its cells, and each seed's ACC
    by_setting: dict[tuple, tuple] = {}
    for cell, result in results:
        by_setting.setdefault(_setting(cell), (cell, []))[1].append(
            metrics.acc(result.acc_matrix))
    header = ["method", "lambda", "lambda_e", "mean_acc", "std_acc", "seeds"]
    # Failed cells get rows of their own, so the table gains two columns.
    tail = ["failed_seed", "error"] if failures else []
    rows = [header + tail]
    best = None
    for key, (cell, accs) in sorted(
            by_setting.items(),
            key=lambda item: (item[1][0].method, item[1][0].lam,
                              item[1][0].lam_e, item[0])):
        mean, std = float(np.mean(accs)), float(np.std(accs))
        rows.append([*key, f"{mean:.6f}", f"{std:.6f}", str(len(accs))]
                    + [""] * len(tail))
        # Ties break toward the smallest lambda_e, then the smallest lambda,
        # then the method that names its run (ewc over afec at lambda_e 0).
        # A cell setting with a failed seed is never reported as the best.
        rank = (-mean, cell.lam_e, cell.lam, cell.run_method != cell.method,
                key)
        if key not in failed and (best is None or rank < best[0]):
            best = (rank, key, mean)
    for cell, exc in failures:
        rows.append([*_setting(cell), "", "", "", str(cell.seed),
                     _error_text(exc)])
    with open(os.path.join(config.out_dir, "grid.csv"), "w",
              newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    if best is not None:
        (_, (method, lam, lam_e), mean) = best
        print(f"best: method={method} lambda={lam} lambda_e={lam_e} "
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
    names = os.listdir(config.out_dir) if os.path.isdir(config.out_dir) else []
    for name in sorted(names):
        if name.startswith("result_") and name.endswith(".json"):
            path = os.path.join(config.out_dir, name)
            try:
                with open(path) as fh:
                    results.append(result_from_json(json.load(fh)))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise FormatError(f"{path}: {_error_text(exc)}") from None
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
        seeds = None if args.seed_override is None else [args.seed_override]
        config = load_config(args.config, out_dir=args.out, seeds=seeds)
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
