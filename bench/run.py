"""afec-lab benchmark: drive the afec-lab CLI on generated workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record [--workload NAME]  # rewrite reference.json

Run from anywhere inside a source checkout; the program under test is the
checkout's `src/afec_lab`. With `--trace 0` the CLI runs as a subprocess,
once per round, for as many rounds as fit in `--seconds`, and the
end-to-end metrics are medians over rounds. With `--trace 1` the CLI runs in-process with
`--jobs 1`, alternating an untraced and a traced invocation, and the
per-layer metrics come from spans patched in by tracing.py. Every cell of
every invocation is checked against reference.json. The last line of
standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(ROOT, "bench", "reference.json")
LAUNCHER = os.path.join(ROOT, "bench", "launch.py")
WORK_PARENT = os.path.join(ROOT, ".bench_work")

SETUP_PROBES_PER_ROUND = 2
CHILD_TIMEOUT_S = 150.0

# Fresh interpreter, import, parse the config, build the tasks.
_SETUP_CODE = (
    "import json, sys\n"
    "import afec_lab.cli as cli\n"
    "with open(sys.argv[1]) as fh:\n"
    "    cfg = cli.parse_config(json.load(fh))\n"
    "cli.build_tasks(cfg.benchmark)\n"
)

# Per-layer span metrics: span name -> fields reported for it.
SPAN_FIELDS = {
    "nn.loss_and_grad": ("calls", "self_s", "median_us"),
    "nn.forward": ("calls", "self_s", "median_us"),
    "nn.optimizer_step": ("calls", "self_s", "median_us"),
    "nn.param_copy": ("self_s",),
    "nn.per_sample_grad_moment": ("calls", "self_s", "median_us"),
    "regularizers.quadratic_penalty": ("calls", "self_s", "median_us"),
    "regularizers.importance_update": ("calls", "self_s", "median_us"),
    "regularizers.epoch_batches": ("self_s",),
    "regularizers.train_expanded": ("calls", "total_s"),
    "posterior.estimate_diag_fisher": ("calls", "self_s", "median_us"),
    "continual.run_sequence": ("total_s", "self_s"),
    "continual.evaluate": ("calls", "self_s", "median_us"),
    "continual.random_init_baseline": ("self_s",),
    "continual.state_digest": ("self_s",),
    "tasks.build": ("self_s",),
    "tasks.load_idx": ("self_s",),
    "metrics.emit_report": ("self_s",),
    "cli.parse_config": ("calls",),
    "cli.build_tasks": ("calls",),
    "cli.run_cell": ("median_ms",),
    "cli.result_json": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
               "median_us": "us", "median_ms": "ms"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s",
                    "cpu_s": "s", "peak_rss_mb": "MB", "final_acc": "frac",
                    "ok_frac": "frac"}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import afec_lab from this checkout's src/, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "afec_lab", "cli.py")):
        fail(f"no program to benchmark: {SRC}/afec_lab/cli.py is missing")
    sys.path.insert(0, SRC)
    import afec_lab
    import afec_lab.cli  # noqa: F401  (loads every module the CLI uses)
    if not os.path.abspath(afec_lab.__file__).startswith(SRC + os.sep):
        fail(f"afec_lab was imported from {afec_lab.__file__}, not {SRC}")
    return afec_lab


# -- machine description ------------------------------------------------------

def _openblas():
    """ctypes handle of the OpenBLAS numpy loaded, with its symbol prefix
    and suffix."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                return lib, prefix, suffix
    return None, "", ""


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": None,
        "blas_threads": None,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "timers": "process-local only: time.perf_counter in the benchmark "
                  "and its launcher; wait4 rusage (getrusage of the waited "
                  "child tree) for CPU time and peak RSS; no profiler, no "
                  "system-wide tracing",
    }
    lib, prefix, suffix = _openblas()
    if lib is not None:
        info["blas_threads"] = getattr(lib, f"{prefix}get_num_threads{suffix}")()
        corename = getattr(lib, f"{prefix}get_corename{suffix}", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            info["blas_core"] = corename().decode()
    return info


# -- child processes ----------------------------------------------------------

def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["AFEC_LAB_LOG"] = "quiet"
    env["TMPDIR"] = workdir
    return env


def spawn(cmd: list[str], env: dict, cwd: str, log_path: str) -> dict:
    """Run `cmd` to completion through launch.py, in its own process group.

    Returns launch.py's report: wall_s, cpu_s and maxrss_kib of the command
    and its reaped descendants, and exit_code. The group is killed if it
    outlives CHILD_TIMEOUT_S.
    """
    proc = subprocess.Popen([sys.executable, LAUNCHER, log_path, *cmd],
                            cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {CHILD_TIMEOUT_S:.0f} s: {cmd}")
    if proc.returncode != 0:
        fail(f"launcher exited {proc.returncode}: {cmd}")
    return json.loads(out)


def _tail(path: str, lines: int = 20) -> str:
    try:
        with open(path, errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])
    except OSError:
        return ""


# -- correctness --------------------------------------------------------------

def cli_command(prep: workloads.Prepared, out_dir: str) -> list[str]:
    return [sys.executable, "-m", "afec_lab.cli", *prep.argv, "--out", out_dir]


def read_results(afec, prep: workloads.Prepared, out_dir: str):
    """Yield (result file name, checksum, ACC) for every cell; checksum and
    ACC are None when the file is missing or invalid."""
    for cell in prep.cells:
        name = workloads.result_filename(cell)
        try:
            with open(os.path.join(out_dir, name)) as fh:
                result = afec.cli.result_from_json(json.load(fh))
            yield name, result.checksum, afec.metrics.acc(result.acc_matrix)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"bench: {name}: unreadable result ({exc})", file=sys.stderr)
            yield name, None, None


class Checker:
    """Checks every cell's result file against its reference checksum."""

    def __init__(self, afec, prep: workloads.Prepared, refs: dict,
                 recorded_on: dict):
        self.afec, self.prep, self.refs = afec, prep, refs
        self.recorded_on = recorded_on
        self.attempted = 0
        self.failed = 0
        self.accs: list[float] = []

    def check(self, out_dir: str, exit_code: int, log_path: str = "") -> None:
        if exit_code != 0:
            print(f"bench: CLI exited {exit_code}\n{_tail(log_path)}",
                  file=sys.stderr)
        accs = []
        for name, checksum, acc in read_results(self.afec, self.prep, out_dir):
            self.attempted += 1
            if checksum is None:
                self.failed += 1
                continue
            accs.append(acc)
            expected = self.refs.get(name)
            if exit_code != 0 or checksum != expected:
                if checksum != expected:
                    print(f"bench: {name}: checksum {checksum} != reference "
                          f"{expected} (reference recorded on "
                          f"{self.recorded_on})", file=sys.stderr)
                self.failed += 1
        if accs and not self.accs:
            self.accs = accs


def load_references(size: str, workload: str, k: int):
    with open(REFERENCE) as fh:
        doc = json.load(fh)
    refs = doc["checksums"].get(size, {}).get(workload, {}).get(str(k), {})
    recorded_on = {key: doc["machine"].get(key)
                   for key in ("numpy", "blas_version", "blas_core")}
    return refs, recorded_on


# -- measurement --------------------------------------------------------------

def rounds(seconds: float):
    """Yield round numbers until the next round, judged by the median round
    so far, would end after `seconds`. Yields at least once."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        start = time.perf_counter()
        yield len(durations)
        now = time.perf_counter()
        durations.append(now - start)
        if now + statistics.median(durations) > deadline:
            return


def measure(afec, prep, seconds: float, workdir: str, checker: Checker) -> dict:
    env = child_env(workdir)
    log = os.path.join(workdir, "child.log")
    probe = [sys.executable, "-c", _SETUP_CODE, prep.config_path]
    out_dir = os.path.join(workdir, "out")
    spawn(probe, env, workdir, log)  # untimed: writes bytecode caches
    setup, walls, cpus, rss = [], [], [], []
    for _ in rounds(seconds):
        for _ in range(SETUP_PROBES_PER_ROUND):
            report = spawn(probe, env, workdir, log)
            if report["exit_code"] != 0:
                fail(f"set-up probe exited {report['exit_code']}\n{_tail(log)}")
            setup.append(report["wall_s"])
        report = spawn(cli_command(prep, out_dir), env, workdir, log)
        checker.check(out_dir, report["exit_code"], log)
        shutil.rmtree(out_dir, ignore_errors=True)
        walls.append(report["wall_s"])
        cpus.append(report["cpu_s"])
        rss.append(report["maxrss_kib"] / 1024.0)
    print(f"bench: {len(walls)} invocations, {len(setup)} set-up probes; "
          f"wall_s per invocation {[round(w, 3) for w in walls]}",
          file=sys.stderr)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(prep.steps / w for w in walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "final_acc": statistics.fmean(checker.accs) if checker.accs else 0.0,
        "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
    }
    return {name: (value, END_TO_END_UNITS[name])
            for name, value in values.items()}


def _invoke_in_process(afec, argv: list[str]) -> tuple[float, int]:
    start = time.perf_counter()
    code = afec.cli.main(argv)
    wall = time.perf_counter() - start
    logging.getLogger("afec_lab").handlers.clear()  # main adds one per call
    return wall, code


def measure_traced(afec, prep, seconds: float, workdir: str,
                   checker: Checker) -> dict:
    os.environ["AFEC_LAB_LOG"] = "quiet"
    argv = list(prep.argv)
    argv[argv.index("--jobs") + 1] = "1"  # pool workers are not traced
    plain, traced, tracers = [], [], []
    out_dir = os.path.join(workdir, "out")
    for i in rounds(seconds):
        # Alternate which half of the pair runs first, so that warm-up and
        # drift do not land on one side of the overhead estimate.
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracing.installed(tracing.Tracer(), afec) as tracer:
                    wall, code = _invoke_in_process(afec, argv + ["--out", out_dir])
                traced.append(wall)
                tracers.append(tracer)
            else:
                wall, code = _invoke_in_process(afec, argv + ["--out", out_dir])
                plain.append(wall)
            checker.check(out_dir, code)
            shutil.rmtree(out_dir, ignore_errors=True)
    print(f"bench: {len(traced)} traced and {len(plain)} untraced invocations",
          file=sys.stderr)
    return layer_metrics(tracers, plain, traced)


def layer_metrics(tracers, plain, traced) -> dict:
    def med(fn):
        return statistics.median(fn(t) for t in tracers)

    def count(fn):  # exact: counts repeat on every traced invocation
        return statistics.median_low(fn(t) for t in tracers)

    def pooled_median(name):
        durations = [d for t in tracers for d in t.spans[name].durations]
        return statistics.median(durations) if durations else 0.0

    out = {}
    for name, fields in SPAN_FIELDS.items():
        for field in fields:
            if field == "calls":
                value = count(lambda t: t.spans[name].calls)
            elif field == "self_s":
                value = med(lambda t: t.spans[name].self_time)
            elif field == "total_s":
                value = med(lambda t: t.spans[name].total)
            elif field == "median_us":
                value = pooled_median(name) * 1e6
            else:
                value = pooled_median(name) * 1e3
            out[f"{name}.{field}"] = (value, FIELD_UNITS[field])

    def ratio(num, den):
        return num / den if den else 0.0

    out["nn.gflops_computed"] = (med(lambda t: ratio(
        t.counters["nn.loss_and_grad.flops"],
        t.spans["nn.loss_and_grad"].self_time) / 1e9), "GFLOP/s")
    out["nn.optimizer_step.bytes_computed"] = (
        count(lambda t: t.counters["nn.optimizer_step.bytes"]), "B")
    out["regularizers.train_expanded.useful_frac"] = (count(lambda t: ratio(
        t.counters["regularizers.train_expanded.useful"],
        t.spans["regularizers.train_expanded"].calls)), "frac")
    out["tasks.load_idx.bytes"] = (
        count(lambda t: t.counters["tasks.load_idx.bytes"]), "B")
    out["metrics.emit_report.bytes"] = (
        count(lambda t: t.counters["metrics.emit_report.bytes"]), "B")
    out["continual.run_sequence.covered_frac"] = (med(lambda t: 1.0 - ratio(
        t.spans["continual.run_sequence"].self_time,
        t.spans["continual.run_sequence"].total)), "frac")
    out["trace_overhead_frac"] = (statistics.median(
        t / p - 1.0 for t, p in zip(traced, plain)), "frac")
    return out


# -- reference recording ------------------------------------------------------

def record(afec, names: list[str]) -> None:
    """Run the named workloads at every size on every input set once through
    the CLI and write their per-cell checksums to reference.json."""
    doc = {"checksums": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            doc = json.load(fh)
    doc["machine"] = machine_info()
    doc["seed_sets"] = workloads.SEED_SETS
    for size in workloads.SIZES:
        for name in names:
            per_set = doc["checksums"].setdefault(size, {})[name] = {}
            for k in range(workloads.SEED_SETS):
                with tempfile.TemporaryDirectory(dir=WORK_PARENT) as workdir:
                    prep = workloads.prepare(name, size, k, workdir)
                    out_dir = os.path.join(workdir, "out")
                    log = os.path.join(workdir, "child.log")
                    code = spawn(cli_command(prep, out_dir), child_env(workdir),
                                 workdir, log)["exit_code"]
                    results = list(read_results(afec, prep, out_dir))
                    if code != 0 or any(c is None for _, c, _ in results):
                        fail(f"{name} set {k}: CLI exited {code}\n"
                             f"{_tail(log)}")
                per_set[str(k)] = {fname: c for fname, c, _ in results}
                print(f"bench: recorded {size} {name} set {k}: final_acc "
                      f"{statistics.fmean(a for _, _, a in results):.4f}",
                      file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- entry point --------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: toy sizes for the smoke test")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference checksums and exit")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    afec = import_program()
    print(f"bench: machine {json.dumps(machine_info())}", file=sys.stderr)
    os.makedirs(WORK_PARENT, exist_ok=True)
    try:
        if args.record:
            record(afec, [args.workload] if args.workload
                   else list(workloads.BUILDERS))
            return 0
        with tempfile.TemporaryDirectory(dir=WORK_PARENT) as workdir:
            prep = workloads.prepare(args.workload, args.size, args.seed,
                                     workdir)
            refs, recorded_on = load_references(args.size, args.workload,
                                                prep.input_set)
            checker = Checker(afec, prep, refs, recorded_on)
            if args.trace:
                values = measure_traced(afec, prep, args.seconds, workdir,
                                        checker)
            else:
                values = measure(afec, prep, args.seconds, workdir, checker)
    finally:
        try:
            os.rmdir(WORK_PARENT)
        except OSError:
            pass
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
