"""In-process span tracing of afec-lab, installed from outside the package.

Spans wrap the public functions of each module at the point where they are
looked up: a name imported with `from .x import y` is patched in the module
that calls it (for example `continual.quadratic_penalty`), because patching
`x.y` would not reach that caller. Spans are aggregated in memory by name;
a span's self time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import time
from collections import defaultdict

# Arrays of P float64 values an optimizer step reads plus writes:
# Adam reads params, grad, m, v and writes m, v, new params;
# SGD reads params, grad, velocity and writes velocity, new params.
_OPT_ARRAYS = {"Adam": 7, "SGD": 5}


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = []


class Tracer:
    """Aggregated spans plus named counters, one instance per traced run."""

    def __init__(self):
        self._stack = [0.0]  # time covered by child spans, per open span
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, float] = defaultdict(float)

    def _close(self, stats: SpanStats, duration: float) -> None:
        child = self._stack.pop()
        self._stack[-1] += duration
        stats.calls += 1
        stats.total += duration
        stats.self_time += duration - child
        stats.durations.append(duration)

    def wrap(self, name: str, fn, count=None):
        stats = self.spans[name]
        stack, clock, close = self._stack, time.perf_counter, self._close

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stats, clock() - start)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result
        return traced

    def wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span."""
        stats = self.spans[name]
        stack, clock, close = self._stack, time.perf_counter, self._close

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(stats, clock() - start)
                yield item
        return traced


def _count_flops(counters, args, kwargs, result):
    net, batch = args[0], args[1]
    weights = sum(layer.w.size for layer in net.body)
    weights += net.heads[batch.head].w.size
    # Forward plus the two backward matmuls per layer: 6 * n * in * out.
    counters["nn.loss_and_grad.flops"] += 6 * batch.n * weights


def _count_opt_bytes(counters, args, kwargs, result):
    opt, params = args[0], args[1]
    counters["nn.optimizer_step.bytes"] += (
        8 * params.size * _OPT_ARRAYS[type(opt).__name__])


def _count_expansion(counters, args, kwargs, result):
    # An expansion is useful only when an old anchor exists to converge with.
    if kwargs.get("task_index", 0) > 0:
        counters["regularizers.train_expanded.useful"] += 1


def _count_idx_bytes(counters, args, kwargs, result):
    counters["tasks.load_idx.bytes"] += sum(os.path.getsize(p) for p in args[:2])


def _count_report_bytes(counters, args, kwargs, result):
    out_dir = args[1]
    counters["metrics.emit_report.bytes"] += sum(
        os.path.getsize(os.path.join(out_dir, name)) for name in result)


def _patch_points(afec):
    """(owner, attribute, span name, counter hook) for every traced call.
    Generator functions get one span per resumption."""
    nn, reg, post = afec.nn, afec.regularizers, afec.posterior
    cont, tasks, cli = afec.continual, afec.tasks, afec.cli
    return [
        (nn.Network, "loss_and_grad", "nn.loss_and_grad", _count_flops),
        (nn.Network, "forward", "nn.forward", None),
        (nn.Adam, "step", "nn.optimizer_step", _count_opt_bytes),
        (nn.SGD, "step", "nn.optimizer_step", _count_opt_bytes),
        (nn.Network, "get_params", "nn.param_copy", None),
        (nn.Network, "set_params", "nn.param_copy", None),
        (nn.Network, "clone", "nn.param_copy", None),
        (nn.Network, "per_sample_grad_moment", "nn.per_sample_grad_moment", None),
        (cont, "quadratic_penalty", "regularizers.quadratic_penalty", None),
        (cont, "importance_update", "regularizers.importance_update", None),
        (cont, "epoch_batches", "regularizers.epoch_batches", None),
        (reg, "epoch_batches", "regularizers.epoch_batches", None),
        (cont, "train_expanded", "regularizers.train_expanded", _count_expansion),
        (cont, "estimate_diag_fisher", "posterior.estimate_diag_fisher", None),
        (post, "estimate_diag_fisher", "posterior.estimate_diag_fisher", None),
        (cli, "run_sequence", "continual.run_sequence", None),
        (cont, "evaluate", "continual.evaluate", None),
        (cont, "random_init_baseline", "continual.random_init_baseline", None),
        (cont, "_state_digest", "continual.state_digest", None),
        (tasks, "make_angular_sequence", "tasks.build", None),
        (tasks, "make_conflicting_pair", "tasks.build", None),
        (tasks, "split_tasks", "tasks.build", None),
        (tasks, "load_idx", "tasks.load_idx", _count_idx_bytes),
        (cli, "emit_report", "metrics.emit_report", _count_report_bytes),
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "build_tasks", "cli.build_tasks", None),
        (cli, "_run_cell", "cli.run_cell", None),
        (cli, "result_to_json", "cli.result_json", None),
        (cli, "result_from_json", "cli.result_json", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, afec):
    """Patch the spans of `tracer` into the afec_lab package `afec`; the
    original functions are restored on exit."""
    saved = []
    try:
        for owner, attr, name, count in _patch_points(afec):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            if inspect.isgeneratorfunction(original):
                wrapped = tracer.wrap_generator(name, original)
            else:
                wrapped = tracer.wrap(name, original, count)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
