"""Spans and counters recorded from outside the package.

A :class:`Tracer` keeps every span in memory as ``[name, start, end,
parent, op]``, where ``op`` is the index of the enclosing operation span
(a training step, one decode, one round of suites) or ``None``.  The
benchmark opens the operation spans itself.  With ``install_layers`` the
tracer also replaces public functions and methods of ``oracle_distill``
with thin wrappers that open a span per call and bump counters; every
replacement is undone by ``restore``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

OP_KINDS = ("step", "student", "teacher", "round")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self.student_decode = 0  # depth of open student predict calls
        self.aed_decode = 0  # depth of open encoder-decoder predict calls
        self.gradient_report = 0  # depth of open full_gradient_report calls

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if name in OP_KINDS:
            self._op = idx
        self.spans.append([name, self.clock(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")
        if self._op == idx:
            self._op = None
        return span[2] - span[1]

    def discard(self, idx: int) -> None:
        """Drop an open span that turned out to hold no work."""
        self.close(idx)
        self.spans[idx][0] = None

    def intervals(self, name: str) -> list[tuple[float, float]]:
        return [(s[1], s[2]) for s in self.spans if s[0] == name]

    def count(self, key: str, n: int = 1) -> None:
        """Count work inside an operation; work outside one is not counted."""
        if self._op is not None:
            self.counts[key] += n

    def self_time_violations(self, tolerance: float = 1e-9) -> int:
        """Operations whose descendants' self times add up to more than the
        operation's own duration.

        This holds by construction: spans nest as a stack (``close``
        refuses any other order) and share one monotonic clock.  A nonzero
        count means the tracer's own bookkeeping is broken, not the
        program."""
        children = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and name is not None:
                children[parent] += end - start
        inside = defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if name is not None and op is not None and op != idx:
                inside[op] += (end - start) - children[idx]
        return sum(
            1
            for idx, (name, start, end, _, _) in enumerate(self.spans)
            if name in OP_KINDS and inside[idx] > (end - start) + tolerance
        )

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def patch_function(self, func, new) -> None:
        """Replace ``func`` in every package module that binds it."""
        for name, module in list(sys.modules.items()):
            if name == "oracle_distill" or name.startswith("oracle_distill."):
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self.patch(module, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def spanned(self, name: str, func, after=None, enter=None):
        """``func`` wrapped in a span; ``after(args, kwargs, result)`` runs
        once the span is closed, ``enter(args, kwargs, +1 / -1)`` around it."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args, kwargs, 1)
            idx = tracer.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(idx)
                if enter is not None:
                    enter(args, kwargs, -1)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of the package."""
    from oracle_distill import ctc, diagnostics, harness, models, objectives, tasks, tensor

    t = tracer

    def fn(func, name, after=None, enter=None):
        t.patch_function(func, t.spanned(name, func, after, enter))

    def method(cls, attr, name, after=None, enter=None):
        t.patch(cls, attr, t.spanned(name, cls.__dict__[attr], after, enter))

    # tensor: backward spans, tape sizes, and tracked nodes built while a
    # student decodes (nodes no backward pass will ever replay)
    fn(tensor.backward, "tensor.backward")
    tape_init = tensor.Tape.__init__

    def tape_init_counted(self, root):
        tape_init(self, root)
        t.count("tape_nodes", len(self.nodes))

    t.patch(tensor.Tape, "__init__", tape_init_counted)
    make_node = tensor._node

    def node_counted(data, parents, backward):
        out = make_node(data, parents, backward)
        if t.student_decode and out._backward is not None:
            t.counts["student_decode_nodes"] += 1
        return out

    t.patch(tensor, "_node", node_counted)

    # ctc: DP cells and exhaustive enumeration
    def dp_cells(args, kwargs, _):
        u = _arg(args, kwargs, 0, "u")
        frames = (u.data if hasattr(u, "data") else u).shape[0]
        t.count("dp_cells", frames * (2 * len(_arg(args, kwargs, 1, "y")) + 1))

    fn(ctc.ctc_loss_dp, "ctc.ctc_loss_dp", after=dp_cells)
    fn(ctc.ctc_loss_bruteforce, "ctc.ctc_loss_bruteforce")

    def enumerated(args, kwargs, paths):
        vocab = _arg(args, kwargs, 2, "vocab")
        t.count("paths_scanned", vocab.size ** _arg(args, kwargs, 1, "n_frames"))
        t.count("paths_feasible", len(paths))

    fn(ctc.enumerate_alignments, "ctc.enumerate_alignments", after=enumerated)

    # models
    def student(args, kwargs, step):
        t.student_decode += step

    def aed(args, kwargs, step):
        t.aed_decode += step

    def aed_student(args, kwargs, step):
        student(args, kwargs, step)
        aed(args, kwargs, step)

    def tokens(args, kwargs, out):
        t.counts["decode_tokens"] += len(out)

    def positions(args, kwargs, _):
        if t.aed_decode:
            t.counts["decode_positions"] += len(list(_arg(args, kwargs, 2, "prefix_ids")))

    for cls in (models.CtcModel, models.AedModel):
        method(cls, "encode", "models.encode")
        method(cls, "teacher_logits", "models.teacher_logits")
    method(models.CtcModel, "predict", "models.predict", enter=student)
    method(models.CtcModel, "predict_teacher", "models.predict_teacher")
    method(models.AedModel, "predict", "models.predict", after=tokens, enter=aed_student)
    method(models.AedModel, "predict_teacher", "models.predict_teacher", after=tokens, enter=aed)
    method(models.AedModel, "decode_logits", "models.decode_logits", after=positions)

    param_get = models.ParamStore.get

    def get_counted(store, name):
        t.count("param_reads")
        if t.student_decode and name.startswith(models.AUX_PREFIXES):
            t.counts["aux_reads_student_decode"] += 1
        return param_get(store, name)

    t.patch(models.ParamStore, "get", get_counted)

    def checkpoint_size(args, kwargs, _):
        t.counts["checkpoint_bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))

    fn(models.save_checkpoint, "models.save_checkpoint", after=checkpoint_size)
    fn(models.load_checkpoint, "models.load_checkpoint")

    # objectives
    def objective_eval(args, kwargs, _):
        if t.gradient_report:
            t.counts["gradient_report_evals"] += 1

    fn(objectives.loss_total, "objectives.loss_total", after=objective_eval)
    method(objectives.Adam, "step", "objectives.Adam.step")

    # tasks
    fn(tasks.gen_ctc_dataset, "tasks.gen_dataset")
    fn(tasks.gen_aed_dataset, "tasks.gen_dataset")
    t.patch_function(tasks.batch_iter, _traced_batches(t, tasks.batch_iter))

    # harness
    evaluate = harness.evaluate
    by_mode = {m: t.spanned(f"harness.evaluate.{m}", evaluate) for m in ("student", "teacher")}

    @functools.wraps(evaluate)
    def evaluate_spanned(*args, **kwargs):
        mode = _arg(args, kwargs, 2, "mode")
        t.counts[f"evaluated_{mode}"] += len(_arg(args, kwargs, 1, "examples"))
        return by_mode.get(mode, evaluate)(*args, **kwargs)

    t.patch_function(evaluate, evaluate_spanned)

    def report(args, kwargs, step):
        t.gradient_report += step

    fn(harness.full_gradient_report, "harness.full_gradient_report", enter=report)

    # diagnostics
    fn(diagnostics.check_lower_bound, "diagnostics.check_lower_bound")


def _traced_batches(t: Tracer, batch_iter):
    """batch_iter with each ``next`` in a span, and padding measured."""

    @functools.wraps(batch_iter)
    def wrapper(*args, **kwargs):
        batches = batch_iter(*args, **kwargs)
        while True:
            idx = t.open("tasks.batch_iter")
            try:
                batch = next(batches)
            except StopIteration:
                return
            finally:
                t.close(idx)
            lengths = getattr(batch, "lengths", None)
            if lengths is not None:
                t.count("batch_cells_useful", int(sum(lengths)))
                t.count("batch_cells_padded", int(len(lengths) * max(lengths)))
            yield batch

    return wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from one traced phase; ``*_per_step`` means per
    operation of the workload, and a layer a workload never reaches reads 0."""
    total = defaultdict(float)  # seconds per span name, anywhere
    in_ops = defaultdict(float)  # seconds per span name, inside operations
    calls = Counter()
    children = defaultdict(float)
    for name, start, end, parent, _ in tracer.spans:
        if name is not None and parent is not None:
            children[parent] += end - start
    loss_self = 0.0
    for idx, (name, start, end, _, op) in enumerate(tracer.spans):
        if name is None:
            continue
        total[name] += end - start
        calls[name] += 1
        if op is not None:
            in_ops[name] += end - start
            if name == "objectives.loss_total":
                loss_self += (end - start) - children[idx]
    c = tracer.counts

    def per_op_ms(name):
        return _ratio(in_ops[name] * 1e3, n_ops)

    def per_call_ms(name):
        return _ratio(total[name] * 1e3, calls[name])

    return {
        "tensor.backward.ms_per_step": per_op_ms("tensor.backward"),
        "tensor.tape_nodes_per_step": _ratio(c["tape_nodes"], n_ops),
        "tensor.tape_nodes_per_decode": _ratio(c["student_decode_nodes"], calls["models.predict"]),
        "ctc.ctc_loss_dp.ms_per_step": per_op_ms("ctc.ctc_loss_dp"),
        "ctc.dp_cells_per_step": _ratio(c["dp_cells"], n_ops),
        "ctc.ctc_loss_dp.us_per_cell": _ratio(in_ops["ctc.ctc_loss_dp"] * 1e6, c["dp_cells"]),
        "ctc.ctc_loss_bruteforce.ms": per_call_ms("ctc.ctc_loss_bruteforce"),
        "ctc.enumeration.paths_scanned": _ratio(c["paths_scanned"], n_ops),
        "ctc.enumeration.feasible_ratio": _ratio(c["paths_feasible"], c["paths_scanned"]),
        "models.encode.ms_per_step": per_op_ms("models.encode"),
        "models.teacher_logits.ms_per_step": per_op_ms("models.teacher_logits"),
        "models.decode_logits.ms_per_step": per_op_ms("models.decode_logits"),
        "models.decode_positions_per_token": _ratio(c["decode_positions"], c["decode_tokens"]),
        "models.param_reads_per_step": _ratio(c["param_reads"], n_ops),
        "models.aux_reads_student_decode": c["aux_reads_student_decode"],
        "models.save_checkpoint.ms": per_call_ms("models.save_checkpoint"),
        "models.checkpoint_bytes": c["checkpoint_bytes"],
        "models.load_checkpoint.ms": per_call_ms("models.load_checkpoint"),
        "objectives.loss_total.self_ms_per_step": _ratio(loss_self * 1e3, n_ops),
        "objectives.Adam.step.ms_per_step": per_op_ms("objectives.Adam.step"),
        "tasks.gen_dataset.ms": per_call_ms("tasks.gen_dataset"),
        "tasks.batch_iter.ms_per_step": per_op_ms("tasks.batch_iter"),
        "tasks.batch_useful_ratio": _ratio(c["batch_cells_useful"], c["batch_cells_padded"]),
        "harness.evaluate.student_ms_per_example": _ratio(
            total["harness.evaluate.student"] * 1e3, c["evaluated_student"]),
        "harness.evaluate.teacher_ms_per_example": _ratio(
            total["harness.evaluate.teacher"] * 1e3, c["evaluated_teacher"]),
        "harness.full_gradient_report.objective_evals": _ratio(
            c["gradient_report_evals"], calls["harness.full_gradient_report"]),
        "harness.full_gradient_report.ms_per_eval": _ratio(
            total["harness.full_gradient_report"] * 1e3, c["gradient_report_evals"]),
        "harness.check_ctc_suite.ms": per_call_ms("harness.check_ctc_suite"),
        "harness.grad_check_suite.ms": per_call_ms("harness.grad_check_suite"),
        "harness.bound_check_suite.ms": per_call_ms("harness.bound_check_suite"),
        "diagnostics.check_lower_bound.ms_per_instance": per_call_ms("diagnostics.check_lower_bound"),
    }
