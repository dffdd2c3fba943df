"""Source hygiene checked with the standard library's ``ast`` alone: no
unused imports, no module reaching into another's private names, no
defaulted parameter that no call ever sets, no function that nothing
names, the last two also with the tests left out of the callers, and no
differentiable op without a finite-difference row.  Also the test
session's own settings, the benchmark's tracer against the package and
against a training run, and each benchmark workload's own output check."""

import ast
import importlib.util
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from oracle_distill import harness
from oracle_distill.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oracle_distill"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names listed in
    ``__all__`` count as read, since they are re-exported."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .x import a, b\n__all__ = ['b']\nnp.zeros(a)\n"
    assert unused_imports(source) == ["os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore names a module imports from another package module."""
    return sorted(
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for a in node.names
        if a.name.startswith("_") and not a.name.startswith("__")
    )


def test_checker_finds_a_private_import():
    source = "from .ctc import Vocab, _extended\nfrom __future__ import annotations\n"
    assert private_imports(source) == ["_extended"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_between_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def unset_defaults(package_sources: list[str], caller_sources: list[str]) -> list[str]:
    """``name(param)`` for each defaulted parameter of a function or method
    in ``package_sources``, other than ``__init__``, that no call in
    ``caller_sources`` passes.

    Calls match by the called name alone.  A call passes a parameter by its
    keyword or by enough positional arguments (a method's ``self`` or
    ``cls`` is not counted); a ``*`` argument passes every positional one
    and a ``**`` argument every one.  A literal equal to the default, such
    as ``axis=-1`` for ``axis=-1``, sets nothing."""
    calls: dict[str, list[ast.Call]] = {}
    for source in caller_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(value: ast.expr, default: ast.expr) -> bool:
        try:
            return ast.literal_eval(value) != ast.literal_eval(default)
        except ValueError:  # not a literal
            return True

    def passed(call: ast.Call, name: str, position: int | None, default: ast.expr) -> bool:
        for k in call.keywords:
            if k.arg is None:  # a ** argument
                return True
            if k.arg == name:
                return sets(k.value, default)
        if position is None:
            return False
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return len(call.args) > position and sets(call.args[position], default)

    unset = []
    for source in package_sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name == "__init__":
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(args.defaults)
            defaulted = [(a.arg, i - skip, d)
                         for i, (a, d) in enumerate(zip(positional[first:], args.defaults), first)]
            defaulted += [(a.arg, None, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param, position, default in defaulted:
                if not any(passed(call, param, position, default) for call in calls.get(node.name, [])):
                    unset.append(f"{node.name}({param})")
    return sorted(unset)


def test_checker_finds_a_parameter_no_call_sets():
    package = (
        "def f(a, b=1, *, c=2):\n    pass\n"
        "def k(*, t=0):\n    pass\n"
        "def g(p=0, q=0):\n    pass\n"
        "def h(r=-1, s='a', u=None):\n    pass\n"
        "class K:\n"
        "    def __init__(self, z=0):\n        pass\n"
        "    def m(self, x, y=0):\n        pass\n"
    )
    # a literal equal to the default sets nothing; another literal or a
    # name does
    callers = "f(1, c=3)\nk()\ng(*xs)\ng(**kw)\nK().m(1, 2)\nh(-1, s='a', u=None)\nh(r=-1, s=a, u=0)\n"
    assert unset_defaults([package], [callers]) == ["f(b)", "h(r)", "k(t)"]


# the sklearn parameter protocol, and the console entry point (argv from sys.argv)
UNSET_ALLOWED = {"get_params(deep)", "main(argv)"}


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    callers = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    unset = unset_defaults(
        [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))],
        [p.read_text(encoding="utf-8") for p in callers],
    )
    assert sorted(set(unset) - UNSET_ALLOWED) == []


SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def own_nodes(scope):
    """The nodes of ``scope`` outside the scopes nested in it; a nested
    scope is yielded itself, but not entered."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def free_names(scope, outer: frozenset = frozenset()):
    """The bare names loaded in ``scope`` and the scopes nested in it where
    no enclosing scope binds them as an assignment, argument, loop or
    comprehension target.  A class body's names reach none of its
    methods, as in Python."""
    bound = set(outer)
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        bound |= {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None}
    nodes = list(own_nodes(scope))
    bound |= {n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
    inner = outer if isinstance(scope, ast.ClassDef) else frozenset(bound)
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
            yield node.id
        elif isinstance(node, SCOPES):
            yield from free_names(node, inner)


def unreferenced_functions(package_sources: list[str], all_sources: list[str],
                           modules: set[str]) -> list[str]:
    """Qualified names of the functions and methods in ``package_sources``
    that no source in ``all_sources`` reads by name outside the function's
    own definition.

    A read is a loaded name or attribute with the function's name, so a
    call, a callback or a function handed to a tracer all count, but a
    bare name counts only where no enclosing scope binds it (a local
    ``stack`` list is not the function ``stack``); dunder
    methods, which Python calls itself, are skipped.  A module-level
    function is read only by its bare name, by an import of it from the
    package, or as an attribute of a name that a ``from`` import binds to
    one of the package's ``modules`` (``tt.exp``, not ``np.exp``).  A method is read by any
    attribute of its name, so one that shares its name with another
    class's method or a builtin's (``predict``, ``items``, ``get``)
    can hide there."""

    def package_imports(tree):
        """The ``from`` imports in ``tree`` of the package or its modules."""
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "oracle_distill"
            ):
                yield node

    def module_aliases(tree) -> set[str]:
        """The names that imports in ``tree`` bind to a package module."""
        return {a.asname or a.name for node in package_imports(tree) for a in node.names
                if a.name in modules}

    def reads(tree, aliases) -> tuple[Counter, Counter]:
        """Reads of a name by any attribute or name, and the reads that
        reach a module-level function of that name."""
        anywhere = Counter()
        module_level = Counter(a.name for node in package_imports(tree) for a in node.names)
        for name in free_names(tree):
            anywhere[name] += 1
            module_level[name] += 1
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                anywhere[node.attr] += 1
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    module_level[node.attr] += 1
        return anywhere, module_level

    def definitions(node, prefix=""):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not isinstance(child, ast.ClassDef):
                    yield prefix + child.name, child
                yield from definitions(child, f"{prefix}{child.name}.")
            else:
                yield from definitions(child, prefix)

    everywhere = [Counter(), Counter()]
    for source in all_sources:
        tree = ast.parse(source)
        for total, counted in zip(everywhere, reads(tree, module_aliases(tree))):
            total.update(counted)
    unread = []
    for source in package_sources:
        tree = ast.parse(source)
        aliases = module_aliases(tree)
        for qualified, node in definitions(tree):
            kind = int("." not in qualified)  # 1: a module-level function
            if not node.name.startswith("__") and (
                everywhere[kind][node.name] == reads(node, aliases)[kind][node.name]
            ):
                unread.append(qualified)
    return sorted(unread)


def test_checker_finds_a_function_nothing_names():
    package = (
        "def used():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def callback():\n    pass\n"
        "class K:\n"
        "    def __len__(self):\n        return 0\n"
        "    def method(self):\n        def inner():\n            pass\n        return 1\n"
        "    def dead(self):\n        self.dead = 1\n"
    )
    callers = "used()\nK().method()\nrun(on_step=callback)\n"
    assert unreferenced_functions([package], [package, callers], MODULES) == [
        "K.dead", "K.method.inner", "recursive"]


def test_checker_ignores_a_bare_name_its_scope_binds():
    package = (
        "def stack(parts):\n    pass\n"
        "def walk(n):\n    pass\n"
        "def item(i):\n    pass\n"
        "def row(i):\n    pass\n"
        "def kept():\n    pass\n"
        "class Tape:\n"
        "    kept = 1\n"
        "    def build(self, root, walk):\n"
        "        stack = [root]\n"
        "        items = [item for item in walk]\n"
        "        f = lambda row: row\n"
        "        def inner():\n            return stack\n"
        "        return inner, items, f\n"
        "    def count(self):\n        return kept()\n"
    )
    callers = "Tape().build(1, [])\nTape().count()\n"
    # a local list, an argument, a comprehension target and a lambda's
    # argument each hide the function of their name, also from a nested
    # scope; a class attribute does not reach the class's methods
    assert unreferenced_functions([package], [package, callers], MODULES) == [
        "item", "row", "stack", "walk"]


def test_checker_reads_a_module_function_only_through_the_package():
    package = (
        "def exp(a):\n    pass\n"
        "def log(a):\n    pass\n"
        "def relu(a):\n    pass\n"
        "def pick(a):\n    pass\n"
        "class K:\n"
        "    def get(self):\n        pass\n"
    )
    callers = (
        "import numpy as np\n"
        "from oracle_distill import tensor as tt\n"
        "from oracle_distill.tensor import relu\n"
        "np.exp(1)\ntt.log(2)\nother.pick(3)\n{}.get(0)\n"
    )
    # K.get hides behind dict.get: methods are read by their bare name
    assert unreferenced_functions([package], [package, callers], {"tensor"}) == ["exp", "pick"]


def test_every_function_is_named_somewhere_outside_its_definition():
    sources = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced_functions(
        [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))],
        [p.read_text(encoding="utf-8") for p in sources],
        MODULES,
    ) == []


# the code that ships and the benchmark, without any test file
SHIPPED = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
           if not p.name.startswith("test_")]

# reached from outside the repo alone: the sklearn estimator protocol
# (fit, score, set_params, get_params), which sklearn's own tools call,
# and the console entry point, whose argv comes from sys.argv
STRICT_ALLOWED = {"fit", "score", "set_params", "get_params(deep)", "main(argv)"}


def test_every_defaulted_parameter_is_set_outside_the_tests():
    unset = unset_defaults(
        [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))],
        [p.read_text(encoding="utf-8") for p in SHIPPED],
    )
    assert sorted(set(unset) - STRICT_ALLOWED) == []


def test_every_function_is_named_outside_the_tests():
    unnamed = unreferenced_functions(
        [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))],
        [p.read_text(encoding="utf-8") for p in SHIPPED],
        MODULES,
    )
    assert [q for q in unnamed if q.rsplit(".", 1)[-1] not in STRICT_ALLOWED] == []


def ops_without_fd_rows(tensor_source: str, test_source: str, tables: set[str]) -> list[str]:
    """The module-level functions of ``tensor_source`` that call ``_node``,
    other than ``custom_op``, that no function named in ``tables`` names
    in ``test_source``.

    ``custom_op`` takes its backward rule from its caller, so its rules are
    checked where they are supplied.  A name counts by any read of it, as
    a bare name or as an attribute (``T.attention``)."""
    named = set()
    for node in ast.parse(test_source).body:
        if isinstance(node, ast.FunctionDef) and node.name in tables:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    named.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    named.add(sub.attr)
    ops = [
        node.name
        for node in ast.parse(tensor_source).body
        if isinstance(node, ast.FunctionDef) and node.name != "custom_op"
        and any(isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "_node"
                for sub in ast.walk(node))
    ]
    return sorted(set(ops) - named)


def test_checker_finds_an_op_without_a_gradient_row():
    tensor = (
        "def _node(d, p, b):\n    pass\n"
        "def custom_op(d, p, b):\n    return _node(d, p, b)\n"
        "def exp(a):\n    return _node(a, (a,), lambda g: (g,))\n"
        "def log(a):\n    return _node(a, (a,), None)\n"
        "def pick(a):\n    return _node(a, (a,), None)\n"
        "def sub(a, b):\n    return exp(a)\n"
        "class K:\n    def detach(self):\n        return _node(1, (), None)\n"
    )
    tests = (
        "def cases():\n    return {'exp': lambda t: T.exp(t)}\n"
        "def more():\n    return log\n"
        "def other():\n    return T.pick\n"
    )
    assert ops_without_fd_rows(tensor, tests, {"cases", "more"}) == ["pick"]


def test_every_op_has_a_finite_difference_row():
    assert ops_without_fd_rows(
        (PACKAGE / "tensor.py").read_text(encoding="utf-8"),
        (ROOT / "tests" / "test_tensor.py").read_text(encoding="utf-8"),
        {"_fd_cases", "_attention_fd_cases"},
    ) == []


PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n < 10


def test_a_passing_test():
    pass
"""


def test_a_failing_property_fails_alone_under_the_warning_filters(tmp_path):
    # explaining a failing property imports a module that warns of a
    # deprecation; as an error, it would end the session inside a hook
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout and "INTERNALERROR" not in run.stdout + run.stderr


LEAK_PROBE = """
def test_a_leaked_file(tmp_path):
    open(tmp_path / "leaked.txt", "w")


def test_a_passing_test():
    pass
"""


def test_a_leaked_file_fails_its_test_under_the_warning_filters(tmp_path):
    # a file left open warns when it is collected; the filters make that
    # warning fail the test that leaked it
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_probe.py").write_text(LEAK_PROBE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout and "INTERNALERROR" not in run.stdout + run.stderr


CHILD_PROBE = """
import os


def test_a_child_left_unreaped():
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # exited, not reaped


def test_a_passing_test():
    pass
"""


def test_a_child_process_left_unreaped_fails_its_test(tmp_path):
    # the autouse fixture of tests/conftest.py fails the test after which
    # a child process is left, running or exited
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_probe.py").write_text(CHILD_PROBE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "2 passed, 1 error" in run.stdout and "left a child process unreaped (pid" in run.stdout


MARKER_PROBE = """
import pytest


@pytest.mark.slwo
def test_a_misspelled_marker():
    pass
"""


def test_an_unregistered_marker_fails_under_the_strict_settings(tmp_path):
    # a mistyped marker stops collection instead of warning
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_probe.py").write_text(MARKER_PROBE)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode != 0, run.stdout + run.stderr
    assert "'slwo' not found in `markers` configuration option" in run.stdout + run.stderr


def _benchmark_tracing():
    """``perfbench/tracing.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_the_benchmark_tracer_installs_and_restores():
    # the tracer wraps package functions and methods by name, so a rename
    # in the package fails here rather than only in a traced benchmark run
    tracing = _benchmark_tracing()
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    originals = {}
    for owner, attr, old in tracer._patches:
        originals.setdefault((owner, attr), old)
    try:
        assert originals and all(owner.__dict__[attr] is not old for (owner, attr), old in originals.items())
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is old for (owner, attr), old in originals.items())


# the spans a short training run with evaluations and checkpoints opens
RUN_SPANS = {"tasks.gen_dataset", "tasks.batch_iter", "objectives.loss_total", "models.encode",
             "tensor.backward", "objectives.Adam.step", "models.save_checkpoint", "harness.evaluate.student",
             "harness.evaluate.teacher", "models.predict", "models.predict_teacher"}
TASK_SPANS = {"ctc": {"models.teacher_logits", "ctc.ctc_loss_dp"}, "aed": {"models.decode_logits"}}


@pytest.mark.parametrize("task", sorted(TASK_SPANS))
def test_the_benchmark_tracer_sees_a_training_run(task, tmp_path):
    # the tracer rebinds module-level names only: a wrapped function that
    # the package reaches through a table, a default argument or a closure
    # escapes it, and its span drops out of the benchmark's layer figures
    tracing = _benchmark_tracing()
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        harness.train_run(RunConfig(task=task, steps=2, n_examples=40, eval_every=2), tmp_path / "run")
    finally:
        tracer.restore()
    assert RUN_SPANS | TASK_SPANS[task] <= {span[0] for span in tracer.spans}


def _benchmark(monkeypatch):
    """``perfbench/workloads.py`` and the ``tracing`` module it imports."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("workloads"), importlib.import_module("tracing")


# each workload of the benchmark at a few operations
SHORT_WORKLOADS = {
    "train-ctc": lambda w, tmp: w.TrainWorkload("ctc", 0, tmp, steps=3),
    "train-aed": lambda w, tmp: w.TrainWorkload("aed", 0, tmp, steps=3),
    "decode-aed": lambda w, tmp: w.DecodeWorkload(0, limit=3),
    "verify": lambda w, tmp: w.VerifyWorkload(0, suites=(
        ("check_ctc", lambda: harness.check_ctc_suite(4)),
        ("bound_check", lambda: harness.bound_check_suite(4)),
    )),
}


@pytest.mark.parametrize("name", sorted(SHORT_WORKLOADS))
def test_each_benchmark_workload_passes_its_own_output_check(name, tmp_path, monkeypatch):
    # run_pass counts an operation whose output fails its check as failed,
    # and the benchmark reports the share of failed operations
    workloads, tracing = _benchmark(monkeypatch)
    workload = SHORT_WORKLOADS[name](workloads, tmp_path)
    workload.setup()
    result = workload.run_pass(tracing.Tracer())
    assert result.ops > 0 and result.failed == 0


def test_a_student_decode_records_no_graph(monkeypatch):
    workloads, tracing = _benchmark(monkeypatch)
    workload = workloads.DecodeWorkload(0, limit=3)
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        workload.setup()
        result = workload.run_pass(tracer)
    finally:
        tracer.restore()
    assert result.ops == 6 and result.failed == 0
    assert len(tracer.intervals("models.predict")) == 3
    assert tracer.counts["student_decode_nodes"] == 0
    assert tracer.counts["aux_reads_student_decode"] == 0
