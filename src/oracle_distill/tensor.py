"""Dense float64 tensors with reverse-mode differentiation.

Every value that participates in training is a :class:`Tensor` wrapping a
row-major numpy float64 array.  Operations build an implicit computation
graph; :func:`backward` replays it in reverse execution order and
accumulates gradients into the ``grad`` field of every leaf that was
created with ``requires_grad=True``.  Gradients accumulate across repeated
backward calls until explicitly zeroed, which is what lets several loss
terms sum their contributions into shared parameters.

Inside ``with no_grad():`` no op records anything: results are plain
untracked tensors with no parents and no backward rule, whatever their
inputs, so inference builds no graph that nobody will replay.  The mode
is one module flag, restored on exit even when the block raises, and
blocks nest.  ``backward`` on a result computed under it raises
``ContractError``, as on any loss that depends on no tracked tensor.

Broadcasting is deliberately restricted to scalar-tensor arithmetic and
adding a bias row to a matrix; everything else requires exact shape
agreement.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError

_serial = itertools.count()

# False inside ``no_grad``: ops then record no graph
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Ops inside the block build untracked tensors; usable as a decorator."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """A float64 array plus optional participation in the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_serial")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None
        self._serial = next(_serial)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """Same values, cut off from the graph.  Data is shared, not copied."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.requires_grad = False
        out.grad = None
        out._parents = ()
        out._backward = None
        out._serial = next(_serial)
        return out

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # operator sugar; scalars only on the non-tensor side
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Internal graph node; tracked only if some parent is tracked and
    ``no_grad`` is not in force."""
    out = Tensor(data)
    if not _grad_enabled:
        return out
    for p in parents:  # a plain loop: a generator costs more at 1-3 parents
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            break
    return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def custom_op(data, parents: Sequence[Tensor], backward) -> Tensor:
    """Build a graph node whose backward rule is supplied analytically.

    ``backward(g)`` must return one gradient array (or None) per parent.
    """
    return _node(np.asarray(data, dtype=np.float64), parents, backward)


class Tape:
    """Ordered record of the tracked operations reachable from a root.

    Creation order is a topological order by construction (an op's inputs
    always exist before the op), so replaying the record backward visits
    every node after all of its consumers.
    """

    def __init__(self, root: Tensor):
        nodes = []
        seen = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if id(node) in seen or node._backward is None:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
        nodes.sort(key=lambda n: n._serial)
        self.nodes = nodes


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    ``loss`` must be scalar.  Repeated calls keep adding into ``grad``;
    call ``zero_grad`` on the leaves between optimization steps.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("loss does not depend on any requires_grad tensor")
    if loss._backward is None:
        # the loss is itself a leaf parameter
        if loss.grad is None:
            loss.grad = np.zeros_like(loss.data)
        loss.grad += np.ones_like(loss.data)
        return

    tape = Tape(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent._backward is None:
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += pg
            else:
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _node(out, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a matrix, got {a.shape}")
    return _node(a.data.T.copy(), (a,), lambda g: (g.T,))


def add(a: Tensor, b) -> Tensor:
    a = as_tensor(a)
    if isinstance(b, (int, float, np.floating, np.integer)):
        return _node(a.data + float(b), (a,), lambda g: (g,))
    b = as_tensor(b)
    if a.shape == b.shape:
        return _node(a.data + b.data, (a, b), lambda g: (g, g))
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        # matrix plus bias row
        return _node(a.data + b.data, (a, b), lambda g: (g, g.sum(axis=0)))
    raise ShapeError(f"add {a.shape} + {b.shape}")


def sub(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float, np.floating, np.integer)):
        return add(a, -float(b))
    return add(a, scale(as_tensor(b), -1.0))


def mul(a: Tensor, b) -> Tensor:
    a = as_tensor(a)
    if isinstance(b, (int, float, np.floating, np.integer)):
        return scale(a, float(b))
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul {a.shape} * {b.shape}")

    def bwd(g):
        return g * b.data, g * a.data

    return _node(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    return _node(a.data * c, (a,), lambda g: (g * c,))


def exp(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log of non-positive value")
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    return _node(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Rows sum to one; stabilized by max subtraction along ``axis``."""
    a = as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)

    return _node(out, (a,), bwd)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"log_softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    sm = np.exp(out)

    def bwd(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return _node(out, (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor | None = None, bias: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """``gain * (a - mean) / sqrt(var + eps) + bias`` along the last axis.

    ``gain`` and ``bias`` are vectors as wide as the last axis, shared by
    every row (Ba et al. 2016).  Either may be omitted, standing for ones
    or zeros; a gain of ones and a bias of zeros give output bit-identical
    to the plain normalisation.  The affine is part of this one node, so
    it adds no mul/add nodes to the tape.
    """
    a = as_tensor(a)
    width = a.shape[-1:]
    for name, p in (("gain", gain), ("bias", bias)):
        if p is not None and p.shape != width:
            raise ShapeError(f"layer_norm {name} {p.shape} for input {a.shape}")
    # np.add.reduce(...) / n is what ndarray.mean and .var compute, bit
    # for bit, without their Python-level wrappers, which cost a visible
    # share of a training step at one call per sublayer
    n = width[0]
    rowsum = np.add.reduce
    centered = a.data - rowsum(a.data, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(rowsum(centered * centered, axis=-1, keepdims=True) / n + eps)
    normed = centered * inv
    out = normed if gain is None else normed * gain.data
    if bias is not None:
        out = out + bias.data
    affine = tuple(p for p in (gain, bias) if p is not None)

    def bwd(g):
        param_grads = []
        if gain is not None:
            param_grads.append(rowsum((g * normed).reshape(-1, n), axis=0))
        if bias is not None:
            param_grads.append(rowsum(g.reshape(-1, n), axis=0))
        gn = g if gain is None else g * gain.data
        gm = rowsum(gn, axis=-1, keepdims=True) / n
        gy = rowsum(gn * normed, axis=-1, keepdims=True) / n
        return ((gn - gm - normed * gy) * inv, *param_grads)

    return _node(out, (a, *affine), bwd)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Select rows ``table[ids]``; backward scatter-adds into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError("embedding ids must be a 1-d sequence")
    if table.data.ndim != 2:
        raise ShapeError("embedding table must be a matrix")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DomainError("embedding id out of range")
    out = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _node(out, (table,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def bwd(g):
        # split points are worked out here, so a forward pass that is never
        # replayed (inference) does not pay for np.cumsum
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _node(out, tuple(parts), bwd)


def narrow(a: Tensor, start: int, stop: int, axis: int = 0) -> Tensor:
    """Contiguous slice [start:stop) along ``axis`` (0 or 1)."""
    a = as_tensor(a)
    if axis not in (0, 1) or axis >= a.data.ndim:
        raise ShapeError(f"narrow axis {axis} invalid for shape {a.shape}")
    if not 0 <= start < stop <= a.shape[axis]:
        raise ShapeError(f"narrow [{start}:{stop}) out of bounds for {a.shape}")
    idx = (slice(start, stop),) if axis == 0 else (slice(None), slice(start, stop))
    out = a.data[idx].copy()

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _node(out, (a,), bwd)


def mean(a: Tensor) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    return _node(np.asarray(a.data.mean()), (a,), lambda g: (np.full_like(a.data, float(g) / n),))


def sum_all(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return _node(np.asarray(a.data.sum()), (a,), lambda g: (np.full_like(a.data, float(g)),))


def sum_sq(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return _node(np.asarray((a.data ** 2).sum()), (a,), lambda g: (2.0 * float(g) * a.data,))


def pick(a: Tensor, ids) -> Tensor:
    """Row-wise gather: result[i] = a[i, ids[i]]."""
    a = as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)
    if a.data.ndim != 2 or ids.ndim != 1 or ids.size != a.shape[0]:
        raise ShapeError(f"pick over {a.shape} with {ids.size} indices")
    if ids.size and (ids.min() < 0 or ids.max() >= a.shape[1]):
        raise DomainError("pick id out of range")
    rows = np.arange(a.shape[0])
    out = a.data[rows, ids]

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[rows, ids] = g
        return (ga,)

    return _node(out, (a,), bwd)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error of the analytic gradient of f at x.

    Central differences per coordinate; the relative error of coordinate i
    is |analytic_i - numeric_i| / max(1e-8, |numeric_i|).  ``f`` must be a
    deterministic function producing a scalar tensor.
    """
    if not x.requires_grad:
        raise ContractError("grad_check target must require gradients")
    x.grad = None
    out = f(x)
    backward(out)
    analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
    x.grad = None

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x).item()
        flat[i] = orig - h
        fm = f(x).item()
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * h)
    numeric = numeric.reshape(x.data.shape)
    rel = np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(numeric))
    return float(rel.max()) if rel.size else 0.0
