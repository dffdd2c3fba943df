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

Every op works on stacks: leading axes are batch axes (items, attention
heads), and the last one or two axes are what the op is about.  Broadcasting
is deliberately restricted: a scalar with a tensor; ``add`` of a tensor
whose shape is a suffix of the other's (a bias row, a position table),
repeated over the leading axes; ``matmul`` of a stack by one weight matrix;
and ``scale`` and the ``softmax`` mask, whose constant arrays broadcast to
the tracked operand's shape.  Everything else requires exact shape
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
    """``a @ b`` over a's leading axes: a stack ``(..., n, k)`` times one
    ``k x m`` weight, run as a single matrix product over every row, or
    times a stack ``(..., k, m)`` with the same leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    x, w = a.data, b.data
    if (x.ndim < 2 or w.ndim < 2 or x.shape[-1] != w.shape[-2]
            or (w.ndim > 2 and x.shape[:-2] != w.shape[:-2])):
        raise ShapeError(f"matmul {a.shape} @ {b.shape}")
    if x.ndim > 2 and w.ndim == 2:
        k, m = w.shape
        rows = x.reshape(-1, k)

        def bwd(g):
            g = g.reshape(-1, m)
            return (g @ w.T).reshape(x.shape), rows.T @ g

        return _node((rows @ w).reshape(*x.shape[:-1], m), (a, b), bwd)

    def bwd(g):
        return g @ w.swapaxes(-1, -2), x.swapaxes(-1, -2) @ g

    return _node(x @ w, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose needs at least a matrix, got {a.shape}")
    return _node(a.data.swapaxes(-1, -2), (a,), lambda g: (g.swapaxes(-1, -2),))


def split_heads(a: Tensor, heads: int) -> Tensor:
    """``(..., T, heads * dh)`` to ``(..., heads, T, dh)``: each head's
    columns become one slice of a new heads axis; undone by ``merge_heads``."""
    shape = a.data.shape
    if len(shape) < 2 or heads < 1 or shape[-1] % heads:
        raise ShapeError(f"cannot split {shape} into {heads} heads")
    out = a.data.reshape(*shape[:-1], heads, shape[-1] // heads).swapaxes(-3, -2)
    return _node(out, (a,), lambda g: (g.swapaxes(-3, -2).reshape(shape),))


def merge_heads(a: Tensor) -> Tensor:
    """``(..., heads, T, dh)`` to ``(..., T, heads * dh)``, the inverse of
    ``split_heads``."""
    if a.data.ndim < 3:
        raise ShapeError(f"merge_heads needs a heads axis, got {a.shape}")
    *lead, h, t, dh = a.data.shape
    out = a.data.swapaxes(-3, -2).reshape(*lead, t, h * dh)
    return _node(out, (a,), lambda g: (g.reshape(*lead, t, h, dh).swapaxes(-3, -2),))


def add(a: Tensor, b) -> Tensor:
    a = as_tensor(a)
    if isinstance(b, (int, float, np.floating, np.integer)):
        return _node(a.data + float(b), (a,), lambda g: (g,))
    b = as_tensor(b)
    if a.shape == b.shape:
        return _node(a.data + b.data, (a, b), lambda g: (g, g))
    n = b.data.ndim
    if n < a.data.ndim and a.shape[a.data.ndim - n:] == b.shape:
        # b repeats over a's leading axes: a bias row, a position table
        def bwd(g):
            return g, g.reshape(-1, *b.shape).sum(axis=0) if b.requires_grad else None

        return _node(a.data + b.data, (a, b), bwd)
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


def scale(a: Tensor, c) -> Tensor:
    """``a`` times a constant: a number, or an untracked array that
    broadcasts to ``a``'s shape (per-row loss weights)."""
    a = as_tensor(a)
    c = float(c) if np.ndim(c) == 0 else np.asarray(c, dtype=np.float64)
    out = a.data * c
    if out.shape != a.shape:
        raise ShapeError(f"scale {a.shape} by {np.shape(c)}")
    return _node(out, (a,), lambda g: (g * c,))


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


def softmax(a: Tensor, axis: int = -1, mask=None) -> Tensor:
    """Rows sum to one; stabilized by max subtraction along ``axis``.

    ``mask`` is an untracked constant added to ``a`` first, broadcasting to
    its shape: 0 keeps an entry, ``-inf`` gives it weight exactly 0 (an
    attention mask).  Every row must keep at least one entry."""
    a = as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    x = a.data
    if mask is not None:
        if np.broadcast_shapes(np.shape(mask), a.shape) != a.shape:
            raise ShapeError(f"softmax mask {np.shape(mask)} for shape {a.shape}")
        x = x + mask
    shifted = x - x.max(axis=axis, keepdims=True)
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
    """Select rows ``table[ids]`` for ids of any shape, giving
    ``ids.shape + (width,)``; backward scatter-adds into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim < 1:
        raise ShapeError("embedding ids must be at least a 1-d sequence")
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


def stack(parts: Sequence[Tensor]) -> Tensor:
    """Tensors of one shape stacked along a new leading axis."""
    parts = [as_tensor(p) for p in parts]
    if not parts or any(p.shape != parts[0].shape for p in parts):
        raise ShapeError(f"stack of shapes {[p.shape for p in parts]}")
    return _node(np.stack([p.data for p in parts]), tuple(parts), tuple)


def index(a: Tensor, key) -> Tensor:
    """``a[key]`` for a basic index: a tuple of ints and step-1 slices
    over the leading axes, each inside its axis and selecting something;
    backward scatters into zeros."""
    a = as_tensor(a)
    key = key if isinstance(key, tuple) else (key,)
    if len(key) > a.data.ndim:
        raise ShapeError(f"index {key} has more axes than shape {a.shape}")
    for k, n in zip(key, a.shape):
        if isinstance(k, slice):
            if k.step not in (None, 1):
                raise ShapeError(f"index {key}: only step-1 slices")
            lo, hi = 0 if k.start is None else k.start, n if k.stop is None else k.stop
        else:
            lo = hi = int(k)
            hi += 1
        if not 0 <= lo < hi <= n:
            raise ShapeError(f"index {key} out of bounds for {a.shape}")

    def bwd(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return _node(a.data[key], (a,), bwd)


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
    """Gather along the last axis: result[...] = a[..., ids[...]], with
    ``ids`` shaped like ``a`` without its last axis."""
    a = as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)
    if a.data.ndim < 1 or ids.shape != a.shape[:-1]:
        raise ShapeError(f"pick over {a.shape} with ids of shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= a.shape[-1]):
        raise DomainError("pick id out of range")
    at = ids[..., None]

    def bwd(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, at, g[..., None], axis=-1)
        return (ga,)

    return _node(np.take_along_axis(a.data, at, axis=-1)[..., 0], (a,), bwd)


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
