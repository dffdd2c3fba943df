"""Dense float64 tensors with reverse-mode differentiation.

Every value that participates in training is a :class:`Tensor` wrapping a
numpy float64 array.  An op's result owns the array the op computed, or
is a view of it (the heads of ``project_heads``) or of its input
(``index``), with no copy; only ``Tensor(...)`` and ``custom_op`` copy
what they are given.  Operations build an implicit computation graph;
:func:`backward` replays it in reverse execution order and accumulates
gradients into the ``grad`` field of every leaf that was created with
``requires_grad=True``.  Gradients accumulate across repeated
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
is deliberately restricted: a number with a tensor, in ``add`` only; ``add``
of a tensor whose shape is a suffix of the other's (a bias row, a position
table), repeated over the leading axes; ``matmul``, ``project_heads`` and
``feed_forward`` of a stack by weight matrices; and the constant arrays of
``scale`` and of the ``attention`` mask, which broadcast to the shape of
the tracked operand (the attention scores).  Everything else requires
exact shape agreement.  ``layer_norm`` adds ``LAYER_NORM_EPS`` = 1e-5 to
the variance.

A transformer's sublayers are fused ops, each one tape node.  Attention is
two of them: ``project_heads`` is a projection split into heads, and
``attention`` takes head-split queries, keys and values through the masked
softmax to the merged heads' output projection.  ``feed_forward`` is the
whole position-wise feed-forward sublayer, ``relu(x @ w1 + b1) @ w2 + b2``.

``finite_differences`` checks analytic gradients against central
differences, two evaluations of the objective per coordinate, and each
coordinate's pair is independent of every other.  So its coordinates,
laid end to end tensor by tensor, go through ``shares.share_map``: cut
into contiguous shares, one per CPU in ``os.sched_getaffinity(0)`` but
each of at least ``FD_MIN_SHARE`` = 64 coordinates, every share after the
first computed by a forked child.  The minimum is sized from measurements
on a 2-core host: a forked share costs a round trip of 1.2-1.5 ms, and a
coordinate at least about 47 us, two evaluations of the cheapest
objective the package checks (the CTC rule on 6 x 4 logits); so a share's
work is at least twice its fork, and a check of fewer than 128
coordinates stays in one process.  The result is bit-identical to one
share's: a child sends each difference as its raw float64 bytes, and the
calling process scores the differences in the same tensor-by-tensor
order.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError
from .shares import share_map

_serial = itertools.count()

# False inside ``no_grad``: ops then record no graph
_grad_enabled = True

LAYER_NORM_EPS = 1e-5

# central-difference step of ``finite_differences``
FD_STEP = 1e-5

# fewest coordinates in a share of ``finite_differences``, sized from the
# fork round trip as the module docstring says
FD_MIN_SHARE = 64


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

    def detach(self) -> "Tensor":
        """Same values, cut off from the graph.  Data is shared, not copied."""
        return _node(self.data, (), None)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    """Internal graph node; tracked only if some parent is tracked and
    ``no_grad`` is not in force.  The node takes ``data`` without a copy;
    ``asarray`` only turns the numpy scalar of a 0-d op into an array."""
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data)
    out.requires_grad = False
    out.grad = None
    out._parents = ()
    out._backward = None
    out._serial = next(_serial)
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
    ``data`` is copied, since it may be an array the caller keeps.
    """
    return _node(np.array(data, dtype=np.float64), parents, backward)


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

    ``loss`` must be scalar.  Repeated calls keep adding into ``grad``, in
    place once it exists (so into an optimizer's flat gradient when the
    leaf's ``grad`` is a view of it); between optimization steps, set the
    leaves' ``grad`` to None or call the optimizer's ``zero_grad``.
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


def _by_weight(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a stack ``(..., n, k)`` and one ``k x m`` weight, as a
    single matrix product over every row."""
    # one matrix, alone or as a stack of one, is multiplied as that matrix,
    # without the two reshapes that cost more than the product of one
    # decoded row
    if x.size == x.shape[-2] * x.shape[-1]:
        return x @ w
    return (x.reshape(-1, w.shape[0]) @ w).reshape(*x.shape[:-1], w.shape[1])


def _by_weight_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray) -> tuple:
    """The gradients of ``_by_weight(x, w)`` with respect to x and w."""
    g = g.reshape(-1, w.shape[1])
    return (g @ w.T).reshape(x.shape), x.reshape(-1, w.shape[0]).T @ g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b`` over a's leading axes: a stack ``(..., n, k)`` times one
    ``k x m`` weight, run as a single matrix product over every row, or
    times a stack ``(..., k, m)`` with the same leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    x, w = a.data, b.data
    if (x.ndim < 2 or w.ndim < 2 or x.shape[-1] != w.shape[-2]
            or (w.ndim > 2 and x.shape[:-2] != w.shape[:-2])):
        raise ShapeError(f"matmul {a.shape} @ {b.shape}")
    if w.ndim == 2:
        return _node(_by_weight(x, w), (a, b), lambda g: _by_weight_grads(x, w, g))

    def bwd(g):
        return g @ w.swapaxes(-1, -2), x.swapaxes(-1, -2) @ g

    return _node(x @ w, (a, b), bwd)


def project_heads(x: Tensor, w: Tensor, heads: int) -> Tensor:
    """``x @ w`` split into heads: ``(..., T, k)`` times one ``k x m``
    weight gives ``(..., heads, T, m / heads)``, each head's columns one
    slice of the new heads axis.  The split result is a view of the
    product."""
    x, w = as_tensor(x), as_tensor(w)
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"project_heads {x.shape} @ {w.shape}")
    if heads < 1 or wd.shape[1] % heads:
        raise ShapeError(f"cannot split {wd.shape[1]} columns into {heads} heads")
    y = _by_weight(xd, wd)
    shape = y.shape
    out = y.reshape(*shape[:-1], heads, shape[-1] // heads).swapaxes(-3, -2)
    return _node(out, (x, w), lambda g: _by_weight_grads(xd, wd, g.swapaxes(-3, -2).reshape(shape)))


def attention(q: Tensor, k: Tensor, v: Tensor, wo: Tensor, mask=None) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention over head-split stacks, then the merged
    heads' output projection, as one node:
    ``merge(softmax(q kᵀ / sqrt(dh) + mask) v) @ wo``.

    ``q`` is ``(..., heads, Tq, dh)``, ``k`` and ``v`` are ``(..., heads,
    Tk, dh)`` with the same leading axes, and ``wo`` is ``heads * dh x m``;
    the output is ``(..., Tq, m)``.  ``mask`` is an untracked constant added
    to the scores, broadcasting to ``(..., heads, Tq, Tk)``: 0 keeps a key,
    ``-inf`` gives it weight exactly 0.  Every query must keep a key.
    Returns the output and the attention weights P, an array.

    The backward rule is the softmax one, ``dS = P * (dP - rowsum(dP * P))``
    (Dao et al. 2022), evaluated with the same numpy expressions, in the
    same order, as the chain of single-op nodes it fuses (transpose,
    matmul, scale, softmax, matmul, head merge, matmul), so both give the
    same bits.
    """
    q, k, v, wo = (as_tensor(t) for t in (q, k, v, wo))
    qd, kd, vd, w = q.data, k.data, v.data, wo.data
    if (qd.ndim < 3 or kd.shape != vd.shape or kd.shape[:-2] != qd.shape[:-2]
            or kd.shape[-1] != qd.shape[-1] or w.shape[0] != qd.shape[-3] * qd.shape[-1]):
        raise ShapeError(f"attention of q {q.shape}, k {k.shape}, v {v.shape}, wo {wo.shape}")
    c = 1.0 / math.sqrt(qd.shape[-1])
    scores = (qd @ kd.swapaxes(-1, -2)) * c
    if mask is not None:
        try:
            fits = np.broadcast_shapes(np.shape(mask), scores.shape) == scores.shape
        except ValueError:
            fits = False
        if not fits:
            raise ShapeError(f"attention mask {np.shape(mask)} for scores {scores.shape}")
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    o = p @ vd
    *lead, h, t, dh = o.shape
    merged = o.swapaxes(-3, -2).reshape(*lead, t, h * dh)

    def bwd(g):
        d_merged, d_wo = _by_weight_grads(merged, w, g)
        d_o = d_merged.reshape(*lead, t, h, dh).swapaxes(-3, -2)
        d_p = d_o @ vd.swapaxes(-1, -2)
        d_v = p.swapaxes(-1, -2) @ d_o
        d_s = (p * (d_p - (d_p * p).sum(axis=-1, keepdims=True))) * c
        return d_s @ kd, (qd.swapaxes(-1, -2) @ d_s).swapaxes(-1, -2), d_v, d_wo

    return _node(_by_weight(merged, w), (q, k, v, wo), bwd), p


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """A position-wise feed-forward sublayer as one node:
    ``relu(x @ w1 + b1) @ w2 + b2``.

    ``x`` is ``(..., T, d)``, ``w1`` is ``d x f``, ``b1`` has ``f``
    entries, ``w2`` is ``f x m`` and ``b2`` has ``m`` entries; the output
    is ``(..., T, m)``.  Forward and backward do the same arithmetic, in
    the same order, as the chain of single-op nodes it fuses (matmul, add,
    relu, matmul, add), so both give the same bits.  The relu is
    ``np.where(pre > 0.0, pre, 0.0)``, NaN and -0.0 included, and its rule
    is ``g * (pre > 0.0)``.
    """
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    xd, w, v = x.data, w1.data, w2.data
    if (xd.ndim < 2 or w.ndim != 2 or v.ndim != 2 or xd.shape[-1] != w.shape[0]
            or b1.shape != w.shape[1:] or v.shape[0] != w.shape[1] or b2.shape != v.shape[1:]):
        raise ShapeError(f"feed_forward of x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, "
                         f"w2 {w2.shape}, b2 {b2.shape}")
    # every array written in place below is a fresh product of this op
    pre = _by_weight(xd, w)
    pre += b1.data
    mask = pre > 0.0
    # np.where(mask, pre, 0.0) bit for bit: fmax maps NaN to 0.0, and
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it
    # is; the two branch-free passes cost a fifth of one select by a
    # random mask
    hidden = np.fmax(pre, 0.0, out=pre)
    hidden += 0.0

    def bwd(g):
        d_pre, d_w2 = _by_weight_grads(hidden, v, g)
        d_pre *= mask
        d_x, d_w1 = _by_weight_grads(xd, w, d_pre)
        return (d_x, d_w1, d_pre.reshape(-1, *b1.shape).sum(axis=0), d_w2,
                g.reshape(-1, *b2.shape).sum(axis=0))

    out = _by_weight(hidden, v)
    out += b2.data
    return _node(out, (x, w1, b1, w2, b2), bwd)


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


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(as_tensor(b), -1.0))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
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


def log(a: Tensor) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log of non-positive value")
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def softmax(a: Tensor) -> Tensor:
    """Rows along the last axis sum to one; stabilized by max subtraction."""
    a = as_tensor(a)
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return (out * (g - (g * out).sum(axis=-1, keepdims=True)),)

    return _node(out, (a,), bwd)


def log_softmax_rows(u: np.ndarray) -> np.ndarray:
    """The log-softmax of each row of an array, stabilized by max
    subtraction: the forward of ``log_softmax`` and the log frame
    posteriors of ``ctc``."""
    shifted = u - u.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = log_softmax_rows(a.data)
    sm = np.exp(out)

    def bwd(g):
        return (g - sm * g.sum(axis=-1, keepdims=True),)

    return _node(out, (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``gain * (a - mean) / sqrt(var + LAYER_NORM_EPS) + bias`` along the
    last axis.

    ``gain`` and ``bias`` are vectors as wide as the last axis, shared by
    every row (Ba et al. 2016).  The affine is part of this one node, so
    it adds no mul/add nodes to the tape.
    """
    a = as_tensor(a)
    width = a.shape[-1:]
    for name, p in (("gain", gain), ("bias", bias)):
        if p.shape != width:
            raise ShapeError(f"layer_norm {name} {p.shape} for input {a.shape}")
    # np.add.reduce(...) / n is what ndarray.mean and .var compute, bit
    # for bit, without their Python-level wrappers, which cost a visible
    # share of a training step at one call per sublayer
    n = width[0]
    rowsum = np.add.reduce
    centered = a.data - rowsum(a.data, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(rowsum(centered * centered, axis=-1, keepdims=True) / n + LAYER_NORM_EPS)
    normed = centered * inv
    out = normed * gain.data + bias.data

    def bwd(g):
        gn = g * gain.data
        gm = rowsum(gn, axis=-1, keepdims=True) / n
        gy = rowsum(gn * normed, axis=-1, keepdims=True) / n
        return (
            (gn - gm - normed * gy) * inv,
            rowsum((g * normed).reshape(-1, n), axis=0),
            rowsum(g.reshape(-1, n), axis=0),
        )

    return _node(out, (a, gain, bias), bwd)


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
        # one bin per table cell, summing the rows of g in the order of
        # ids from +0.0
        width = table.shape[1]
        cells = (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        return (np.bincount(cells, g.reshape(-1), table.data.size).reshape(table.shape),)

    return _node(out, (table,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """``parts`` joined along ``axis``; parts that disagree off it, or an
    axis they lack, raise ``ShapeError`` naming their shapes."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat along axis {axis} of shapes {[p.shape for p in parts]}") from None
    sizes = [p.data.shape[axis] for p in parts]

    def bwd(g):
        # split points are worked out here, so a forward pass that is never
        # replayed (inference) does not pay for np.cumsum
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _node(out, tuple(parts), bwd)


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


def _central_difference(f: Callable[[], Tensor], coord) -> float:
    """The central difference of ``f`` at one (flat data, index)
    coordinate, which is restored, also when ``f`` raises."""
    flat, i = coord
    orig = flat[i]
    try:
        flat[i] = orig + FD_STEP
        fp = f().item()
        flat[i] = orig - FD_STEP
        fm = f().item()
    finally:
        flat[i] = orig
    return (fp - fm) / (2.0 * FD_STEP)


def finite_differences(f: Callable[[], Tensor], tensors: Sequence[Tensor]):
    """Worst relative error of the analytic gradient of the deterministic
    scalar ``f()`` over every coordinate of ``tensors``, whose ``grad`` is
    cleared before and after.

    A coordinate's error is |analytic - numeric| / max(1e-8, |numeric|),
    numeric by central differences.  The coordinates, tensor by tensor,
    are mapped by ``shares.share_map``, whose shares hold at least
    ``FD_MIN_SHARE`` = 64 each, since a forked share costs a round trip of
    1.2-1.5 ms and a coordinate at least about 47 us (see the module
    docstring); a child sends its differences as raw float64 bytes, so the
    result is bit-identical to that of one share.  The scan then goes
    tensor by tensor, and only a strictly larger error (or a NaN) replaces
    the worst.  Returns (worst error, position of its tensor, its flat
    index, coordinates checked); position and index are None when no error
    exceeds 0.  When ``f`` raises at some coordinate, the exception of the
    first such coordinate propagates, as from a scan in one process, and
    every parameter keeps its value.
    """
    for x in tensors:
        x.grad = None
    backward(f())
    analytic = [np.zeros_like(x.data) if x.grad is None else x.grad for x in tensors]
    for x in tensors:
        x.grad = None
    flats = [x.data.reshape(-1) for x in tensors]
    coords = [(flat, i) for flat in flats for i in range(flat.size)]
    with no_grad():  # only the analytic pass is replayed
        numeric = share_map(lambda c: _central_difference(f, c), coords, 1, FD_MIN_SHARE)[:, 0]
    worst, at, start = 0.0, (None, None), 0
    for pos, (flat, a) in enumerate(zip(flats, analytic)):
        num = numeric[start:start + flat.size]
        start += flat.size
        rel = np.abs(a.reshape(-1) - num) / np.maximum(1e-8, np.abs(num))
        if rel.size:
            i = int(np.argmax(rel))  # the first of the largest, or the first NaN
            if rel[i] > worst or np.isnan(rel[i]):
                worst, at = float(rel[i]), (pos, i)
    return worst, *at, start


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error of the analytic gradient of f at x, by
    ``finite_differences``.  ``f`` must be a deterministic function
    producing a scalar tensor."""
    if not x.requires_grad:
        raise ContractError("grad_check target must require gradients")
    return finite_differences(lambda: f(x), [x])[0]
