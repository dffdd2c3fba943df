"""Dense float64 tensors with reverse-mode differentiation.

Every value that participates in training is a :class:`Tensor` wrapping a
numpy float64 array.  An op's result owns the array the op computed, or
is a view of it (the heads of ``project_heads``) or of its input
(``index``), with no copy; only ``Tensor(...)`` and ``custom_op`` copy
what they are given, and ``constant`` wraps an array that nobody writes.
Operations build an implicit computation graph; :func:`backward` replays
it in reverse execution order and accumulates gradients into the
``grad`` field of every leaf that was created with
``requires_grad=True``.  Gradients accumulate across repeated
backward calls until explicitly zeroed, which is what lets several loss
terms sum their contributions into shared parameters.

Inside ``with no_grad():`` no op records anything: results are plain
untracked tensors with no parents and no backward rule, whatever their
inputs, so inference builds no graph that nobody will replay.  The mode
is one module flag, restored on exit even when the block raises, and
blocks nest.  ``backward`` on a result computed under it raises
``ContractError``, as on any loss that depends on no tracked tensor.  No
op builds an array that only its backward rule reads: the rule computes
it (the relu mask of ``_feed_forward_rows``, the softmax of
``log_softmax``), so an op that no graph records pays for its forward
alone.

Every op works on stacks: leading axes are batch axes (items, attention
heads), and the last one or two axes are what the op is about.  Broadcasting
is deliberately restricted: a number with a tensor, in ``add`` only; ``add``
of a tensor whose shape is a suffix of the other's (a bias row, a position
table), repeated over the leading axes; ``matmul``, ``project_heads`` and
the sublayers of a stack by weight matrices; and the constant arrays of
``scale`` and of an attention mask, which broadcast to the shape of the
tracked operand (the attention scores).  Everything else requires exact
shape agreement.  ``layer_norm`` adds ``LAYER_NORM_EPS`` = 1e-5 to the
variance.  Of one row (a one-item decode step) it takes the two row sums
as Python floats and divides, adds and takes the root in Python, which
rounds as numpy's float64 does, so the row gets the bits it would get in
a stack; a numpy call on a 1-element array costs more than the row's
arithmetic.  Row reductions call ``np.add.reduce`` and
``np.maximum.reduce``, what ``.sum``, ``.mean`` and ``.max`` compute, bit
for bit, without their Python-level wrappers.

A transformer's pre-norm residual sublayer ``x + f(layer_norm(x))`` is one
op and one tape node: ``self_attention_sublayer``,
``cross_attention_sublayer`` (whose keys and values come from
``project_heads``, once per memory) and ``feed_forward_sublayer``.  Each
checks every operand's shape before any product.  Its forward evaluates
the numpy expressions of the chain of single-op nodes it replaces, in the
chain's order: the norm, one product per projection, the attention core
(``_attention_rows``) or the feed-forward net (``_feed_forward_rows``),
then the residual ``+``.  Its backward applies the chain's rules and sums
what the chain's nodes would have summed in the order ``backward`` would
have: the normed input's projection gradients as ``(v + k) + q``, and
the node's parents listed in the order the chain's rules reach them, the
input first for the residual and again after the weights for the norm.
So a sublayer's input gathers its gradient with those of its other
consumers exactly as through the chain, and both give the same bits.

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
coordinates stays in one process.  Each of grad-check's CTC-rule checks
has at most 24 coordinates, so the harness maps the checks themselves
across the CPUs instead.  The result is bit-identical to one share's: a
child sends each difference as its raw float64 bytes, and the calling
process scores the differences in the same tensor-by-tensor order.
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


def constant(data: np.ndarray) -> Tensor:
    """An untracked tensor over the float64 array ``data`` itself, not a
    copy: for an array that nobody writes, such as a read-only table that
    every model shares."""
    return _node(data, (), None)


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


def _split_heads(y: np.ndarray, heads: int) -> np.ndarray:
    """``(..., T, m)`` as ``(..., heads, T, m / heads)``, each head's
    columns one slice of the new heads axis; a view."""
    return y.reshape(*y.shape[:-1], heads, y.shape[-1] // heads).swapaxes(-3, -2)


def _merge_heads(o: np.ndarray) -> np.ndarray:
    """``(..., heads, T, dh)`` as ``(..., T, heads * dh)``, the inverse of
    ``_split_heads``."""
    *lead, h, t, dh = o.shape
    return o.swapaxes(-3, -2).reshape(*lead, t, h * dh)


def _refuse(op: str, **operands) -> ShapeError:
    """The ``ShapeError`` of ``op``, naming the shapes of its operands."""
    return ShapeError(f"{op} of " + ", ".join(f"{name} {np.shape(a)}" for name, a in operands.items()))


def _check_mask(mask, shape: tuple, op: str) -> None:
    """Refuse an attention ``mask`` that does not broadcast to the scores'
    ``shape``."""
    try:
        fits = np.broadcast_shapes(np.shape(mask), shape) == shape
    except ValueError:
        fits = False
    if not fits:
        raise ShapeError(f"{op} mask {np.shape(mask)} for scores {shape}")


def _layer_norm_rows(a: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple:
    """``layer_norm`` of an array: the output and the backward rule, which
    maps the output's gradient to those of ``a``, ``gain`` and ``bias``."""
    # np.add.reduce(...) / n is what ndarray.mean and .var compute, bit
    # for bit, without their Python-level wrappers, which cost a visible
    # share of a training step at one call per sublayer
    n = a.shape[-1]
    rowsum = np.add.reduce
    if a.size == n and n:
        # one row, a decode step: its statistics as Python floats, which
        # round as float64 arrays do, spare five numpy calls on 1-element
        # arrays that cost more than the row's arithmetic
        centered = a - rowsum(a, axis=-1).item() / n
        inv = 1.0 / math.sqrt(rowsum(centered * centered, axis=-1).item() / n + LAYER_NORM_EPS)
    else:
        centered = a - rowsum(a, axis=-1, keepdims=True) / n
        inv = 1.0 / np.sqrt(rowsum(centered * centered, axis=-1, keepdims=True) / n + LAYER_NORM_EPS)
    normed = centered * inv

    def bwd(g):
        gn = g * gain
        gm = rowsum(gn, axis=-1, keepdims=True) / n
        gy = rowsum(gn * normed, axis=-1, keepdims=True) / n
        return (
            (gn - gm - normed * gy) * inv,
            rowsum((g * normed).reshape(-1, n), axis=0),
            rowsum(g.reshape(-1, n), axis=0),
        )

    return normed * gain + bias, bwd


def _attention_rows(q: np.ndarray, k: np.ndarray, v: np.ndarray, w: np.ndarray, mask) -> tuple:
    """Scaled dot-product attention of head-split arrays, then the merged
    heads' output projection: ``merge(softmax(q kᵀ / sqrt(dh) + mask) v) @
    w``.  Returns the output, the attention weights P and the backward
    rule, which maps the output's gradient to those of q, k, v and w.

    The rule is the softmax one, ``dS = P * (dP - rowsum(dP * P))`` (Dao et
    al. 2022), evaluated with the same numpy expressions, in the same
    order, as a chain of single-op nodes (transpose, matmul, scale,
    softmax, matmul, head merge, matmul), so both give the same bits.
    The operands' shapes are the caller's to check."""
    c = 1.0 / math.sqrt(q.shape[-1])
    scores = (q @ k.swapaxes(-1, -2)) * c
    if mask is not None:
        scores = scores + mask
    # np.maximum.reduce and np.add.reduce are what ndarray.max and .sum
    # compute, bit for bit, without their Python-level wrappers
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    p = e / np.add.reduce(e, axis=-1, keepdims=True)
    merged = _merge_heads(p @ v)

    def bwd(g):
        d_merged, d_w = _by_weight_grads(merged, w, g)
        d_o = _split_heads(d_merged, q.shape[-3])
        d_p = d_o @ v.swapaxes(-1, -2)
        d_v = p.swapaxes(-1, -2) @ d_o
        d_s = (p * (d_p - np.add.reduce(d_p * p, axis=-1, keepdims=True))) * c
        return d_s @ k, (q.swapaxes(-1, -2) @ d_s).swapaxes(-1, -2), d_v, d_w

    return _by_weight(merged, w), p, bwd


def _feed_forward_rows(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                      b2: np.ndarray) -> tuple:
    """A position-wise feed-forward net of an array, ``relu(x @ w1 + b1) @
    w2 + b2``.  Returns the output and the backward rule, which maps the
    output's gradient to those of x, w1, b1, w2 and b2.

    Forward and backward do the same arithmetic, in the same order, as a
    chain of single-op nodes (matmul, add, relu, matmul, add), so both
    give the same bits.  The relu is ``np.where(pre > 0.0, pre, 0.0)``,
    NaN and -0.0 included, and its rule is ``g * (pre > 0.0)``, with the
    mask read as ``hidden > 0.0``, which is the same at every value.  The
    operands' shapes are the caller's to check."""
    # every array written in place below is a fresh product of this call
    pre = _by_weight(x, w1)
    pre += b1
    # np.where(pre > 0.0, pre, 0.0) bit for bit: fmax maps NaN to 0.0,
    # and adding 0.0 turns -0.0 into 0.0 and leaves every other value as
    # it is; the two branch-free passes cost a fifth of one select by a
    # random mask
    hidden = np.fmax(pre, 0.0, out=pre)
    hidden += 0.0

    def bwd(g):
        d_pre, d_w2 = _by_weight_grads(hidden, w2, g)
        # positive where pre is, and 0.0 where pre is NaN, ±0.0 or negative
        d_pre *= hidden > 0.0
        d_x, d_w1 = _by_weight_grads(x, w1, d_pre)
        return d_x, d_w1, d_pre.reshape(-1, *b1.shape).sum(axis=0), d_w2, g.reshape(-1, *b2.shape).sum(axis=0)

    out = _by_weight(hidden, w2)
    out += b2
    return out, bwd


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
    return _node(_split_heads(_by_weight(xd, wd), heads), (x, w),
                 lambda g: _by_weight_grads(xd, wd, _merge_heads(g)))


def self_attention_sublayer(x: Tensor, gain: Tensor, bias: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                            wo: Tensor, heads: int, mask, past) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """A pre-norm residual self-attention sublayer as one node: ``x +
    attention(q, k, v)`` with ``q``, ``k`` and ``v`` the ``layer_norm`` of
    ``x`` (by ``gain`` and ``bias``) times ``wq``, ``wk`` and ``wv``, each
    split into ``heads``, and ``wo`` the output projection.

    ``x`` is ``(..., T, d)``; ``wq``, ``wk`` and ``wv`` are ``d x m`` and
    ``wo`` is ``m x d``.  ``past`` is None or the head-split keys and
    values ``(..., heads, P, m / heads)`` of P earlier positions, arrays
    that come before this call's own and take no gradient.  ``mask`` is
    an untracked constant added to the scores, broadcasting to ``(...,
    heads, T, P + T)``.  Returns the output and the head-split keys and
    values, ``past``'s first, as arrays.
    """
    xd, w = x.data, wq.data
    shape = xd.shape
    if (len(shape) < 2 or gain.shape != shape[-1:] or bias.shape != shape[-1:] or w.ndim != 2
            or w.shape[0] != shape[-1] or wk.shape != w.shape or wv.shape != w.shape or heads < 1
            or w.shape[1] % heads or wo.shape != (w.shape[1], shape[-1])):
        raise _refuse(f"self_attention_sublayer of {heads} heads", x=xd, gain=gain.data, bias=bias.data, wq=w,
                      wk=wk.data, wv=wv.data, wo=wo.data)
    *lead, t, _ = shape
    seen = 0
    if past is not None:
        seen = past[0].shape[-2]
        if not past[0].shape == past[1].shape == (*lead, heads, seen, w.shape[1] // heads):
            raise _refuse(f"self_attention_sublayer of {heads} heads", x=xd, wq=w, past_k=past[0],
                          past_v=past[1])
    if mask is not None:
        _check_mask(mask, (*lead, heads, t, seen + t), "self_attention_sublayer")
    normed, norm_bwd = _layer_norm_rows(xd, gain.data, bias.data)
    q, k, v = (_split_heads(_by_weight(normed, p.data), heads) for p in (wq, wk, wv))
    if past is not None:
        k, v = np.concatenate([past[0], k], axis=-2), np.concatenate([past[1], v], axis=-2)
    out, _, attend_bwd = _attention_rows(q, k, v, wo.data, mask)

    def bwd(g):
        d_q, d_k, d_v, d_wo = attend_bwd(g)
        d_nv, d_wv = _by_weight_grads(normed, wv.data, _merge_heads(d_v[..., seen:, :]))
        d_nk, d_wk = _by_weight_grads(normed, wk.data, _merge_heads(d_k[..., seen:, :]))
        d_nq, d_wq = _by_weight_grads(normed, w, _merge_heads(d_q))
        return (g, d_wo, d_wv, d_wk, d_wq, *norm_bwd((d_nv + d_nk) + d_nq))

    return _node(xd + out, (x, wo, wv, wk, wq, x, gain, bias), bwd), k, v


def cross_attention_sublayer(x: Tensor, gain: Tensor, bias: Tensor, wq: Tensor, k: Tensor, v: Tensor,
                             wo: Tensor, mask) -> tuple[Tensor, np.ndarray]:
    """A pre-norm residual cross-attention sublayer as one node: ``x +
    attention(q, k, v)`` with ``q`` the ``layer_norm`` of ``x`` (by
    ``gain`` and ``bias``) times ``wq``, split into as many heads as ``k``
    has, and ``wo`` the output projection.

    ``x`` is ``(..., T, d)``, ``wq`` is ``d x m``, the keys and values
    ``k`` and ``v`` are ``(..., heads, S, m / heads)`` and ``wo`` is ``m x
    d``.  ``mask`` is an untracked constant added to the scores,
    broadcasting to ``(..., heads, T, S)``.  Returns the output and the
    attention weights, an array.
    """
    xd, w, kd = x.data, wq.data, k.data
    shape = xd.shape
    if (len(shape) < 2 or gain.shape != shape[-1:] or bias.shape != shape[-1:] or w.ndim != 2
            or w.shape[0] != shape[-1] or kd.ndim != len(shape) + 1 or v.shape != kd.shape
            or kd.shape[:-3] != shape[:-2] or kd.shape[-3] * kd.shape[-1] != w.shape[1]
            or wo.shape != (w.shape[1], shape[-1])):
        raise _refuse("cross_attention_sublayer", x=xd, gain=gain.data, bias=bias.data, wq=w, k=kd,
                      v=v.data, wo=wo.data)
    heads = kd.shape[-3]
    if mask is not None:
        _check_mask(mask, (*shape[:-2], heads, shape[-2], kd.shape[-2]), "cross_attention_sublayer")
    normed, norm_bwd = _layer_norm_rows(xd, gain.data, bias.data)
    out, weights, attend_bwd = _attention_rows(_split_heads(_by_weight(normed, w), heads), kd, v.data,
                                              wo.data, mask)

    def bwd(g):
        d_q, d_k, d_v, d_wo = attend_bwd(g)
        d_n, d_wq = _by_weight_grads(normed, w, _merge_heads(d_q))
        return (g, d_k, d_v, d_wo, d_wq, *norm_bwd(d_n))

    return _node(xd + out, (x, k, v, wo, wq, x, gain, bias), bwd), weights


def feed_forward_sublayer(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
                          b2: Tensor) -> Tensor:
    """A pre-norm residual feed-forward sublayer as one node: ``x +
    relu(n @ w1 + b1) @ w2 + b2`` with ``n`` the ``layer_norm`` of ``x``
    (by ``gain`` and ``bias``).

    ``x`` is ``(..., T, d)``, ``w1`` is ``d x f``, ``b1`` has ``f``
    entries, ``w2`` is ``f x d`` and ``b2`` has ``d`` entries.
    """
    xd, w, u = x.data, w1.data, w2.data
    shape = xd.shape
    if (len(shape) < 2 or gain.shape != shape[-1:] or bias.shape != shape[-1:] or w.ndim != 2 or u.ndim != 2
            or w.shape[0] != shape[-1] or b1.shape != w.shape[1:] or u.shape != (w.shape[1], shape[-1])
            or b2.shape != shape[-1:]):
        raise _refuse("feed_forward_sublayer", x=xd, gain=gain.data, bias=bias.data, w1=w, b1=b1.data, w2=u,
                      b2=b2.data)
    normed, norm_bwd = _layer_norm_rows(xd, gain.data, bias.data)
    out, ffn_bwd = _feed_forward_rows(normed, w, b1.data, u, b2.data)

    def bwd(g):
        d_n, d_w1, d_b1, d_w2, d_b2 = ffn_bwd(g)
        return (g, d_w1, d_b1, d_w2, d_b2, *norm_bwd(d_n))

    return _node(xd + out, (x, w1, b1, w2, b2, x, gain, bias), bwd)


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
    e = np.exp(a.data - np.maximum.reduce(a.data, axis=-1, keepdims=True))
    out = e / np.add.reduce(e, axis=-1, keepdims=True)

    def bwd(g):
        return (out * (g - np.add.reduce(g * out, axis=-1, keepdims=True)),)

    return _node(out, (a,), bwd)


def log_softmax_rows(u: np.ndarray) -> np.ndarray:
    """The log-softmax of each row of an array, stabilized by max
    subtraction: the forward of ``log_softmax`` and the log frame
    posteriors of ``ctc``."""
    shifted = u - np.maximum.reduce(u, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def log_softmax(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = log_softmax_rows(a.data)

    def bwd(g):
        return (g - np.exp(out) * np.add.reduce(g, axis=-1, keepdims=True),)

    return _node(out, (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``gain * (a - mean) / sqrt(var + LAYER_NORM_EPS) + bias`` along the
    last axis.

    ``gain`` and ``bias`` are vectors as wide as the last axis, shared by
    every row (Ba et al. 2016).  The affine is part of this one node, so
    it adds no mul/add nodes to the tape.
    """
    a = as_tensor(a)
    for name, p in (("gain", gain), ("bias", bias)):
        if p.shape != a.shape[-1:]:
            raise ShapeError(f"layer_norm {name} {p.shape} for input {a.shape}")
    out, bwd = _layer_norm_rows(a.data, gain.data, bias.data)
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


def concat(parts: Sequence[Tensor]) -> Tensor:
    """``parts`` stacked along their first axis; parts that disagree off
    it, or have no axis, raise ``ShapeError`` naming their shapes."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    try:
        out = np.concatenate([p.data for p in parts])
    except ValueError:
        raise ShapeError(f"concat of shapes {[p.shape for p in parts]}") from None
    sizes = [p.data.shape[0] for p in parts]

    def bwd(g):
        # split points are worked out here, so a forward pass that is never
        # replayed (inference) does not pay for np.cumsum
        return tuple(np.split(g, np.cumsum(sizes)[:-1]))

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
    return _node(np.add.reduce(a.data, axis=None) / n, (a,), lambda g: (np.full_like(a.data, float(g) / n),))


def sum_all(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return _node(np.add.reduce(a.data, axis=None), (a,), lambda g: (np.full_like(a.data, float(g)),))


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
