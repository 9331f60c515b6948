"""Minimal dense-tensor arithmetic with reverse-mode automatic differentiation.

Tensors are immutable float64 arrays of rank <= 2. Operations optionally
record onto an explicit ``Tape``, each with its own backward: a closure over
the forward values it needs. ``backward`` replays the tape in reverse to
produce gradients for every leaf that requires them, dropping each
intermediate gradient as soon as its op has passed it on. The primitives:

- arithmetic: matmul (``dot`` is its vector-vector case), add/sub/mul
  (with numpy broadcasting, so a vector adds to every matrix row and a
  column scales each row), scalar ``scale``, sigmoid and mean;
- over the last axis, so per row for a matrix: ``softmax`` (optionally
  over a mask) and ``logsumexp``;
- structural, gradients routed unchanged: concat, reshape, transpose and
  ``gather`` (rows or entries by an index array, or matrix entries by a
  pair of row and column index arrays);
- ``mean_affine_tanh``: the text encoder as one op, the mean of table rows
  per id segment (plus a shift) through an affine map and tanh.

Everything else in the package is composed from these.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import ContractError, DimensionError, EvaluationError


class Tensor:
    """Immutable float64 array with a gradient flag."""

    __slots__ = ("values", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64, order="C")
        if arr.ndim > 2:
            raise DimensionError(f"rank {arr.ndim} tensors are not supported")
        # lock a view, so an array the caller passed in stays writeable
        self.values = arr.view()
        self.values.flags.writeable = False
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(values, requires_grad: bool = False) -> Tensor:
    """Build a tensor from array-like data."""
    return Tensor(values, requires_grad=requires_grad)


def scalar(value: float) -> Tensor:
    """Constant scalar tensor."""
    return Tensor(np.asarray(float(value)))


class _Node(NamedTuple):
    op: str
    inputs: tuple[int, ...]  # node ids
    vjp: Callable | None  # see _emit; None for a leaf


class Tape:
    """Append-only record of operations; a node's id is its index, so ids
    are topologically ordered."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._ids: dict[int, int] = {}  # id(tensor) -> node id
        self._tensors: dict[int, Tensor] = {}  # node id -> tensor

    def _register(self, t: Tensor) -> int:
        nid = self._ids.get(id(t))
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(_Node("leaf", (), None))
            self._ids[id(t)] = nid
            self._tensors[nid] = t
        return nid

    def _record(self, op: str, inputs: tuple[Tensor, ...], vjp, out: Tensor) -> None:
        in_ids = tuple(self._register(t) for t in inputs)
        nid = len(self.nodes)
        self.nodes.append(_Node(op, in_ids, vjp))
        self._ids[id(out)] = nid
        self._tensors[nid] = out

    def node_of(self, t: Tensor) -> int | None:
        """Node id of a tensor on this tape, or None if never recorded here."""
        return self._ids.get(id(t))


def _emit(tape: Tape | None, op: str, inputs: tuple[Tensor, ...], vjp,
          values: np.ndarray) -> Tensor:
    """The op's output. It is recorded when an input needs a gradient, with
    ``vjp(g, store, ids)``, which adds the op's part of the output gradient
    ``g`` to the ``store`` entries of its inputs' node ``ids``."""
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(values, requires_grad=track)
    if track:
        tape._record(op, inputs, vjp, out)
    return out


def _acc(store: dict, nid: int, g: np.ndarray) -> None:
    buf = store.get(nid)
    if buf is None:
        store[nid] = np.array(g, dtype=np.float64)
    else:
        buf += g


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient over the leading and stretched size-1 axes
    back to the operand's shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape)
                                      if n == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes).reshape(shape)


# ---------------------------------------------------------------------------
# forward operations
# ---------------------------------------------------------------------------

def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    """Numpy broadcasting: trailing axes must match or one of them be 1."""
    for m, n in zip(a.shape[::-1], b.shape[::-1]):
        if m != n and m != 1 and n != 1:
            raise DimensionError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _binary_shapes(a, b, "add")

    def vjp(g, store, ins):
        _acc(store, ins[0], _reduce_to(g, a.shape))
        _acc(store, ins[1], _reduce_to(g, b.shape))
    return _emit(tape, "add", (a, b), vjp, a.values + b.values)


def sub(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    _binary_shapes(a, b, "sub")

    def vjp(g, store, ins):
        _acc(store, ins[0], _reduce_to(g, a.shape))
        _acc(store, ins[1], _reduce_to(-g, b.shape))
    return _emit(tape, "sub", (a, b), vjp, a.values - b.values)


def mul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise product, broadcast like ``add``."""
    _binary_shapes(a, b, "mul")

    def vjp(g, store, ins):
        _acc(store, ins[0], _reduce_to(g * b.values, a.shape))
        _acc(store, ins[1], _reduce_to(g * a.values, b.shape))
    return _emit(tape, "mul", (a, b), vjp, a.values * b.values)


def scale(a: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    """Multiply by a plain (non-differentiated) float."""
    c = float(c)

    def vjp(g, store, ins):
        _acc(store, ins[0], g * c)
    return _emit(tape, "scale", (a,), vjp, a.values * c)


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if a.values.ndim == 0 or b.values.ndim == 0:
        raise DimensionError("matmul requires rank-1 or rank-2 operands")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions {a.shape[-1]} and {b.shape[0]} differ")
    av, bv = a.values, b.values

    def vjp(g, store, ins):
        # every rank pair as (m, k) @ (k, n): a vector ``a`` is one row, a
        # vector ``b`` one column
        a2 = av.reshape(-1, av.shape[-1])
        b2 = bv.reshape(bv.shape[0], -1)
        g2 = g.reshape(a2.shape[0], b2.shape[1])
        _acc(store, ins[0], (g2 @ b2.T).reshape(av.shape))
        _acc(store, ins[1], (a2.T @ g2).reshape(bv.shape))
    return _emit(tape, "matmul", (a, b), vjp, av @ bv)


def dot(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if a.values.ndim != 1 or b.values.ndim != 1 or a.shape != b.shape:
        raise DimensionError(f"dot: shapes {a.shape} and {b.shape}")
    return matmul(a, b, tape)


def sigmoid(a: Tensor, tape: Tape | None = None) -> Tensor:
    x = a.values
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def vjp(g, store, ins):
        _acc(store, ins[0], g * out * (1.0 - out))
    return _emit(tape, "sigmoid", (a,), vjp, out)


def softmax(a: Tensor, tape: Tape | None = None, mask=None) -> Tensor:
    """Softmax over the last axis, so per row for a matrix. With a boolean
    ``mask`` of the same shape it runs over the true entries only, and the
    others are exactly zero; every row then needs a true entry."""
    if a.values.ndim == 0 or a.shape[-1] < 1:
        raise DimensionError(f"softmax needs non-empty rows, got shape {a.shape}")
    x = a.values
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.shape:
            raise DimensionError(f"softmax: shapes {a.shape} and mask {mask.shape}")
        if not np.all(mask.any(axis=-1)):
            raise DimensionError("softmax of a fully masked row")
        x = np.where(mask, x, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g, store, ins):
        _acc(store, ins[0], out * (g - np.einsum("...i,...i->...", g, out)[..., None]))
    return _emit(tape, "softmax", (a,), vjp, out)


def concat(parts: list[Tensor], tape: Tape | None = None) -> Tensor:
    """Concatenate scalars and vectors into one vector."""
    if not parts:
        raise DimensionError("concat of an empty list")
    flats = [p.values.reshape(-1) for p in parts]

    def vjp(g, store, ins):
        offset = 0
        for nid, f, p in zip(ins, flats, parts):
            _acc(store, nid, g[offset:offset + f.size].reshape(p.shape))
            offset += f.size
    return _emit(tape, "concat", tuple(parts), vjp, np.concatenate(flats))


def stack(vectors: list[Tensor], tape: Tape | None = None) -> Tensor:
    """Stack equal-length vectors into a matrix, one per row: a concat and a
    reshape, not a primitive."""
    d = vectors[0].shape[0]
    return reshape(concat(vectors, tape), (len(vectors), d), tape)


def mean(v: Tensor, tape: Tape | None = None) -> Tensor:
    if v.values.ndim != 1 or v.shape[0] < 1:
        raise DimensionError(f"mean needs a non-empty vector, got shape {v.shape}")

    def vjp(g, store, ins):
        _acc(store, ins[0], np.full(v.shape, g / v.shape[0]))
    return _emit(tape, "mean", (v,), vjp, np.mean(v.values))


# structural ops: pure rearrangements, gradients pass through unchanged

def reshape(a: Tensor, shape: tuple[int, ...], tape: Tape | None = None) -> Tensor:
    def vjp(g, store, ins):
        _acc(store, ins[0], g.reshape(a.shape))
    return _emit(tape, "reshape", (a,), vjp, a.values.reshape(shape))


def transpose(a: Tensor, tape: Tape | None = None) -> Tensor:
    if a.values.ndim != 2:
        raise DimensionError("transpose needs a matrix")

    def vjp(g, store, ins):
        _acc(store, ins[0], g.T)
    return _emit(tape, "transpose", (a,), vjp, a.values.T.copy())


def gather(a: Tensor, idx, tape: Tape | None = None) -> Tensor:
    """``a[idx]`` for an integer index array: rows of a matrix for a 1-D
    index, entries of a vector for a 1-D or 2-D one. A pair ``(rows, cols)``
    of broadcastable index arrays picks those entries of a matrix. Repeats
    are allowed."""
    if isinstance(idx, tuple):
        idx = tuple(np.asarray(i, dtype=np.intp) for i in idx)
        if a.values.ndim != 2 or len(idx) != 2 or np.broadcast(*idx).ndim > 2:
            raise DimensionError(f"gather of shape {a.shape} by a {len(idx)}-tuple index")
    else:
        idx = np.asarray(idx, dtype=np.intp)
        if a.values.ndim == 0 or a.values.ndim + idx.ndim - 1 > 2:
            raise DimensionError(f"gather of shape {a.shape} by index rank {idx.ndim}")

    def vjp(g, store, ins):
        if ins[0] not in store:  # scattered writes need a zeroed buffer
            store[ins[0]] = np.zeros(a.shape)
        np.add.at(store[ins[0]], idx, g)
    return _emit(tape, "gather", (a,), vjp, a.values[idx])


SEGMENT_CHUNK = 1024  # tokens gathered at once inside mean_affine_tanh


def _segment_chunks(offsets: np.ndarray) -> list[tuple[int, int]]:
    """(first, end) segment ranges covering about SEGMENT_CHUNK tokens each."""
    n = offsets.size - 1
    if offsets[-1] <= SEGMENT_CHUNK:
        return [(0, n)]
    chunks, first = [], 0
    while first < n:
        end = int(np.searchsorted(offsets, offsets[first] + SEGMENT_CHUNK,
                                  side="right")) - 1
        end = min(max(end, first + 1), n)
        chunks.append((first, end))
        first = end
    return chunks


def mean_affine_tanh(table: Tensor, weight: Tensor, bias: Tensor, ids, offsets,
                     tape: Tape | None = None, shift: Tensor | None = None) -> Tensor:
    """Rows ``tanh((m + shift) @ weight.T + bias)``, where row i of ``m`` is
    the mean of ``table[ids[offsets[i]:offsets[i + 1]]]`` and ``shift`` is
    optional. ``m`` is a sparse product of the table with normalized one-hot
    count rows, and the backward pass touches only used rows. Both passes run
    in token chunks, which saves memory, as neither builds the full tokens x d
    gather, and time: on a 2-core Xeon with numpy 2.4, one gather and
    reduceat over a 6,640-token batch of 830 rows took 3.7-4.5 ms against
    0.9-1.5 ms in chunks, while at 1,856 tokens the two cost about the same."""
    if table.values.ndim != 2 or weight.shape[1:] != table.shape[1:] \
            or bias.shape != weight.shape[:1]:
        raise DimensionError(f"table {table.shape}, weight {weight.shape}, bias {bias.shape}")
    ids = np.asarray(ids, dtype=np.intp)
    offsets = np.asarray(offsets, dtype=np.intp)
    if offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0 \
            or offsets[-1] != ids.size:
        raise DimensionError("segment offsets must run from 0 to len(ids)")
    counts = offsets[1:] - offsets[:-1]
    if counts.min() < 1:
        raise DimensionError("mean of an empty segment")
    if ids.size <= SEGMENT_CHUNK:
        m = np.add.reduceat(table.values[ids], offsets[:-1], axis=0)
    else:
        m = np.empty((counts.size, table.shape[1]))
        for first, end in _segment_chunks(offsets):
            lo = offsets[first]
            rows = table.values[ids[lo:offsets[end]]]
            m[first:end] = np.add.reduceat(rows, offsets[first:end] - lo, axis=0)
    m /= counts[:, None]
    inputs = (table, weight, bias)
    if shift is not None:
        if shift.shape != m.shape:
            raise DimensionError(f"shift {shift.shape} for means {m.shape}")
        m += shift.values
        inputs += (shift,)
    wt = weight.values.T.copy()
    out = np.tanh(m @ wt + bias.values)

    def vjp(g, store, ins):
        # tanh, bias add, matmul, mean: the unfused ops' VJPs in order, to the bit
        g = g * (1.0 - out * out)
        _acc(store, ins[2], _reduce_to(g, bias.shape))
        _acc(store, ins[1], (m.T @ g).T)
        g = g @ wt.T
        if shift is not None:
            _acc(store, ins[3], g)
        g = g / counts[:, None]
        n, d = table.shape
        cols = np.arange(d)
        for first, end in _segment_chunks(offsets):
            per_token = np.repeat(g[first:end], counts[first:end], axis=0)
            # scatter-add by flat (id, column) index: one bincount beats np.add.at
            flat = (ids[offsets[first]:offsets[end], None] * d + cols).ravel()
            _acc(store, ins[0], np.bincount(flat, per_token.ravel(), n * d).reshape(n, d))
    return _emit(tape, "mean_affine_tanh", inputs, vjp, out)


def logsumexp(a: Tensor, tape: Tape | None = None) -> Tensor:
    """log(sum(exp(a))) over the last axis, max-shifted for stability: a
    scalar for a vector, one value per row for a matrix."""
    if a.values.ndim == 0 or a.shape[-1] < 1:
        raise DimensionError(f"logsumexp needs non-empty rows, got shape {a.shape}")
    m = a.values.max(axis=-1, keepdims=True)
    e = np.exp(a.values - m)
    total = e.sum(axis=-1, keepdims=True)

    def vjp(g, store, ins):
        _acc(store, ins[0], np.asarray(g)[..., None] * (e / total))
    return _emit(tape, "logsumexp", (a,), vjp, (np.log(total) + m)[..., 0])


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(tape: Tape, output: Tensor) -> dict[int, Tensor]:
    """Gradients of a scalar output for every requires_grad leaf on the tape.

    Leaves that do not influence the output get zero gradients. The pass is
    stateless: repeating it over the same tape yields identical maps.
    """
    if output.shape != ():
        raise ContractError(f"backward needs a scalar output, got shape {output.shape}")
    out_id = tape.node_of(output)
    if out_id is None:
        raise ContractError("output was not recorded on this tape")
    store: dict[int, np.ndarray] = {out_id: np.ones(())}
    for nid in range(len(tape.nodes) - 1, -1, -1):
        node = tape.nodes[nid]
        if node.vjp is None:  # a leaf
            continue
        # an op's output gradient is final once every later node has run,
        # and nothing reads it after its own VJP
        g = store.pop(nid, None)
        if g is not None:
            node.vjp(g, store, node.inputs)
    grads: dict[int, Tensor] = {}
    for nid, node in enumerate(tape.nodes):
        leaf = tape._tensors[nid]
        if node.op == "leaf" and leaf.requires_grad:
            buf = store.get(nid)
            grads[nid] = Tensor(buf if buf is not None else np.zeros(leaf.shape))
    return grads


def gradients(tape: Tape, output: Tensor,
              params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradient arrays of a scalar output by parameter name. A parameter off
    the output's path, or every parameter when the output was never recorded
    on the tape (a constant), gets zeros."""
    grads = {} if tape.node_of(output) is None else backward(tape, output)
    out = {}
    for name, t in params.items():
        nid = tape.node_of(t)
        out[name] = grads[nid].values if nid in grads else np.zeros(t.shape)
    return out


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, params: dict[str, Tensor], eps: float = 1e-4,
               rng: np.random.Generator | None = None,
               max_coords: int | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f(params) -> (Tape, Tensor)`` must be a pure scalar function of the
    parameter dict. Relative error uses max(|analytic|, |numeric|, 1e-8) as
    the denominator. ``max_coords`` caps how many coordinates are probed
    (sampled with ``rng``); by default every coordinate is checked.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")

    def evaluate(p):
        tape, out = f(p)
        val = out.item()
        if not np.isfinite(val):
            raise EvaluationError("objective is not finite")
        return tape, out, val

    tape, out, _ = evaluate(params)
    analytic = gradients(tape, out, params)

    coords = [(name, i) for name, t in params.items() for i in range(t.values.size)]
    if max_coords is not None and max_coords < len(coords):
        if rng is None:
            rng = np.random.default_rng(0)
        picked = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in picked]

    def shifted(name: str, i: int, delta: float) -> float:
        bumped = params[name].values.copy()
        bumped.flat[i] += delta
        return evaluate({**params, name: Tensor(bumped, requires_grad=True)})[2]

    worst = 0.0
    for name, i in coords:
        numeric = (shifted(name, i, eps) - shifted(name, i, -eps)) / (2.0 * eps)
        a = float(analytic[name].flat[i])
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
