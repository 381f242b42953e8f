"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A ``Tape`` records every op executed inside its ``with`` block whose inputs
require gradients; ``Tape.backward(loss)`` walks the records in reverse,
accumulating vector-Jacobian products into ``Tensor.grad``. A tape is
single-use: backward consumes each record as it goes, dropping the op's vjp
closures (and the forward arrays they saved) and the gradient of its output,
so only leaf tensors (those no op under the tape produced, such as
parameters) keep ``.grad`` and the tape is empty when backward returns.
Tensors are rank <= 2 and float64 throughout; running ops outside any tape
computes values only (cheap inference mode). A tape and its tensors belong to
one thread of execution; nothing here is shared or locked.

``dense`` is ``[parts...] @ w + b`` with an optional ReLU as one record, for gcn
and sage layers and both task heads. It keeps only its output and, with the
ReLU, a bool mask; backward reads the parts, ``w`` and that mask.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import TailkitError

__all__ = [
    "AdamState",
    "AutodiffError",
    "Tape",
    "Tensor",
    "adam_step",
    "add",
    "add_bias",
    "dense",
    "edge_spmm",
    "gather_rows",
    "hadamard",
    "leaky_relu",
    "log_softmax",
    "matmul",
    "mean_all",
    "pick",
    "relu",
    "row_max_pool",
    "row_sum",
    "scale",
    "segment_softmax",
    "softplus",
    "spmm",
    "sub",
    "sum_all",
]


class AutodiffError(TailkitError):
    """Shape mismatches, rank violations, or tape misuse."""


def _as_value(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim > 2:
        raise AutodiffError(f"tensors are rank <= 2, got shape {arr.shape}")
    return arr


class Tensor:
    """A float64 array with an optional gradient buffer."""

    __slots__ = ("value", "grad", "requires_grad")

    def __init__(self, value, requires_grad: bool = False):
        self.value = _as_value(value)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


_TAPE_STACK: list["Tape"] = []


class Tape:
    """Wengert list of executed ops, in execution (= topological) order.

    Single-use: :meth:`backward` consumes the records, and a second call
    raises.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, list[tuple[Tensor, Callable]]]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def _record(self, out: Tensor, vjps: list[tuple[Tensor, Callable]]) -> None:
        self._records.append((out, vjps))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable leaf tensor's ``.grad``.

        ``loss`` must be a scalar produced under this tape. Each record is
        popped in reverse execution order and its output's gradient taken
        and reset to ``None`` before its vjps run, so the op's saved arrays
        are freed as the walk passes them; the walk holds no reference to
        the output itself while they run. Only leaves (tensors no op under
        this tape produced) keep what accumulates in ``.grad``; the tape is
        empty afterwards and cannot run backward again.
        """
        if self._consumed:
            raise AutodiffError("this tape's backward already ran; a tape is single-use")
        if not self._records:
            raise AutodiffError("backward called before any op ran under this tape")
        if not any(out is loss for out, _ in reversed(self._records)):
            raise AutodiffError("loss tensor was not produced under this tape")
        if loss.value.size != 1:
            raise AutodiffError(f"loss must be scalar, got shape {loss.value.shape}")
        self._consumed = True
        loss.grad = np.ones_like(loss.value)
        while self._records:
            out, vjps = self._records.pop()
            upstream, out.grad = out.grad, None
            del out  # what the vjps read of the output, they hold themselves
            if upstream is None:
                continue
            for inp, vjp in vjps:
                g = vjp(upstream)
                if g.shape != inp.value.shape:
                    raise AutodiffError(
                        f"vjp produced shape {g.shape} for input of shape {inp.value.shape}"
                    )
                if inp.grad is None:
                    inp.grad = g.copy() if g.base is not None or g is upstream else g
                else:
                    inp.grad = inp.grad + g


def _apply(value: np.ndarray, vjps: list[tuple[Tensor, Callable]]) -> Tensor:
    requires = any(t.requires_grad for t, _ in vjps)
    out = Tensor(value, requires_grad=requires)
    if requires and _TAPE_STACK:
        _TAPE_STACK[-1]._record(out, [(t, f) for t, f in vjps if t.requires_grad])
    return out


def _segment_sum(values: np.ndarray, offsets: np.ndarray, num_segments: int) -> np.ndarray:
    """Sum ``values`` rows into segments delimited by ``offsets`` (empty-safe)."""
    out = np.zeros((num_segments,) + values.shape[1:])
    if values.shape[0]:
        nonempty = np.diff(offsets) > 0
        out[nonempty] = np.add.reduceat(values, offsets[:-1][nonempty], axis=0)
    return out


# ---------------------------------------------------------------------------
# dense linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise AutodiffError(f"matmul shapes {a.value.shape} x {b.value.shape}")
    return _apply(
        a.value @ b.value,
        [(a, lambda u: u @ b.value.T), (b, lambda u: a.value.T @ u)],
    )


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    if b.value.ndim != 1 or x.value.ndim != 2 or x.value.shape[1] != b.value.shape[0]:
        raise AutodiffError(f"add_bias shapes {x.value.shape} + {b.value.shape}")
    return _apply(
        x.value + b.value[None, :],
        [(x, lambda u: u), (b, lambda u: u.sum(axis=0))],
    )


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise AutodiffError(f"add shapes {a.value.shape} vs {b.value.shape}")
    return _apply(a.value + b.value, [(a, lambda u: u), (b, lambda u: u)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise AutodiffError(f"sub shapes {a.value.shape} vs {b.value.shape}")
    return _apply(a.value - b.value, [(a, lambda u: u), (b, lambda u: -u)])


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.value.shape != b.value.shape:
        raise AutodiffError(f"hadamard shapes {a.value.shape} vs {b.value.shape}")
    return _apply(
        a.value * b.value,
        [(a, lambda u: u * b.value), (b, lambda u: u * a.value)],
    )


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _apply(x.value * c, [(x, lambda u: u * c)])


def dense(parts, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``[parts...] @ w + b`` (columns concatenated), then ReLU if ``relu``,
    as one record that keeps only its output and, with ``relu``, a bool mask.
    A gcn layer passes ``[Â h]``, a sage layer ``[h, agg]``, a head layer one.

    The concatenation lives only while a product needs it. The forward runs
    one product over the full width, adds the bias in place and zeroes in
    place, which gives the bits of ``np.where(x > 0, x, 0.0)``. Backward
    rebuilds the concatenation for ``w``'s gradient and slices each part's
    gradient from one full-width ``g @ w.T``. Products over a part's own
    columns would differ in bits at some shapes, since BLAS picks its kernel
    by shape; these match the concatenate, ``matmul``, ``add_bias`` and
    ``relu`` chain bit for bit.
    """
    parts = list(parts)
    widths = [p.value.shape[1] if p.value.ndim == 2 else -1 for p in parts]
    if (not parts or min(widths) < 0
            or any(p.value.shape[0] != parts[0].value.shape[0] for p in parts)
            or w.value.ndim != 2 or w.value.shape[0] != sum(widths)
            or b.value.shape != w.value.shape[1:]):
        raise AutodiffError(
            f"dense shapes {[p.value.shape for p in parts]} @ {w.value.shape} + {b.value.shape}"
        )

    def concat():
        if len(parts) == 1:
            return parts[0].value
        return np.concatenate([p.value for p in parts], axis=1)

    value = concat() @ w.value
    value += b.value
    mask = None
    if relu:
        mask = value > 0
        np.copyto(value, 0.0, where=~mask)
    # per upstream u: u through the mask, and the full-width input gradient
    memo = {}

    def through(u):
        if memo.get("u") is not u:
            memo.clear()
            memo.update(u=u, g=u if mask is None else u * mask)
        return memo["g"]

    def part_grad(u, cols):
        g = through(u)
        if "x" not in memo:
            memo["x"] = g @ w.value.T
        # a copy, not a view that would keep the full product alive
        return memo["x"] if len(parts) == 1 else memo["x"][:, cols].copy()

    bounds = np.cumsum([0] + widths).tolist()
    # w's gradient first, so its concatenation is freed before part_grad's product
    vjps = [(w, lambda u: concat().T @ through(u)), (b, lambda u: through(u).sum(axis=0))]
    vjps += [(p, lambda u, cols=slice(lo, hi): part_grad(u, cols))
             for p, lo, hi in zip(parts, bounds, bounds[1:])]
    return _apply(value, vjps)


def gather_rows(x: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    if x.value.ndim != 2 or idx.ndim != 1:
        raise AutodiffError("gather_rows expects a matrix and a 1-d index array")
    if idx.size and (idx.min() < 0 or idx.max() >= x.value.shape[0]):
        raise AutodiffError("gather_rows index out of range")

    def vjp(u):
        # bincount adds in input order, as np.add.at does, so the sums match
        # it bit for bit (signed zeros included)
        n, d = x.value.shape
        cells = (idx[:, None] * d + np.arange(d)).ravel()
        return np.bincount(cells, weights=u.ravel(), minlength=n * d).reshape(n, d)

    return _apply(x.value[idx], [(x, vjp)])


def pick(x: Tensor, cols) -> Tensor:
    """Select one entry per row: out[i] = x[i, cols[i]], shape (n, 1)."""
    cols = np.asarray(cols, dtype=np.int64)
    n = x.value.shape[0]
    if x.value.ndim != 2 or cols.shape != (n,):
        raise AutodiffError("pick expects a matrix and one column index per row")
    if cols.size and (cols.min() < 0 or cols.max() >= x.value.shape[1]):
        raise AutodiffError("pick column index out of range")
    rows = np.arange(n)

    def vjp(u):
        g = np.zeros_like(x.value)
        g[rows, cols] = u[:, 0]
        return g

    return _apply(x.value[rows, cols][:, None], [(x, vjp)])


# ---------------------------------------------------------------------------
# sparse aggregation
# ---------------------------------------------------------------------------

def _aggregate(adj, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row i sums ``weights[e] * values[targets[e]]`` over its entries e, in CSR order."""
    rows = values[adj.targets]  # scaled in place: one nnz x d temporary, not two
    rows *= weights[:, None]
    return _segment_sum(rows, adj.offsets, adj.num_nodes)


def spmm(adj, x: Tensor) -> Tensor:
    """Sparse-matrix times dense-matrix: :func:`edge_spmm` with the operator's
    own weights, held constant."""
    return edge_spmm(Tensor(adj.weights[:, None]), x, adj)


def edge_spmm(weights: Tensor, x: Tensor, adj) -> Tensor:
    """Aggregation with per-edge weights (shape ``(nnz, 1)``), learned or fixed.

    ``adj`` supplies only the support structure (offsets/targets/rows/mirror);
    its stored weights are ignored. The vjp Aᵀu aggregates with
    ``weights[mirror]`` over A's own CSR: the support is symmetric, so it
    multiplies the same pairs as a transpose CSR would and adds them in the
    same order.
    """
    if weights.value.shape != (adj.nnz, 1):
        raise AutodiffError(
            f"edge weights must be ({adj.nnz}, 1), got {weights.value.shape}"
        )
    if x.value.ndim != 2 or x.value.shape[0] != adj.num_nodes:
        raise AutodiffError(
            f"edge_spmm expects x of shape ({adj.num_nodes}, d), got {x.value.shape}"
        )
    w = weights.value[:, 0]
    return _apply(
        _aggregate(adj, x.value, w),
        [(weights, lambda u: (u[adj.rows] * x.value[adj.targets]).sum(axis=1, keepdims=True)),
         (x, lambda u: _aggregate(adj, u, w[adj.mirror]))],
    )


def segment_softmax(logits: Tensor, adj) -> Tensor:
    """Softmax of a ``(nnz, 1)`` logit vector within each row of ``adj``."""
    if logits.value.shape != (adj.nnz, 1):
        raise AutodiffError(f"segment logits must be ({adj.nnz}, 1), got {logits.value.shape}")
    v = logits.value[:, 0]
    num_segments, offsets, rows = adj.num_nodes, adj.offsets, adj.rows
    nonempty = np.diff(offsets) > 0
    seg_max = np.full(num_segments, -np.inf)
    if v.size:
        seg_max[nonempty] = np.maximum.reduceat(v, offsets[:-1][nonempty])
    shifted = np.exp(v - seg_max[rows])
    denom = _segment_sum(shifted[:, None], offsets, num_segments)[:, 0]
    p = shifted / denom[rows]

    def vjp(u):
        ug = u[:, 0] * p
        dot = _segment_sum(ug[:, None], offsets, num_segments)[:, 0]
        return (ug - p * dot[rows])[:, None]

    return _apply(p[:, None], [(logits, vjp)])


def row_max_pool(x: Tensor, graph) -> Tensor:
    """Per-node elementwise max over neighbor rows; empty neighborhoods give 0.

    A degree-rank sweep: nodes are ordered by descending degree, so the nodes
    that have a j-th neighbor form a prefix of that order, and step j compares
    all of them against their j-th neighbor row in one vectorized pass. The
    loop runs ``max_degree - 1`` times, independent of the node count. A
    candidate wins only when strictly greater than the running max, and CSR
    neighbors are sorted ascending, so ties (signed zeros included) keep the
    lowest-id neighbor attaining the max, which also receives the gradient.
    A NaN never wins, and a NaN first neighbor is never beaten.

    The running max is kept by ``np.fmax`` and the winner's position by
    ``pos = max(pos, win * j)`` (j only grows, so that is the last winning
    j), which avoids masked copies. A max is exact, so ``fmax`` returns the
    winner's value everywhere except where it may differ in bits: it skips
    NaN, so a NaN first neighbor is seeded as +inf (nothing is greater) and
    its NaN restored at the end, and on a +0/-0 tie it may return either
    zero. Those slots, the zero ones only when ``x`` holds a -0.0, take the
    winner's own bits from ``x``.
    """
    if x.value.ndim != 2 or x.value.shape[0] != graph.num_nodes:
        raise AutodiffError(
            f"row_max_pool expects ({graph.num_nodes}, d), got {x.value.shape}"
        )
    n, d = x.value.shape
    off, tgt = graph.csr_offsets, graph.csr_targets
    deg = np.diff(off)
    order = np.argsort(-deg, kind="stable")
    max_degree = int(deg.max(initial=0))
    # active[j]: how many nodes have more than j neighbors; they lead `order`
    active = np.searchsorted(-deg[order], -np.arange(max_degree))
    rows = order[:np.count_nonzero(deg)]
    starts = off[rows]
    # The outputs that outlive the call are allocated before the sweep's
    # temporaries, so freeing those leaves no holes in the heap (peak RSS).
    value = np.zeros((n, d))
    # pos[r, c]: which neighbor (0-based, in CSR order) holds row r's max in column c
    pos = np.zeros((rows.size, d), dtype=np.min_scalar_type(max_degree))
    best = x.value[tgt[starts]]
    fix = np.isnan(best)
    nan_first = bool(fix.any())
    if nan_first:
        best[fix] = np.inf
    for j in range(1, max_degree):
        k = active[j]
        cand = x.value[tgt[starts[:k] + j]]
        win = cand > best[:k]
        np.fmax(best[:k], cand, out=best[:k])
        np.maximum(pos[:k], win * pos.dtype.type(j), out=pos[:k])
    if np.any((x.value == 0) & np.signbit(x.value)):
        fix |= best == 0
    elif not nan_first:
        fix = None
    if fix is not None:
        r, c = np.nonzero(fix)
        best[r, c] = x.value[tgt[starts[r] + pos[r, c]], c]
    value[rows] = best

    def vjp(u):
        # bincount adds in input order; feeding the rows by ascending node id
        # sums each gradient entry in the same order as a per-node loop would.
        nodes = np.flatnonzero(deg)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        flat = tgt[off[nodes, None] + pos[rank[nodes]]]  # winning neighbor ids
        flat *= d
        flat += np.arange(d)
        g = np.bincount(flat.ravel(), weights=u[nodes].ravel(), minlength=n * d)
        return g.reshape(n, d)

    return _apply(value, [(x, vjp)])


# ---------------------------------------------------------------------------
# nonlinearities and reductions
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    mask = x.value > 0
    return _apply(np.where(mask, x.value, 0.0), [(x, lambda u: u * mask)])


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    deriv = np.where(x.value > 0, 1.0, slope)
    return _apply(x.value * deriv, [(x, lambda u: u * deriv)])


def softplus(x: Tensor) -> Tensor:
    value = np.logaddexp(0.0, x.value)
    s = 0.5 * (1.0 + np.tanh(0.5 * x.value))
    return _apply(value, [(x, lambda u: u * s)])


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax, stabilized by subtracting the row max."""
    if x.value.ndim != 2:
        raise AutodiffError(f"log_softmax expects a matrix, got shape {x.value.shape}")
    shifted = x.value - x.value.max(axis=1, keepdims=True)
    value = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def vjp(u):
        return u - np.exp(value) * u.sum(axis=1, keepdims=True)

    return _apply(value, [(x, vjp)])


def row_sum(x: Tensor) -> Tensor:
    """Sum across columns, keeping a (n, 1) shape."""
    if x.value.ndim != 2:
        raise AutodiffError(f"row_sum expects a matrix, got shape {x.value.shape}")
    d = x.value.shape[1]
    return _apply(
        x.value.sum(axis=1, keepdims=True),
        [(x, lambda u: np.repeat(u, d, axis=1))],
    )


def sum_all(x: Tensor) -> Tensor:
    return _apply(np.asarray(x.value.sum()), [(x, lambda u: np.broadcast_to(u, x.value.shape).copy())])


def mean_all(x: Tensor) -> Tensor:
    size = x.value.size
    if size == 0:
        raise AutodiffError("mean of an empty tensor")
    return _apply(
        np.asarray(x.value.mean()),
        [(x, lambda u: np.broadcast_to(u / size, x.value.shape).copy())],
    )


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params: list[Tensor]):
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0


def adam_step(
    params: list[Tensor],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update with bias correction, in place; missing grads mean zero."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for i, p in enumerate(params):
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        state.m[i] = beta1 * state.m[i] + (1.0 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1.0 - beta2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)
