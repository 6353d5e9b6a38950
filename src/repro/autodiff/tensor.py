"""The ``Tensor`` class: numpy arrays with reverse-mode gradients.

Each operation records its parents and a backward closure; calling
:meth:`Tensor.backward` on a scalar runs the closures in reverse
topological order.  Broadcasting is handled by summing gradients over
broadcast dimensions (``_unbroadcast``).

Ops additionally record a *forward* closure that recomputes the node's
value **in place** (into the same ``.data`` buffer) from its parents'
current data.  The :class:`~repro.autodiff.tape.Tape` uses these to
replay an identically-structured graph epoch after epoch without
rebuilding any nodes: training loops become a handful of large numpy
calls instead of thousands of graph-node allocations.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

import numpy as np

from repro.errors import AutodiffError


class _Recording(threading.local):
    """The recording sink, one per thread.

    When ``sink`` is not None, Tensor._result appends every
    gradient-tracked node it creates on this thread (in creation order,
    which is a valid topological order) to it.  The Tape installs it
    while recording; a per-thread sink lets concurrent solves record
    their tapes side by side.
    """

    sink: list["Tensor"] | None = None


_RECORDING = _Recording()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def exclusive_prod(x: np.ndarray, axis: int) -> np.ndarray:
    """Per-entry product of all *other* entries along ``axis``.

    Robust to zeros: uses shifted cumulative products from both ends
    instead of dividing the total product by each entry.
    """
    ones = np.ones_like(x)
    left = np.cumprod(
        np.concatenate(
            [np.take(ones, [0], axis=axis), np.delete(x, -1, axis=axis)],
            axis=axis,
        ),
        axis=axis,
    )
    rev = np.flip(x, axis=axis)
    right_rev = np.cumprod(
        np.concatenate(
            [np.take(ones, [0], axis=axis), np.delete(rev, -1, axis=axis)],
            axis=axis,
        ),
        axis=axis,
    )
    right = np.flip(right_rev, axis=axis)
    return left * right


def _arr(x) -> np.ndarray:
    """Materialize an op result as a float64 ndarray.

    Numpy reductions and 0-d arithmetic return numpy *scalars*; forward
    closures must capture the same writable buffer the Tensor will hold,
    so every op coerces before building its closures.
    """
    return np.asarray(x, dtype=np.float64)


class Tensor:
    """A numpy-backed tensor with optional gradient tracking."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_parents",
        "_backward_fn",
        "_forward_fn",
        "_grad_buf",
        "_op",
    )

    # Make numpy defer to Tensor's reflected operators: without this,
    # ``np.float64(2) * tensor`` would broadcast elementwise into an
    # object array instead of building one graph node.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._forward_fn: Callable[[], None] | None = None
        self._grad_buf: np.ndarray | None = None
        self._op: tuple[str, dict | None] | None = None

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _result(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
        forward_fn: Callable[[], None],
        op: tuple[str, dict | None] | None = None,
    ) -> "Tensor":
        """Build a graph node.

        ``forward_fn`` recomputes the node's value in place from its
        parents' current data; the tape replays it every epoch.

        ``op`` is structured metadata — ``(kind, params)`` — describing
        the operation the closures implement.  The plan compiler
        (:mod:`repro.autodiff.plan`) lowers a recorded tape through
        it; nodes without metadata make the tape fall back to the
        closure walker, never to wrong answers.
        """
        parents = tuple(parents)
        track = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        out.requires_grad = track
        if track:
            out._parents = parents
            out._backward_fn = backward_fn
            out._forward_fn = forward_fn
            out._op = op
            sink = _RECORDING.sink
            if sink is not None:
                sink.append(out)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # -- basic properties ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise AutodiffError(
                f"item() requires a single-element tensor, got shape {self.data.shape}"
            )
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data.copy()

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    # -- autograd ------------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Args:
            grad: seed gradient; defaults to 1 for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise AutodiffError(
                    "backward() without a gradient requires a scalar tensor"
                )
            grad = np.ones_like(self.data)
        if not self.requires_grad:
            return

        # Iterative post-order topological sort (deep graphs would blow
        # Python's recursion limit).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited or not node.requires_grad:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))

        # Every node accumulates incoming gradients into ``.grad``; when
        # an interior node is visited (after all its consumers), its
        # closure fires once with the fully accumulated gradient and the
        # interior gradient is released.  Leaves keep theirs.
        self._accumulate(np.broadcast_to(np.asarray(grad, dtype=np.float64), self.data.shape))
        for node in reversed(order):
            if node._backward_fn is None or node.grad is None:
                continue
            node_grad = node.grad
            node.grad = None
            node._backward_fn(node_grad)

    # -- operators ------------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = _arr(self.data + other.data)

        def forward() -> None:
            np.add(self.data, other.data, out=data)

        def backward(grad: np.ndarray) -> None:
            self._push(grad)
            other._push(grad)

        return Tensor._result(data, (self, other), backward, forward, ("add", None))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        data = _arr(-self.data)

        def forward() -> None:
            np.negative(self.data, out=data)

        def backward(grad: np.ndarray) -> None:
            self._push(-grad)

        return Tensor._result(data, (self,), backward, forward, ("neg", None))

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = _arr(self.data - other.data)

        def forward() -> None:
            np.subtract(self.data, other.data, out=data)

        def backward(grad: np.ndarray) -> None:
            self._push(grad)
            other._push(-grad)

        return Tensor._result(data, (self, other), backward, forward, ("sub", None))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = _arr(self.data * other.data)

        def forward() -> None:
            np.multiply(self.data, other.data, out=data)

        def backward(grad: np.ndarray) -> None:
            self._push(grad * other.data)
            other._push(grad * self.data)

        return Tensor._result(data, (self, other), backward, forward, ("mul", None))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = _arr(self.data / other.data)

        def forward() -> None:
            np.divide(self.data, other.data, out=data)

        def backward(grad: np.ndarray) -> None:
            self._push(grad / other.data)
            other._push(-grad * self.data / (other.data**2))

        return Tensor._result(data, (self, other), backward, forward, ("div", None))

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise AutodiffError("tensor ** tensor is not supported; use exp/log")
        data = _arr(self.data**exponent)

        def forward() -> None:
            np.power(self.data, exponent, out=data)

        def backward(grad: np.ndarray) -> None:
            self._push(grad * exponent * self.data ** (exponent - 1))

        return Tensor._result(data, (self,), backward, forward, ("pow", {"exponent": exponent}))

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = _arr(self.data @ other.data)

        def forward() -> None:
            if data.ndim:
                np.matmul(self.data, other.data, out=data)
            else:
                data[...] = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad, dtype=np.float64)
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._push(grad * b)
                other._push(grad * a)
            elif a.ndim == 2 and b.ndim == 1:
                self._push(np.outer(grad, b))
                other._push(a.T @ grad)
            elif a.ndim == 1 and b.ndim == 2:
                self._push(b @ grad)
                other._push(np.outer(a, grad))
            else:
                # swapaxes(-1, -2) equals .T for 2-D operands and keeps
                # batch axes in place for stacked (N-D) matmuls; _push
                # reduces any broadcast batch axes back to the operand.
                self._push(grad @ b.swapaxes(-1, -2))
                other._push(a.swapaxes(-1, -2) @ grad)

        return Tensor._result(data, (self, other), backward, forward, ("matmul", None))

    def abs(self) -> "Tensor":
        """Elementwise absolute value (gradient 0 chosen at 0)."""
        data = _arr(np.abs(self.data))

        def forward() -> None:
            np.abs(self.data, out=data)

        def backward(grad: np.ndarray) -> None:
            self._push(grad * np.sign(self.data))

        return Tensor._result(data, (self,), backward, forward, ("abs", None))

    def __abs__(self) -> "Tensor":
        return self.abs()

    # -- reductions & reshaping ------------------------------------------------

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        data = _arr(self.data.sum(axis=axis, keepdims=keepdims))

        def forward() -> None:
            np.sum(self.data, axis=axis, keepdims=keepdims, out=data)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad, dtype=np.float64)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._push(np.broadcast_to(g, self.data.shape))

        return Tensor._result(
            data, (self,), backward, forward,
            ("sum", {"axis": axis, "keepdims": keepdims}),
        )

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def prod(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Product along one axis.

        The gradient uses the quotient form ``prod / x``; entries that
        are exactly zero get a gradient computed via the product of the
        other entries along the axis (exclusive product), so the result
        is correct even with zeros.
        """
        data = _arr(self.data.prod(axis=axis, keepdims=keepdims))

        def forward() -> None:
            np.prod(self.data, axis=axis, keepdims=keepdims, out=data)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad, dtype=np.float64)
            if not keepdims:
                g = np.expand_dims(g, axis=axis)
            x = self.data
            zero_mask = x == 0.0
            if not zero_mask.any():
                total = x.prod(axis=axis, keepdims=True)
                self._push(g * total / x)
            else:
                self._push(g * exclusive_prod(x, axis))

        return Tensor._result(
            data, (self,), backward, forward,
            ("prod", {"axis": axis, "keepdims": keepdims}),
        )

    def reshape(self, *shape: int) -> "Tensor":
        data = self.data.reshape(*shape)
        is_view = np.shares_memory(data, self.data)

        def forward() -> None:
            if not is_view:
                data[...] = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            self._push(np.asarray(grad).reshape(self.data.shape))

        return Tensor._result(
            data, (self,), backward, forward, ("reshape", {"is_view": is_view})
        )

    @property
    def T(self) -> "Tensor":
        data = self.data.T
        is_view = np.shares_memory(data, self.data)

        def forward() -> None:
            if not is_view:
                data[...] = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._push(np.asarray(grad).T)

        return Tensor._result(
            data, (self,), backward, forward, ("T", {"is_view": is_view})
        )

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]
        is_view = np.shares_memory(data, self.data)

        def forward() -> None:
            if not is_view:
                data[...] = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, np.asarray(grad, dtype=np.float64))
            self._push(full)

        return Tensor._result(
            data, (self,), backward, forward,
            ("getitem", {"index": index, "is_view": is_view}),
        )

    # -- gradient plumbing -------------------------------------------------------

    def _push(self, grad: np.ndarray) -> None:
        """Route a gradient to this node during backprop.

        Leaves accumulate into ``.grad``; interior nodes invoke their own
        backward closure immediately.  Because :meth:`backward` walks in
        reverse topological order and closures fire on first receipt,
        interior nodes buffer gradients through ``.grad`` until visited.
        """
        if not self.requires_grad:
            return
        self._accumulate(grad)

    def __len__(self) -> int:
        return len(self.data)
