"""Graph taping: record a training step once, replay it every epoch.

The G-CLN training loops build a structurally identical autodiff graph
every epoch — only the numbers in the leaves (parameters, schedule
scalars) change.  :class:`Tape` exploits that: the first call to
:meth:`Tape.step` runs the builder under a recording hook that captures
every gradient-tracked node in creation order (a valid topological
order), then subsequent calls

1. **replay forward**: run each node's in-place forward closure, which
   recomputes ``node.data`` inside the same buffer from the parents'
   current data, and
2. **replay backward**: seed the root with 1 and fire the recorded
   backward closures in reverse order, accumulating into preallocated
   per-node gradient buffers.

No graph nodes, topological sorts, or gradient arrays are allocated
after the first epoch.  Values that change between epochs (λ schedules,
the annealed σ/c1) must live in leaf tensors or 0-d numpy "boxes"
updated *in place*; replays read them dynamically.

The compiled plan is the replay engine: on the first replay a
:mod:`~repro.autodiff.plan` compile lowers the recorded node list into
straight-line numpy code over the same buffers, removing the per-op
Python dispatch.  The plan lowers exactly the op kinds G-CLN training
records — ``add``, ``sub``, ``mul``, ``div``, ``abs``, ``pow``,
``matmul``, ``T``, ``sum``, ``reshape``, ``gaussian``, ``pbqu``,
``tnorm`` and ``tconorm``.  Nothing selects the engine: a graph with
any other op kind does not compile and replays through the closure
walker, the reference the plan is tested against
(``stats()["compiled"]`` is then False and ``stats()["fallback_reason"]``
names the kind).  Every op records a forward closure, so every
recorded graph replays; correctness never depends on compilability.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.errors import AutodiffError
from repro.autodiff import tensor as _tensor_mod
from repro.autodiff.tensor import Tensor
from repro.autodiff.plan import ReplayProgram, compile_plan


class Tape:
    """Records one scalar-rooted graph and replays it with reused buffers."""

    def __init__(self) -> None:
        self._root: Tensor | None = None
        self._nodes: list[Tensor] | None = None
        self._plan: ReplayProgram | None = None
        self._plan_failed = False
        self.plan_failure: str | None = None
        self.replays = 0
        # Cumulative plan-compile wall time.
        self.compile_ms = 0.0

    @property
    def recorded(self) -> bool:
        return self._nodes is not None

    @property
    def n_nodes(self) -> int:
        return len(self._nodes) if self._nodes is not None else 0

    def step(self, build: Callable[[], Tensor]) -> Tensor:
        """One training step: forward + backward, recording or replaying.

        Args:
            build: zero-argument closure constructing the scalar loss
                graph from leaf tensors.  Called once, to record.

        Returns:
            The root (loss) tensor with gradients accumulated into the
            graph's leaves.
        """
        if self._nodes is None:
            root = self._record(build)
            root.backward()
            return root
        plan = self._ensure_plan()
        if plan is None:
            self._replay_forward()
            self._replay_backward()
        else:
            plan.prepare_grads()
            plan.forward()
            plan.backward()
        self.replays += 1
        return self._root  # type: ignore[return-value]

    def stats(self) -> dict:
        """Whether the plan compiled (and why not), the node count,
        replay count and cumulative plan compile time."""
        return {
            "compiled": self._plan is not None,
            "n_nodes": self.n_nodes,
            "replays": self.replays,
            "compile_ms": self.compile_ms,
            "fallback_reason": self.plan_failure,
        }

    # -- internals ---------------------------------------------------------

    def _record(self, build: Callable[[], Tensor]) -> Tensor:
        recording = _tensor_mod._RECORDING
        if recording.sink is not None:
            raise AutodiffError("nested Tape recording is not supported")
        nodes: list[Tensor] = []
        recording.sink = nodes
        try:
            root = build()
        finally:
            recording.sink = None
        if root.data.size != 1:
            raise AutodiffError(
                f"Tape.step requires a scalar root, got shape {root.data.shape}"
            )
        if not root.requires_grad:
            raise AutodiffError("Tape.step requires a gradient-tracked root")
        self._root = root
        self._nodes = nodes
        return root

    def _ensure_plan(self) -> ReplayProgram | None:
        """The compiled plan for this tape, (re)built lazily.

        Compilation happens on the first replay — after the recording
        step's eager backward, so every buffer exists.  A stale plan
        (a leaf's ``.data`` storage was swapped for a new array) is
        dropped and recompiled against the new storage.
        """
        if self._plan is not None:
            if self._plan.guards_ok():
                return self._plan
            self._plan = None
            self._plan_failed = False
        if self._plan_failed:
            return None
        started = time.perf_counter()
        plan, failure = compile_plan(self._nodes, self._root)  # type: ignore[arg-type]
        self.compile_ms += (time.perf_counter() - started) * 1000.0
        if plan is None:
            self._plan_failed = True
            self.plan_failure = failure
            return None
        # The plan owns interior gradient buffers; drop stale references
        # left by the eager recording step (the walker also ends every
        # replay with interior ``grad`` unset).
        for node in self._nodes:  # type: ignore[union-attr]
            node.grad = None
        self._plan = plan
        return plan

    def _replay_forward(self) -> None:
        for node in self._nodes:  # type: ignore[union-attr]
            node._forward_fn()  # type: ignore[misc]

    def _replay_backward(self) -> None:
        nodes = self._nodes  # type: ignore[assignment]
        for node in nodes:  # type: ignore[union-attr]
            buf = node._grad_buf
            if buf is None:
                buf = node._grad_buf = np.zeros_like(node.data)
            else:
                buf.fill(0.0)
            node.grad = buf
        root = self._root
        root.grad[...] = 1.0  # type: ignore[union-attr, index]
        for node in reversed(nodes):  # type: ignore[arg-type]
            if node.grad is None:
                continue
            grad = node.grad
            node.grad = None
            node._backward_fn(grad)  # type: ignore[misc]

