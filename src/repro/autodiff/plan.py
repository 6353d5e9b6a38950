"""Replay plans: compile a recorded tape into a fused replay program.

The :class:`~repro.autodiff.tape.Tape` replays a graph closure-by-
closure: per node, a Python call, ``asarray``/``_unbroadcast`` checks,
and freshly allocated gradient temporaries.  On the small arrays G-CLN
trains on, that per-op machinery — not numpy — is the floor under
epochs/sec.  This module removes it by *lowering* the recorded node
list into straight-line Python source over preallocated buffers:

* one generated ``_fwd()`` runs every forward in recorded order, and
  one generated ``_bwd()`` seeds the root and fires every backward
  contribution in reverse order — no per-op dispatch, no topological
  bookkeeping, no gradient allocation;
* scratch temporaries come from a shape-keyed arena allocated once at
  compile time; every ufunc writes with ``out=``;
* contributions to parents that do not require gradients are dropped
  at compile time (the walker computes and discards them);
* **gradient aliasing**: an interior node referenced once in the graph
  whose one contribution is its consumer's gradient unchanged (an
  ``add`` operand, the minuend of a ``sub``, a ``reshape``, a sum over
  length-1 axes) gets no buffer of its own: its gradient is bound to a
  C-contiguous view of the consumer's buffer instead of a copy of it;
* **forward reuse**: a node with the same op, params and (already
  reused) parents as an earlier node reads that node's buffer instead
  of recomputing it.  The G-CLN loss normalizes the masked weights
  twice (for the forward and for the L1 term); the replay computes
  them once.  The backward keeps one chain per recorded node, so
  gradients accumulate exactly as the walker accumulates them;
* gated t-norms and t-conorms are lowered by the static length of
  their reduced axis.  On a 2-long axis (every clause's literal
  product) the product is one multiply of the two columns and the
  backward exclusive product is the two columns swapped, each scaled
  by the incoming gradient; any other length runs the walker's
  shifted-cumprod construction in place.  Either way every column,
  head, tail and flipped view is bound at compile time, so the replay
  does no Python slicing.

**Lowered op kinds** are exactly the ones a G-CLN training tape
records (masked linear layer, activation, gated t-norms/t-conorms and
loss arithmetic): ``add``, ``sub``, ``mul``, ``div``, ``abs``,
``pow``, ``matmul``, ``T``, ``sum``, ``reshape``, ``gaussian``,
``pbqu``, ``tnorm`` and ``tconorm``.  Every other op the autodiff
layer offers replays through the closure walker.

**Oracle guarantee**: the tape's closure walker is the reference, and
the plan computes every gradient with the same numpy ufunc sequence
the closures execute, into C-contiguous buffers like the walker's
freshly allocated temporaries (relying on documented identities such
as ``x ** 2`` lowering to ``np.square`` and multiply/add commuting
bitwise).  Both rewrites only skip work whose result is already in a
buffer: an aliased gradient reads the very values the walker would
copy, through a view of the same layout, and a reused forward is the
same ufunc on the same inputs (a reused node's ``.data`` is pointed at
that buffer, so readers of the node see the replayed value).  So fused
replays are bitwise-identical to walker replays with two narrow
exceptions.  The *sign* of exactly-zero gradients can differ, because
the plan's first contribution to a buffer overwrites it instead of
adding into zeros (values still compare equal under
``==``/``np.array_equal``).  A dead subgraph — one whose output never
receives a gradient — is skipped outright rather than fed exact zeros
(value-equal unless its data holds inf/nan).

Compilation is conservative: any node without a lowered ``_op`` kind
makes :func:`compile_plan` return no plan (with the reason) and the
tape falls back to the walker.  Correctness never depends on
compilability.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

import numpy as np

from repro.autodiff.tensor import Tensor


def _lit(value) -> str:
    """Embed a Python scalar in generated source, round-tripping floats."""
    return repr(value)


def _matmul_result_shape(sa: tuple, sb: tuple) -> tuple:
    batch = np.broadcast_shapes(sa[:-2], sb[:-2])
    return batch + (sa[-2], sb[-1])


class ReplayProgram:
    """A compiled forward/backward replay for one recorded tape."""

    def __init__(
        self,
        env: dict,
        data_guard: list,
        grad_guard: list,
        source: str,
    ):
        self.env = env
        self.forward: Callable[[], None] = env["_fwd"]
        self.backward: Callable[[], None] = env["_bwd"]
        self._data_guard = data_guard
        self._grad_guard = grad_guard
        self.source = source

    def guards_ok(self) -> bool:
        """True while every bound leaf still owns the compiled buffers.

        A leaf whose ``.data`` was swapped for a different array (e.g.
        storage rebinding) invalidates the plan; the tape recompiles.
        """
        env = self.env
        for tensor, name in self._data_guard:
            if env[name] is not tensor.data:
                return False
        return True

    def prepare_grads(self) -> None:
        """Point the plan at each leaf's current gradient buffer.

        An optimizer's parameters keep one bound gradient view for
        good (see :func:`~repro.autodiff.optim.flat_parameters`), so
        for them this only checks.  A leaf entering the replay with
        ``grad=None`` gets a zeroed buffer (the walker would copy its
        first contribution; adding into zeros is value-equal).  A
        caller-swapped buffer is simply rebound — names resolve through
        ``env`` at call time.
        """
        env = self.env
        for tensor, name in self._grad_guard:
            grad = tensor.grad
            if grad is None:
                tensor.grad = grad = np.zeros_like(tensor.data)
            if env[name] is not grad:
                env[name] = grad


class _PlanCompiler:
    """Lowers a recorded node list into a :class:`ReplayProgram`."""

    def __init__(self, nodes: list[Tensor], root: Tensor):
        self.nodes = nodes
        self.root = root
        self.env: dict = {"np": np}
        self.node_ids = {id(n) for n in nodes}
        self._names: dict[int, str] = {}
        self._keepalive: list = []
        self._guarded: set[int] = set()
        self.data_guard: list = []
        self.grad_guard: list = []
        self._leaf_grad: dict[int, str] = {}
        self._scratch: dict = {}
        self._persist: dict = {}
        # Interior nodes whose gradient buffer already holds a
        # contribution when the backward emission reaches a new one.
        # The root's buffer is filled with 1.0 once, at compile time;
        # every other buffer is claimed by its first contribution, and a
        # node never written is a dead subgraph.
        self._written: set[int] = set()
        self._slot = 0
        self._local = 0
        # How often each node is a parent in the graph: a node
        # referenced once gets exactly one gradient contribution.
        self._refs = Counter(id(p) for n in nodes for p in n._parents)
        # Gradient aliasing: interior nodes whose gradient is a view of
        # their one consumer's gradient, by bound name.
        self._alias: dict[int, str] = {}
        # Forward reuse: a node computing what an earlier node already
        # computes maps to that node and reads its buffer.
        self._canon: dict[int, Tensor] = {}
        # Nodes whose buffer a view node (reshape, T) reads; they keep
        # their own buffer and are never replaced by an earlier node.
        self._viewed = {
            id(n._parents[0])
            for n in nodes
            if n._op is not None and (n._op[1] or {}).get("is_view")
        }
        self.fwd_lines: list[str] = []
        self.bwd_lines: list[str] = []
        self.failure: str | None = None

    # -- binding -----------------------------------------------------------

    def _bind(self, obj, prefix: str) -> str:
        key = id(obj)
        name = self._names.get(key)
        if name is None:
            name = f"{prefix}{len(self._names)}"
            self._names[key] = name
            self.env[name] = obj
            self._keepalive.append(obj)
        return name

    def dname(self, t: Tensor) -> str:
        t = self._canon.get(id(t), t)
        name = self._bind(t.data, "v")
        if id(t) not in self.node_ids and id(t) not in self._guarded:
            self._guarded.add(id(t))
            self.data_guard.append((t, name))
        return name

    def gname(self, t: Tensor) -> str:
        alias = self._alias.get(id(t))
        if alias is not None:
            return alias
        if id(t) in self.node_ids:
            # Always C-contiguous: ``zeros_like`` of a transposed view
            # (a ``T`` node) is F-ordered, and a matmul written into it
            # with ``out=`` rounds differently from the walker's freshly
            # allocated product.
            buf = t._grad_buf
            if buf is None or not buf.flags.c_contiguous:
                buf = t._grad_buf = np.zeros(t.data.shape)
            return self._bind(buf, "g")
        name = self._leaf_grad.get(id(t))
        if name is None:
            name = f"lg{len(self._leaf_grad)}"
            self._leaf_grad[id(t)] = name
            # Bound for real by ReplayProgram.prepare_grads before each
            # replay.
            self.env[name] = t.grad
            self.grad_guard.append((t, name))
        return name

    def const(self, obj) -> str:
        return self._bind(obj, "c")

    def tmp(self, shape, dtype="f8") -> str:
        key = (tuple(shape), dtype, self._slot)
        self._slot += 1
        name = self._scratch.get(key)
        if name is None:
            name = self._bind(np.empty(shape, dtype=dtype), "s")
            self._scratch[key] = name
        return name

    def persist(self, node: Tensor, tag: str, shape, dtype="f8") -> str:
        # A reused node reads what its canonical node's forward stored.
        key = (id(self._canon.get(id(node), node)), tag)
        name = self._persist.get(key)
        if name is None:
            name = self._bind(np.empty(shape, dtype=dtype), "p")
            self._persist[key] = name
        return name

    def view(self, arr: np.ndarray, axis: int, index) -> str:
        """Bind ``arr[..., index, ...]`` on ``axis`` as a compile-time view.

        The trailing ``Ellipsis`` keeps an integer index on a 1-D array
        a 0-d view instead of a detached scalar.
        """
        return self.const(arr[(slice(None),) * axis + (index, Ellipsis)])

    def local(self) -> str:
        self._local += 1
        return f"_t{self._local}"

    def scal(self, value, lines: list[str]) -> str:
        """A dynamic scalar: floats embed, 0-d boxes are read per call."""
        if isinstance(value, np.ndarray):
            name = self.const(value)
            var = self.local()
            lines.append(f"{var} = float({name})")
            return var
        return _lit(float(value))

    # -- gradient accumulation --------------------------------------------
    #
    # The walker zero-fills every interior gradient buffer and *adds*
    # each contribution.  The plan instead lets the first contribution
    # to an interior buffer *overwrite* it (a successful claim) and adds
    # every later one.  0 + c == c, so this is value-equal to the
    # walker; only the sign of exactly-zero gradients can differ.

    def _claim(self, t: Tensor) -> bool:
        """True iff ``t``'s first contribution may overwrite its buffer."""
        if id(t) not in self.node_ids:
            return False  # leaves accumulate into caller-owned buffers
        if id(t) in self._written:
            return False
        self._written.add(id(t))
        return True

    def contrib_dest(
        self, lines: list[str], parent: Tensor, src_shape: tuple
    ):
        """Where an emitter's final op should write its contribution.

        Returns ``(dest, token)``: with ``token`` None the destination
        *is* the parent's (claimed) gradient buffer and the emitter is
        done; otherwise finish with :meth:`finish_contrib`.
        """
        if tuple(parent.data.shape) == tuple(src_shape) and self._claim(
            parent
        ):
            return self.gname(parent), None
        return self.tmp(src_shape), (parent, tuple(src_shape))

    def finish_contrib(self, lines: list[str], dest: str, token) -> None:
        if token is not None:
            parent, src_shape = token
            self.accum(lines, parent, dest, src_shape)

    def accum(
        self, lines: list[str], parent: Tensor, src: str, src_shape: tuple
    ) -> None:
        """buf (+)= _unbroadcast(src): the walker's accumulate, statically."""
        g = self.gname(parent)
        tshape = tuple(parent.data.shape)
        curshape = tuple(src_shape)
        reductions = []
        if curshape != tshape:
            extra = len(curshape) - len(tshape)
            if extra > 0:
                curshape = curshape[extra:]
                reductions.append((f"axis={tuple(range(extra))}", curshape))
            axes = tuple(
                i for i, d in enumerate(tshape)
                if d == 1 and curshape[i] != 1
            )
            if axes:
                curshape = tuple(
                    1 if i in axes else d for i, d in enumerate(curshape)
                )
                reductions.append((f"axis={axes}, keepdims=True", curshape))
        claim = self._claim(parent)
        cur = src
        for i, (args, outshape) in enumerate(reductions):
            last = i == len(reductions) - 1
            # The last reduction of a first contribution writes straight
            # into the parent's buffer instead of a scratch to copy.
            direct = last and claim and outshape == tshape
            dest = g if direct else self.tmp(outshape)
            lines.append(f"np.add.reduce({cur}, {args}, out={dest})")
            if direct:
                return
            cur = dest
        if curshape != tshape:
            cur = f"{cur}.reshape({tshape!r})"
        if claim:
            lines.append(f"np.copyto({g}, {cur})")
            return
        lines.append(f"np.add({g}, {cur}, out={g})")

    def accum_neg(
        self, lines: list[str], parent: Tensor, src: str, src_shape: tuple
    ) -> None:
        """buf += (-src), using in-place subtract when shapes line up."""
        tshape = tuple(parent.data.shape)
        if tuple(src_shape) == tshape:
            g = self.gname(parent)
            if self._claim(parent):
                lines.append(f"np.negative({src}, out={g})")
                return
            lines.append(f"np.subtract({g}, {src}, out={g})")
            return
        s = self.tmp(src_shape)
        lines.append(f"np.negative({src}, out={s})")
        self.accum(lines, parent, s, src_shape)

    def alias_grad(self, parent: Tensor, gy: str, view: np.ndarray) -> bool:
        """Bind ``parent``'s gradient to ``view`` of its consumer's; True if done.

        This is gradient aliasing: when ``parent`` is interior, is
        referenced once in the graph (so this is its only contribution)
        and ``view`` is a C-contiguous view of the consumer's gradient
        buffer ``gy`` with ``parent``'s shape, the consumer's gradient
        *is* ``parent``'s, unchanged.  Reading the consumer's buffer
        through the view replaces the walker's copy into a buffer of
        ``parent``'s own; nothing writes either buffer after this point
        of the backward, since every contribution to the consumer came
        before.  Otherwise nothing is bound and the caller accumulates.
        """
        if (
            id(parent) not in self.node_ids
            or self._refs[id(parent)] != 1
            or view.shape != parent.data.shape
            or not view.flags.c_contiguous
            or not np.shares_memory(view, self.env[gy])
        ):
            return False
        self._alias[id(parent)] = self._bind(view, "g")
        self._written.add(id(parent))
        return True

    # -- emission ----------------------------------------------------------

    def compile(self) -> ReplayProgram | None:
        for node in self.nodes:
            if node._op is None:
                self.failure = "node without op metadata"
                return None
        try:
            # The walker seeds the root with 1.0 every replay; nothing
            # else writes the root's buffer, so one fill here does it.
            self.env[self.gname(self.root)].fill(1.0)
            self._written.add(id(self.root))
            first_of: dict = {}
            for node in self.nodes:
                self._slot = 0
                first = first_of.setdefault(self._reuse_key(node), node)
                if first is not node and id(node) not in self._viewed:
                    self._canon[id(node)] = first
                    continue
                self._forward_op(node)
            for node in reversed(self.nodes):
                self._slot = 0
                self._emit_backward(node)
        except _Unsupported as exc:
            self.failure = str(exc)
            return None
        body_f = "\n".join(f"    {ln}" for ln in self.fwd_lines) or "    pass"
        body_b = "\n".join(f"    {ln}" for ln in self.bwd_lines) or "    pass"
        source = f"def _fwd():\n{body_f}\n\ndef _bwd():\n{body_b}\n"
        exec(compile(source, "<replay-plan>", "exec"), self.env)
        # A reused node's own buffer is never written again; point it at
        # the buffer the replay fills, for whoever reads its data.
        for node in self.nodes:
            first = self._canon.get(id(node))
            if first is not None:
                node.data = first.data
        return ReplayProgram(
            self.env, self.data_guard, self.grad_guard, source
        )

    # -- forward ops -------------------------------------------------------

    def _reuse_key(self, node: Tensor):
        """What ``node``'s forward computes: op, params, canonical parents.

        Array params (σ boxes, t-norm scratch) count by identity.
        """
        kind, params = node._op
        items = tuple(
            (k, ("array", id(v)) if isinstance(v, np.ndarray) else v)
            for k, v in sorted((params or {}).items())
        )
        parents = tuple(id(self._canon.get(id(p), p)) for p in node._parents)
        key = (kind, items, parents)
        try:
            hash(key)
        except TypeError:  # e.g. a slice index: compute it afresh
            return ("own", id(node))
        return key

    def _forward_op(self, node: Tensor) -> None:
        kind, params = node._op
        y = self.dname(node)
        ps = node._parents
        out = self.fwd_lines
        if kind == "add":
            out.append(f"np.add({self.dname(ps[0])}, {self.dname(ps[1])}, out={y})")
        elif kind == "sub":
            out.append(f"np.subtract({self.dname(ps[0])}, {self.dname(ps[1])}, out={y})")
        elif kind == "mul":
            out.append(f"np.multiply({self.dname(ps[0])}, {self.dname(ps[1])}, out={y})")
        elif kind == "div":
            out.append(f"np.divide({self.dname(ps[0])}, {self.dname(ps[1])}, out={y})")
        elif kind == "abs":
            out.append(f"np.abs({self.dname(ps[0])}, out={y})")
        elif kind == "pow":
            e = params["exponent"]
            out.append(f"np.power({self.dname(ps[0])}, {_lit(e)}, out={y})")
        elif kind == "matmul":
            a, b = self.dname(ps[0]), self.dname(ps[1])
            if node.data.ndim:
                out.append(f"np.matmul({a}, {b}, out={y})")
            else:
                out.append(f"{y}[...] = {a} @ {b}")
        elif kind == "sum":
            # np.sum delegates to add.reduce; calling it directly skips
            # the dispatch wrapper and stays bitwise-identical.
            out.append(
                f"np.add.reduce({self.dname(ps[0])}, "
                f"axis={params['axis']!r}, "
                f"keepdims={params['keepdims']!r}, out={y})"
            )
        elif kind == "reshape":
            if not params["is_view"]:
                shape = tuple(node.data.shape)
                out.append(
                    f"{y}[...] = {self.dname(ps[0])}.reshape({shape!r})"
                )
        elif kind == "T":
            if not params["is_view"]:
                out.append(f"{y}[...] = {self.dname(ps[0])}.T")
        elif kind == "gaussian":
            a = self.dname(ps[0])
            s = self.scal(params["sigma"], out)
            t = self.tmp(node.data.shape)
            out.append(f"np.square({a}, out={t})")
            out.append(f"np.negative({t}, out={t})")
            out.append(f"np.divide({t}, 2.0 * {s} ** 2, out={t})")
            out.append(f"np.exp({t}, out={y})")
        elif kind == "pbqu":
            a = self.dname(ps[0])
            c1 = self.scal(params["c1"], out)
            c2 = self.scal(params["c2"], out)
            k = self.persist(node, "k", node.data.shape)
            den = self.persist(node, "den", node.data.shape)
            mask = self.tmp(node.data.shape, "?")
            inv = self.tmp(node.data.shape, "?")
            s = self.tmp(node.data.shape)
            # k = where(mask, c2**2, c1**2) built as mask*c2**2 +
            # (~mask)*c1**2 — bitwise-identical for positive constants
            # and ~7x faster than copyto(where=) on small arrays.
            out.append(f"np.greater_equal({a}, 0.0, out={mask})")
            out.append(f"np.multiply({mask}, {c2} ** 2, out={k})")
            out.append(f"np.logical_not({mask}, out={inv})")
            out.append(f"np.multiply({inv}, {c1} ** 2, out={s})")
            out.append(f"np.add({k}, {s}, out={k})")
            out.append(f"np.multiply({a}, {a}, out={den})")
            out.append(f"np.add({den}, {k}, out={den})")
            out.append(f"np.divide({k}, {den}, out={y})")
        elif kind in ("tnorm", "tconorm"):
            self._forward_tnorm(node, kind, params)
        else:
            raise _Unsupported(f"unsupported op kind {kind!r}")

    def _forward_tnorm(self, node: Tensor, kind: str, params: dict) -> None:
        values, gates = node._parents
        v, g = self.dname(values), self.dname(gates)
        y = self.dname(node)
        inner_arr = params["inner"]
        inner = self.const(inner_arr)
        out = self.fwd_lines
        if kind == "tnorm":
            if inner_arr.shape == values.data.shape:
                out.append(f"np.subtract({v}, 1.0, out={inner})")
                out.append(f"np.multiply({inner}, {g}, out={inner})")
                out.append(f"np.add({inner}, 1.0, out={inner})")
            else:
                out.append(f"{inner}[...] = 1.0 + {g} * ({v} - 1.0)")
            self._emit_prod(inner_arr, params["axis"], y)
        else:
            out.append(f"np.multiply({g}, {v}, out={inner})")
            out.append(f"np.subtract(1.0, {inner}, out={inner})")
            self._emit_prod(inner_arr, params["axis"], y)
            out.append(f"np.subtract(1.0, {y}, out={y})")

    def _emit_prod(self, x: np.ndarray, axis: int, y: str) -> None:
        """``y = prod(x, axis)``, lowered by the axis's static length.

        A 2-long axis (every literal product) is one elementwise
        multiply of its two columns: ``multiply.reduce`` computes
        exactly ``x0 * x1`` there, but pays a reduction loop per row.
        """
        if x.shape[axis] == 2:
            x0, x1 = self.view(x, axis, 0), self.view(x, axis, 1)
            self.fwd_lines.append(f"np.multiply({x0}, {x1}, out={y})")
        else:
            self.fwd_lines.append(
                f"np.multiply.reduce({self.const(x)}, axis={axis}, out={y})"
            )

    # -- backward ops ------------------------------------------------------

    def _emit_backward(self, node: Tensor) -> None:
        if id(node) not in self._written:
            # Dead subgraph: the walker would propagate exact zeros.
            return
        kind, params = node._op
        yshape = tuple(node.data.shape)
        ps = node._parents
        out = self.bwd_lines
        gy = self.gname(node)
        if kind == "add":
            for p in ps:
                if p.requires_grad and not self.alias_grad(
                    p, gy, self.env[gy]
                ):
                    self.accum(out, p, gy, yshape)
        elif kind == "sub":
            if ps[0].requires_grad and not self.alias_grad(
                ps[0], gy, self.env[gy]
            ):
                self.accum(out, ps[0], gy, yshape)
            if ps[1].requires_grad:
                self.accum_neg(out, ps[1], gy, yshape)
        elif kind == "mul":
            # For x*x the second side's product adds onto the first
            # side's claim: c + c, bitwise the walker's 0 + c + c.
            a, b = ps
            if a.requires_grad:
                dest, token = self.contrib_dest(out, a, yshape)
                out.append(f"np.multiply({gy}, {self.dname(b)}, out={dest})")
                self.finish_contrib(out, dest, token)
            if b.requires_grad:
                dest, token = self.contrib_dest(out, b, yshape)
                out.append(f"np.multiply({gy}, {self.dname(a)}, out={dest})")
                self.finish_contrib(out, dest, token)
        elif kind == "div":
            a, b = ps
            if a.requires_grad:
                dest, token = self.contrib_dest(out, a, yshape)
                out.append(f"np.divide({gy}, {self.dname(b)}, out={dest})")
                self.finish_contrib(out, dest, token)
            if b.requires_grad:
                s = self.tmp(yshape)
                s2 = self.tmp(tuple(b.data.shape))
                out.append(f"np.negative({gy}, out={s})")
                out.append(f"np.multiply({s}, {self.dname(a)}, out={s})")
                out.append(f"np.square({self.dname(b)}, out={s2})")
                dest, token = self.contrib_dest(out, b, yshape)
                out.append(f"np.divide({s}, {s2}, out={dest})")
                self.finish_contrib(out, dest, token)
        elif kind == "pow":
            if ps[0].requires_grad:
                self._backward_pow(node, params["exponent"], gy)
        elif kind == "matmul":
            self._backward_matmul(node, gy)
        elif kind == "abs":
            if ps[0].requires_grad:
                a = self.dname(ps[0])
                s = self.tmp(yshape)
                out.append(f"np.sign({a}, out={s})")
                dest, token = self.contrib_dest(out, ps[0], yshape)
                out.append(f"np.multiply({gy}, {s}, out={dest})")
                self.finish_contrib(out, dest, token)
        elif kind == "sum":
            if ps[0].requires_grad:
                self._backward_sum(node, params, gy)
        elif kind == "reshape":
            pshape = tuple(ps[0].data.shape)
            if ps[0].requires_grad and not self.alias_grad(
                ps[0], gy, self.env[gy].reshape(pshape)
            ):
                self.accum(out, ps[0], f"{gy}.reshape({pshape!r})", pshape)
        elif kind == "T":
            if ps[0].requires_grad and not self.alias_grad(
                ps[0], gy, self.env[gy].T
            ):
                pshape = tuple(ps[0].data.shape)
                self.accum(out, ps[0], f"{gy}.T", pshape)
        elif kind == "gaussian":
            if ps[0].requires_grad:
                a, y = self.dname(ps[0]), self.dname(node)
                sg = self.scal(params["sigma"], out)
                s = self.tmp(yshape)
                s2 = self.tmp(yshape)
                out.append(f"np.multiply({gy}, {y}, out={s})")
                out.append(f"np.negative({a}, out={s2})")
                out.append(f"np.divide({s2}, {sg} ** 2, out={s2})")
                dest, token = self.contrib_dest(out, ps[0], yshape)
                out.append(f"np.multiply({s}, {s2}, out={dest})")
                self.finish_contrib(out, dest, token)
        elif kind == "pbqu":
            if ps[0].requires_grad:
                a = self.dname(ps[0])
                k = self.persist(node, "k", yshape)
                den = self.persist(node, "den", yshape)
                s = self.tmp(yshape)
                s2 = self.tmp(yshape)
                out.append(f"np.multiply({a}, -2.0, out={s})")
                out.append(f"np.multiply({s}, {k}, out={s})")
                out.append(f"np.multiply({gy}, {s}, out={s})")
                out.append(f"np.multiply({den}, {den}, out={s2})")
                dest, token = self.contrib_dest(out, ps[0], yshape)
                out.append(f"np.divide({s}, {s2}, out={dest})")
                self.finish_contrib(out, dest, token)
        elif kind in ("tnorm", "tconorm"):
            self._backward_tnorm(node, kind, params, gy)
        else:  # pragma: no cover - forward pass already rejected it
            raise _Unsupported(f"unsupported op kind {kind!r}")

    def _pow_operand(self, a: str, e2, yshape: tuple) -> str | None:
        # numpy lowers small scalar exponents of ``**`` to dedicated
        # ufuncs; mirror that mapping so values stay bitwise-equal.
        out = self.bwd_lines
        if e2 == 1:
            return a
        if e2 == 0:
            return None
        s2 = self.tmp(yshape)
        if e2 == 2:
            out.append(f"np.square({a}, out={s2})")
        elif e2 == 0.5:
            out.append(f"np.sqrt({a}, out={s2})")
        elif e2 == -1:
            out.append(f"np.reciprocal({a}, out={s2})")
        else:
            out.append(f"np.power({a}, {_lit(e2)}, out={s2})")
        return s2

    def _backward_pow(self, node: Tensor, exponent, gy: str) -> None:
        out = self.bwd_lines
        parent = node._parents[0]
        yshape = tuple(node.data.shape)
        a = self.dname(parent)
        s = self.tmp(yshape)
        out.append(f"np.multiply({gy}, {_lit(exponent)}, out={s})")
        operand = self._pow_operand(a, exponent - 1, yshape)
        if operand is None:
            self.accum(out, parent, s, yshape)
            return
        dest, token = self.contrib_dest(out, parent, yshape)
        out.append(f"np.multiply({s}, {operand}, out={dest})")
        self.finish_contrib(out, dest, token)

    def _backward_matmul(self, node: Tensor, gy: str) -> None:
        out = self.bwd_lines
        a, b = node._parents
        an, bn = self.dname(a), self.dname(b)
        ashape, bshape = tuple(a.data.shape), tuple(b.data.shape)
        yshape = tuple(node.data.shape)
        if len(ashape) == 1 and len(bshape) == 1:
            if a.requires_grad:
                dest, token = self.contrib_dest(out, a, bshape)
                out.append(f"np.multiply({gy}, {bn}, out={dest})")
                self.finish_contrib(out, dest, token)
            if b.requires_grad:
                dest, token = self.contrib_dest(out, b, ashape)
                out.append(f"np.multiply({gy}, {an}, out={dest})")
                self.finish_contrib(out, dest, token)
        elif len(ashape) == 2 and len(bshape) == 1:
            if a.requires_grad:
                n, m = ashape
                dest, token = self.contrib_dest(out, a, ashape)
                out.append(
                    f"np.multiply({gy}.reshape({n}, 1), "
                    f"{bn}.reshape(1, {m}), out={dest})"
                )
                self.finish_contrib(out, dest, token)
            if b.requires_grad:
                dest, token = self.contrib_dest(out, b, bshape)
                out.append(f"np.matmul({an}.T, {gy}, out={dest})")
                self.finish_contrib(out, dest, token)
        elif len(ashape) == 1 and len(bshape) == 2:
            if a.requires_grad:
                dest, token = self.contrib_dest(out, a, ashape)
                out.append(f"np.matmul({bn}, {gy}, out={dest})")
                self.finish_contrib(out, dest, token)
            if b.requires_grad:
                n, m = bshape
                dest, token = self.contrib_dest(out, b, bshape)
                out.append(
                    f"np.multiply({an}.reshape({n}, 1), "
                    f"{gy}.reshape(1, {m}), out={dest})"
                )
                self.finish_contrib(out, dest, token)
        else:
            swapped_b = bshape[:-2] + (bshape[-1], bshape[-2])
            swapped_a = ashape[:-2] + (ashape[-1], ashape[-2])
            if a.requires_grad:
                cshape = _matmul_result_shape(yshape, swapped_b)
                dest, token = self.contrib_dest(out, a, cshape)
                out.append(
                    f"np.matmul({gy}, {bn}.swapaxes(-1, -2), out={dest})"
                )
                self.finish_contrib(out, dest, token)
            if b.requires_grad:
                cshape = _matmul_result_shape(swapped_a, yshape)
                dest, token = self.contrib_dest(out, b, cshape)
                out.append(
                    f"np.matmul({an}.swapaxes(-1, -2), {gy}, out={dest})"
                )
                self.finish_contrib(out, dest, token)

    def _backward_sum(self, node: Tensor, params: dict, gy: str) -> None:
        parent = node._parents[0]
        axis, keepdims = params["axis"], params["keepdims"]
        if axis is None or keepdims:
            src, view = gy, self.env[gy]
        else:
            pshape = parent.data.shape
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax if ax >= 0 else len(pshape) + ax for ax in axes)
            expanded = tuple(
                1 if i in axes else d for i, d in enumerate(pshape)
            )
            src = f"{gy}.reshape({expanded!r})"
            view = self.env[gy].reshape(expanded)
        # Summing over length-1 axes passes the gradient through.
        if self.alias_grad(parent, gy, view):
            return
        g = self.gname(parent)
        if self._claim(parent):
            self.bwd_lines.append(f"np.copyto({g}, {src})")
            return
        self.bwd_lines.append(f"np.add({g}, {src}, out={g})")

    def _backward_tnorm(
        self, node: Tensor, kind: str, params: dict, gy: str
    ) -> None:
        values, gates = node._parents
        inner = params["inner"]
        ishape = tuple(inner.shape)
        out = self.bwd_lines
        ep = self._emit_exclusive_prod(node, inner, params["axis"], gy)
        v, g = self.dname(values), self.dname(gates)
        if values.requires_grad:
            dest, token = self.contrib_dest(out, values, ishape)
            out.append(f"np.multiply({ep}, {g}, out={dest})")
            self.finish_contrib(out, dest, token)
        if gates.requires_grad:
            if kind == "tnorm":
                s = self.tmp(ishape)
                out.append(f"np.subtract({v}, 1.0, out={s})")
                dest, token = self.contrib_dest(out, gates, ishape)
                out.append(f"np.multiply({ep}, {s}, out={dest})")
            else:
                dest, token = self.contrib_dest(out, gates, ishape)
                out.append(f"np.multiply({ep}, {v}, out={dest})")
            self.finish_contrib(out, dest, token)

    def _emit_exclusive_prod(
        self, node: Tensor, x: np.ndarray, ax: int, gy: str
    ) -> str:
        """``ep = gy * exclusive_prod(x, ax)`` into a persistent buffer.

        Lowered by the axis's static length, with every view bound at
        compile time.  On a 2-long axis the exclusive product is the two
        columns swapped (the walker's shifted cumprods give exactly
        ``[1*x1, x0*1]``), so each column of ``ep`` is one multiply of
        the incoming gradient.  Any other length runs the walker's
        shifted-cumprod construction in place: the ``1.0`` seeds of the
        left and right scratch are written once here, and ``cumprod``
        leaves them untouched.
        """
        out = self.bwd_lines
        ishape = tuple(x.shape)
        n = ishape[ax]
        ep = self.persist(node, "ep", ishape)
        ep_arr = self.env[ep]
        if n == 2:
            x0, x1 = self.view(x, ax, 0), self.view(x, ax, 1)
            e0, e1 = self.view(ep_arr, ax, 0), self.view(ep_arr, ax, 1)
            out.append(f"np.multiply({gy}, {x1}, out={e0})")
            out.append(f"np.multiply({gy}, {x0}, out={e1})")
            return ep
        xl, xr = self.persist(node, "xl", ishape), self.persist(node, "xr", ishape)
        left, right = self.env[xl], self.env[xr]
        first = (slice(None),) * ax + (0,)
        left[first] = right[first] = 1.0
        head = slice(0, n - 1)
        tail = slice(1, None)
        l_tail, r_tail = self.view(left, ax, tail), self.view(right, ax, tail)
        x_head = self.view(x, ax, head)
        rev_head = self.view(np.flip(x, axis=ax), ax, head)
        rev_right = self.const(np.flip(right, axis=ax))
        expanded = tuple(1 if i == ax else d for i, d in enumerate(ishape))
        gyx = self.const(self.env[gy].reshape(expanded))
        # np.cumprod delegates to multiply.accumulate; calling it
        # directly skips the dispatch wrapper and stays bitwise-identical.
        out.append(f"np.copyto({l_tail}, {x_head})")
        out.append(f"np.multiply.accumulate({xl}, axis={ax}, out={xl})")
        out.append(f"np.copyto({r_tail}, {rev_head})")
        out.append(f"np.multiply.accumulate({xr}, axis={ax}, out={xr})")
        out.append(f"np.multiply({xl}, {rev_right}, out={ep})")
        out.append(f"np.multiply({gyx}, {ep}, out={ep})")
        return ep


class _Unsupported(Exception):
    """Internal: an op the plan compiler cannot lower."""


def compile_plan(
    nodes: list[Tensor], root: Tensor
) -> tuple[ReplayProgram | None, str | None]:
    """Compile a recorded tape: ``(plan, None)`` or ``(None, reason)``.

    Never raises for an unsupported graph; the reason names what the
    compiler could not lower, and the caller replays through the walker.
    """
    if not nodes:
        return None, "empty tape"
    compiler = _PlanCompiler(nodes, root)
    program = compiler.compile()
    return program, compiler.failure
