"""Outside-in span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's side only: :func:`instrument`
temporarily replaces public methods and functions of :mod:`repro` with
timing wrappers and restores them on exit.  Nothing inside ``src/`` is
edited.  Each span records its name, start, end, parent span and the id
of the campaign unit it ran in; spans stay in memory and are written out
at the end (:meth:`Tracer.dump`).

A span's *self time* is its duration minus the time covered by its child
spans (:meth:`Tracer.self_times`).
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro.runtime.engine as engine_module
from repro.faultsim import OperationLevelInjector
from repro.quantized import qops
from repro.runtime import CampaignCheckpoint

#: Public methods of the kernel-backend protocol, one span name each.
BACKEND_STAGES = (
    "input_transform",
    "channel_reduce",
    "output_transform",
    "im2col_gemm",
    "linear_gemm",
    "requantize",
    "filter_transform",
)

#: Injector hooks that OperationLevelInjector itself implements
#: (``visit_output`` is the base class's no-op for operation-level faults).
INJECTOR_HOOKS = ("visit_direct", "visit_linear", "visit_winograd")

#: Every QNode subclass that implements its own ``forward``.
NODE_CLASSES = tuple(
    cls
    for cls in vars(qops).values()
    if isinstance(cls, type)
    and issubclass(cls, qops.QNode)
    and cls is not qops.QNode
    and "forward" in vars(cls)
)

UNIT_SPAN = "campaign.unit"


@dataclass
class Span:
    """One timed call: name, interval, parent index and campaign unit."""

    name: str
    start: float
    end: float
    parent: int
    unit: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._unit = -1
        self._units = 0

    def _open(self, name: str, attrs: dict) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._unit, attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block as one span."""
        index = self._open(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    @contextlib.contextmanager
    def unit(self):
        """Root span of one campaign unit; spans inside share its id."""
        outer = self._unit
        self._unit = self._units
        self._units += 1
        try:
            with self.span(UNIT_SPAN) as root:
                yield root
        finally:
            self._unit = outer

    def wrap(self, name: str, fn, attrs_of=None):
        """``fn`` wrapped in a span; ``attrs_of(args)`` adds span attributes."""

        def traced(*args, **kwargs):
            index = self._open(name, attrs_of(args) if attrs_of else {})
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    def wrap_unit(self, fn):
        """``fn`` wrapped so that every call is one campaign unit."""

        def traced(*args, **kwargs):
            with self.unit():
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # --- analysis -----------------------------------------------------------
    def children(self) -> list[list[int]]:
        """Direct child span indexes of every span."""
        kids: list[list[int]] = [[] for _ in self.spans]
        for index, span in enumerate(self.spans):
            if span.parent >= 0:
                kids[span.parent].append(index)
        return kids

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, summed self time, summed duration)``."""
        out: dict[str, tuple[int, float, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            calls, self_s, total_s = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (calls + 1, self_s + own, total_s + span.duration)
        return out

    def dump(self, path: Path, header: dict) -> None:
        """Write ``header`` and then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                row = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "unit": span.unit,
                }
                row.update(
                    (k, v) for k, v in span.attrs.items() if isinstance(v, (int, float, str))
                )
                out.write(json.dumps(row) + "\n")


class NullTracer:
    """Stand-in with the same block interface that records nothing."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()

    def unit(self):
        return contextlib.nullcontext()

    def wrap(self, name: str, fn, attrs_of=None):
        return fn


NULL = NullTracer()


def _gemm_attrs(macs_of):
    def attrs(args):
        macs, rows = macs_of(*args)
        return {"macs": int(macs), "rows": int(rows)}

    return attrs


#: MACs and batch rows of the GEMM-like stages, from operand shapes only.
_MACS = {
    # u: (N, C, T, t, t), v: (K, C, t, t)
    "channel_reduce": _gemm_attrs(lambda u, v, *rest: (u.size * v.shape[0], u.shape[0])),
    # weight2d: (K, C*R*S); cols: (N, C*R*S, P*Q) or the (N, C, R, S, P, Q) view
    "im2col_gemm": _gemm_attrs(lambda w, cols, *rest: (w.shape[0] * cols.size, cols.shape[0])),
    # x: (N, F_in), weight: (F_out, F_in)
    "linear_gemm": _gemm_attrs(lambda x, w, *rest: (x.shape[0] * w.size, x.shape[0])),
}


def _node_attrs(args):
    return {"node": args[0], "layer": args[0].name}


@contextlib.contextmanager
def _patched(target, name: str, replacement):
    """Set ``target.name`` for the block; restore what was there before."""
    had_own = name in vars(target)
    original = vars(target)[name] if had_own else None
    setattr(target, name, replacement)
    try:
        yield
    finally:
        if had_own:
            setattr(target, name, original)
        else:
            delattr(target, name)


@contextlib.contextmanager
def instrument(tracer: Tracer, backend=None, layers: bool = True, checkpoint: bool = True):
    """Install the span wrappers for the enclosed block.

    ``backend`` is the kernel-backend instance whose public methods get
    spans (instance attributes shadow the class methods).  ``layers``
    wraps every QNode subclass's ``forward``, the injector hooks, and the
    engine's calls to ``evaluate_seed_point`` (one unit span each).
    ``checkpoint`` wraps ``CampaignCheckpoint.put``/``flush``.
    """
    with contextlib.ExitStack() as stack:
        if backend is not None:
            for stage in BACKEND_STAGES:
                bound = getattr(backend, stage)
                wrapper = tracer.wrap(f"backends.{stage}", bound, _MACS.get(stage))
                stack.enter_context(_patched(backend, stage, wrapper))
        if layers:
            for cls in NODE_CLASSES:
                wrapper = tracer.wrap(
                    f"quantized.{cls.__name__}", vars(cls)["forward"], _node_attrs
                )
                stack.enter_context(_patched(cls, "forward", wrapper))
            for hook in INJECTOR_HOOKS:
                wrapper = tracer.wrap(
                    f"faultsim.{hook}", vars(OperationLevelInjector)[hook]
                )
                stack.enter_context(_patched(OperationLevelInjector, hook, wrapper))
            stack.enter_context(
                _patched(
                    engine_module,
                    "evaluate_seed_point",
                    tracer.wrap_unit(engine_module.evaluate_seed_point),
                )
            )
        if checkpoint:
            for method in ("put", "flush"):
                wrapper = tracer.wrap(
                    f"runtime.checkpoint.{method}", vars(CampaignCheckpoint)[method]
                )
                stack.enter_context(_patched(CampaignCheckpoint, method, wrapper))
        yield tracer
