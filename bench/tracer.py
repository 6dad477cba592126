"""In-memory span recorder wrapped around the library's public functions.

The tracer patches module attributes from the outside: every module that
binds a traced function under some name gets a wrapper in its place, so calls
made through ``tbi.cli.bundle_report`` and through ``tbi.cohomology``'s own
globals are both seen.  ``numpy.linalg.svd`` is wrapped too, for its count
and input shapes.  Spans stay in memory with their parent and are written
out once, at the end of the run.

A span's parent is the innermost open span of its own thread.  A span opened
on a worker thread with nothing open there is parented to the innermost open
span of the thread that started tracing (cmd_sample's pool threads belong to
the cli.main call that submitted them).
"""

import functools
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import tbi
import tbi.cli
import tbi.cohomology
import tbi.decomposition
import tbi.lattices
import tbi.periods
import tbi.serialize
import tbi.variety

# Layer name -> public functions whose calls are spans of that layer.
TRACED = {
    "cli": ("main",),
    "serialize": ("parse_input", "dumps", "input_document"),
    "lattices": ("validate_form", "group_multiply", "group_inverse", "commutator",
                 "extension_cocycle"),
    "periods": ("validate_structure", "basis_change", "random_structure"),
    "decomposition": ("decompose", "riemann_check"),
    "variety": ("sample_point", "pairwise_values"),
    "cohomology": ("bundle_report", "leray_table", "tangent_table", "h0_forms",
                   "closed_forms_dim", "h1_structure_sheaf", "numerical_rank"),
}
LAYERS = tuple(TRACED)
_MODULES = (tbi, tbi.cli, tbi.cohomology, tbi.decomposition, tbi.lattices,
            tbi.periods, tbi.serialize, tbi.variety)


@dataclass
class Span:
    ident: int
    parent: int | None
    root: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Install with ``with Tracer() as tracer:``; spans accumulate in
    ``tracer.spans`` until the block exits and the originals are restored.

    observers maps a traced function name to a callable that turns its
    return value into span attributes (sizes, attempt counts).  ``tag`` is
    copied into every span opened while it is set (document and datum class
    of the current request)."""

    def __init__(self, observers=None):
        self.observers = observers or {}
        self.tag: dict = {}
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._owner = threading.get_ident()
        self._patches: list = []
        self._next = 0

    # -- span bookkeeping -------------------------------------------------

    def _open(self, layer, name):
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            outer = stack[-1] if stack else None
            if outer is None and thread != self._owner:
                owner_stack = self._stacks.get(self._owner)
                outer = owner_stack[-1] if owner_stack else None
            self._next += 1
            span = Span(self._next, outer.ident if outer else None,
                        outer.root if outer else self._next, layer, name,
                        time.perf_counter(), thread=thread, attrs=dict(self.tag))
            stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        with self._lock:
            self._stacks[span.thread].pop()
            self.spans.append(span)

    def _wrap(self, layer, name, func):
        observe = self.observers.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                span.attrs.update(observe(result))
            return result
        return traced

    def _wrap_svd(self, func):
        @functools.wraps(func)
        def traced(a, *args, **kwargs):
            span = self._open(None, "numpy.linalg.svd")
            try:
                return func(a, *args, **kwargs)
            finally:
                self._close(span)
                arr = np.asarray(a)
                span.attrs["shape"] = arr.shape
                span.attrs["complex"] = bool(np.iscomplexobj(arr))
                span.attrs["uv"] = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
                span.attrs["full"] = kwargs.get("full_matrices", args[0] if args else True)
        return traced

    # -- installation -----------------------------------------------------

    def __enter__(self):
        wrapped = {}
        for layer, names in TRACED.items():
            module = getattr(tbi, layer)
            for name in names:
                original = getattr(module, name)
                wrapped[id(original)] = self._wrap(layer, name, original)
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and callable(value):
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])
        self._patches.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = self._wrap_svd(np.linalg.svd)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        return False

    def write(self, path):
        """Write every span as one JSON line (times relative to the first)."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "id": s.ident, "parent": s.parent, "root": s.root,
                    "layer": s.layer, "name": s.name,
                    "start_s": round(s.start - origin, 9),
                    "dur_s": round(s.end - s.start, 9),
                    **{k: list(v) if isinstance(v, tuple) else v
                       for k, v in s.attrs.items()},
                }) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals (clipped to the span), children from any thread included.
    SVD spans are not layers: their time stays with the calling layer."""
    children: dict = {}
    for s in spans:
        if s.parent is not None and s.layer is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.ident, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.ident] = (s.end - s.start) - covered
    return out


def svd_flops(shape, is_complex, uv, full):
    """Computed flop count of one SVD from its shape (Golub and Van Loan's
    Table 8.6.1 estimates for R-SVD; x4 for complex arithmetic).  Labelled
    computed: it ignores the library's actual algorithm choice."""
    if len(shape) != 2 or 0 in shape:
        return 0.0
    big, small = max(shape), min(shape)
    if not uv:
        flops = 4.0 * big * small ** 2 - 4.0 * small ** 3 / 3.0
    elif full:
        flops = 4.0 * big ** 2 * small + 8.0 * big * small ** 2 + 9.0 * small ** 3
    else:
        flops = 4.0 * big * small ** 2 + 8.0 * big * small ** 2 + 9.0 * small ** 3
    return flops * (4.0 if is_complex else 1.0)
