"""Spans around kreinpair's public functions and numpy's LAPACK entry points.

The tracer is installed from outside the package: every module-level
public function of a layer module is wrapped at each binding that holds it
(a function imported by name into another module is a separate binding, so
``null_space`` is patched in ``subspaces``, ``boundary``, ``decomposition``
and ``completeness``), plus ``OperatorWithDomain.classify`` and the
``numpy.linalg`` functions the package calls.  ``uninstall`` puts every
original back, so untraced code runs with no wrapper at all.

``np.linalg.norm(a, 2)`` of a matrix runs an SVD inside numpy that a
wrapper on ``np.linalg.svd`` never sees; such calls get their own label,
``linalg.norm2``, and their SVD work is counted with the explicit ones.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("subspaces", "krein", "decomposition", "boundary", "completeness",
          "analysis", "sturm_liouville", "cli")
LINALG = ("svd", "norm", "lstsq", "eig", "eigvals", "eigh", "eigvalsh",
          "solve", "qr", "inv", "pinv")

# span fields
LABEL, START, END, PARENT, WORK = range(5)


def _svd_work(a) -> int:
    """m * n * min(m, n), summed over a stack of matrices."""
    shape = np.shape(a)
    if len(shape) < 2:
        return 0
    m, n = shape[-2:]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


def _norm_label(args, kwargs) -> tuple[str, int]:
    """``linalg.norm2`` with its SVD work for a matrix 2-norm, else ``linalg.norm``."""
    x = args[0] if args else kwargs.get("x")
    order = args[1] if len(args) > 1 else kwargs.get("ord")
    axis = args[2] if len(args) > 2 else kwargs.get("axis")
    if order in (2, -2) and axis is None and np.ndim(x) == 2:
        return "linalg.norm2", _svd_work(x)
    return "linalg.norm", 0


class Tracer:
    """Records one span per wrapped call while installed.

    Spans stay in memory as lists ``[label, start, end, parent, work]``;
    ``drain`` hands them over and starts a fresh list.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"kreinpair.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, module in sorted(sys.modules.items()):
            if modname != "kreinpair" and not modname.startswith("kreinpair."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, name, obj, wrappers[obj]))
        krein = importlib.import_module("kreinpair.krein")
        classify = krein.OperatorWithDomain.classify
        self._patches.append((krein.OperatorWithDomain, "classify", classify,
                              self._wrap("krein.classify", classify)))
        for name in LINALG:
            original = getattr(np.linalg, name)
            self._patches.append((np.linalg, name, original,
                                  self._wrap_linalg(name, original)))

    def _wrap(self, label, fn, work_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, 0]
            if work_of is not None:
                span[LABEL], span[WORK] = work_of(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def _wrap_linalg(self, name, fn):
        if name == "svd":
            return self._wrap("linalg.svd", fn,
                              lambda a, k: ("linalg.svd", _svd_work(a[0] if a else k["a"])))
        if name == "norm":
            return self._wrap("linalg.norm", fn, _norm_label)
        return self._wrap(f"linalg.{name}", fn)

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def drain(self) -> list[list]:
        """Spans recorded so far; later spans go to a new list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


class LayerTotals:
    """Per-label sums over drained spans.

    For each label: ``calls``, ``incl`` (duration of the spans that have no
    ancestor with the same label, so recursion is not counted twice),
    ``self`` (duration minus the time of direct children from kreinpair
    layers; numpy time stays with the caller) and ``work``.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.work: dict[str, int] = {}

    def add(self, spans: list[list]) -> None:
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[PARENT]
            if parent >= 0 and not span[LABEL].startswith("linalg."):
                child_time[parent] += span[END] - span[START]
        for idx, span in enumerate(spans):
            label = span[LABEL]
            duration = span[END] - span[START]
            self.calls[label] = self.calls.get(label, 0) + 1
            self.self_time[label] = (self.self_time.get(label, 0.0)
                                     + duration - child_time[idx])
            self.work[label] = self.work.get(label, 0) + span[WORK]
            parent = span[PARENT]
            while parent >= 0 and spans[parent][LABEL] != label:
                parent = spans[parent][PARENT]
            if parent < 0:
                self.incl[label] = self.incl.get(label, 0.0) + duration

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))
