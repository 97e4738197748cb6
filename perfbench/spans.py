"""Span tracing of the library's public functions, from outside the library.

``Shims`` wraps every public function of the seven ``mhspectral`` modules and
installs the wrapper in every module namespace that binds the function: the
defining module, the package and each module that imported it with
``from ... import``.  Patching only the defining module would miss those.

``Tracer`` keeps one span per wrapped call in memory (name, start, end,
parent span, item id) and writes them out at the end and computes self time as a span's duration minus the
time its child spans cover.  ``Tracer.step`` opens the root span of one
benchmark step, so time spent in the benchmark itself is attributed to
``bench``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("cones", "metrics", "maps", "homogeneity", "graphs", "solver", "cli")


def _matrix_key(A, *args, **kwargs) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(A, dtype=float).tobytes(), digest_size=8).digest()


# argument keys recorded per call, to count distinct inputs
KEYS = {"homogeneity.spectral_radius": _matrix_key}


def _numpy(col: array) -> np.ndarray:
    # a copy, so the array is not left exporting its buffer (which blocks appends)
    return np.frombuffer(col, dtype=np.int32 if col.typecode == "i" else np.float64).copy()


class Tracer:
    """Spans in memory as columns: name id, start, end, parent index, item id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid, self.parent, self.item_of = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.keys: list = []  # (item id, name id, key)
        self._stack: list[int] = []
        self.active = False
        self.item = -1

    def __len__(self):
        return len(self.nid)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item_of.append(self.item)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float):
        self.end[idx] = time.perf_counter()
        self.start[idx] = t0
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid, key = self.name_id(name), KEYS.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if key is not None:
                self.keys.append((self.item, nid, key(*args, **kwargs)))
            idx = self._open(nid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0)

        return shim

    @contextlib.contextmanager
    def step(self, name: str):
        """Root span of one benchmark step; a no-op while tracing is off."""
        if not self.active:
            yield
            return
        idx = self._open(self.name_id(f"bench.{name}"))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0)

    def clear(self):
        for col in (self.nid, self.parent, self.item_of, self.start, self.end):
            del col[:]
        self.keys.clear()

    def columns(self):
        """(name id, parent, duration, self time) as numpy arrays."""
        nid, parent, start, end = (_numpy(c) for c in (self.nid, self.parent, self.start, self.end))
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return nid, parent, dur, dur - child

    def summarize(self) -> dict:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        nid, _, dur, own = self.columns()
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        selfs = np.bincount(nid, weights=own, minlength=k)
        return {name: [int(calls[i]), float(incl[i]), float(selfs[i])] for i, name in enumerate(self.names)}

    def self_under(self, root: str, exclude_prefix: str) -> float:
        """Self time of spans inside ``root`` spans, except those named ``exclude_prefix``*."""
        nid, parent, _, own = self.columns()
        if root not in self._ids:
            return 0.0
        inside = nid == self._ids[root]
        has = parent >= 0
        while True:  # propagate down the (shallow) call tree
            grown = inside.copy()
            grown[has] |= inside[parent[has]]
            if np.array_equal(grown, inside):
                break
            inside = grown
        excluded = np.array([n.startswith(exclude_prefix) for n in self.names], dtype=bool)
        return float(own[inside & ~excluded[nid]].sum())

    def write(self, path):
        """Dump every span to a compressed numpy archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name=_numpy(self.nid), start=_numpy(self.start),
            end=_numpy(self.end), parent=_numpy(self.parent), item=_numpy(self.item_of),
        )


class Shims:
    """Installs ``Tracer`` wrappers on every namespace binding a public function."""

    def __init__(self, tracer: Tracer, package):
        self.tracer = tracer
        self.modules = {m: getattr(package, m) for m in MODULES}
        self.namespaces = [package, *self.modules.values()]
        self.originals = {}  # id -> (function, traced name)
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    self.originals[id(obj)] = (obj, f"{short}.{attr}")
        self._patched = []

    def original(self, name: str):
        return next(fn for fn, traced in self.originals.values() if traced == name)

    def install(self):
        wrappers = {i: self.tracer.wrap(name, fn) for i, (fn, name) in self.originals.items()}
        for ns in self.namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])
                    self._patched.append((ns, attr, obj))

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def misses(self) -> list[str]:
        """Names in any library namespace still bound to an unwrapped public function."""
        return [
            f"{ns.__name__}.{attr}"
            for ns in self.namespaces
            for attr, obj in vars(ns).items()
            if id(obj) in self.originals
        ]


def coverage_check(shims: Shims, cli) -> list[str]:
    """Problems with shim coverage; empty when every call is seen.

    Besides the namespace scan, one ``motivating`` ``run_solve`` is traced
    while a profiler hook counts calls into the original ``maps.evaluate``
    code object, a count taken independently of the shims.
    """
    problems = [f"unshimmed binding {name}" for name in shims.misses()]
    tracer = shims.tracer
    target = shims.original("maps.evaluate").__code__
    seen = 0

    def hook(frame, event, arg):
        nonlocal seen
        if event == "call" and frame.f_code is target:
            seen += 1

    tracer.clear()
    tracer.active, tracer.item = True, -2
    sys.setprofile(hook)
    try:
        cli.run_solve({"map": {"family": "motivating"}})
    finally:
        sys.setprofile(None)
        tracer.active = False
    stats = tracer.summarize()
    tracer.clear()
    traced = stats.get("maps.evaluate", [0])[0]
    if traced != seen:
        problems.append(f"traced maps.evaluate_calls={traced} but the profiler counted {seen}")
    if stats.get("homogeneity.spectral_radius", [0])[0] == 0:
        problems.append("homogeneity.spectral_radius_calls is zero on a motivating run_solve")
    return problems
