"""Span tracer that wraps module functions from the outside.

`Tracer.install` replaces each chosen function with a timing wrapper in
every module namespace that holds it (so names bound by `from x import f`
are covered too) and `Tracer.restore` puts the originals back. The
wrappers keep, per thread:

* a stack of open frames, so self time (duration minus the time of child
  calls on the same thread) is exact and never negative;
* per-key statistics: calls, busy time of outermost calls, self time;
* per-layer statistics (a layer is a group of keys, one module): calls and
  busy time of the outermost call into the layer;
* exact counters computed from call arguments and results;
* span records (name, start, end, parent span, thread, point id) for keys
  not marked hot. Hot keys, such as the scalar LP3 cdf called ~10^5 times
  per threshold search, are timed and counted but not recorded one by one.

Everything stays in memory until `snapshot` is called at the end of a run.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time


class _ThreadState:
    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: list[list] = []      # frames: [child_time, span_id]
        self.key_depth: dict[str, int] = {}
        self.layer_depth: dict[str, int] = {}
        self.keys: dict[str, list] = {}    # key -> [calls, busy, self]
        self.layers: dict[str, list] = {}  # layer -> [calls, busy]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.point = 0


class Tracer:
    """Collects spans, self times and counters from wrapped functions."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._span_ids = itertools.count(1)
        self._point_ids = itertools.count(1)
        self._saved: list[tuple] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.st = st
        return st

    def wrap(self, fn, key: str, layer: str, *, hot: bool = False,
             count=None, new_point: bool = False):
        """Timing wrapper for fn.

        count(args, kwargs, result) -> {counter: increment} runs after a
        successful call. new_point gives the call and everything under it
        on the same thread a fresh point id.
        """
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            kd = st.key_depth.get(key, 0)
            ld = st.layer_depth.get(layer, 0)
            st.key_depth[key] = kd + 1
            st.layer_depth[layer] = ld + 1
            parent = st.stack[-1] if st.stack else None
            span_id = 0 if hot else next(tracer._span_ids)
            prev_point = st.point
            if new_point:
                st.point = next(tracer._point_ids)
            frame = [0.0, span_id]
            st.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                st.stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                st.key_depth[key] = kd
                st.layer_depth[layer] = ld
                ks = st.keys.get(key)
                if ks is None:
                    ks = st.keys[key] = [0, 0.0, 0.0]
                ks[0] += 1
                ks[2] += dur - frame[0]
                if kd == 0:
                    ks[1] += dur
                if ld == 0:
                    ls = st.layers.get(layer)
                    if ls is None:
                        ls = st.layers[layer] = [0, 0.0]
                    ls[0] += 1
                    ls[1] += dur
                if not hot:
                    st.spans.append((key, t0, t1,
                                     parent[1] if parent else 0,
                                     st.index, st.point, span_id))
                st.point = prev_point
            if count is not None:
                for name, inc in count(args, kwargs, result).items():
                    st.counts[name] = st.counts.get(name, 0) + inc
            return result

        return wrapper

    def install(self, module, attr: str, namespaces, key: str, layer: str,
                **options) -> None:
        """Wrap module.attr and rebind every alias of it in namespaces."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, key, layer, **options)
        for ns in namespaces:
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._saved.append((ns, name, original))
                    setattr(ns, name, wrapper)

    def restore(self) -> None:
        """Put every wrapped function back where it was found."""
        while self._saved:
            ns, name, original = self._saved.pop()
            setattr(ns, name, original)

    def snapshot(self) -> dict:
        """Merged statistics of all threads, plus every recorded span."""
        keys: dict[str, list] = {}
        layers: dict[str, list] = {}
        counts: dict[str, float] = {}
        spans: list[tuple] = []
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for k, (c, b, s) in st.keys.items():
                acc = keys.setdefault(k, [0, 0.0, 0.0])
                acc[0] += c
                acc[1] += b
                acc[2] += s
            for k, (c, b) in st.layers.items():
                acc = layers.setdefault(k, [0, 0.0])
                acc[0] += c
                acc[1] += b
            for k, v in st.counts.items():
                counts[k] = counts.get(k, 0) + v
            spans.extend(st.spans)
        spans.sort(key=lambda s: (s[1], s[6]))
        return {
            "keys": {k: {"calls": c, "busy_s": b, "self_s": s}
                     for k, (c, b, s) in sorted(keys.items())},
            "layers": {k: {"calls": c, "busy_s": b}
                       for k, (c, b) in sorted(layers.items())},
            "counts": dict(sorted(counts.items())),
            "spans": [dict(name=n, start=t0, end=t1, parent=p, thread=th,
                           point=pt, id=i)
                      for n, t0, t1, p, th, pt, i in spans],
        }
