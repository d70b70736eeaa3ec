"""Spans around the calls into covreg's modules, recorded from outside.

``Tracer.installed()`` wraps every public function of each layer module
(``panels``, ``covariance``, ``regularizers``, ``factors``,
``serialize``, ``harness``, ``cli``) and ``FactorModel.__init__``.
covreg modules bind names with ``from .x import y``, so the wrapper
replaces every module-level binding of a wrapped function in every
covreg module, not only the one in the defining module. The harness's
``ThreadPoolExecutor`` binding is replaced by a subclass that records
the pool's lifetime and one ``harness.trial`` span per submitted task,
whose parent is the span that submitted it. Everything is restored on
exit, so untraced jobs run the program unchanged.

A span is ``[id, parent, job, thread, module, name, start, end, extra]``;
spans stay in memory and the runner writes them out when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("panels", "covariance", "regularizers", "factors", "serialize", "harness", "cli")
BENCH = "bench"  # module name of the job's root span

ID, PARENT, JOB, THREAD, MODULE, NAME, START, END, EXTRA = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1][ID] if stack else None

    def open(self, module: str, name: str, parent=None, extra=None) -> list:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][ID]
        with self._lock:
            span = [self._next_id, parent, self.job, threading.get_ident(),
                    module, name, 0.0, None, extra]
            self._next_id += 1
            self.spans.append(span)
        stack.append(span)
        span[START] = perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)

    def _wrap(self, module: str, name: str, fn, extra=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(module, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __enter__(self):
                self._span = tracer.open("harness", "ThreadPoolExecutor",
                                         extra=self._max_workers)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def trial(*a, **kw):
                    span = tracer.open("harness", "trial", parent=parent)
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer.close(span)

                return super().submit(trial, *args, **kwargs)

        return TracedPool

    @contextmanager
    def installed(self):
        """Wrap covreg's public functions for the duration of the block."""
        layers = {layer: importlib.import_module(f"covreg.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in layers.items():
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[id(fn)] = (fn, self._wrap(layer, name, fn, _EXTRAS.get(name)))
        saved = []
        for mod in [m for n, m in list(sys.modules.items())
                    if n == "covreg" or n.startswith("covreg.")]:
            for name, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((mod, name, value))
                    setattr(mod, name, hit[1])
        factor_model = layers["factors"].FactorModel
        saved.append((factor_model, "__init__", factor_model.__init__))
        factor_model.__init__ = self._wrap("factors", "FactorModel.__init__",
                                           factor_model.__init__)
        harness = layers["harness"]
        if getattr(harness, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
            saved.append((harness, "ThreadPoolExecutor", ThreadPoolExecutor))
            harness.ThreadPoolExecutor = self._pool_class()
        try:
            yield self
        finally:
            for owner, name, value in reversed(saved):
                setattr(owner, name, value)


def _cells(args, result):
    return int(np.size(result.returns))


def _text_len(args, result):
    return len(result) if isinstance(result, str) else None


_EXTRAS = {
    "load_panel": _cells,
    "loads_panel": _cells,
    "spectral_decompose": lambda args, result: args[0] if args else None,
    "matrix_to_csv": _text_len,
    "dumps": _text_len,
}


def fingerprint(obj) -> str:
    """Content digest of a matrix argument (its ``.c`` array if it has one)."""
    arr = np.ascontiguousarray(getattr(obj, "c", obj), dtype=float)
    return hashlib.blake2b(arr.tobytes(), digest_size=16).hexdigest()


# ---------------------------------------------------------------- analysis


def self_times(spans: list[list]) -> dict:
    """Wall time each span spent as an innermost running span.

    A span with no child running is a leaf. Each instant is split equally
    among the leaves running at that instant (several only while pool
    threads overlap), so the self times of a job's spans add up exactly
    to the duration of its root span. On a single thread this is the
    span's duration minus the time its children cover.
    """
    depth = {}
    by_id = {s[ID]: s for s in spans}

    def depth_of(s):
        if s[ID] not in depth:
            p = by_id.get(s[PARENT])
            depth[s[ID]] = 0 if p is None else depth_of(p) + 1
        return depth[s[ID]]

    events = []
    for s in spans:
        d = depth_of(s)
        events.append((s[START], 1, d, s))
        events.append((s[END], 0, -d, s))
    events.sort(key=lambda e: e[:3])
    open_children = defaultdict(int)
    running = set()
    leaves = set()
    out = defaultdict(float)
    last = None
    for t, kind, _, s in events:
        if last is not None and leaves and t > last:
            share = (t - last) / len(leaves)
            for sid in leaves:
                out[sid] += share
        last = t
        sid, parent = s[ID], s[PARENT]
        if kind == 1:
            running.add(sid)
            if open_children[sid] == 0:
                leaves.add(sid)
            if parent in running:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            running.discard(sid)
            leaves.discard(sid)
            if parent in running:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return out


def _outermost(spans, by_id, module, names=None):
    """Spans of module (and names) with no ancestor in the same group."""
    def member(s):
        return s[MODULE] == module and (names is None or s[NAME] in names)

    picked = []
    for s in spans:
        if not member(s):
            continue
        p = by_id.get(s[PARENT])
        while p is not None and not member(p):
            p = by_id.get(p[PARENT])
        if p is None:
            picked.append(s)
    return picked


def _dur(spans) -> float:
    return sum(s[END] - s[START] for s in spans)


def job_totals(spans: list[list]) -> dict:
    """Per-layer totals for the spans of one job (one root span)."""
    by_id = {s[ID]: s for s in spans}
    selfs = self_times(spans)
    tot = defaultdict(float)
    for s in spans:
        tot[f"self.{s[MODULE]}"] += selfs[s[ID]]
    root = [s for s in spans if s[MODULE] == BENCH]
    tot["job_s"] = _dur(root)

    def group(module, names=None):
        return _outermost(spans, by_id, module, names)

    loads = group("panels", {"load_panel", "loads_panel"})
    tot["load_s"] = _dur(loads)
    tot["load_calls"] = len(loads)
    tot["load_cells"] = sum(s[EXTRA] or 0 for s in loads)
    tot["demean_s"] = _dur(group("panels", {"demean"}))
    tot["scm_s"] = _dur(group("covariance", {"sample_covariance"}))
    spectral = group("covariance", {"spectral_decompose"})
    tot["spectral_s"] = _dur(spectral)
    tot["spectral_calls"] = len(spectral)
    tot["spectral_distinct"] = len({fingerprint(s[EXTRA]) for s in spectral
                                    if s[EXTRA] is not None})
    tot["target_s"] = _dur(group("regularizers", {
        "diagonal_target", "constant_correlation_target", "estimate_rho"}))
    tot["shrink_s"] = _dur(group("regularizers", {"shrink_dense", "shrink_as_factor_model"}))
    tot["truncate_s"] = _dur(group("regularizers", {"truncated_pc_model"}))
    inits = group("factors", {"FactorModel.__init__"})
    tot["model_init_s"] = _dur(inits)
    tot["model_inits"] = len(inits)
    tot["dense_s"] = _dur(group("factors", {"dense"}))
    tot["weights_s"] = _dur(group("factors", {"min_variance_weights", "invert"}))
    writes = group("serialize")
    tot["write_s"] = _dur(writes)
    tot["bytes_out"] = sum(s[EXTRA] or 0 for s in writes)
    trials = group("harness", {"trial"})
    tot["trials"] = len(trials)
    tot["trial_s"] = _dur(trials)
    tot["bai_yin_s"] = _dur(group("harness", {"bai_yin_check"}))
    pools = group("harness", {"ThreadPoolExecutor"})
    tot["pool_capacity_s"] = sum((s[END] - s[START]) * s[EXTRA] for s in pools)
    tot["cli_commands"] = len(group("cli", {"main"}))
    for s in spectral:  # drop the references to the decomposed matrices
        s[EXTRA] = None
    return dict(tot)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: list[dict]) -> dict:
    """Per-job means of the per-layer totals, and ratios of their sums.

    The module self times plus ``other.self_s`` add up to
    ``traced.job_s_mean``.
    """
    n = len(totals)
    s = defaultdict(float)
    for t in totals:
        for key, value in t.items():
            s[key] += value

    def mean(key):
        return s[key] / n

    out = {
        "panels.load_s": (mean("load_s"), "s"),
        "panels.load_calls": (mean("load_calls"), "count"),
        "panels.mcells_per_s": (_ratio(s["load_cells"] / 1e6, s["load_s"]), "Mcell/s"),
        "panels.demean_s": (mean("demean_s"), "s"),
        "covariance.scm_s": (mean("scm_s"), "s"),
        "covariance.spectral_s": (mean("spectral_s"), "s"),
        "covariance.spectral_calls": (mean("spectral_calls"), "count"),
        "covariance.spectral_useful_ratio": (
            _ratio(s["spectral_distinct"], s["spectral_calls"]), "ratio"),
        "regularizers.target_s": (mean("target_s"), "s"),
        "regularizers.shrink_s": (mean("shrink_s"), "s"),
        "regularizers.truncate_s": (mean("truncate_s"), "s"),
        "factors.model_init_s": (mean("model_init_s"), "s"),
        "factors.model_inits": (mean("model_inits"), "count"),
        "factors.dense_s": (mean("dense_s"), "s"),
        "factors.weights_s": (mean("weights_s"), "s"),
        "serialize.write_s": (mean("write_s"), "s"),
        "serialize.bytes_out": (mean("bytes_out"), "B"),
        "harness.trials_per_s": (_ratio(s["trials"], s["bai_yin_s"]), "1/s"),
        "harness.pool_busy_ratio": (_ratio(s["trial_s"], s["pool_capacity_s"]), "ratio"),
        "cli.commands": (mean("cli_commands"), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (mean(f"self.{layer}"), "s")
    out["other.self_s"] = (mean(f"self.{BENCH}"), "s")
    out["traced.job_s_mean"] = (mean("job_s"), "s")
    return out
