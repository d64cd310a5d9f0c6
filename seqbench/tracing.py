"""Span tracing of the seqtomo layers, installed from outside the package.

``Tracer`` wraps every public function and public method of the seven layer
modules, plus ``DensityMatrix.__init__``, and rebinds each wrapper in every
``seqtomo`` namespace that binds the original (``qpt`` and ``cli`` import
names from the modules below them). While installed, each call appends a
span (name, parent span, start, end, op) to an in-memory list; ``uninstall``
puts the originals back. Self time is derived afterwards as a span's
duration minus the time its child spans cover.
"""

import functools
import inspect
import sys
import time
from types import FunctionType

PACKAGE = "seqtomo"
LAYERS = ("core", "pauli", "channels", "seqst", "qpt", "estimation", "cli")

# (span name, what to report per op). Calls and self seconds are per
# completed op of the traced run.
_NAMED_SPANS = [
    ("channels.choi_state", ("calls", "self_s")),
    ("core.DensityMatrix", ("calls", "self_s")),
    ("seqst.seqst_outcome_distribution", ("calls", "self_s")),
    ("seqst.seqst_exact", ("calls", "self_s")),
    ("qpt.seqst_qpt_sample", ("self_s",)),
    ("channels.validate_channel", ("calls", "self_s")),
    ("qpt.dcqd_diagonal", ("calls", "self_s")),
    ("pauli.pauli_basis", ("calls", "self_s")),
    ("seqst.standard_pauli_qst", ("self_s",)),
    ("channels.kraus_to_chi", ("calls", "self_s")),
    ("channels.channel_from_json", ("self_s",)),
    ("qpt.aapt_full_chi", ("self_s",)),
    ("estimation.sample_categorical", ("calls", "self_s")),
    ("estimation.RandomStream.generator", ("calls", "self_s")),
    ("cli.render_report", ("self_s",)),
    ("cli.build_state", ("self_s",)),
    ("cli.build_basis", ("self_s",)),
]
_UNITS = {"calls": ("calls/op", "lower"), "self_s": ("s/op", "lower")}

# Every per-layer metric as (name, unit, better), in report order.
PER_LAYER = (
    [(f"{span}.{kind}", *_UNITS[kind]) for span, kinds in _NAMED_SPANS for kind in kinds]
    + [("pauli.pauli_basis.hit_ratio", "ratio", "higher"), ("estimation.shots", "shots/op", "lower")]
    + [(f"{layer}.self_s", "s/op", "lower") for layer in LAYERS]
    + [("trace.overhead_frac", "ratio", "lower")]
)


def self_times(spans: list, n_names: int) -> tuple:
    """(calls, self seconds) per name id from (name, parent, start, end, op) spans."""
    covered = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = [0] * n_names
    self_s = [0.0] * n_names
    for i, (nid, _, start, end, _) in enumerate(spans):
        calls[nid] += 1
        self_s[nid] += end - start - covered[i]
    return calls, self_s


def _targets():
    """(span name, owner class or None, attribute, original) for each traced callable."""
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for name, raw in vars(obj).items():
                    if name == "__init__" and obj.__name__ == "DensityMatrix":
                        yield f"{layer}.{obj.__name__}", obj, name, raw
                    elif not name.startswith("_") and isinstance(raw, (FunctionType, classmethod, staticmethod)):
                        yield f"{layer}.{obj.__name__}.{name}", obj, name, raw
            elif isinstance(obj, FunctionType) or hasattr(obj, "cache_info"):
                yield f"{layer}.{attr}", None, attr, obj


class Tracer:
    """Span recorder for one benchmark process.

    ``op`` tags the spans of each op; the caller advances it after each op.
    """

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.op = 0
        self.shots = 0  # sum of m over sample_categorical calls
        self.cache_hits: dict = {}  # span name -> calls answered from an lru cache
        self._stack: list = []
        self._patches: list = []  # (namespace or class, attribute, original, replacement)
        modules = [m for k, m in list(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name, owner, attr, raw in _targets():
            if owner is not None:
                self._patches.append((owner, attr, raw, self._wrap_member(name, raw)))
                continue
            wrapped = self._wrap(name, self._counted(name, raw))
            for mod in modules:
                for key, val in vars(mod).items():
                    if val is raw:
                        self._patches.append((mod, key, raw, wrapped))

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """Span name -> (calls, self seconds) over every span recorded."""
        calls, self_s = self_times(self.spans, len(self.names))
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def _counted(self, name: str, fn):
        if name == "estimation.sample_categorical":

            @functools.wraps(fn)
            def count_shots(probs, m, *args, **kwargs):
                self.shots += m
                return fn(probs, m, *args, **kwargs)

            return count_shots
        if hasattr(fn, "cache_info"):

            @functools.wraps(fn)
            def count_hits(*args, **kwargs):
                misses = fn.cache_info().misses
                try:
                    return fn(*args, **kwargs)
                finally:
                    if fn.cache_info().misses == misses:
                        self.cache_hits[name] = self.cache_hits.get(name, 0) + 1

            return count_hits
        return fn

    def _wrap_member(self, name: str, raw):
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._wrap(name, raw.__func__))
        return self._wrap(name, raw)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (nid, parent, start, clock(), self.op)
                stack.pop()

        return traced


def layer_metrics(tracer: Tracer, ops: int, overhead_frac: float) -> dict:
    """Every PER_LAYER metric value; absent spans read as zero."""
    totals = tracer.totals()
    out = {}
    for span, kinds in _NAMED_SPANS:
        calls, self_s = totals.get(span, (0, 0.0))
        for kind in kinds:
            out[f"{span}.{kind}"] = (calls if kind == "calls" else self_s) / ops
    calls = totals.get("pauli.pauli_basis", (0, 0.0))[0]
    out["pauli.pauli_basis.hit_ratio"] = tracer.cache_hits.get("pauli.pauli_basis", 0) / calls if calls else 0.0
    out["estimation.shots"] = tracer.shots / ops
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s for name, (_, s) in totals.items() if name.startswith(layer + ".")) / ops
    out["trace.overhead_frac"] = overhead_frac
    return out
