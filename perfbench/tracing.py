"""Benchmark-side tracing: spans around layer entry points, per-layer
profile attribution, and the ``repro.obs`` counters.

Nothing here edits the program.  Spans come from wrappers that the
benchmark installs around public entry points and removes afterwards;
per-layer self time and call counts come from stdlib ``cProfile``,
grouped by the module a function lives in; counters come from a
``repro.obs`` sink installed with ``use_sink``.
"""

import cProfile
import functools
import importlib
import json
import os
import pstats
import threading
import time

#: Layer name -> module prefixes (dotted) whose functions it owns.
#: C functions (``heapq``, ``list.append``, numpy ufuncs...) have no
#: module of their own; they are charged to the layer of their caller,
#: which puts the engine's ``heappush``/``heappop`` in ``netsim.engine``.
LAYERS = {
    "netsim.engine": ("repro.netsim.engine",),
    "netsim.link": (
        "repro.netsim.link",
        "repro.netsim.path",
        "repro.netsim.packet",
        "repro.netsim.multipath",
    ),
    "netsim.qdisc": (
        "repro.netsim.queues",
        "repro.netsim.token_bucket",
        "repro.netsim.per_flow",
        "repro.netsim.shapers",
        "repro.netsim.qdisc",
    ),
    "netsim.transport": ("repro.netsim.tcp", "repro.netsim.udp", "repro.netsim.bbr"),
    "netsim.background": ("repro.netsim.background",),
    "netsim.fluid": ("repro.netsim.fluid",),
    "wehe": ("repro.wehe",),
    "core_stats": ("repro.core", "repro.stats"),
    "mlab_inet": ("repro.mlab", "repro.inet"),
    "parallel": ("repro.parallel",),
    "store": ("repro.store",),
    "service": ("repro.service",),
}

#: Counters that must repeat exactly between two traced runs of one
#: seed (``service.calls`` is absent: the server's tick loop runs on
#: the wall clock, so its call count follows how long the run took).
DETERMINISTIC = tuple(
    [f"{layer}.calls" for layer in LAYERS if layer != "service"]
    + [
        "netsim.events",
        "netsim.heap_ops",
        "netsim.qdisc.drops",
        "netsim.qdisc.deferrals",
        "netsim.transport.retransmits",
        "netsim.fluid.rate_segments",
        "store.hits",
        "store.misses",
        "store.checkpoints",
    ]
)

_HEAP_FUNCS = ("heappush", "heappop", "heapreplace", "heappushpop")


def _module_of(filename, src_root):
    """Dotted module name of a source file under ``src_root`` (or None)."""
    if not filename.startswith(src_root):
        return None
    rel = filename[len(src_root):].lstrip(os.sep)
    if not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _layer_of(module):
    if module is None:
        return None
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return None


def layer_profile(stats, src_root):
    """``{<layer>.self_s, <layer>.calls, netsim.heap_ops}`` from a
    :class:`pstats.Stats`.

    A Python function's self time and call count go to the layer owning
    its module.  A C function's go to its callers' layers, split by the
    per-caller figures cProfile keeps.  ``netsim.heap_ops`` counts only
    the simulator's heap operations (asyncio's timer heap runs on the
    wall clock).
    """
    src_root = os.path.abspath(src_root)
    out = {f"{layer}.{kind}": 0 for layer in LAYERS for kind in ("self_s", "calls")}
    heap_ops = 0
    layer_cache = {}

    def layer_for(func):
        if func not in layer_cache:
            layer_cache[func] = _layer_of(_module_of(func[0], src_root))
        return layer_cache[func]

    for func, (_cc, ncalls, tottime, _ct, callers) in stats.stats.items():
        filename, _line, name = func
        if filename == "~":  # C function: charge its callers' layers
            heap = any(op in name for op in _HEAP_FUNCS)
            for caller, figures in callers.items():
                layer = layer_for(caller)
                if layer is not None:
                    out[f"{layer}.calls"] += figures[1]
                    out[f"{layer}.self_s"] += figures[2]
                    if heap and layer.startswith("netsim."):
                        heap_ops += figures[1]
            continue
        layer = layer_for(func)
        if layer is not None:
            out[f"{layer}.calls"] += ncalls
            out[f"{layer}.self_s"] += tottime
    out["netsim.heap_ops"] = heap_ops
    return out


def merged_stats(profiles):
    """One :class:`pstats.Stats` over several disabled profilers."""
    stats = pstats.Stats(profiles[0])
    for profile in profiles[1:]:
        stats.add(profile)
    return stats


#: Span name -> (module, attribute path) of the entry point it wraps.
#: Each is a public function or method of the layer it times.
SPAN_TARGETS = (
    ("wehe.replay_s", "repro.experiments.runner", "NetsimReplayService.single_replay"),
    ("wehe.replay_s", "repro.experiments.runner", "NetsimReplayService.simultaneous_replay"),
    ("experiments.env_build_s", "repro.netsim.topology", "FigureOneTopology.__init__"),
    ("core.detect_s", "repro.core.loss_correlation", "LossTrendCorrelation.detect"),
    ("core.detect_s", "repro.core.throughput_comparison", "ThroughputComparison.detect"),
    ("mlab.lookup_s", "repro.mlab.topology_construction", "TopologyDatabase.lookup"),
    ("mlab.traceroute_s", "repro.mlab.traceroute", "run_traceroute"),
    ("store.get_s", "repro.store.store", "ExperimentStore.get"),
    ("store.put_s", "repro.store.store", "ExperimentStore.put"),
    ("netsim.run_s", "repro.netsim.engine", "Simulator.run"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _m, _a in SPAN_TARGETS))


class Tracer:
    """In-memory spans plus the replayed-seconds meter.

    ``install`` wraps every :data:`SPAN_TARGETS` entry (``spans=True``)
    or only the two replay entry points (``spans=False``: the untraced
    passes still count simulated replay seconds, one call per replay).
    ``uninstall`` restores the originals.  A span nested in a span of
    the same name (``__contains__`` calling ``get``) is not recorded
    twice; nesting is tracked per thread, since the service runs
    batches in worker threads.
    """

    def __init__(self):
        self.spans = []  # (name, start_s, end_s, thread id)
        self.replay_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    def install(self, spans=True):
        for name, module_name, path in SPAN_TARGETS:
            if not spans and name != "wehe.replay_s":
                continue
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(name, original, spans))
            self._undo.append((owner, attr, original))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, original, record):
        tracer = self
        replay = name == "wehe.replay_s"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if replay:
                with tracer._lock:
                    tracer.replay_s += float(args[0].config.duration)
            if not record:
                return original(*args, **kwargs)
            active = tracer._local.__dict__.setdefault("active", [])
            if name in active:
                return original(*args, **kwargs)
            active.append(name)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active.remove(name)
                tracer.spans.append((name, start, end, threading.get_native_id()))

        return wrapper

    def totals(self):
        """Summed seconds per span name (every name present)."""
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, _thread in self.spans:
            out[name] += end - start
        return out

    def write_chrome_trace(self, path):
        """Write the spans as Chrome trace-event JSON (Perfetto-viewable)."""
        if not self.spans:
            return
        origin = min(start for _n, start, _e, _t in self.spans)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": os.getpid(),
                "tid": thread,
            }
            for name, start, end, thread in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


def obs_counters(snapshot):
    """The benchmark's counter rows from a ``repro.obs`` snapshot."""
    counters = snapshot.get("counters", {})

    def get(*names):
        return sum(counters.get(name, 0) for name in names)

    return {
        "netsim.events": get("netsim.engine.events"),
        "netsim.qdisc.drops": get("netsim.tbf.drops", "netsim.queue.drops"),
        "netsim.qdisc.deferrals": get("netsim.tbf.deferrals"),
        "netsim.transport.retransmits": get("netsim.tcp.retransmits"),
        "netsim.fluid.rate_segments": get("netsim.fluid.rate_segments"),
        "store.hits": get("store.hits"),
        "store.misses": get("store.misses"),
        "store.checkpoints": get("store.checkpoints"),
        "parallel.cell_retries": get("parallel.cell_retries"),
        "service.batches": get("service.batches"),
    }


def profiled(fn, src_root):
    """Run ``fn()`` under cProfile and an obs sink.

    Returns ``(value, wall_s, layer_rows, counters)``.
    """
    from repro.obs import MetricsSink, use_sink

    profile = cProfile.Profile()
    with use_sink(MetricsSink()) as sink:
        start = time.perf_counter()
        profile.enable()
        try:
            value = fn()
        finally:
            profile.disable()
        wall = time.perf_counter() - start
        snapshot = sink.snapshot()
    rows = layer_profile(pstats.Stats(profile), src_root)
    return value, wall, rows, obs_counters(snapshot)
