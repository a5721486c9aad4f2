"""``repro.api`` -- the supported programmatic surface for sweeps.

Every paper table and figure is a sweep of independent cells: the
detection grids of Section 6, the Table-1 wild tests and the T_diff
replay pairs.  This module runs all of them behind one request/result
pair::

    from repro.api import SweepRequest, run_sweep

    result = run_sweep(SweepRequest.detection(configs, jobs=4))
    records = result.results          # one record per config, in order
    result.hits, result.misses        # cache accounting (0 hits without a store)

    result = run_sweep(
        SweepRequest.wild(store=store, metrics="metrics.jsonl")
    )
    result.metrics                    # repro.obs snapshot (also written as JSONL)

Common options on every request:

- ``jobs``: worker processes (``None`` = all cores, ``1`` = serial);
- ``store`` / ``no_cache``: an :class:`repro.store.ExperimentStore`
  for resumable, checkpointed sweeps;
- ``on_result(index, item, result)``: streaming callback, fired for
  every *freshly computed* cell in completion order with the cell's
  original index, exactly once per cell.  A raising callback is logged
  and skipped, never fatal;
- ``metrics``: ``True`` collects a :mod:`repro.obs` snapshot onto the
  result; a path string additionally exports it as JSONL.  Collection
  never changes any sweep result byte;
- ``cell_timeout`` / ``max_cell_retries`` / ``strict``: process-level
  supervision (see :mod:`repro.parallel.supervisor`).  A parallel cell
  that outlives ``cell_timeout`` seconds has its worker killed and is
  retried; worker deaths and transient exceptions likewise cost one of
  ``max_cell_retries`` attempts.  A cell that exhausts its budget is
  *quarantined*: the sweep completes, the cell's slot in ``results``
  holds a :class:`repro.parallel.CellFailure`, and
  ``SweepResult.failures`` lists it -- unless ``strict=True``, which
  aborts the sweep on the first quarantine instead.  ``SIGINT`` /
  ``SIGTERM`` drain gracefully: in-flight cells finish, checkpoints
  flush, and the partial ``SweepResult`` comes back with
  ``interrupted=True``.
"""

from dataclasses import dataclass, field

from repro.obs import MetricsSink, use_sink, write_jsonl
from repro.obs import metrics as _obs
from repro.parallel.supervisor import DEFAULT_MAX_CELL_RETRIES

_KINDS = ("detection", "wild", "tdiff")


@dataclass(frozen=True)
class SweepRequest:
    """One sweep to run: a kind, its parameters, and execution options.

    Build requests with the :meth:`detection` / :meth:`wild` /
    :meth:`tdiff` constructors rather than directly -- they enforce
    per-kind parameter validity (e.g. ``fault_profile`` exists only for
    detection sweeps).
    """

    kind: str
    params: dict = field(default_factory=dict)
    jobs: object = None
    store: object = None
    no_cache: bool = False
    on_result: object = None
    metrics: object = None
    cell_timeout: object = None
    max_cell_retries: int = DEFAULT_MAX_CELL_RETRIES
    strict: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown sweep kind {self.kind!r}; expected one of {_KINDS}"
            )
        if self.on_result is not None and not callable(self.on_result):
            raise TypeError("on_result must be callable")
        if self.cell_timeout is not None and not self.cell_timeout > 0:
            raise ValueError("cell_timeout must be positive (or None)")
        if self.max_cell_retries < 0:
            raise ValueError("max_cell_retries must be >= 0")

    @classmethod
    def detection(
        cls,
        configs,
        *,
        detectors=None,
        modified=True,
        entropy=0,
        merge_flows=False,
        fault_profile=None,
        fidelity=None,
        shaper=None,
        shaper_params=None,
        multipath=None,
        flowlet_gap_s=None,
        jobs=None,
        store=None,
        no_cache=False,
        on_result=None,
        metrics=None,
        cell_timeout=None,
        max_cell_retries=DEFAULT_MAX_CELL_RETRIES,
        strict=False,
    ):
        """A Section-6 FN/FP sweep: one cell per :class:`ScenarioConfig`.

        Results are
        :class:`~repro.experiments.runner.DetectionExperimentRecord`
        objects in config order.  ``fault_profile`` injects per-cell
        failures seeded from each cell's own ``config.seed``.
        ``fidelity`` (``"packet"``/``"hybrid"``), when given, overrides
        every config's own fidelity field -- the sweep-wide knob behind
        ``repro sweep --fidelity``.  ``shaper`` / ``shaper_params``
        likewise override the mechanism axis on every config (the knob
        behind ``repro sweep --shaper``), and ``multipath`` /
        ``flowlet_gap_s`` the ECMP axis (``repro sweep --multipath``).
        """
        configs = list(configs)
        if fidelity is not None:
            configs = [config.with_(fidelity=fidelity) for config in configs]
        if shaper is not None:
            overrides = {"shaper": shaper}
            if shaper_params is not None:
                overrides["shaper_params"] = tuple(shaper_params)
            configs = [config.with_(**overrides) for config in configs]
        elif shaper_params is not None:
            raise ValueError("shaper_params requires a shaper")
        if multipath is not None:
            overrides = {"multipath": int(multipath)}
            if flowlet_gap_s is not None:
                overrides["flowlet_gap_s"] = float(flowlet_gap_s)
            configs = [config.with_(**overrides) for config in configs]
        elif flowlet_gap_s is not None:
            raise ValueError("flowlet_gap_s requires multipath")
        return cls(
            kind="detection",
            params={
                "configs": configs,
                "detectors": detectors,
                "modified": modified,
                "entropy": entropy,
                "merge_flows": merge_flows,
                "fault_profile": fault_profile,
            },
            jobs=jobs,
            store=store,
            no_cache=no_cache,
            on_result=on_result,
            metrics=metrics,
            cell_timeout=cell_timeout,
            max_cell_retries=max_cell_retries,
            strict=strict,
        )

    @classmethod
    def wild(
        cls,
        isp_names=None,
        *,
        apps=("netflix",),
        seeds=range(3),
        sanity_check=False,
        fidelity="packet",
        jobs=None,
        store=None,
        no_cache=False,
        on_result=None,
        metrics=None,
        cell_timeout=None,
        max_cell_retries=DEFAULT_MAX_CELL_RETRIES,
        strict=False,
    ):
        """A Section-5 wild-ISP sweep over ISPs x apps x seeds.

        ``isp_names=None`` means every Table-1 ISP.  Results are
        per-cell summary dicts in grid order (isp-major).
        """
        return cls(
            kind="wild",
            params={
                "isp_names": None if isp_names is None else list(isp_names),
                "apps": tuple(apps),
                "seeds": list(seeds),
                "sanity_check": sanity_check,
                "fidelity": fidelity,
            },
            jobs=jobs,
            store=store,
            no_cache=no_cache,
            on_result=on_result,
            metrics=metrics,
            cell_timeout=cell_timeout,
            max_cell_retries=max_cell_retries,
            strict=strict,
        )

    @classmethod
    def tdiff(
        cls,
        n_pairs=25,
        *,
        app="netflix",
        duration=15.0,
        base_seed=5000,
        fidelity="packet",
        jobs=1,
        store=None,
        no_cache=False,
        on_result=None,
        metrics=None,
        cell_timeout=None,
        max_cell_retries=DEFAULT_MAX_CELL_RETRIES,
        strict=False,
    ):
        """A T_diff estimation sweep (back-to-back replay pairs).

        Results are a float ndarray of ``n_pairs`` t_diff samples (a
        plain list when cells were quarantined or the sweep drained).
        """
        return cls(
            kind="tdiff",
            params={
                "n_pairs": int(n_pairs),
                "app": app,
                "duration": duration,
                "base_seed": base_seed,
                "fidelity": fidelity,
            },
            jobs=jobs,
            store=store,
            no_cache=no_cache,
            on_result=on_result,
            metrics=metrics,
            cell_timeout=cell_timeout,
            max_cell_retries=max_cell_retries,
            strict=strict,
        )


@dataclass(frozen=True)
class SweepResult:
    """What :func:`run_sweep` returns.

    ``results`` has exactly the shape the corresponding legacy entry
    point returned (records list, summary-dict list, or ndarray).
    ``hits``/``misses`` count cache activity (``hits == 0`` when no
    store was used); ``metrics`` is a :mod:`repro.obs` snapshot dict
    when the request asked for one, else ``None``.

    ``failures`` holds one :class:`repro.parallel.CellFailure` per
    quarantined cell (each also sits inline at its position in
    ``results``); ``interrupted`` is True when a drain signal ended the
    sweep early, in which case never-computed cells are ``None`` in
    ``results``.  ``ok`` is the one-glance health check.
    """

    kind: str
    results: object
    cells: int
    hits: int
    misses: int
    metrics: object = None
    failures: tuple = ()
    interrupted: bool = False

    @property
    def ok(self):
        """True when the sweep completed with no quarantined cells."""
        return not self.failures and not self.interrupted

    def __len__(self):
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


def _run_detection(request):
    from repro.parallel.executor import _detection_sweep

    return _detection_sweep(
        request.params["configs"],
        detectors=request.params["detectors"],
        modified=request.params["modified"],
        entropy=request.params["entropy"],
        merge_flows=request.params["merge_flows"],
        fault_profile=request.params["fault_profile"],
        jobs=request.jobs,
        store=request.store,
        no_cache=request.no_cache,
        on_result=request.on_result,
        cell_timeout=request.cell_timeout,
        max_cell_retries=request.max_cell_retries,
        strict=request.strict,
    )


def _run_wild(request):
    from repro.experiments.wild import WILD_ISPS
    from repro.parallel.executor import _wild_sweep

    isp_names = request.params["isp_names"]
    if isp_names is None:
        isp_names = list(WILD_ISPS)
    return _wild_sweep(
        isp_names,
        request.params["apps"],
        request.params["seeds"],
        sanity_check=request.params["sanity_check"],
        fidelity=request.params.get("fidelity", "packet"),
        jobs=request.jobs,
        store=request.store,
        no_cache=request.no_cache,
        on_result=request.on_result,
        cell_timeout=request.cell_timeout,
        max_cell_retries=request.max_cell_retries,
        strict=request.strict,
    )


def _run_tdiff(request):
    from repro.experiments.tdiff import _tdiff_sweep

    return _tdiff_sweep(
        n_pairs=request.params["n_pairs"],
        app=request.params["app"],
        duration=request.params["duration"],
        base_seed=request.params["base_seed"],
        fidelity=request.params.get("fidelity", "packet"),
        jobs=request.jobs if request.jobs is not None else 1,
        store=request.store,
        no_cache=request.no_cache,
        on_result=request.on_result,
        cell_timeout=request.cell_timeout,
        max_cell_retries=request.max_cell_retries,
        strict=request.strict,
    )


_DISPATCH = {
    "detection": _run_detection,
    "wild": _run_wild,
    "tdiff": _run_tdiff,
}


def run_sweep(request):
    """Run one :class:`SweepRequest`; returns a :class:`SweepResult`.

    When the request asks for metrics, the whole sweep runs under a
    fresh :class:`repro.obs.MetricsSink` (worker-process deltas are
    merged in by the executor), the snapshot lands on
    ``SweepResult.metrics``, and -- if ``metrics`` is a path string --
    is also written there as JSONL.  If an outer sink was already
    active, the sweep's snapshot is folded into it too, so nested
    collection composes.  Metrics never alter sweep results.
    """
    impl = _DISPATCH[request.kind]
    collect = request.metrics is not None and request.metrics is not False
    if not collect:
        results, hits, misses, failures, interrupted = impl(request)
        snapshot = None
    else:
        outer = _obs.SINK if _obs.ENABLED else None
        with use_sink(MetricsSink()) as sink:
            results, hits, misses, failures, interrupted = impl(request)
            snapshot = sink.snapshot()
        if isinstance(request.metrics, str) and request.metrics:
            write_jsonl(snapshot, request.metrics)
        if outer is not None:
            outer.merge(snapshot)
    return SweepResult(
        kind=request.kind,
        results=results,
        cells=hits + misses,
        hits=hits,
        misses=misses,
        metrics=snapshot,
        failures=tuple(failures),
        interrupted=interrupted,
    )


__all__ = ["SweepRequest", "SweepResult", "run_sweep"]
