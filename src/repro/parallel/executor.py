"""The supervised process-pool sweep executor.

Determinism argument: a sweep cell is a pure function of its config --
``run_detection_experiment`` derives every random stream from
``np.random.SeedSequence([config.seed, entropy])`` and the fault
injector (when present) is seeded from ``config.seed`` alone.  Workers
share no mutable state (each process rebuilds its own simulators), and
``SweepExecutor.map`` preserves input order, so ``jobs=N`` produces the
same result list as ``jobs=1`` for every N -- *including* after worker
deaths, watchdog kills, and pool restarts, because a retried cell
recomputes from the same seeds.

The executor degrades gracefully: it runs serially when ``jobs == 1``,
when there is at most one item, when the platform cannot fork (the
pool uses the ``fork`` start method so workers inherit the warm module
state instead of re-importing numpy), or when an up-front probe shows
the task or its items would not survive pickling.  Process-level
supervision (crash recovery, per-cell timeouts, quarantine, graceful
drain) lives in :mod:`repro.parallel.supervisor`.
"""

import functools
import logging
import multiprocessing
import os
import pickle
from dataclasses import replace

from repro.experiments.runner import run_detection_experiment
from repro.faults.chaos import chaos_from_env
from repro.parallel.supervisor import (
    DEFAULT_MAX_CELL_RETRIES,
    CellFailure,
    Supervision,
    SweepInterrupted,
    _call_on_result,
)

logger = logging.getLogger(__name__)


def default_jobs():
    """Default worker count: every core the scheduler *actually* gives us.

    ``os.cpu_count()`` reports the machine, not the container --
    in a cgroup-limited CI job or under ``taskset`` it overcounts, and
    oversubscribed workers thrash.  Preference order:

    1. ``REPRO_JOBS`` environment variable (explicit operator override;
       non-integer values are ignored);
    2. the CPU-affinity mask (:func:`os.sched_getaffinity`, which
       reflects cgroups/taskset on Linux);
    3. ``os.cpu_count()`` where affinity is unavailable (macOS);
    4. 1.
    """
    override = os.environ.get("REPRO_JOBS")
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass  # fall through to the detected value
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def fork_available():
    """True when the ``fork`` start method exists (POSIX)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _probe_picklable(task, items):
    """True when the task and every item can cross a process boundary.

    The old executor discovered pickling trouble by catching
    ``PicklingError``/``AttributeError``/``TypeError`` out of
    ``pool.map`` -- which also caught genuine ``TypeError``s raised
    *inside* a task and silently reran the whole sweep serially,
    masking real bugs.  Probing up front means a pickling problem (and
    only a pickling problem) chooses the serial path; task exceptions
    now surface through quarantine instead of vanishing.
    """
    try:
        pickle.dumps(task)
        for item in items:
            pickle.dumps(item)
    except Exception:
        return False
    return True


class SweepExecutor:
    """Maps a task over independent sweep items, possibly in parallel.

    Parameters:
        jobs: worker-process count; ``None`` means every scheduler-
            granted core, ``1`` forces serial execution in-process.
        cell_timeout: wall-clock seconds one cell may run before the
            watchdog kills its worker and retries it; ``None`` disables
            the watchdog.  Enforced only on the pool path (a serial
            parent has no one to kill).
        max_cell_retries: extra attempts a cell gets after a worker
            death, watchdog kill, or transient exception before it is
            quarantined.
        strict: quarantine nothing -- re-raise a failing cell's
            exception (serial) or a :class:`SweepCellError` (pool),
            aborting the sweep like the pre-supervision executor did.
        chaos_profile: a :class:`repro.faults.chaos.ChaosProfile`
            injected into pool workers; defaults to whatever
            ``REPRO_CHAOS`` names (usually nothing).
        max_worker_restarts: worker respawns allowed before the
            remaining cells finish serially; ``None`` picks
            ``max(8, 2 * workers)``.

    ``map`` returns results in input order.  The task must be a
    module-level callable (or :func:`functools.partial` of one) so it
    can cross the process boundary; unpicklable tasks run serially
    rather than failing the sweep.
    """

    def __init__(
        self,
        jobs=None,
        *,
        cell_timeout=None,
        max_cell_retries=DEFAULT_MAX_CELL_RETRIES,
        strict=False,
        chaos_profile=None,
        max_worker_restarts=None,
    ):
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.cell_timeout = cell_timeout
        self.max_cell_retries = max_cell_retries
        self.strict = strict
        self.chaos = chaos_profile if chaos_profile is not None else chaos_from_env()
        self.max_worker_restarts = max_worker_restarts

    def map(self, task, items, chunksize=1, on_result=None):
        """Run ``task(item)`` for every item; returns results in order.

        ``on_result(index, item, result)``, when given, fires as each
        result becomes available (in input order) -- the checkpoint hook
        the experiment store uses to persist completed sweep cells
        before the sweep finishes.  Delivery is **exactly once** per
        cell across every recovery path (worker respawn, serial
        fallback, interrupt drain).  A callback that raises is logged
        and skipped -- it never aborts the sweep, and it never fires
        for a quarantined cell.

        Failure semantics (see :mod:`repro.parallel.supervisor`):
        unless ``strict``, a cell that exhausts its retries lands in
        the results list as a :class:`CellFailure` instead of aborting
        the sweep, and a drain signal raises :class:`SweepInterrupted`
        carrying the partial results.  ``chunksize`` is accepted for
        backward compatibility and ignored -- the supervising
        dispatcher hands workers one cell at a time so the watchdog
        knows exactly what each worker is doing.

        When observability is enabled (:mod:`repro.obs`), pool workers
        run each item under a private sink and the parent merges the
        per-item snapshots into the active sink as results drain, so
        ``jobs=N`` metrics match ``jobs=1``.
        """
        items = list(items)
        if not items:
            return []
        workers = min(self.jobs, len(items))
        use_pool = (
            workers > 1
            and fork_available()
            and _probe_picklable(task, items)
        )
        supervision = Supervision(
            task,
            items,
            workers=workers,
            on_result=on_result,
            cell_timeout=self.cell_timeout,
            max_cell_retries=self.max_cell_retries,
            strict=self.strict,
            chaos=self.chaos,
            max_worker_restarts=self.max_worker_restarts,
        )
        return supervision.run(use_pool)


def _detection_cell(config, detectors, modified, entropy, merge_flows, fault_profile):
    return run_detection_experiment(
        config,
        detectors=detectors,
        modified=modified,
        entropy=entropy,
        merge_flows=merge_flows,
        fault_profile=fault_profile,
    )


def _collect_failures(results):
    """The quarantined cells embedded in a results list, in order."""
    return [value for value in results if isinstance(value, CellFailure)]


def _run_cached_sweep(
    task, items, keys, store, executor, kind, decode, encode, no_cache,
    on_result=None,
):
    """Shared store plumbing for every sweep flavour.

    Partitions ``items`` into cache hits and misses, runs only the
    misses (checkpointing each completed cell the moment its result
    arrives), records the run in the store's ledger, and returns
    ``(results, hits, misses, failures, interrupted)`` with results
    merged in input order.  ``decode``/``encode`` translate between
    in-memory results and the store's plain-JSON payloads.

    ``on_result(index, item, result)`` fires for every freshly computed
    cell (never for cache hits and never for quarantined cells), with
    ``index`` in the *original* item order, exactly once per cell.
    Neither a failing callback nor a failing checkpoint write aborts
    the sweep; a lost checkpoint only costs resumability for that cell.

    Failure accounting: quarantined cells come back as
    :class:`CellFailure` entries (re-indexed to the original item order
    and stamped with their cache key) both inline in ``results`` and in
    the ``failures`` list; each is also appended to the store ledger.
    A drain signal (``SIGINT``/``SIGTERM``) finishes the ledger entry
    as ``"interrupted"`` -- every checkpoint that made it to disk stays
    usable by ``--resume`` -- and the partial results are returned with
    ``interrupted=True``.
    """
    results = [None] * len(items)
    missing = []
    for index, key in enumerate(keys):
        payload = None if no_cache else store.get(key)
        if payload is not None:
            results[index] = decode(payload)
        else:
            missing.append(index)
    hits = len(items) - len(missing)
    run_id = store.begin_run(kind=kind, cells=len(items), hits=hits)

    def checkpoint(position, item, result):
        index = missing[position]
        try:
            store.put(keys[index], encode(result), run_id=run_id)
        except Exception:
            logger.exception(
                "store checkpoint failed for sweep cell %d; continuing", index
            )
        if on_result is not None:
            _call_on_result(on_result, index, item, result)

    interrupted = False
    try:
        computed = executor.map(
            task, [items[index] for index in missing], on_result=checkpoint
        )
    except SweepInterrupted as exc:
        computed = exc.results
        interrupted = True
    failures = []
    for position, index in enumerate(missing):
        value = computed[position]
        if isinstance(value, CellFailure):
            value = replace(value, index=index, key=keys[index])
            failures.append(value)
        results[index] = value
    for failure in failures:
        store.record_failure(run_id, failure.as_dict())
    store.finish_run(
        run_id,
        kind=kind,
        cells=len(items),
        hits=hits,
        misses=len(missing),
        status="interrupted" if interrupted else "complete",
        failures=len(failures),
    )
    return results, hits, len(missing), failures, interrupted


def _run_plain_sweep(task, items, executor, on_result=None):
    """Store-less sweep: same return shape as :func:`_run_cached_sweep`."""
    interrupted = False
    try:
        results = executor.map(task, items, on_result=on_result)
    except SweepInterrupted as exc:
        results = exc.results
        interrupted = True
    return results, 0, len(items), _collect_failures(results), interrupted


def _detection_sweep(
    configs,
    jobs=None,
    detectors=None,
    modified=True,
    entropy=0,
    merge_flows=False,
    fault_profile=None,
    store=None,
    no_cache=False,
    on_result=None,
    cell_timeout=None,
    max_cell_retries=DEFAULT_MAX_CELL_RETRIES,
    strict=False,
):
    """Detection-sweep implementation; returns the 5-tuple
    ``(records, hits, misses, failures, interrupted)``.

    This is the engine behind :func:`repro.api.run_sweep`; call that
    instead.  Records come back one per config, in config order,
    identical for any ``jobs`` value; ``fault_profile`` is applied per
    cell, seeded from each cell's own ``config.seed``.  With a
    ``store``, cached cells are returned without simulating and every
    fresh cell is checkpointed as it completes, so a killed sweep
    re-run with the same store computes only the missing cells;
    ``no_cache`` skips the read side but still checkpoints.
    """
    configs = list(configs)
    task = functools.partial(
        _detection_cell,
        detectors=detectors,
        modified=modified,
        entropy=entropy,
        merge_flows=merge_flows,
        fault_profile=fault_profile,
    )
    executor = SweepExecutor(
        jobs,
        cell_timeout=cell_timeout,
        max_cell_retries=max_cell_retries,
        strict=strict,
    )
    if store is None:
        return _run_plain_sweep(task, configs, executor, on_result=on_result)
    from repro.store import (
        detection_cache_key,
        record_from_dict,
        record_to_dict,
    )

    detector_names = sorted(detectors) if detectors else ["loss_trend"]
    keys = [
        detection_cache_key(
            config,
            detectors=detector_names,
            modified=modified,
            entropy=entropy,
            merge_flows=merge_flows,
            fault_profile=fault_profile,
            fingerprint=store.fingerprint,
            schema_version=store.schema_version,
        )
        for config in configs
    ]
    return _run_cached_sweep(
        task,
        configs,
        keys,
        store,
        executor,
        kind="detection_sweep",
        decode=record_from_dict,
        encode=record_to_dict,
        no_cache=no_cache,
        on_result=on_result,
    )


def _wild_cell(cell, sanity_check, fidelity="packet"):
    from repro.experiments.wild import run_wild_test

    isp_name, app, seed = cell
    report = run_wild_test(
        isp_name, app=app, seed=seed, sanity_check=sanity_check, fidelity=fidelity
    )
    return {
        "isp": isp_name,
        "app": app,
        "seed": seed,
        "localized": report.localized,
        "outcome": report.outcome.value,
        "mechanism": report.mechanism.value,
    }


def _wild_sweep(
    isp_names,
    apps,
    seeds,
    jobs=None,
    sanity_check=False,
    fidelity="packet",
    store=None,
    no_cache=False,
    on_result=None,
    cell_timeout=None,
    max_cell_retries=DEFAULT_MAX_CELL_RETRIES,
    strict=False,
):
    """Wild-sweep implementation; returns the 5-tuple
    ``(summaries, hits, misses, failures, interrupted)``.

    The engine behind :func:`repro.api.run_sweep`; call that instead.
    """
    cells = [
        (isp, app, seed) for isp in isp_names for app in apps for seed in seeds
    ]
    task = functools.partial(_wild_cell, sanity_check=sanity_check, fidelity=fidelity)
    executor = SweepExecutor(
        jobs,
        cell_timeout=cell_timeout,
        max_cell_retries=max_cell_retries,
        strict=strict,
    )
    if store is None:
        return _run_plain_sweep(task, cells, executor, on_result=on_result)
    from repro.store import wild_cache_key
    from repro.store.serialize import plain

    keys = [
        wild_cache_key(
            isp,
            app,
            seed,
            sanity_check=sanity_check,
            fidelity=fidelity,
            fingerprint=store.fingerprint,
            schema_version=store.schema_version,
        )
        for isp, app, seed in cells
    ]
    return _run_cached_sweep(
        task,
        cells,
        keys,
        store,
        executor,
        kind="wild_sweep",
        decode=lambda payload: payload["cell"],
        encode=lambda cell: {"kind": "wild", "cell": plain(cell)},
        no_cache=no_cache,
        on_result=on_result,
    )
