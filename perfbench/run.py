"""WeHeY end-to-end benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``localize-packet``: closed loop, one client, back-to-back coordinated
  WeHeY tests at packet fidelity;
- ``sweep-hybrid``: back-to-back cold hybrid detection sweeps at
  ``jobs=2``, each into a fresh store;
- ``service-mixed``: open loop over one connection to a separately
  launched ``repro serve`` with the real sweep engine.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
traced pass and reports the per-layer metrics.  Either way the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Metric names and units come from ``BENCHMARK.json``.  The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with status 2 and prints no result.
"""

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402  (benchmark modules import the program lazily)
import workloads as w  # noqa: E402

WORKLOADS = ("localize-packet", "sweep-hybrid", "service-mixed")


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def peak_rss_mb():
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def emit(spec_metrics, values, outcome_ok, attempted, failed):
    """Print the result line; every declared metric must be present."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in spec_metrics
    }
    print(
        json.dumps(
            {
                "correct": bool(outcome_ok),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def check_digest(workload, seed, digest, outcome, manifest):
    """At the default seed the verdict digest must equal the pinned one."""
    print(f"verdict_digest {workload} seed={seed} {digest}", flush=True)
    if seed == manifest["default_seed"]:
        pinned = manifest["verdict_digest"].get(workload)
        if digest != pinned:
            outcome.violate(f"verdict digest {digest} != pinned {pinned}")


# -- untraced: end-to-end ----------------------------------------------------


def untraced(workload, seed, seconds):
    setup, measure, discard = {
        "localize-packet": (w.localize_setup, w.localize_measure, None),
        "sweep-hybrid": (w.sweep_setup, w.sweep_measure, None),
        "service-mixed": (
            w.service_setup,
            w.service_measure,
            lambda server: server.stop(),
        ),
    }[workload]
    setup_times = []
    state = None
    for _ in range(w.SETUP_REPEATS):
        if state is not None and discard is not None:
            discard(state)
        start = time.perf_counter()
        state = setup(seed)
        setup_times.append(time.perf_counter() - start)
    out = measure(state, seed, seconds)
    completed = max(out.attempted - len(out.violations), 0)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": completed / out.wall_s,
        "sim_s_per_s": out.replay_s / out.wall_s,
        "latency_p50_s": w.median(out.latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(
        f"{workload} seed={seed}: {out.attempted} ops in {out.wall_s:.2f} s, "
        f"{len(out.latencies)} latency samples, {out.replay_s:g} replay s",
        flush=True,
    )
    lat = out.latencies
    print(
        "latency_s min/p25/p50/p75/max "
        + " ".join(f"{w.quantile(lat, q):.3f}" for q in (0, 0.25, 0.5, 0.75, 1)),
        flush=True,
    )
    return out, values


# -- traced: per-layer -------------------------------------------------------


def fixed_work(workload, seed):
    return {
        "localize-packet": w.localize_fixed_work,
        "sweep-hybrid": w.sweep_fixed_work,
    }[workload](seed)


def profile_pass(workload, seed, path):
    """Child mode: run the fixed work under cProfile and a sink."""
    tracer = tracing.Tracer().install(spans=False)
    try:
        out, wall, layers, counters = tracing.profiled(
            lambda: fixed_work(workload, seed), SRC
        )
    finally:
        tracer.uninstall()
    result = {
        "wall_s": wall,
        "layers": layers,
        "counters": counters,
        "replay_s": tracer.replay_s,
        "digest": out.digest,
        "attempted": out.attempted,
        "violations": out.violations,
    }
    with open(path, "w") as handle:
        json.dump(result, handle)


def profiled_children(workload, seed, workdir):
    """Two profiled passes, each in a fresh interpreter."""
    passes = []
    for index in range(2):
        path = os.path.join(workdir, f"profile-{index}.json")
        subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", workload,
                "--seed", str(seed),
                "--profile-pass", path,
            ],
            check=True,
            cwd=ROOT,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        passes.append(load_json(path))
    return passes


#: Rows of layers a workload may never enter (the predicted zeros).
PARALLEL_ROWS = ("parallel.busy_share", "parallel.overhead_s", "parallel.cell_retries")
SERVICE_ROWS = (
    "service.queued_p50_s",
    "service.service_p50_s",
    "service.cached_share",
    "service.cells_per_batch",
    "service.duplicate_cells",
    "loadgen.lag_p99_s",
)
SPAN_ROWS = (
    "wehe.replay_s",
    "experiments.env_build_s",
    "core.detect_s",
    "mlab.lookup_s",
    "mlab.traceroute_s",
    "store.get_s",
    "store.put_s",
)


def service_passes(seed, seconds, rows):
    """Service traced pass; returns ``(outcomes, light, spans, passes)``.

    An open loop like the untraced run, with spans and the server's
    sink, gives the ``service.*`` rows and the span times; the
    closed-loop fixed work then runs once with spans only and twice
    profiled, each in a fresh server.
    """
    out = w.Outcome()
    server = w.ServerProcess(
        observe="counters",
        chrome_trace=os.path.join(w.WORK, "traces", f"service-mixed-seed{seed}.json"),
    )
    try:
        figures = w.run_open_loop(server, seed, seconds, out)
    finally:
        summary = server.stop() or {}
    batches = summary.get("counters", {}).get("service.batches", 0)
    answered = figures["fresh"] + figures["cached"]
    rows.update(
        {
            "service.queued_p50_s": w.median(figures["queued"]),
            "service.service_p50_s": w.median(figures["service"]),
            "service.cached_share": figures["cached"] / answered if answered else 0.0,
            "service.cells_per_batch": figures["fresh"] / batches if batches else 0.0,
            "service.duplicate_cells": figures["duplicates"],
            "loadgen.lag_p99_s": w.quantile(figures["lags"], 0.99),
        }
    )
    light, light_summary = w.service_fixed_work(seed, profile=False)
    # Simulator time per event comes from the closed loop's own spans.
    light.extra["run_s"] = light_summary.get("spans", {}).get("netsim.run_s", 0.0)
    passes = []
    for _ in range(2):
        run, run_summary = w.service_fixed_work(seed, profile=True)
        passes.append(
            {
                "wall_s": run.wall_s,
                "layers": run_summary.get("layers", {}),
                "counters": run_summary.get("counters", {}),
                "replay_s": run.replay_s,
                "digest": run.digest,
                "attempted": run.attempted,
                "violations": run.violations,
            }
        )
    return [out, light], light, summary.get("spans", {}), passes


def in_process_passes(workload, seed, workdir, rows):
    """Localize/sweep traced pass; returns ``(outcomes, light, spans, passes)``.

    The fixed work runs here once with spans only, then twice profiled
    in fresh interpreters.  The sweep also runs its first sweep at
    ``jobs=2`` for the ``parallel.*`` rows.
    """
    outcomes = []
    if workload == "sweep-hybrid":
        # Parallel first, while this process has computed nothing:
        # forked workers start as cold as the serial pass below.
        parallel = w.sweep_parallel_pass(seed)
        outcomes.append(parallel)
    tracer = tracing.Tracer().install(spans=True)
    start = time.perf_counter()
    try:
        light = fixed_work(workload, seed)
    finally:
        tracer.uninstall()
    light.wall_s = time.perf_counter() - start
    light.extra["run_s"] = tracer.totals()["netsim.run_s"]
    outcomes.append(light)
    tracer.write_chrome_trace(
        os.path.join(w.WORK, "traces", f"{workload}-seed{seed}.json")
    )
    if workload == "sweep-hybrid":
        cell_s = light.extra["cell_s"]
        rows.update(
            {
                "parallel.busy_share": cell_s / (w.SWEEP_JOBS * parallel.wall_s),
                "parallel.overhead_s": parallel.wall_s - cell_s / w.SWEEP_JOBS,
                "parallel.cell_retries": parallel.extra["retries"],
            }
        )
        if parallel.digest != light.digest:
            light.violate("jobs=2 and jobs=1 sweeps disagree")
    passes = profiled_children(workload, seed, workdir)
    return outcomes, light, tracer.totals(), passes


def traced(workload, seed, seconds, workdir):
    rows = dict.fromkeys(PARALLEL_ROWS + SERVICE_ROWS, 0.0)
    if workload == "service-mixed":
        outcomes, light, spans, passes = service_passes(seed, seconds, rows)
    else:
        outcomes, light, spans, passes = in_process_passes(
            workload, seed, workdir, rows
        )

    first = passes[0]
    values = {**first["layers"], **first["counters"]}
    events = values.get("netsim.events", 0)
    values["netsim.events_per_sim_s"] = (
        events / first["replay_s"] if first["replay_s"] else 0.0
    )
    values["netsim.host_us_per_event"] = (
        light.extra["run_s"] * 1e6 / events if events else 0.0
    )
    values.update((name, spans.get(name, 0.0)) for name in SPAN_ROWS)
    values.update(rows)
    values["trace.overhead_share"] = first["wall_s"] / light.wall_s - 1.0

    mismatched = []
    for name in tracing.DETERMINISTIC:
        a = {**passes[0]["layers"], **passes[0]["counters"]}.get(name, 0)
        b = {**passes[1]["layers"], **passes[1]["counters"]}.get(name, 0)
        if a != b:
            mismatched.append(name)
            print(f"counter {name} differs between traced runs: {a} != {b}",
                  file=sys.stderr)
    values["trace.counter_mismatches"] = len(mismatched)

    attempted = sum(o.attempted for o in outcomes)
    violations = [v for o in outcomes for v in o.violations]
    for index, result in enumerate(passes):
        attempted += result["attempted"]
        violations += result["violations"]
        if result["digest"] != light.digest:
            violations.append(f"profiled pass {index} changed the verdicts")
    for message in violations:
        print(f"violation: {message}", file=sys.stderr)
    print(
        f"{workload} seed={seed} traced: fixed work {light.wall_s:.2f} s untraced, "
        f"{first['wall_s']:.2f} s profiled; {len(mismatched)} counter mismatches",
        flush=True,
    )
    return attempted, violations, values


def main(argv=None):
    parser = argparse.ArgumentParser(description="WeHeY end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile-pass", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A terminated run unwinds through the cleanup blocks (servers,
    # scratch stores) instead of dying in place.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    os.makedirs(w.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=w.WORK)
    tempfile.tempdir = workdir
    os.environ["TMPDIR"] = workdir
    try:
        if args.profile_pass:
            profile_pass(args.workload, args.seed, args.profile_pass)
            return 0
        import platform

        import numpy

        print(
            f"host nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={numpy.__version__}",
            flush=True,
        )
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        manifest = load_json(os.path.join(HERE, "manifest.json"))
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.trace:
            attempted, violations, values = traced(
                args.workload, args.seed, seconds, workdir
            )
            emit(spec["per_layer"], values, not violations, attempted, len(violations))
        else:
            out, values = untraced(args.workload, args.seed, seconds)
            check_digest(args.workload, args.seed, out.digest, out, manifest)
            for message in out.violations:
                print(f"violation: {message}", file=sys.stderr)
            emit(spec["end_to_end"], values, not out.violations, out.attempted,
                 len(out.violations))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
