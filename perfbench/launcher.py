"""Launch ``repro serve`` for the benchmark and report what it did.

Usage::

    python3 perfbench/launcher.py --summary OUT.json \\
        [--observe meter|spans|counters|profile] -- <repro serve arguments>

Runs the ``serve`` command of the ``repro`` command line in this
process, exactly as ``repro serve`` would.  Each ``--observe`` level
adds to the one before: ``meter`` counts simulated replay seconds (one
wrapper call per replay), ``spans`` installs the span wrappers,
``counters`` a ``repro.obs`` sink, and ``profile`` runs cProfile in the
event-loop thread and in every engine batch thread.  When the server
drains (``SIGTERM``), the launcher writes a JSON summary to
``--summary`` and exits.
"""

import argparse
import cProfile
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

LEVELS = ("meter", "spans", "counters", "profile")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True)
    parser.add_argument("--observe", choices=LEVELS, default="meter")
    parser.add_argument("--chrome-trace", default=None, metavar="PATH",
                        help="write the spans here as Chrome trace-event JSON")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]
    level = LEVELS.index(args.observe)

    from repro import cli
    from repro.obs import MetricsSink, use_sink
    from repro.service import SweepEngine

    import tracing

    tracer = tracing.Tracer().install(spans=level >= 1)
    profiles = []
    if level >= 3:
        run_batch = SweepEngine.run

        def profiled_run(self, batch):
            profile = cProfile.Profile()
            profiles.append(profile)
            profile.enable()
            try:
                return run_batch(self, batch)
            finally:
                profile.disable()

        SweepEngine.run = profiled_run
        main_profile = cProfile.Profile()
        profiles.append(main_profile)
        main_profile.enable()
    with use_sink(MetricsSink() if level >= 2 else None) as sink:
        try:
            code = cli.main(["serve", *serve_args])
        finally:
            if level >= 3:
                main_profile.disable()
            tracer.uninstall()
    summary = {
        "exit_code": code,
        "replay_s": tracer.replay_s,
        "spans": tracer.totals(),
        "counters": tracing.obs_counters(sink.snapshot()) if level >= 2 else {},
        "layers": {},
    }
    if profiles:
        summary["layers"] = tracing.layer_profile(tracing.merged_stats(profiles), SRC)
    with open(args.summary, "w") as handle:
        json.dump(summary, handle)
    if args.chrome_trace:
        tracer.write_chrome_trace(args.chrome_trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
