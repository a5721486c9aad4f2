"""The benchmark's three workloads.

Each workload has the same shape:

- ``setup(seed)`` builds what a run needs and is timed ``SETUP_REPEATS``
  times (the median is ``setup_s``);
- ``measure(state, seed, seconds)`` drives the program through its
  public entry points for ``seconds`` of wall time and returns a
  :class:`Outcome` (end-to-end figures, operation counts, correctness
  violations, and the verdict digest of a fixed prefix of the work);
- ``fixed_work(seed)`` is a fixed, seed-determined slice of the same
  work for the traced pass (its call counts repeat exactly).

Inputs come only from ``--seed``.  Every check that fails is one failed
operation.
"""

import hashlib
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
LAUNCHER = os.path.join(HERE, "launcher.py")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """What one measured run produced."""

    attempted: int = 0
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    replay_s: float = 0.0
    violations: list = field(default_factory=list)
    digest: str = ""
    extra: dict = field(default_factory=dict)

    def violate(self, message):
        """Record one failed check (one failed operation)."""
        self.violations.append(message)


def digest_of(items):
    """sha256 over the canonical JSON of ``items`` (first 16 hex digits)."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scratch_dir(prefix):
    os.makedirs(WORK, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK)


# -- localize-packet -------------------------------------------------------

#: One round of coordinated tests: both apps x the three limiter
#: placements, interleaved so any prefix mixes UDP and TCP.
LOCALIZE_ROUND = (
    ("zoom", "common"),
    ("netflix", "noncommon"),
    ("zoom", "perflow"),
    ("netflix", "common"),
    ("zoom", "noncommon"),
    ("netflix", "perflow"),
)
LOCALIZE_DURATION_S = 5.0
#: Tests in the traced pass: the first half-round (both apps, all
#: three placements).
LOCALIZE_TRACED_TESTS = 3
LOCALIZE_INTERNET = dict(
    n_ases=4000, n_sites=4, servers_per_site=2, n_client_isps=24, clients_per_isp=3
)


@dataclass
class LocalizeState:
    internet: object
    annotations: object
    database: object
    tdiff: object
    clients: list
    rng: object


def localize_setup(seed):
    """PolicyInternet -> traceroutes -> TC on columnar tables -> T_diff."""
    from repro.inet import PolicyInternet
    from repro.mlab.annotations import AnnotationDatabase
    from repro.mlab.tables import annotation_table, traceroute_table
    from repro.mlab.topology_construction import build_topology_from_tables
    from repro.mlab.traceroute import collect_month
    from repro.wehe.corpus import generate_corpus, tdiff_distribution

    internet = PolicyInternet(seed=seed, **LOCALIZE_INTERNET)
    rng = np.random.default_rng([seed, 1])
    records = collect_month(internet, rng, tests_per_client=len(internet.servers))
    annotations = AnnotationDatabase(internet)
    database = build_topology_from_tables(
        traceroute_table(records, backend="columnar"),
        annotation_table(annotations, backend="columnar"),
    )
    tdiff = tdiff_distribution(generate_corpus(np.random.default_rng([seed, 2])))
    clients = sorted(
        c.name for c in internet.clients if database.lookup(c.ip, c.asn)
    )
    if not clients:
        raise RuntimeError(f"seed {seed}: no client has a topology-DB entry")
    return LocalizeState(internet, annotations, database, tdiff, clients, rng)


def _localize_test(state, seed, index):
    """One coordinated WeHeY test; returns ``(record, latency_s, ok)``."""
    from repro.core.coordinator import CoordinationStatus, WeHeYCoordinator
    from repro.experiments.scenarios import ScenarioConfig
    from repro.faults import RetryPolicy
    from repro.mlab.verification import TopologyVerifier

    app, limiter = LOCALIZE_ROUND[index % len(LOCALIZE_ROUND)]
    client = state.clients[(seed + index) % len(state.clients)]
    scenario = ScenarioConfig(
        app=app,
        limiter=limiter,
        duration=LOCALIZE_DURATION_S,
        seed=seed * 1000 + index,
    )
    verifier = TopologyVerifier(
        state.internet, state.annotations, state.rng, route_change_probability=0.0
    )
    coordinator = WeHeYCoordinator(
        state.internet,
        state.database,
        verifier,
        scenario,
        state.rng,
        state.tdiff,
        retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.0),
    )
    start = time.perf_counter()
    report = coordinator.run_test(client, app=app)
    latency = time.perf_counter() - start
    localization = report.localization
    ok = (
        report.status is CoordinationStatus.COMPLETED
        and localization is not None
        and not localization.invalid
    )
    record = [
        client,
        app,
        limiter,
        report.status.value,
        localization.reason_code if localization is not None else None,
        list(report.server_pair or ()),
    ]
    return record, latency, ok


def localize_measure(state, seed, seconds):
    """Closed loop, one client: back-to-back tests for ``seconds``
    (always at least one whole round, whose verdicts are digested)."""
    tracer = tracing.Tracer().install(spans=False)
    out = Outcome()
    records = []
    start = time.perf_counter()
    try:
        while True:
            record, latency, ok = _localize_test(state, seed, out.attempted)
            out.attempted += 1
            out.latencies.append(latency)
            if not ok:
                out.violate(f"test {out.attempted - 1}: {record}")
            if len(records) < len(LOCALIZE_ROUND):
                records.append(record)
            if (
                time.perf_counter() - start >= seconds
                and out.attempted >= len(LOCALIZE_ROUND)
            ):
                break
    finally:
        tracer.uninstall()
    out.wall_s = time.perf_counter() - start
    out.replay_s = tracer.replay_s
    out.digest = digest_of(records)
    return out


def localize_fixed_work(seed):
    """Set-up plus the first tests of a round (traced pass)."""
    out = Outcome()
    state = localize_setup(seed)
    records = []
    for index in range(LOCALIZE_TRACED_TESTS):
        record, _latency, ok = _localize_test(state, seed, index)
        out.attempted += 1
        records.append(record)
        if not ok:
            out.violate(f"test {index}: {record}")
    out.digest = digest_of(records)
    return out


# -- sweep-hybrid ----------------------------------------------------------

SWEEP_APPS = ("zoom", "netflix")
SWEEP_LIMITERS = ("common", "noncommon", "perflow")
SWEEP_SHAPERS = ("tbf", "dual_tbf")
SWEEP_CONGESTION = (0.2, 1.15)
SWEEP_DURATION_S = 10.0
#: Replicates of the grid per sweep (40 cells: enough that one slow
#: cell does not set a sweep's time).
SWEEP_SEEDS = 2
#: Cell seeds of benchmark seed ``n`` start at ``n * SWEEP_SEED_STRIDE``;
#: a run completes far fewer cells than this.
SWEEP_SEED_STRIDE = 100_000
SWEEP_JOBS = 2
#: The stack ``repro sweep`` imports before it can run a cell.
SWEEP_IMPORTS = (
    "repro.api",
    "repro.experiments.runner",
    "repro.netsim.fluid",
    "repro.parallel.executor",
    "repro.store",
)


def sweep_grid(seed, sweep_index):
    """app x limiter x shaper x congestion x ``SWEEP_SEEDS`` replicates.

    Every cell gets a seed of its own.  A hybrid cell's cost depends
    mostly on its seed (a netflix cell costs 0.03 s at one seed and
    0.2 s at another, whatever its limiter), so cells sharing a few
    seeds made one sweep cost up to 1.7x another; distinct seeds
    average that out over every cell of a run.

    The fluid per-flow limiter has no ``dual_tbf`` twin (such a cell is
    quarantined with ``ValueError``), so per-flow cells use ``tbf``
    only.
    """
    from repro.experiments.scenarios import ScenarioConfig

    cells = [
        (app, limiter, shaper, congestion)
        for _replicate in range(SWEEP_SEEDS)
        for app in SWEEP_APPS
        for limiter in SWEEP_LIMITERS
        for shaper in SWEEP_SHAPERS
        for congestion in SWEEP_CONGESTION
        if not (limiter == "perflow" and shaper != "tbf")
    ]
    first = seed * SWEEP_SEED_STRIDE + sweep_index * len(cells)
    return [
        ScenarioConfig(
            app=app,
            limiter=limiter,
            shaper=shaper,
            congestion_factor=congestion,
            duration=SWEEP_DURATION_S,
            seed=first + position,
        )
        for position, (app, limiter, shaper, congestion) in enumerate(cells)
    ]


def sweep_setup(seed):
    """Cold start of the sweep stack in a fresh interpreter."""
    code = "import " + ", ".join(SWEEP_IMPORTS)
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    return None


def cold_sweep(seed, sweep_index, jobs, out):
    """One cold hybrid ``run_sweep`` into a fresh temporary store.

    Checks the result and the store; returns ``(records, wall_s,
    stamps)``, where ``stamps`` holds each cell's ``on_result`` instant
    in seconds from the start of the sweep.
    """
    from repro.api import SweepRequest, run_sweep
    from repro.experiments.runner import DetectionExperimentRecord
    from repro.store import ExperimentStore
    from repro.store.serialize import record_to_dict

    configs = sweep_grid(seed, sweep_index)
    root = scratch_dir("store-")
    fired = []
    stamps = []

    def on_result(index, _item, _result):
        fired.append(index)
        stamps.append(time.perf_counter() - start)

    try:
        start = time.perf_counter()
        store = ExperimentStore(root)
        result = run_sweep(
            SweepRequest.detection(
                configs,
                fidelity="hybrid",
                jobs=jobs,
                store=store,
                on_result=on_result,
            )
        )
        wall = time.perf_counter() - start
        out.attempted += len(configs)
        bad = [
            f"cell {i} is not a completed hybrid record"
            for i, record in enumerate(result.results)
            if not isinstance(record, DetectionExperimentRecord)
            or record.status != "ok"
            or record.config.fidelity != "hybrid"
        ]
        if len(result.results) != len(configs):
            bad.append(f"{len(result.results)} records for {len(configs)} configs")
        if result.failures or result.interrupted:
            bad.append(f"{len(result.failures)} quarantined, interrupted={result.interrupted}")
        if (result.hits, result.misses) != (0, len(configs)):
            bad.append(f"cold sweep hits={result.hits} misses={result.misses}")
        if sorted(fired) != list(range(len(configs))):
            bad.append(f"on_result fired for {sorted(fired)}")
        if len(ExperimentStore(root).entries()) != len(configs):
            bad.append("store does not hold one checkpoint per cell")
        for problem in bad:
            out.violate(f"sweep {sweep_index}: {problem}")
        records = [
            record_to_dict(r)
            for r in result.results
            if isinstance(r, DetectionExperimentRecord)
        ]
        return records, wall, stamps
    finally:
        shutil.rmtree(root, ignore_errors=True)


def sweep_measure(state, seed, seconds):
    """Back-to-back cold sweeps for ``seconds``; the first is digested.

    A cell's latency is the time from the start of its sweep to its
    ``on_result`` callback: when a streaming caller has the result.
    """
    out = Outcome()
    start = time.perf_counter()
    sweep_index = 0
    while True:
        records, _wall, stamps = cold_sweep(seed, sweep_index, SWEEP_JOBS, out)
        if sweep_index == 0:
            out.digest = digest_of(records)
        out.latencies.extend(stamps)
        out.replay_s += SWEEP_DURATION_S * len(records)
        sweep_index += 1
        if time.perf_counter() - start >= seconds:
            break
    out.wall_s = time.perf_counter() - start
    return out


def sweep_fixed_work(seed):
    """The first sweep's cells at ``jobs=1`` (traced pass)."""
    out = Outcome()
    records, _wall, stamps = cold_sweep(seed, 0, 1, out)
    out.digest = digest_of(records)
    # Serial cells: the last on_result stamp is their summed run time.
    out.extra["cell_s"] = stamps[-1] if stamps else 0.0
    return out


def sweep_parallel_pass(seed):
    """The first sweep at ``jobs=2`` with the supervisor's counters."""
    from repro.obs import MetricsSink, use_sink

    out = Outcome()
    with use_sink(MetricsSink()) as sink:
        records, wall, _stamps = cold_sweep(seed, 0, SWEEP_JOBS, out)
        counters = tracing.obs_counters(sink.snapshot())
    out.wall_s = wall
    out.digest = digest_of(records)
    out.extra["retries"] = counters["parallel.cell_retries"]
    return out


# -- service-mixed ---------------------------------------------------------

SERVICE_CELL_S = 2.0
#: Fresh submissions rotate through the limiter placements on one app:
#: with zoom and netflix cells mixed, the p50 fell between two cost
#: modes and its seed-to-seed spread doubled (0.43 against 0.21 on a
#: contended host).  TCP replays are exercised by the other workloads.
SERVICE_ROUND = (("zoom", "common"), ("zoom", "noncommon"), ("zoom", "perflow"))
#: Offered load (submissions per wall second), at evenly spaced
#: instants.  Fresh cells cost 0.15-0.6 s each (about 0.3 s typical)
#: on an idle 2-core host, so the server is about half busy and a cell
#: waits only behind one that outlasts the 0.5 s interval.  The server
#: runs up to two batches at once in threads of one process, so cells
#: that overlap share one interpreter and both slow down; with Poisson
#: instants the p50 followed how a run's draw clumped.  Quartile spread
#: over median of the p50 across 8 seeds on the idle host (30 s runs,
#: 20% repeats): Poisson 0.18 at 1.0/s and 0.28 at 2.0/s; even spacing
#: 0.19 at 1.0/s and 0.14 at 2.0/s.  What remains is the cost of the
#: few dozen cells a run can simulate.
SERVICE_RATE = 2.0
#: Positions (mod 10) of submissions that repeat an earlier one and
#: are served through the memo/store read path: a 20% share.  Cached
#: answers take about 1 ms, so the overall p50 is a fixed lower
#: quantile of the fresh latencies.
SERVICE_REPEAT_SLOTS = (4, 9)
#: A repeat names a submission at least this many positions (2 s)
#: earlier, which has been answered unless the server is backlogged.
#: Repeating one still in flight simulates it again, so its latency is
#: a fresh cell's; how many repeats did that varied from seed to seed
#: and moved the p50 between the cached and the fresh latencies.
SERVICE_REPEAT_LAG = 4
SERVICE_TENANTS = ("tenant-a", "tenant-b")
SERVICE_DEADLINE_S = 300.0
#: Submissions in the traced pass's closed loop, and in the digest.
SERVICE_TRACED_SUBMISSIONS = 8
RESPONSE_TIMEOUT_S = 90.0


def service_schedule(seed, seconds):
    """``[(due_s, submission), ...]`` for one run.

    Submissions are due every ``1 / SERVICE_RATE`` seconds, so every
    run offers the same number.  Fresh submissions rotate through
    ``SERVICE_ROUND``; every tenth submission at positions 4 and 9
    repeats one at least ``SERVICE_REPEAT_LAG`` positions earlier (the
    pinned repeat share).  Bodies come from the seed, and the first
    submissions are the same for any ``seconds``.
    """
    bodies = np.random.default_rng([seed, 3])
    count = max(SERVICE_TRACED_SUBMISSIONS, int(round(SERVICE_RATE * seconds)))
    schedule = []
    uniques = []  # (position, body)
    for i in range(count):
        if i % 10 in SERVICE_REPEAT_SLOTS:
            settled = [body for at, body in uniques if at <= i - SERVICE_REPEAT_LAG]
            body = settled[int(bodies.integers(len(settled)))]
        else:
            app, limiter = SERVICE_ROUND[len(uniques) % len(SERVICE_ROUND)]
            body = {
                "client": f"client-{int(bodies.integers(1000))}",
                "app": app,
                "deadline_s": SERVICE_DEADLINE_S,
                "knobs": {
                    "limiter": limiter,
                    "duration": SERVICE_CELL_S,
                    "seed": seed * 1000 + i,
                },
            }
            uniques.append((i, body))
        submission = dict(body, id=f"s{i:04d}", tenant=SERVICE_TENANTS[i % 2])
        schedule.append((i / SERVICE_RATE, submission))
    return schedule


def _die_with_parent():
    """Child pre-exec hook: SIGTERM (drain) the server if the benchmark
    process dies first, so no server outlives a killed run."""
    try:
        import ctypes

        pr_set_pdeathsig = 1
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(pr_set_pdeathsig, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


class ServerProcess:
    """``repro serve`` under the benchmark launcher, with a fresh store."""

    def __init__(self, observe="meter", chrome_trace=None):
        self.dir = scratch_dir("serve-")
        self.summary_path = os.path.join(self.dir, "summary.json")
        self.log = open(os.path.join(self.dir, "serve.log"), "w")
        command = [
            sys.executable, LAUNCHER, "--summary", self.summary_path,
            "--observe", observe,
            *(["--chrome-trace", chrome_trace] if chrome_trace else []), "--",
            "--store", os.path.join(self.dir, "store"), "--jobs", "1", "--port", "0",
        ]
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self.log,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=SRC, TMPDIR=self.dir),
            text=True,
            preexec_fn=_die_with_parent,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("serving on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def stop(self):
        """Drain (SIGTERM), wait, clean up; returns the launcher summary."""
        summary = None
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            if os.path.exists(self.summary_path):
                with open(self.summary_path) as handle:
                    summary = json.load(handle)
        finally:
            self.proc.stdout.close()
            self.log.close()
            shutil.rmtree(self.dir, ignore_errors=True)
        return summary


class Connection:
    """One loopback connection; a reader thread timestamps responses."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.settimeout(None)
        self.responses = {}  # id -> [(t, response), ...]
        self.cond = threading.Condition()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        with self.sock.makefile("rb") as lines:
            for line in lines:
                now = time.perf_counter()
                response = json.loads(line)
                with self.cond:
                    self.responses.setdefault(response.get("id"), []).append(
                        (now, response)
                    )
                    self.cond.notify_all()

    def send(self, submission):
        line = json.dumps(submission, sort_keys=True) + "\n"
        self.sock.sendall(line.encode())
        return time.perf_counter()

    def wait_for(self, ids, timeout):
        deadline = time.perf_counter() + timeout
        with self.cond:
            while not all(i in self.responses for i in ids):
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                self.cond.wait(remaining)
        return True

    def close(self):
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.reader.join(timeout=10)


def check_responses(schedule, responses, out):
    """The service's structural checks; returns ``{id: (t, response)}``.

    Exactly one terminal response per submission, every one a verdict
    for the submitted scenario, and a repeated submission's verdict
    equal to the first one's.
    """
    first_verdict = {}
    terminal = {}
    expected = {sub["id"] for _due, sub in schedule}
    for rid in set(responses) - expected:
        out.violate(f"response for unknown id {rid}")
    for _due, sub in schedule:
        got = responses.get(sub["id"], [])
        if len(got) != 1:
            out.violate(f"{sub['id']}: {len(got)} terminal responses")
            continue
        t, response = got[0]
        terminal[sub["id"]] = got[0]
        verdict = response.get("verdict")
        if response.get("status") != "VERDICT" or verdict is None:
            out.violate(f"{sub['id']}: {response.get('status')} {response.get('reason')}")
            continue
        config = verdict.get("config", {})
        if (
            verdict.get("status") != "ok"
            or config.get("app") != sub["app"]
            or config.get("limiter") != sub["knobs"]["limiter"]
            or config.get("seed") != sub["knobs"]["seed"]
        ):
            out.violate(f"{sub['id']}: verdict does not match the submission")
            continue
        key = json.dumps([sub["app"], sub["knobs"]], sort_keys=True)
        if first_verdict.setdefault(key, verdict) != verdict:
            out.violate(f"{sub['id']}: repeated submission got another verdict")
    return terminal


def service_setup(seed):
    """Launch the server (the last of the set-up launches is kept)."""
    return ServerProcess()


def run_open_loop(server, seed, seconds, out):
    """Offer the schedule on one connection; time each submission from
    its scheduled instant.  Returns per-run service figures."""
    schedule = service_schedule(seed, seconds)
    conn = Connection(server.port)
    lags = []
    sent = {}
    try:
        start = time.perf_counter()
        for due, submission in schedule:
            delay = start + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[submission["id"]] = conn.send(submission)
            lags.append(sent[submission["id"]] - (start + due))
        ids = [sub["id"] for _due, sub in schedule]
        # A response still missing after the timeout is a violation below.
        conn.wait_for(ids, RESPONSE_TIMEOUT_S)
        with conn.cond:
            responses = {k: list(v) for k, v in conn.responses.items()}
    finally:
        conn.close()
    out.attempted += len(schedule)
    terminal = check_responses(schedule, responses, out)
    done = [t for t, _r in terminal.values()]
    out.wall_s = (max(done) if done else time.perf_counter()) - start
    out.latencies = [
        terminal[sub["id"]][0] - (start + due)
        for due, sub in schedule
        if sub["id"] in terminal
    ]
    prefix = [sub["id"] for _due, sub in schedule[:SERVICE_TRACED_SUBMISSIONS]]
    out.digest = digest_of(
        [[rid, terminal[rid][1].get("verdict")] for rid in prefix if rid in terminal]
    )
    # A repeat sent while an identical submission was still in flight
    # is simulated again instead of read back: wasted work.
    first_done = {}
    duplicates = 0
    for due, sub in schedule:
        key = json.dumps([sub["app"], sub["knobs"]], sort_keys=True)
        if key in first_done and sent[sub["id"]] < first_done[key]:
            duplicates += 1
        if sub["id"] in terminal:
            first_done.setdefault(key, terminal[sub["id"]][0])
    fresh = [r for _t, r in terminal.values() if not r.get("cached")]
    return {
        "lags": lags,
        "queued": [r.get("queued_s", 0.0) for r in fresh],
        "service": [r.get("service_s", 0.0) for r in fresh],
        "cached": len(terminal) - len(fresh),
        "fresh": len(fresh),
        "duplicates": duplicates,
    }


def service_measure(server, seed, seconds):
    """Open loop against the server launched by set-up."""
    out = Outcome()
    try:
        run_open_loop(server, seed, seconds, out)
    finally:
        summary = server.stop()
    if summary is None or summary.get("exit_code") != 0:
        out.violate("server did not drain cleanly")
    else:
        out.replay_s = summary["replay_s"]
    return out


def service_fixed_work(seed, profile):
    """Closed loop over the first submissions in a fresh server: each is
    sent after the previous verdict arrived, so batching and cache reads
    repeat exactly.  Returns ``(outcome, launcher summary)``."""
    schedule = service_schedule(seed, SERVICE_TRACED_SUBMISSIONS)
    schedule = schedule[:SERVICE_TRACED_SUBMISSIONS]
    out = Outcome()
    start = time.perf_counter()
    server = ServerProcess(observe="profile" if profile else "spans")
    try:
        conn = Connection(server.port)
        try:
            for _due, submission in schedule:
                conn.send(submission)
                conn.wait_for([submission["id"]], RESPONSE_TIMEOUT_S)
            with conn.cond:
                responses = {k: list(v) for k, v in conn.responses.items()}
        finally:
            conn.close()
    finally:
        summary = server.stop()
    out.wall_s = time.perf_counter() - start
    out.attempted = len(schedule)
    terminal = check_responses(schedule, responses, out)
    out.digest = digest_of(
        [[sub["id"], terminal[sub["id"]][1].get("verdict")]
         for _due, sub in schedule if sub["id"] in terminal]
    )
    if summary is None or summary.get("exit_code") != 0:
        out.violate("server did not drain cleanly")
        summary = {}
    out.replay_s = summary.get("replay_s", 0.0)
    return out, summary


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    """Nearest-rank quantile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))]
