"""Experiment runner: scenarios -> simulator instances -> measurements.

``NetsimReplayService`` adapts a :class:`ScenarioConfig` to the replay
interface :class:`~repro.core.localizer.WeHeYLocalizer` expects: every
replay builds a *fresh* simulator (fresh background randomness -- the
replays happen at different wall-clock times, like real WeHe tests),
with the same topology and rate-limiter configuration (it is the same
ISP device across replays).

``run_detection_experiment`` is the cheaper harness used by the
Section-6 benchmarks: it runs only the original-trace simultaneous
replay and applies the common-bottleneck detectors directly, which is
what the paper's FN/FP metrics are defined on.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core.localizer import SimultaneousReplayResult
from repro.core.loss_correlation import LossTrendCorrelation
from repro.experiments.scenarios import ScenarioConfig
from repro.faults import FaultInjector, FaultSite, ReplayAbortedError, maybe_fire
from repro.netsim.background import (
    CountingSink,
    ModulatedPoissonBackground,
    TcpBackgroundPool,
)
from repro.netsim.engine import Simulator
from repro.netsim.fluid import (
    FluidPoissonBackground,
    FluidTcpBackground,
    harvest_fluid,
)
from repro.netsim.path import Path
from repro.obs import harvest_topology
from repro.obs import metrics as _obs
from repro.netsim.topology import FigureOneTopology, TopologyConfig
from repro.wehe.apps import make_trace
from repro.wehe.loss_measurement import RetransmissionLossEstimator
from repro.wehe.replay import attach_replay
from repro.wehe.traces import poissonize

#: Seconds of background warm-up before replays start.
WARMUP = 1.0
#: Seconds of drain after replays stop.
DRAIN = 1.0


class _Environment:
    """One simulator instance wired per the scenario."""

    def __init__(self, config, seed_seq):
        self.config = config
        self.sim = Simulator()
        children = seed_seq.spawn(6)
        self.rngs = [np.random.default_rng(s) for s in children]

        topo_config = TopologyConfig(
            common_bandwidth_bps=100e6,
            rtt_1=config.rtt_1,
            rtt_2=config.rtt_2,
            limiter=config.limiter,
            limiter_rate_bps=config.limiter_rate_bps,
            queue_factor=config.queue_factor,
            noncommon_bandwidth_bps=config.noncommon_bandwidth_bps,
            fidelity=config.fidelity,
            shaper=config.shaper,
            shaper_params=tuple(config.shaper_params),
            # Seeded mechanisms (RED/PIE draws) derive their device
            # seeds from the scenario seed, so a cell's shaper behaviour
            # depends only on the cell.
            shaper_seed=config.seed,
            # ECMP bundle knobs; the hash seed also derives from the
            # scenario seed, so member assignment is a cell property.
            multipath_members=config.multipath,
            flowlet_gap_s=config.flowlet_gap_s,
            multipath_shaped=config.multipath_shaped,
            multipath_seed=config.seed,
        )
        self.topology = FigureOneTopology(self.sim, topo_config)
        self._attach_background()

    def _attach_background(self):
        config = self.config
        hybrid = config.fidelity == "hybrid"
        stop = WARMUP + config.duration + DRAIN
        for which, rng_udp, rng_tcp in (
            (1, self.rngs[0], self.rngs[2]),
            (2, self.rngs[1], self.rngs[3]),
        ):
            links = [self.topology.noncommon_links[which - 1], self.topology.link_c]
            # The marked (same-service) share must reach the limiter in
            # full; the unmarked remainder only loads the FIFO class and
            # links, so simulating it beyond a few Mb/s per side buys
            # nothing but event count -- cap it.
            marked = config.background_share * config.background_rate_bps / 2.0
            unmarked = min(
                (1.0 - config.background_share) * config.background_rate_bps / 2.0,
                4e6,
            )
            side_rate = marked + unmarked
            if hybrid:
                FluidPoissonBackground(
                    self.sim,
                    rng_udp,
                    links,
                    side_rate,
                    dscp1_fraction=marked / side_rate if side_rate > 0 else 0.0,
                    modulation=config.background_modulation,
                    stop_at=stop,
                    flow_id=f"bg-udp-{which}",
                )
            else:
                ModulatedPoissonBackground(
                    self.sim,
                    rng_udp,
                    Path(links, CountingSink()),
                    side_rate,
                    dscp1_fraction=marked / side_rate if side_rate > 0 else 0.0,
                    modulation=config.background_modulation,
                    stop_at=stop,
                    flow_id=f"bg-udp-{which}",
                )
            if config.tcp_background_flows > 0:
                tcp_source = FluidTcpBackground if hybrid else TcpBackgroundPool
                tcp_source(
                    self.sim,
                    rng_tcp,
                    links,
                    n_longlived=max(config.tcp_background_flows // 2, 1),
                    short_flow_rate=0.5,
                    dscp1_fraction=config.background_share,
                    stop_at=stop,
                    flow_prefix=f"bg-tcp-{which}",
                )

    def run(self):
        elapsed = WARMUP + self.config.duration + DRAIN
        self.sim.run(until=elapsed)
        if _obs.ENABLED:
            # Aggregates (utilization, occupancy, delay) come from the
            # statistics the simulator keeps anyway -- one harvest per
            # run, zero per-packet cost.
            harvest_topology(_obs.SINK, self.topology, elapsed)
            if self.config.fidelity == "hybrid":
                harvest_fluid(_obs.SINK, self.topology)

    @property
    def ack_jitter_rng(self):
        return self.rngs[5]

    def loss_estimator(self):
        config = self.config
        if config.overcount_rate > 0 or config.registration_jitter > 0:
            return RetransmissionLossEstimator(
                config.overcount_rate, config.registration_jitter, self.rngs[4]
            )
        return RetransmissionLossEstimator()


class SimultaneousRunResult(SimultaneousReplayResult):
    """Simultaneous-replay outputs plus the per-path health metrics
    used by Figures 5 and 7."""

    def __init__(
        self,
        samples_1,
        samples_2,
        measurements_1,
        measurements_2,
        retx_rate_1=0.0,
        retx_rate_2=0.0,
        queuing_delay_1=0.0,
        queuing_delay_2=0.0,
        mean_throughput_1=0.0,
        mean_throughput_2=0.0,
    ):
        super().__init__(samples_1, samples_2, measurements_1, measurements_2)
        self.retx_rate_1 = retx_rate_1
        self.retx_rate_2 = retx_rate_2
        self.queuing_delay_1 = queuing_delay_1
        self.queuing_delay_2 = queuing_delay_2
        self.mean_throughput_1 = mean_throughput_1
        self.mean_throughput_2 = mean_throughput_2

    @property
    def mean_retx_rate(self):
        return (self.retx_rate_1 + self.retx_rate_2) / 2.0

    @property
    def mean_queuing_delay(self):
        return (self.queuing_delay_1 + self.queuing_delay_2) / 2.0


def _prepare_trace(trace, rng, modified):
    """Apply WeHeY's Section-3.4 modifications (or not, for ablations)."""
    if modified and trace.protocol == "udp":
        return poissonize(trace, rng)
    return trace


class NetsimReplayService:
    """Replay service over the simulator for one scenario.

    ``fault_injector`` (a :class:`~repro.faults.FaultInjector`) makes
    the service fail the way real WeHe servers do: replays abort before
    delivering data, sample series arrive truncated, and loss logs
    arrive corrupted.  Aborts raise :class:`ReplayAbortedError` *before*
    the simulator is built (the test never ran); truncation and
    corruption damage otherwise-complete results.
    """

    def __init__(self, config, entropy=0, merge_flows=False, fault_injector=None,
                 replay_ports=None, path_flap=None):
        self.config = config
        self._seed_seq = np.random.SeedSequence([config.seed, entropy])
        self._trace_rng = np.random.default_rng(self._seed_seq.spawn(1)[0])
        self.modified = True
        self.fault_injector = fault_injector
        # Section 7's remedy for per-flow throttling: make the two
        # simultaneous replays appear to belong to the same flow, so a
        # per-flow policer assigns them the same bucket.
        self.merge_flows = merge_flows
        # The multipath counterpart of merge_flows: client-chosen
        # ephemeral source ports, one per path.  An ECMP common device
        # hashes the replay five-tuples, so re-drawing these ports
        # (the coordinator's re-hash recovery) re-rolls which member
        # each replay lands on.  None keeps the derived default tuples.
        self.replay_ports = replay_ports
        # A repro.faults.PathFlapInjector armed once per replay run.
        self.path_flap = path_flap
        self.last_simultaneous_handles = None
        self.last_environment = None

    def _new_environment(self):
        env = _Environment(self.config, self._seed_seq.spawn(1)[0])
        self._register_ports(env)
        if self.path_flap is not None:
            self.path_flap.arm(
                env.sim, env.topology.link_c, WARMUP, self.config.duration
            )
        return env

    def _register_ports(self, env):
        """Pin the replay flows' five-tuples on a multipath common device."""
        if self.replay_ports is None:
            return
        register = getattr(env.topology.link_c, "register_flow", None)
        if register is None:
            return
        app = self.config.app
        proto = self.config.protocol
        for which, sport in zip((1, 2), self.replay_ports):
            for suffix in ("orig", "inv"):
                register(f"replay-{app}-{which}-{suffix}", sport, proto=proto)
        if self.merge_flows:
            register(f"replay-{app}-merged", self.replay_ports[0], proto=proto)

    def single_replay(self, trace):
        """WeHe's p0 replay; returns 100 throughput samples."""
        if maybe_fire(self.fault_injector, FaultSite.REPLAY_ABORT):
            raise ReplayAbortedError("single replay aborted")
        env = self._new_environment()
        trace = _prepare_trace(trace, self._trace_rng, self.modified)
        handle = attach_replay(
            env.sim,
            env.topology,
            1,
            trace,
            start_at=WARMUP,
            duration=self.config.duration,
            ack_jitter_rng=env.ack_jitter_rng,
        )
        env.run()
        samples = handle.throughput_samples()
        if maybe_fire(self.fault_injector, FaultSite.TRUNCATED_SAMPLES):
            samples = self.fault_injector.truncate_samples(samples)
        return samples

    def simultaneous_replay(self, trace):
        """Replay ``trace`` on p1 and p2 at (nearly) the same instant.

        Starts are only back-to-back client commands (Section 3.4), so
        the second replay begins a command-latency later -- drawn here
        between 20 and 100 ms, covering the RTT/startup spread of real
        server pairs.
        """
        if maybe_fire(self.fault_injector, FaultSite.REPLAY_ABORT):
            raise ReplayAbortedError("simultaneous replay aborted")
        env = self._new_environment()
        pacing = self.modified
        offset = float(self._trace_rng.uniform(0.02, 0.1))
        handles = []
        merged_id = f"replay-{trace.app}-merged" if self.merge_flows else None
        for which, start in ((1, WARMUP), (2, WARMUP + offset)):
            prepared = _prepare_trace(trace, self._trace_rng, self.modified)
            handle = attach_replay(
                env.sim,
                env.topology,
                which,
                prepared,
                start_at=start,
                duration=self.config.duration,
                flow_id=merged_id,
                ack_jitter_rng=env.ack_jitter_rng,
            )
            if prepared.protocol == "tcp":
                handle.sender.pacing = pacing
            handles.append(handle)
        env.run()
        # Kept for callers that need raw capture access after the run
        # (the shaper fingerprinter reads windowed loss/mark series the
        # summary statistics below throw away).
        self.last_simultaneous_handles = handles
        self.last_environment = env
        estimator = env.loss_estimator()
        h1, h2 = handles
        result = SimultaneousRunResult(
            samples_1=h1.throughput_samples(),
            samples_2=h2.throughput_samples(),
            measurements_1=h1.path_measurements(estimator),
            measurements_2=h2.path_measurements(estimator),
            retx_rate_1=h1.retransmission_rate(),
            retx_rate_2=h2.retransmission_rate(),
            queuing_delay_1=h1.queuing_delay(),
            queuing_delay_2=h2.queuing_delay(),
            mean_throughput_1=h1.mean_throughput(),
            mean_throughput_2=h2.mean_throughput(),
        )
        injector = self.fault_injector
        if maybe_fire(injector, FaultSite.TRUNCATED_SAMPLES):
            result.samples_1 = injector.truncate_samples(result.samples_1)
            result.samples_2 = injector.truncate_samples(result.samples_2)
        if maybe_fire(injector, FaultSite.CORRUPT_LOSS):
            injector.corrupt_measurements(result.measurements_1)
            injector.corrupt_measurements(result.measurements_2)
        return result


@dataclass(frozen=True)
class DetectionExperimentRecord:
    """One Section-6 experiment: detector verdicts plus health metrics.

    Frozen so records can cross process boundaries (the parallel sweep
    executor returns them from worker processes) without any risk of a
    consumer mutating shared state; ``status`` is ``"ok"`` for a
    completed cell and ``"aborted"`` when fault injection killed the
    replay before it produced measurements.
    """

    config: ScenarioConfig
    verdicts: dict = field(default_factory=dict)
    retx_rate: float = 0.0
    queuing_delay: float = 0.0
    loss_rate_1: float = 0.0
    loss_rate_2: float = 0.0
    differentiation_visible: bool = True
    status: str = "ok"

    def verdict(self, name):
        return self.verdicts[name]

    @property
    def aborted(self):
        return self.status == "aborted"


#: Below this per-path loss rate WeHe would likely not have flagged the
#: test (the paper excluded 41/360 such runs); see EXPERIMENTS.md.
MIN_VISIBLE_LOSS_RATE = 0.003


def run_detection_experiment(
    config,
    detectors=None,
    modified=True,
    entropy=0,
    merge_flows=False,
    fault_profile=None,
):
    """Run one FN/FP experiment cell.

    Generates the app's original trace, runs the original-trace
    simultaneous replay, and applies each detector to the resulting
    path measurements.  ``detectors`` maps name -> object with a
    ``detect(m1, m2)`` method (default: Algorithm 1); pass
    ``modified=False`` to replay unmodified traces (Figure 6's
    ablation).

    ``fault_profile`` (a spec string or :class:`~repro.faults.FaultProfile`)
    injects failures seeded from ``config.seed``, so the fault schedule
    of a cell depends only on the cell -- never on how many other cells
    ran before it or on which worker process it landed in.  An aborted
    replay returns a record with ``status="aborted"`` instead of
    raising, which keeps sweep result streams aligned with their
    config streams.
    """
    if detectors is None:
        detectors = {"loss_trend": LossTrendCorrelation()}
    injector = None
    if fault_profile is not None:
        if isinstance(fault_profile, str):
            injector = FaultInjector.from_spec(fault_profile, seed=config.seed)
        else:
            injector = FaultInjector(fault_profile, seed=config.seed)
    service = NetsimReplayService(
        config, entropy=entropy, merge_flows=merge_flows, fault_injector=injector
    )
    service.modified = modified
    trace = make_trace(config.app, config.duration, service._trace_rng)
    try:
        result = service.simultaneous_replay(trace)
    except ReplayAbortedError:
        if _obs.ENABLED:
            _obs.SINK.inc("runner.cells_aborted")
        return DetectionExperimentRecord(
            config=config,
            verdicts={},
            differentiation_visible=False,
            status="aborted",
        )

    verdicts = {}
    for name, detector in detectors.items():
        outcome = detector.detect(result.measurements_1, result.measurements_2)
        verdicts[name] = (
            outcome.common_bottleneck
            if hasattr(outcome, "common_bottleneck")
            else bool(outcome)
        )
    loss_1 = result.measurements_1.loss_rate
    loss_2 = result.measurements_2.loss_rate
    if _obs.ENABLED:
        _obs.SINK.inc("runner.cells_completed")
    return DetectionExperimentRecord(
        config=config,
        verdicts=verdicts,
        retx_rate=result.mean_retx_rate,
        queuing_delay=result.mean_queuing_delay,
        loss_rate_1=loss_1,
        loss_rate_2=loss_2,
        differentiation_visible=min(loss_1, loss_2) >= MIN_VISIBLE_LOSS_RATE,
    )
