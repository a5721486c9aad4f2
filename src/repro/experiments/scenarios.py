"""Experiment scenarios -- the knobs of the paper's Table 2.

A :class:`ScenarioConfig` fully determines one emulation/simulation
experiment: the replayed application, where the rate limiter sits, how
hard it throttles (the ``input_rate_factor``: traffic arrives at the
limiter at 1.3x / 1.5x / 2x / 2.5x its rate), how deep its queue is
(0.25x / 0.5x / 1x the burst), what share of the background traffic
competes inside the limiter (25 / 50 / 75 %), the two path RTTs, and
how congested the non-common links are (input-traffic / bandwidth of
0.2 default, 0.95 / 1.05 / 1.15 for Table 4).

Rates are scaled to simulator-friendly magnitudes; the *ratios* (which
is what the evaluation sweeps) match the paper.
"""

from dataclasses import dataclass, replace

from repro.wehe.apps import APP_SPECS

#: Paper parameter grids (Table 2); bold defaults first.
INPUT_RATE_FACTORS = (1.5, 1.3, 2.0, 2.5)
QUEUE_FACTORS = (0.5, 0.25, 1.0)
BACKGROUND_SHARES = (0.5, 0.25, 0.75)
CONGESTION_FACTORS = (0.2, 0.95, 1.05, 1.15)
RTT2_SWEEP = (0.010, 0.015, 0.025, 0.035, 0.060, 0.120)


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment's parameters (defaults = Table 2 bold values)."""

    app: str = "netflix"
    limiter: str = "common"  # "common", "noncommon", "perflow", or None
    input_rate_factor: float = 1.5
    queue_factor: float = 0.5
    background_share: float = 0.5
    background_rate_bps: float = 20e6
    tcp_background_flows: int = 2
    rtt_1: float = 0.035
    rtt_2: float = 0.035
    congestion_factor: float = 0.2
    duration: float = 60.0
    #: override the background modulation components (ablation knob);
    #: None uses repro.netsim.background.DEFAULT_MODULATION.
    background_modulation: tuple = None
    seed: int = 0
    #: extra loss-measurement noise (see RetransmissionLossEstimator)
    overcount_rate: float = 0.0
    registration_jitter: float = 0.0
    #: ``"packet"`` simulates every background packet exactly;
    #: ``"hybrid"`` replaces background traffic with the calibrated
    #: fluid model of :mod:`repro.netsim.fluid` (only foreground
    #: replay packets and ACKs remain exact DES events).  Part of the
    #: store cache key -- records from the two fidelities never alias.
    fidelity: str = "packet"
    #: rate-limiting *mechanism* deployed at the ``limiter`` placement
    #: (orthogonal knobs: ``limiter`` says where, ``shaper`` says what).
    #: None means the paper's default token-bucket device; any name from
    #: :func:`repro.netsim.qdisc.registered_qdiscs` works ("red",
    #: "codel", "pie", "dual_tbf", "conditional", "ecn", ...).  Part of
    #: the cache key when set; omitted at the default so pre-shaper
    #: records keep their keys.
    shaper: str = None
    #: mechanism parameters as a tuple of ``(name, value)`` pairs
    #: (hashable, so configs stay frozen/hashable).
    shaper_params: tuple = ()
    #: ECMP member count of the ISP's common device (0 = the classic
    #: single common link).  With N >= 2 members the two simultaneous
    #: replays co-hash onto one member with probability 1/N -- the
    #: common-bottleneck assumption becomes probabilistic.  Part of the
    #: cache key when set; omitted at the default so every
    #: pre-multipath record keeps its key.
    multipath: int = 0
    #: flowlet re-hash gap in seconds (LetFlow-style switching); None
    #: keeps classic sticky ECMP.  Requires ``multipath >= 1``.
    flowlet_gap_s: float = None
    #: how many bundle members carry the limiter (None = all); the
    #: subset is a seeded draw per scenario seed.
    multipath_shaped: int = None

    def __post_init__(self):
        if self.app not in APP_SPECS:
            raise ValueError(f"unknown app {self.app!r}")
        if self.limiter not in (None, "common", "noncommon", "perflow"):
            raise ValueError(f"unknown limiter placement {self.limiter!r}")
        if self.fidelity not in ("packet", "hybrid"):
            raise ValueError(f"unknown fidelity {self.fidelity!r}")
        if self.input_rate_factor <= 1.0 and self.limiter is not None:
            raise ValueError("input_rate_factor must exceed 1 for throttling to bite")
        if not 0.0 <= self.background_share <= 1.0:
            raise ValueError("background_share must be in [0, 1]")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.shaper_params and self.shaper is None:
            raise ValueError("shaper_params requires a shaper")
        if self.shaper is not None:
            from repro.netsim.qdisc import check_deployment

            check_deployment(self.shaper, self.limiter, self.fidelity)
            object.__setattr__(
                self,
                "shaper_params",
                tuple(tuple(pair) for pair in self.shaper_params),
            )
        if self.multipath < 0:
            raise ValueError("multipath must be non-negative")
        if self.multipath:
            if self.fidelity != "packet":
                raise ValueError("multipath requires fidelity='packet'")
            if self.flowlet_gap_s is not None and self.flowlet_gap_s <= 0:
                raise ValueError("flowlet_gap_s must be positive")
            if self.multipath_shaped is not None and not (
                1 <= self.multipath_shaped <= self.multipath
            ):
                raise ValueError("multipath_shaped must be in [1, multipath]")
        else:
            if self.flowlet_gap_s is not None:
                raise ValueError("flowlet_gap_s requires multipath >= 1")
            if self.multipath_shaped is not None:
                raise ValueError("multipath_shaped requires multipath >= 1")

    @property
    def protocol(self):
        return APP_SPECS[self.app].protocol

    @property
    def replay_rate_bps(self):
        """Nominal offered rate of one original replay."""
        return APP_SPECS[self.app].rate_bps

    @property
    def limiter_rate_bps(self):
        """Throttling rate such that the simultaneous replay plus the
        throttled background share arrives at ``input_rate_factor`` times
        the rate (Section 6.2's load definition)."""
        offered = (
            2.0 * self.replay_rate_bps
            + self.background_share * self.background_rate_bps
        )
        if self.limiter == "noncommon":
            # Each of the two limiters sees one replay and half of the
            # background aggregate.
            offered = (
                self.replay_rate_bps
                + self.background_share * self.background_rate_bps / 2.0
            )
        elif self.limiter == "perflow":
            # Per-flow policers: each flow is individually held below
            # its own offered rate.
            offered = self.replay_rate_bps
        return offered / self.input_rate_factor

    @property
    def noncommon_bandwidth_bps(self):
        """Link bandwidth of l1/l2 given the Table-2 congestion factor."""
        input_rate = self.replay_rate_bps + self.background_rate_bps / 2.0
        return input_rate / self.congestion_factor

    def with_(self, **changes):
        """Functional update (convenience for sweeps)."""
        return replace(self, **changes)


def severity_grid(app, seeds, factors=INPUT_RATE_FACTORS, queues=QUEUE_FACTORS):
    """The Section-6.2 grid: rate factor x queue factor x seeds."""
    for factor in factors:
        for queue in queues:
            for seed in seeds:
                yield ScenarioConfig(
                    app=app,
                    input_rate_factor=factor,
                    queue_factor=queue,
                    seed=seed,
                )


def rtt_grid(app, seeds, rtts=RTT2_SWEEP, **common):
    """The Table-3 grid: asymmetric path RTTs x seeds."""
    for rtt_2 in rtts:
        for seed in seeds:
            yield ScenarioConfig(app=app, rtt_2=rtt_2, seed=seed, **common)


def congestion_grid(app, seeds, factors=CONGESTION_FACTORS, **common):
    """The Table-4 grid: non-common-link congestion x seeds."""
    for factor in factors:
        for seed in seeds:
            yield ScenarioConfig(
                app=app, congestion_factor=factor, seed=seed, **common
            )


def multipath_grid(app, seeds, member_counts=(1, 2, 4), flowlet_gaps=(None,),
                   **common):
    """The ECMP confounder grid: member count x flowlet gap x seeds.

    ``member_counts`` sets the hash-collision probability axis (the two
    replays co-hash with probability 1/N); ``flowlet_gaps`` adds the
    mid-test flowlet-split axis (None = sticky ECMP).
    """
    for members in member_counts:
        for gap in flowlet_gaps:
            for seed in seeds:
                yield ScenarioConfig(
                    app=app,
                    multipath=members,
                    flowlet_gap_s=gap,
                    seed=seed,
                    **common,
                )


def seed_sweep(base_config, seeds):
    """One cell replicated across seeds (the FN/FP rate estimator).

    Every sweep generator in this module yields plain configs; feed the
    list to :func:`repro.api.run_sweep` to execute it on
    all cores, or iterate it serially -- results are identical either
    way.
    """
    for seed in seeds:
        yield base_config.with_(seed=seed)
