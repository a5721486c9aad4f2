"""The paper's Figure-1 topology.

Two paths, ``p1 = (l1, lc)`` and ``p2 = (l2, lc)``, start at different
servers, converge exactly once, and the convergence -- the common link
sequence ``lc`` -- is inside the target network area (the client's ISP).
The WeHe reference path ``p0 = (l0, lc)`` from a third (or the same)
server is also available for the single replay.

The rate limiter can sit on ``lc`` (the scenario WeHeY must detect) or
one copy on each of ``l1``/``l2`` (the adversarial false-positive
scenario of Table 5).  *Where* the limiter sits (``limiter``) is
orthogonal to *what* it is (``shaper``): any mechanism registered with
:mod:`repro.netsim.qdisc` -- tbf, red, codel, pie, dual_tbf,
conditional, ecn, ... -- can be deployed at any placement, with
mechanism parameters passed through ``shaper_params``.
"""

from dataclasses import dataclass, field

from repro.netsim.link import Link
from repro.netsim.multipath import MultipathLink, shaped_member_subset
from repro.netsim.path import DirectPath, Path
from repro.netsim.qdisc import check_deployment, make_qdisc, qdisc_spec


@dataclass
class TopologyConfig:
    """Knobs for a Figure-1 instance (defaults match Table 2's bold values).

    Rates are bits/s, times are seconds.  ``limiter`` is ``"common"``,
    ``"noncommon"``, ``"perflow"`` or ``None``.  ``queue_factor`` is the
    TBF queue size as a multiple of the burst (0.25 / 0.5 / 1 in
    Table 2).  ``noncommon_bandwidth_bps`` lets Table 4's congestion
    experiments squeeze ``l1``/``l2``.

    ``shaper`` selects the rate-limiting *mechanism* deployed at the
    ``limiter`` placement (default ``"tbf"``, the paper's device);
    ``shaper_params`` is a tuple of ``(name, value)`` pairs forwarded to
    the registered factory, and ``shaper_seed`` seeds randomized
    mechanisms (RED/PIE draws), with each limiter instance getting a
    distinct derived seed.
    """

    common_bandwidth_bps: float = 100e6
    common_delay_s: float = 0.002
    noncommon_bandwidth_bps: float = 100e6
    rtt_1: float = 0.035
    rtt_2: float = 0.035
    limiter: str = None
    limiter_rate_bps: float = 4e6
    queue_factor: float = 0.5
    queue_capacity_bytes: int = 400_000
    extra_server_rtts: tuple = field(default_factory=tuple)
    #: ``"packet"`` builds the exact per-packet qdiscs; ``"hybrid"``
    #: builds their fluid twins so background load can arrive as a rate
    #: process (see :mod:`repro.netsim.fluid`).
    fidelity: str = "packet"
    shaper: str = None
    shaper_params: tuple = ()
    shaper_seed: int = 0
    #: ECMP bundle width of the common device: 0 builds the classic
    #: single ``lc`` link, N >= 1 builds a :class:`MultipathLink` with
    #: N members (each member keeps the full per-member bandwidth, so
    #: the bundle's aggregate capacity is N x ``common_bandwidth_bps``).
    multipath_members: int = 0
    #: flowlet re-hash gap (seconds); None = sticky ECMP.
    flowlet_gap_s: float = None
    #: how many members carry the limiter (None = all of them); the
    #: subset is a seeded draw, so a deployment that shapes only part
    #: of the bundle is reproducible per seed.
    multipath_shaped: int = None
    #: ECMP hash seed of the bundle.
    multipath_seed: int = 0

    def __post_init__(self):
        if self.limiter not in (None, "common", "noncommon", "perflow"):
            raise ValueError(f"unknown limiter placement {self.limiter!r}")
        if self.fidelity not in ("packet", "hybrid"):
            raise ValueError(f"unknown fidelity {self.fidelity!r}")
        for name in ("rtt_1", "rtt_2"):
            rtt = getattr(self, name)
            if rtt <= 2 * self.common_delay_s:
                raise ValueError(f"{name}={rtt} too small for common delay")
        if self.shaper is not None:
            check_deployment(self.shaper, self.limiter, self.fidelity)
        if self.shaper_params and self.shaper is None:
            raise ValueError("shaper_params requires a shaper")
        if self.multipath_members < 0:
            raise ValueError("multipath_members must be non-negative")
        if self.multipath_members:
            if self.fidelity != "packet":
                # The fluid twins model one queue per link; a bundle's
                # per-member hashing has no fluid counterpart (yet).
                raise ValueError("multipath requires fidelity='packet'")
            if self.multipath_shaped is not None and not (
                1 <= self.multipath_shaped <= self.multipath_members
            ):
                raise ValueError(
                    "multipath_shaped must be in [1, multipath_members]"
                )
        else:
            if self.flowlet_gap_s is not None:
                raise ValueError("flowlet_gap_s requires multipath_members >= 1")
            if self.multipath_shaped is not None:
                raise ValueError("multipath_shaped requires multipath_members >= 1")
        if self.flowlet_gap_s is not None and self.flowlet_gap_s <= 0:
            raise ValueError("flowlet_gap_s must be positive")


class FigureOneTopology:
    """Builds and owns the links of a Figure-1 experiment."""

    def __init__(self, sim, config):
        self.sim = sim
        self.config = config

        mean_rtt = (config.rtt_1 + config.rtt_2) / 2.0
        self._limiter_index = 0
        self._common_limiter_qdiscs = []
        if config.multipath_members:
            # The common device is an ECMP bundle: each member gets its
            # own qdisc instance (distinct derived seeds for randomized
            # mechanisms), and only the seeded ``multipath_shaped``
            # subset carries the limiter -- the rest are plain FIFOs.
            # The deployment's shaped capacity is split evenly across
            # the shaped members, so the Section-6.2 load definition
            # (input at ``input_rate_factor`` times the limiter rate)
            # still holds per member when flows spread evenly; per-flow
            # policers keep their full per-flow rate, which hashing
            # cannot dilute.
            shaped = set(
                shaped_member_subset(
                    config.multipath_members,
                    config.multipath_members
                    if config.multipath_shaped is None
                    else config.multipath_shaped,
                    config.multipath_seed,
                )
            )
            member_rate = None
            if config.limiter == "common":
                member_rate = config.limiter_rate_bps / len(shaped)
            member_qdiscs = [
                self._common_qdisc(mean_rtt, rate_bps=member_rate)
                if index in shaped
                else self._make_plain()
                for index in range(config.multipath_members)
            ]
            self.link_c = MultipathLink(
                sim,
                "lc",
                config.common_bandwidth_bps,
                config.common_delay_s,
                member_qdiscs,
                seed=config.multipath_seed,
                flowlet_gap_s=config.flowlet_gap_s,
            )
        else:
            self.link_c = Link(
                sim,
                "lc",
                config.common_bandwidth_bps,
                config.common_delay_s,
                self._common_qdisc(mean_rtt),
            )

        self.noncommon_links = []
        self._rtts = []
        rtts = [config.rtt_1, config.rtt_2] + list(config.extra_server_rtts)
        for i, rtt in enumerate(rtts, start=1):
            if config.limiter == "noncommon":
                qdisc = self._make_limiter(config.shaper or "tbf", rtt)
            else:
                qdisc = self._make_plain()
            forward_delay = max(rtt / 2.0 - config.common_delay_s, 1e-4)
            link = Link(
                sim,
                f"l{i}",
                config.noncommon_bandwidth_bps,
                forward_delay,
                qdisc,
            )
            self.noncommon_links.append(link)
            self._rtts.append(rtt)

        self.link_1 = self.noncommon_links[0]
        self.link_2 = self.noncommon_links[1]

    def _common_qdisc(self, mean_rtt, rate_bps=None):
        """One common-device qdisc instance per the limiter placement."""
        config = self.config
        if config.limiter == "common":
            qdisc = self._make_limiter(
                config.shaper or "tbf", mean_rtt, rate_bps=rate_bps
            )
        elif config.limiter == "perflow":
            qdisc = self._make_perflow(mean_rtt)
        else:
            return self._make_plain()
        self._common_limiter_qdiscs.append(qdisc)
        return qdisc

    def _make_plain(self):
        return make_qdisc(
            "droptail",
            fidelity=self.config.fidelity,
            capacity_bytes=self.config.queue_capacity_bytes,
        )

    def _shaper_kwargs(self, mechanism):
        """Mechanism params, plus a derived per-instance seed if needed."""
        params = dict(self.config.shaper_params)
        if qdisc_spec(mechanism).seeded:
            # Each limiter instance (noncommon placement builds several)
            # gets its own derived seed, in construction order.
            params.setdefault(
                "seed", self.config.shaper_seed + 1009 * self._limiter_index
            )
            self._limiter_index += 1
        return params

    def _make_limiter(self, mechanism, rtt, rate_bps=None):
        config = self.config
        return make_qdisc(
            mechanism,
            fidelity=config.fidelity,
            rate_bps=config.limiter_rate_bps if rate_bps is None else rate_bps,
            rtt_s=rtt,
            queue_factor=config.queue_factor,
            fifo_capacity=config.queue_capacity_bytes,
            **self._shaper_kwargs(mechanism),
        )

    def _make_perflow(self, rtt):
        config = self.config
        kwargs = {}
        if config.shaper is not None and config.shaper != "tbf":
            kwargs["shaper"] = config.shaper
            kwargs.update(self._shaper_kwargs(config.shaper))
            kwargs.setdefault("seed", config.shaper_seed)
        else:
            kwargs.update(dict(config.shaper_params))
        return make_qdisc(
            "perflow",
            fidelity=config.fidelity,
            rate_bps=config.limiter_rate_bps,
            rtt_s=rtt,
            queue_factor=config.queue_factor,
            fifo_capacity=config.queue_capacity_bytes,
            **kwargs,
        )

    def rtt(self, which):
        """Configured RTT of path ``which`` (1-based)."""
        return self._rtts[which - 1]

    def forward_path(self, which, sink):
        """Forward path from server ``which`` to the client sink."""
        return Path([self.noncommon_links[which - 1], self.link_c], sink)

    def reverse_path(self, which, sink, jitter=None):
        """Uncongested reverse (ACK) path for server ``which``."""
        return DirectPath(self.sim, self._rtts[which - 1] / 2.0, sink, jitter=jitter)

    @property
    def limiter_qdisc(self):
        """The rate-limiting qdisc on ``lc``, if any.

        For a multipath common device there is one limiter instance per
        shaped member; this returns the first (see
        :attr:`limiter_qdiscs` for all of them).
        """
        if self.config.limiter in ("common", "perflow"):
            if self._common_limiter_qdiscs:
                return self._common_limiter_qdiscs[0]
        return None

    @property
    def limiter_qdiscs(self):
        """Every limiter qdisc instance on the common device."""
        return tuple(self._common_limiter_qdiscs)
