"""The formal qdisc protocol and the shaper registry.

Every queueing discipline in ``repro.netsim`` implements the same small
contract, consumed by :class:`~repro.netsim.link.Link`:

- ``enqueue(packet, now) -> bool`` -- False means the packet was
  dropped at arrival.
- ``dequeue(now) -> (packet | None, wake | None)`` -- the next packet
  to transmit; ``(None, t)`` means a packet exists but is not yet
  eligible (retry at ``t``); ``(None, None)`` means empty.
- ``__len__`` -- number of queued packets.
- ``backlog_bytes`` -- bytes currently queued.

plus the statistics the experiment harness reads (``drops``,
``drops_bytes``, ``enqueued``, ``mean_delay``).  There is one family
of disciplines: each hybrid-fidelity discipline in
:mod:`repro.netsim.fluid` is a subclass of its packet discipline plus
a slotless virtual-backlog mixin, and additionally exposes
``set_service_rate`` / ``set_source_rate`` / ``fluid_stats``.

This module makes the contract explicit (:class:`Qdisc`) and provides a
seeded registry so topologies, scenario configs, and the CLI can name a
shaper mechanism (``"tbf"``, ``"red"``, ``"codel"``, ``"pie"``,
``"dual_tbf"``, ``"conditional"``, ``"ecn"``, ...) instead of importing
concrete classes.  Mechanisms are *orthogonal* to placement: a
:class:`~repro.experiments.scenarios.ScenarioConfig` picks where the
limiter sits (``limiter``) and separately what device it is
(``shaper``); :func:`check_deployment` is the one rule for which
combinations exist at which fidelity.

Registered device factories share a keyword vocabulary: rate-limiting
mechanisms take ``rate_bps``, ``rtt_s``, ``queue_factor`` and
``fifo_capacity`` (the sizing knobs of Appendix C.1) plus
mechanism-specific parameters; ``"droptail"`` takes ``capacity_bytes``.
Randomized mechanisms (RED's and PIE's drop draws) declare
``seeded=True`` and accept a ``seed`` parameter so every run is
reproducible.
"""


class QdiscFidelityError(ValueError):
    """Raised when a mechanism has no twin for the requested fidelity."""


class Qdisc:
    """Protocol base class for queueing disciplines.

    Subclasses keep ``__slots__`` economics (this base declares none)
    and must implement the four core methods below.  Statistics
    attributes (``drops``, ``drops_bytes``, ``enqueued``,
    ``mean_delay``) are part of the informal contract but are left to
    subclasses, which typically back them with plain slots.
    """

    __slots__ = ()

    def enqueue(self, packet, now):
        """Accept or drop ``packet`` arriving at ``now``; True = accepted."""
        raise NotImplementedError

    def dequeue(self, now):
        """Return ``(packet, None)``, ``(None, wake_time)`` or ``(None, None)``."""
        raise NotImplementedError

    def __len__(self):
        raise NotImplementedError

    @property
    def backlog_bytes(self):
        raise NotImplementedError


class QdiscSpec:
    """One registry entry: factories for each fidelity plus metadata.

    ``packet`` and ``fluid`` build the full limiter *device* (for the
    rate-limiting mechanisms: classifier + FIFO + shaper + scheduler).
    ``shaper`` builds the bare throttled-class queue
    (``shaper(rate_bps, burst_bytes, limit_bytes, **params)``) and is
    what the per-flow device composes per flow bucket.
    """

    __slots__ = ("name", "packet", "fluid", "shaper", "seeded", "doc")

    def __init__(self, name):
        self.name = name
        self.packet = None
        self.fluid = None
        self.shaper = None
        self.seeded = False
        self.doc = ""


_REGISTRY = {}
_BUILTINS_LOADED = False


def register(name, *, packet=None, fluid=None, shaper=None, seeded=False, doc=None):
    """Register (or extend) a qdisc mechanism under ``name``.

    Modules register themselves at import time; the packet and fluid
    halves of one mechanism may be registered from different modules
    (``token_bucket.py`` registers the packet ``"tbf"`` device,
    ``fluid.py`` attaches its fluid twin).  Re-registering a half that
    already exists is an error -- it would silently change behaviour.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        spec = QdiscSpec(name)
        _REGISTRY[name] = spec
    for attr, value in (("packet", packet), ("fluid", fluid), ("shaper", shaper)):
        if value is not None:
            if getattr(spec, attr) is not None:
                raise ValueError(f"qdisc {name!r} already has a {attr} factory")
            setattr(spec, attr, value)
    if seeded:
        spec.seeded = True
    if doc:
        spec.doc = doc
    return spec


def _ensure_builtins():
    """Import the modules that register the built-in disciplines."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.netsim.queues  # noqa: F401  (registers droptail)
    import repro.netsim.token_bucket  # noqa: F401  (registers tbf)
    import repro.netsim.per_flow  # noqa: F401  (registers perflow)
    import repro.netsim.shapers  # noqa: F401  (registers the zoo)
    import repro.netsim.fluid  # noqa: F401  (attaches fluid twins)


def registered_qdiscs():
    """Sorted names of every registered mechanism."""
    _ensure_builtins()
    return tuple(sorted(_REGISTRY))


def qdisc_spec(name):
    """The :class:`QdiscSpec` for ``name`` (raises ValueError if unknown)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown qdisc {name!r} (known: {known})") from None


def supports_fidelity(name, fidelity):
    """True when mechanism ``name`` can be built at ``fidelity``."""
    spec = qdisc_spec(name)
    if fidelity == "packet":
        return spec.packet is not None
    if fidelity == "hybrid":
        return spec.fluid is not None
    raise ValueError(f"unknown fidelity {fidelity!r}")


def check_deployment(shaper, limiter, fidelity):
    """Raise ValueError unless ``shaper`` can sit at ``limiter`` at ``fidelity``.

    The one placement x mechanism x fidelity rule, shared by the
    scenario and topology configs so a bad combination fails when the
    config is built instead of inside a sweep worker.  Per-flow
    placement needs the mechanism's bare class-shaper half, and its
    hybrid twin has default tbf buckets only; elsewhere the mechanism
    needs a device at the requested fidelity (the AQMs are
    packet-only).  Fidelity mismatches raise
    :class:`QdiscFidelityError`.
    """
    spec = qdisc_spec(shaper)  # raises on unknown mechanisms
    if limiter is None:
        raise ValueError("shaper requires a limiter placement")
    if limiter == "perflow":
        if spec.shaper is None:
            raise ValueError(f"shaper {shaper!r} cannot be used per-flow")
        if fidelity == "hybrid" and shaper != "tbf":
            raise QdiscFidelityError(f"fluid per-flow has no {shaper!r} twin")
    elif not supports_fidelity(shaper, fidelity):
        raise QdiscFidelityError(
            f"shaper {shaper!r} has no {fidelity} implementation "
            "(AQMs are packet-only)"
        )


def make_qdisc(name, fidelity="packet", **params):
    """Build a registered queueing discipline.

    ``fidelity="packet"`` builds the exact per-packet device;
    ``"hybrid"`` builds its fluid twin (raises
    :class:`QdiscFidelityError` for mechanisms without one -- the AQMs'
    drop processes depend on instantaneous queue state in a way the
    closed-form fluid integration cannot reproduce).
    """
    spec = qdisc_spec(name)
    if fidelity == "packet":
        factory = spec.packet
    elif fidelity == "hybrid":
        factory = spec.fluid
    else:
        raise ValueError(f"unknown fidelity {fidelity!r}")
    if factory is None:
        raise QdiscFidelityError(
            f"qdisc {name!r} has no {fidelity} implementation"
        )
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for qdisc {name!r}: {exc}") from exc


def class_shaper_factory(name, rate_bps, burst_bytes, limit_bytes, seed=0, **params):
    """A zero-argument factory of bare class shapers (per-flow buckets).

    Seeded mechanisms get a distinct derived seed per bucket in creation
    order, so per-flow RED/PIE instances stay reproducible without
    sharing one RNG stream.
    """
    spec = qdisc_spec(name)
    if spec.shaper is None:
        raise ValueError(f"qdisc {name!r} cannot be used as a per-flow bucket")
    if spec.seeded:
        counter = iter(range(1 << 30))

        def build():
            return spec.shaper(
                rate_bps, burst_bytes, limit_bytes,
                seed=seed + 1009 * next(counter), **params
            )

        return build

    def build():
        return spec.shaper(rate_bps, burst_bytes, limit_bytes, **params)

    return build


def standard_sizing(rate_bps, rtt_s, queue_factor):
    """The paper's TBF sizing: burst = rate x RTT, limit = factor x burst."""
    burst = max(int(rate_bps * rtt_s / 8.0), 3000)
    limit = max(int(queue_factor * burst), 1600)
    return burst, limit
