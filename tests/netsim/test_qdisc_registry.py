"""Registry and protocol tests for ``repro.netsim.qdisc``."""

import pytest

from repro.netsim import qdisc as qd
from repro.netsim.packet import DATA, Packet
from repro.netsim.qdisc import (
    QdiscFidelityError,
    class_shaper_factory,
    make_qdisc,
    qdisc_spec,
    register,
    registered_qdiscs,
    standard_sizing,
    supports_fidelity,
)

ALL_MECHANISMS = (
    "codel",
    "conditional",
    "droptail",
    "dual_tbf",
    "ecn",
    "perflow",
    "pie",
    "red",
    "tbf",
)

#: Mechanisms with a fluid twin (buildable at fidelity="hybrid").
HYBRID_MECHANISMS = ("conditional", "droptail", "dual_tbf", "perflow", "tbf")


def packet(size=1500, dscp=1, flow="f"):
    return Packet(flow, DATA, 0, size, dscp=dscp)


class TestRegistry:
    def test_builtins_registered(self):
        assert registered_qdiscs() == ALL_MECHANISMS

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(ValueError, match="unknown qdisc 'fq_codel'"):
            qdisc_spec("fq_codel")

    def test_spec_metadata(self):
        spec = qdisc_spec("red")
        assert spec.seeded
        assert spec.doc
        assert qdisc_spec("codel").seeded is False

    def test_supports_fidelity(self):
        for name in ALL_MECHANISMS:
            assert supports_fidelity(name, "packet")
            assert supports_fidelity(name, "hybrid") == (
                name in HYBRID_MECHANISMS
            )

    def test_supports_fidelity_rejects_unknown_fidelity(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            supports_fidelity("tbf", "quantum")

    def test_reregistering_a_half_is_an_error(self):
        name = "_test_dup"
        try:
            register(name, packet=lambda: None)
            with pytest.raises(ValueError, match="already has a packet"):
                register(name, packet=lambda: None)
            # The other halves can still be attached afterwards.
            register(name, fluid=lambda: None, seeded=True, doc="x")
            assert qdisc_spec(name).seeded
        finally:
            qd._REGISTRY.pop(name, None)


class TestMakeQdisc:
    def test_builds_every_mechanism_at_packet_fidelity(self):
        for name in ALL_MECHANISMS:
            kwargs = (
                {"capacity_bytes": 100_000}
                if name == "droptail"
                else {"rate_bps": 2e6}
            )
            q = make_qdisc(name, **kwargs)
            assert len(q) == 0
            assert q.backlog_bytes == 0
            assert q.enqueue(packet(), 0.0)
            assert len(q) == 1

    def test_hybrid_twin_exists_only_where_declared(self):
        for name in HYBRID_MECHANISMS:
            if name == "droptail":
                make_qdisc(name, fidelity="hybrid", capacity_bytes=100_000)
            else:
                make_qdisc(name, fidelity="hybrid", rate_bps=2e6)
        for name in set(ALL_MECHANISMS) - set(HYBRID_MECHANISMS):
            with pytest.raises(QdiscFidelityError):
                make_qdisc(name, fidelity="hybrid", rate_bps=2e6)

    def test_bad_parameters_name_the_mechanism(self):
        with pytest.raises(ValueError, match="bad parameters for qdisc 'red'"):
            make_qdisc("red", rate_bps=2e6, nonsense=1)

    def test_unknown_fidelity_raises(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            make_qdisc("tbf", fidelity="quantum", rate_bps=2e6)

    def test_mechanism_params_reach_the_device(self):
        device = make_qdisc("red", rate_bps=2e6, max_p=0.5)
        assert device.tbf.max_p == 0.5


class TestClassShaperFactory:
    def test_unseeded_factory_builds_fresh_instances(self):
        build = class_shaper_factory("tbf", 1e6, 5000, 10_000)
        a, b = build(), build()
        assert a is not b
        assert a.burst_bytes == 5000

    def test_seeded_factory_derives_distinct_seeds(self):
        build = class_shaper_factory("red", 1e6, 5000, 100_000, seed=3)
        a, b = build(), build()
        # Same construction params, different derived RNG streams.
        assert a._rng.random() != b._rng.random()
        # And the derivation is reproducible across factories.
        again = class_shaper_factory("red", 1e6, 5000, 100_000, seed=3)()
        c = class_shaper_factory("red", 1e6, 5000, 100_000, seed=3)()
        assert again._rng.random() == c._rng.random()

    def test_droptail_cannot_be_a_class_shaper(self):
        with pytest.raises(ValueError, match="per-flow bucket"):
            class_shaper_factory("droptail", 1e6, 5000, 10_000)


class TestStandardSizing:
    def test_paper_rule(self):
        burst, limit = standard_sizing(10e6, 0.04, 0.5)
        assert burst == int(10e6 * 0.04 / 8.0)
        assert limit == int(0.5 * burst)

    def test_floors(self):
        burst, limit = standard_sizing(1e3, 0.001, 0.01)
        assert burst == 3000
        assert limit == 1600

