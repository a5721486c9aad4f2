"""Golden record digests: the byte-identity contract of the qdisc family.

Every cell runs one 5 s detection experiment at seed 7 and hashes its
canonical record line.  The digests were pinned before the fluid qdiscs
were folded into their packet classes, so any change to drop, delay or
wake behaviour in either fidelity -- packet or hybrid -- shows up here
as a digest mismatch.

The cells cover every limiter placement (none, common, noncommon,
perflow) plus the two shapers with a hybrid twin, with parameters
chosen so their distinctive paths run: the dual-TBF peak bucket defers
(its small ``peak_factor`` and ``boost_bytes``) and the conditional
trigger trips (its 1 MB ``trigger_bytes``).  Each cell also runs under
a :class:`~repro.obs.metrics.MetricsSink` (observability never changes
a record byte), so the test can check that the hybrid cells actually
exercise the fluid deferral path they pin.
"""

import hashlib

import pytest

from repro.experiments.runner import run_detection_experiment
from repro.experiments.scenarios import ScenarioConfig
from repro.obs.metrics import MetricsSink, use_sink
from repro.store.serialize import record_line

DUAL_TBF_PARAMS = (("boost_bytes", 200000.0), ("peak_factor", 1.2))
CONDITIONAL_PARAMS = (("trigger_bytes", 1e6),)

#: cell name -> (limiter, shaper, shaper_params)
CELLS = {
    "none": (None, None, ()),
    "common": ("common", None, ()),
    "noncommon": ("noncommon", None, ()),
    "perflow": ("perflow", None, ()),
    "dual_tbf": ("common", "dual_tbf", DUAL_TBF_PARAMS),
    "conditional": ("common", "conditional", CONDITIONAL_PARAMS),
}

#: (app, fidelity, cell) -> SHA-256 of record_line(record)
GOLDEN = {
    ("zoom", "packet", "none"): "0932d1fc975c042d20c50872a6b2596b3e5b3278ffbc1d013ce093e6aedd5421",
    ("zoom", "packet", "common"): "1a8c505c8e059b01eea11b097e8095dc49bfc72dad076e37bc46952adb38d389",
    ("zoom", "packet", "noncommon"): "61804ea43eee84a2c29d675fe851a9925c083dd72e812128ecdcc56b1a633b61",
    ("zoom", "packet", "perflow"): "f3359441fbc7b8e8bbb998366254fb866623cba4858300cfb449d78df405bbce",
    ("zoom", "packet", "dual_tbf"): "b2e137e50248b29fd54a1449b885403554339856e6bf0ed853f6a6784a3c5aca",
    ("zoom", "packet", "conditional"): "fcfd5aad1b348ee593079082f307d9752242a3ccfc1266a76794d209c798d0aa",
    ("zoom", "hybrid", "none"): "8a2dada82daa04b8e208428b47b2b8d8cb5786da815a46509029c0d82e6a7119",
    ("zoom", "hybrid", "common"): "98c757de73c9ab85cb802297d587f5c833c5ff45a865a3cc45900d6c76816b0f",
    ("zoom", "hybrid", "noncommon"): "31d2c3c334db322bfd64992ebc7a7baf702e56b273d04a167e7315056a3bac5a",
    ("zoom", "hybrid", "perflow"): "cfc516bafad3c40b678adab94db001e3304dbcd7707ad57cc1720c0616feb8cf",
    ("zoom", "hybrid", "dual_tbf"): "1c8541cdeb9d625526e9c228c70e1bb173159a336f91c662928963f0f7e04488",
    ("zoom", "hybrid", "conditional"): "2a0fc9272b572c2229b329669d7310bf27e12785ce47423cd589a1458e41f362",
    ("netflix", "packet", "none"): "9680548d15a484e9896c63973b51b9bc0fdaa0b6d57a0b80bbae446e724eac83",
    ("netflix", "packet", "common"): "c7655c37a35361fd46808699fedc725d88f21344d55b3188e74b6708dd80f5b1",
    ("netflix", "packet", "noncommon"): "7c6bbe0c194568377a8c354cf5812477b8cff3917fe30fe0519aef05a149f54d",
    ("netflix", "packet", "perflow"): "8d75d028eda405f40a3345dbace4ef820341c7dbf20f4dff862694cb594f51f8",
    ("netflix", "packet", "dual_tbf"): "99c4e122e07d70bc09f89522ea184224353f06ca6f8d170a906e2baf7a3cf05f",
    ("netflix", "packet", "conditional"): "58f94c2651229ee06a3d9d4d7ed4d24144d0dcc998466c7a4b70328bf0808cad",
    ("netflix", "hybrid", "none"): "593a947df71b2ed9d7658d65da7d0a73d4dcc3c5541073a12def072ccf3bfc3d",
    ("netflix", "hybrid", "common"): "cf2d4eb351196f9e64134c278b7eb568f4964f08ac0873948b3d3c003dda718b",
    ("netflix", "hybrid", "noncommon"): "0c72455067d16cd35da914f996c7a25b3b3d4991acdda62b31d7196b7e12f897",
    ("netflix", "hybrid", "perflow"): "e093d0290aedd7efbd9716d029952a6097d974a4e5d928226b834b3c8e65194f",
    ("netflix", "hybrid", "dual_tbf"): "2c465b2e953b801ed31422aa51624bd3a249a9daef6541654d6622b65f57b466",
    ("netflix", "hybrid", "conditional"): "8279ad520c88c7b84670a067a89576d5a84b3a0d78e59bf57d1dd8ef8e7ca3b8",
}

#: Hybrid limiter cells whose foreground never waits behind virtual
#: backlog at this seed: netflix's per-flow FIFO carries only unmarked
#: traffic, and none of it lands behind fluid bytes.
NO_FLUID_DEFERRALS = {("netflix", "perflow")}


def _config(app, fidelity, cell):
    limiter, shaper, params = CELLS[cell]
    return ScenarioConfig(
        app=app,
        limiter=limiter,
        shaper=shaper,
        shaper_params=params,
        fidelity=fidelity,
        duration=5.0,
        seed=7,
    )


@pytest.mark.parametrize("app, fidelity, cell", sorted(GOLDEN))
def test_record_digest_is_pinned(app, fidelity, cell):
    sink = MetricsSink()
    with use_sink(sink):
        record = run_detection_experiment(_config(app, fidelity, cell))
    digest = hashlib.sha256(record_line(record).encode()).hexdigest()
    assert digest == GOLDEN[(app, fidelity, cell)]

    counters = sink.counters
    if fidelity == "hybrid" and cell != "none":
        deferrals = counters.get("netsim.fluid.deferrals", 0)
        if (app, cell) in NO_FLUID_DEFERRALS:
            assert deferrals == 0
        else:
            assert deferrals > 0
    if cell == "dual_tbf":
        assert counters.get("netsim.tbf.peak_deferrals", 0) > 0
    if cell == "conditional":
        assert counters.get("netsim.conditional.trips", 0) == 1
