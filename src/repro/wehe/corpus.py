"""Historical WeHe test corpus and the T_diff distribution (Section 4.1).

T_diff captures *normal throughput variation*: for pairs of past WeHe
tests run less than 10 minutes apart by the same client, on the same
app and carrier, it records the relative difference of the two
bit-inverted-replay throughput means.

The paper computes T_diff from the public wehe-data corpus; offline we
build an equivalent corpus two ways:

- :func:`generate_corpus` -- a statistical corpus: per-(client,
  carrier) base rates with multiplicative lognormal test-to-test noise
  (the measured quantity the corpus supplies is exactly this
  variation);
- ``repro.api.run_sweep(SweepRequest.tdiff(...))`` -- pairs of actual
  back-to-back simulator replays, when full fidelity is wanted.
"""

from dataclasses import dataclass

import numpy as np

from repro.stats.montecarlo import relative_mean_difference

#: Maximum spacing between tests of a pair (Section 4.1).
PAIR_WINDOW_SECONDS = 600.0


@dataclass(frozen=True)
class HistoricalTest:
    """One past WeHe test (only the fields T_diff needs)."""

    client: str
    app: str
    carrier: str
    timestamp: float
    inverted_mean_bps: float


def generate_corpus(
    rng,
    n_clients=40,
    tests_per_client=4,
    apps=("netflix", "youtube", "zoom"),
    carriers=("carrier-a", "carrier-b"),
    base_rate_range=(2e6, 20e6),
    variation_cv=0.08,
):
    """Generate a synthetic historical corpus.

    Each client gets a base rate per app; successive tests vary by a
    lognormal factor with coefficient of variation ``variation_cv``
    (back-to-back WeHe tests on an undisturbed path differ by a few
    percent -- this knob *is* the normal-variation assumption and is
    recorded in EXPERIMENTS.md).
    """
    if tests_per_client < 2:
        raise ValueError("need at least two tests per client to form pairs")
    sigma = np.sqrt(np.log(1.0 + variation_cv**2))
    corpus = []
    for c in range(n_clients):
        client = f"client-{c}"
        carrier = carriers[c % len(carriers)]
        app = apps[c % len(apps)]
        base = rng.uniform(*base_rate_range)
        t0 = rng.uniform(0, 1e6)
        for k in range(tests_per_client):
            factor = rng.lognormal(-(sigma**2) / 2.0, sigma)
            corpus.append(
                HistoricalTest(
                    client=client,
                    app=app,
                    carrier=carrier,
                    timestamp=t0 + k * rng.uniform(60.0, PAIR_WINDOW_SECONDS - 60.0),
                    inverted_mean_bps=base * factor,
                )
            )
    return corpus


def tdiff_distribution(corpus):
    """Extract the T_diff sample set from a corpus (Section 4.1).

    Pairs are tests by the same client/app/carrier less than 10 minutes
    apart; each contributes ``(T1 - T2) / max(T1, T2)``.  Returns a
    numpy array (may be empty if no pairs qualify).
    """
    by_key = {}
    for test in corpus:
        by_key.setdefault((test.client, test.app, test.carrier), []).append(test)
    values = []
    for tests in by_key.values():
        tests.sort(key=lambda t: t.timestamp)
        for first, second in zip(tests, tests[1:]):
            if second.timestamp - first.timestamp < PAIR_WINDOW_SECONDS:
                values.append(
                    relative_mean_difference(
                        [first.inverted_mean_bps], [second.inverted_mean_bps]
                    )
                )
    return np.asarray(values)
