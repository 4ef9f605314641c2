"""Seeded-determinism regression: same seed + scenario ⇒ identical runs.

The campaign engine's reproducer seeds are only meaningful if a seed
pins down the *entire* execution — every jittered arrival, every route
change, every counter.  These tests serialize every field of the stats
of two runs built from scratch (two fresh ``Simulator`` instances, two
fresh engines, two fresh networks) and require byte-identical output:
``send_log``, requested before the run, holds the time and size of every
message sent, so it is the run's whole send timeline.
"""

from repro.algebra import SPPAlgebra, disagree_chain, ibgp_figure3_fixed
from repro.ndlog.codegen import network_from_spp
from repro.protocols import GPVEngine


def _run(instance, seed: int) -> tuple[str, bytes]:
    """One complete fresh run; returns (stop reason, stats bytes)."""
    network = network_from_spp(instance, jitter_s=0.003)
    engine = GPVEngine(network, SPPAlgebra(instance),
                       [instance.destination], seed=seed)
    engine.sim.stats.send_log = []
    reason = engine.run(until=60.0, max_events=50_000)
    stats = engine.sim.stats
    stats_bytes = repr((
        stats.messages_sent,
        stats.bytes_sent_total,
        stats.route_changes,
        stats.last_route_change,
        stats.send_log,
    )).encode()
    return reason, stats_bytes


def test_same_seed_same_scenario_is_byte_identical():
    instance = ibgp_figure3_fixed()
    first = _run(instance, seed=11)
    second = _run(instance, seed=11)
    assert first[0] == second[0]
    assert first[1] == second[1], "stats differ under an identical seed"


def test_same_seed_holds_with_jittered_contention():
    """A chain of DISAGREE pairs exercises jitter + FIFO link contention."""
    instance = disagree_chain(4, conflict_fraction=1.0)
    runs = [_run(instance, seed=3) for _ in range(2)]
    assert runs[0] == runs[1]


def test_different_seeds_draw_different_jitter():
    """Sanity check that the send timeline actually depends on the seed
    (jittered links reorder arrivals), so the equality above is not
    vacuous."""
    instance = disagree_chain(4, conflict_fraction=1.0)
    assert _run(instance, seed=3)[1] != _run(instance, seed=4)[1]
