"""Wire contract of the shared path-vector transport (repro.net.ribout).

Every rule runs unbatched (sent at once) and batched (buffered until the
node's MRAI tick).  Values are ``(sig, path)`` tuples, signature first.
"""

import pytest

from repro.algebra import PHI
from repro.net import Network, Simulator
from repro.net.ribout import RibOut

INTERVAL = 1.0
ROUTE = (1, ("a", "d"))
OTHER = (2, ("a", "x", "d"))
WITHDRAW = (PHI, ("a",))


@pytest.fixture(params=[None, INTERVAL], ids=["unbatched", "batched"])
def wire(request):
    net = Network()
    net.add_link("a", "b")
    net.add_link("a", "c")
    sim = Simulator(net, seed=1)
    sent = []
    ribout = RibOut("a", sim, request.param, 0,
                    lambda node, neighbor, slot, value:
                    sent.append((neighbor, slot, value)))
    return ribout, sim, sent


def batched(ribout) -> bool:
    return ribout.batch_interval is not None


def test_a_repeat_is_dropped(wire):
    ribout, sim, sent = wire
    ribout.offer("b", "d", ROUTE)
    ribout.offer("b", "d", ROUTE)
    sim.run()
    ribout.offer("b", "d", ROUTE)
    sim.run()
    assert sent == [("b", "d", ROUTE)]


def test_a_withdraw_to_a_neighbor_that_never_held_the_route_is_dropped(wire):
    ribout, sim, sent = wire
    ribout.offer("b", "d", WITHDRAW)
    # Unbatched, the noise is recorded at once; batched, it never reaches
    # the buffer, so there is nothing to record at flush.
    assert ribout.last("b", "d") == (None if batched(ribout) else WITHDRAW)
    sim.run()
    assert sent == []


def test_a_withdraw_after_an_advert_is_sent(wire):
    ribout, sim, sent = wire
    ribout.offer("b", "d", ROUTE)
    sim.run()
    ribout.offer("b", "d", WITHDRAW)
    sim.run()
    assert sent == [("b", "d", ROUTE), ("b", "d", WITHDRAW)]


def test_advert_then_withdraw_in_one_window(wire):
    """The withdraw is judged against the *buffered* advert: read from the
    RIB-out instead, it would look like noise and the stale advert would
    flush with no withdraw ever following."""
    ribout, sim, sent = wire
    ribout.offer("b", "d", ROUTE)
    ribout.offer("b", "d", WITHDRAW)
    sim.run()
    if batched(ribout):
        assert sent == []  # the neighbor never heard the advert
    else:
        assert sent == [("b", "d", ROUTE), ("b", "d", WITHDRAW)]
    assert ribout.last("b", "d") == WITHDRAW


def test_a_flap_inside_one_window_is_silent_when_batched(wire):
    ribout, sim, sent = wire
    ribout.offer("b", "d", ROUTE)
    sim.run()
    ribout.offer("b", "d", WITHDRAW)
    ribout.offer("b", "d", ROUTE)
    sim.run()
    flap = [] if batched(ribout) else [("b", "d", WITHDRAW),
                                       ("b", "d", ROUTE)]
    assert sent == [("b", "d", ROUTE), *flap]


def test_sends_follow_offer_order(wire):
    ribout, sim, sent = wire
    ribout.offer("b", "e", ROUTE)
    ribout.offer("c", "d", ROUTE)
    ribout.offer("b", "d", ROUTE)
    ribout.offer("c", "d", OTHER)
    sim.run()
    if batched(ribout):
        # One advert per slot, at the place its slot was first offered.
        assert sent == [("b", "e", ROUTE), ("c", "d", OTHER),
                        ("b", "d", ROUTE)]
    else:
        assert sent == [("b", "e", ROUTE), ("c", "d", ROUTE),
                        ("b", "d", ROUTE), ("c", "d", OTHER)]


def test_forget_drops_the_slot_and_anything_pending(wire):
    ribout, sim, sent = wire
    ribout.offer("b", "d", ROUTE)
    ribout.offer("c", "d", ROUTE)
    sim.run()
    ribout.offer("b", "d", OTHER)  # pending when batched
    ribout.forget("b")
    sim.run()
    assert ribout.last("b", "d") is None
    assert ribout.last("c", "d") == ROUTE
    flushed = [] if batched(ribout) else [("b", "d", OTHER)]
    assert sent == [("b", "d", ROUTE), ("c", "d", ROUTE), *flushed]
    # A forgotten neighbor is a fresh one: the advert goes out again and
    # a withdraw toward it is noise.
    del sent[:]
    ribout.forget("b")
    ribout.offer("b", "d", WITHDRAW)
    ribout.offer("b", "d", ROUTE)
    sim.run()
    assert sent == [("b", "d", ROUTE)]


def test_one_timer_draw_per_batching_window():
    net = Network()
    net.add_link("a", "b")
    sim = Simulator(net, seed=1)
    flushes = []
    ribout = RibOut("a", sim, INTERVAL, 0,
                    lambda *args: flushes.append(sim.now))
    state = sim.rng.getstate()
    ribout.offer("b", "d", ROUTE)
    assert sim.rng.getstate() != state
    state = sim.rng.getstate()
    ribout.offer("b", "e", ROUTE)
    assert sim.rng.getstate() == state
    assert sim.pending_events == 1
    sim.run()
    # Both adverts leave at one tick of the node's grid, drifted by at
    # most a tenth of the interval.
    assert len(flushes) == 2 and flushes[0] == flushes[1]
    assert 0.0 < flushes[0] <= 1.1 * INTERVAL
