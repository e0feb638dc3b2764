"""Tests for the TTP cluster: TDMA rounds, membership, bus guardian."""

import pytest

from repro.errors import ConfigurationError
from repro.network import TtpCluster
from repro.sim import Simulator
from repro.units import us


def make_cluster(n=4, slot=us(100), guardians=True):
    sim = Simulator()
    cluster = TtpCluster(sim, [f"N{i}" for i in range(n)], slot,
                         guardians_enabled=guardians)
    return sim, cluster


def test_each_node_transmits_once_per_round():
    sim, cluster = make_cluster(n=3)
    cluster.start()
    sim.run_until(3 * cluster.round_length)
    for i in range(3):
        assert cluster.node(f"N{i}").tx_count == 3


def test_slot_order_follows_node_order():
    sim, cluster = make_cluster(n=3)
    cluster.start()
    sim.run_until(cluster.round_length)
    rx = cluster.trace.records("ttp.rx")
    assert [r.subject for r in rx] == ["N0", "N1", "N2"]
    assert [r.time for r in rx] == [us(100), us(200), us(300)]


def test_state_broadcast_delivers_payload():
    sim, cluster = make_cluster(n=2)
    got = []
    cluster.node("N1").on_receive(
        lambda sender, msg: got.append((sender, msg.payload)))
    cluster.node("N0").set_payload({"speed": 42})
    cluster.start()
    sim.run_until(cluster.round_length)
    assert got == [("N0", {"speed": 42})]


def test_crashed_node_dropped_from_membership():
    sim, cluster = make_cluster(n=3)
    cluster.start()
    sim.schedule(cluster.round_length, cluster.node("N1").crash)
    sim.run_until(3 * cluster.round_length)
    assert cluster.membership == {"N0", "N2"}
    drops = cluster.trace.records("ttp.membership_drop")
    assert [r.subject for r in drops] == ["N1"]
    assert drops[0].data["reason"] == "crash"


def test_recovered_node_reintegrates():
    sim, cluster = make_cluster(n=3)
    cluster.start()
    node = cluster.node("N1")
    sim.schedule(cluster.round_length, node.crash)
    sim.schedule(3 * cluster.round_length, node.recover)
    sim.run_until(5 * cluster.round_length)
    assert cluster.membership == {"N0", "N1", "N2"}
    assert len(cluster.trace.records("ttp.membership_join", "N1")) == 1


def test_babbler_with_guardian_is_contained():
    """Requirement 4 of the paper's NoC/TTP composability list: a faulty
    node may not interfere with non-faulty nodes' interactions."""
    sim, cluster = make_cluster(n=4, guardians=True)
    cluster.node("N2").start_babbling()
    cluster.start()
    sim.run_until(4 * cluster.round_length)
    # All nodes (including the babbler, whose own slot is legal) deliver.
    assert cluster.membership == {"N0", "N1", "N2", "N3"}
    assert cluster.trace.records("ttp.collision") == []
    assert len(cluster.trace.records("ttp.guardian_block")) > 0
    assert cluster.node("N2").guardian.blocked_count > 0


def test_guardian_blocks_keep_a_shared_trace_time_ordered():
    """A block is logged when its slot is evaluated, so records another
    subsystem logs mid-slot into the same trace stay in time order."""
    sim, cluster = make_cluster(n=4, guardians=True)
    cluster.node("N2").start_babbling()
    cluster.start()
    for slot in range(16):
        sim.schedule_at(slot * us(100) + us(50),
                        lambda: cluster.trace.log(sim.now, "app.tick", "X"))
    sim.run_until(4 * cluster.round_length)
    blocks = cluster.trace.records("ttp.guardian_block")
    assert blocks
    assert all(r.time == r.data["slot_start"] + us(100) for r in blocks)
    times = [r.time for r in cluster.trace]
    assert times == sorted(times)


def test_babbler_without_guardian_destroys_other_slots():
    sim, cluster = make_cluster(n=4, guardians=False)
    cluster.node("N2").start_babbling()
    cluster.start()
    sim.run_until(2 * cluster.round_length)
    # Every other node's slot collides; only the babbler's survives.
    assert cluster.membership == {"N2"}
    collisions = cluster.trace.records("ttp.collision")
    assert {r.data["caused_by"] for r in collisions} == {"N2"}
    victims = {r.subject for r in collisions}
    assert victims == {"N0", "N1", "N3"}


def test_guardian_reenabled_restores_service():
    sim, cluster = make_cluster(n=3, guardians=False)
    cluster.node("N0").start_babbling()
    cluster.start()
    sim.schedule(2 * cluster.round_length,
                 lambda: cluster.set_guardians(True))
    sim.run_until(5 * cluster.round_length)
    assert cluster.membership == {"N0", "N1", "N2"}


def test_reception_is_periodic_with_round_length():
    sim, cluster = make_cluster(n=4)
    cluster.start()
    sim.run_until(4 * cluster.round_length)
    times = cluster.reception_times("N1")
    diffs = {b - a for a, b in zip(times, times[1:])}
    assert diffs == {cluster.round_length}


def test_cluster_validation():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        TtpCluster(sim, ["only"], us(100))
    with pytest.raises(ConfigurationError):
        TtpCluster(sim, ["a", "a"], us(100))
    with pytest.raises(ConfigurationError):
        TtpCluster(sim, ["a", "b"], 0)


def test_double_start_rejected():
    sim, cluster = make_cluster()
    cluster.start()
    with pytest.raises(ConfigurationError):
        cluster.start()
