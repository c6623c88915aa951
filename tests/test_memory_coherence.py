"""Tests for the coherence directory, including the under-transfer metadata
that implements the paper's optimistic heuristic (§III-C)."""

import pytest

from repro.errors import CoherenceError
from repro.memory.coherence import CoherenceDirectory, ReplicaState
from repro.memory.tile import TileKey
from repro.topology.link import HOST
from tests.coherence_tamper import tile_entry

K = TileKey(0, 0, 0)


def test_tiles_start_host_valid():
    d = CoherenceDirectory()
    assert d.host_valid(K)
    assert d.valid_devices(K) == []
    assert d.state(K, HOST) is ReplicaState.SHARED


def test_transfer_lifecycle():
    d = CoherenceDirectory()
    d.begin_transfer(K, dst=1, completes_at=2.0, source=HOST)
    assert not d.is_valid(K, 1)
    flight = d.in_flight_to(K, 1)
    assert flight is not None and flight.completes_at == 2.0
    assert d.complete_transfer(K, 1) is True
    assert d.state(K, 1) is ReplicaState.SHARED
    assert d.in_flight_to(K, 1) is None


def test_duplicate_flight_to_same_destination_rejected():
    d = CoherenceDirectory()
    d.begin_transfer(K, 1, 2.0, HOST)
    with pytest.raises(CoherenceError):
        d.begin_transfer(K, 1, 3.0, HOST)


def test_transfer_to_already_valid_destination_rejected():
    d = CoherenceDirectory()
    with pytest.raises(CoherenceError):
        d.begin_transfer(K, HOST, 1.0, 0)


def test_complete_without_flight_rejected():
    with pytest.raises(CoherenceError):
        CoherenceDirectory().complete_transfer(K, 1)


def test_earliest_flight_picks_soonest():
    d = CoherenceDirectory()
    d.begin_transfer(K, 1, 5.0, HOST)
    d.begin_transfer(K, 2, 3.0, HOST)
    d.begin_transfer(K, 3, 7.0, HOST)
    assert d.earliest_flight(K).dst == 2
    assert len(d.flights(K)) == 3


def test_write_invalidates_everything_and_bumps_generation():
    d = CoherenceDirectory()
    d.begin_transfer(K, 1, 1.0, HOST)
    d.complete_transfer(K, 1)
    d.begin_transfer(K, 2, 2.0, 1)
    gen = d.generation(K)
    d.write(K, 3)
    assert d.generation(K) == gen + 1
    assert d.valid_devices(K) == [3]
    assert d.modified_location(K) == 3
    assert not d.host_valid(K)
    assert d.in_flight_to(K, 2) is None  # flight record dropped


def test_stale_flight_completion_is_dropped():
    d = CoherenceDirectory()
    d.begin_transfer(K, 1, 1.0, HOST)
    d.write(K, 2)
    # The flight record is gone after the write; a late completion of a
    # *re-issued* transfer under the old generation must be dropped.
    d.begin_transfer(K, 1, 2.0, 2)
    tile_entry(d, K).in_flight[1].generation -= 1  # simulate stale generation
    assert d.complete_transfer(K, 1) is False
    assert not d.is_valid(K, 1)


def test_downgrade_modified_to_shared():
    d = CoherenceDirectory()
    d.write(K, 0)
    d.downgrade(K, 0)
    assert d.state(K, 0) is ReplicaState.SHARED
    with pytest.raises(CoherenceError):
        d.downgrade(K, 0)  # already shared


def test_modified_source_can_serve_readers():
    """MODIFIED behaves like MOSI's Owned: SHARED copies may coexist."""
    d = CoherenceDirectory()
    d.write(K, 0)
    d.begin_transfer(K, 1, 1.0, 0)
    assert d.complete_transfer(K, 1)
    assert d.state(K, 0) is ReplicaState.MODIFIED
    assert d.state(K, 1) is ReplicaState.SHARED
    assert sorted(d.valid_devices(K)) == [0, 1]


def test_evict_shared_ok_modified_rejected():
    d = CoherenceDirectory()
    d.begin_transfer(K, 1, 1.0, HOST)
    d.complete_transfer(K, 1)
    d.evict(K, 1)
    assert d.valid_devices(K) == []
    d.write(K, 2)
    with pytest.raises(CoherenceError):
        d.evict(K, 2)


def test_evict_missing_replica_rejected():
    with pytest.raises(CoherenceError):
        CoherenceDirectory().evict(K, 4)


def test_evict_last_replica_rejected():
    d = CoherenceDirectory()
    d.seed_device(K, 0, exclusive=True)
    d.downgrade(K, 0)
    with pytest.raises(CoherenceError, match="last replica"):
        d.evict(K, 0)


def test_seed_device_exclusive_drops_host():
    d = CoherenceDirectory()
    d.seed_device(K, 2, exclusive=True)
    assert not d.host_valid(K)
    assert d.modified_location(K) == 2


def test_seed_device_shared_keeps_host():
    d = CoherenceDirectory()
    d.seed_device(K, 2, exclusive=False)
    assert d.host_valid(K)
    assert d.state(K, 2) is ReplicaState.SHARED


def test_invalidate_device_replicas_restores_host():
    d = CoherenceDirectory()
    d.write(K, 1)
    d.invalidate_device_replicas(K)
    assert d.host_valid(K)
    assert d.valid_devices(K) == []


def test_add_shared_conflicts_with_modified():
    d = CoherenceDirectory()
    d.write(K, 0)
    with pytest.raises(CoherenceError):
        d.add_shared(K, 0)
    d.add_shared(K, 1)
    assert d.state(K, 1) is ReplicaState.SHARED


def test_replica_count():
    d = CoherenceDirectory()
    assert d.replica_count(K) == 1  # host
    d.seed_device(K, 0, exclusive=False)
    assert d.replica_count(K) == 2
