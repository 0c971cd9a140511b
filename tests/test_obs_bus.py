"""EventBus thread-safety: subscribe while publishers are running.

Regression for the copy-on-write subscriber snapshot: before it, a
``subscribe`` during a concurrent ``publish`` mutated the list being
iterated and could raise or skip subscribers.  The test hammers the
bus with publisher threads while subscribers attach mid-stream; every
subscriber must observe a contiguous *suffix* of the event stream from
the moment it attached, with nothing lost and nothing duplicated.
"""

from __future__ import annotations

import threading

from repro.obs.bus import EventBus, ObsEvent

PUBLISHERS = 4
EVENTS_PER_PUBLISHER = 500
SUBSCRIBERS = 8


def test_subscribe_under_concurrent_publishes():
    bus = EventBus()
    received = [[] for _ in range(SUBSCRIBERS)]
    start = threading.Barrier(PUBLISHERS + 1)

    def publisher(index: int) -> None:
        start.wait()
        for i in range(EVENTS_PER_PUBLISHER):
            bus.publish(ObsEvent.make("tick", source=index, seq=i))

    threads = [threading.Thread(target=publisher, args=(p,))
               for p in range(PUBLISHERS)]
    for t in threads:
        t.start()
    start.wait()
    for sink in received:
        bus.subscribe(sink.append)      # attach mid-stream
    for t in threads:
        t.join()

    total = PUBLISHERS * EVENTS_PER_PUBLISHER
    assert len(bus.events) == total
    for sink in received:
        # No duplicates, and per-publisher sequence numbers are a
        # contiguous suffix: once attached the subscriber missed
        # nothing that was published after.
        assert len(sink) == len(set(id(e) for e in sink))
        by_source = {}
        for event in sink:
            by_source.setdefault(event.get("source"), []).append(
                event.get("seq"))
        for seqs in by_source.values():
            assert seqs == sorted(seqs)
            assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))


def test_publish_from_inside_a_subscriber():
    """Subscribers may publish re-entrantly (the collector pattern)."""
    bus = EventBus()
    seen = []

    def echo(event):
        if isinstance(event, ObsEvent) and event.kind == "ping":
            bus.publish(ObsEvent.make("pong"))

    bus.subscribe(echo)
    bus.subscribe(seen.append)
    bus.publish(ObsEvent.make("ping"))
    kinds = [e.kind for e in bus.events]
    assert kinds == ["ping", "pong"]
    assert [e.kind for e in seen] == ["pong", "ping"]


def test_of_kind_snapshot_is_stable_under_concurrent_publish():
    bus = EventBus()
    total = 20_000
    first = threading.Event()

    def hammer():
        # A fixed count keeps memory bounded however slowly the scans run.
        for i in range(total):
            bus.publish(ObsEvent.make("noise"))
            if i == 0:
                first.set()

    thread = threading.Thread(target=hammer)
    thread.start()
    try:
        # Scan only once publishing has begun, so scans overlap it.
        assert first.wait(timeout=30)
        seen = 0
        for _ in range(200):
            events = bus.of_kind("noise")
            assert all(e.kind == "noise" for e in events)
            assert seen <= len(events) <= total
            seen = len(events)
    finally:
        thread.join()
    assert len(bus.of_kind("noise")) == total
