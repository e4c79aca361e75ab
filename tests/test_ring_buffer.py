"""Per-client ring buffers: production, polling, credits, wrap-around."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ring_buffer import RingConsumer, RingLayout, RingProducer
from repro.errors import CapacityError, ConfigurationError
from repro.rdma.memory import AccessFlags, ProtectionDomain


def make_ring(slot_count=4, slot_size=128):
    layout = RingLayout(slot_count, slot_size)
    pd = ProtectionDomain()
    region = pd.register(
        layout.total_bytes, AccessFlags.REMOTE_WRITE | AccessFlags.LOCAL_WRITE
    )
    consumer = RingConsumer(layout, region)
    producer = RingProducer(layout, write_remote=region.remote_write)
    return layout, producer, consumer


class TestLayout:
    def test_geometry(self):
        layout = RingLayout(8, 256)
        assert layout.total_bytes == 2048
        assert layout.max_frame == 248
        assert layout.slot_offset(0) == 0
        assert layout.slot_offset(9) == 256  # wraps

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            RingLayout(0, 128)
        with pytest.raises(ConfigurationError):
            RingLayout(4, 8)

    def test_region_must_fit(self):
        layout = RingLayout(4, 128)
        pd = ProtectionDomain()
        small = pd.register(128, AccessFlags.LOCAL_WRITE)
        with pytest.raises(ConfigurationError):
            RingConsumer(layout, small)


class TestProduceConsume:
    def test_single_frame(self):
        _, producer, consumer = make_ring()
        producer.produce(b"request-1")
        assert consumer.poll_one() == b"request-1"
        assert consumer.poll_one() is None

    def test_fifo_order(self):
        _, producer, consumer = make_ring()
        for i in range(3):
            producer.produce(f"frame-{i}".encode())
        assert consumer.poll() == [b"frame-0", b"frame-1", b"frame-2"]

    def test_poll_limit(self):
        _, producer, consumer = make_ring()
        for i in range(4):
            producer.produce(bytes([i]))
        assert len(consumer.poll(limit=2)) == 2
        assert len(consumer.poll(limit=10)) == 2

    def test_frame_too_large(self):
        _, producer, _ = make_ring(slot_size=64)
        with pytest.raises(CapacityError, match="exceeds slot"):
            producer.produce(b"x" * 60)

    def test_empty_poll_counts(self):
        _, _, consumer = make_ring()
        consumer.poll_one()
        assert consumer.polls == 1
        assert consumer.frames_consumed == 0


class TestFlowControl:
    def test_ring_full_without_credit(self):
        _, producer, _ = make_ring(slot_count=2)
        producer.produce(b"a")
        producer.produce(b"b")
        assert producer.free_slots == 0
        with pytest.raises(CapacityError, match="ring full"):
            producer.produce(b"c")

    def test_credit_restores_capacity(self):
        _, producer, consumer = make_ring(slot_count=2)
        producer.produce(b"a")
        producer.produce(b"b")
        consumer.poll()
        credit = consumer.credits_due()
        assert credit == 2
        producer.credit_update(credit)
        assert producer.free_slots == 2
        producer.produce(b"c")

    def test_credits_due_deduplicates(self):
        _, producer, consumer = make_ring()
        producer.produce(b"a")
        consumer.poll()
        assert consumer.credits_due() == 1
        assert consumer.credits_due() is None  # unchanged since last report

    def test_bogus_credit_rejected(self):
        _, producer, _ = make_ring()
        producer.produce(b"a")
        with pytest.raises(ConfigurationError):
            producer.credit_update(5)  # more than produced

    def test_credit_cannot_regress(self):
        _, producer, consumer = make_ring()
        producer.produce(b"a")
        producer.produce(b"b")
        consumer.poll()
        producer.credit_update(2)
        with pytest.raises(ConfigurationError):
            producer.credit_update(1)


class TestWrapAround:
    def test_many_cycles_through_the_ring(self):
        _, producer, consumer = make_ring(slot_count=4)
        for round_number in range(25):
            frame = f"round-{round_number}".encode()
            producer.produce(frame)
            assert consumer.poll_one() == frame
            producer.credit_update(consumer.credits_due())

    def test_stale_slot_contents_not_reread(self):
        """After a wrap, the old frame in a slot must not be mistaken for
        a new one (sequence-number freshness)."""
        _, producer, consumer = make_ring(slot_count=2)
        producer.produce(b"old-a")
        producer.produce(b"old-b")
        consumer.poll()
        producer.credit_update(consumer.credits_due())
        producer.produce(b"new-a")  # overwrites slot 0
        frames = consumer.poll()
        assert frames == [b"new-a"]  # old-b's slot is stale, not ready


class TestRogueProducer:
    def test_garbage_length_skipped(self):
        """A rogue client writing a corrupt header must not wedge the
        consumer (paper §3.9: rogue clients can write garbage)."""
        layout = RingLayout(2, 64)
        pd = ProtectionDomain()
        region = pd.register(layout.total_bytes, AccessFlags.LOCAL_WRITE)
        consumer = RingConsumer(layout, region)
        import struct

        # Claimed length exceeds the slot: defensively skipped.
        region.write_local(0, struct.pack(">II", 9999, 1) + b"junk")
        assert consumer.poll_one() is None
        # The next well-formed frame (seq 2, slot 1) is still consumable.
        region.write_local(64, struct.pack(">II", 4, 2) + b"good")
        assert consumer.poll_one() == b"good"


@settings(max_examples=30, deadline=None)
@given(
    frames=st.lists(st.binary(min_size=0, max_size=80), min_size=1, max_size=60)
)
def test_everything_produced_is_consumed_in_order(frames):
    _, producer, consumer = make_ring(slot_count=4, slot_size=128)
    received = []
    for frame in frames:
        while True:
            try:
                producer.produce(frame)
                break
            except CapacityError:
                received.extend(consumer.poll())
                credit = consumer.credits_due()
                if credit is not None:
                    producer.credit_update(credit)
    received.extend(consumer.poll())
    assert received == frames


def make_gather_ring(slot_count=8, slot_size=128):
    """A ring whose producer has a coalesced write path, plus its call log."""
    layout = RingLayout(slot_count, slot_size)
    pd = ProtectionDomain()
    region = pd.register(
        layout.total_bytes, AccessFlags.REMOTE_WRITE | AccessFlags.LOCAL_WRITE
    )
    consumer = RingConsumer(layout, region)
    gather_calls = []

    def write_many(writes):
        gather_calls.append(list(writes))
        for offset, data in writes:
            region.remote_write(offset, data)

    producer = RingProducer(
        layout,
        write_remote=region.remote_write,
        write_remote_many=write_many,
    )
    return layout, producer, consumer, gather_calls


class TestPending:
    """The non-consuming depth probe (the telemetry queue-depth source).

    Regression cover for the silent 64-frame cap: ``pending()`` used to
    stop scanning at 64 slots regardless of ring geometry, so larger
    rings under-reported their depth to telemetry while ``poll`` (and
    the batched drain) happily consumed everything.
    """

    def test_counts_without_consuming(self):
        _, producer, consumer = make_ring(slot_count=8)
        for i in range(5):
            producer.produce(bytes([i]))
        assert consumer.pending() == 5
        assert consumer.pending() == 5  # idempotent: cursor untouched
        assert consumer.frames_consumed == 0
        assert consumer.poll() == [bytes([i]) for i in range(5)]

    def test_counts_past_sixty_four_on_large_rings(self):
        _, producer, consumer = make_ring(slot_count=96, slot_size=64)
        for i in range(80):
            producer.produce(b"%03d" % i)
        assert consumer.pending() == 80
        assert len(consumer.poll(limit=96)) == 80

    def test_partially_drained_ring(self):
        _, producer, consumer = make_ring(slot_count=8)
        for i in range(6):
            producer.produce(bytes([i]))
        consumer.poll(limit=2)
        assert consumer.pending() == 4

    def test_explicit_limit_caps_the_scan(self):
        _, producer, consumer = make_ring(slot_count=8)
        for i in range(5):
            producer.produce(bytes([i]))
        assert consumer.pending(limit=2) == 2

    def test_limit_beyond_geometry_is_clamped(self):
        _, producer, consumer = make_ring(slot_count=4)
        for i in range(4):
            producer.produce(bytes([i]))
        assert consumer.pending(limit=1000) == 4

    def test_garbage_slot_stops_the_scan(self):
        layout, producer, consumer = make_ring(slot_count=8)
        for i in range(4):
            producer.produce(bytes([i]))
        # Trash the length field of the second ready slot: depth must
        # conservatively stop there (poll would skip it defensively).
        offset = layout.slot_offset(1)
        region = consumer._region
        seq_bytes = region.read_local(offset + 4, 4)
        region.write_local(offset, b"\xff\xff\xff\xff" + seq_bytes)
        assert consumer.pending() == 1


class TestProduceMany:
    """The coalesced reply write (the batched pipeline's reply phase)."""

    def test_slot_bytes_identical_to_serial_production(self):
        frames = [b"alpha", b"", b"gamma" * 3]
        _, gather_producer, gather_consumer, calls = make_gather_ring()
        _, serial_producer, serial_consumer = make_ring(slot_count=8)
        seqs = gather_producer.produce_many(frames)
        for frame in frames:
            serial_producer.produce(frame)
        assert seqs == [1, 2, 3]
        assert len(calls) == 1  # one gather write for the whole batch
        assert gather_consumer._region.read_local(
            0, gather_consumer.layout.total_bytes
        ) == serial_consumer._region.read_local(
            0, serial_consumer.layout.total_bytes
        )
        assert gather_consumer.poll() == frames

    def test_single_frame_falls_back_to_produce(self):
        # Byte-for-byte serial behaviour for K=1 batches: the gather
        # path (and any fault judgement keyed on it) must not engage.
        _, producer, consumer, calls = make_gather_ring()
        assert producer.produce_many([b"solo"]) == [1]
        assert calls == []
        assert consumer.poll() == [b"solo"]

    def test_empty_batch_writes_nothing(self):
        _, producer, _, calls = make_gather_ring()
        assert producer.produce_many([]) == []
        assert calls == []
        assert producer.outstanding == 0

    def test_capacity_checked_for_whole_batch_up_front(self):
        _, producer, consumer, calls = make_gather_ring(slot_count=4)
        with pytest.raises(CapacityError, match="only 4 credits"):
            producer.produce_many([b"f%d" % i for i in range(5)])
        assert calls == []  # all-or-nothing: nothing was written
        assert producer.outstanding == 0
        assert producer.produce_many([b"f%d" % i for i in range(4)]) == [
            1, 2, 3, 4,
        ]

    def test_oversized_frame_rejected_before_any_write(self):
        _, producer, _, calls = make_gather_ring(slot_size=64)
        with pytest.raises(CapacityError, match="exceeds slot"):
            producer.produce_many([b"ok", b"x" * 60])
        assert calls == []
        assert producer.outstanding == 0

    def test_works_without_a_gather_transport(self):
        _, producer, consumer = make_ring(slot_count=8)
        assert producer.produce_many([b"a", b"b"]) == [1, 2]
        assert consumer.poll() == [b"a", b"b"]


class TestServerQueueDepth:
    """queue_depth() must agree with what the drain loop will consume."""

    def test_depth_tracks_staged_frames(self):
        from repro.core.client import PrecursorClient
        from repro.core.protocol import OpCode
        from repro.core.server import PrecursorServer

        server = PrecursorServer()
        client = PrecursorClient(
            server, auto_pump=False, response_timeout_s=0.0
        )
        assert server.queue_depth() == 0
        for i in range(5):
            control = client._next_control(OpCode.GET, b"k%d" % i)
            (request,) = client._seal([control])
            client._submit(request)
        assert server.queue_depth() == 5
        assert server.queue_depth() == 5  # probe is non-destructive
        server.process_pending()
        assert server.queue_depth() == 0
