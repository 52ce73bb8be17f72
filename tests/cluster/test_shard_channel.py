"""The shard's event channel on the stop path, without processes.

Once ``shard_main``'s command loop exits on ``stop``, the channel's
``close`` is the only reader of the command queue, so it must apply the
router's ``ack_event`` for the final ``stopped`` event (else every
graceful stop would resend until its bound and force-flush) and bounce
any submission that raced the stop back to the router.  These tests stand
in for the router with plain objects; nothing here depends on timing.
"""

import queue

from repro.cluster.shard import RELIABLE_EVENTS, _EventChannel


class FakeQueue:
    def __init__(self):
        self.items = []

    def put(self, message):
        self.items.append(message)


class RouterSide:
    """The router's half of the link: hands the shard the ``commands``
    given, then acks every reliable event the shard has sent."""

    def __init__(self, events, commands=()):
        self.events = events
        self.commands = list(commands)
        self.seq = max((command[0] for command in self.commands), default=0)
        self.acked = set()

    def get(self, timeout=None):
        if self.commands:
            return self.commands.pop(0)
        for kind, _shard, _generation, seq, _payload in self.events.items:
            if kind in RELIABLE_EVENTS and seq not in self.acked:
                self.acked.add(seq)
                self.seq += 1
                return (self.seq, "ack_event", (seq,))
        raise queue.Empty


def _channel(events):
    return _EventChannel(events, "shard-0", 0, None, ack_timeout=0.25)


def _refuse_nothing(kind, args):
    raise AssertionError(f"unexpected late command {kind!r}")


def test_close_applies_the_routers_ack_of_the_stopped_event():
    events = FakeQueue()
    channel = _channel(events)
    channel.emit("stopped", {"metrics": {}})
    assert not channel.outbox.empty
    channel.close(RouterSide(events), _refuse_nothing, timeout=60.0)
    assert channel.outbox.empty
    assert [message[0] for message in events.items] == ["stopped"]


def test_close_hands_a_submission_that_raced_the_stop_to_late():
    events = FakeQueue()
    channel = _channel(events)
    channel.emit("stopped", {"metrics": {}})
    spec = {"job_id": "j1", "tenant": "t0"}
    late_submit = (7, "submit", (spec,))
    refused = []

    def refuse(kind, args):
        refused.append((kind, args))
        channel.emit("bounced", {"spec": args[0], "blocked": None, "hlops": None})

    router = RouterSide(events, [late_submit, late_submit])
    channel.close(router, refuse, timeout=60.0)
    # The duplicate delivery is acked again but refused only once, and the
    # bounce was acked too, so close returned with nothing left to resend.
    assert refused == [("submit", (spec,))]
    assert channel.outbox.empty
    kinds = [message[0] for message in events.items]
    assert kinds.count("bounced") == 1
    assert [m[4] for m in events.items if m[0] == "ack"] == [{"seq": 7}] * 2
