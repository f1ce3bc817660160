"""The shared receiver side, alone: the session table and the frame
server.

One Hypothesis state machine drives a :class:`SessionTable` the way
publishers and receivers do — admissions (retries, next frames, stale
and gapped ones), completions, aborts, hellos and filler sessions that
push three tracked sessions past a small bound — against a model of
what each publisher has had acknowledged.
"""

import socket
import sys
import threading
import time

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.live import session as session_module
from repro.live.protocol import (
    FRAME_CONTROL,
    FRAME_ERROR,
    FRAME_OK,
    ProtocolError,
    pack_control,
    pack_frame,
    pack_ok,
    read_frame,
)
from repro.live.session import FrameServer, SessionTable

SESSIONS = ("a", "b", "c")


class SessionTableMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._saved = (session_module.MAX_SESSIONS,
                       session_module.DUPLICATE_WAIT_SECONDS)
        # Room for four sessions; a retry of an in-flight frame is
        # refused at once instead of waiting for it.
        session_module.MAX_SESSIONS = 4
        session_module.DUPLICATE_WAIT_SECONDS = 0.0
        self.table = SessionTable("hello")
        #: The seq the table holds per session (None: unknown to it),
        #: and that seq's cached ack.
        self.held = dict.fromkeys(SESSIONS)
        self.cached = {}
        #: Admitted frames: session -> (seq, previous held, previous ack).
        self.flight = {}
        #: Highest seq acknowledged to each publisher.
        self.acked = dict.fromkeys(SESSIONS, 0)
        self.completed = set()
        #: Publishers acknowledged by a sibling receiver since they
        #: last spoke here: they hello before sending here again.
        self.elsewhere = set()
        self.fillers = 0

    def teardown(self):
        (session_module.MAX_SESSIONS,
         session_module.DUPLICATE_WAIT_SECONDS) = self._saved

    def _forget_evicted(self):
        for name in SESSIONS:
            if self.held[name] is not None \
                    and name not in self.table.describe():
                assert name not in self.flight, "evicted an in-flight entry"
                self.held[name] = None
                self.cached.pop(name, None)

    @rule(name=st.sampled_from(SESSIONS),
          offset=st.sampled_from([-1, 0, 1, 2]))
    def admit(self, name, offset):
        held = self.held[name]
        seq = (held if held is not None else self.acked[name]) + offset
        if seq < 1 or name in self.elsewhere \
                or (held is None and self.acked[name] and seq == 1):
            return  # a publisher never restarts a session it has used
        if held is None:
            expect = "fresh" if seq == 1 else "unknown"
        elif seq == held:
            expect = "refused" if name in self.flight else "duplicate"
        elif seq == held + 1 and name not in self.flight:
            expect = "fresh"
        else:
            expect = "refused"
        try:
            result = self.table.admit(name, seq)
        except ProtocolError as exc:
            assert expect in ("refused", "unknown"), exc
            assert (expect == "unknown") == ("send hello" in str(exc))
            return
        if expect == "duplicate":
            assert result == self.cached[name]  # the exact cached bytes
            return
        assert expect == "fresh" and result is None
        self.flight[name] = (seq, held, self.cached.get(name))
        self.held[name] = seq
        self._forget_evicted()

    @precondition(lambda self: self.flight)
    @rule(data=st.data())
    def complete(self, data):
        name = data.draw(st.sampled_from(sorted(self.flight)))
        seq, _held, _ack = self.flight.pop(name)
        assert (name, seq) not in self.completed, "completed twice"
        self.completed.add((name, seq))
        ack = f"ack {name} {seq}".encode()
        self.table.complete(name, seq, ack)
        self.cached[name] = ack
        self.acked[name] = max(self.acked[name], seq)

    @precondition(lambda self: self.flight)
    @rule(data=st.data())
    def abort(self, data):
        name = data.draw(st.sampled_from(sorted(self.flight)))
        seq, held, ack = self.flight.pop(name)
        self.table.abort(name, seq)
        self.held[name] = held
        if ack is None:
            self.cached.pop(name, None)
        else:
            self.cached[name] = ack
        if held is None:
            assert name not in self.table.describe()
        else:
            assert self.table.describe()[name]["seq"] == held

    @rule(name=st.sampled_from(SESSIONS), lower=st.booleans())
    def hello(self, name, lower):
        held = self.held[name]
        # A publisher declares what it has had acknowledged; a lower
        # declaration is only tried where the table knows better.
        seq = (held - 1 if lower and held else self.acked[name])
        ack = f"seeded {name} {seq}".encode()
        doc = self.table.hello({"op": "hello", "session": name,
                                "seq": seq}, lambda _seq: ack)
        if seq > 0 and (held is None or (name not in self.flight
                                         and held < seq)):
            self.held[name] = seq
            self.cached[name] = ack
        assert doc == {"session": name, "seq": self.held[name] or 0}
        if held is not None:
            assert doc["seq"] >= held, "hello lowered a watermark"
        if not lower:
            self.elsewhere.discard(name)
        self._forget_evicted()

    @precondition(lambda self: len(self.flight) < len(SESSIONS))
    @rule(data=st.data())
    def acked_elsewhere(self, data):
        """The publisher's next frame is acknowledged by a sibling
        receiver (``SO_REUSEPORT`` handed its connection to another
        worker), so a later hello here must advance the watermark."""
        name = data.draw(st.sampled_from(
            [name for name in SESSIONS if name not in self.flight]))
        seq = max(self.acked[name], self.held[name] or 0) + 1
        self.completed.add((name, seq))
        self.acked[name] = seq
        self.elsewhere.add(name)

    @rule(count=st.integers(1, 5))
    def fill(self, count):
        for _ in range(count):
            self.fillers += 1
            self.table.hello({"op": "hello", "seq": 1,
                              "session": f"filler-{self.fillers}"},
                             lambda _seq: b"filler")
        self._forget_evicted()

    @invariant()
    def table_holds_the_modelled_watermarks(self):
        described = self.table.describe()
        # Only in-flight entries may hold the table above its bound.
        assert len(described) <= session_module.MAX_SESSIONS \
            + len(self.flight)
        for name in SESSIONS:
            if self.held[name] is None:
                assert name not in described
            else:
                assert described[name]["seq"] == self.held[name]


TestSessionTable = SessionTableMachine.TestCase
TestSessionTable.settings = settings(max_examples=150,
                                     stateful_step_count=40,
                                     deadline=None)


def test_a_raising_handler_leaves_the_session_as_it_was():
    table = SessionTable("hello")
    assert table.serve("s", 1, lambda: b"one") == (b"one", True)

    def boom():
        raise OSError("ingest died")

    try:
        table.serve("s", 2, boom)
    except OSError:
        pass
    assert table.describe()["s"]["seq"] == 1
    assert table.serve("s", 1, boom) == (b"one", False)
    assert table.serve("s", 2, lambda: b"two") == (b"two", True)


def test_racing_retries_complete_each_frame_once():
    """Two threads per session send every frame — an original and its
    retry racing — under a tiny switch interval: each ``(session,
    seq)`` is handled exactly once and every answer is that frame's
    ack.  A thread that falls behind is refused as stale."""
    table = SessionTable("hello")
    handled, answers, refused = [], [], []

    def publisher(session):
        for seq in range(1, 201):
            def handle():
                handled.append((session, seq))
                time.sleep(0)
                return f"{session}:{seq}".encode()
            try:
                response, _fresh = table.serve(session, seq, handle)
            except ProtocolError as exc:
                refused.append(str(exc))
                continue
            answers.append((session, seq, response))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=publisher, args=(f"s{i % 4}",))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(handled) == sorted((f"s{i}", seq) for i in range(4)
                                     for seq in range(1, 201))
    assert all(response == f"{session}:{seq}".encode()
               for session, seq, response in answers)
    assert all("stale" in message for message in refused)


def test_frame_server_counts_and_closes_under_racing_clients():
    """Eight clients race connects, good frames and rejected ones (a
    handler's ``ProtocolError``, an unknown frame type) against one
    frame server under a tiny switch interval: every connection and
    every rejection is counted once, every connection stays open after
    its rejections, and ``close()`` leaves no handler behind."""

    def handle(payload):
        if bytes(payload) == b'"bad"':
            raise ProtocolError("bad op")
        return pack_ok({"ok": True})

    server = FrameServer({FRAME_CONTROL: handle}, 30.0, "stress")
    address = server.listen("127.0.0.1", 0)
    answers, errors = [], []

    def client():
        for _ in range(5):
            with socket.create_connection(address, timeout=30.0) as sock:
                rfile = sock.makefile("rb")
                for frame in (pack_control({"op": "ping"}),
                              pack_frame(FRAME_CONTROL, b'"bad"'),
                              pack_frame(0x7F, b""),
                              pack_control({"op": "ping"})):
                    sock.sendall(frame)
                    ftype, _body = read_frame(rfile)
                    (answers if ftype == FRAME_OK else errors).append(ftype)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(answers) == 80 and errors == [FRAME_ERROR] * 80
    assert server.connections_total == 40
    assert server.rejected_frames_total == 80
    handlers = list(server._conns.values())
    server.close()
    assert not any(thread.is_alive() for thread in handlers)
    assert server.connections_open == 0
