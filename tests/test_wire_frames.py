"""Record frames: the packed-column reply form, its rejection of anything it
did not write, and its parity with rows through a server and a cluster.
"""

import io
import json
import math
import random
import socket
import struct
import subprocess
import threading
import zlib
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    EndpointRange, Engine, FileDisk, Interval, Limit, OrderBy, Param, Range, SimulatedDisk, Stab,
)
from repro.cluster import Cluster
from repro.engine.result import RecordBatches
from repro.errors import DomainError
from repro.obs import metrics as obs_metrics
from repro.server import PROTOCOL_VERSION, ProtocolError, ReproClient, ReproServer, ServerError
from repro.server import core as server_core
from repro.server import protocol as P
from tests.domain import JSON, same, values
from tests.test_wire_records import numbers, payloads

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# --------------------------------------------------------------------------- #
# the codec
# --------------------------------------------------------------------------- #
wire_records = st.builds(
    lambda ends, payload, uid: Interval(ends[0], ends[1], payload, uid),
    st.tuples(numbers, numbers).map(sorted), payloads,
    st.integers(min_value=-(2**70), max_value=2**70),
)


def assert_same_records(got, want):
    assert [(r.low, r.high, r.payload, r.uid) for r in got] == \
        [(r.low, r.high, r.payload, r.uid) for r in want]
    assert [(type(r.low), type(r.high), type(r.payload), type(r.uid)) for r in got] == \
        [(type(r.low), type(r.high), type(r.payload), type(r.uid)) for r in want]


@settings(max_examples=200, deadline=None)
@given(records=st.lists(wire_records, max_size=12))
def test_frame_round_trip(records):
    frame = P.RecordFrame.of(records)
    back = P.RecordFrame.parse(frame.data)
    assert len(back) == len(records)
    assert_same_records(back.records(), records)
    assert P.RecordFrame.of(back.records()).data == frame.data          # encode(decode(b)) == b
    assert P.RecordFrame.of([Interval(r.low, r.high, r.payload, r.uid) for r in records]).data \
        == frame.data                                                   # equal records, equal bytes
    assert back.rows() == P.records_to_wire(records)


@settings(max_examples=200, deadline=None)
@given(ends=st.lists(st.tuples(numbers, numbers).map(sorted), max_size=8),
       data=st.data())
def test_frames_decode_to_what_rows_do_over_the_domain(ends, data):
    """Payloads from the part of the value domain a JSON row carries (tuples
    included: a row hands them over as lists, and so must a frame)."""
    records = [Interval(lo, hi, data.draw(values(JSON, with_records=False)), uid)
               for uid, (lo, hi) in enumerate(ends)]
    rows = P.decode_message(P.encode_reply(P.ok_response(1, records=records)))["records"]
    frame = P.read_reply(io.BytesIO(P.encode_reply(P.ok_response(1, records=records), True)))
    assert same(frame["records"].rows(), rows)


@pytest.mark.parametrize("n", [0, 1, 2000])
def test_frame_round_trip_by_size(n):
    records = [Interval(float(i), i + 0.5, i if i % 3 else None, 10**6 + i) for i in range(n)]
    frame = P.RecordFrame.of(records)
    assert_same_records(P.RecordFrame.parse(frame.data).records(), records)
    if n == 0:
        assert frame.data[12:] == b"NNNN"
    else:   # float endpoints and int uids are packed, eight bytes a value
        lows, highs, uids = 12, 12 + 1 + 8 * n, 12 + 2 + 16 * n
        assert (frame.data[lows:lows + 1], frame.data[highs:highs + 1], frame.data[uids:uids + 1]) \
            == (b"d", b"d", b"q")


def test_equal_payloads_give_equal_bytes():
    a = P.RecordFrame.of([Interval(1, 2, {"x": 1, "y": 2}, 7)])
    b = P.RecordFrame.of([Interval(1, 2, {"y": 2, "x": 1}, 7)])
    assert a.data == b.data


def _frame(count, *columns):
    body = struct.pack("<I", count) + b"".join(columns)
    return P.FRAME_MAGIC + struct.pack("<I", zlib.crc32(body)) + body


def _d(*values):
    return b"d" + struct.pack(f"<{len(values)}d", *values)


def _q(*values):
    return b"q" + struct.pack(f"<{len(values)}q", *values)


def _j(values):
    data = json.dumps(values).encode() if not isinstance(values, bytes) else values
    return b"J" + struct.pack("<I", len(data)) + data


GOOD = _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), b"N")
BAD_FRAMES = {
    "bad magic": b"RPPG" + GOOD[4:],
    "count above column length": _frame(3, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), b"N"),
    "count below column length": _frame(1, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), b"N"),
    "json column of another length": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), _j([1])),
    "trailing bytes": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), b"N", b"\0"),
    "opaque tag": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), b"O" + struct.pack("<I", 0)),
    "a page's value tag": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), b"Vnn"),
    "nan payload": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), _j(b"[1,NaN]")),
    "nan float payload": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), _d(0.5, math.nan)),
    "infinite float payload": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), _d(math.inf, 0.5)),
    "negative infinite float payload": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), _d(0.5, -math.inf)),
    "infinite payload": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), _j(b'[1,{"k":[Infinity]}]')),
    "unknown tag": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), b"I"),
    "json column not a list": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), _j({"0": 1, "1": 2})),
    "json column not json": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), _j(b"[1,")),
    "json column past the end": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), b"J" + struct.pack("<I", 99)),
    "nan low": _frame(2, _d(math.nan, 2.0), _d(5.0, 6.0), _q(7, 8), b"N"),
    "nan high": _frame(2, _d(1.0, 2.0), _d(5.0, math.nan), _q(7, 8), b"N"),
    "nan in json": _frame(2, _j(b"[1,NaN]"), _d(5.0, 6.0), _q(7, 8), b"N"),
    "infinite high": _frame(2, _d(1.0, 2.0), _d(5.0, math.inf), _q(7, 8), b"N"),
    "infinite low": _frame(2, _d(-math.inf, 2.0), _d(5.0, 6.0), _q(7, 8), b"N"),
    "out of order": _frame(2, _d(1.0, 9.0), _d(5.0, 6.0), _q(7, 8), b"N"),
    "string endpoint": _frame(2, _j(["a", 2.0]), _j(["b", 6.0]), _q(7, 8), b"N"),
    "bool endpoints": _frame(2, _j([False, 2.0]), _j([True, 6.0]), _q(7, 8), b"N"),
    "null endpoints": _frame(2, b"N", b"N", _q(7, 8), b"N"),
    "float uid": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _d(7.0, 8.0), b"N"),
    "string uid": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _j([7, "8"]), b"N"),
    "bool uid": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _j([7, True]), b"N"),
    "no uid": _frame(2, _d(1.0, 2.0), _d(5.0, 6.0), b"N", b"N"),
    "count no frame could hold": _frame(2**31, b"N", b"N", b"N", b"N"),
}


def _rejected(data, build):
    """``data`` is refused with a ProtocolError before any record is built."""
    with pytest.raises(ProtocolError):
        P.RecordFrame.parse(data).records()
    assert build.call_count == 0


@pytest.fixture
def build(monkeypatch):
    """Counts the records the frame decoder builds."""
    real = P.trusted_interval

    def counting(*args):
        counting.call_count += 1
        return real(*args)

    counting.call_count = 0
    monkeypatch.setattr(P, "trusted_interval", counting)
    return counting


def test_the_reference_frame_decodes(build):
    assert_same_records(P.RecordFrame.parse(GOOD).records(),
                        [Interval(1.0, 5.0, None, 7), Interval(2.0, 6.0, None, 8)])
    assert build.call_count == 2


@pytest.mark.parametrize("why", sorted(BAD_FRAMES))
def test_decoder_rejects_what_it_did_not_write(why, build):
    _rejected(BAD_FRAMES[why], build)


def test_packed_payload_columns_are_not_walked_value_by_value(monkeypatch):
    """Every int and ``None`` is a domain value and a ``d`` column is checked
    for finiteness in one pass: only a ``J`` column is walked."""
    real = P.check_value

    def counting(*args, **kwargs):
        counting.calls += 1
        return real(*args, **kwargs)

    counting.calls = 0
    monkeypatch.setattr(P, "check_value", counting)
    for payloads, want in ((_q(3, -(2**63)), [3, -(2**63)]), (b"N", [None, None]),
                           (_d(0.5, -0.0), [0.5, -0.0])):
        frame = P.RecordFrame.parse(_frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), payloads))
        assert [r.payload for r in frame.records()] == want
    assert counting.calls == 0
    frame = P.RecordFrame.parse(_frame(2, _d(1.0, 2.0), _d(5.0, 6.0), _q(7, 8), _j(["a", {"k": 1}])))
    assert [r.payload for r in frame.records()] == ["a", {"k": 1}] and counting.calls == 2


def test_decoder_rejects_every_truncation_and_every_flipped_bit(build):
    for cut in range(len(GOOD)):
        _rejected(GOOD[:cut], build)
    for bit in range(8 * len(GOOD)):
        damaged = bytearray(GOOD)
        damaged[bit // 8] ^= 1 << (bit % 8)
        _rejected(bytes(damaged), build)


def test_no_object_stream_in_the_serving_code():
    """Nothing that serves, stores or rebuilds pages unpickles (the WAL still does)."""
    paths = [SRC / "server", SRC / "cluster", SRC / "io", SRC / "cli.py", SRC / "rebuilding.py"]
    found = subprocess.run(["grep", "-rn", "--include=*.py", "pickle", *map(str, paths)],
                           capture_output=True, text=True)
    assert (found.returncode, found.stdout) == (1, "")


def test_reply_codec_rows_and_frames():
    records = [Interval(1.0, 5.0, "p", 3), Interval(2, 3, None, 4)]
    response = P.ok_response(9, ios=2, records=records, count=2)
    assert P.decode_message(P.encode_reply(response)) == {
        "id": 9, "ok": True, "ios": 2, "records": [[1.0, 5.0, "p", 3], [2, 3, None, 4]], "count": 2}
    reply = P.encode_reply(response, True)
    line, _, frame = reply.partition(b"\n")
    envelope = json.loads(line)
    assert envelope == {"id": 9, "ok": True, "ios": 2, "count": 2, "frame": len(frame)}
    got = P.read_reply(io.BytesIO(reply))
    assert isinstance(got["records"], P.RecordFrame) and got["records"].data == frame
    assert_same_records(got["records"].records(), records)
    # a frame goes out as the bytes it came in as, or as its rows
    assert P.encode_reply({**response, "records": got["records"]}, True) == reply
    assert P.encode_reply({**response, "records": got["records"]}) == P.encode_reply(response)
    # replies without records, and errors, are one line whatever was asked
    assert P.encode_reply(P.ok_response(1, pong=True), True) == P.encode_message({"id": 1, "ok": True, "pong": True})
    with pytest.raises(ProtocolError, match="no wire form"):
        P.encode_reply(P.ok_response(1, records=[(1, 2)]), True)


@pytest.mark.parametrize("frame", [True, -1, 2.0, "12", None, [12]])
def test_frame_length_must_be_a_byte_count(frame):
    with pytest.raises(ProtocolError, match="'frame'"):
        P.read_reply(io.BytesIO(P.encode_message({"id": 1, "ok": True, "frame": frame}) + GOOD))


# --------------------------------------------------------------------------- #
# through the serving surfaces: rows and frames say the same thing
# --------------------------------------------------------------------------- #
class RowsClient(ReproClient):
    """A client of the version before frames: it never sends the field."""

    def call(self, cmd, **payload):
        payload.pop("frames", None)
        return super().call(cmd, **payload)


@contextmanager
def serving(surface):
    """``(address, the ReproServers behind it)``: one server, or a 3-shard cluster."""
    if surface == "server":
        with ReproServer(Engine(SimulatedDisk(16))) as srv:
            yield srv.address, [srv]
    else:
        with Cluster.create(None, shards=3, strategy="range", mode="thread",
                            domain=(0.0, 90.0)) as cluster:
            yield cluster.address, [h.server for h in cluster.supervisor.handles]


@pytest.fixture(params=["server", "cluster"])
def surface(request):
    with serving(request.param) as (address, shards):
        yield request.param, address, shards


@pytest.fixture
def both(surface):
    _kind, address, _shards = surface
    with RowsClient(*address) as rows, ReproClient(*address) as frames:
        yield rows, frames


def base_records():
    return [Interval(float(i), float(i + 40), {"n": -i} if i % 10 else None) for i in range(0, 90, 5)]


def same_answer(a, b):
    assert_same_records(a.records, b.records)
    assert isinstance(b.records, list) and all(type(r) is Interval for r in b.records)
    assert (a.ios, a.bound, a.count, a.stats, a.from_cache) == (b.ios, b.bound, b.count, b.stats, b.from_cache)
    assert a.raw.get("shards_contacted") == b.raw.get("shards_contacted")
    assert a.raw["count"] == b.raw["count"] == len(b.records)
    assert "frame" in b.raw and "frame" not in a.raw


READS = [
    Stab(42.0),
    Stab(3.0),                                              # one shard of the cluster
    Stab(500.0),                                            # nothing
    Range(0.0, 200.0),
    OrderBy(Range(0.0, 200.0), key="high", reverse=True),
    OrderBy(Range(0.0, 200.0)),
    OrderBy(Range(10.0, 60.0), key="low", reverse=True),
    Limit(Range(0.0, 200.0), 5),
    Limit(OrderBy(Range(0.0, 200.0), key="high", reverse=True), 4),
    Limit(Stab(42.0), 0),
]


class TestParity:
    def test_query_and_run(self, both):
        rows, frames = both
        rows.create("base", records=[])
        stored = frames.bulk_load("base", base_records())
        for q in READS:
            a, b = rows.query("base", q), frames.query("base", q)
            same_answer(a, b)
            node = q
            while isinstance(node, (Limit, OrderBy)):
                node = node.part
            assert {r.uid for r in b.records} <= {r.uid for r in stored if node.matches(r)}
        got = frames.query("base", OrderBy(Range(0.0, 200.0), key="high", reverse=True)).records
        assert [r.uid for r in got] == [r.uid for r in sorted(stored, key=lambda r: r.high, reverse=True)]
        lease_a, lease_b = (db.prepare("base", Stab(Param("x"))) for db in both)
        for x in (42.0, 3.0, 500.0):
            for _ in range(2):                              # the second is a plan-cache hit
                same_answer(lease_a.run(x=x), lease_b.run(x=x))

    def test_bulk_load_echo(self, both):
        rows, frames = both
        rows.create("base", records=[])
        echo_a, echo_b = rows.bulk_load("base", base_records()), frames.bulk_load("base", base_records())
        want = [(r.low, r.high, r.payload) for r in base_records()]
        assert [(r.low, r.high, r.payload) for r in echo_a] == want         # submission order
        assert [(r.low, r.high, r.payload) for r in echo_b] == want
        assert all(type(r) is Interval and type(r.uid) is int for r in echo_a + echo_b)
        everything = frames.query("base", Range(-1e9, 1e9)).records
        assert sorted(r.uid for r in everything) == sorted(r.uid for r in echo_a + echo_b)

    def test_delete_by_query(self, both):
        rows, frames = both
        for name in ("a", "b"):
            rows.create(name, records=[])
        stored = {"a": rows.bulk_load("a", base_records()), "b": frames.bulk_load("b", base_records())}
        for q, limit in ((Stab(42.0), 3), (Stab(42.0), None), (Range(0.0, 200.0), None)):
            before = {name: frames.query(name, q).records for name in stored}
            a, b = rows.delete("a", q=q, limit=limit), frames.delete("b", q=q, limit=limit)
            assert a["removed"] == b["removed"] == len(a["records"]) == len(b["records"])
            assert a["removed"] == (min(limit, len(before["a"])) if limit is not None else len(before["a"]))
            assert a.get("shards_contacted") == b.get("shards_contacted")
            assert a["ios"] == b["ios"]
            assert [row[:3] for row in a["records"]] == [row[:3] for row in b["records"]]   # and order
            assert all(type(row) is list and type(row[3]) is int for row in b["records"])
            for name, reply in (("a", a), ("b", b)):
                assert {row[3] for row in reply["records"]} <= {r.uid for r in before[name]}
                left = {r.uid for r in frames.query(name, q).records}
                assert left == {r.uid for r in before[name]} - {row[3] for row in reply["records"]}

    def test_an_old_client_and_an_old_server_both_still_work(self, surface, monkeypatch):
        _kind, address, _shards = surface

        def round_trip(db, name):
            db.create(name, records=[Interval(1.0, 9.0, "x")])
            loaded = db.bulk_load(name, [Interval(2.0, 3.0), Interval(4, 5, [1])])
            assert [(r.low, r.high, r.payload) for r in loaded] == [(2.0, 3.0, None), (4, 5, [1])]
            lease = db.prepare(name, Stab(Param("x")))
            hits = db.query(name, Stab(2.5))
            assert_same_records(lease.run(x=2.5).records, hits.records)
            assert {r.uid for r in hits.records} > {loaded[0].uid}
            removed = db.delete(name, q=Stab(4.5))
            assert removed["removed"] == 2 and loaded[1].uid in {row[3] for row in removed["records"]}
            assert [r.uid for r in db.query(name, Range(-1e9, 1e9)).records] == [loaded[0].uid]
            return hits

        with RowsClient(*address) as old_client:
            assert "frame" not in round_trip(old_client, "old-client").raw
            assert old_client.ping()["version"] == PROTOCOL_VERSION == 2
        # a server that has never heard of the field: it is never read
        monkeypatch.setattr(server_core, "_FRAMES", server_core._Field("(no such field)", (bool,), False))
        with ReproClient(*address) as db:
            assert "frame" not in round_trip(db, "old-server").raw


def raw_request(sock_file, wfile, **message):
    """One request over a raw socket; ``(line, frame bytes or None)``."""
    wfile.write(P.encode_message(message))
    wfile.flush()
    line = sock_file.readline()
    length = json.loads(line).get("frame")
    return line, (sock_file.read(length) if length is not None else None)


@contextmanager
def raw_connection(address):
    with socket.create_connection(address, timeout=10) as sock:
        with sock.makefile("rb") as rfile, sock.makefile("wb") as wfile:
            yield rfile, wfile


class TestOnTheWire:
    def test_rows_unless_asked_and_the_counters_count_both_parts(self, surface):
        kind, address, _shards = surface
        prefix = "server" if kind == "server" else "router"

        def bytes_out():
            return obs_metrics.REGISTRY.snapshot()["counters"].get(f"{prefix}.bytes_out.query", 0)

        with ReproClient(*address) as db:
            db.create("base", records=base_records())
        q = P.query_to_wire(Stab(42.0))
        with raw_connection(address) as (rfile, wfile):
            before = bytes_out()
            line, frame = raw_request(rfile, wfile, id=1, cmd="query", index="base", q=q)
            rows = json.loads(line)
            assert frame is None and "frame" not in rows and rows["count"] == len(rows["records"]) == 8
            assert all(type(row) is list and len(row) == 4 for row in rows["records"])
            assert bytes_out() - before == len(line)
            for asked in (False, None):                     # false and null are "not asked"
                again, frame = raw_request(rfile, wfile, id=1, cmd="query", index="base", q=q, frames=asked)
                assert frame is None and json.loads(again)["records"] == rows["records"]
            before = bytes_out()
            line, frame = raw_request(rfile, wfile, id=2, cmd="query", index="base", q=q, frames=True)
            envelope = json.loads(line)
            assert "records" not in envelope and envelope["frame"] == len(frame) and envelope["count"] == 8
            assert bytes_out() - before == len(line) + len(frame)
            assert P.RecordFrame.parse(frame).rows() == rows["records"]
            # the field is typed like every other
            line, frame = raw_request(rfile, wfile, id=3, cmd="query", index="base", q=q, frames=1)
            assert frame is None and json.loads(line)["error"]["code"] == "bad_request"
            # a reply without records is one line whatever was asked
            line, frame = raw_request(rfile, wfile, id=4, cmd="ping", frames=True)
            assert frame is None and json.loads(line)["version"] == 2

    def test_a_single_shard_answer_is_forwarded_byte_for_byte(self):
        with serving("cluster") as (address, shards):
            with ReproClient(*address) as db:
                db.create("base", records=base_records())
                assert db.query("base", Stab(3.0)).raw["shards_contacted"] == 1
            request = dict(cmd="query", index="base", q=P.query_to_wire(Stab(3.0)), frames=True)
            with raw_connection(address) as (rfile, wfile):
                _line, routed = raw_request(rfile, wfile, id=1, **request)
            direct = []
            for shard in shards:
                with raw_connection(shard.address) as (rfile, wfile):
                    direct.append(raw_request(rfile, wfile, id=1, **request)[1])
            assert len(P.RecordFrame.parse(routed)) > 0
            assert [frame for frame in direct if len(P.RecordFrame.parse(frame))] == [routed]

    @pytest.mark.parametrize("frames", [False, True])
    def test_an_unencodable_reply_is_an_error_not_a_dropped_connection(self, surface, frames):
        kind, address, servers = surface
        prefix = "server" if kind == "server" else "router"

        def bytes_out():
            return obs_metrics.REGISTRY.snapshot()["counters"].get(f"{prefix}.bytes_out.query", 0)

        with ReproClient(*address) as db:
            db.create("c", records=[Interval(7.0, 8.0)])
            session = servers[0].engine.session()
            # a set is no value: refused where the record is built, in process too
            with pytest.raises(DomainError):
                session.insert("c", Interval(1.0, 5.0, payload={1, 2}))
            # bytes are a value no JSON row carries: stored in process, unencodable in a reply
            session.insert("c", Interval(1.0, 5.0, payload=b"\x00"))
            before = bytes_out()
            for _ in range(2):
                with pytest.raises(ServerError) as err:
                    db.call("query", index="c", q=P.query_to_wire(Stab(2.5)), frames=frames)
                assert (err.value.code, err.value.type) == ("internal", "TypeError")
                assert "bytes" in str(err.value)
            assert bytes_out() - before > 2 * len('{"id":1,"ok":false}')      # the error replies count
            assert db.ping()["pong"]                                           # same connection
            assert db.query("c", Stab(7.5)).count == 1


# --------------------------------------------------------------------------- #
# a client that lost its place in the stream reads no further
# --------------------------------------------------------------------------- #
@contextmanager
def scripted_peer(*replies):
    """A peer that answers the k-th request line with ``replies[k]`` verbatim
    (``None``: no answer at all; ending in ``HANG_UP``: and closes), then
    hangs up."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as rfile:
            for reply in replies:
                if not rfile.readline():
                    return
                if reply is None:
                    threading.Event().wait(0.5)
                elif reply.endswith(HANG_UP):
                    conn.sendall(reply[:-len(HANG_UP)])
                    return
                else:
                    conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        listener.close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _envelope(**fields):
    return P.encode_message({"id": 1, "ok": True, **fields})


PONG = P.encode_message({"id": 2, "ok": True, "pong": True})
HANG_UP = b"<hang up>"
LOST = {
    "short frame, then eof": (_envelope(frame=len(GOOD)) + GOOD[:10] + HANG_UP, ConnectionError),
    "short frame, then silence": (_envelope(frame=len(GOOD)) + GOOD[:10], OSError),
    "bad crc": (_envelope(frame=len(GOOD)) + GOOD[:-1] + b"\xff" + PONG, ProtocolError),
    "bad magic": (_envelope(frame=len(GOOD)) + b"XXXX" + GOOD[4:] + PONG, ProtocolError),
    "frame length a bool": (_envelope(frame=True) + PONG, ProtocolError),
    "frame length negative": (_envelope(frame=-1) + PONG, ProtocolError),
    "undecodable envelope": (b"{not json\n" + PONG, ProtocolError),
    "half an envelope, then silence": (b'{"id":1,"ok":tr', OSError),
    "half an envelope, then eof": (b'{"id":1,"ok":tr' + HANG_UP, ProtocolError),
    "another request's id": (P.encode_message({"id": 7, "ok": True}) + PONG, ConnectionError),
    "no answer in time": (None, OSError),
}


@pytest.mark.parametrize("why", sorted(LOST))
def test_client_closes_rather_than_read_on(why, build):
    reply, error = LOST[why]
    with scripted_peer(reply, PONG) as address:
        with ReproClient(*address, timeout=0.1, connect_retries=0) as db:
            with pytest.raises(error):
                db.query("c", Stab(1.0))
            for _ in range(2):      # at once, and never the previous reply's tail
                with pytest.raises(ConnectionError, match="closed"):
                    db.ping()
    assert build.call_count == 0


def test_a_bad_column_is_refused_before_any_record_and_the_connection_lives(build):
    bad = BAD_FRAMES["nan high"]
    with scripted_peer(_envelope(frame=len(bad)) + bad, PONG) as address:
        with ReproClient(*address, connect_retries=0) as db:
            with pytest.raises(ProtocolError, match="finite"):
                db.query("c", Stab(1.0))
            assert db.ping()["pong"]          # the frame was read whole: the stream is in place
    assert build.call_count == 0


def test_a_structured_error_keeps_the_connection():
    with ReproServer(Engine(SimulatedDisk(16))) as srv, ReproClient(*srv.address) as db:
        with pytest.raises(ServerError):
            db.query("nope", Stab(1.0))
        assert db.ping()["pong"]


# --------------------------------------------------------------------------- #
# page columns to frame columns: a read leaves as the columns it was read in
# --------------------------------------------------------------------------- #
def test_a_frames_read_on_filedisk_builds_no_record_on_the_server(tmp_path):
    disk = FileDisk(str(tmp_path / "db.pages"), block_size=16)
    engine = Engine(disk)
    rnd = random.Random(7)
    records = [Interval(lo, lo + rnd.uniform(0.0, 40.0), i)
               for i, lo in enumerate(rnd.uniform(0.0, 1000.0) for _ in range(3000))]
    try:
        engine.create_collection("c")
        engine.bulk_load("c", records[:2500])
        for record in records[2500:]:                     # update blocks and TD copies too
            engine.insert("c", record)
        executor = server_core.SessionExecutor(None, engine.session())
        prepared, _ = executor.prepare("c", Stab(Param("x")))
        for x in [rnd.uniform(0.0, 1000.0) for _ in range(40)]:
            pages, built = disk.decoded.pages, disk.decoded.records
            payload = executor.run(prepared, {"x": x})
            reply = P.encode_reply(P.ok_response(1, **payload), frames=True)
            assert disk.decoded.pages > pages and disk.decoded.records == built
            got = P.read_reply(io.BytesIO(reply))["records"].records()
            assert sorted(r.uid for r in got) == sorted(r.uid for r in records if r.low <= x <= r.high)
            assert_same_records(got, engine.query("c", Stab(x)).all())
        # deletes with no pin held (a mixed workload's shape): the metablock
        # keeps tombstones until its rebuild, the endpoint trees hold none — an
        # endpoint read still builds nothing
        live = {r.uid: r for r in records}
        for record in records[::30]:
            assert engine.delete("c", record)
            del live[record.uid]
        for side in ("low", "high"):
            q = EndpointRange(side, 200.0, 260.0)
            pages, built = disk.decoded.pages, disk.decoded.records
            reply = P.encode_reply(P.ok_response(1, **executor.query("c", q)), frames=True)
            assert disk.decoded.pages > pages and disk.decoded.records == built
            got = P.read_reply(io.BytesIO(reply))["records"].records()
            assert sorted(r.uid for r in got) == sorted(uid for uid, r in live.items() if q.matches(r))
    finally:
        engine.close()


PAYLOADS = {
    "none": st.none(),
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=3),
    "dict": st.dictionaries(st.text(max_size=2), st.integers(-9, 9), max_size=2),
}


@st.composite
def lifecycles(draw):
    """A bulk-built prefix, then inserts and deletes, and the reads to make:
    payloads of one kind (packed page columns) or of all (``V`` ones)."""
    kind = draw(st.sampled_from(sorted(PAYLOADS) + ["mixed"]))
    payload = st.one_of(*PAYLOADS.values()) if kind == "mixed" else PAYLOADS[kind]
    ends = draw(st.sampled_from([st.floats(0.0, 100.0), st.integers(0, 100)]))
    intervals = st.builds(
        lambda low, length, p: Interval(low, low + length, p), ends, ends, payload
    )
    point = st.floats(-5.0, 105.0)
    queries = st.one_of(
        st.builds(Stab, point),
        st.builds(lambda a, b: Range(min(a, b), max(a, b)), point, point),
        st.builds(lambda side, a, b: EndpointRange(side, min(a, b), max(a, b)),
                  st.sampled_from(["low", "high"]), point, point),
    )
    return (
        draw(st.lists(intervals, min_size=1, max_size=60)),
        draw(st.lists(intervals, max_size=40)),
        draw(st.lists(st.integers(0, 10**6), max_size=15)),
        draw(st.lists(queries, min_size=1, max_size=4)),
    )


def _oracle(model, q):
    return sorted(uid for uid, r in model.items() if q.matches(r))


def _current(engine, q):
    """``.all()`` of ``q`` as a reader of the current epoch sees it."""
    with engine.read_turn("c"):
        return engine.query("c", q).all()


def _frames_and_rows(payload):
    """The records a reply payload carries, read back from both wire forms."""
    frame = P.read_reply(io.BytesIO(P.encode_reply(P.ok_response(1, **payload), True)))
    rows = P.read_reply(io.BytesIO(P.encode_reply(P.ok_response(1, **payload), False)))
    return frame["records"].records(), P.records_from_wire(rows["records"])


@pytest.mark.parametrize("backend", ["memory", "file"])
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=lifecycles())
def test_the_columnar_answer_is_the_record_answer(backend, case):
    """Frames packed from page columns, rows built from records and
    ``.all()`` give the same records, uid for uid, in order, type for type —
    with the TD seen-set, the tombstone filter and a pinned reader's MVCC
    filter on, in process and through a server."""
    base, inserts, deletes, queries = case
    engine = Engine(SimulatedDisk(4) if backend == "memory" else FileDisk(block_size=4))
    try:
        engine.create_collection("c")
        engine.bulk_load("c", base)
        model = {r.uid: r for r in base}
        executor = server_core.SessionExecutor(None, engine.session())
        with ReproServer(engine) as srv, ReproClient(*srv.address) as frames_db, \
                RowsClient(*srv.address) as rows_db:
            with engine.epochs.pinned():
                snapshot = dict(model)
                for record in inserts:
                    engine.insert("c", record)
                    model[record.uid] = record
                for k in deletes:
                    if model:
                        victim = list(model.values())[k % len(model)]
                        assert engine.delete("c", victim)
                        del model[victim.uid]
                for q in queries:
                    # the reader pinned before the writes
                    pinned = engine.query("c", q).batches()
                    listed = RecordBatches([engine.query("c", q).all()])
                    assert [r.uid for r in listed] == [r.uid for r in pinned]
                    assert sorted(r.uid for r in pinned) == _oracle(snapshot, q)
                    assert_same_records(pinned.records(), listed.records())
                    assert_same_records(P.RecordFrame.of(pinned).records(), listed.records())
                    # a reader of the current epoch, in process and over the wire
                    want = _current(engine, q)
                    assert sorted(r.uid for r in want) == _oracle(model, q)
                    for got in (*_frames_and_rows(executor.query("c", q)),
                                frames_db.query("c", q).records, rows_db.query("c", q).records,
                                engine.session().query("c", q).records):
                        assert_same_records(got, want)
            victims = _current(engine, queries[0])
            for got in _frames_and_rows(executor.delete_matching("c", queries[0], None)):
                assert_same_records(got, victims)
            left = _current(engine, queries[-1])
            reply = frames_db.call("delete", index="c", q=P.query_to_wire(queries[-1]), frames=True)
            assert_same_records(reply["records"].records(), left)
    finally:
        engine.close()
