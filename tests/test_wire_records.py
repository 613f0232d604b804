"""Records on the wire (protocol version 2): the row form, its validation,
and the always-on byte counters — through a single server and a cluster.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, Interval, OrderBy, Range, SimulatedDisk, Stab
from repro.cluster import Cluster
from repro.obs import metrics as obs_metrics
from repro.server import (
    PROTOCOL_VERSION,
    ProtocolError,
    ReproClient,
    ReproServer,
    ServerError,
    decode_message,
    encode_message,
    record_from_dict,
    record_to_dict,
    record_to_row,
)
from repro.server import protocol as P

finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(finite, st.integers(min_value=-(10**30), max_value=10**30))
payloads = st.one_of(
    st.none(), st.integers(), finite, st.text(max_size=6),
    st.lists(st.integers(), max_size=3), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(ends=st.tuples(numbers, numbers).map(sorted), payload=payloads,
       uid=st.integers(min_value=2**40, max_value=2**53))   # clear of minted uids
def test_row_round_trip_over_the_wire_encoding(ends, payload, uid):
    record = Interval(ends[0], ends[1], payload, uid)
    row = decode_message(encode_message({"r": record_to_row(record)}))["r"]
    back = record_from_dict(row)
    assert (back, back.uid, back.payload) == (record, uid, payload)
    assert (type(back.low), type(back.high)) == (type(record.low), type(record.high))
    assert record_from_dict(record_to_dict(record)) == back          # the input-only form
    fresh = record_from_dict(row, fresh_uid=True)
    assert fresh == record and fresh.uid != uid and fresh.payload == payload
    assert record_from_dict(row[:3] + [None]).uid not in (uid, fresh.uid)   # no uid: minted


def test_rows_are_what_records_to_wire_emits():
    records = [Interval(1.0, 2.0, "a"), Interval(3, 4)]
    assert P.records_to_wire(records) == [record_to_row(r) for r in records]
    assert record_to_row(records[0]) == [1.0, 2.0, "a", records[0].uid]
    with pytest.raises(ProtocolError, match="no wire form"):
        P.records_to_wire([records[0], (1, 2)])


MALFORMED = {
    "unhashable uid": {"low": 1, "high": 2, "uid": [1]},
    "string uid": [1.0, 2.0, None, "7"],
    "bool uid": [1.0, 2.0, None, True],
    "float uid": [1.0, 2.0, None, 7.0],
    "nan low": {"low": math.nan, "high": 2},
    "nan high": [1.0, math.nan, None, 5],
    "infinite": [1.0, math.inf, None, 5],
    "string endpoint": ["a", "b", None, 5],
    "bool endpoint": [False, True, None, 5],
    "null endpoint": {"low": None, "high": 2},
    "out of order": [3.0, 1.0, None, 5],
    "short row": [1.0, 2.0, None],
    "not a record": 17,
    "unknown kind": {"record": "point", "low": 1, "high": 2},
    "missing field": {"low": 1},
    "nan payload": [1.0, 2.0, math.nan, 5],
    "infinite payload": [1.0, 2.0, {"k": [math.inf]}, 5],
}


@pytest.mark.parametrize("why", sorted(MALFORMED))
@pytest.mark.parametrize("fresh_uid", [False, True])
def test_decoder_rejects_malformed_records(why, fresh_uid):
    with pytest.raises(ProtocolError):
        record_from_dict(MALFORMED[why], fresh_uid=fresh_uid)


# --------------------------------------------------------------------------- #
# through the serving surfaces
# --------------------------------------------------------------------------- #
@pytest.fixture(params=["server", "cluster"])
def db(request):
    if request.param == "server":
        with ReproServer(Engine(SimulatedDisk(16))) as srv, ReproClient(*srv.address) as client:
            yield client
    else:
        with Cluster.create(None, shards=3, strategy="range", mode="thread",
                            domain=(0.0, 100.0)) as cluster:
            with ReproClient(*cluster.address) as client:
                yield client


def _send(db, cmd, **payload):
    """One raw request, NaN and all (the client's own encoder would refuse
    nothing either: Python's json writes NaN)."""
    return db.call(cmd, **payload)


class TestMalformedRecordsAreBadRequests:
    BAD = [MALFORMED[k] for k in ("unhashable uid", "nan low", "infinite", "string endpoint",
                                  "nan payload")]

    def _assert_untouched(self, db, base):
        got = db.query("base", Range(-1e9, 1e9)).records
        assert sorted(r.uid for r in got) == sorted(r.uid for r in base)
        assert db.ping()["pong"]                       # and the connection lives

    @pytest.mark.parametrize("keep_uids", [False, True])
    def test_insert_bulk_load_delete(self, db, keep_uids):
        db.create("base", records=[])
        base = db.bulk_load("base", [Interval(float(i), float(i + 30), i) for i in range(0, 90, 3)])
        good = [5.0, 6.0, None, 10**6]
        for bad in self.BAD:
            for cmd, payload in (
                ("insert", {"record": bad}),
                ("bulk_load", {"records": [good, bad]}),       # all or nothing
                ("delete", {"record": bad}),
            ):
                with pytest.raises(ServerError) as err:
                    _send(db, cmd, index="base", keep_uids=keep_uids, **payload)
                assert err.value.code == "bad_request", (cmd, bad, err.value)
        self._assert_untouched(db, base)

    def test_create(self, db):
        for bad in self.BAD:
            with pytest.raises(ServerError) as err:
                _send(db, "create", index="fresh", records=[[1.0, 2.0, None, 1], bad])
            assert err.value.code == "bad_request"
        with pytest.raises(ServerError) as err:
            db.query("fresh", Stab(1.5))
        assert err.value.code == "unknown_index"       # nothing was half-created

    def test_replies_are_rows_and_valid_json(self, db):
        db.create("base", records=[Interval(1.0, 5.0, "p"), Interval(2.0, 3.0)])
        assert db.ping()["version"] == PROTOCOL_VERSION == 2
        reply = _send(db, "query", index="base", q=P.query_to_wire(Stab(2.5)))
        assert sorted(row[:3] for row in reply["records"]) == [[1.0, 5.0, "p"], [2.0, 3.0, None]]
        assert all(type(row[3]) is int for row in reply["records"])
        stored = _send(db, "insert", index="base",
                       record={"record": "interval", "low": 7, "high": 9})   # v1 input form
        assert stored["record"][:3] == [7, 9, None]
        json.loads(json.dumps(reply), parse_constant=pytest.fail)          # no NaN/Infinity


def test_cluster_orders_and_dedupes_rows_by_position():
    with Cluster.create(None, shards=3, strategy="range", mode="thread",
                        domain=(0.0, 90.0)) as cluster:
        with ReproClient(*cluster.address) as db:
            db.create("base", records=[])
            base = db.bulk_load("base", [Interval(float(i), float(i + 40), -i) for i in range(0, 90, 5)])
            got = db.query("base", OrderBy(Range(0.0, 90.0), key="high", reverse=True)).records
            assert [r.high for r in got] == sorted((r.high for r in base), reverse=True)
            assert len({r.uid for r in got}) == len(got) == len(base)
            with pytest.raises(ServerError) as err:
                db.query("base", OrderBy(Range(0.0, 90.0), key="length"))
            assert err.value.code == "bad_request"


def test_byte_counters_per_command_on_server_and_router():
    def moved(prefix, cmd):
        counters = obs_metrics.REGISTRY.snapshot()["counters"]
        return (counters.get(f"{prefix}.bytes_in.{cmd}", 0),
                counters.get(f"{prefix}.bytes_out.{cmd}", 0))

    with Cluster.create(None, shards=2, strategy="hash", mode="thread") as cluster:
        with ReproClient(*cluster.address) as db:
            db.create("base", records=[Interval(float(i), float(i + 50)) for i in range(40)])
            before = {p: moved(p, "query") for p in ("server", "router")}
            request = encode_message({"id": db._next_id + 1, "cmd": "query", "index": "base",
                                      "q": P.query_to_wire(Stab(45.0))})
            reply = db.call("query", index="base", q=P.query_to_wire(Stab(45.0)))
            after = {p: moved(p, "query") for p in ("server", "router")}
            # the router saw exactly this request and its reply ...
            assert after["router"][0] - before["router"][0] == len(request)
            assert after["router"][1] - before["router"][1] == len(encode_message(reply))
            # ... and the (in-process) shards moved the rows it merged
            assert after["server"][1] - before["server"][1] > 40 * len("[0.0,50.0,null,0]")
            # an unknown command is answered, but never becomes a metric name
            db._wfile.write(b'{"id":99,"cmd":"nope"}\n')
            db._wfile.flush()
            assert decode_message(db._rfile.readline())["error"]["code"] == "bad_request"
            counters = obs_metrics.REGISTRY.snapshot()["counters"]
            assert not any(name.endswith(".nope") for name in counters)
