"""``repro.server`` — the concurrent serving subsystem.

Layers (bottom up):

* the concurrency kernel lives in :mod:`repro.engine.session`
  (``Engine.session()`` handles: MVCC snapshot reads under a per-index
  latch, writes through the commit kernel, per-session I/O attribution);
* :mod:`repro.server.protocol` — the JSON-line wire codec: framed
  request/response messages, record (rows in, rows or packed record
  frames out) and algebra-descriptor round-trips, the one reply codec,
  error classification by exception type;
* :mod:`repro.server.core` — :class:`JsonLineServer`, the one request
  entry point (command table, field validation, per-connection
  prepared-handle leases, graceful shutdown) over an ``Executor``, and
  :class:`ReproServer`, which serves one engine (CLI: ``repro serve``);
* :mod:`repro.server.client` — :class:`ReproClient`, the blocking
  client (one connection each; concurrent callers open one per thread).
"""

from repro.server.client import ClientResult, PreparedHandle, ReproClient, ServerError
from repro.server.core import JsonLineServer, ReproServer
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    RecordFrame,
    ShardUnavailableError,
    StaleHandleError,
    decode_message,
    encode_message,
    encode_reply,
    query_from_wire,
    query_to_wire,
    read_reply,
    record_from_dict,
    record_to_dict,
    record_to_row,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ClientResult",
    "JsonLineServer",
    "PreparedHandle",
    "ProtocolError",
    "RecordFrame",
    "ReproClient",
    "ReproServer",
    "ServerError",
    "ShardUnavailableError",
    "StaleHandleError",
    "decode_message",
    "encode_message",
    "encode_reply",
    "query_from_wire",
    "query_to_wire",
    "read_reply",
    "record_from_dict",
    "record_to_dict",
    "record_to_row",
]
