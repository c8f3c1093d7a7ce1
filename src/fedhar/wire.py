"""Binary wire protocol and TCP transport for federated rounds.

Frames are [u32 LE length][u8 msg_type][payload] where length counts the
type byte plus the payload, capped at 1 GiB. Weights travel as a WeightBlob:
for each tensor in canonical order, u16 name length + UTF-8 name + u8 rank
+ u32 per-dim sizes + raw little-endian float32 data. Wherever a blob is
embedded (messages, checkpoint files) a CRC32 of the blob follows it.

Checkpoint files are magic "FHG1" + u16 version + a config block + the
WeightBlob + its CRC32. The config block has one fixed layout: a u16 count of
8, then each ModelConfig field in declared order as its name, a type tag and
its value.

Protocol, per client: HELLO, then EVAL_REQUEST -> EVAL_RESULT on the base
weights (round 0), then per round ROUND_CONFIG -> FIT_RESULT and
EVAL_REQUEST -> EVAL_RESULT, finally DONE. HELLO carries the client id and
its training-window count, and is a connection's only identity: the server
weights every update from that connection by the HELLO count and files its
reports under the HELLO id. A client with count 0 is never sent a
ROUND_CONFIG, only EVAL_REQUESTs. The global weights travel only in
EVAL_REQUEST: a ROUND_CONFIG's blob is always empty (length 0) and means
"train from the weights of the EVAL_REQUEST you answered last". A client
holds those weights only until the next ROUND_CONFIG; a ROUND_CONFIG with
weights (round 1's, from a server of the previous release) or with nothing
held is a ProtocolError. Once the expected clients have registered, every
other connection gets ERROR ``registration_closed``.
Peers send measurements only: a FIT_RESULT is the f64 train loss + the
trained WeightBlob, an EVAL_RESULT a u16 label count (the model's), then
per label its name and u32 tp/tn/fp/fn. The server decodes each reply where it
arrives, into an update or a report scored with ``ClientReport.from_counts``
as the simulation does. A message out of order gets ERROR ``out_of_order``,
one that fails to decode ``bad_message`` with "<message type>: <reason>";
either drops the connection and ends the fold with a ProtocolError naming
the client. A client whose own fit or evaluation fails sends ERROR
``client_failed`` with the reason, one that refuses a frame ``bad_message``,
before it hangs up; the server ends the fold with a ProtocolError naming
that client and the reason, and sends it no ERROR back. When the server
ends a fold with an error, every client still connected gets an ERROR
frame with code ``aborted`` first; a write that fails, because the peer
vanished, is such an error, naming that client. So is a frame not written
whole within ``round_timeout_s``, when that is set: one deadline per
exchange covers the writes of its frame and the replies, so a peer that
stops reading, or reads too slowly, is cut off. A peer whose frame is
half-written is closed without an ERROR, as it could not read one.

Buffers: a received frame is read into one bytearray of its declared
length, allocated once the header is in. Decoders slice memoryviews of it,
and each tensor is copied out of it once; the server lets go of a frame as
soon as its update or report is built. A sent frame is one ``b"".join`` of
its header, the message head and the tensors' own memoryviews, so weights
are copied once, into the frame; the blob's CRC32 is folded over the same
views. The server serves every socket from the calling thread through one
selector, non-blocking: it encodes each ROUND_CONFIG and EVAL_REQUEST frame
once per broadcast and writes that one frame to all its targets at once,
holding only each target's unsent rest as a view of it.

Caps: a reader checks each declared length before it allocates the frame,
against the longest frame the peer may send in its state. On the server
that is a HELLO's bound (2 + 65535 + 4 payload bytes) before HELLO and
whenever nothing is owed, the exact size ``parameter_shapes`` implies for
an owed FIT_RESULT, and 2 + L x (2 + 65535 + 16) bytes for an owed
EVAL_RESULT of L labels. A client accepts an EVAL_REQUEST of its own model
config, or a HELLO's bound for an ERROR. A longer declaration gets ERROR
``bad_message`` and the connection is dropped.
"""

from __future__ import annotations

import contextlib
import logging
import math
import selectors
import socket
import struct
import threading
import time
import zlib

import numpy as np

from .errors import AvailabilityError, DecodeError, FedharError, ProtocolError, ShapeError
from .fedavg import ClientUpdate, FedConfig, FoldResult, _audit, client_fit, drive_fold
from .metrics import ClientReport, ConfusionCounts
from .model import ModelConfig, WeightSet, parameter_shapes
from .tensor import Tensor, _blas_share
from .training import evaluate
from .util import atomic_write_bytes

__all__ = [
    "MSG_HELLO", "MSG_ROUND_CONFIG", "MSG_FIT_RESULT", "MSG_EVAL_REQUEST",
    "MSG_EVAL_RESULT", "MSG_DONE", "MSG_ERROR",
    "MAX_FRAME_LEN", "DEFAULT_PORT",
    "frame_encode", "read_frame", "read_exact",
    "decode_weights", "save_checkpoint", "load_checkpoint", "standardizer_path",
    "server_loop", "client_loop", "connect_with_retry",
]

log = logging.getLogger(__name__)

MSG_HELLO = 1
MSG_ROUND_CONFIG = 2
MSG_FIT_RESULT = 3
MSG_EVAL_REQUEST = 4
MSG_EVAL_RESULT = 5
MSG_DONE = 6
MSG_ERROR = 7

_MSG_NAMES = {
    MSG_HELLO: "HELLO", MSG_ROUND_CONFIG: "ROUND_CONFIG",
    MSG_FIT_RESULT: "FIT_RESULT", MSG_EVAL_REQUEST: "EVAL_REQUEST",
    MSG_EVAL_RESULT: "EVAL_RESULT", MSG_DONE: "DONE", MSG_ERROR: "ERROR",
}

MAX_FRAME_LEN = 1 << 30  # 1 GiB, type byte + payload
DEFAULT_PORT = 8099
CONNECT_ATTEMPTS = 5
CONNECT_BASE_DELAY = 0.2

CHECKPOINT_MAGIC = b"FHG1"
CHECKPOINT_VERSION = 1

# ROUND_CONFIG head: round, fold, seed, local epochs, batch size, local lr
_ROUND_HEAD = struct.Struct("<IIQIId")


# ---------------------------------------------------------------- framing

def frame_encode(msg_type: int, *payload) -> bytes:
    """One frame; a payload given as several buffers is joined once, with the header."""
    if not 1 <= msg_type <= 255:
        raise ProtocolError(f"message type {msg_type} out of range")
    length = 1 + sum(len(part) for part in payload)
    if length > MAX_FRAME_LEN:
        raise ProtocolError(f"frame of {length} bytes exceeds the 1 GiB limit")
    return b"".join([struct.pack("<IB", length, msg_type), *payload])


def read_exact(stream, n: int) -> bytearray:
    """Read exactly n bytes into one buffer, looping over partial reads; EOF raises."""
    buf = bytearray(n)
    with memoryview(buf) as view:
        got = 0
        while got < n:
            k = stream.readinto(view[got:])
            if not k:
                raise DecodeError(f"stream ended after {got} of {n} expected bytes")
            got += k
    return buf


def _checked_length(header, limit: int) -> int:
    """The length a 4-byte frame header declares, checked against 1 GiB and ``limit``."""
    (length,) = struct.unpack("<I", header)
    if length < 1:
        raise ProtocolError("frame length 0 leaves no room for a message type")
    if length > MAX_FRAME_LEN:
        raise ProtocolError(f"declared frame length {length} exceeds the 1 GiB limit")
    if length > limit:
        raise ProtocolError(
            f"declared frame length {length} exceeds the {limit} bytes allowed here")
    return length


def read_frame(stream, max_len: int = MAX_FRAME_LEN) -> tuple[int, memoryview]:
    """The type byte and a view of the payload, read into one buffer.

    The declared length is checked against 1 GiB and ``max_len`` before the
    buffer is allocated.
    """
    body = read_exact(stream, _checked_length(read_exact(stream, 4), max_len))
    return body[0], memoryview(body)[1:]


class _Cursor:
    """Bounds-checked little-endian reads over a buffer; ``take`` returns views."""

    def __init__(self, buf):
        self.buf = memoryview(buf)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise DecodeError(
                f"need {n} bytes, only {len(self.buf) - self.pos} remain",
                offset=self.pos)
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u8(self):
        return self.unpack("<B")[0]

    def u16(self):
        return self.unpack("<H")[0]

    def u32(self):
        return self.unpack("<I")[0]

    def text(self) -> str:
        n = self.u16()
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"bad UTF-8: {exc}", offset=self.pos) from None

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise DecodeError(
                f"{len(self.buf) - self.pos} trailing bytes", offset=self.pos)


def _pack_text(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError(f"string of {len(raw)} bytes does not fit a u16 length")
    return struct.pack("<H", len(raw)) + raw


# ---------------------------------------------------------- weight blobs

def _blob_parts(weights: WeightSet) -> list:
    """A WeightBlob as buffers: each tensor's header, then its data as a byte view."""
    parts = []
    for name, t in weights.items():
        data = np.ascontiguousarray(t.data, dtype="<f4")
        if data.ndim > 255:
            raise ShapeError(f"tensor {name} rank {data.ndim} exceeds 255")
        parts.append(_pack_text(name) + struct.pack(f"<B{data.ndim}I", data.ndim, *data.shape))
        parts.append(memoryview(data).cast("B"))
    return parts


def decode_weights(blob, config: ModelConfig) -> WeightSet:
    """Rebuild a WeightSet; names, order, and shapes must match the config."""
    cur = _Cursor(blob)
    ws = WeightSet(config)
    for want_name, want_shape in parameter_shapes(config):
        name = cur.text()
        if name != want_name:
            raise DecodeError(f"expected tensor {want_name!r}, found {name!r}",
                              offset=cur.pos)
        rank = cur.u8()
        shape = tuple(cur.u32() for _ in range(rank))
        if shape != want_shape:
            raise ShapeError(
                f"tensor {name} has shape {shape}, config requires {want_shape}")
        # one copy out of the frame: its offsets are not float-aligned
        raw = cur.take(4 * math.prod(shape))
        data = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        ws.tensors[name] = Tensor(data, requires_grad=True)
    cur.done()
    return ws


def _blob_message(head: bytes, blob: list) -> list:
    """``head``, the blob's u32 length, its buffers and their CRC32: parts for one join."""
    crc = 0
    for part in blob:
        crc = zlib.crc32(part, crc)
    return [head, struct.pack("<I", sum(len(part) for part in blob)), *blob,
            struct.pack("<I", crc)]


def _decode_blob_message(payload, head: str) -> tuple:
    """The values of a ``head`` struct format, then a view of the blob after it."""
    cur = _Cursor(payload)
    values = cur.unpack(head)
    blob = _read_blob(cur)
    cur.done()
    return *values, blob


def _read_blob(cur: _Cursor) -> memoryview:
    n = cur.u32()
    blob = cur.take(n)
    crc = cur.u32()
    actual = zlib.crc32(blob)
    if crc != actual:
        raise DecodeError(
            f"weight blob checksum mismatch: stored {crc:#010x}, computed {actual:#010x}",
            offset=cur.pos)
    return blob


def _frame_caps(config: ModelConfig) -> dict[int, int]:
    """The longest frame of each message type a peer may send for ``config``."""
    blob = sum(2 + len(name.encode("utf-8")) + 1 + 4 * len(shape) + 4 * math.prod(shape)
               for name, shape in parameter_shapes(config))
    return {
        MSG_HELLO: 1 + 2 + 0xFFFF + 4,
        MSG_ROUND_CONFIG: 1 + _ROUND_HEAD.size + 4 + 4,
        MSG_EVAL_REQUEST: 1 + 4 + blob + 4,
        MSG_FIT_RESULT: 1 + 8 + 4 + blob + 4,
        MSG_EVAL_RESULT: 1 + 2 + config.n_labels * (2 + 0xFFFF + 16),
    }


# ----------------------------------------------------------- checkpoints

# The config block is a u16 field count, then per field its name, a type tag
# (0 i64, 1 f64, 2 u64) and the value. The writer emits the ModelConfig fields
# in their declared order, always, so each field's name + tag is a constant.
_CONFIG_FIELDS = [(name, _pack_text(name) + struct.pack("<B", tag), fmt)
                  for name, tag, fmt in [
                      ("n_features", 0, "<q"), ("n_labels", 0, "<q"),
                      ("transformers_layers", 0, "<q"), ("hidden_size", 0, "<q"),
                      ("n_positions", 0, "<q"), ("n_heads", 0, "<q"),
                      ("dropout", 1, "<d"), ("seed", 2, "<Q")]]


def _encode_config(config: ModelConfig) -> bytes:
    parts = [struct.pack("<H", len(_CONFIG_FIELDS))]
    for name, prefix, fmt in _CONFIG_FIELDS:
        value = getattr(config, name)
        parts.append(prefix + struct.pack(fmt, float(value) if fmt == "<d" else int(value)))
    return b"".join(parts)


def _decode_config(cur: _Cursor) -> ModelConfig:
    count = cur.u16()
    if count != len(_CONFIG_FIELDS):
        raise DecodeError(f"config block has {count} fields, expected {len(_CONFIG_FIELDS)}",
                          offset=cur.pos)
    values = []
    for name, prefix, fmt in _CONFIG_FIELDS:
        pos = cur.pos
        if cur.take(len(prefix)) != prefix:
            raise DecodeError(f"config block: expected field {name!r}", offset=pos)
        values += cur.unpack(fmt)
    return ModelConfig(*values)


def save_checkpoint(path: str, weights: WeightSet) -> None:
    """Write config + weights; the write is atomic (``atomic_write_bytes``)."""
    head = (CHECKPOINT_MAGIC + struct.pack("<H", CHECKPOINT_VERSION)
            + _encode_config(weights.config))
    atomic_write_bytes(path, b"".join(_blob_message(head, _blob_parts(weights))))


def load_checkpoint(path: str) -> WeightSet:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DecodeError(f"bad checkpoint magic {raw[:4]!r}", offset=0)
    cur = _Cursor(memoryview(raw)[4:])
    version = cur.u16()
    if version != CHECKPOINT_VERSION:
        raise DecodeError(f"unsupported checkpoint version {version}")
    config = _decode_config(cur)
    blob = _read_blob(cur)
    cur.done()
    return decode_weights(blob, config)


def standardizer_path(checkpoint_path: str) -> str:
    """Conventional sidecar location for the checkpoint's Standardizer."""
    return f"{checkpoint_path}.stdz.json"


# -------------------------------------------------------------- messages

def encode_hello(client_id: str, num_examples: int) -> bytes:
    return _pack_text(client_id) + struct.pack("<I", num_examples)


def decode_hello(payload) -> tuple[str, int]:
    cur = _Cursor(payload)
    client_id = cur.text()
    num_examples = cur.u32()
    cur.done()
    return client_id, num_examples


def decode_round_config(payload):
    """(round, fold, seed, local epochs, batch size, local lr, blob view)."""
    return _decode_blob_message(payload, _ROUND_HEAD.format)


def decode_fit_result(payload):
    """(train loss, blob view)."""
    return _decode_blob_message(payload, "<d")


def encode_eval_result(report: ClientReport) -> bytes:
    """A report's per-label confusion counts, under the names its JSON uses."""
    parts = [struct.pack("<H", len(report.counts))]
    for i, c in enumerate(report.counts):
        parts.append(_pack_text(report._label_name(i)))
        parts.append(struct.pack("<4I", c.tp, c.tn, c.fp, c.fn))
    return b"".join(parts)


def decode_eval_result(payload, subject_id: str) -> ClientReport:
    """Score an EVAL_RESULT's counts as ``subject_id``'s report.

    A malformed payload is a DecodeError, counts under which no label is
    defined a DegenerateReportError.
    """
    cur = _Cursor(payload)
    names, counts = [], []
    for _ in range(cur.u16()):
        names.append(cur.text())
        counts.append(ConfusionCounts(*cur.unpack("<4I")))
    cur.done()
    return ClientReport.from_counts(subject_id, counts, names)


def encode_error(code: str, message: str) -> bytes:
    return _pack_text(code) + message.encode("utf-8")


def decode_error(payload) -> tuple[str, str]:
    cur = _Cursor(payload)
    code = cur.text()
    return code, str(cur.buf[cur.pos:], "utf-8", "replace")


# -------------------------------------------------------------- transport

def connect_with_retry(host: str, port: int, attempts: int = CONNECT_ATTEMPTS,
                       base_delay: float = CONNECT_BASE_DELAY) -> socket.socket:
    """Dial with exponential backoff: base_delay, 2x, 4x, ... between tries."""
    delay = base_delay
    last: Exception | None = None
    for attempt in range(attempts):
        try:
            return socket.create_connection((host, port))
        except OSError as exc:
            last = exc
            if attempt < attempts - 1:
                time.sleep(delay)
                delay *= 2.0
    raise ProtocolError(f"could not reach {host}:{port} after {attempts} attempts: {last}")


class _Conn:
    """A non-blocking server-side connection, registered with the server's selector.

    It reads a frame in pieces, capping its length by the peer's state before the
    body is allocated, decodes each reply where it arrives, and holds one frame's unsent rest.
    """

    def __init__(self, sock: socket.socket, sel: selectors.BaseSelector):
        sock.setblocking(False)
        self.sock, self.sel = sock, sel
        self.client_id: str | None = None
        self.num_examples = 0
        self.expected: int | None = MSG_HELLO
        self.head, self.body, self.got = bytearray(4), None, 0
        self.out = b""  # the unsent rest of the frame being written; kept if closed
        self.closed = False
        sel.register(sock, selectors.EVENT_READ, self)

    def send(self, frame: bytes) -> None:
        self.out = memoryview(frame)
        self.sel.modify(self.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, self)

    def flush(self) -> None:
        """Write what the socket takes of the unsent rest; a failed write raises OSError."""
        with contextlib.suppress(BlockingIOError):
            self.out = self.out[self.sock.send(self.out):]
        if not self.out:
            self.out = b""  # let go of the frame
            self.sel.modify(self.sock, selectors.EVENT_READ, self)

    def close(self) -> None:
        if not self.closed:
            self.closed, self.body = True, None
            self.sel.unregister(self.sock)
            with contextlib.suppress(OSError):
                self.sock.shutdown(socket.SHUT_RDWR)
            self.sock.close()

    def fail(self, code: str, message: str) -> tuple:
        """ERROR ``code``, unless a frame to the peer is half-sent, then close."""
        if not self.out:
            with contextlib.suppress(OSError):
                self.sock.send(frame_encode(MSG_ERROR, encode_error(code, message)))
        self.close()
        return "lost", f"{code}: {message}"

    def _read(self, limit: int):
        """Read what the socket holds; a whole frame as (type, payload view), else None."""
        buf = self.head if self.body is None else self.body
        with contextlib.suppress(BlockingIOError):
            n = self.sock.recv_into(memoryview(buf)[self.got:])
            if not n:
                raise EOFError
            self.got += n
        if self.got < len(buf):
            return None
        self.got = 0
        if self.body is None:
            self.body = bytearray(_checked_length(self.head, limit))
            return None
        self.body = None
        return buf[0], memoryview(buf)[1:]

    def receive(self, config: ModelConfig, caps: dict[int, int]):
        """(kind, value) once the owed frame is in: "hello" and None, "reply" and
        the ClientUpdate or ClientReport it decodes to under ``config``, or "lost"
        and the reason, after ERROR ``out_of_order`` or ``bad_message`` if due.
        An ERROR from the peer is "lost" with its code and message.
        """
        owed = _MSG_NAMES.get(self.expected, "frame")
        try:
            frame = self._read(caps.get(self.expected, caps[MSG_HELLO]))
            if frame is None:
                return None
            msg_type, payload = frame
            if msg_type == MSG_ERROR:  # the peer's own failure; it needs no ERROR back
                self.close()
                return "lost", "{}: {}".format(*decode_error(payload))
            if msg_type != self.expected:
                return self.fail("out_of_order", f"got {_MSG_NAMES.get(msg_type, msg_type)} "
                                 f"while expecting {_MSG_NAMES.get(self.expected, 'nothing')}")
            self.expected = None
            if msg_type == MSG_HELLO:
                self.client_id, self.num_examples = decode_hello(payload)
                return "hello", None
            if msg_type == MSG_FIT_RESULT:
                train_loss, blob = decode_fit_result(payload)
                return "reply", ClientUpdate(self.client_id, decode_weights(blob, config),
                                             self.num_examples, train_loss)
            report = decode_eval_result(payload, self.client_id)
            if len(report.counts) != config.n_labels:
                raise DecodeError(f"{len(report.counts)} labels, the model has {config.n_labels}")
            return "reply", report
        except (EOFError, OSError):
            self.close()
            return "lost", "connection lost"
        except FedharError as exc:  # the peer sent a malformed or oversized frame
            return self.fail("bad_message", f"{owed}: {exc}")
        except Exception as exc:  # decoding bugs should not hang the server
            return self.fail("internal", str(exc))


def server_loop(
    host: str,
    port: int,
    base_weights: WeightSet,
    config: FedConfig,
    fold: int = 0,
    expected_clients: int | None = None,
    accept_timeout: float | None = 60.0,
    audit=None,
    ready_event: threading.Event | None = None,
) -> FoldResult:
    """Accept clients, drive all federated rounds over TCP, return the result.

    Serves every socket from the calling thread through one selector, and
    starts no thread. Blocks until ``expected_clients`` (default
    min_available_clients) have sent HELLO, then refuses every other
    connection, and every later one, with ERROR ``registration_closed``. It
    runs the same round driver as the simulation, ``fedavg.drive_fold``,
    base eval included. Both its phases broadcast one frame and collect the
    replies, each decoded as it arrives and yielded in client-id order: an
    eval sends EVAL_REQUEST with the weights, a fit a weightless ROUND_CONFIG
    to the clients with data, which train from the weights they just
    evaluated. A reply that fails to decode ends the fold with a
    ProtocolError naming its client. Ends every client with DONE; if the fold
    fails with a ``FedharError`` instead, a failed write to a client
    included, every client still connected gets an ERROR frame carrying its
    message before the error is re-raised.
    """
    expected = expected_clients if expected_clients is not None else config.min_available_clients
    caps = _frame_caps(base_weights.config)
    closed_message = f"registration is closed: {expected} clients registered"
    conns: dict[str, _Conn] = {}  # registered clients by HELLO id
    accepted: list[_Conn] = []  # every connection taken while registration was open
    sel = selectors.DefaultSelector()
    listener = socket.create_server((host, port))
    listener.setblocking(False)
    sel.register(listener, selectors.EVENT_READ)

    def serve(timeout):
        """A (conn, kind, value) per event of the sockets ready within ``timeout`` s.

        New connections are taken while registration is open, refused after.
        A write is served before a read, so a reset peer fails as a send.
        """
        events = []
        for key, mask in sel.select(timeout):
            conn = key.data
            if conn is None:
                try:
                    sock, _addr = listener.accept()
                except OSError:  # out of file descriptors, say: the peer waits in the backlog
                    continue
                conn = _Conn(sock, sel)
                if len(conns) < expected:
                    accepted.append(conn)
                else:
                    conn.fail("registration_closed", closed_message)
                continue
            if mask & selectors.EVENT_WRITE:
                try:
                    conn.flush()
                except OSError as exc:
                    conn.close()
                    events.append((conn, "unsent", exc))
            if mask & selectors.EVENT_READ and not conn.closed:
                event = conn.receive(base_weights.config, caps)
                if event is not None:
                    events.append((conn, *event))
        return events

    def exchange(targets: list[_Conn], frame: bytes, timeout: float | None) -> dict:
        """Write ``frame`` to every target at once and collect each one's reply to it.

        One deadline, ``timeout`` s from now, covers every write and every
        reply. A write that fails or is not done by then, a lost client and
        the deadline are each a ProtocolError, raised once the frames in
        flight to the other targets have gone out whole; a target whose
        frame was not written whole is closed without an ERROR.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        reply = {MSG_ROUND_CONFIG: MSG_FIT_RESULT, MSG_EVAL_REQUEST: MSG_EVAL_RESULT}.get(frame[4])
        for conn in targets:
            conn.expected = reply
            conn.send(frame)
        what = f"the {_MSG_NAMES[frame[4]]} exchange"
        pending = {conn.client_id for conn in targets} if reply else set()
        replies, fault = {}, None
        while (pending and fault is None) or any(c.out and not c.closed for c in targets):
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and left <= 0:
                late = [c for c in targets if c.out and not c.closed]
                for conn in late:
                    conn.close()
                fault = fault or (
                    f"sending to client {late[0].client_id} failed: timed out after {timeout} s"
                    f" with {len(late[0].out)} of {len(frame)} bytes unsent" if late else
                    f"{what} timed out waiting for clients {sorted(pending)}")
                break
            for conn, kind, value in serve(left):
                if kind == "unsent":
                    fault = fault or f"sending to client {conn.client_id} failed: {value}"
                elif kind == "lost":
                    fault = fault or f"client {conn.client_id} dropped during {what}: {value}"
                else:
                    replies[conn.client_id] = value
                    pending.discard(conn.client_id)
        if fault:
            raise ProtocolError(fault)
        return replies

    def collect(frame: bytes, ids: list[str]) -> list:
        """Broadcast ``frame`` to ``ids``; (id, reply) pairs in id order, as drive_fold asks."""
        return sorted(exchange([conns[cid] for cid in ids], frame, config.round_timeout_s).items())

    if ready_event is not None:
        ready_event.set()
    try:
        deadline = None if accept_timeout is None else time.monotonic() + accept_timeout
        while len(conns) < expected:
            left = None if deadline is None else deadline - time.monotonic()
            if left is not None and left <= 0:
                raise AvailabilityError(
                    f"only {len(conns)} of {expected} clients registered before timeout")
            for conn, kind, _value in serve(left):
                cid = conn.client_id
                if kind == "hello" and cid in conns:
                    conn.fail("duplicate_id", f"client id {cid} already registered")
                elif kind == "hello" and len(conns) < expected:
                    conns[cid] = conn
                    _audit(audit, fold=fold, round=0, event="hello", client_id=cid,
                           num_examples=conn.num_examples)
                elif conns.get(cid) is conn:  # a registered client failed or left
                    del conns[cid]
        for conn in accepted:
            if not conn.closed and conns.get(conn.client_id) is not conn:
                conn.fail("registration_closed", closed_message)

        result = drive_fold(
            fold, {cid: c.num_examples for cid, c in conns.items()},
            # drive_fold fits from the weights its last eval phase sent, and
            # every client answered that EVAL_REQUEST: the clients hold them
            lambda weights, round_idx, ids: collect(frame_encode(
                MSG_ROUND_CONFIG, *_blob_message(_ROUND_HEAD.pack(
                    round_idx, fold, config.seed, config.local_epochs, config.batch_size,
                    config.local_lr), [])), ids),
            lambda weights, round_idx, ids: collect(frame_encode(
                MSG_EVAL_REQUEST, *_blob_message(b"", _blob_parts(weights))), ids),
            base_weights, config, audit=audit)
        with contextlib.suppress(ProtocolError):  # a client that took DONE and left, say
            exchange([conns[cid] for cid in sorted(conns)], frame_encode(MSG_DONE),
                     config.round_timeout_s)
        for cid in sorted(conns):
            if conns[cid].out:
                log.warning("client %s vanished before DONE", cid)
            else:
                _audit(audit, fold=fold, round=config.rounds, event="done", client_id=cid)
        return result
    except FedharError as exc:
        with contextlib.suppress(ProtocolError):
            exchange([c for c in accepted if not c.closed],
                     frame_encode(MSG_ERROR, encode_error("aborted", str(exc))),
                     config.round_timeout_s)
        raise
    finally:
        for conn in accepted:
            conn.close()
        sel.close()
        listener.close()


@contextlib.contextmanager
def _failure_told(sock: socket.socket, code: str = "client_failed", what: str = ""):
    """Send ERROR ``code``, ``what`` + its message, for a ``FedharError`` raised inside."""
    try:
        yield
    except FedharError as exc:
        with contextlib.suppress(OSError):
            sock.sendall(frame_encode(MSG_ERROR, encode_error(code, f"{what}{exc}")))
        raise


def client_loop(
    host: str,
    port: int,
    client_id: str,
    model_config: ModelConfig,
    train_windows,
    test_windows,
    label_names: list[str] | None = None,
) -> int:
    """Participate in a federation as one client; returns rounds completed.

    Connects with exponential backoff, HELLOs with the local training window
    count, then serves EVAL_REQUEST (local test-set evaluation of the
    weights it carries) and ROUND_CONFIG (local fine-tune of the weights of
    the last EVAL_REQUEST) until DONE. An ERROR frame, a lost connection, a
    frame out of protocol and a ROUND_CONFIG that carries weights or comes
    with none held raise ``ProtocolError``. Before re-raising, it tells the
    server of a ``FedharError`` from a frame it refuses with ERROR
    ``bad_message`` and "<message type>: <reason>", and of one from its own
    fit or evaluation (a ``DivergenceError``, say) with ``client_failed``.

    From before it connects until it returns or raises, the calling thread
    holds one share of numpy's OpenBLAS pool (``tensor._BlasShare``), so
    client threads that share a process split the pool once and restore it
    once; a lone client never changes it.
    """
    caps = _frame_caps(model_config)
    max_len = max(caps[MSG_EVAL_REQUEST], caps[MSG_HELLO])  # an ERROR may be HELLO-sized
    with _blas_share:  # one share of the BLAS pool for the whole connection
        sock = connect_with_retry(host, port)
        rfile = sock.makefile("rb")
        rounds_done = 0
        held = None  # the last EVAL_REQUEST's weights, until the next ROUND_CONFIG
        try:
            sock.sendall(frame_encode(MSG_HELLO, encode_hello(client_id, len(train_windows))))
            while True:
                msg_type, payload = read_frame(rfile, max_len)
                if msg_type == MSG_ROUND_CONFIG:
                    with _failure_told(sock, "bad_message", "ROUND_CONFIG: "):
                        (round_idx, fold, seed, local_epochs,
                         batch_size, local_lr, blob) = decode_round_config(payload)
                        if len(blob):
                            raise ProtocolError("carries weights; they travel only in EVAL_REQUEST")
                        if held is None:
                            raise ProtocolError("no EVAL_REQUEST's weights are held")
                        local = FedConfig(local_epochs=local_epochs, batch_size=batch_size,
                                          local_lr=local_lr, seed=seed)
                    weights, held = held, None
                    with _failure_told(sock):
                        update = client_fit(weights, train_windows, local, client_id,
                                            fold, round_idx)
                    sock.sendall(frame_encode(MSG_FIT_RESULT, *_blob_message(
                        struct.pack("<d", update.train_loss), _blob_parts(update.weights))))
                    del update, weights  # before the next frame is read
                    rounds_done += 1
                elif msg_type == MSG_EVAL_REQUEST:
                    held = None  # the old weights go before the new ones are decoded
                    with _failure_told(sock, "bad_message", "EVAL_REQUEST: "):
                        held = decode_weights(_decode_blob_message(payload, "<")[0], model_config)
                    del payload  # the frame's buffer goes before evaluating
                    with _failure_told(sock):
                        report = evaluate(held, test_windows, client_id, label_names)
                    sock.sendall(frame_encode(MSG_EVAL_RESULT, encode_eval_result(report)))
                elif msg_type == MSG_DONE:
                    return rounds_done
                elif msg_type == MSG_ERROR:
                    code, message = decode_error(payload)
                    raise ProtocolError(f"server error {code}: {message}")
                else:
                    what = f"{_MSG_NAMES.get(msg_type, 'frame')}: "
                    with _failure_told(sock, "bad_message", what):
                        raise ProtocolError(f"unexpected message type {msg_type}")
        except OSError as exc:  # only the socket calls raise it here
            raise ProtocolError(f"lost the server at {host}:{port}: {exc}") from None
        finally:
            rfile.close()
            try:
                sock.close()
            except OSError:
                pass
