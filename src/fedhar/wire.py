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

Protocol, per client: HELLO, then per round ROUND_CONFIG -> FIT_RESULT and
EVAL_REQUEST -> EVAL_RESULT, finally DONE. HELLO carries the client id and
its training-window count, and is a connection's only identity: the server
weights every update from that connection by the HELLO count and files its
reports under the HELLO id. A client with count 0 is never sent a
ROUND_CONFIG, only EVAL_REQUESTs. Once the expected clients have registered,
every other connection gets ERROR ``registration_closed``. Peers send
measurements only. A FIT_RESULT is the f64 train loss + the trained
WeightBlob. An EVAL_RESULT is a u16 label count, then per label its name and
u32 tp/tn/fp/fn; the server scores it with ``ClientReport.from_counts``, as
the simulation does. A message out of order gets an ERROR frame with code
``out_of_order``, a malformed one ``bad_message``, and the connection is
dropped. When the server ends a fold with an error, every client still
connected gets an ERROR frame with code ``aborted`` first.
"""

from __future__ import annotations

import logging
import queue
import socket
import struct
import threading
import time
import zlib

import numpy as np

from .errors import (AvailabilityError, DecodeError, DegenerateReportError, FedharError,
                     ProtocolError, ShapeError)
from .fedavg import ClientUpdate, FedConfig, FoldResult, client_fit, drive_fold
from .metrics import ClientReport, ConfusionCounts
from .model import ModelConfig, WeightSet, parameter_shapes
from .tensor import Tensor
from .training import evaluate
from .util import atomic_write_bytes

__all__ = [
    "MSG_HELLO", "MSG_ROUND_CONFIG", "MSG_FIT_RESULT", "MSG_EVAL_REQUEST",
    "MSG_EVAL_RESULT", "MSG_DONE", "MSG_ERROR",
    "MAX_FRAME_LEN", "DEFAULT_PORT",
    "frame_encode", "read_frame", "read_exact",
    "encode_weights", "decode_weights",
    "save_checkpoint", "load_checkpoint", "standardizer_path",
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


# ---------------------------------------------------------------- framing

def frame_encode(msg_type: int, payload: bytes = b"") -> bytes:
    if not 1 <= msg_type <= 255:
        raise ProtocolError(f"message type {msg_type} out of range")
    length = 1 + len(payload)
    if length > MAX_FRAME_LEN:
        raise ProtocolError(f"frame of {length} bytes exceeds the 1 GiB limit")
    return struct.pack("<I", length) + struct.pack("<B", msg_type) + payload


def read_exact(stream, n: int) -> bytes:
    """Read exactly n bytes, looping over partial reads; EOF raises."""
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            got = n - remaining
            raise DecodeError(f"stream ended after {got} of {n} expected bytes")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream) -> tuple[int, bytes]:
    """Decode one frame from a byte stream; validates length before reading."""
    header = read_exact(stream, 4)
    (length,) = struct.unpack("<I", header)
    if length < 1:
        raise ProtocolError("frame length 0 leaves no room for a message type")
    if length > MAX_FRAME_LEN:
        raise ProtocolError(f"declared frame length {length} exceeds the 1 GiB limit")
    body = read_exact(stream, length)
    return body[0], body[1:]


class _Cursor:
    """Bounds-checked little-endian reads over a byte buffer."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
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
            return self.take(n).decode("utf-8")
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

def encode_weights(weights: WeightSet) -> bytes:
    """Serialize all tensors in canonical order as little-endian float32."""
    parts = []
    for name, t in weights.items():
        data = np.ascontiguousarray(t.data, dtype="<f4")
        if data.ndim > 255:
            raise ShapeError(f"tensor {name} rank {data.ndim} exceeds 255")
        parts.append(_pack_text(name))
        parts.append(struct.pack("<B", data.ndim))
        for dim in data.shape:
            parts.append(struct.pack("<I", dim))
        parts.append(data.tobytes())
    return b"".join(parts)


def decode_weights(blob: bytes, config: ModelConfig) -> WeightSet:
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
        count = int(np.prod(shape)) if shape else 1
        raw = cur.take(4 * count)
        data = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        ws.tensors[name] = Tensor(data, requires_grad=True)
    cur.done()
    return ws


def _pack_blob(blob: bytes) -> bytes:
    return struct.pack("<I", len(blob)) + blob + struct.pack("<I", zlib.crc32(blob))


def _read_blob(cur: _Cursor) -> bytes:
    n = cur.u32()
    blob = cur.take(n)
    crc = cur.u32()
    actual = zlib.crc32(blob)
    if crc != actual:
        raise DecodeError(
            f"weight blob checksum mismatch: stored {crc:#010x}, computed {actual:#010x}",
            offset=cur.pos)
    return blob


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
    blob = encode_weights(weights)
    atomic_write_bytes(path, CHECKPOINT_MAGIC + struct.pack("<H", CHECKPOINT_VERSION)
                       + _encode_config(weights.config) + _pack_blob(blob))


def load_checkpoint(path: str) -> WeightSet:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != CHECKPOINT_MAGIC:
        raise DecodeError(f"bad checkpoint magic {raw[:4]!r}", offset=0)
    cur = _Cursor(raw[4:])
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


def decode_hello(payload: bytes) -> tuple[str, int]:
    cur = _Cursor(payload)
    client_id = cur.text()
    num_examples = cur.u32()
    cur.done()
    return client_id, num_examples


def encode_round_config(round_idx: int, fold: int, seed: int, local_epochs: int,
                        batch_size: int, local_lr: float, blob: bytes) -> bytes:
    head = struct.pack("<IIQIId", round_idx, fold, seed,
                       local_epochs, batch_size, local_lr)
    return head + _pack_blob(blob)


def decode_round_config(payload: bytes):
    cur = _Cursor(payload)
    round_idx, fold, seed, local_epochs, batch_size, local_lr = cur.unpack("<IIQIId")
    blob = _read_blob(cur)
    cur.done()
    return round_idx, fold, seed, local_epochs, batch_size, local_lr, blob


def encode_fit_result(train_loss: float, blob: bytes) -> bytes:
    return struct.pack("<d", train_loss) + _pack_blob(blob)


def decode_fit_result(payload: bytes):
    cur = _Cursor(payload)
    (train_loss,) = cur.unpack("<d")
    blob = _read_blob(cur)
    cur.done()
    return train_loss, blob


def encode_eval_result(report: ClientReport) -> bytes:
    """A report's per-label confusion counts, under the names its JSON uses."""
    parts = [struct.pack("<H", len(report.counts))]
    for i, c in enumerate(report.counts):
        parts.append(_pack_text(report._label_name(i)))
        parts.append(struct.pack("<4I", c.tp, c.tn, c.fp, c.fn))
    return b"".join(parts)


def decode_eval_result(payload: bytes, subject_id: str) -> ClientReport:
    """Score an EVAL_RESULT's counts as ``subject_id``'s report.

    A malformed payload, or counts under which no label is defined, is a
    DecodeError.
    """
    cur = _Cursor(payload)
    try:
        names, counts = [], []
        for _ in range(cur.u16()):
            names.append(cur.text())
            counts.append(ConfusionCounts(*cur.unpack("<4I")))
        cur.done()
        return ClientReport.from_counts(subject_id, counts, names)
    except (DecodeError, DegenerateReportError) as exc:
        raise DecodeError(f"EVAL_RESULT: {exc}") from None


def encode_error(code: str, message: str) -> bytes:
    return _pack_text(code) + message.encode("utf-8")


def decode_error(payload: bytes) -> tuple[str, str]:
    cur = _Cursor(payload)
    code = cur.text()
    return code, payload[cur.pos:].decode("utf-8", errors="replace")


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


class _ClientConn:
    """Server-side connection state; a reader thread enforces ordering."""

    def __init__(self, sock: socket.socket, results: queue.Queue):
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.results = results
        self.client_id: str | None = None
        self.num_examples = 0
        self.expected: int | None = MSG_HELLO
        self.send_lock = threading.Lock()
        self.closed = False
        self.thread = threading.Thread(target=self._reader, daemon=True)

    def start(self) -> None:
        self.thread.start()

    def send(self, msg_type: int, payload: bytes = b"") -> None:
        with self.send_lock:
            self.sock.sendall(frame_encode(msg_type, payload))

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.sock.close()

    def _fail(self, code: str, message: str) -> None:
        try:
            self.send(MSG_ERROR, encode_error(code, message))
        except OSError:
            pass
        self.close()
        self.results.put(("error", self, f"{code}: {message}"))

    def _reader(self) -> None:
        try:
            while True:
                try:
                    msg_type, payload = read_frame(self.rfile)
                except (DecodeError, OSError, ValueError):
                    if not self.closed:
                        self.results.put(("gone", self, "connection lost"))
                    return
                want = self.expected
                if want is None or msg_type != want:
                    self._fail("out_of_order",
                               f"got {_MSG_NAMES.get(msg_type, msg_type)} while "
                               f"expecting {_MSG_NAMES.get(want, 'nothing')}")
                    return
                self.expected = None
                if msg_type == MSG_HELLO:
                    self.client_id, self.num_examples = decode_hello(payload)
                    self.results.put(("hello", self, None))
                elif msg_type == MSG_FIT_RESULT:
                    self.results.put(("fit", self, decode_fit_result(payload)))
                elif msg_type == MSG_EVAL_RESULT:
                    self.results.put(("eval", self, decode_eval_result(payload,
                                                                       self.client_id)))
                # a FIT_RESULT payload is weight-sized; do not hold it while
                # blocking on the next frame
                del payload
        except ProtocolError as exc:  # the peer sent a malformed body
            self._fail("bad_message", str(exc))
        except Exception as exc:  # decoding bugs should not hang the server
            self._fail("internal", str(exc))


def _collect(results: queue.Queue, conns: dict, kind: str, pending: set,
             timeout: float | None, what: str):
    """Drain one expected result per pending client within ``timeout`` seconds.

    Events from a connection not registered under its id are ignored.
    """
    out = {}
    deadline = None if timeout is None else time.monotonic() + timeout
    while pending:
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        try:
            tag, conn, value = results.get(timeout=remaining)
        except queue.Empty:
            raise ProtocolError(
                f"{what} timed out waiting for clients {sorted(pending)}") from None
        cid = conn.client_id
        if conns.get(cid) is not conn:
            continue
        if tag == "error" or tag == "gone":
            raise ProtocolError(f"client {cid} dropped during {what}: {value}")
        if tag != kind or cid not in pending:
            raise ProtocolError(f"unexpected {tag} from {cid} during {what}")
        out[cid] = value
        pending.discard(cid)
    return out


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

    Blocks until ``expected_clients`` (default min_available_clients) have
    sent HELLO, refuses every other connection with ERROR
    ``registration_closed``, then runs the same round driver as the simulation,
    ``fedavg.drive_fold``, with a TCP transport: a fit sends ROUND_CONFIG to
    the selected clients and collects their FIT_RESULTs, an eval sends
    EVAL_REQUEST and collects EVAL_RESULTs. The base weights are not
    evaluated (``"base": null``). Ends every client with DONE; if the fold
    fails with a ``FedharError`` instead, every client still connected gets
    an ERROR frame carrying its message before the error is re-raised.
    """
    expected = expected_clients if expected_clients is not None else config.min_available_clients
    results: queue.Queue = queue.Queue()
    conns: dict[str, _ClientConn] = {}

    def emit(**event):
        if audit is not None:
            audit({"ts": time.time(), "fold": fold, **event})

    pending_conns: list[_ClientConn] = []
    listener = socket.create_server((host, port))
    listener.settimeout(0.2)
    if ready_event is not None:
        ready_event.set()
    try:
        deadline = None if accept_timeout is None else time.monotonic() + accept_timeout
        while len(conns) < expected:
            if deadline is not None and time.monotonic() > deadline:
                raise AvailabilityError(
                    f"only {len(conns)} of {expected} clients registered before timeout")
            try:
                sock, _addr = listener.accept()
                conn = _ClientConn(sock, results)
                pending_conns.append(conn)
                conn.start()
            except socket.timeout:
                pass
            while len(conns) < expected:
                try:
                    tag, conn, _value = results.get_nowait()
                except queue.Empty:
                    break
                cid = conn.client_id
                if tag == "hello":
                    if cid in conns:
                        conn._fail("duplicate_id", f"client id {cid} already registered")
                        continue
                    conns[cid] = conn
                    emit(round=0, event="hello", client_id=cid,
                         num_examples=conn.num_examples)
                elif conns.get(cid) is conn:  # a registered client failed or left
                    del conns[cid]
        for conn in pending_conns:
            if not conn.closed and conns.get(conn.client_id) is not conn:
                conn._fail("registration_closed",
                           f"registration is closed: {expected} clients registered")

        def fit(weights, round_idx, fit_ids):
            payload = encode_round_config(round_idx, fold, config.seed,
                                          config.local_epochs, config.batch_size,
                                          config.local_lr, encode_weights(weights))
            for cid in fit_ids:
                conns[cid].expected = MSG_FIT_RESULT
                conns[cid].send(MSG_ROUND_CONFIG, payload)
            del payload  # free the frame while the clients train
            fits = _collect(results, conns, "fit", set(fit_ids), config.round_timeout_s,
                            f"round {round_idx} fit")
            for cid in fit_ids:
                train_loss, fit_blob = fits.pop(cid)
                yield cid, ClientUpdate(cid, decode_weights(fit_blob, base_weights.config),
                                        conns[cid].num_examples, train_loss)

        def evaluate_clients(weights, round_idx, eval_ids):
            payload = _pack_blob(encode_weights(weights))
            for cid in eval_ids:
                conns[cid].expected = MSG_EVAL_RESULT
                conns[cid].send(MSG_EVAL_REQUEST, payload)
            evals = _collect(results, conns, "eval", set(eval_ids), config.round_timeout_s,
                             f"round {round_idx} eval")
            for cid in eval_ids:
                yield cid, evals[cid]

        result = drive_fold(fold, {cid: c.num_examples for cid, c in conns.items()},
                            fit, evaluate_clients, base_weights, config,
                            audit=audit, eval_base=False)
        for cid in sorted(conns):
            try:
                conns[cid].send(MSG_DONE)
                emit(round=config.rounds, event="done", client_id=cid)
            except OSError:
                log.warning("client %s vanished before DONE", cid)
        return result
    except FedharError as exc:
        for conn in pending_conns:
            if not conn.closed:
                conn._fail("aborted", str(exc))
        raise
    finally:
        listener.close()
        for conn in pending_conns:
            conn.close()
            conn.thread.join()
            conn.rfile.close()


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
    count, then serves ROUND_CONFIG (local fine-tune) and EVAL_REQUEST
    (local test-set evaluation) until DONE.
    """
    sock = connect_with_retry(host, port)
    rfile = sock.makefile("rb")
    rounds_done = 0
    try:
        sock.sendall(frame_encode(MSG_HELLO, encode_hello(client_id, len(train_windows))))
        while True:
            msg_type, payload = read_frame(rfile)
            if msg_type == MSG_ROUND_CONFIG:
                (round_idx, fold, seed, local_epochs,
                 batch_size, local_lr, blob) = decode_round_config(payload)
                weights = decode_weights(blob, model_config)
                local = FedConfig(local_epochs=local_epochs, batch_size=batch_size,
                                  local_lr=local_lr, seed=seed)
                update = client_fit(weights, train_windows, local, client_id,
                                    fold, round_idx)
                sock.sendall(frame_encode(MSG_FIT_RESULT, encode_fit_result(
                    update.train_loss, encode_weights(update.weights))))
                rounds_done += 1
            elif msg_type == MSG_EVAL_REQUEST:
                cur = _Cursor(payload)
                weights = decode_weights(_read_blob(cur), model_config)
                cur.done()
                report = evaluate(weights, test_windows, client_id, label_names)
                sock.sendall(frame_encode(MSG_EVAL_RESULT, encode_eval_result(report)))
            elif msg_type == MSG_DONE:
                return rounds_done
            elif msg_type == MSG_ERROR:
                code, message = decode_error(payload)
                raise ProtocolError(f"server error {code}: {message}")
            else:
                raise ProtocolError(f"unexpected message type {msg_type}")
    finally:
        rfile.close()
        try:
            sock.close()
        except OSError:
            pass
