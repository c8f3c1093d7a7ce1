"""Binary wire protocol and TCP transport for federated rounds.

Frames are [u32 LE length][u8 msg_type][payload] where length counts the
type byte plus the payload, capped at 1 GiB. Weights travel as a WeightBlob:
for each tensor in canonical order, u16 name length + UTF-8 name + u8 rank
+ u32 per-dim sizes + raw little-endian float32 data. Wherever a blob is
embedded (messages, checkpoint files) a CRC32 of the blob follows it.

Checkpoint files are magic "FHG1" + u16 version + a name-tagged config
block + the WeightBlob + its CRC32.

Protocol, per client: HELLO, then per round ROUND_CONFIG -> FIT_RESULT and
EVAL_REQUEST -> EVAL_RESULT, finally DONE. Anything out of order gets an
ERROR frame and the connection dropped.
"""

from __future__ import annotations

import json
import logging
import queue
import socket
import struct
import threading
import time
import zlib

import numpy as np

from .errors import (AvailabilityError, DecodeError, ProtocolError, ShapeError)
from .fedavg import ClientUpdate, FedConfig, FoldResult, client_fit, drive_fold
from .metrics import ClientReport
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

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def u8(self):
        return self.unpack("<B")

    def u16(self):
        return self.unpack("<H")

    def u32(self):
        return self.unpack("<I")

    def u64(self):
        return self.unpack("<Q")

    def i64(self):
        return self.unpack("<q")

    def f64(self):
        return self.unpack("<d")

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

_CONFIG_FIELDS = [
    ("n_features", "int"),
    ("n_labels", "int"),
    ("transformers_layers", "int"),
    ("hidden_size", "int"),
    ("n_positions", "int"),
    ("n_heads", "int"),
    ("dropout", "float"),
    ("seed", "uint"),
]
_TAGS = {"int": 0, "float": 1, "uint": 2}


def _encode_config(config: ModelConfig) -> bytes:
    parts = [struct.pack("<H", len(_CONFIG_FIELDS))]
    for name, kind in _CONFIG_FIELDS:
        value = getattr(config, name)
        parts.append(_pack_text(name))
        parts.append(struct.pack("<B", _TAGS[kind]))
        if kind == "int":
            parts.append(struct.pack("<q", int(value)))
        elif kind == "uint":
            parts.append(struct.pack("<Q", int(value)))
        else:
            parts.append(struct.pack("<d", float(value)))
    return b"".join(parts)


def _decode_config(cur: _Cursor) -> ModelConfig:
    count = cur.u16()
    fields = {}
    for _ in range(count):
        name = cur.text()
        tag = cur.u8()
        if tag == _TAGS["int"]:
            fields[name] = cur.i64()
        elif tag == _TAGS["uint"]:
            fields[name] = cur.u64()
        elif tag == _TAGS["float"]:
            fields[name] = cur.f64()
        else:
            raise DecodeError(f"unknown config field tag {tag}", offset=cur.pos)
    missing = [n for n, _ in _CONFIG_FIELDS if n not in fields]
    if missing:
        raise DecodeError(f"config block missing fields {missing}")
    return ModelConfig.from_dict(fields)


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
    round_idx, fold = cur.u32(), cur.u32()
    seed = cur.u64()
    local_epochs, batch_size = cur.u32(), cur.u32()
    local_lr = cur.f64()
    blob = _read_blob(cur)
    cur.done()
    return round_idx, fold, seed, local_epochs, batch_size, local_lr, blob


def encode_fit_result(client_id: str, num_examples: int, train_loss: float,
                      blob: bytes | None) -> bytes:
    head = _pack_text(client_id) + struct.pack("<Id", num_examples, train_loss)
    if blob is None:
        return head + struct.pack("<B", 0)
    return head + struct.pack("<B", 1) + _pack_blob(blob)


def decode_fit_result(payload: bytes):
    cur = _Cursor(payload)
    client_id = cur.text()
    num_examples = cur.u32()
    train_loss = cur.f64()
    blob = _read_blob(cur) if cur.u8() else None
    cur.done()
    return client_id, num_examples, train_loss, blob


def decode_eval_result(payload: bytes) -> ClientReport:
    """Parse an EVAL_RESULT's JSON report; a malformed one is a DecodeError."""
    try:
        report = json.loads(payload.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise DecodeError(f"EVAL_RESULT is not UTF-8 JSON: {exc}") from None
    required = {"subject_id", "mean_ba", "defined_labels"}
    if not isinstance(report, dict) or not required <= report.keys():
        raise DecodeError(f"EVAL_RESULT is not an object with keys {sorted(required)}")
    mean_ba = report["mean_ba"]
    if isinstance(mean_ba, bool) or not isinstance(mean_ba, (int, float)):
        raise DecodeError(f"EVAL_RESULT mean_ba {mean_ba!r} is not a number")
    return ClientReport.from_json_dict(report)


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
        self.results.put(("error", self.client_id, f"{code}: {message}"))

    def _reader(self) -> None:
        try:
            while True:
                try:
                    msg_type, payload = read_frame(self.rfile)
                except (DecodeError, OSError, ValueError):
                    if not self.closed:
                        self.results.put(("gone", self.client_id, "connection lost"))
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
                    self.results.put(("hello", self.client_id, self))
                elif msg_type == MSG_FIT_RESULT:
                    self.results.put(("fit", self.client_id, decode_fit_result(payload)))
                elif msg_type == MSG_EVAL_RESULT:
                    self.results.put(("eval", self.client_id, decode_eval_result(payload)))
        except Exception as exc:  # decoding bugs should not hang the server
            self._fail("internal", str(exc))


def _collect(results: queue.Queue, kind: str, pending: set, timeout: float | None,
             what: str):
    """Drain expected results; one extra timeout window before giving up."""
    out = {}
    for attempt in range(2):
        deadline = None if timeout is None else time.monotonic() + timeout
        while pending:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                break
            try:
                tag, cid, value = results.get(timeout=remaining)
            except queue.Empty:
                break
            if tag == "error" or tag == "gone":
                raise ProtocolError(f"client {cid} dropped during {what}: {value}")
            if tag != kind or cid not in pending:
                raise ProtocolError(f"unexpected {tag} from {cid} during {what}")
            out[cid] = value
            pending.discard(cid)
        if not pending:
            return out
        if attempt == 0:
            log.warning("%s timed out waiting for %s; retrying once", what, sorted(pending))
    raise ProtocolError(f"{what} timed out waiting for clients {sorted(pending)}")


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
    sent HELLO, then runs the same round driver as the simulation,
    ``fedavg.drive_fold``, with a TCP transport: a fit sends ROUND_CONFIG to
    the selected clients and collects their FIT_RESULTs, an eval sends
    EVAL_REQUEST and collects EVAL_RESULTs. The base weights are not
    evaluated (``"base": null``). Ends every client with DONE.
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
            while True:
                try:
                    tag, cid, value = results.get_nowait()
                except queue.Empty:
                    break
                if tag == "hello":
                    if cid in conns:
                        value._fail("duplicate_id", f"client id {cid} already registered")
                        continue
                    conns[cid] = value
                    emit(round=0, event="hello", client_id=cid,
                         num_examples=value.num_examples)
                elif tag in ("error", "gone"):
                    conns.pop(cid, None)

        def fit(weights, round_idx, fit_ids):
            payload = encode_round_config(round_idx, fold, config.seed,
                                          config.local_epochs, config.batch_size,
                                          config.local_lr, encode_weights(weights))
            for cid in fit_ids:
                conns[cid].expected = MSG_FIT_RESULT
                conns[cid].send(MSG_ROUND_CONFIG, payload)
            del payload  # free the frame while the clients train
            fits = _collect(results, "fit", set(fit_ids), config.round_timeout_s,
                            f"round {round_idx} fit")
            for cid in fit_ids:
                client_id, num_examples, train_loss, fit_blob = fits.pop(cid)
                if client_id != cid:
                    raise ProtocolError(
                        f"connection for {cid} reported client_id {client_id}")
                if num_examples < 1 or fit_blob is None:
                    yield cid, None
                    continue
                yield cid, ClientUpdate(cid, decode_weights(fit_blob, base_weights.config),
                                        num_examples, train_loss)

        def evaluate_clients(weights, round_idx, eval_ids):
            payload = _pack_blob(encode_weights(weights))
            for cid in eval_ids:
                conns[cid].expected = MSG_EVAL_RESULT
                conns[cid].send(MSG_EVAL_REQUEST, payload)
            evals = _collect(results, "eval", set(eval_ids), config.round_timeout_s,
                             f"round {round_idx} eval")
            for cid in eval_ids:
                yield cid, evals[cid]

        result = drive_fold(fold, conns, fit, evaluate_clients, base_weights, config,
                            audit=audit, eval_base=False)
        for cid in sorted(conns):
            try:
                conns[cid].send(MSG_DONE)
                emit(round=config.rounds, event="done", client_id=cid)
            except OSError:
                log.warning("client %s vanished before DONE", cid)
        return result
    finally:
        listener.close()
        for conn in list(conns.values()) + pending_conns:
            conn.close()


def client_loop(
    host: str,
    port: int,
    client_id: str,
    model_config: ModelConfig,
    train_windows,
    test_windows,
    label_names: list[str] | None = None,
    attempts: int = CONNECT_ATTEMPTS,
    base_delay: float = CONNECT_BASE_DELAY,
) -> int:
    """Participate in a federation as one client; returns rounds completed.

    Connects with exponential backoff, HELLOs with the local training window
    count, then serves ROUND_CONFIG (local fine-tune) and EVAL_REQUEST
    (local test-set evaluation) until DONE.
    """
    sock = connect_with_retry(host, port, attempts, base_delay)
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
                if not train_windows:
                    sock.sendall(frame_encode(
                        MSG_FIT_RESULT, encode_fit_result(client_id, 0, 0.0, None)))
                    continue
                local = FedConfig(local_epochs=local_epochs, batch_size=batch_size,
                                  local_lr=local_lr, seed=seed)
                update = client_fit(weights, train_windows, local, client_id,
                                    fold, round_idx)
                sock.sendall(frame_encode(MSG_FIT_RESULT, encode_fit_result(
                    client_id, update.num_examples, update.train_loss,
                    encode_weights(update.weights))))
                rounds_done += 1
            elif msg_type == MSG_EVAL_REQUEST:
                cur = _Cursor(payload)
                weights = decode_weights(_read_blob(cur), model_config)
                cur.done()
                report = evaluate(weights, test_windows, client_id, label_names)
                sock.sendall(frame_encode(
                    MSG_EVAL_RESULT,
                    json.dumps(report.to_json_dict()).encode("utf-8")))
            elif msg_type == MSG_DONE:
                return rounds_done
            elif msg_type == MSG_ERROR:
                code, message = decode_error(payload)
                raise ProtocolError(f"server error {code}: {message}")
            else:
                raise ProtocolError(f"unexpected message type {msg_type}")
    finally:
        try:
            sock.close()
        except OSError:
            pass
