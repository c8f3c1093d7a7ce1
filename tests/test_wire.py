"""Wire format: framing, weight blobs, checkpoints, and the TCP loop."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import socket
import struct
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

import fedhar.data as D
import fedhar.tensor as T
import fedhar.wire as W
from fedhar.errors import (AggregationError, AvailabilityError, ConfigError, DecodeError,
                           DivergenceError, ProtocolError, ShapeError)
from fedhar.fedavg import FedConfig, run_fold
from fedhar.metrics import ClientReport, ConfusionCounts
from fedhar.model import ModelConfig, WeightSet, init_model, parameter_shapes
from fedhar.tensor import Tensor
from fedhar.util import atomic_write_json

MC = ModelConfig(n_features=6, n_labels=3, transformers_layers=1,
                 hidden_size=8, n_positions=8, dropout=0.1, seed=0)


def random_weights(config, seed):
    rng = np.random.default_rng(seed)
    ws = WeightSet(config)
    for name, shape in parameter_shapes(config):
        ws.tensors[name] = Tensor(
            rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    return ws


# ---------------------------------------------------------------- framing

def test_frame_golden_bytes_done():
    # length 1 (just the type byte), type 6
    assert W.frame_encode(W.MSG_DONE) == bytes.fromhex("0100000006")


def test_frame_round_trip_with_payload():
    frame = W.frame_encode(W.MSG_HELLO, b"abc")
    assert frame == bytes.fromhex("04000000") + b"\x01abc"
    msg_type, payload = W.read_frame(io.BytesIO(frame))
    assert msg_type == W.MSG_HELLO
    assert payload == b"abc"


def test_read_frame_rejects_oversized_before_reading_body():
    header = struct.pack("<I", W.MAX_FRAME_LEN + 1)
    stream = io.BytesIO(header)  # no body on purpose
    with pytest.raises(ProtocolError, match="1 GiB"):
        W.read_frame(stream)


def test_read_frame_rejects_zero_length():
    with pytest.raises(ProtocolError, match="length 0"):
        W.read_frame(io.BytesIO(struct.pack("<I", 0)))


def test_read_exact_reports_truncation():
    with pytest.raises(DecodeError, match="3 of 8"):
        W.read_exact(io.BytesIO(b"abc"), 8)


def test_frame_encode_validates_type():
    with pytest.raises(ProtocolError):
        W.frame_encode(0)
    with pytest.raises(ProtocolError):
        W.frame_encode(256)


class ScriptedStream:
    """A stream over ``data`` whose ``readinto`` returns at most ``step`` bytes
    a call and fails the test if asked for anything past ``stop``."""

    def __init__(self, data, step=None, stop=None):
        self.data, self.pos = bytes(data), 0
        self.step = step or len(self.data)
        self.stop = len(self.data) if stop is None else stop

    def readinto(self, buf):
        assert self.pos < self.stop, f"read past byte {self.stop}"
        n = min(len(buf), self.step, len(self.data) - self.pos)
        buf[:n] = self.data[self.pos:self.pos + n]
        self.pos += n
        return n


def test_read_frame_checks_max_len_before_reading_the_body():
    header = struct.pack("<I", 101)
    with pytest.raises(ProtocolError, match="101 exceeds the 100 bytes"):
        W.read_frame(ScriptedStream(header + bytes(101), stop=4), max_len=100)
    msg_type, payload = W.read_frame(ScriptedStream(header + bytes(101)), max_len=101)
    assert (msg_type, len(payload)) == (0, 100)


TINY = ModelConfig(n_features=2, n_labels=1, transformers_layers=1, hidden_size=4,
                   n_positions=2, n_heads=1, seed=0)


def counting_weights(config):
    """Element j of tensor i is (j % 251 - 125) / 8 + i: exact in float32 under any numpy."""
    ws = WeightSet(config)
    for i, (name, shape) in enumerate(parameter_shapes(config)):
        values = (np.arange(int(np.prod(shape))) % 251 - 125) / 8 + i
        ws.tensors[name] = Tensor(values.astype(np.float32).reshape(shape))
    return ws


def weight_frames(ws):
    """The three frames that carry weights, as server and client build them."""
    parts = W._blob_parts(ws)
    return {
        "ROUND_CONFIG": W.frame_encode(W.MSG_ROUND_CONFIG, *W._blob_message(
            W._ROUND_HEAD.pack(2, 1, 2 ** 40 + 3, 5, 16, 2.5e-4), parts)),
        "EVAL_REQUEST": W.frame_encode(W.MSG_EVAL_REQUEST, *W._blob_message(b"", parts)),
        "FIT_RESULT": W.frame_encode(W.MSG_FIT_RESULT, *W._blob_message(
            struct.pack("<d", 0.6931), parts)),
    }


def test_weight_frames_golden_bytes():
    # Whole frames, length and type byte included. Computed with the
    # concatenating encoders (encode_round_config, encode_fit_result,
    # _pack_blob) that the one-join builder replaced; peers depend on them.
    frames = weight_frames(counting_weights(TINY))
    assert {k: (len(f), hashlib.sha256(f).hexdigest()) for k, f in frames.items()} == {
        "ROUND_CONFIG": (1663, "f5a514ac0eb95ede5559e189a2c5dbc3c8585056272a9b847b28119a816428c4"),
        "EVAL_REQUEST": (1631, "344bc3f7ed66f9e0556bd92978325154f276cf60f91f025ce6e89350ef2511b6"),
        "FIT_RESULT": (1639, "2fda0b2f721439cb14445316345782d2006867483a426d203ad38de7856662bd"),
    }
    assert frames["ROUND_CONFIG"][:55].hex() == (
        "7b060000" "02" "02000000" "01000000" "0300000000010000" "05000000" "10000000"
        "fca9f1d24d62303f" "52060000" "0c00" "696e7075745f70726f6a2e77")


def test_weightless_round_config_golden_bytes():
    # the ROUND_CONFIG of every round: the head, a blob length of 0 and the
    # CRC32 of no bytes
    frame = W.frame_encode(W.MSG_ROUND_CONFIG, *W._blob_message(
        W._ROUND_HEAD.pack(2, 1, 2 ** 40 + 3, 5, 16, 2.5e-4), []))
    assert frame.hex() == (
        "29000000" "02" "02000000" "01000000" "0300000000010000" "05000000" "10000000"
        "fca9f1d24d62303f" "00000000" "00000000")
    assert len(frame) - 4 == W._frame_caps(TINY)[W.MSG_ROUND_CONFIG]
    msg_type, payload = W.read_frame(io.BytesIO(frame))
    *head, blob = W.decode_round_config(payload)
    assert (msg_type, head, len(blob)) == (W.MSG_ROUND_CONFIG, [2, 1, 2 ** 40 + 3, 5, 16,
                                                                 2.5e-4], 0)


def test_read_frame_rebuilds_a_weight_frame_from_three_byte_reads():
    ws = counting_weights(TINY)
    frame = weight_frames(ws)["ROUND_CONFIG"]
    msg_type, payload = W.read_frame(ScriptedStream(frame, step=3))
    assert W.frame_encode(msg_type, payload) == frame
    assert W.decode_weights(W.decode_round_config(payload)[-1], TINY).equals_bitwise(ws)


def test_frame_caps_are_the_longest_frames_a_peer_can_send():
    ws = random_weights(MC, seed=1)
    caps = W._frame_caps(MC)
    for name, frame in weight_frames(ws).items():
        if name != "ROUND_CONFIG":  # sent without weights, as the golden test above pins
            assert caps[getattr(W, f"MSG_{name}")] == len(frame) - 4, name
    longest = W.frame_encode(W.MSG_HELLO, W.encode_hello("x" * 0xFFFF, 2 ** 32 - 1))
    assert caps[W.MSG_HELLO] == len(longest) - 4
    names = [chr(ord("a") + i) * 0xFFFF for i in range(MC.n_labels)]
    report = ClientReport.from_counts("s1", [ConfusionCounts(1, 1, 1, 1)] * MC.n_labels, names)
    longest = W.frame_encode(W.MSG_EVAL_RESULT, W.encode_eval_result(report))
    assert caps[W.MSG_EVAL_RESULT] == len(longest) - 4


# ----------------------------------------------------------- weight blobs

def test_weight_blob_golden_bytes_single_tensor():
    ws = WeightSet(MC)
    ws.tensors["b"] = Tensor(np.array([1.0, -1.0], dtype=np.float32))
    got = b"".join(W._blob_parts(ws))
    # u16 name len, "b", rank 1, dim 2, then 1.0f and -1.0f little-endian
    assert got == bytes.fromhex("0100620102000000" "0000803f" "000080bf")


def test_weight_blob_round_trips_bitwise():
    rng = np.random.default_rng(11)
    for i in range(20):
        cfg = ModelConfig(
            n_features=int(rng.integers(1, 9)),
            n_labels=int(rng.integers(1, 6)),
            transformers_layers=int(rng.integers(1, 3)),
            hidden_size=int(rng.choice([8, 16, 32])),
            n_positions=int(rng.integers(2, 12)),
            seed=i)
        ws = random_weights(cfg, seed=100 + i)
        back = W.decode_weights(b"".join(W._blob_parts(ws)), cfg)
        assert back.equals_bitwise(ws)


def test_weight_blob_preserves_nonfinite_floats():
    ws = WeightSet(MC)
    ws.tensors["b"] = Tensor(np.array([np.inf, -np.inf, np.nan], dtype=np.float32))
    blob = b"".join(W._blob_parts(ws))
    # the last 12 bytes are the three raw floats
    vals = np.frombuffer(blob[-12:], dtype="<f4")
    assert vals[0] == np.inf and vals[1] == -np.inf and np.isnan(vals[2])


def test_decode_weights_enforces_name_order_and_shape():
    ws = random_weights(MC, seed=0)
    blob = b"".join(W._blob_parts(ws))
    with pytest.raises(DecodeError, match="expected tensor"):
        W.decode_weights(b"\x01\x00z" + blob[3:], MC)
    small = ModelConfig(n_features=6, n_labels=3, transformers_layers=1,
                        hidden_size=4, n_positions=8, seed=0)
    with pytest.raises(ShapeError, match="config requires"):
        W.decode_weights(blob, small)


def test_decode_weights_rejects_truncation_with_offset():
    blob = b"".join(W._blob_parts(random_weights(MC, seed=0)))
    with pytest.raises(DecodeError, match="byte offset") as err:
        W.decode_weights(blob[:-5], MC)
    assert err.value.offset is not None


def test_decode_weights_rejects_trailing_bytes():
    blob = b"".join(W._blob_parts(random_weights(MC, seed=0)))
    with pytest.raises(DecodeError, match="trailing"):
        W.decode_weights(blob + b"\x00", MC)


# ----------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path):
    ws = random_weights(MC, seed=3)
    path = str(tmp_path / "model.ckpt")
    W.save_checkpoint(path, ws)
    back = W.load_checkpoint(path)
    assert back.equals_bitwise(ws)
    assert back.config == MC


# every field set away from its default; the seed sets the top bit of its u64
GOLDEN_CONFIG = ModelConfig(n_features=6, n_labels=3, transformers_layers=1, hidden_size=8,
                            n_positions=8, n_heads=2, dropout=0.25, seed=2 ** 63 + 5)


def test_config_block_golden_bytes():
    # u16 field count, then per field: u16 name length + name, a u8 tag
    # (0 i64, 1 f64, 2 u64) and the value. Checkpoints already written
    # depend on these bytes.
    block = W._encode_config(GOLDEN_CONFIG)
    assert block.hex() == (
        "0800"
        "0a00" "6e5f6665617475726573" "00" "0600000000000000"
        "0800" "6e5f6c6162656c73" "00" "0300000000000000"
        "1300" "7472616e73666f726d6572735f6c6179657273" "00" "0100000000000000"
        "0b00" "68696464656e5f73697a65" "00" "0800000000000000"
        "0b00" "6e5f706f736974696f6e73" "00" "0800000000000000"
        "0700" "6e5f6865616473" "00" "0200000000000000"
        "0700" "64726f706f7574" "01" "000000000000d03f"
        "0400" "73656564" "02" "0500000000000080")
    cur = W._Cursor(block)
    assert W._decode_config(cur) == GOLDEN_CONFIG
    cur.done()


def test_config_block_rejects_any_other_layout():
    block = W._encode_config(GOLDEN_CONFIG)
    first = 2 + len("n_features") + 1 + 8  # each field: name, tag, value
    second = 2 + len("n_labels") + 1 + 8
    dropout_tag = block.index(b"dropout") + len("dropout")
    for bad, message in [
        (block.replace(b"n_heads", b"n_hedas"), "expected field 'n_heads'"),
        (block[:2] + block[2 + first:2 + first + second] + block[2:2 + first]
         + block[2 + first + second:], "expected field 'n_features'"),
        (block[:dropout_tag] + b"\x00" + block[dropout_tag + 1:], "expected field 'dropout'"),
        (struct.pack("<H", 7) + block[2:], "has 7 fields, expected 8"),
        (struct.pack("<H", 9) + block[2:] + W._pack_text("extra") + bytes(9),
         "has 9 fields, expected 8"),
    ]:
        with pytest.raises(DecodeError, match=message):
            W._decode_config(W._Cursor(bad))


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "bad.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DecodeError, match="magic") as err:
        W.load_checkpoint(path)
    assert err.value.offset == 0


def test_checkpoint_rejects_unknown_version(tmp_path):
    ws = random_weights(MC, seed=3)
    path = str(tmp_path / "model.ckpt")
    W.save_checkpoint(path, ws)
    raw = bytearray(Path(path).read_bytes())
    raw[4:6] = struct.pack("<H", 99)
    Path(path).write_bytes(raw)
    with pytest.raises(DecodeError, match="version 99"):
        W.load_checkpoint(path)


def test_checkpoint_detects_corrupted_weights(tmp_path):
    ws = random_weights(MC, seed=3)
    path = str(tmp_path / "model.ckpt")
    W.save_checkpoint(path, ws)
    raw = bytearray(Path(path).read_bytes())
    raw[-6] ^= 0xFF  # inside the weight bytes, before the trailing CRC
    Path(path).write_bytes(raw)
    with pytest.raises(DecodeError, match="checksum mismatch"):
        W.load_checkpoint(path)


def test_atomic_writes_ignore_a_stale_tmp_path(tmp_path):
    # a crashed writer (or anything else) may have left <path>.tmp behind
    ws = random_weights(MC, seed=3)
    ckpt, report = str(tmp_path / "model.ckpt"), str(tmp_path / "fold0.json")
    os.mkdir(f"{ckpt}.tmp")
    os.mkdir(f"{report}.tmp")
    W.save_checkpoint(ckpt, ws)
    atomic_write_json(report, {"fold": 0})
    assert W.load_checkpoint(ckpt).equals_bitwise(ws)
    assert json.loads(Path(report).read_text()) == {"fold": 0}
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["model.ckpt", "model.ckpt.tmp", "fold0.json", "fold0.json.tmp"])


def test_atomic_write_failure_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        W.save_checkpoint(str(target), random_weights(MC, seed=3))
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []


def test_checkpoint_crc_covers_blob():
    blob = b"hello weights"
    packed = b"".join(W._blob_message(b"", [blob[:5], blob[5:]]))
    n = struct.unpack("<I", packed[:4])[0]
    assert n == len(blob)
    assert struct.unpack("<I", packed[-4:])[0] == zlib.crc32(blob)


def test_standardizer_path_convention():
    assert W.standardizer_path("runs/base_fold0.ckpt") == "runs/base_fold0.ckpt.stdz.json"


# ------------------------------------------------------------- messages

def test_hello_round_trip():
    payload = W.encode_hello("synth-007", 42)
    assert W.decode_hello(payload) == ("synth-007", 42)
    with pytest.raises(DecodeError, match="trailing"):
        W.decode_hello(payload + b"\x00")


def test_round_config_round_trip():
    ws = random_weights(MC, seed=5)
    blob = b"".join(W._blob_parts(ws))
    payload = b"".join(W._blob_message(W._ROUND_HEAD.pack(3, 1, 12345, 20, 64, 2.5e-4),
                                       W._blob_parts(ws)))
    r, f, s, ep, bs, lr, back = W.decode_round_config(payload)
    assert (r, f, s, ep, bs) == (3, 1, 12345, 20, 64)
    assert lr == 2.5e-4
    assert back == blob


def test_fit_result_round_trip():
    ws = random_weights(MC, seed=6)
    blob = b"".join(W._blob_parts(ws))
    payload = b"".join(W._blob_message(struct.pack("<d", 0.6931), W._blob_parts(ws)))
    assert payload[:8] == struct.pack("<d", 0.6931)
    assert payload[8:] == struct.pack("<I", len(blob)) + blob + struct.pack("<I", zlib.crc32(blob))
    assert W.decode_fit_result(payload) == (0.6931, blob)


def test_eval_result_round_trip_is_the_report_from_counts():
    counts = [ConfusionCounts(30, 40, 20, 10), ConfusionCounts(5, 0, 0, 5),
              ConfusionCounts(5, 5, 0, 0)]
    for names in (["label:A", "label:B", "label:C"], None):
        sent = ClientReport.from_counts("s1", counts, names)
        payload = W.encode_eval_result(sent)
        assert len(payload) == 2 + 3 * (2 + 7 + 16)  # both name sets are 7 bytes
        got = W.decode_eval_result(payload, "s1")
        assert got.counts == counts
        assert got.to_json_dict() == sent.to_json_dict()
    # the report is filed under the id it is decoded for
    assert W.decode_eval_result(payload, "hello-id").subject_id == "hello-id"


def test_error_message_round_trip():
    payload = W.encode_error("out_of_order", "got FIT_RESULT while expecting HELLO")
    code, message = W.decode_error(payload)
    assert code == "out_of_order"
    assert "FIT_RESULT" in message


# ------------------------------------------------------------ transport

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_connect_with_retry_exhausts_attempts():
    port = free_port()  # nothing listens there
    with pytest.raises(ProtocolError, match="after 2 attempts"):
        W.connect_with_retry("127.0.0.1", port, attempts=2, base_delay=0.01)


def synthetic_clients(n_subjects, seed=1):
    spec = D.SyntheticSpec(n_subjects=n_subjects, minutes_per_subject=64,
                           n_features=6, n_labels=3, alpha=0.5, seed=seed)
    recs = D.gen_synthetic(spec)
    st = D.fit_standardizer(recs)
    clients = {}
    for rec in recs:
        ws = D.make_windows(D.apply_standardizer(rec, st), 8)
        clients[rec.subject_id] = D.split_train_test(ws, 0.8, seed=0)
    return clients


def run_tcp_federation(clients, cfg, audit=None):
    port = free_port()
    base = init_model(MC)
    ready = threading.Event()
    box = {}

    def serve():
        box["result"] = W.server_loop("127.0.0.1", port, base, cfg,
                                      expected_clients=len(clients),
                                      accept_timeout=30.0, audit=audit,
                                      ready_event=ready)

    server = threading.Thread(target=serve)
    server.start()
    assert ready.wait(10.0)
    workers = []
    for cid, (train_w, test_w) in clients.items():
        t = threading.Thread(target=W.client_loop,
                             args=("127.0.0.1", port, cid, MC, train_w, test_w))
        t.start()
        workers.append(t)
    server.join(120.0)
    for t in workers:
        t.join(10.0)
    assert not server.is_alive()
    return box["result"], base


def test_tcp_matches_in_process_simulation_bitwise():
    clients = synthetic_clients(3)
    cfg = FedConfig(rounds=2, min_available_clients=3, local_epochs=2,
                    batch_size=8, local_lr=1e-2, seed=0)
    tcp_result, base = run_tcp_federation(clients, cfg)
    sim_result = run_fold(0, clients, base, cfg)
    assert tcp_result.final_weights.equals_bitwise(sim_result.final_weights)
    assert len(tcp_result.round_reports) == 2
    # the base eval (round 0) too, as the simulation runs it
    for tcp_rep, sim_rep in zip([tcp_result.base_report, *tcp_result.round_reports],
                                [sim_result.base_report, *sim_result.round_reports]):
        assert tcp_rep.summary == sim_rep.summary
        assert [c.counts for c in tcp_rep.clients] == [c.counts for c in sim_rep.clients]
    assert tcp_result.to_json_dict() == sim_result.to_json_dict()


def test_tcp_fold_sends_each_round_weights_once_per_client(monkeypatch):
    encoded, frame_encode = [], W.frame_encode

    def recording_frame_encode(msg_type, *payload):
        frame = frame_encode(msg_type, *payload)
        encoded.append(frame)
        return frame

    monkeypatch.setattr(W, "frame_encode", recording_frame_encode)
    clients = synthetic_clients(2)
    cfg = FedConfig(rounds=3, min_available_clients=2, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    tcp_result, base = run_tcp_federation(clients, cfg)
    sim_result = run_fold(0, clients, base, cfg)
    assert tcp_result.final_weights.equals_bitwise(sim_result.final_weights)
    assert tcp_result.to_json_dict() == sim_result.to_json_dict()

    def decoded(msg_type):
        return [W.read_frame(io.BytesIO(f))[1] for f in encoded if f[4] == msg_type]

    # one ROUND_CONFIG per round, for both clients, none with weights: they
    # travel in the EVAL_REQUESTs, the base eval's and one per round
    configs = [W.decode_round_config(p) for p in decoded(W.MSG_ROUND_CONFIG)]
    assert [(c[0], len(c[-1])) for c in configs] == [(1, 0), (2, 0), (3, 0)]
    assert len(decoded(W.MSG_EVAL_REQUEST)) == 4
    assert len(decoded(W.MSG_FIT_RESULT)) == 6
    assert len(decoded(W.MSG_EVAL_RESULT)) == 8


def test_tcp_audit_trail_matches_simulation_event_for_event():
    clients = synthetic_clients(3)
    empty = sorted(clients)[1]
    clients[empty] = ([], clients[empty][1])  # no training windows, still evaluated
    cfg = FedConfig(rounds=2, min_available_clients=3, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    tcp_events, sim_events = [], []
    tcp_result, base = run_tcp_federation(clients, cfg, audit=tcp_events.append)
    sim_result = run_fold(0, clients, base, cfg, audit=sim_events.append)

    def rounds_only(events):
        return [{k: v for k, v in e.items() if k != "ts"} for e in events
                if e["event"] not in ("hello", "done")]

    assert rounds_only(tcp_events) == rounds_only(sim_events)
    assert [e["round"] for e in rounds_only(tcp_events)][:3] == [0, 0, 0]  # the base eval
    assert [e["event"] for e in sim_events].count("skip") == 2
    assert tcp_result.final_weights.equals_bitwise(sim_result.final_weights)


def test_tcp_audit_trail_counts():
    clients = synthetic_clients(3)
    cfg = FedConfig(rounds=2, min_available_clients=3, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    events = []
    run_tcp_federation(clients, cfg, audit=events.append)
    kinds = [e["event"] for e in events]
    assert kinds.count("hello") == 3
    assert kinds.count("broadcast") == 2
    assert kinds.count("fit_result") == 6
    assert kinds.count("aggregate") == 2
    assert kinds.count("eval_result") == 9  # the base eval's 3, then 3 per round
    assert kinds.count("done") == 3


@pytest.mark.skipif(T._openblas is None,
                    reason="numpy's OpenBLAS thread-count functions not found")
def test_co_hosted_clients_split_the_blas_pool_once_for_the_whole_fold(monkeypatch):
    """Each client thread holds one share from before it connects until it
    returns, so the pool is halved once and restored once, not at every fit
    and evaluation, and the weights keep the simulation's bits."""
    clients = synthetic_clients(2)
    cfg = FedConfig(rounds=2, min_available_clients=2, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    name, get, set_threads = T._openblas
    calls = []
    monkeypatch.setattr(T, "_openblas",
                        (name, get, lambda n: (calls.append(n), set_threads(n))))
    tcp_result, base = run_tcp_federation(clients, cfg)
    start = T._blas_start
    # halved when the second client entered, restored when the first returned
    assert calls == ([max(1, start // 2), start] if start > 1 else [])
    assert T._blas_share._active == 0 and get() == start
    sim_result = run_fold(0, clients, base, cfg)
    assert tcp_result.final_weights.equals_bitwise(sim_result.final_weights)


@pytest.mark.skipif(T._openblas is None,
                    reason="numpy's OpenBLAS thread-count functions not found")
def test_a_co_hosted_client_that_fails_gives_its_blas_share_back(monkeypatch):
    """Of two client threads, one has windows with 4 features for a 6-feature
    model. Its base evaluation fails, it tells the server and gives back its
    share, and the server ends the fold naming it; the pool was halved while
    both were connected and is whole again."""
    clients = synthetic_clients(2)
    bad = sorted(clients)[1]
    clients[bad] = tuple(dataclasses.replace(ws, features=ws.features[..., :4])
                         for ws in clients[bad])
    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    name, get, set_threads = T._openblas
    calls = []
    monkeypatch.setattr(T, "_openblas",
                        (name, get, lambda n: (calls.append(n), set_threads(n))))
    port = free_port()
    ready = threading.Event()
    errors = {}

    def run(who, target, *args, **kwargs):
        try:
            target(*args, **kwargs)
        except Exception as exc:
            errors[who] = exc

    threads = [threading.Thread(target=run, args=("server", W.server_loop, "127.0.0.1", port,
                                                  init_model(MC), cfg),
                                kwargs={"expected_clients": 2, "accept_timeout": 30.0,
                                        "ready_event": ready})]
    threads[0].start()
    assert ready.wait(10.0)
    for cid, windows in clients.items():
        threads.append(threading.Thread(target=run, args=(cid, W.client_loop, "127.0.0.1",
                                                          port, cid, MC, *windows)))
        threads[-1].start()
    for t in threads:
        t.join(60.0)
        assert not t.is_alive()
    server_error = errors.pop("server")
    assert isinstance(server_error, ProtocolError)
    assert str(server_error).startswith(f"client {bad} dropped")
    assert "input has 4 features, model expects 6" in str(server_error)
    assert isinstance(errors.pop(bad), ShapeError)
    (_, exc), = errors.items()  # the other client is told the fold is aborted
    assert isinstance(exc, ProtocolError) and str(exc) == f"server error aborted: {server_error}"
    start = T._blas_start
    # halved when the second client entered, restored when the first returned
    assert calls == ([max(1, start // 2), start] if start > 1 else [])
    assert T._blas_share._active == 0 and get() == start


def test_server_rejects_message_out_of_turn():
    clients = synthetic_clients(2)
    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    port = free_port()
    base = init_model(MC)
    ready = threading.Event()
    box = {}

    def serve():
        box["result"] = W.server_loop("127.0.0.1", port, base, cfg,
                                      expected_clients=2, accept_timeout=30.0,
                                      ready_event=ready)

    server = threading.Thread(target=serve)
    server.start()
    assert ready.wait(10.0)

    # a rogue peer says hello, then fires FIT_RESULT before any round starts
    rogue = socket.create_connection(("127.0.0.1", port))
    try:
        rogue.sendall(W.frame_encode(W.MSG_HELLO, W.encode_hello("rogue", 1)))
        rogue.sendall(W.frame_encode(W.MSG_FIT_RESULT, b""))
        rfile = rogue.makefile("rb")
        msg_type, payload = W.read_frame(rfile)
        assert msg_type == W.MSG_ERROR
        code, message = W.decode_error(payload)
        assert code == "out_of_order"
        assert "FIT_RESULT" in message
    finally:
        rogue.close()

    # the real clients still complete the federation afterwards
    workers = []
    for cid, (train_w, test_w) in clients.items():
        t = threading.Thread(target=W.client_loop,
                             args=("127.0.0.1", port, cid, MC, train_w, test_w))
        t.start()
        workers.append(t)
    server.join(120.0)
    for t in workers:
        t.join(10.0)
    assert not server.is_alive()
    assert len(box["result"].round_reports) == 1


def test_server_times_out_when_clients_missing():
    port = free_port()
    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    with pytest.raises(AvailabilityError, match="0 of 2"):
        W.server_loop("127.0.0.1", port, init_model(MC), cfg,
                      expected_clients=2, accept_timeout=0.5)


def test_server_error_reaches_every_client():
    # both clients register, then selection finds 2 of the 3 required
    clients = synthetic_clients(2)
    cfg = FedConfig(rounds=1, min_available_clients=3, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    port = free_port()
    ready = threading.Event()
    errors = {}

    def serve():
        try:
            W.server_loop("127.0.0.1", port, init_model(MC), cfg, expected_clients=2,
                          accept_timeout=30.0, ready_event=ready)
        except Exception as exc:
            errors["server"] = exc

    def join(cid, train_w, test_w):
        try:
            W.client_loop("127.0.0.1", port, cid, MC, train_w, test_w)
        except Exception as exc:
            errors[cid] = exc

    server = threading.Thread(target=serve)
    server.start()
    assert ready.wait(10.0)
    workers = [threading.Thread(target=join, args=(cid, *windows))
               for cid, windows in clients.items()]
    for t in workers:
        t.start()
    for t in [server] + workers:
        t.join(30.0)
        assert not t.is_alive()
    assert isinstance(errors.pop("server"), AvailabilityError)
    assert set(errors) == set(clients)
    for exc in errors.values():
        assert isinstance(exc, ProtocolError)
        assert "aborted" in str(exc) and "3 required" in str(exc)


def test_a_client_whose_training_diverges_tells_the_server_why():
    """Each client's loss overflows in its round-1 fit. It sends ERROR
    client_failed with its reason and re-raises; the server ends the fold
    naming the client and that reason, not a lost connection."""
    clients = synthetic_clients(2)
    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=2,
                    batch_size=8, local_lr=1e30, seed=0)
    port = free_port()
    ready = threading.Event()
    errors = {}

    def serve():
        try:
            W.server_loop("127.0.0.1", port, init_model(MC), cfg, expected_clients=2,
                          accept_timeout=30.0, ready_event=ready)
        except Exception as exc:
            errors["server"] = exc

    def join(cid, train_w, test_w):
        try:
            # the overflow is what this test is about, not its warnings
            with np.errstate(over="ignore", invalid="ignore"):
                W.client_loop("127.0.0.1", port, cid, MC, train_w, test_w)
        except Exception as exc:
            errors[cid] = exc

    server = threading.Thread(target=serve)
    server.start()
    assert ready.wait(10.0)
    workers = [threading.Thread(target=join, args=(cid, *windows))
               for cid, windows in clients.items()]
    for t in workers:
        t.start()
    for t in [server] + workers:
        t.join(60.0)
        assert not t.is_alive()
    server_error = errors.pop("server")
    assert isinstance(server_error, ProtocolError)
    assert re.fullmatch(r"client (\S+) dropped during the ROUND_CONFIG exchange: client_failed: "
                        r"training loss is \S+ at epoch 2, batch 1", str(server_error))
    assert str(server_error).split()[1] in clients
    assert set(errors) == set(clients)
    for exc in errors.values():
        assert isinstance(exc, DivergenceError)
        assert str(exc).endswith("at epoch 2, batch 1")


def serve_one_client(cfg, audit=None, expected_clients=1, model=MC):
    """A server thread; returns (port, thread, box) with box "result" or "error".

    The thread is a daemon, so a server that never returns fails its test's
    join instead of hanging the run.
    """
    port = free_port()
    ready = threading.Event()
    box = {}

    def serve():
        try:
            box["result"] = W.server_loop(
                "127.0.0.1", port, init_model(model), cfg, expected_clients=expected_clients,
                accept_timeout=30.0, audit=audit, ready_event=ready)
        except Exception as exc:
            box["error"] = exc

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    assert ready.wait(10.0)
    return port, server, box


def eval_payload(*labels):
    """An EVAL_RESULT payload from (name bytes, tp, tn, fp, fn) tuples."""
    return struct.pack("<H", len(labels)) + b"".join(
        struct.pack("<H", len(name)) + name + struct.pack("<4I", *counts)
        for name, *counts in labels)


def honest_labels(n):
    """``n`` labels with one true positive and one true negative each."""
    return [(b"label_%d" % i, 1, 1, 0, 0) for i in range(n)]


HONEST_EVAL = eval_payload(*honest_labels(MC.n_labels))


@contextlib.contextmanager
def rogue_peer(port):
    """A raw connection and its reader; both are closed, so the server sees EOF."""
    rogue = socket.create_connection(("127.0.0.1", port))
    rfile = rogue.makefile("rb")
    try:
        yield rogue, rfile
    finally:
        rfile.close()
        rogue.close()


def answer_base_eval(rogue, rfile, client_id, num_examples):
    """Say HELLO and answer the base weights' EVAL_REQUEST; returns their blob."""
    rogue.sendall(W.frame_encode(W.MSG_HELLO, W.encode_hello(client_id, num_examples)))
    msg_type, payload = W.read_frame(rfile)
    assert msg_type == W.MSG_EVAL_REQUEST
    rogue.sendall(W.frame_encode(W.MSG_EVAL_RESULT, HONEST_EVAL))
    return bytes(W._decode_blob_message(payload, "<")[0])


def echo_fit(rogue, rfile, client_id, num_examples):
    """Answer the base eval, echo its weights back as the fit, await EVAL_REQUEST."""
    blob = answer_base_eval(rogue, rfile, client_id, num_examples)
    assert W.read_frame(rfile)[0] == W.MSG_ROUND_CONFIG
    rogue.sendall(W.frame_encode(W.MSG_FIT_RESULT,
                                 *W._blob_message(struct.pack("<d", 0.0), [blob])))
    assert W.read_frame(rfile)[0] == W.MSG_EVAL_REQUEST


@pytest.mark.parametrize("report", [
    pytest.param(b"", id="empty"),
    pytest.param(eval_payload((b"a", 1, 1, 1, 1))[:-1], id="truncated"),
    pytest.param(eval_payload((b"a", 1, 1, 1, 1)) + b"\x00", id="trailing-byte"),
    pytest.param(eval_payload((b"\xff", 1, 1, 1, 1)), id="bad-utf8-name"),
    pytest.param(eval_payload(), id="zero-labels"),
    # counts for fewer or more labels than the model has
    pytest.param(eval_payload(*honest_labels(MC.n_labels - 1)), id="too-few"),
    pytest.param(eval_payload(*honest_labels(MC.n_labels + 1)), id="too-many"),
    # "a" has no negatives and "b" no positives
    pytest.param(eval_payload((b"a", 1, 0, 0, 1), (b"b", 0, 2, 0, 0)), id="all-undefined"),
    # JSON reports, as peers speaking an older EVAL_RESULT format send them
    b"{}",
    b'{"subject_id": "rogue", "mean_ba": "high", "defined_labels": 1}',
    b"[0.5]",
    b"\xff not json",
    b'{"subject_id": "rogue", "mean_ba": NaN, "defined_labels": 1}',
    b'{"subject_id": "rogue", "mean_ba": 1.5, "defined_labels": 1}',
    b'{"subject_id": "rogue", "mean_ba": -0.1, "defined_labels": 1}',
    b'{"subject_id": 7, "mean_ba": 0.5, "defined_labels": 1}',
    b'{"subject_id": "rogue", "mean_ba": 0.5, "defined_labels": 1.5}',
    b'{"subject_id": "someone-else", "mean_ba": 0.5, "defined_labels": 1}',
])
def test_server_rejects_malformed_eval_result(report):
    cfg = FedConfig(rounds=1, min_available_clients=1, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    port, server, box = serve_one_client(cfg)
    # a rogue peer fits honestly (echoing the weights back), then lies in eval
    with rogue_peer(port) as (rogue, rfile):
        echo_fit(rogue, rfile, "rogue", 1)
        rogue.sendall(W.frame_encode(W.MSG_EVAL_RESULT, report))
        msg_type, payload = W.read_frame(rfile)
        assert msg_type == W.MSG_ERROR
        code, message = W.decode_error(payload)
        assert code == "bad_message"
        assert "EVAL_RESULT" in message
    server.join(30.0)
    assert not server.is_alive()
    assert isinstance(box["error"], ProtocolError)
    assert "rogue" in str(box["error"])


def test_fit_result_is_weighted_by_the_hello_count():
    cfg = FedConfig(rounds=1, min_available_clients=1, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    events = []
    port, server, box = serve_one_client(cfg, audit=events.append)
    # a FIT_RESULT carries no example count: the HELLO's 7 weights the update
    with rogue_peer(port) as (rogue, rfile):
        echo_fit(rogue, rfile, "rogue", 7)
        rogue.sendall(W.frame_encode(W.MSG_EVAL_RESULT, HONEST_EVAL))
        assert W.read_frame(rfile)[0] == W.MSG_DONE
    server.join(30.0)
    assert not server.is_alive()
    assert "error" not in box
    fits = [e for e in events if e["event"] == "fit_result"]
    # and the audit logs the train loss the FIT_RESULT carried
    assert [(e["client_id"], e["num_examples"], e["train_loss"]) for e in fits] == \
        [("rogue", 7, 0.0)]


def test_nan_fit_result_aborts_the_fold_naming_client_and_parameter():
    cfg = FedConfig(rounds=1, min_available_clients=1, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    port, server, box = serve_one_client(cfg)
    name = parameter_shapes(MC)[-1][0]
    with rogue_peer(port) as (rogue, rfile):
        weights = W.decode_weights(answer_base_eval(rogue, rfile, "rogue", 1), MC)
        assert W.read_frame(rfile)[0] == W.MSG_ROUND_CONFIG
        weights[name].data[0] = np.nan
        blob = b"".join(W._blob_parts(weights))
        rogue.sendall(W.frame_encode(W.MSG_FIT_RESULT,
                                     *W._blob_message(struct.pack("<d", 0.0), [blob])))
        msg_type, payload = W.read_frame(rfile)
        assert msg_type == W.MSG_ERROR
        code, message = W.decode_error(payload)
        assert code == "aborted" and f"client rogue parameter {name} " in message
    server.join(30.0)
    assert not server.is_alive()
    assert isinstance(box["error"], AggregationError)
    assert f"client rogue parameter {name} " in str(box["error"])


def fold_with_a_rogue(rogue_acts):
    """A 2-client fold of a real client and a rogue peer, which answers the base
    eval, reads its ROUND_CONFIG, calls ``rogue_acts(rogue, rfile, base blob)``
    and hangs up. The real client must get ERROR ``aborted``; returns the
    server's error."""
    (cid, windows), = synthetic_clients(1).items()
    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    port, server, box = serve_one_client(cfg, expected_clients=2)
    errors = {}

    def join():
        try:
            W.client_loop("127.0.0.1", port, cid, MC, *windows)
        except Exception as exc:
            errors["client"] = exc

    worker = threading.Thread(target=join)
    worker.start()
    with rogue_peer(port) as (rogue, rfile):
        blob = answer_base_eval(rogue, rfile, "rogue", 1)
        assert W.read_frame(rfile)[0] == W.MSG_ROUND_CONFIG
        rogue_acts(rogue, rfile, blob)
    server.join(30.0)
    worker.join(30.0)
    assert not server.is_alive() and not worker.is_alive()
    assert isinstance(errors["client"], ProtocolError)
    assert str(errors["client"]).startswith("server error aborted: client rogue ")
    return box["error"]


def test_a_peer_that_hangs_up_mid_round_ends_the_fold_naming_it():
    server_error = fold_with_a_rogue(lambda rogue, rfile, blob: None)
    assert isinstance(server_error, ProtocolError)
    assert str(server_error) == \
        "client rogue dropped during the ROUND_CONFIG exchange: connection lost"


def tensor_head(name, shape):
    return W._pack_text(name) + struct.pack(f"<B{len(shape)}I", len(shape), *shape)


FIRST_NAME, FIRST_SHAPE = parameter_shapes(MC)[0]


@pytest.mark.parametrize("name, shape, reason", [
    pytest.param(FIRST_NAME[:-1] + "x", FIRST_SHAPE, "expected tensor", id="wrong-name"),
    # the same byte size, so only the shape check can tell
    pytest.param(FIRST_NAME, FIRST_SHAPE[::-1], "has shape", id="transposed-shape"),
])
def test_a_fit_result_the_model_cannot_take_is_refused_naming_its_sender(name, shape, reason):
    assert FIRST_SHAPE[::-1] != FIRST_SHAPE

    def send_bad_fit(rogue, rfile, blob):
        head = tensor_head(FIRST_NAME, FIRST_SHAPE)
        assert blob.startswith(head)
        bad = tensor_head(name, shape) + blob[len(head):]
        rogue.sendall(W.frame_encode(W.MSG_FIT_RESULT,
                                     *W._blob_message(struct.pack("<d", 0.0), [bad])))
        msg_type, payload = W.read_frame(rfile)
        assert msg_type == W.MSG_ERROR
        code, message = W.decode_error(payload)
        assert code == "bad_message"
        assert message.startswith("FIT_RESULT: ") and reason in message

    server_error = fold_with_a_rogue(send_bad_fit)
    assert isinstance(server_error, ProtocolError)
    assert str(server_error).startswith(
        "client rogue dropped during the ROUND_CONFIG exchange: bad_message: FIT_RESULT: ")


def test_duplicate_hello_leaves_the_registered_client_in_place():
    clients = synthetic_clients(2)
    (first, first_w), (second, second_w) = sorted(clients.items())
    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    port = free_port()
    ready = threading.Event()
    events, box = [], {}

    def serve():
        box["result"] = W.server_loop("127.0.0.1", port, init_model(MC), cfg,
                                      expected_clients=2, accept_timeout=30.0,
                                      audit=events.append, ready_event=ready)

    server = threading.Thread(target=serve)
    server.start()
    assert ready.wait(10.0)
    workers = [threading.Thread(target=W.client_loop,
                                args=("127.0.0.1", port, first, MC, *first_w))]
    workers[0].start()
    deadline = time.monotonic() + 10.0
    while not any(e["event"] == "hello" for e in events):
        assert time.monotonic() < deadline
        time.sleep(0.01)

    # a rogue peer claims the registered client's id
    with rogue_peer(port) as (rogue, rfile):
        rogue.sendall(W.frame_encode(W.MSG_HELLO, W.encode_hello(first, 1)))
        msg_type, payload = W.read_frame(rfile)
        assert msg_type == W.MSG_ERROR
        assert W.decode_error(payload)[0] == "duplicate_id"

    workers.append(threading.Thread(target=W.client_loop,
                                    args=("127.0.0.1", port, second, MC, *second_w)))
    workers[1].start()
    server.join(60.0)
    for t in workers:
        t.join(10.0)
    assert not server.is_alive()
    final = box["result"].final_report
    assert sorted(c.subject_id for c in final.clients) == [first, second]


def test_client_without_training_windows_is_only_asked_to_evaluate():
    (cid, windows), = synthetic_clients(1).items()
    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    events = []
    port, server, box = serve_one_client(cfg, audit=events.append, expected_clients=2)
    worker = threading.Thread(target=W.client_loop,
                              args=("127.0.0.1", port, cid, MC, *windows))
    worker.start()
    with rogue_peer(port) as (rogue, rfile):
        answer_base_eval(rogue, rfile, "z", 0)
        assert W.read_frame(rfile)[0] == W.MSG_EVAL_REQUEST  # no ROUND_CONFIG
        rogue.sendall(W.frame_encode(W.MSG_EVAL_RESULT, HONEST_EVAL))
        assert W.read_frame(rfile)[0] == W.MSG_DONE
    server.join(60.0)
    worker.join(10.0)
    assert not server.is_alive() and not worker.is_alive()
    assert "error" not in box
    assert sorted(c.subject_id for c in box["result"].final_report.clients) == sorted([cid, "z"])
    assert [(e["event"], e.get("client_id")) for e in events if e["event"] != "hello"] == [
        ("eval_result", cid), ("eval_result", "z"),  # the base eval
        ("broadcast", None), ("skip", "z"), ("fit_result", cid), ("aggregate", None),
        ("eval_result", cid), ("eval_result", "z"), ("done", cid), ("done", "z")]


def test_late_hello_is_refused_and_the_fold_completes():
    (cid, windows), = synthetic_clients(1).items()
    cfg = FedConfig(rounds=1, min_available_clients=1, local_epochs=50,
                    batch_size=8, local_lr=1e-2, seed=0)
    threads_before = set(threading.enumerate())
    events = []
    port, server, box = serve_one_client(cfg, audit=events.append)
    # connected before the real client, so accepted while registration is open
    with rogue_peer(port) as (rogue, rfile):
        worker = threading.Thread(target=W.client_loop,
                                  args=("127.0.0.1", port, cid, MC, *windows))
        worker.start()
        deadline = time.monotonic() + 10.0
        while not any(e["event"] == "hello" for e in events):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with contextlib.suppress(OSError):  # the server may have closed it already
            rogue.sendall(W.frame_encode(W.MSG_HELLO, W.encode_hello("late", 1)))
        msg_type, payload = W.read_frame(rfile)
        assert msg_type == W.MSG_ERROR
        assert W.decode_error(payload)[0] == "registration_closed"
    server.join(60.0)
    worker.join(10.0)
    assert not server.is_alive() and not worker.is_alive()
    assert "error" not in box
    assert [c.subject_id for c in box["result"].final_report.clients] == [cid]
    # server_loop leaves no thread behind
    assert [t for t in threading.enumerate() if t not in threads_before] == []


def wait_for_hello(events):
    deadline = time.monotonic() + 10.0
    while not any(e["event"] == "hello" for e in events):
        assert time.monotonic() < deadline
        time.sleep(0.01)


def read_refusal(port, say_hello):
    """Connect after registration; the ERROR must come within 1 s."""
    with rogue_peer(port) as (rogue, rfile):
        rogue.settimeout(1.0)
        if say_hello:
            rogue.sendall(W.frame_encode(W.MSG_HELLO, W.encode_hello("late", 1)))
        msg_type, payload = W.read_frame(rfile)
        assert msg_type == W.MSG_ERROR
        assert W.decode_error(payload)[0] == "registration_closed"


def test_connection_after_registration_is_refused_at_once():
    (cid, windows), = synthetic_clients(1).items()
    cfg = FedConfig(rounds=3, min_available_clients=1, local_epochs=100,
                    batch_size=8, local_lr=1e-2, seed=0)
    threads_before = threading.active_count()
    events = []
    port, server, box = serve_one_client(cfg, audit=events.append)
    worker = threading.Thread(target=W.client_loop,
                              args=("127.0.0.1", port, cid, MC, *windows))
    worker.start()
    wait_for_hello(events)
    read_refusal(port, say_hello=False)
    read_refusal(port, say_hello=True)
    assert server.is_alive()  # refused while the fold runs, not when it ends
    server.join(60.0)
    worker.join(10.0)
    assert not server.is_alive() and not worker.is_alive()
    assert "error" not in box
    assert threading.active_count() == threads_before


def test_server_raising_mid_fold_leaves_no_thread_behind():
    cfg = FedConfig(rounds=1, min_available_clients=1, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0, round_timeout_s=1.0)
    threads_before = threading.active_count()
    port, server, box = serve_one_client(cfg)
    # a rogue peer registers and answers the base eval, then never its ROUND_CONFIG
    with rogue_peer(port) as (rogue, rfile):
        answer_base_eval(rogue, rfile, "rogue", 1)
        assert W.read_frame(rfile)[0] == W.MSG_ROUND_CONFIG
        read_refusal(port, say_hello=True)
        server.join(30.0)
    assert not server.is_alive()
    assert isinstance(box["error"], ProtocolError)
    assert threading.active_count() == threads_before


def test_oversized_frame_before_hello_is_refused_unread():
    (cid, windows), = synthetic_clients(1).items()
    cfg = FedConfig(rounds=1, min_available_clients=1, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    port, server, box = serve_one_client(cfg)
    with rogue_peer(port) as (rogue, rfile):
        # a 1 GiB declaration with no body: the server must answer unread
        rogue.sendall(struct.pack("<I", W.MAX_FRAME_LEN))
        msg_type, payload = W.read_frame(rfile)
        assert msg_type == W.MSG_ERROR
        code, message = W.decode_error(payload)
        assert code == "bad_message" and "exceeds" in message
        assert rfile.read() == b""  # and the connection is dropped
    # the fold goes on with a real client
    W.client_loop("127.0.0.1", port, cid, MC, *windows)
    server.join(30.0)
    assert not server.is_alive()
    assert "error" not in box


def test_fit_result_longer_than_its_exact_size_is_refused():
    cfg = FedConfig(rounds=1, min_available_clients=1, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    port, server, box = serve_one_client(cfg)
    with rogue_peer(port) as (rogue, rfile):
        answer_base_eval(rogue, rfile, "rogue", 1)
        assert W.read_frame(rfile)[0] == W.MSG_ROUND_CONFIG
        rogue.sendall(struct.pack("<I", W._frame_caps(MC)[W.MSG_FIT_RESULT] + 1))
        msg_type, payload = W.read_frame(rfile)
        assert msg_type == W.MSG_ERROR
        assert W.decode_error(payload)[0] == "bad_message"
    server.join(30.0)
    assert not server.is_alive()
    assert "dropped" in str(box["error"])


def test_collection_timeout_is_one_window():
    cfg = FedConfig(rounds=1, min_available_clients=1, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0, round_timeout_s=1.0)
    port, server, box = serve_one_client(cfg)
    # a rogue peer answers the base eval, then never its ROUND_CONFIG
    rogue = socket.create_connection(("127.0.0.1", port))
    rogue.settimeout(10.0)
    try:
        rfile = rogue.makefile("rb")
        answer_base_eval(rogue, rfile, "rogue", 1)
        assert W.read_frame(rfile)[0] == W.MSG_ROUND_CONFIG
        sent = time.monotonic()
        msg_type, payload = W.read_frame(rfile)
        waited = time.monotonic() - sent
        assert msg_type == W.MSG_ERROR
        code, message = W.decode_error(payload)
        assert code == "aborted"
        assert "timed out" in message
    finally:
        rogue.close()
    assert 0.8 <= waited < 1.8
    server.join(30.0)
    assert not server.is_alive()
    assert isinstance(box["error"], ProtocolError)
    assert "timed out" in str(box["error"])


def fake_server(handler):
    """A listening socket whose one connection ``handler(sock, rfile)`` serves
    from a thread; returns (port, thread)."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve():
        with listener:
            sock, _addr = listener.accept()
        with sock, sock.makefile("rb") as rfile:
            handler(sock, rfile)

    thread = threading.Thread(target=serve)
    thread.start()
    return port, thread


def round_config(weights, local_lr=1e-2):
    return W.frame_encode(W.MSG_ROUND_CONFIG, *W._blob_message(
        W._ROUND_HEAD.pack(1, 0, 0, 1, 8, local_lr),
        [] if weights is None else W._blob_parts(weights)))


def eval_request(weights):
    return W.frame_encode(W.MSG_EVAL_REQUEST, *W._blob_message(b"", W._blob_parts(weights)))


@pytest.mark.parametrize("evaluated, weights, local_lr, error, match", [
    pytest.param(False, None, 1e-2, ProtocolError, "no EVAL_REQUEST's weights are held",
                 id="weightless-first"),
    # round 1 of a server that sent the weights there and evaluated no base
    pytest.param(False, init_model(MC), 1e-2, ProtocolError, "carries weights",
                 id="weights-first"),
    pytest.param(True, init_model(MC), 1e-2, ProtocolError, "carries weights",
                 id="weights-after-eval"),
    pytest.param(True, None, float("nan"), ConfigError, "local_lr", id="lr-nan"),
    pytest.param(True, None, float("inf"), ConfigError, "local_lr", id="lr-inf"),
])
def test_client_refuses_a_round_config_it_cannot_train_from(evaluated, weights, local_lr,
                                                            error, match):
    """The client answers the frame with ERROR bad_message and its reason, then
    hangs up and raises."""
    (cid, windows), = synthetic_clients(1).items()
    replies = []

    def handler(sock, rfile):
        assert W.read_frame(rfile)[0] == W.MSG_HELLO
        if evaluated:
            sock.sendall(eval_request(init_model(MC)))
            assert W.read_frame(rfile)[0] == W.MSG_EVAL_RESULT
        sock.sendall(round_config(weights, local_lr))
        sock.settimeout(10.0)  # a client that trains answers, then waits for us
        with contextlib.suppress(TimeoutError):
            replies.append(W.read_frame(rfile))
            rfile.read()  # until the client hangs up

    port, server = fake_server(handler)
    with pytest.raises(error, match=match):
        W.client_loop("127.0.0.1", port, cid, MC, *windows)
    server.join(10.0)
    assert not server.is_alive()
    (msg_type, payload), = replies
    assert msg_type == W.MSG_ERROR
    code, reason = W.decode_error(payload)
    assert code == "bad_message"
    assert re.match(f"ROUND_CONFIG: .*{match}", reason)


@pytest.mark.parametrize("frame, error, what", [
    # a narrower model's weights: the frame fits the cap, its shapes do not
    pytest.param(eval_request(init_model(dataclasses.replace(MC, hidden_size=4))),
                 ShapeError, "EVAL_REQUEST", id="another-models-weights"),
    pytest.param(W.frame_encode(W.MSG_HELLO, W.encode_hello("server", 1)),
                 ProtocolError, "HELLO", id="out-of-protocol"),
])
def test_client_tells_the_server_why_it_refuses_a_frame(frame, error, what):
    (cid, windows), = synthetic_clients(1).items()
    replies = []

    def handler(sock, rfile):
        assert W.read_frame(rfile)[0] == W.MSG_HELLO
        sock.sendall(frame)
        replies.append(W.read_frame(rfile))
        assert not rfile.read()  # then the client hangs up

    port, server = fake_server(handler)
    with pytest.raises(error) as err:
        W.client_loop("127.0.0.1", port, cid, MC, *windows)
    server.join(10.0)
    assert not server.is_alive()
    (msg_type, payload), = replies
    assert msg_type == W.MSG_ERROR
    assert W.decode_error(payload) == ("bad_message", f"{what}: {err.value}")


def test_a_client_the_server_aborts_releases_its_blas_share():
    (cid, windows), = synthetic_clients(1).items()
    held = []

    def handler(sock, rfile):
        assert W.read_frame(rfile)[0] == W.MSG_HELLO
        held.append(T._blas_share._active)  # the client is connected and waiting
        sock.sendall(W.frame_encode(W.MSG_ERROR, W.encode_error("aborted", "no quorum")))
        assert not rfile.read()  # then the client hangs up

    port, server = fake_server(handler)
    with pytest.raises(ProtocolError, match="server error aborted: no quorum"):
        W.client_loop("127.0.0.1", port, cid, MC, *windows)
    server.join(10.0)
    assert not server.is_alive()
    assert held == [1] and T._blas_share._active == 0


# 14.8 MB weight frames: more than a loopback connection's send buffer plus
# the receive buffer below hold, so no write of one completes unread
BIG = ModelConfig(n_features=6, n_labels=3, transformers_layers=2, hidden_size=384,
                  n_positions=8, seed=0)


def test_a_peer_that_vanishes_mid_send_aborts_the_fold_for_the_others():
    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    threads_before = threading.active_count()
    port = free_port()
    ready = threading.Event()
    events, box = [], {}

    def serve():
        try:
            W.server_loop("127.0.0.1", port, init_model(BIG), cfg, expected_clients=2,
                          accept_timeout=30.0, audit=events.append, ready_event=ready)
        except Exception as exc:
            box["error"] = exc

    server = threading.Thread(target=serve)
    server.start()
    assert ready.wait(10.0)
    with rogue_peer(port) as (survivor, rfile):
        survivor.settimeout(30.0)
        survivor.sendall(W.frame_encode(W.MSG_HELLO, W.encode_hello("b", 1)))
        wait_for_hello(events)
        vanisher = socket.socket()
        vanisher.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
        vanisher.connect(("127.0.0.1", port))
        vanisher.sendall(W.frame_encode(W.MSG_HELLO, W.encode_hello("a", 1)))
        deadline = time.monotonic() + 10.0
        while sum(e["event"] == "hello" for e in events) < 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # a reset, not a FIN: the server's write to "a" fails
        vanisher.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        vanisher.close()
        assert W.read_frame(rfile, W._frame_caps(BIG)[W.MSG_EVAL_REQUEST])[0] == \
            W.MSG_EVAL_REQUEST
        msg_type, payload = W.read_frame(rfile)
        assert msg_type == W.MSG_ERROR
        code, message = W.decode_error(payload)
        assert code == "aborted" and "client a" in message
    server.join(30.0)
    assert not server.is_alive()
    assert isinstance(box["error"], ProtocolError)
    assert "sending to client a failed" in str(box["error"])
    assert threading.active_count() == threads_before


def test_a_peer_that_stops_reading_fails_the_send_after_the_round_timeout():
    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0, round_timeout_s=1.0)
    events = []
    port, server, box = serve_one_client(cfg, audit=events.append, expected_clients=2,
                                         model=BIG)
    mute = socket.socket()
    try:
        with rogue_peer(port) as (survivor, rfile):
            survivor.settimeout(15.0)
            survivor.sendall(W.frame_encode(W.MSG_HELLO, W.encode_hello("b", 1)))
            wait_for_hello(events)
            # "a" registers and never reads: its buffers fill and the write stalls
            mute.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
            mute.connect(("127.0.0.1", port))
            mute.sendall(W.frame_encode(W.MSG_HELLO, W.encode_hello("a", 1)))
            assert W.read_frame(rfile, W._frame_caps(BIG)[W.MSG_EVAL_REQUEST])[0] == \
                W.MSG_EVAL_REQUEST
            received = time.monotonic()
            msg_type, payload = W.read_frame(rfile)
            assert msg_type == W.MSG_ERROR
            code, message = W.decode_error(payload)
            assert code == "aborted" and "client a" in message
        server.join(15.0)
        # no ERROR is written into the stalled frame, so no second timeout is waited
        assert time.monotonic() - received < 2.0
        assert not server.is_alive()
    finally:
        mute.close()
    assert isinstance(box["error"], ProtocolError)
    assert "sending to client a failed: timed out after 1.0 s" in str(box["error"])


def test_a_peer_that_reads_too_slowly_is_cut_off_at_the_round_timeout():
    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0, round_timeout_s=1.0)
    events = []
    port, server, box = serve_one_client(cfg, audit=events.append, expected_clients=2,
                                         model=BIG)
    stop = threading.Event()
    slow = socket.socket()
    slow.settimeout(1.0)

    def trickle():  # 64 KiB every 0.2 s: steady progress, far too slow for 14.8 MB
        with contextlib.suppress(OSError):
            while not stop.wait(0.2) and slow.recv(1 << 16):
                pass

    reader = threading.Thread(target=trickle)
    try:
        with rogue_peer(port) as (survivor, rfile):
            survivor.settimeout(20.0)
            survivor.sendall(W.frame_encode(W.MSG_HELLO, W.encode_hello("b", 1)))
            wait_for_hello(events)
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
            slow.connect(("127.0.0.1", port))
            slow.sendall(W.frame_encode(W.MSG_HELLO, W.encode_hello("a", 1)))
            reader.start()
            assert W.read_frame(rfile, W._frame_caps(BIG)[W.MSG_EVAL_REQUEST])[0] == \
                W.MSG_EVAL_REQUEST
            msg_type, payload = W.read_frame(rfile)
            assert msg_type == W.MSG_ERROR
            code, message = W.decode_error(payload)
            assert code == "aborted" and "client a" in message
        server.join(15.0)
        assert not server.is_alive()
    finally:
        stop.set()
        if reader.ident is not None:
            reader.join(10.0)
            assert not reader.is_alive()
        slow.close()
    assert isinstance(box["error"], ProtocolError)
    assert "sending to client a failed: timed out after 1.0 s" in str(box["error"])


def test_server_loop_starts_no_thread():
    clients = synthetic_clients(2)
    cfg = FedConfig(rounds=1, min_available_clients=2, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    port = free_port()
    ready = threading.Event()
    counts, box = [], {}

    def serve():
        box["result"] = W.server_loop(
            "127.0.0.1", port, init_model(MC), cfg, expected_clients=2, accept_timeout=30.0,
            audit=lambda event: counts.append(threading.active_count()), ready_event=ready)

    threads_before = threading.active_count()
    server = threading.Thread(target=serve)
    server.start()
    assert ready.wait(10.0)
    workers = [threading.Thread(target=W.client_loop, args=("127.0.0.1", port, cid, MC, *w))
               for cid, w in clients.items()]
    for t in workers:
        t.start()
    for t in [server] + workers:
        t.join(60.0)
        assert not t.is_alive()
    assert "result" in box and counts
    # the server's thread and the clients' own, sampled at every audit event
    assert max(counts) <= threads_before + 1 + len(workers)


def test_client_send_to_a_vanished_server_is_a_protocol_error():
    (cid, windows), = synthetic_clients(1).items()

    def handler(sock, rfile):
        # hand out the weights and one round, then hang up before the FIT_RESULT
        assert W.read_frame(rfile)[0] == W.MSG_HELLO
        sock.sendall(eval_request(init_model(BIG)))
        assert W.read_frame(rfile)[0] == W.MSG_EVAL_RESULT
        sock.sendall(round_config(None))

    port, server = fake_server(handler)
    with pytest.raises(ProtocolError, match="lost the server"):
        W.client_loop("127.0.0.1", port, cid, BIG, *windows)
    server.join(10.0)
    assert not server.is_alive()
