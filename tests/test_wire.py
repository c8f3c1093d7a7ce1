"""Wire format: framing, weight blobs, checkpoints, and the TCP loop."""

import io
import json
import os
import socket
import struct
import threading
import zlib

import numpy as np
import pytest

import fedhar.data as D
import fedhar.wire as W
from fedhar.errors import (AvailabilityError, DecodeError, ProtocolError,
                           ShapeError)
from fedhar.fedavg import FedConfig, run_fold
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


# ----------------------------------------------------------- weight blobs

def test_weight_blob_golden_bytes_single_tensor():
    ws = WeightSet(MC)
    ws.tensors["b"] = Tensor(np.array([1.0, -1.0], dtype=np.float32))
    got = W.encode_weights(ws)
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
        back = W.decode_weights(W.encode_weights(ws), cfg)
        assert back.equals_bitwise(ws)


def test_weight_blob_preserves_nonfinite_floats():
    ws = WeightSet(MC)
    ws.tensors["b"] = Tensor(np.array([np.inf, -np.inf, np.nan], dtype=np.float32))
    blob = W.encode_weights(ws)
    # the last 12 bytes are the three raw floats
    vals = np.frombuffer(blob[-12:], dtype="<f4")
    assert vals[0] == np.inf and vals[1] == -np.inf and np.isnan(vals[2])


def test_decode_weights_enforces_name_order_and_shape():
    ws = random_weights(MC, seed=0)
    blob = W.encode_weights(ws)
    with pytest.raises(DecodeError, match="expected tensor"):
        W.decode_weights(b"\x01\x00z" + blob[3:], MC)
    small = ModelConfig(n_features=6, n_labels=3, transformers_layers=1,
                        hidden_size=4, n_positions=8, seed=0)
    with pytest.raises(ShapeError, match="config requires"):
        W.decode_weights(blob, small)


def test_decode_weights_rejects_truncation_with_offset():
    blob = W.encode_weights(random_weights(MC, seed=0))
    with pytest.raises(DecodeError, match="byte offset") as err:
        W.decode_weights(blob[:-5], MC)
    assert err.value.offset is not None


def test_decode_weights_rejects_trailing_bytes():
    blob = W.encode_weights(random_weights(MC, seed=0))
    with pytest.raises(DecodeError, match="trailing"):
        W.decode_weights(blob + b"\x00", MC)


# ----------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path):
    ws = random_weights(MC, seed=3)
    path = str(tmp_path / "model.ckpt")
    W.save_checkpoint(path, ws)
    back = W.load_checkpoint(path)
    assert back.equals_bitwise(ws)
    assert back.config.to_dict() == MC.to_dict()


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
    raw = bytearray(open(path, "rb").read())
    raw[4:6] = struct.pack("<H", 99)
    open(path, "wb").write(bytes(raw))
    with pytest.raises(DecodeError, match="version 99"):
        W.load_checkpoint(path)


def test_checkpoint_detects_corrupted_weights(tmp_path):
    ws = random_weights(MC, seed=3)
    path = str(tmp_path / "model.ckpt")
    W.save_checkpoint(path, ws)
    raw = bytearray(open(path, "rb").read())
    raw[-6] ^= 0xFF  # inside the weight bytes, before the trailing CRC
    open(path, "wb").write(bytes(raw))
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
    assert json.load(open(report)) == {"fold": 0}
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
    packed = W._pack_blob(blob)
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
    blob = W.encode_weights(random_weights(MC, seed=5))
    payload = W.encode_round_config(3, 1, 12345, 20, 64, 2.5e-4, blob)
    r, f, s, ep, bs, lr, back = W.decode_round_config(payload)
    assert (r, f, s, ep, bs) == (3, 1, 12345, 20, 64)
    assert lr == 2.5e-4
    assert back == blob


def test_fit_result_round_trip_with_and_without_blob():
    blob = W.encode_weights(random_weights(MC, seed=6))
    payload = W.encode_fit_result("c1", 17, 0.6931, blob)
    assert W.decode_fit_result(payload) == ("c1", 17, 0.6931, blob)
    payload = W.encode_fit_result("c1", 0, 0.0, None)
    assert W.decode_fit_result(payload) == ("c1", 0, 0.0, None)


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
    sim_result = run_fold(0, clients, base, cfg, eval_base=False)
    assert tcp_result.final_weights.equals_bitwise(sim_result.final_weights)
    assert len(tcp_result.round_reports) == 2
    for tcp_rep, sim_rep in zip(tcp_result.round_reports, sim_result.round_reports):
        assert tcp_rep.summary == sim_rep.summary


def test_tcp_audit_trail_matches_simulation_event_for_event():
    clients = synthetic_clients(3)
    empty = sorted(clients)[1]
    clients[empty] = ([], clients[empty][1])  # no training windows, still evaluated
    cfg = FedConfig(rounds=2, min_available_clients=3, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    tcp_events, sim_events = [], []
    tcp_result, base = run_tcp_federation(clients, cfg, audit=tcp_events.append)
    sim_result = run_fold(0, clients, base, cfg, audit=sim_events.append, eval_base=False)

    def rounds_only(events):
        return [{k: v for k, v in e.items() if k != "ts"} for e in events
                if e["event"] not in ("hello", "done")]

    assert rounds_only(tcp_events) == rounds_only(sim_events)
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
    assert kinds.count("eval_result") == 6
    assert kinds.count("done") == 3


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


@pytest.mark.parametrize("report", [
    b"{}",
    b'{"subject_id": "rogue", "mean_ba": "high", "defined_labels": 1}',
    b"[0.5]",
    b"\xff not json",
])
def test_server_rejects_malformed_eval_result(report):
    cfg = FedConfig(rounds=1, min_available_clients=1, local_epochs=1,
                    batch_size=8, local_lr=1e-2, seed=0)
    port = free_port()
    ready = threading.Event()
    box = {}

    def serve():
        try:
            W.server_loop("127.0.0.1", port, init_model(MC), cfg, expected_clients=1,
                          accept_timeout=30.0, ready_event=ready)
        except Exception as exc:
            box["error"] = exc

    server = threading.Thread(target=serve)
    server.start()
    assert ready.wait(10.0)
    # a rogue peer fits honestly (echoing the weights back), then lies in eval
    rogue = socket.create_connection(("127.0.0.1", port))
    try:
        rfile = rogue.makefile("rb")
        rogue.sendall(W.frame_encode(W.MSG_HELLO, W.encode_hello("rogue", 1)))
        msg_type, payload = W.read_frame(rfile)
        assert msg_type == W.MSG_ROUND_CONFIG
        blob = W.decode_round_config(payload)[-1]
        rogue.sendall(W.frame_encode(W.MSG_FIT_RESULT,
                                     W.encode_fit_result("rogue", 1, 0.0, blob)))
        assert W.read_frame(rfile)[0] == W.MSG_EVAL_REQUEST
        rogue.sendall(W.frame_encode(W.MSG_EVAL_RESULT, report))
        msg_type, payload = W.read_frame(rfile)
        assert msg_type == W.MSG_ERROR
        assert "EVAL_RESULT" in W.decode_error(payload)[1]
    finally:
        rogue.close()
    server.join(30.0)
    assert not server.is_alive()
    assert isinstance(box["error"], ProtocolError)
    assert "rogue" in str(box["error"])
