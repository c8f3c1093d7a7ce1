"""Every wire decoder under seeded mutations, in a memory-limited subprocess.

A peer or a file may hold any bytes. Each decoder must then return or raise
a ``FedharError``, quickly: never another exception, and never a blow-up.
The decoding runs in a child process whose address space is capped
(``RLIMIT_AS``), so an input that makes a decoder allocate without bound
fails the test with a ``MemoryError`` instead of taking the host's memory.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the child's address-space cap and the longest one decode may take
LIMIT_BYTES = 1 << 30
CASE_SECONDS = 1.0

_PRELUDE = r"""
import json, resource, signal, struct, sys, time
import numpy as np
import fedhar.wire as W
from fedhar.errors import FedharError
from fedhar.model import ModelConfig, init_model

_soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[2]), hard))
CASE_SECONDS = float(sys.argv[3])


class Slow(BaseException):
    pass


def on_alarm(*_):
    raise Slow()


signal.signal(signal.SIGALRM, on_alarm)


def outcome(decode, data):
    # "ok", the FedharError subclass raised, or "FAIL ..." for anything else
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        decode(data)
        result = "ok"
    except FedharError as exc:
        result = type(exc).__name__
    except Slow:
        result = f"FAIL: over {CASE_SECONDS} s"
    except Exception as exc:
        result = f"FAIL: {type(exc).__name__}: {str(exc)[:200]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    return result, time.perf_counter() - t0


def load_bytes(path):
    def load(data):
        with open(path, "wb") as fh:
            fh.write(data)
        return W.load_checkpoint(path)
    return load


CONFIG = ModelConfig(n_features=3, n_labels=2, transformers_layers=1, hidden_size=8,
                     n_positions=4, dropout=0.1, seed=5)
WEIGHTS = init_model(CONFIG)
CKPT = sys.argv[1]
W.save_checkpoint(CKPT, WEIGHTS)
with open(CKPT, "rb") as fh:
    CKPT_BYTES = fh.read()
"""

# a checkpoint whose config block claims each layer count in argv[4:]
LAYER_COUNTS = _PRELUDE + r"""
field = W._pack_text("transformers_layers") + b"\x00"  # name, then the i64 tag
at = CKPT_BYTES.index(field) + len(field)
print(json.dumps([
    outcome(load_bytes(CKPT), CKPT_BYTES[:at] + struct.pack("<q", int(n)) + CKPT_BYTES[at + 8:])
    for n in sys.argv[4:]]))
"""

FUZZ = _PRELUDE + r"""
from fedhar.metrics import ClientReport, ConfusionCounts

blob = W._blob_parts(WEIGHTS)
report = ClientReport.from_counts("c", [ConfusionCounts(3, 4, 1, 2), ConfusionCounts(0, 9, 0, 1)],
                                  ["walking", "sitting"])
TARGETS = {
    "HELLO": (W.encode_hello("client-7", 42), W.decode_hello),
    "ROUND_CONFIG": (b"".join(W._blob_message(
        W._ROUND_HEAD.pack(2, 1, 2 ** 63 + 5, 3, 8, 1e-3), [])), W.decode_round_config),
    # the server's FIT_RESULT and the client's EVAL_REQUEST paths
    "FIT_RESULT": (b"".join(W._blob_message(struct.pack("<d", 0.5), blob)),
                   lambda p: W.decode_weights(W.decode_fit_result(p)[1], CONFIG)),
    "EVAL_REQUEST": (b"".join(W._blob_message(b"", blob)),
                     lambda p: W.decode_weights(W._decode_blob_message(p, "<")[0], CONFIG)),
    "EVAL_RESULT": (W.encode_eval_result(report), lambda p: W.decode_eval_result(p, "c")),
    "ERROR": (W.encode_error("bad_message", "HELLO: need 2 bytes"), W.decode_error),
    "weight blob": (b"".join(blob), lambda p: W.decode_weights(p, CONFIG)),
    "checkpoint": (CKPT_BYTES, load_bytes(CKPT)),
}
EXTREMES = {"<H": (0, 1, 0x7FFF, 0x8000, 0xFFFF),
            "<I": (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)}


def mutate(rng, data):
    data = bytearray(data)
    kind = rng.integers(4)
    if kind == 0:  # flip one to three bytes
        for _ in range(rng.integers(1, 4)):
            data[rng.integers(len(data))] ^= int(rng.integers(1, 256))
    elif kind == 1:  # truncate
        del data[rng.integers(len(data)):]
    elif kind == 2:  # insert one to eight random bytes
        at = rng.integers(len(data) + 1)
        data[at:at] = rng.bytes(int(rng.integers(1, 9)))
    else:  # an extreme u16 or u32 written over any offset
        fmt = ("<H", "<I")[rng.integers(2)]
        value = struct.pack(fmt, EXTREMES[fmt][rng.integers(len(EXTREMES[fmt]))])
        at = rng.integers(max(1, len(data) - len(value) + 1))
        data[at:at + len(value)] = value
    return bytes(data)


rng = np.random.default_rng(int(sys.argv[4]))
cases = int(sys.argv[5])
out = {}
for name, (valid, decode) in TARGETS.items():
    seen, slowest = {}, 0.0
    for _ in range(cases):
        result, seconds = outcome(decode, mutate(rng, valid))
        seen[result] = seen.get(result, 0) + 1
        slowest = max(slowest, seconds)
    out[name] = {"valid": outcome(decode, valid)[0], "outcomes": seen, "slowest_s": slowest}
print(json.dumps(out))
"""


def run_child(script, tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "fuzz.ckpt"), str(LIMIT_BYTES),
         str(CASE_SECONDS), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_checkpoint_claiming_huge_layer_counts_fails_fast_in_bounded_memory(tmp_path):
    """The config block's layer count is not trusted: decoding stops at the
    first tensor the blob lacks, before any per-layer list is built."""
    counts = (10 ** 6, 10 ** 9, 10 ** 12)
    results = run_child(LAYER_COUNTS, tmp_path, *counts)
    for n, (result, seconds) in zip(counts, results):
        assert result == "DecodeError", (n, result)
        assert seconds < 1.0, (n, seconds)


def test_every_decoder_survives_seeded_mutations(tmp_path):
    cases = 1000
    report = run_child(FUZZ, tmp_path, 20261021, cases)
    assert len(report) == 8
    for name, got in report.items():
        outcomes = got["outcomes"]
        failures = {k: v for k, v in outcomes.items() if k.startswith("FAIL")}
        assert not failures, (name, failures)
        assert sum(outcomes.values()) == cases, name
        # the unmutated input decodes, and the mutations reach the error paths
        assert got["valid"] == "ok", (name, got["valid"])
        assert set(outcomes) - {"ok"}, (name, outcomes)
        assert got["slowest_s"] < CASE_SECONDS, (name, got["slowest_s"])
