"""The training bits, pinned: sha256 digests of what training produces.

The other tests check that reruns agree, that the thread count does not
matter and that simulation equals TCP; all of them still pass after a change
that moves every run's bits the same way. These pin the bytes themselves.

GEMM and SIMD kernels differ between hosts, so each digest is keyed by a
platform key built here: numpy's version plus the config string and core
name of the OpenBLAS that numpy bundles. A key that is not in ``DIGESTS``
(another CPU, another numpy, a BLAS other than numpy's OpenBLAS, as on some
CI runners) skips these tests, and the skip reason prints the key and the
digests, so that a row can be added for it. A change that moves the bits on
purpose replaces its host's row and gives the old and new digests.
"""

import ctypes
import glob
import hashlib
import os

import numpy as np
import pytest

import fedhar.data as D
from fedhar.fedavg import FedConfig, run_fold
from fedhar.model import ModelConfig, init_model
from fedhar.training import TrainConfig, train
from fedhar.util import atomic_write_json

# (config, core name) function names: numpy 2.x wheels bundle scipy-openblas,
# numpy 1.2x wheels an OpenBLAS with a 64-bit-integer interface
_OPENBLAS_INFO = (
    ("scipy_openblas_get_config64_", "scipy_openblas_get_corename64_"),
    ("openblas_get_config64_", "openblas_get_corename64_"),
)


def platform_key() -> str:
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for config_name, core_name in _OPENBLAS_INFO:
            config, core = getattr(lib, config_name, None), getattr(lib, core_name, None)
            if config is not None and core is not None:
                config.argtypes = core.argtypes = ()
                config.restype = core.restype = ctypes.c_char_p
                return " | ".join([f"numpy {np.__version__}",
                                   " ".join(config().decode().split()),
                                   core().decode().strip()])
    return f"numpy {np.__version__} | no bundled OpenBLAS"


# platform key -> {output: sha256 hex digest}
DIGESTS = {
    "numpy 2.4.6 | OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
    "SkylakeX MAX_THREADS=64 | SkylakeX": {
        "train": "ead62e77d6de50bd59cb0c2f20d5baa95f0741bb60547b6f0cc0f7d44853fce9",
        "run_fold": "baa8f2f50b5bdbc80731a07423a1216f946bdbdd3fd6b4160a4b75ab6510db46",
    },
}

# desk's model and corpus shape (bench/workloads.py), at a few seconds' size
MC = ModelConfig(n_features=24, n_labels=8, transformers_layers=2, hidden_size=48,
                 n_positions=32, dropout=0.1, seed=7)


def records(n_subjects):
    spec = D.SyntheticSpec(n_subjects=n_subjects, minutes_per_subject=480,
                           n_features=24, n_labels=8, alpha=0.2, noise_std=0.8, seed=7)
    recs = D.gen_synthetic(spec)
    st = D.fit_standardizer(recs)
    return [D.apply_standardizer(r, st) for r in recs]


def hash_weights(weights, h):
    for name, t in weights.items():
        h.update(name.encode())
        h.update(t.data.tobytes())


def check(output, h):
    key = platform_key()
    got = h.hexdigest()
    row = DIGESTS.get(key)
    if row is None:
        pytest.skip(f"no pinned digests for platform {key!r}: {output} = {got}")
    assert got == row[output], f"{output} bits moved on platform {key!r}: {got}"


def test_train_bits_are_pinned():
    ws = D.Windows.concat(D.make_windows(r, MC.n_positions) for r in records(8))
    trained, history = train(init_model(MC), ws,
                             TrainConfig(epochs=4, learning_rate=1e-3, batch_size=64, seed=7))
    h = hashlib.sha256()
    hash_weights(trained, h)
    h.update(np.asarray(history, dtype=np.float64).tobytes())
    check("train", h)


def test_run_fold_bits_are_pinned(tmp_path):
    clients = {r.subject_id: D.split_train_test(D.make_windows(r, MC.n_positions), seed=7)
               for r in records(2)}
    cfg = FedConfig(rounds=2, min_available_clients=2, local_epochs=2, batch_size=64,
                    local_lr=1e-3, seed=7)
    result = run_fold(0, clients, init_model(MC), cfg)
    path = tmp_path / "fold0.json"  # as cli's simulate writes it
    atomic_write_json(str(path), result.to_json_dict())
    h = hashlib.sha256()
    hash_weights(result.final_weights, h)
    h.update(path.read_bytes())
    check("run_fold", h)
