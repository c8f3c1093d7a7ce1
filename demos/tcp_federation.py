"""The same federation over real sockets, and proof it changes nothing."""

import socket
import threading

import fedhar.data as D
from fedhar.fedavg import FedConfig, run_fold
from fedhar.model import ModelConfig, init_model
from fedhar.wire import client_loop, server_loop

spec = D.SyntheticSpec(n_subjects=4, minutes_per_subject=120, n_features=8,
                       n_labels=3, alpha=0.4, noise_std=0.4, seed=2)
records = D.gen_synthetic(spec)
st = D.fit_standardizer(records)
cfg = ModelConfig(n_features=8, n_labels=3, transformers_layers=1,
                  hidden_size=16, n_positions=16, dropout=0.1, seed=0)

clients = {}
for rec in records:
    ws = D.make_windows(D.apply_standardizer(rec, st), cfg.n_positions)
    clients[rec.subject_id] = D.split_train_test(ws, 0.8, seed=0)

fed = FedConfig(rounds=3, min_available_clients=4, local_epochs=5,
                batch_size=8, local_lr=1e-3, seed=0)
base = init_model(cfg)

with socket.socket() as probe:
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]

ready = threading.Event()
box = {}

def serve():
    box["result"] = server_loop("127.0.0.1", port, base, fed,
                                expected_clients=4, accept_timeout=30.0,
                                ready_event=ready)

server = threading.Thread(target=serve)
server.start()
ready.wait(10.0)
print("server listening on 127.0.0.1:%d, starting 4 clients" % port)

workers = []
for cid, (tr, te) in clients.items():
    t = threading.Thread(target=client_loop,
                         args=("127.0.0.1", port, cid, cfg, tr, te))
    t.start()
    workers.append(t)
server.join()
for t in workers:
    t.join()

tcp = box["result"]
print("tcp base: mean BA %.4f" % tcp.base_report.summary["mean"])
for i, rep in enumerate(tcp.round_reports, start=1):
    print("tcp round %d: mean BA %.4f" % (i, rep.summary["mean"]))

sim = run_fold(0, clients, base, fed)
print("tcp == simulation, bitwise:",
      tcp.final_weights.equals_bitwise(sim.final_weights))
