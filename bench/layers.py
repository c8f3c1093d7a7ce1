"""Round phases from audit events, and per-layer metrics from spans.

Every ``*_s`` layer metric is seconds per workload iteration unless its
description in README.md says "median per round" or "per federation".
"""

from __future__ import annotations

import statistics
import time

from tracer import self_times

# name -> (unit, better)
LAYER_METRICS = {
    "cli.gen_synthetic_s": ("s", "lower"),
    "cli.make_folds_s": ("s", "lower"),
    "cli.pretrain_s": ("s", "lower"),
    "cli.simulate_s": ("s", "lower"),
    "data.gen_synthetic_s": ("s", "lower"),
    "data.write_csv_rows_per_s": ("rows/s", "higher"),
    "data.standardize_s": ("s", "lower"),
    "data.make_windows_s": ("s", "lower"),
    "data.parse_csv_rows_per_s": ("rows/s", "higher"),
    "data.parse_csv_calls": ("count", "lower"),
    "data.batch_arrays_s": ("s", "lower"),
    "tensor.op_calls_per_step": ("count", "lower"),
    "tensor.matmul.fwd_s": ("s", "lower"),
    "tensor.attention.fwd_s": ("s", "lower"),
    "tensor.gelu.fwd_s": ("s", "lower"),
    "tensor.layer_norm.fwd_s": ("s", "lower"),
    "tensor.softmax_rows.fwd_s": ("s", "lower"),
    "tensor.dropout.fwd_s": ("s", "lower"),
    "tensor.backward_s": ("s", "lower"),
    "tensor.adam_s": ("s", "lower"),
    "model.forward_self_s": ("s", "lower"),
    "model.forward_train_s": ("s", "lower"),
    "model.forward_eval_s": ("s", "lower"),
    "model.loss_s": ("s", "lower"),
    "training.train_self_s": ("s", "lower"),
    "training.evaluate_self_s": ("s", "lower"),
    "training.steps": ("count", "lower"),
    "metrics.report_s": ("s", "lower"),
    "fedavg.client_fit_s": ("s", "lower"),
    "fedavg.client_fits": ("count", "lower"),
    "fedavg.aggregate_s": ("s", "lower"),
    "fedavg.round_s": ("s", "lower"),
    "fedavg.fit_phase_s": ("s", "lower"),
    "fedavg.eval_phase_s": ("s", "lower"),
    "fedavg.straggler_gap_s": ("s", "lower"),
    "wire.encode_weights_mb_per_s": ("MB/s", "higher"),
    "wire.decode_weights_mb_per_s": ("MB/s", "higher"),
    "wire.frame_encode_s": ("s", "lower"),
    "wire.read_frame_s": ("s", "lower"),
    "wire.frames": ("count", "lower"),
    "wire.mb_per_round": ("MB", "lower"),
    "wire.register_s": ("s", "lower"),
    "wire.checkpoint_s": ("s", "lower"),
    "proc.cpu_per_wall": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}

# Graph-building ops: every public tensor function except the backward pass
# and the optimizer.
NOT_OPS = {"tensor.backward", "tensor.adam_step", "tensor.Adam.step"}

MB = 1e6


class AuditTap:
    """Records audit events with perf_counter stamps; labels spans by round."""

    def __init__(self):
        self.events: list[tuple[float, int, dict]] = []
        self.iteration = 0
        self.tracer = None

    def start_iteration(self, i: int) -> None:
        self.iteration = i
        if self.tracer is not None:
            self.tracer.trace_id = f"iter{i}"

    def record(self, event: dict) -> None:
        self.events.append((time.perf_counter(), self.iteration, event))
        if self.tracer is not None and event.get("event") == "broadcast":
            self.tracer.trace_id = f"iter{self.iteration}.round{event['round']}"

    def cli_hook(self, original):
        """A stand-in for cli.append_jsonl that also feeds the tap."""
        def append_jsonl(fh, obj):
            if isinstance(obj, dict) and "event" in obj:
                self.record(obj)
            return original(fh, obj)
        return append_jsonl


def rounds(events, spans=()) -> list[dict]:
    """Per-round phase times from audit events (round >= 1).

    Fit arrivals are the ends of the server's decode_fit_result spans when
    the run was traced over TCP; otherwise the fit_result audit events.
    """
    groups: dict[tuple, dict] = {}
    for t, it, e in events:
        r = e.get("round", 0)
        if r < 1:
            continue
        g = groups.setdefault((it, e.get("fold", 0), r), {"fit": [], "eval": []})
        kind = e.get("event")
        if kind == "broadcast":
            g["broadcast"] = t
        elif kind == "aggregate":
            g["aggregate"] = t
        elif kind == "fit_result":
            g["fit"].append(t)
        elif kind == "eval_result":
            g["eval"].append(t)
    arrivals = sorted(s[3] for s in spans if s[1] == "wire.decode_fit_result")
    out = []
    for key in sorted(groups):
        g = groups[key]
        if "broadcast" not in g or "aggregate" not in g or not g["eval"]:
            continue
        b, a, last_eval = g["broadcast"], g["aggregate"], max(g["eval"])
        fits = [t for t in arrivals if b <= t <= a] or g["fit"]
        out.append({"round_s": last_eval - b, "fit_phase_s": a - b,
                    "eval_phase_s": last_eval - a,
                    "straggler_gap_s": (max(fits) - min(fits)) if fits else 0.0})
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, events, iterations: int, register_s, extra: dict) -> dict:
    """Per-layer metrics of a traced phase; ``extra`` supplies proc/trace values."""
    names = {s[0]: s[1] for s in spans}
    selfs = self_times(spans)
    by: dict[str, list] = {}
    for s in spans:
        by.setdefault(s[1], []).append(s)

    def total(*fns):
        return sum(s[3] - s[2] for f in fns for s in by.get(f, ()))

    def self_total(fn):
        return sum(selfs[s[0]] for s in by.get(fn, ()))

    def per_it(x):
        return x / iterations

    def rate(fn, key, scale=1.0):
        ss = by.get(fn, ())
        dt = sum(s[3] - s[2] for s in ss)
        return sum(s[7][key] for s in ss if s[7]) / scale / dt if dt > 0 else 0.0

    # outermost parse calls: a path argument re-enters with the open stream
    parses = [s for s in by.get("data.parse_extrasensory_csv", ())
              if names.get(s[5]) != "data.parse_extrasensory_csv"]
    parse_dt = sum(s[3] - s[2] for s in parses)
    reports = [s for n, ss in by.items() if n.startswith("metrics.") for s in ss
               if not names.get(s[5], "").startswith("metrics.")]
    inside_train = {}
    for s in sorted(spans):
        inside_train[s[0]] = s[1] == "training.train" or inside_train.get(s[5], False)
    ops_in_train = sum(1 for s in spans if s[1].startswith("tensor.")
                       and s[1] not in NOT_OPS and inside_train[s[0]])
    steps = len(by.get("tensor.Adam.step", ()))
    forwards = by.get("model.forward", ())
    per_round = rounds(events, spans)
    frame_bytes = sum(s[7]["bytes"] for s in by.get("wire.frame_encode", ()) if s[7])

    return {
        "cli.gen_synthetic_s": per_it(total("cli.cmd_gen_synthetic")),
        "cli.make_folds_s": per_it(total("cli.cmd_make_folds")),
        "cli.pretrain_s": per_it(total("cli.cmd_pretrain")),
        "cli.simulate_s": per_it(total("cli.cmd_simulate")),
        "data.gen_synthetic_s": per_it(total("data.gen_synthetic")),
        "data.write_csv_rows_per_s": rate("data.write_subject_csv", "rows"),
        "data.standardize_s": per_it(total("data.fit_standardizer", "data.apply_standardizer")),
        "data.make_windows_s": per_it(total("data.make_windows")),
        "data.parse_csv_rows_per_s": (sum(s[7]["rows"] for s in parses if s[7]) / parse_dt
                                      if parse_dt > 0 else 0.0),
        "data.parse_csv_calls": per_it(len(parses)),
        "data.batch_arrays_s": per_it(total("data.batch_arrays")),
        "tensor.op_calls_per_step": ops_in_train / steps if steps else 0.0,
        "tensor.matmul.fwd_s": per_it(total("tensor.matmul")),
        "tensor.attention.fwd_s": per_it(total("tensor.causal_self_attention")),
        "tensor.gelu.fwd_s": per_it(total("tensor.gelu")),
        "tensor.layer_norm.fwd_s": per_it(total("tensor.layer_norm")),
        "tensor.softmax_rows.fwd_s": per_it(total("tensor.softmax_rows")),
        "tensor.dropout.fwd_s": per_it(total("tensor.dropout")),
        "tensor.backward_s": per_it(total("tensor.backward")),
        "tensor.adam_s": per_it(total("tensor.Adam.step")),
        "model.forward_self_s": per_it(self_total("model.forward")),
        "model.forward_train_s": per_it(sum(s[3] - s[2] for s in forwards
                                            if s[7] and s[7]["train"])),
        "model.forward_eval_s": per_it(sum(s[3] - s[2] for s in forwards
                                           if s[7] and not s[7]["train"])),
        "model.loss_s": per_it(total("model.masked_weighted_loss")),
        "training.train_self_s": per_it(self_total("training.train")),
        "training.evaluate_self_s": per_it(self_total("training.evaluate")),
        "training.steps": per_it(steps),
        "metrics.report_s": per_it(sum(s[3] - s[2] for s in reports)),
        "fedavg.client_fit_s": per_it(total("fedavg.client_fit")),
        "fedavg.client_fits": per_it(len(by.get("fedavg.client_fit", ()))),
        "fedavg.aggregate_s": per_it(total("fedavg.aggregate")),
        "fedavg.round_s": _median([r["round_s"] for r in per_round]),
        "fedavg.fit_phase_s": _median([r["fit_phase_s"] for r in per_round]),
        "fedavg.eval_phase_s": _median([r["eval_phase_s"] for r in per_round]),
        "fedavg.straggler_gap_s": _median([r["straggler_gap_s"] for r in per_round]),
        "wire.encode_weights_mb_per_s": rate("wire.encode_weights", "bytes", MB),
        "wire.decode_weights_mb_per_s": rate("wire.decode_weights", "bytes", MB),
        "wire.frame_encode_s": per_it(total("wire.frame_encode")),
        "wire.read_frame_s": per_it(total("wire.read_frame")),
        "wire.frames": per_it(len(by.get("wire.frame_encode", ()))),
        "wire.mb_per_round": frame_bytes / MB / len(per_round) if per_round else 0.0,
        "wire.register_s": _median(register_s),
        "wire.checkpoint_s": per_it(total("wire.save_checkpoint", "wire.load_checkpoint")),
        **extra,
    }


def register_times(events, ready_at: dict) -> list[float]:
    """Server listening -> last hello, per federation (iteration)."""
    last_hello: dict[int, float] = {}
    for t, it, e in events:
        if e.get("event") == "hello":
            last_hello[it] = max(t, last_hello.get(it, t))
    return [last_hello[it] - ready_at[it] for it in sorted(last_hello) if it in ready_at]
