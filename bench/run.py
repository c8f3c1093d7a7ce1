"""fedhar benchmark: one command per workload, end to end or layer by layer.

    python3 bench/run.py --workload desk|full|tcp|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` it alternates untraced and traced iterations, prints the
per-layer metrics and writes a Chrome trace-event file. Either way the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the full result (environment,
workload parameters, sample counts, checks) goes to ``bench/_out/``. The
exit code is 0 only if every check passed. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from layers import LAYER_METRICS, AuditTap, layer_metrics, register_times, rounds
from tracer import Tracer, write_chrome_trace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "_out")

SETUP_REPS = 3

# name -> (unit, better); every workload reports all of them
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "train_samples_per_s": ("windows/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "final_loss": ("loss", "lower"),
}
# Printed with the end-to-end metrics but left out of the last line, which
# must carry the same bounded metrics on every workload (see README.md).
WORKLOAD_METRICS = {
    "eval_samples_per_s": ("windows/s", "higher"),
    "final_mean_ba": ("BA", "higher"),
    "pretrain_s": ("s", "lower"),
    "round_s": ("s", "lower"),
    "wire_mb_per_round": ("MB", "lower"),
    "failed_share": ("ratio", "lower"),
}

# what the untraced run wraps: throughput denominators and wire byte counts
PROBED = ("training.train", "training.evaluate", "wire.frame_encode")


def summarize(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    vals = sorted(values)
    n = len(vals)
    out = {"value": statistics.median(vals), "of": "median", "n": n}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = vals[math.ceil(p / 100 * n) - 1]
            break
    return out


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"seed": seed, "nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(np),
            "git_head": _git_head(), "platform": platform.platform()}


def _blas_threads(np):
    """Thread count of the OpenBLAS numpy wheels ship, or None if not found."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_head():
    """HEAD commit read from .git without running git; None outside a clone."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(ROOT, ".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def import_probe() -> None:
    """Cold-import the package in a fresh interpreter, as every CLI call does."""
    env = {**os.environ, "PYTHONPATH": SRC}
    subprocess.run([sys.executable, "-c", "import fedhar.cli"], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_phase(workload, tracer, tap, seconds: float, first: int, counts: dict):
    """Iterate until ``seconds`` have passed (at least once), tracer installed.

    Returns per-iteration outputs (with their wall time), the wall and CPU
    seconds of the phase, federation ready stamps for register times, and
    the peak RSS once the first iteration is done.
    """
    from fedhar import cli

    tap.tracer = tracer
    outs, ready_at, peak_rss_mb = [], {}, None
    original_append = cli.append_jsonl
    cli.append_jsonl = tap.cli_hook(original_append)
    tracer.install()
    cpu0, start = _cpu_s(), time.perf_counter()
    try:
        i = first
        while not outs or time.perf_counter() - start < seconds:
            tap.start_iteration(i)
            n_spans = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                out = workload.iteration(i, tap)
            except Exception as exc:
                counts["attempted"] += 1
                counts["failed"] += 1
                counts["errors"].append(f"iteration {i}: {exc!r}")
                break
            wall = time.perf_counter() - t0
            if out.get("ready_at") is not None:
                ready_at[i] = out["ready_at"]
            spans = tracer.spans[n_spans:]
            done = workload.finish(out, spans)
            done["wall_s"] = wall
            for fn, key in (("training.train", "train"), ("training.evaluate", "eval")):
                done[f"{key}_calls"] = [(s[7]["samples"], s[3] - s[2])
                                        for s in spans if s[1] == fn and s[7]]
            done["frame_bytes"] = sum(s[7]["bytes"] for s in spans
                                      if s[1] == "wire.frame_encode" and s[7])
            counts["attempted"] += done["ops"]
            outs.append(done)
            if peak_rss_mb is None:
                peak_rss_mb = _peak_rss_mb()
            i += 1
    finally:
        phase_wall, phase_cpu = time.perf_counter() - start, _cpu_s() - cpu0
        tracer.uninstall()
        cli.append_jsonl = original_append
        tap.tracer = None
    return outs, phase_wall, phase_cpu, ready_at, peak_rss_mb


def pooled_rate(calls) -> dict:
    """Work done per second over all calls: sum of samples / sum of seconds."""
    return {"value": sum(n for n, _ in calls) / sum(t for _, t in calls),
            "of": "pooled rate", "n": len(calls)}


def e2e_metrics(name: str, outs, setup, events, peak_rss_mb: float) -> dict:
    """Every end-to-end metric: its value, how it was formed, from how many samples."""
    per_round = [r["round_s"] for r in rounds(events)]
    m = {
        "setup_s": summarize(setup),
        "wall_s": summarize([o["wall_s"] for o in outs]),
        "train_samples_per_s": pooled_rate([c for o in outs for c in o["train_calls"]]),
        "eval_samples_per_s": pooled_rate([c for o in outs for c in o["eval_calls"]]),
        "peak_rss_mb": summarize([peak_rss_mb]),
        "final_loss": summarize([o["final_loss"] for o in outs]),
        "final_mean_ba": summarize([o["final_mean_ba"] for o in outs]),
    }
    if name == "desk":
        m["pretrain_s"] = summarize([o["pretrain_s"] for o in outs])
    if per_round:
        m["round_s"] = summarize(per_round)
    if name == "tcp":
        m["wire_mb_per_round"] = summarize(
            [o["frame_bytes"] / 1e6 / (len(per_round) / len(outs)) for o in outs])
    return m


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  params: dict | None = None, trace_path: str | None = None) -> dict:
    """Run one workload; returns the full result record (see README.md)."""
    from workloads import WORKLOADS

    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    counts = {"attempted": 0, "failed": 0, "errors": []}
    result = {"workload": name, "trace": int(trace), "env": environment(seed)}
    checks = []
    try:
        workload = WORKLOADS[name](seed, workdir, params)
        result["params"] = workload.p
        setup = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            import_probe()
            workload.prepare()
            setup.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(workload.warmups):
            workload.iteration(-1, None)
        result["warmup_s"] = time.perf_counter() - t0
        # peak RSS once the process has run one whole iteration
        warm_rss_mb = _peak_rss_mb() if workload.warmups else None

        probe, tap = Tracer(only=PROBED), AuditTap()
        if not trace:
            outs, wall, cpu, _, peak_rss_mb = run_phase(workload, probe, tap, seconds, 0,
                                                        counts)
        else:
            # Alternate untraced and traced iterations, so both halves see
            # the same machine and the same state of the process.
            tracer, traced_tap = Tracer(), AuditTap()
            outs, t_outs, ready_at, wall, cpu, peak_rss_mb = [], [], {}, 0.0, 0.0, None
            start = time.perf_counter()
            while not counts["failed"] and (
                    not t_outs or time.perf_counter() - start < seconds):
                o, w, c, _, rss = run_phase(workload, probe, tap, 0, 2 * len(outs), counts)
                outs, wall, cpu = outs + o, wall + w, cpu + c
                peak_rss_mb = peak_rss_mb or rss
                if not counts["failed"]:
                    o, _, _, r, _ = run_phase(workload, tracer, traced_tap, 0,
                                              2 * len(t_outs) + 1, counts)
                    t_outs += o
                    ready_at.update(r)
        peak_rss_mb = warm_rss_mb or peak_rss_mb
        checked = list(outs)
        if trace and t_outs and not counts["failed"]:
            overhead = (statistics.median(o["wall_s"] for o in t_outs)
                        / statistics.median(o["wall_s"] for o in outs) - 1)
            result["layers"] = layer_metrics(
                tracer.spans, traced_tap.events, len(t_outs),
                register_times(traced_tap.events, ready_at),
                {"proc.cpu_per_wall": cpu / wall, "trace.overhead_share": overhead})
            result["span_counts"] = {n: sum(1 for s in tracer.spans if s[1] == n)
                                     for n in sorted(tracer.originals)}
            path = trace_path or os.path.join(OUT, f"trace-{name}-seed{seed}.json")
            write_chrome_trace(tracer.spans, path, tracer.spans[0][2])
            result["trace_file"] = os.path.relpath(path, ROOT)
            checks.append(("trace.bitwise_equal",
                           {o["digest"] for o in t_outs} == {o["digest"] for o in outs},
                           "traced and untraced outputs have the same digest"))
            checked += t_outs
        if checked and not counts["failed"]:
            checks = workload.checks(checked, peak_rss_mb) + checks
        result["iterations"] = len(checked)
        if outs:
            result["e2e"] = e2e_metrics(name, outs, setup, tap.events, peak_rss_mb)
    except Exception as exc:
        counts["attempted"] += 1
        counts["failed"] += 1
        counts["errors"].append(f"{exc!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for _, ok, _ in checks:
        counts["attempted"] += 1
        counts["failed"] += 0 if ok else 1
    result["checks"] = [{"name": c, "ok": bool(ok), "detail": d} for c, ok, d in checks]
    result.update(counts)
    result["correct"] = counts["failed"] == 0
    if "e2e" in result:
        result["e2e"]["failed_share"] = summarize([counts["failed"] / counts["attempted"]])
    return result


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def report_lines(result: dict) -> list[str]:
    env = result["env"]
    lines = [f"fedhar bench: workload {result['workload']}  seed {env['seed']}  "
             f"trace {result['trace']}  nproc {env['nproc']}  python {env['python']}  "
             f"numpy {env['numpy']}  blas {env['blas']} x{env['blas_threads']}  "
             f"git {env['git_head']}"]
    units = {**E2E_METRICS, **WORKLOAD_METRICS}
    for name, s in result.get("e2e", {}).items():
        hi = "".join(f"  {k} {_fmt(v)}" for k, v in s.items() if k.startswith("p"))
        lines.append(f"  {name:<22} {_fmt(s['value']):>12} {units[name][0]:<10}"
                     f" ({units[name][1]} is better; {s['of']} of n={s['n']}{hi})")
    for name, v in result.get("layers", {}).items():
        lines.append(f"  {name:<32} {_fmt(v):>12} {LAYER_METRICS[name][0]}")
    for c in result["checks"]:
        lines.append(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    for e in result["errors"]:
        lines.append(f"  error: {e}")
    if "trace_file" in result:
        lines.append(f"  trace written to {result['trace_file']} (open in ui.perfetto.dev)")
    return lines


def final_line(result: dict) -> dict:
    """The last line of the output: end-to-end or per-layer metrics by name."""
    if result["trace"]:
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]}
                   for k, v in result.get("layers", {}).items()}
    else:
        metrics = {k: {"value": result["e2e"][k]["value"], "unit": E2E_METRICS[k][0]}
                   for k in E2E_METRICS if k in result.get("e2e", {})}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "full", "tcp", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fedhar", "__init__.py")):
        print(f"error: no fedhar sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # one fresh process per workload, so each peak_rss_mb is its own
        rc = 0
        for name in ("desk", "full", "tcp"):
            rc = max(rc, subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode)
        return rc
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print("\n".join(report_lines(result)))
    print(json.dumps(final_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
