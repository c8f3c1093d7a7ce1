"""Self-test of the benchmark at toy sizes: python3 -m pytest -q bench/test_bench.py"""

import collections
import json
import os
import shutil
import sys
import threading

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
from layers import AuditTap  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import QUALITY_CHECKS, WORKLOADS  # noqa: E402

TOY = {
    "desk": dict(subjects=10, minutes=64, features=4, labels=2, alpha=1.0, layers=1,
                 hidden=8, n_positions=8, epochs=2, batch_size=8, rounds=2, local_epochs=1),
    "full": dict(subjects=2, minutes=80, features=6, labels=3, alpha=1.0, layers=1,
                 hidden=8, n_positions=8, epochs=2, batch_size=4),
    "tcp": dict(clients=2, minutes=80, features=6, labels=3, alpha=1.0, layers=1,
                hidden=8, n_positions=8, rounds=2, batch_size=4),
}

# Public functions no workload reaches: the commands and helpers the
# benchmark does not run, and library code without a caller in the package.
NOT_REACHED = {
    "cli.cmd_search", "cli.cmd_fed_server", "cli.cmd_fed_client", "cli.cmd_evaluate",
    "training.random_search", "data.carve_validation",
    "metrics.accumulate_confusion", "metrics.confusion_from_arrays",
    "tensor.relu", "tensor.sub", "tensor.mul",
    "wire.decode_error", "wire.encode_error",
}


@pytest.fixture(scope="module")
def results():
    os.makedirs(run.OUT, exist_ok=True)
    out = {}
    for name, params in TOY.items():
        for trace in (0, 1):
            path = os.path.join(run.OUT, f"selftest-trace-{name}.json")
            out[name, trace] = (run.run_benchmark(name, 3, 0.0, bool(trace), params, path), path)
    return out


def test_every_declared_metric_is_reported_with_its_unit(results):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for (name, trace), (result, _) in results.items():
        want = declared["per_layer" if trace else "end_to_end"]
        line = run.final_line(result)
        assert {m["name"]: m["unit"] for m in want} == \
            {k: v["unit"] for k, v in line["metrics"].items()}, (name, trace)
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())
        assert line["attempted"] >= 1 and isinstance(line["failed"], int)
        json.dumps(line)


def test_checks_pass_apart_from_model_quality(results):
    for (name, trace), (result, _) in results.items():
        assert not result["errors"], (name, trace, result["errors"])
        failed = {c["name"] for c in result["checks"] if not c["ok"]}
        assert failed <= QUALITY_CHECKS, (name, trace, failed)
        names = {c["name"] for c in result["checks"]}
        assert f"{name}.deterministic" in names
        if trace:
            assert "trace.bitwise_equal" in names
    assert any(c["name"] == "tcp.matches_simulation" and c["ok"]
               for c in results["tcp", 0][0]["checks"])


def test_spans_nest_and_self_time_is_not_negative(results):
    for (name, trace), (_, path) in results.items():
        if not trace:
            continue
        with open(path, encoding="utf-8") as fh:
            events = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
        assert events, name
        by_id = {e["args"]["span"]: e for e in events}
        covered = collections.defaultdict(float)
        children = collections.Counter()
        for e in events:
            parent = e["args"]["parent"]
            if not parent:
                continue
            p = by_id[parent]
            assert p["tid"] == e["tid"], (name, e["name"])
            # timestamps and durations are rounded to the nanosecond
            assert p["ts"] - 1e-3 <= e["ts"], (name, e["name"], p["name"])
            assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 2e-3, (name, e["name"])
            covered[parent] += e["dur"]
            children[parent] += 1
        for sid, dur in covered.items():
            assert by_id[sid]["dur"] - dur >= -1e-3 * (children[sid] + 1), \
                (name, by_id[sid]["name"])


def test_every_wrapped_function_is_called(results):
    counts = {}
    for (name, trace), (result, _) in results.items():
        for fn, n in result.get("span_counts", {}).items():
            counts[fn] = counts.get(fn, 0) + n
    assert counts
    expected_idle = NOT_REACHED - {""}
    assert expected_idle <= set(counts), expected_idle - set(counts)
    never = {fn for fn, n in counts.items() if n == 0}
    assert never == expected_idle, (never - expected_idle, expected_idle - never)


@pytest.mark.parametrize("name", sorted(TOY))
def test_tracer_records_every_call_through_every_binding(name):
    """A call that bypasses the wrappers (say, through a by-name import the
    tracer did not patch) runs the original function without a span."""
    workdir = os.path.join(run.OUT, f"selftest-{name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = WORKLOADS[name](5, workdir, TOY[name])
    workload.prepare()
    tracer = Tracer().install()
    codes = {fn.__code__: n for n, fn in tracer.originals.items()}
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    before = set(threading.enumerate())
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        workload.iteration(0, AuditTap())
        # the server's per-connection reader threads end once sockets close
        for t in set(threading.enumerate()) - before:
            t.join(10.0)
            assert not t.is_alive()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    spans = collections.Counter(s[1] for s in tracer.spans)
    assert calls, name
    names = tracer.originals
    assert {n: calls[n] for n in names} == {n: spans[n] for n in names}
