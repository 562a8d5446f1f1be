"""The benchmark's own tests: seeded inputs, metric names, the traced copy,
the correctness gate, and a seconds-scale smoke of every workload.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import harness
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
GEMMS = [f"kernels.{name}.{suffix}" for name in workloads.GEMM_KERNELS
         for suffix in ("ms", "gflops", "gbps", "roofline_share")]
POOLS = [f"kernels.{name}.ms" for name in workloads.POOL_KERNELS]

#: Per-layer metrics that must read above zero on each workload's traced
#: run; the rest are emitted too, but may be 0 (event counters, layers off
#: the workload's path — see README.md).
ON_PATH = {
    "offline-3task": GEMMS + POOLS + [
        "engine.run_ms_p50", "batcher.queue_wait_ms_p50", "batcher.rows_per_batch",
        "batcher.fill_ratio", "worker.service_ms_p50", "worker.busy_share",
        "planspec.pickle_mb", "setup.build_s", "setup.tune_s", "client.latency_p50_ms",
    ],
    "poisson-3task": GEMMS + POOLS + [
        "engine.run_ms_p50", "engine.mac_reduction", "serving.submit_us_p50",
        "metrics.report_ms", "batcher.queue_wait_ms_p50", "batcher.rows_per_batch",
        "batcher.fill_ratio", "worker.service_ms_p50", "worker.busy_share", "sharded.start_s",
        "planspec.pickle_mb", "setup.build_s", "setup.tune_s", "setup.specialize_s",
        "loadgen.lag_p99_ms", "client.latency_p50_ms",
    ],
    "zipf-100task": GEMMS + POOLS + [
        "engine.run_ms_p50", "serving.submit_us_p50", "metrics.report_ms",
        "batcher.queue_wait_ms_p50", "batcher.rows_per_batch", "batcher.fill_ratio",
        "worker.service_ms_p50", "worker.busy_share", "sharded.start_s", "planspec.pickle_mb",
        "setup.build_s", "setup.tune_s", "client.latency_p50_ms", "contention.workers",
        "contention.throughput_ips", "contention.busy_share", "contention.service_ms_p50",
    ],
}


def tiny_plan():
    from repro.engine import compile_network
    from repro.mime import MimeNetwork, add_structured_sparsity_task
    from repro.models import vgg_tiny

    rng = np.random.default_rng(0)
    network = MimeNetwork(vgg_tiny(num_classes=4, input_size=16, in_channels=3, rng=rng))
    network.eval()
    for name in ("a", "b"):
        add_structured_sparsity_task(network, name, num_classes=5, rng=rng,
                                     dead_fraction=0.3, threshold_jitter=0.2)
    return compile_network(network, dtype=np.float32)


def test_same_seed_gives_same_trace_and_images():
    from repro.serving import LoadGenerator

    tasks = ["t0", "t1", "t2"]

    def inputs(seed):
        pools = harness.image_pools(seed, tasks, 4, (3, 32, 32))
        picks = harness.image_draws(seed, 100, 4)
        uniform = LoadGenerator.uniform(tasks, 300.0, seed=workloads.trace_seed(seed, "r0"))
        zipf = LoadGenerator.zipf(tasks, 1000.0, seed=workloads.trace_seed(seed, "measure"))
        return pools, picks, uniform.trace(64), zipf.trace(64)

    first, again, other = inputs(7), inputs(7), inputs(8)
    for task in tasks:
        assert np.array_equal(first[0][task], again[0][task])
        assert not np.array_equal(first[0][task], other[0][task])
    assert np.array_equal(first[1], again[1]) and not np.array_equal(first[1], other[1])
    assert first[2] == again[2] and first[2] != other[2]
    assert first[3] == again[3] and first[3] != other[3]


def test_metric_names_match_the_contract():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == workloads.E2E_UNITS
    assert layers == workloads.LAYER_UNITS
    assert set(w["name"] for w in bench["workloads"]) == set(workloads.WORKLOADS)
    for name in [*e2e, *layers, *workloads.WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_traced_copy_is_bit_identical_and_times_every_kernel():
    plan = tiny_plan()
    log = tracing.KernelLog()
    traced = tracing.traced_copy(plan, log)
    images = np.random.default_rng(1).standard_normal((5,) + plan.input_shape)
    assert np.array_equal(plan.run(images, "a"), traced.run(images, "a"))
    assert np.array_equal(plan.run_mixed(images, ["a", "b", "a", "b", "b"]),
                          traced.run_mixed(images, ["a", "b", "a", "b", "b"]))
    assert len(tracing.run_spans(log)) == 2
    metrics = tracing.kernel_metrics(log, tracing.Roofline())
    gemms = [k.name for k in plan.kernels if getattr(k, "kind", "") in ("conv", "linear")]
    pools = [k.name for k in plan.kernels if getattr(k, "kind", "") == "pool"]
    assert set(metrics) == set(tracing.kernel_metric_names(gemms, pools))
    assert all(value > 0 for value in metrics.values())


def test_gate_accepts_references_and_flags_wrong_rows():
    plan = tiny_plan()
    pools = harness.image_pools(3, ["a", "b"], 4, plan.input_shape)
    gate = harness.Gate(lambda task: plan, pools)
    row = plan.run(pools["a"][2:3], "a")[0]
    assert gate.check("a", 2, row)
    assert not gate.check("a", 2, row + 1e-3)  # bit-exact path: any change fails
    assert not gate.check("b", 0, row[::-1].copy())
    assert gate.failures == 2 and gate.checked == 3


#: ``prctl`` option: orphaned descendants re-parent to the caller, not init.
PR_SET_CHILD_SUBREAPER = 36


@contextlib.contextmanager
def subreaper():
    """While inside, orphans of the benchmark re-parent to this process and
    stay visible (as zombies) until reaped, so a process that outlived the
    run is caught even if it ended a moment later."""
    libc = ctypes.CDLL(None, use_errno=True) if sys.platform.startswith("linux") else None
    armed = libc is not None and libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    try:
        yield armed
    finally:
        if armed:
            libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)


def adopted(session: int) -> list:
    """Orphans of ``session`` re-parented to this process; each is reaped."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == os.getpid() and int(fields[3]) == session:
            pids.append(int(stat.parent.name))
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return pids


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    """Runs the benchmark in a session of its own; ``survivors`` lists the
    processes it left behind when it exited."""
    with subreaper() as armed, tempfile.TemporaryFile("w+") as stdout, \
            tempfile.TemporaryFile("w+") as stderr:
        process = subprocess.Popen(
            [sys.executable, "perfbench/run.py", *args],
            cwd=cwd, stdout=stdout, stderr=stderr, start_new_session=True,
        )
        process.wait(timeout=170)
        survivors = adopted(process.pid) if armed else []
        stdout.seek(0)
        stderr.seek(0)
        out = subprocess.CompletedProcess(process.args, process.returncode,
                                          stdout.read(), stderr.read())
    out.survivors = survivors
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_passes_the_gate_and_emits_every_metric(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "3",
                    "--trace", str(trace))
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert out.survivors == [], "the run left processes running"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = workloads.LAYER_UNITS if trace else workloads.E2E_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    must_move = ON_PATH[workload] if trace else list(expected)
    assert [name for name in must_move if not values[name] > 0] == []


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = run_bench(tmp_path, "--workload", "offline-3task", "--seed", "1", "--seconds", "1")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
