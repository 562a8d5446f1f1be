"""Sparsity specialization: compacted per-task plans vs the dense plan.

Not a paper figure — this benchmarks the repo's own plan-specialization
pipeline on a workload with paper-level per-task structured sparsity (~65% of
every masked layer's channels structurally dead per task, cf. Table II's
0.5-0.9 layerwise sparsity).  Two properties are asserted:

* the specialized plans deliver at least
  ``SPECIALIZATION_MIN_SPEEDUP``x (1.3x; 1.15x under ``--smoke``) the
  images/sec of the dense plan on the same pipelined request stream;
* specialization never changes *what* is computed: effective MACs drop
  while outputs stay ULP-equivalent (the tier-1 differential suite pins the
  float64 tolerance).

Set ``BENCH_RECORD=path.json`` to append this run's numbers to the
``BENCH_specialization.json`` trajectory file.

Run standalone with ``pytest benchmarks/bench_specialization.py -s``; pass
``--smoke`` for the seconds-scale CI configuration.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.engine import (
    MultiTaskEngine,
    compile_network,
    specialize_tasks,
)
from repro.mime import MimeNetwork, add_structured_sparsity_task
from repro.models import vgg_small

TASKS = ("cifar10", "cifar100", "fmnist")
INPUT_SIZE = 32
MICRO_BATCH = 8
DEAD_FRACTION = 0.65  # paper-level structured sparsity (Table II: 0.5-0.9)

def _ratio_from_env(name: str, default: float, smoke_default: float, smoke: bool) -> float:
    """An explicitly-set env override always wins; --smoke only relaxes defaults."""
    value = os.environ.get(name)
    if value is not None:
        return float(value)
    return smoke_default if smoke else default


def _build_network() -> MimeNetwork:
    rng = np.random.default_rng(42)
    backbone = vgg_small(num_classes=8, input_size=INPUT_SIZE, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for index, name in enumerate(TASKS):
        add_structured_sparsity_task(
            network, name, num_classes=10 + index, rng=rng,
            dead_fraction=DEAD_FRACTION, threshold_jitter=0.2,
        )
    return network


def _request_stream(num_requests: int):
    rng = np.random.default_rng(9)
    images = rng.normal(size=(num_requests, 3, INPUT_SIZE, INPUT_SIZE))
    tasks = [TASKS[i % len(TASKS)] for i in range(num_requests)]
    return images, tasks


def _drain_throughput(plan, specialized, images, tasks, rounds: int = 3) -> float:
    engine = MultiTaskEngine(plan, micro_batch=MICRO_BATCH, specialized=specialized)
    num_requests = len(tasks)

    def drain() -> float:
        for index, task in enumerate(tasks):
            engine.submit(task, images[index])
        start = time.perf_counter()
        engine.run_pending(mode="pipelined")
        return num_requests / (time.perf_counter() - start)

    drain()  # warm workspaces and BLAS
    return max(drain() for _ in range(rounds))


def _record_entry(entry: dict) -> None:
    path = os.environ.get("BENCH_RECORD")
    if not path:
        return
    file = Path(path)
    payload = json.loads(file.read_text()) if file.exists() else {"entries": []}
    payload["entries"].append(entry)
    file.write_text(json.dumps(payload, indent=2) + "\n")


def test_specialized_plans_beat_dense_throughput(smoke):
    min_speedup = _ratio_from_env("SPECIALIZATION_MIN_SPEEDUP", 1.3, 1.15, smoke)
    num_requests = 48 if smoke else 96
    network = _build_network()
    plan = compile_network(network, dtype=np.float32)
    specialized = specialize_tasks(plan)
    images, tasks = _request_stream(num_requests)

    dense_ips = _drain_throughput(plan, {}, images, tasks)
    spec_ips = _drain_throughput(plan, specialized, images, tasks)

    mac_reduction = float(np.mean([s.mac_reduction() for s in specialized.values()]))
    print()
    print(f"Specialization throughput (vgg_small @ {INPUT_SIZE}x{INPUT_SIZE}, "
          f"{len(TASKS)} tasks, ~{100 * DEAD_FRACTION:.0f}% dead channels/task, "
          f"{num_requests} pipelined requests):")
    print(f"  dense plan            : {dense_ips:8.1f} images/sec")
    print(f"  specialized plans     : {spec_ips:8.1f} images/sec "
          f"({spec_ips / dense_ips:.2f}x, {100 * mac_reduction:.1f}% MACs avoided)")

    # Equivalence spot check on one micro-batch per task.  float32 GEMM
    # reassociation can flip a mask bit for pre-activations within an ULP of
    # their threshold, so compare like the engine's own float32 test: small
    # mean deviation plus prediction agreement.
    for name in TASKS:
        sample = images[:24]
        spec_out = specialized[name].run(sample, name)
        dense_out = plan.run(sample, name)
        assert np.abs(spec_out - dense_out).mean() < 5e-3
        assert (np.argmax(spec_out, axis=1) == np.argmax(dense_out, axis=1)).mean() >= 0.8

    _record_entry({
        "date": time.strftime("%Y-%m-%d"),
        "workload": f"vgg_small@{INPUT_SIZE} x{len(TASKS)}tasks dead={DEAD_FRACTION}",
        "requests": num_requests,
        "smoke": smoke,
        "dense_ips": round(dense_ips, 1),
        "specialized_ips": round(spec_ips, 1),
        "speedup": round(spec_ips / dense_ips, 3),
        "mac_reduction": round(mac_reduction, 4),
    })
    assert spec_ips >= min_speedup * dense_ips, (
        f"specialized plans deliver only {spec_ips / dense_ips:.2f}x the dense "
        f"throughput (required {min_speedup}x at ~{100 * DEAD_FRACTION:.0f}% dead channels)"
    )
