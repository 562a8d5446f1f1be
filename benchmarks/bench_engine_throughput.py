"""Engine throughput: compiled float32 serving path vs the training forward.

Not a paper figure — this benchmarks the repo's own inference engine on the
VGG surrogate workload.  Four properties are asserted:

* the compiled float32 engine delivers at least 2x the images/sec of
  ``MimeNetwork.forward`` on the same request stream,
* the sparsity the engine *measures* while serving round-trips into a
  :class:`~repro.hardware.LayerSparsityProfile` that the systolic-array
  simulator accepts, with every masked conv layer covered by a measurement,
* the per-layer kernel chooser (``autotune_kernel_variants``) beats the
  generic im2col baseline by ``KERNEL_BENCH_MIN_SPEEDUP`` (default 1.3x) on
  the same pipelined drain, with a per-variant forced-drain breakdown
  recorded alongside the chooser aggregate, and
* the int8 kernel variant holds its declared accuracy contract (argmax
  agreement with the float32 reference) on the sparse-weight ablation.

``--json OUT`` appends each run's machine-readable entry to a
``BENCH_*.json`` trajectory file (see ``benchmarks/BENCH_kernels.json``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.engine import (
    MultiTaskEngine,
    PlanSpec,
    autotune_kernel_variants,
    calibrate_plan,
    compile_network,
    force_kernel_variant,
    quantize_plan_kernels,
)
from repro.experiments.builders import append_bench_entry
from repro.mime import MimeNetwork
from repro.models import extract_layer_shapes, vgg_small

TASKS = ("cifar10", "cifar100", "fmnist")
NUM_REQUESTS = 48
MICRO_BATCH = 8
# Serving batch for the kernel-variant benchmarks.  The cache-blocked
# variants hold their panel working set at any batch, while the monolithic
# im2col baseline degrades as its column matrix outgrows the caches — batch
# 16 is where the chooser's advantage is fully visible (and is a realistic
# steady-state drain batch: 48 queued requests over 3 tasks).
KERNEL_BENCH_BATCH = 16
# The target ratio; shared CI runners can lower it via the environment to
# avoid spurious failures from machine noise (locally it defaults to the 2x
# acceptance criterion; typical measurements land at 3-4x).
MIN_SPEEDUP = float(os.environ.get("ENGINE_BENCH_MIN_SPEEDUP", "2.0"))
# Chooser-selected kernels vs the generic im2col baseline, same pipelined
# drain.  1.3x is the enforced floor (measurements centre on ~1.6-1.8x at
# KERNEL_BENCH_BATCH but single-core machine noise is large); CI smoke
# relaxes it and shared runners can override via the environment.
KERNEL_MIN_SPEEDUP = float(os.environ.get("KERNEL_BENCH_MIN_SPEEDUP", "1.3"))
# The int8 accuracy contract, measured on the trained surrogate workload:
# the quantized plan's aggregate top-1 accuracy may differ from the float32
# plan's by at most 0.5pp, with a per-image argmax-agreement sanity floor
# (threshold-masked networks flip near-threshold channels under
# quantization noise; the guard-band refinement epilogue keeps decisions
# exact per layer, but propagated value noise still perturbs a small
# fraction of predictions — symmetrically, which is what the delta bound
# captures).
INT8_MAX_DELTA_PP = 0.5
INT8_MIN_AGREEMENT = 0.90


@pytest.fixture(scope="module")
def served_network():
    rng = np.random.default_rng(42)
    backbone = vgg_small(num_classes=8, input_size=32, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for index, name in enumerate(TASKS):
        task = network.add_task(name, num_classes=10 + 5 * index, rng=rng)
        for param in task.thresholds:
            param.data += rng.uniform(0.0, 0.2, size=param.data.shape)
    return network


def _request_stream(rng):
    images = rng.normal(size=(NUM_REQUESTS, 3, 32, 32))
    tasks = [TASKS[i % len(TASKS)] for i in range(NUM_REQUESTS)]
    return images, tasks


def _training_path_throughput(network, images, tasks) -> float:
    start = time.perf_counter()
    for begin in range(0, NUM_REQUESTS, MICRO_BATCH):
        batch_tasks = tasks[begin : begin + MICRO_BATCH]
        for task_name in sorted(set(batch_tasks)):
            rows = [begin + i for i, t in enumerate(batch_tasks) if t == task_name]
            network.forward(images[rows], task=task_name)
    return NUM_REQUESTS / (time.perf_counter() - start)


def test_engine_throughput_vs_training_forward(benchmark, served_network, smoke):
    min_speedup = 1.2 if smoke else MIN_SPEEDUP
    rng = np.random.default_rng(7)
    images, tasks = _request_stream(rng)
    plan = compile_network(served_network, dtype=np.float32)

    # Warm both paths once so BLAS threads and workspaces are initialised.
    _training_path_throughput(served_network, images, tasks)
    warm = MultiTaskEngine(plan, micro_batch=MICRO_BATCH)
    warm.submit(tasks[0], images[:MICRO_BATCH])
    warm.run_pending(mode="singular")

    baseline_ips = _training_path_throughput(served_network, images, tasks)

    engine = MultiTaskEngine(plan, micro_batch=MICRO_BATCH)

    def serve() -> float:
        for index, task_name in enumerate(tasks):
            engine.submit(task_name, images[index])
        start = time.perf_counter()
        engine.run_pending(mode="pipelined")
        return NUM_REQUESTS / (time.perf_counter() - start)

    engine_ips = benchmark.pedantic(serve, rounds=3, iterations=1)

    print()
    print("Engine throughput on the VGG (vgg_small @ 32x32) workload:")
    print(f"  training forward : {baseline_ips:10.1f} images/sec")
    print(f"  compiled engine  : {engine_ips:10.1f} images/sec  "
          f"({engine_ips / baseline_ips:.1f}x)")
    assert engine_ips >= min_speedup * baseline_ips, (
        f"compiled engine ({engine_ips:.1f} img/s) is not {min_speedup}x the "
        f"training forward ({baseline_ips:.1f} img/s)"
    )


def _drain_throughput(plan, images, tasks, micro_batch=MICRO_BATCH) -> float:
    """Images/sec for one pipelined drain of the request stream on ``plan``."""
    engine = MultiTaskEngine(plan, micro_batch=micro_batch)
    for index, task_name in enumerate(tasks):
        engine.submit(task_name, images[index])
    start = time.perf_counter()
    engine.run_pending(mode="pipelined")
    return NUM_REQUESTS / (time.perf_counter() - start)


def test_kernel_chooser_vs_im2col_baseline(served_network, smoke, bench_json):
    """Chooser-selected kernel variants beat the generic im2col engine path.

    Alongside the chooser aggregate, every conv lowering is also drained
    with that variant *forced* on all eligible layers, so the recorded
    trajectory entry breaks the speedup down per variant rather than only
    reporting the chooser's blend.
    """
    # An explicit KERNEL_BENCH_MIN_SPEEDUP wins even in smoke mode — that is
    # how CI pins its shared-runner gate; otherwise smoke relaxes to 1.05.
    if "KERNEL_BENCH_MIN_SPEEDUP" in os.environ:
        min_speedup = KERNEL_MIN_SPEEDUP
    else:
        min_speedup = 1.05 if smoke else KERNEL_MIN_SPEEDUP
    rng = np.random.default_rng(7)
    images, tasks = _request_stream(rng)

    baseline = compile_network(served_network, dtype=np.float32)
    tuned = PlanSpec.from_plan(baseline).build()
    choices = autotune_kernel_variants(tuned, batch=KERNEL_BENCH_BATCH, seed=0)
    contenders = {"im2col": baseline}
    for variant in ("blocked", "packed", "direct"):
        plan = PlanSpec.from_plan(baseline).build()
        force_kernel_variant(plan, variant)
        contenders[variant] = plan
    contenders["tuned"] = tuned

    # Warm every plan (BLAS threads, workspace pools, cached weight
    # layouts), then interleave the measured rounds so machine noise hits
    # all contenders symmetrically.
    for plan in contenders.values():
        _drain_throughput(plan, images, tasks, KERNEL_BENCH_BATCH)
    # Best-of-5 interleaved rounds: single-core VM throughput swings by
    # tens of percent over seconds, and best-of absorbs the slow windows.
    rounds = 1 if smoke else 5
    best = dict.fromkeys(contenders, 0.0)
    for _ in range(rounds):
        for name, plan in contenders.items():
            best[name] = max(
                best[name], _drain_throughput(plan, images, tasks, KERNEL_BENCH_BATCH)
            )
    baseline_ips = best["im2col"]
    tuned_ips = best["tuned"]
    speedup = tuned_ips / baseline_ips

    print()
    print("Per-layer kernel chooser on the vgg_small @ 32x32 workload:")
    for name, ips in best.items():
        print(f"  {name:9s}: {ips:10.1f} images/sec  ({ips / baseline_ips:.2f}x)")
    print("  choices: " + ", ".join(f"{k}={v}" for k, v in choices.items()))
    if bench_json:
        append_bench_entry(bench_json, {
            "pr": 7,
            "date": time.strftime("%Y-%m-%d"),
            "command": "pytest benchmarks/bench_engine_throughput.py::"
                       "test_kernel_chooser_vs_im2col_baseline",
            "workload": "vgg_small@32 x3tasks",
            "requests": NUM_REQUESTS,
            "micro_batch": KERNEL_BENCH_BATCH,
            "report": {
                "baseline_images_per_sec": baseline_ips,
                "tuned_images_per_sec": tuned_ips,
                "speedup": speedup,
                "kernel_choices": choices,
                "variant_breakdown": {
                    name: {
                        "images_per_sec": ips,
                        "speedup": ips / baseline_ips,
                    }
                    for name, ips in best.items()
                },
            },
        })
    assert tuned_ips >= min_speedup * baseline_ips, (
        f"chooser-selected kernels ({tuned_ips:.1f} img/s) are not "
        f"{min_speedup}x the im2col baseline ({baseline_ips:.1f} img/s)"
    )


def test_int8_accuracy_delta_on_sparse_weight_workload(trained_workload, smoke, bench_json):
    """Int8 holds the declared <= 0.5pp aggregate accuracy delta vs float32.

    Measured on the trained surrogate MIME workload (real thresholds, real
    per-task structured sparsity — the workload behind the sparse-weight
    ablation's accuracy baselines), against a large freshly-sampled
    evaluation set from the identical class generators: the synthetic task
    builders draw class prototypes from the per-task seed before any
    samples, so rebuilding the child tasks with a larger ``samples_per_class``
    yields more held-out images of the *same* classification problems.
    """
    from repro.datasets import DataLoader, build_child_tasks
    from repro.utils.rng import new_rng

    workload = trained_workload
    network = workload.mime_network
    network.eval()
    plan = compile_network(network, dtype=np.float32)
    profile = calibrate_plan(plan, batch_size=32, seed=5)
    quantized = PlanSpec.from_plan(plan).build()
    quantize_plan_kernels(quantized, profile)

    config = workload.config
    eval_tasks = build_child_tasks(
        scale=config.task_scale,
        backbone_size=config.backbone_input_size,
        samples_per_class=64 if smoke else 256,
    )
    rng = new_rng(123)
    totals = {"images": 0, "float32": 0, "int8": 0, "agree": 0}
    per_task = {}
    for task in eval_tasks:
        loader = DataLoader(task.test, batch_size=32, shuffle=False, rng=rng)
        n = f32_ok = int8_ok = agree = 0
        for images, labels in loader:
            ref = plan.run(images, task.name).argmax(axis=1)
            out = quantized.run(images, task.name).argmax(axis=1)
            n += len(labels)
            agree += int((ref == out).sum())
            f32_ok += int((ref == labels).sum())
            int8_ok += int((out == labels).sum())
        per_task[task.name] = (n, f32_ok / n, int8_ok / n, agree / n)
        for key, value in zip(("images", "float32", "int8", "agree"),
                              (n, f32_ok, int8_ok, agree)):
            totals[key] += value
    delta_pp = 100.0 * (totals["int8"] - totals["float32"]) / totals["images"]
    agreement = totals["agree"] / totals["images"]

    print()
    print("Int8 accuracy contract on the trained sparse-weight workload:")
    for name, (n, f32_acc, int8_acc, task_agree) in per_task.items():
        print(f"  {name:10s} n={n:4d}  acc(f32)={f32_acc:.4f}  acc(int8)={int8_acc:.4f}  "
              f"argmax agreement={task_agree:.4f}")
    print(f"  aggregate delta: {delta_pp:+.3f}pp over {totals['images']} images  "
          f"[contract: |delta| <= {INT8_MAX_DELTA_PP}pp]")
    if bench_json:
        append_bench_entry(bench_json, {
            "pr": 7,
            "date": time.strftime("%Y-%m-%d"),
            "command": "pytest benchmarks/bench_engine_throughput.py::"
                       "test_int8_accuracy_delta_on_sparse_weight_workload",
            "workload": "trained fast_config surrogate",
            "report": {
                "accuracy_delta_pp": delta_pp,
                "argmax_agreement": agreement,
                "per_task": {
                    name: {"n": n, "acc_float32": f, "acc_int8": q, "agreement": a}
                    for name, (n, f, q, a) in per_task.items()
                },
            },
        })
    assert abs(delta_pp) <= INT8_MAX_DELTA_PP, (
        f"int8 aggregate accuracy delta {delta_pp:+.3f}pp breaks the declared "
        f"<= {INT8_MAX_DELTA_PP}pp contract"
    )
    assert agreement >= INT8_MIN_AGREEMENT, (
        f"int8 argmax agreement {agreement:.4f} fell below the "
        f">= {INT8_MIN_AGREEMENT} sanity floor"
    )


def test_engine_measured_sparsity_drives_the_simulator(served_network):
    rng = np.random.default_rng(11)
    images, tasks = _request_stream(rng)
    plan = compile_network(served_network, dtype=np.float32)
    engine = MultiTaskEngine(plan, micro_batch=MICRO_BATCH)
    for index, task_name in enumerate(tasks):
        engine.submit(task_name, images[index])
    engine.run_pending(mode="pipelined")

    profile = engine.sparsity_profile()
    assert sorted(profile.tasks()) == sorted(TASKS)
    # Every masked conv layer carries a measurement for every task.
    conv_names = [name for name in plan.masked_layer_names() if name.startswith("conv")]
    for task_name in TASKS:
        for name in conv_names:
            assert profile.output_sparsity(task_name, name) > 0.0

    report = engine.hardware_report(extract_layer_shapes(served_network.backbone), conv_only=True)
    assert report.total_energy().total > 0
    assert report.total_cycles() > 0
    assert set(report.layer_names()) == set(conv_names)

    print()
    print("Measured-sparsity round-trip (pipelined stream, MIME config):")
    for task_name in TASKS:
        print(f"  {task_name}: mean sparsity {engine.recorder.mean_sparsity(task_name):.3f}")
    print(f"  simulator: {report.total_energy().total:,.0f} energy units, "
          f"{report.total_cycles():,.0f} cycles over {len(engine.recorder.schedule())} images")
