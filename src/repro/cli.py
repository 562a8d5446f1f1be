"""Command-line interface for the MIME reproduction.

Provides a small front-end over the experiment harness so a downstream user
can regenerate the paper's artefacts without writing Python:

``python -m repro storage``      — Fig. 1 / Fig. 4 DRAM storage curve
``python -m repro energy``       — Fig. 5 / Fig. 6 energy tables + Fig. 7 throughput
``python -m repro pruned``       — Fig. 8 comparison against 90 %-pruned models
``python -m repro ablation``     — Fig. 9 PE-array / cache ablation
``python -m repro train``        — train the surrogate workload and print Tables II/III
``python -m repro serve-bench``  — compiled multi-task engine vs training-path throughput
``python -m repro serve``        — online serving runtime under synthetic Poisson traffic
``python -m repro export``       — publish a versioned model artifact to a ModelStore
``python -m repro all``          — everything above (training uses the fast configuration)
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict

from repro.experiments.builders import (
    add_fault_arguments,
    add_metrics_arguments,
    add_workload_arguments,
    append_bench_entry,
    build_runtime,
    build_serving_network,
    load_artifact_plans,
    maybe_specialize,
    positive_int,
    start_chaos_schedule,
    start_metrics_server,
)
from repro.experiments.config import fast_config, full_config
from repro.experiments.figures import (
    figure4_dram_storage,
    figure5_singular_energy,
    figure6_pipelined_energy,
    figure7_pipelined_throughput,
    figure8_vs_pruned,
    figure9_ablation,
)
from repro.experiments.report import (
    render_energy_report,
    render_ratio_table,
    render_sparsity_table,
    render_table,
)


def _cmd_storage(args: argparse.Namespace) -> None:
    result = figure4_dram_storage(max_tasks=args.max_tasks)
    curve = result["curve"]
    rows = [
        [int(n), conv, mime, ratio]
        for n, conv, mime, ratio in zip(
            curve["num_tasks"], curve["conventional_mb"], curve["mime_mb"], curve["saving_ratio"]
        )
    ]
    print(render_table(
        ["child tasks", "conventional (MB)", "MIME (MB)", "saving"],
        rows,
        title="Fig. 1 / Fig. 4 — off-chip DRAM storage",
    ))
    print(f"3-child saving: {result['saving_ratio_3_tasks']:.2f}x (paper ~{result['paper_saving_ratio']}x)")


def _cmd_energy(args: argparse.Namespace) -> None:
    singular = figure5_singular_energy()
    pipelined = figure6_pipelined_energy()
    throughput = figure7_pipelined_throughput()
    print(render_energy_report(singular["reports"], singular["layer_names"],
                               title="Fig. 5 — Singular task mode energy"))
    print()
    print(render_energy_report(pipelined["reports"], pipelined["layer_names"],
                               title="Fig. 6 — Pipelined task mode energy"))
    print()
    print(render_ratio_table(pipelined["mime_vs_case1"], title="Fig. 6 — MIME vs Case-1 (paper 2.4-3.1x)"))
    print()
    print(render_ratio_table(throughput["mime_vs_case1"],
                             title="Fig. 7 — MIME relative throughput (paper 2.8-3.0x)",
                             value_name="throughput x"))


def _cmd_pruned(args: argparse.Namespace) -> None:
    result = figure8_vs_pruned()
    rows = [
        [layer, result["pruned_over_mime"][layer], result["param_dram_pruned_over_mime"][layer]]
        for layer in result["layer_names"]
    ]
    print(render_table(
        ["layer", "pruned/MIME (total energy)", "pruned/MIME (param DRAM)"],
        rows,
        title="Fig. 8 — MIME vs 90%-pruned conventional models (pipelined)",
    ))
    print(f"MIME wins (total energy): {result['mime_wins']}")


def _cmd_ablation(args: argparse.Namespace) -> None:
    result = figure9_ablation()
    rows = [
        [layer, result["case_b_over_a"][layer], result["case_c_over_a"][layer]]
        for layer in result["layer_names"]
    ]
    print(render_table(
        ["layer", "PE 256 / 1024", "cache 128KB / 156KB"],
        rows,
        title="Fig. 9 — MIME energy under reduced PE array / cache",
    ))
    print(
        f"middle-layer mean: PE {result['case_b_middle_mean']:.3f}x "
        f"(paper 1.26-1.41x), cache {result['case_c_middle_mean']:.3f}x"
    )


def _cmd_train(args: argparse.Namespace) -> None:
    from repro.experiments.tables import (
        table2_mime_accuracy_and_sparsity,
        table3_baseline_accuracy_and_sparsity,
    )
    from repro.experiments.workloads import build_workload

    config = fast_config() if args.fast else full_config()
    print(f"Training the surrogate multi-task workload ({'fast' if args.fast else 'full'} config) ...")
    workload = build_workload(config, include_mime=True, include_baselines=True)
    print(f"parent test accuracy: {workload.parent_accuracy:.3f}")
    print(render_sparsity_table(
        table2_mime_accuracy_and_sparsity(workload),
        title="Table II (reproduced) — MIME accuracy and layerwise sparsity",
    ))
    print()
    print(render_sparsity_table(
        table3_baseline_accuracy_and_sparsity(workload),
        title="Table III (reproduced) — baseline accuracy and ReLU sparsity",
    ))


def _cmd_serve_bench(args: argparse.Namespace) -> None:
    import time

    import numpy as np

    from repro.engine import MultiTaskEngine
    from repro.models import extract_layer_shapes

    if getattr(args, "backend", "engine") != "engine":
        _serve_bench_runtime(args)
        return

    network, backbone, plan, rng = build_serving_network(args)
    print(
        f"serve-bench: {args.model} @ {args.input_size}x{args.input_size}, "
        f"{args.tasks} tasks, {args.requests} requests, micro-batch {args.micro_batch} "
        "(randomly initialised backbone — this benchmarks the serving path, not accuracy)"
    )
    shape = (args.requests, 3, args.input_size, args.input_size)
    images = rng.normal(size=shape)
    tasks = [f"task{i % args.tasks}" for i in range(args.requests)]

    def run_training_path() -> float:
        start = time.perf_counter()
        for begin in range(0, args.requests, args.micro_batch):
            batch_tasks = tasks[begin : begin + args.micro_batch]
            for task_name in sorted(set(batch_tasks)):
                rows = [begin + i for i, t in enumerate(batch_tasks) if t == task_name]
                network.forward(images[rows], task=task_name)
        return args.requests / (time.perf_counter() - start)

    specialized = maybe_specialize(args, plan)
    results = [["training forward", "-", run_training_path(), 1.0]]
    engines = {}
    variants = [("singular", {}), ("pipelined", {})]
    if specialized:
        variants.append(("pipelined+specialized", specialized))
    for label, plans in variants:
        mode = label.split("+")[0]
        engine = MultiTaskEngine(plan, micro_batch=args.micro_batch, specialized=plans)
        for index, task_name in enumerate(tasks):
            engine.submit(task_name, images[index])
        start = time.perf_counter()
        _, stats = engine.run_pending(mode=mode)
        throughput = args.requests / (time.perf_counter() - start)
        print(f"  {stats.summary()}")
        results.append([f"engine ({label})", stats.task_switches, throughput,
                        throughput / results[0][2]])
        engines[label] = engine

    print(render_table(
        ["path", "task switches", "images/sec", "speedup"],
        [[name, switches, f"{tput:.1f}", f"{speed:.2f}x"]
         for name, switches, tput, speed in results],
        title=f"Serving throughput ({args.dtype} engine vs float64 training path)",
    ))

    report_label = "pipelined+specialized" if "pipelined+specialized" in engines else "pipelined"
    engine = engines[report_label]
    print(f"\nmeasured mean dynamic sparsity per task ({report_label} run):")
    for task_name in engine.recorder.tasks():  # only tasks that received traffic
        print(f"  {task_name}: {engine.recorder.mean_sparsity(task_name):.3f}")

    report = engine.hardware_report(extract_layer_shapes(backbone), conv_only=True)
    energy = report.total_energy()
    print(
        f"\nsystolic-array estimate from the measured run ({len(engine.recorder.schedule())} "
        f"images, MIME config): total energy {energy.total:,.0f} units, "
        f"{report.total_cycles():,.0f} cycles"
    )
    if report.measured_dense_macs:
        print(
            f"engine-side effective MACs: {report.measured_effective_macs:,} of "
            f"{report.measured_dense_macs:,} dense "
            f"({100.0 * report.measured_mac_reduction():.1f}% avoided in software)"
        )
    if getattr(args, "json", None):
        path = append_bench_entry(args.json, {
            **_bench_entry_header(args),
            "paths": [
                {"path": name, "task_switches": switches, "images_per_sec": tput,
                 "speedup": speed}
                for name, switches, tput, speed in results
            ],
        })
        print(f"\nappended engine trajectory entry to {path}")


def _bench_entry_header(args: argparse.Namespace) -> dict:
    import time as time_module

    return {
        "date": time_module.strftime("%Y-%m-%d"),
        "command": "serve-bench",
        "workload": f"{args.model}@{args.input_size} x{args.tasks}tasks "
                    f"dead={getattr(args, 'dead_fraction', 0.0)}",
        "requests": args.requests,
        "micro_batch": args.micro_batch,
        "backend": getattr(args, "backend", "engine"),
        "specialize": bool(getattr(args, "specialize", False)),
    }


def _serve_bench_runtime(args: argparse.Namespace) -> None:
    """``serve-bench --backend thread|process``: a serving-runtime drain.

    Starts the backend (which blocks until every worker is ready), then
    submits the whole mixed-task request stream and measures the parallel
    drain through the chosen backend, so reported latency never includes
    worker boot — the apples-to-apples
    configuration the thread-vs-process scaling benchmark uses
    (``benchmarks/bench_serving_latency.py``).
    """
    network, backbone, plan, rng = build_serving_network(args)
    specialized = maybe_specialize(args, plan)
    print(
        f"serve-bench: {args.model} @ {args.input_size}x{args.input_size}, "
        f"{args.tasks} tasks, {args.requests} requests, micro-batch {args.micro_batch}, "
        f"backend={args.backend}, workers={args.workers} "
        "(randomly initialised backbone — this benchmarks the serving path, not accuracy)"
    )
    runtime = build_runtime(args, plan, specialized)
    images = rng.normal(size=(args.requests, 3, args.input_size, args.input_size))
    tasks = [f"task{i % args.tasks}" for i in range(args.requests)]
    runtime.start()
    futures = [
        runtime.submit(task, image) for task, image in zip(tasks, images)
    ]
    schedule = start_chaos_schedule(args, runtime)
    metrics_server = start_metrics_server(args, runtime)
    try:
        report = runtime.stop(drain=True)
    finally:
        if schedule is not None:
            schedule.stop()
        if metrics_server is not None:
            metrics_server.stop()
    for future in futures:
        try:
            future.result(timeout=60.0)
        except Exception as error:
            if schedule is None:
                raise
            # Under chaos, budget/deadline failures are legitimate outcomes;
            # they are already tallied in the report's error counters.
            print(f"request {future.index} failed under chaos: {error}")
    print()
    print(report.summary())
    if getattr(args, "json", None):
        path = append_bench_entry(args.json, {
            **_bench_entry_header(args),
            "workers": args.workers,
            "report": report.to_dict(),
        })
        print(f"\nappended serving trajectory entry to {path}")


def _cmd_serve(args: argparse.Namespace) -> None:
    import numpy as np

    from repro.models import extract_layer_shapes
    from repro.serving import LoadGenerator

    store = None
    backbone = None
    baseline = None
    if args.artifact:
        if args.specialize or args.dynamic or args.dead_fraction:
            print(
                "note: --artifact supplies the plans as published; the workload/"
                "specialization flags (--model/--tasks/--dead-fraction/"
                "--specialize/--dynamic/...) are ignored"
            )
        artifact, store = load_artifact_plans(args.artifact)
        plan, specialized = artifact.build_plans()
        baseline = artifact.calibration
        rng = np.random.default_rng(args.seed)
        source = f"artifact '{artifact.name}' from {args.artifact}"
    else:
        network, backbone, plan, rng = build_serving_network(args)
        specialized = maybe_specialize(args, plan)
        source = "randomly initialised backbone"
    task_names = plan.task_names()
    print(
        f"serve: {len(task_names)} tasks @ input {plan.input_shape}, "
        f"policy={args.policy}, backend={args.backend}, "
        f"coalesce={'on' if getattr(args, 'coalesce', False) else 'off'}, "
        f"workers={args.workers}, "
        f"micro-batch {args.micro_batch}, max-wait {1e3 * args.max_wait:.1f} ms, "
        f"{args.scenario} Poisson traffic at {args.rate:.0f} req/s "
        f"({source} — this exercises the serving path, not accuracy)"
    )
    generators = {
        "uniform": LoadGenerator.uniform,
        "skewed": LoadGenerator.skewed,
        "zipf": LoadGenerator.zipf,
        "bursty": LoadGenerator.bursty,
    }
    generator = generators[args.scenario](task_names, args.rate, seed=args.seed)
    images = {
        task: rng.normal(size=(16,) + tuple(plan.input_shape)) for task in task_names
    }
    recorder = None
    if args.recalibrate:
        from repro.engine import SparsityRecorder, calibrate_plan

        recorder = SparsityRecorder(channel_tracking=True)
        if baseline is None:
            baseline = calibrate_plan(plan, batch_size=32, seed=args.seed)
    runtime = build_runtime(
        args, plan, specialized, recorder=recorder, max_pending=args.max_queue
    )
    loop = None
    if args.recalibrate:
        from repro.serving import RecalibrationLoop

        loop = RecalibrationLoop(
            runtime,
            baseline,
            interval=args.recalibrate_interval,
            drift_threshold=args.drift_threshold,
            dead_threshold=getattr(args, "dead_threshold", 0.0),
            min_images=args.recalibrate_min_images,
            store=store,
        )
    schedule = None
    metrics_server = None
    with runtime:
        schedule = start_chaos_schedule(args, runtime)
        metrics_server = start_metrics_server(args, runtime)
        if loop is not None:
            loop.start()
        try:
            futures = generator.replay(
                runtime,
                images,
                num_requests=args.requests,
                deadline_slack=args.deadline,
            )
            failed = 0
            for future in futures:
                if future is None:
                    continue
                try:
                    future.result(timeout=60.0)
                except Exception:
                    if schedule is None:
                        raise
                    # Chaos runs tolerate explicit per-request failures
                    # (retry budget, deadline); the report counts them.
                    failed += 1
            if failed:
                print(f"{failed} requests failed explicitly under chaos")
            if loop is not None:
                loop.check_once()  # one final deterministic pass before shutdown
        finally:
            if loop is not None:
                loop.stop()
            if schedule is not None:
                schedule.stop()
            if metrics_server is not None:
                metrics_server.stop()
    print()
    print(runtime.report().summary())
    if loop is not None:
        if loop.swaps():
            print(
                "(report covers the measurement window since the last "
                "recalibration swap — each swap starts a fresh window)"
            )
        print("\nrecalibration events:")
        print(loop.summary())

    if backbone is None:
        return  # artifact serving: no training network to derive layer shapes from
    report = runtime.hardware_report(extract_layer_shapes(backbone), conv_only=True)
    energy = report.total_energy()
    print(
        f"\nsystolic-array estimate from the measured online schedule "
        f"({runtime.recorder.num_images()} images, MIME config): "
        f"total energy {energy.total:,.0f} units, {report.total_cycles():,.0f} cycles"
    )
    if report.measured_dense_macs:
        print(
            f"engine-side effective MACs: {report.measured_effective_macs:,} of "
            f"{report.measured_dense_macs:,} dense "
            f"({100.0 * report.measured_mac_reduction():.1f}% avoided in software)"
        )


def _cmd_export(args: argparse.Namespace) -> None:
    """Build, calibrate, (optionally) specialize and publish a model artifact."""
    from repro.artifacts import ModelArtifact, ModelStore
    from repro.engine import calibrate_plan

    network, backbone, plan, rng = build_serving_network(args)
    profile = calibrate_plan(plan, batch_size=32, seed=args.seed)
    specialized = maybe_specialize(args, plan, profile=profile)
    artifact = ModelArtifact.from_plans(
        args.name,
        plan,
        specialized,
        calibration=profile,
        network=network,
        metadata={
            "model": args.model,
            "input_size": args.input_size,
            "tasks": args.tasks,
            "seed": args.seed,
            "dead_fraction": args.dead_fraction,
            "specialize": bool(specialized),
            "exact_specialize": bool(getattr(args, "exact_specialize", False)),
        },
    )
    store = ModelStore(args.store)
    version = store.publish(artifact, version=args.version)
    manifest = store.verify(version)
    total_bytes = sum(entry["bytes"] for entry in manifest["files"].values())
    print(f"published '{artifact.name}' as version {version} (latest -> {version})")
    print(f"  store: {store.root}")
    print(
        f"  {len(manifest['files'])} files, {total_bytes / 1e6:.2f} MB, "
        f"tasks: {', '.join(manifest['tasks'])}, "
        f"specialized: {', '.join(manifest['specialized_tasks']) or 'none'}"
    )
    print(f"  serve it with: repro serve --artifact {store.root} --backend process")


def _cmd_all(args: argparse.Namespace) -> None:
    args.fast = True
    _cmd_storage(args)
    print()
    _cmd_energy(args)
    print()
    _cmd_pruned(args)
    print()
    _cmd_ablation(args)
    print()
    _cmd_train(args)


_COMMANDS: Dict[str, Callable[[argparse.Namespace], None]] = {
    "storage": _cmd_storage,
    "energy": _cmd_energy,
    "pruned": _cmd_pruned,
    "ablation": _cmd_ablation,
    "train": _cmd_train,
    "serve-bench": _cmd_serve_bench,
    "serve": _cmd_serve,
    "export": _cmd_export,
    "all": _cmd_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the MIME (DAC 2022) evaluation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    storage = subparsers.add_parser("storage", help="Fig. 1 / Fig. 4 DRAM storage comparison")
    storage.add_argument("--max-tasks", type=int, default=6, help="number of child tasks to sweep")

    subparsers.add_parser("energy", help="Fig. 5 / Fig. 6 energy and Fig. 7 throughput")
    subparsers.add_parser("pruned", help="Fig. 8 comparison against 90%%-pruned models")
    subparsers.add_parser("ablation", help="Fig. 9 PE-array / cache ablation")

    train = subparsers.add_parser("train", help="train the surrogate workload (Tables II/III)")
    train.add_argument("--fast", action="store_true", help="use the seconds-scale fast configuration")

    serve_bench = subparsers.add_parser(
        "serve-bench", help="benchmark the compiled multi-task inference engine"
    )
    add_workload_arguments(serve_bench, default_requests=48)
    serve_bench.add_argument(
        "--backend", choices=["engine", "thread", "process"], default="engine",
        help="'engine' benchmarks the offline MultiTaskEngine drain (default); "
             "'thread'/'process' drain the same stream through the online "
             "serving runtime with that worker backend")
    serve_bench.add_argument("--workers", type=positive_int, default=2,
                             help="workers for the thread/process serving backends")
    serve_bench.add_argument("--json", metavar="OUT", default=None,
                             help="append a machine-readable entry for this run to a "
                                  "BENCH_*.json trajectory file")
    add_fault_arguments(serve_bench)
    add_metrics_arguments(serve_bench)

    from repro.engine.scheduling import SCHEDULING_MODES

    serve = subparsers.add_parser(
        "serve", help="run the online serving runtime under synthetic Poisson traffic"
    )
    add_workload_arguments(serve, default_requests=96)
    serve.add_argument("--policy", choices=list(SCHEDULING_MODES), default="fifo-deadline",
                       help="micro-batch scheduling policy")
    serve.add_argument("--backend", choices=["thread", "process"], default="thread",
                       help="worker parallelism: threads in this process, or a "
                            "process-sharded fleet with shared-memory rings")
    serve.add_argument("--workers", type=positive_int, default=2,
                       help="workers executing micro-batches in parallel")
    serve.add_argument("--rate", type=float, default=500.0,
                       help="mean request arrival rate (requests/second)")
    serve.add_argument("--max-wait", type=float, default=0.01,
                       help="dynamic batching deadline in seconds (batch closes on size or this)")
    serve.add_argument("--max-queue", type=positive_int, default=256,
                       help="admission-control bound on pending requests")
    serve.add_argument("--deadline", type=float, default=None,
                       help="optional per-request latency deadline in seconds")
    serve.add_argument("--scenario", choices=["uniform", "skewed", "zipf", "bursty"],
                       default="uniform", help="traffic shape of the load generator")
    serve.add_argument("--artifact", metavar="PATH", default=None,
                       help="serve a published model artifact (an artifact directory or "
                            "a model-store root, whose 'latest' version is loaded) "
                            "instead of building a fresh random workload")
    serve.add_argument("--recalibrate", action="store_true",
                       help="run the online recalibration loop: watch live per-channel "
                            "survival, re-specialize on drift, hot-swap the result "
                            "(publishes new versions when --artifact names a store)")
    serve.add_argument("--recalibrate-interval", type=float, default=2.0,
                       help="seconds between recalibration drift checks")
    serve.add_argument("--drift-threshold", type=float, default=0.1,
                       help="max |live - baseline| survival delta tolerated before "
                            "re-specializing")
    serve.add_argument("--recalibrate-min-images", type=positive_int, default=64,
                       help="images a task must have served before it is re-specialized")
    add_fault_arguments(serve)
    add_metrics_arguments(serve)

    export = subparsers.add_parser(
        "export", help="publish a versioned model artifact to a ModelStore"
    )
    add_workload_arguments(export, default_requests=48)
    export.add_argument("--store", required=True, metavar="DIR",
                        help="model-store root directory (created if missing)")
    export.add_argument("--name", default="mime", help="artifact/model name in the manifest")
    export.add_argument("--version", default=None,
                        help="explicit version name (default: auto-numbered v001, v002, ...)")

    subparsers.add_parser("all", help="run every artefact (training uses the fast configuration)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "max_tasks"):
        args.max_tasks = 6
    if not hasattr(args, "fast"):
        args.fast = True
    _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
