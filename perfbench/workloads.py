"""The benchmark's three workloads, driven through the public API only.

Each workload function takes ``(seed, seconds, trace)`` and returns an
:class:`Outcome`.  With ``trace=False`` it measures the end-to-end metrics;
with ``trace=True`` it measures the workload once untraced and once traced
(half the seconds each) and returns the per-layer ledger.  ``README.md``
next to this file says why each workload exists and which per-layer number
should move which end-to-end number.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import (
    INPUT_SIZE,
    MODEL_SEED,
    Gate,
    Ledger,
    Record,
    Stopwatch,
    image_draws,
    image_pools,
    median,
    pct,
    peak_rss_mb,
    resolve,
    rng_for,
    usable_cpus,
)
from tracing import (
    KernelLog,
    Roofline,
    kernel_metric_names,
    kernel_metrics,
    run_spans,
    traced_copy,
)

#: Set-ups per run; ``setup_s`` and the ``setup.*`` layer times are medians.
SETUP_REPEATS = 3
#: Distinct images per task; every (task, image) pair has a reference row.
IMAGES_PER_TASK = 8
#: The paper's three child tasks and their class counts.
CHILD_TASKS = ("cifar10", "cifar100", "fmnist")
CHILD_CLASSES = (10, 100, 10)


# --------------------------------------------------------------- outcome --
@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    #: name -> (value, unit, sample count)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        unit = E2E_UNITS.get(name) or LAYER_UNITS[name]
        self.metrics[name] = (float(value), unit, int(samples))

    def fail(self, reason: str) -> None:
        self.correct = False
        self.notes.append(f"FAILED: {reason}")

    def count(self, ledgers: Sequence[Ledger]) -> None:
        self.attempted = sum(ledger.attempted for ledger in ledgers)
        self.failed = sum(ledger.failed for ledger in ledgers)

    def gate(self, gate: Gate) -> None:
        self.notes.append(
            f"correctness gate: {gate.checked} rows checked, {gate.failures} failed"
        )
        if gate.failures:
            self.fail("; ".join(gate.examples))


def reconcile(outcome: Outcome, report, ledgers: Sequence[Ledger]) -> None:
    """attempted = completed + failed, on both sides of the API: the client's
    count of submit calls must equal what the runtime's report accounts for,
    and every request the runtime completed must have reached its client."""
    attempted = sum(ledger.attempted for ledger in ledgers)
    delivered = sum(len(ledger.completed) for ledger in ledgers)
    accounted = report.completed + report.errors + report.cancelled + report.rejected + report.shed
    if accounted != attempted or report.completed != delivered:
        outcome.fail(
            f"accounting: {attempted} submitted, {delivered} delivered; runtime reports "
            f"{report.completed} completed + {accounted - report.completed} failed"
        )


def end_to_end(outcome: Outcome, ledger: Ledger, throughput: float, max_rate: float,
               setups: Sequence["Deployment"], rss_mb: float, plan_mb: float,
               latency_p50: Optional[float] = None) -> None:
    done = len(ledger.completed)
    if latency_p50 is None:
        latency_p50 = pct(ledger.latencies_ms(), 50)
    outcome.put("throughput_ips", throughput, done)
    outcome.put("latency_p50_ms", latency_p50, done)
    outcome.put("max_rate_rps", max_rate, done)
    outcome.put("success_rate", done / max(1, ledger.attempted), ledger.attempted)
    outcome.put("setup_s", median([s.setup_s for s in setups]), len(setups))
    outcome.put("peak_rss_mb", rss_mb)
    outcome.put("plan_mb", plan_mb)
    # The tail is reported with its sample count but kept out of the bounded
    # metrics: on a shared host it is set by scheduler stalls (see README).
    outcome.notes.append(
        f"latency_p99_ms = {pct(ledger.latencies_ms(), 99):.6g} ms (n={done}, unbounded)"
    )


def traced_outcome(outcome: Outcome, layers: Dict[str, float]) -> None:
    """Fill ``outcome.metrics`` with every per-layer metric; a layer the
    workload does not pass through reads 0 (see the README's table)."""
    for name in LAYER_NAMES:
        outcome.put(name, layers.get(name, 0.0))


# ------------------------------------------------------------- set-up ----
@dataclass
class Deployment:
    """One built, specialized and tuned plan set, plus its serving front."""

    plan: object
    specialized: Dict[str, object]
    build_s: float
    specialize_s: float
    tune_s: float
    start_s: float = 0.0
    runtime: object = None

    @property
    def setup_s(self) -> float:
        return self.build_s + self.specialize_s + self.tune_s + self.start_s

    def plan_for(self, task: str):
        return self.specialized.get(task, self.plan)

    def plan_mb(self) -> float:
        from repro.serving import PlanSet

        return PlanSet(self.plan, self.specialized).plan_bytes() / 2**20

    def pickle_mb(self) -> float:
        from repro.engine import PlanSetSpec

        spec = PlanSetSpec.capture(self.plan, self.specialized)
        return len(pickle.dumps(spec)) / 2**20


def build_plan(task_names: Sequence[str], classes: Sequence[int], dead_fraction: float):
    from repro.engine import compile_network
    from repro.mime import MimeNetwork, add_structured_sparsity_task
    from repro.models import vgg_small

    rng = np.random.default_rng(MODEL_SEED)
    backbone = vgg_small(num_classes=8, input_size=INPUT_SIZE, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for name, num_classes in zip(task_names, classes):
        add_structured_sparsity_task(
            network, name, num_classes=num_classes, rng=rng,
            dead_fraction=dead_fraction, threshold_jitter=0.2,
        )
    return compile_network(network, dtype=np.float32)


def deploy(task_names, classes, *, dead_fraction: float, specialize: bool, tune_batch: int,
           start: Optional[Callable] = None) -> Deployment:
    """Build → (specialize) → tune → start, each step timed from outside.

    Every set-up tunes against a fresh timing cache, so repeated set-ups in
    one run each pay the chooser's full cost, as a fresh process would.
    With ``specialize`` the per-task plans are tuned on their compacted
    geometry, exactly what ``specialize_tasks(choose_kernels=True)`` does.
    """
    from repro.engine import KernelTimingCache, autotune_kernel_variants, specialize_tasks

    with Stopwatch() as build:
        plan = build_plan(task_names, classes, dead_fraction)
    with Stopwatch() as specialization:
        specialized = specialize_tasks(plan) if specialize else {}
    cache = KernelTimingCache()
    with Stopwatch() as tune:
        for target in list(specialized.values()) or [plan]:
            autotune_kernel_variants(target, batch=tune_batch, seed=0, cache=cache)
    deployment = Deployment(plan, specialized, build.seconds, specialization.seconds,
                            tune.seconds)
    if start is not None:
        deployment.runtime = start(deployment)
        with Stopwatch() as started:
            deployment.runtime.start()
        deployment.start_s = started.seconds
    return deployment


def set_up(make: Callable[[], Deployment]) -> Tuple[List[Deployment], Deployment]:
    """``SETUP_REPEATS`` set-ups; returns all of them and the one to serve.

    Earlier set-ups keep only their timings: their runtimes are stopped and
    their plans dropped, so the peak RSS is that of one deployment.
    """
    setups = []
    for repeat in range(SETUP_REPEATS):
        deployment = make()
        setups.append(deployment)
        if repeat < SETUP_REPEATS - 1:
            if deployment.runtime is not None:
                deployment.runtime.stop()
            deployment.plan = deployment.specialized = deployment.runtime = None
    return setups, deployment


def setup_layers(layers: Dict[str, float], setups: Sequence[Deployment]) -> None:
    layers["setup.build_s"] = median([s.build_s for s in setups])
    layers["setup.tune_s"] = median([s.tune_s for s in setups])
    layers["setup.specialize_s"] = median([s.specialize_s for s in setups])
    layers["sharded.start_s"] = median([s.start_s for s in setups])
    layers["planspec.pickle_mb"] = setups[-1].pickle_mb()


def choices_note(deployment: Deployment) -> str:
    plans = {"dense": deployment.plan, **deployment.specialized}
    served = {name: plan.kernel_choices for name, plan in plans.items() if plan.kernel_choices}
    return f"kernel variants chosen: {served}"


# ------------------------------------------------------ serving ledger ----
def serving_layers(layers: Dict[str, float], ledger: Ledger, report, micro_batch: int,
                   workers: int, wall: float, report_ms: Sequence[float]) -> None:
    """Per-request spans admit → queue → service, from ServingResult stamps."""
    done = ledger.completed
    batches = ledger.batches()
    service_ms = [1e3 * (finish - start) for start, finish in batches]
    queue_ms = [1e3 * (r.start - r.arrival) for r in done]
    admit_ms = [1e3 * (r.arrival - r.due) for r in done]
    latency_ms = ledger.latencies_ms()
    rows = len(done)
    layers["client.latency_p50_ms"] = pct(latency_ms, 50)
    layers["client.latency_p99_ms"] = pct(latency_ms, 99)
    layers["serving.submit_us_p50"] = pct([1e6 * r.submit_s for r in ledger.records], 50)
    layers["serving.submit_us_p99"] = pct([1e6 * r.submit_s for r in ledger.records], 99)
    layers["serving.rejected"] = report.rejected
    layers["metrics.report_ms"] = median(report_ms)
    layers["batcher.queue_wait_ms_p50"] = pct(queue_ms, 50)
    layers["batcher.queue_wait_ms_p99"] = pct(queue_ms, 99)
    layers["batcher.rows_per_batch"] = rows / max(1, len(batches))
    layers["batcher.fill_ratio"] = rows / max(1, len(batches) * micro_batch)
    layers["batcher.task_switches"] = report.task_switches
    layers["worker.service_ms_p50"] = pct(service_ms, 50)
    layers["worker.service_ms_p99"] = pct(service_ms, 99)
    layers["worker.busy_share"] = sum(service_ms) / 1e3 / (workers * wall)
    layers["sharded.redispatched"] = report.redispatched
    layers["sharded.restarts"] = report.restarts
    layers["engine.mac_reduction"] = report.mac_reduction()
    explained = pct(admit_ms, 50) + pct(queue_ms, 50) + pct(service_ms, 50)
    layers["ledger.residual_share"] = 1.0 - explained / layers["client.latency_p50_ms"]


def service_per_image(ledger: Ledger) -> float:
    """Worker service seconds per delivered image, batches from the stamps."""
    batches = ledger.batches()
    return sum(finish - start for start, finish in batches) / max(1, len(ledger.completed))


def overhead_share(untraced: float, traced: float) -> float:
    return (traced - untraced) / untraced


def kernel_layers(layers: Dict[str, float], log: KernelLog) -> None:
    layers.update(kernel_metrics(log, Roofline(seed=0)))
    spans = run_spans(log)
    layers["engine.run_ms_p50"] = 1e3 * median([end - start for start, end in spans])


def same_bits(outcome: Outcome, untraced: np.ndarray, traced: np.ndarray) -> None:
    if not np.array_equal(untraced, traced):
        outcome.fail("traced logits differ from untraced logits")


# ============================================================ offline ====
OFFLINE_MICRO_BATCH = 16
#: Requests per ``process()`` call: ~32 per task, so most micro-batches are
#: full and each task's tail shows up as a fill ratio below one.
OFFLINE_DRAIN = 96


def offline_loop(engine, pools, tasks, picks, seconds: float, ledger: Ledger) -> list:
    """Closed loop of ``process()`` drains for ``seconds``.

    The drain's requests are its client's requests: each is due when the
    call is made and done when it returns.  Gating runs after the loop.
    """
    from repro.engine import InferenceRequest

    drains = []
    stop_at = time.perf_counter() + seconds
    while time.perf_counter() < stop_at:
        first = len(ledger.records)
        draws = [(tasks[i % len(tasks)], int(picks[i % len(picks)]))
                 for i in range(first, first + OFFLINE_DRAIN)]
        requests = [InferenceRequest(first + i, task, pools[task][image])
                    for i, (task, image) in enumerate(draws)]
        t0 = time.perf_counter()
        outputs, stats = engine.process(requests, mode="pipelined")
        t1 = time.perf_counter()
        drains.append((requests, outputs, stats, t0, t1))
        for task, image in draws:
            record = Record(task, image, t0, t0)
            record.arrival, record.start, record.finish = t0, t0, t1
            ledger.records.append(record)
    return drains


def offline_resolve(outcome: Outcome, drains, ledger: Ledger, gate: Gate) -> None:
    records = iter(ledger.records)
    for requests, outputs, stats, _t0, _t1 in drains:
        if stats.num_images != len(requests) or len(outputs) != len(requests):
            outcome.fail(f"a drain of {len(requests)} returned {stats.num_images} images")
        for row in outputs:
            record = next(records)
            record.done = row is not None
            if record.done:
                gate.check(record.task, record.image, row)


def offline_3task(seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed-loop ``MultiTaskEngine`` drains, pipelined mode, dense tuned plan."""
    from repro.engine import MultiTaskEngine, chunk_requests, get_policy

    setups, deployment = set_up(lambda: deploy(
        CHILD_TASKS, CHILD_CLASSES, dead_fraction=0.0, specialize=False,
        tune_batch=OFFLINE_MICRO_BATCH,
    ))
    plan = deployment.plan
    outcome = Outcome()
    outcome.notes.append(choices_note(deployment))
    pools = image_pools(seed, CHILD_TASKS, IMAGES_PER_TASK, plan.input_shape)
    gate = Gate(deployment.plan_for, pools)
    capacity = int(5000 * seconds) + OFFLINE_DRAIN
    draws = rng_for(seed, "tasks").integers(0, len(CHILD_TASKS), size=capacity)
    tasks = [CHILD_TASKS[i] for i in draws]
    picks = image_draws(seed, capacity, IMAGES_PER_TASK)

    engine = MultiTaskEngine(plan, micro_batch=OFFLINE_MICRO_BATCH)
    warm = Ledger()
    offline_resolve(outcome, offline_loop(engine, pools, tasks, picks, 0.2, warm), warm, gate)
    window = seconds / 2 if trace else seconds
    ledger = Ledger()
    drains = offline_loop(engine, pools, tasks, picks, window, ledger)
    offline_resolve(outcome, drains, ledger, gate)
    durations = [t1 - t0 for *_, t0, t1 in drains]
    ledgers = [warm, ledger]
    if not trace:
        # Images per second at the median drain: one stalled drain on a
        # shared host moves a total-over-wall figure, not this one.
        throughput = OFFLINE_DRAIN / median(durations)
        end_to_end(outcome, ledger, throughput, throughput, setups, peak_rss_mb(),
                   deployment.plan_mb())
    else:
        log = KernelLog()
        traced_engine = MultiTaskEngine(traced_copy(plan, log), micro_batch=OFFLINE_MICRO_BATCH)
        probe = np.stack([pools[CHILD_TASKS[0]][i % IMAGES_PER_TASK] for i in range(16)])
        same_bits(outcome, plan.run(probe, CHILD_TASKS[0]),
                  traced_engine.plan.run(probe, CHILD_TASKS[0]))
        log.calls.clear()
        traced = Ledger()
        traced_drains = offline_loop(traced_engine, pools, tasks, picks, window, traced)
        offline_resolve(outcome, traced_drains, traced, gate)
        ledgers.append(traced)
        layers: Dict[str, float] = {}
        kernel_layers(layers, log)
        setup_layers(layers, setups)
        # Batches run in the pipelined policy's order; each one's queue wait
        # is from the drain call to its first kernel, its service until the
        # next batch starts (or the drain returns).
        spans = iter(run_spans(log))
        queue_ms, service_ms, rows, batches, switches = [], [], 0, 0, 0
        for requests, _outputs, stats, t0, t1 in traced_drains:
            order = get_policy("pipelined").order(chunk_requests(requests, OFFLINE_MICRO_BATCH))
            starts = [next(spans)[0] for _ in order] + [t1]
            for position, batch in enumerate(order):
                queue_ms += [1e3 * (starts[position] - t0)] * len(batch.requests)
                service_ms.append(1e3 * (starts[position + 1] - starts[position]))
                rows += len(batch.requests)
            batches += stats.num_batches
            switches += stats.task_switches
        traced_compute = sum(t1 - t0 for *_, t0, t1 in traced_drains)
        kernel_seconds = sum(end - start for start, end in run_spans(log))
        layers["client.latency_p50_ms"] = pct(traced.latencies_ms(), 50)
        layers["client.latency_p99_ms"] = pct(traced.latencies_ms(), 99)
        layers["engine.mac_reduction"] = traced_drains[-1][2].mac_reduction()
        layers["batcher.queue_wait_ms_p50"] = pct(queue_ms, 50)
        layers["batcher.queue_wait_ms_p99"] = pct(queue_ms, 99)
        layers["batcher.rows_per_batch"] = rows / batches
        layers["batcher.fill_ratio"] = rows / (batches * OFFLINE_MICRO_BATCH)
        layers["batcher.task_switches"] = switches
        layers["worker.service_ms_p50"] = pct(service_ms, 50)
        layers["worker.service_ms_p99"] = pct(service_ms, 99)
        layers["worker.busy_share"] = traced_compute / (traced_drains[-1][4] - traced_drains[0][3])
        layers["trace.overhead_share"] = overhead_share(
            sum(durations) / len(ledger.records), traced_compute / len(traced.records)
        )
        # Offline, the ledger's residual is the share of drain time spent
        # outside the plan's kernel loops (scheduling, stacking, heads).
        layers["ledger.residual_share"] = 1.0 - kernel_seconds / traced_compute
        traced_outcome(outcome, layers)
    outcome.count(ledgers)
    outcome.gate(gate)
    return outcome


# ============================================================ poisson ====
POISSON_MICRO_BATCH = 8
POISSON_MAX_WAIT = 0.005
#: Latency limit of the stepped-rate search, on the 90th percentile: a
#: step holds a few hundred requests, so p90 has tens of samples beyond it
#: where p99 would rest on a handful that one host stall decides.
POISSON_LIMIT_PERCENTILE = 90.0
POISSON_LIMIT_MS = 50.0
#: Rate at which the end-to-end latency and throughput are measured.
POISSON_REFERENCE_RPS = 300.0
#: Reference windows and rate sweeps alternate this many times per run, and
#: each end-to-end figure is the median over the rounds.
POISSON_ROUNDS = 5
#: Share of ``--seconds`` spent at the reference rate; the rest is swept.
POISSON_REFERENCE_SHARE = 0.4
#: Each sweep steps the rate up 7% at a time from below the knee, and ends
#: after three steps in a row miss the limit or when its budget runs out.
POISSON_FIRST_STEP_RPS = 1200.0
POISSON_STEP_RATIO = 1.07
POISSON_STEP_MISSES = 3
POISSON_STEP_SECONDS = 0.3


def trace_seed(seed: int, label: str) -> int:
    return int(rng_for(seed, label).integers(2**31 - 1))


def scrape(runtime, state: Dict[str, float], report_ms: List[float]) -> None:
    """``runtime.report()`` once a second, as a monitoring scrape would."""
    now = time.monotonic()
    if now >= state.setdefault("next", now + 1.0):
        with Stopwatch() as watch:
            runtime.report()
        report_ms.append(1e3 * watch.seconds)
        state["next"] = now + 1.0


def open_loop(runtime, tasks, rate, duration, seed, pools, picks, ledger, report_ms):
    """Submit a seeded Poisson trace on schedule into ``ledger``.

    Latency is measured from each request's due time, so a late generator
    or a stalled submit counts against the system.  Returns the futures and
    the backlog (requests not yet done) at the moment of the last arrival.
    """
    from repro.serving import AdmissionError, LoadGenerator

    count = max(1, int(math.ceil(rate * duration)))
    arrivals = LoadGenerator.uniform(tasks, rate, seed=seed).trace(count)
    futures, state = [], {}
    begin = time.monotonic() + 0.002
    for arrival in arrivals:
        due = begin + arrival.time
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        scrape(runtime, state, report_ms)
        image = int(picks[len(ledger.records) % len(picks)])
        record = Record(arrival.task, image, due, time.monotonic())
        try:
            future = runtime.submit(arrival.task, pools[arrival.task][image], block=False)
        except AdmissionError:
            future = None
        record.submit_s = time.monotonic() - record.called
        ledger.records.append(record)
        futures.append(future)
    backlog = sum(1 for f in futures if f is not None and not f.done())
    return futures, backlog


def poisson_3task(seed: int, seconds: float, trace: bool) -> Outcome:
    """Open-loop Poisson traffic, thread backend, specialized tuned plans."""
    from repro.serving import ServingRuntime

    def runtime_for(deployment, plan=None, specialized=None):
        return ServingRuntime(
            plan or deployment.plan, policy="fifo-deadline",
            micro_batch=POISSON_MICRO_BATCH, max_wait=POISSON_MAX_WAIT, workers=1,
            specialized=deployment.specialized if specialized is None else specialized,
        )

    setups, deployment = set_up(lambda: deploy(
        CHILD_TASKS, CHILD_CLASSES, dead_fraction=0.65, specialize=True,
        tune_batch=POISSON_MICRO_BATCH, start=runtime_for,
    ))
    runtime = deployment.runtime
    outcome = Outcome()
    outcome.notes.append(choices_note(deployment))
    tasks = list(CHILD_TASKS)
    pools = image_pools(seed, tasks, IMAGES_PER_TASK, deployment.plan.input_shape)
    gate = Gate(deployment.plan_for, pools)
    picks = image_draws(seed, 1 << 16, IMAGES_PER_TASK)
    report_ms: List[float] = []

    def phase(target, rate, duration, label, reports=report_ms):
        ledger = Ledger()
        futures, backlog = open_loop(
            target, tasks, rate, duration, trace_seed(seed, label), pools, picks, ledger, reports
        )
        resolve(ledger.records, futures, gate)
        return ledger, backlog

    warm, _ = phase(runtime, 200.0, 0.25, "warm")  # first batches size the workspaces
    ledgers = [warm]
    if not trace:
        window = seconds * POISSON_REFERENCE_SHARE / POISSON_ROUNDS
        sweep_budget = seconds * (1.0 - POISSON_REFERENCE_SHARE) / POISSON_ROUNDS
        reference, p50s, rates, walls = Ledger(), [], [], []
        for round_ in range(POISSON_ROUNDS):
            window_ledger, _ = phase(runtime, POISSON_REFERENCE_RPS, window, f"reference{round_}")
            ledgers.append(window_ledger)
            reference.records += window_ledger.records
            p50s.append(pct(window_ledger.latencies_ms(), 50))
            walls.append(
                max(r.finish for r in window_ledger.completed)
                - min(r.due for r in window_ledger.records)
            )
            steps = sweep(runtime, phase, sweep_budget, round_, ledgers, outcome)
            rates.append(max_rate(steps))
        rss = peak_rss_mb()
        reconcile(outcome, runtime.stop(), ledgers)
        throughput = len(reference.completed) / sum(walls)
        end_to_end(outcome, reference, throughput, median(rates), setups, rss,
                   deployment.plan_mb(), latency_p50=median(p50s))
        outcome.notes.append(
            f"reference p50 per round {[round(v, 2) for v in p50s]} ms, "
            f"max rate per sweep {[round(v) for v in rates]} req/s"
        )
    else:
        window = seconds / 2
        reference, _ = phase(runtime, POISSON_REFERENCE_RPS, window, "reference")
        ledgers.append(reference)
        reconcile(outcome, runtime.stop(), ledgers)
        log = KernelLog()
        traced_specialized = {
            name: traced_copy(plan, log) for name, plan in deployment.specialized.items()
        }
        probe = pools[tasks[0]]
        same_bits(outcome, deployment.plan_for(tasks[0]).run(probe, tasks[0]),
                  traced_specialized[tasks[0]].run(probe, tasks[0]))
        log.calls.clear()
        traced_runtime = runtime_for(deployment, traced_copy(deployment.plan, log),
                                     traced_specialized)
        traced_runtime.start()
        traced_reports: List[float] = []
        begin = time.monotonic()
        traced, _ = phase(traced_runtime, POISSON_REFERENCE_RPS, window, "reference",
                          traced_reports)
        wall = max(r.finish for r in traced.completed) - begin
        traced_report = traced_runtime.stop()
        reconcile(outcome, traced_report, [traced])
        ledgers.append(traced)
        layers: Dict[str, float] = {}
        kernel_layers(layers, log)
        serving_layers(layers, traced, traced_report, POISSON_MICRO_BATCH, 1, wall,
                       traced_reports)
        setup_layers(layers, setups)
        layers["loadgen.lag_p99_ms"] = pct([1e3 * (r.called - r.due) for r in traced.records], 99)
        layers["trace.overhead_share"] = overhead_share(
            service_per_image(reference), service_per_image(traced)
        )
        outcome.notes.append(
            f"ledger: queue p50 {layers['batcher.queue_wait_ms_p50']:.2f} ms + service p50 "
            f"{layers['worker.service_ms_p50']:.2f} ms = "
            f"{layers['batcher.queue_wait_ms_p50'] + layers['worker.service_ms_p50']:.2f} ms "
            f"vs latency p50 {layers['client.latency_p50_ms']:.2f} ms traced, "
            f"{pct(reference.latencies_ms(), 50):.2f} ms untraced"
        )
        traced_outcome(outcome, layers)
    outcome.count(ledgers)
    outcome.gate(gate)
    return outcome


def sweep(runtime, phase, budget, round_, ledgers, outcome) -> List[Tuple[float, float, bool]]:
    """Step the rate up until ``POISSON_STEP_MISSES`` steps in a row miss
    the limit, or the budget runs out: a step stalled by the host below the
    knee does not end the search, a saturated system does.  Returns
    ``(rate, p90, sustained)`` per step."""
    rate, steps = POISSON_FIRST_STEP_RPS, []
    misses = [False] * POISSON_STEP_MISSES
    while budget >= POISSON_STEP_SECONDS and [ok for *_, ok in steps[-len(misses):]] != misses:
        step, backlog = phase(runtime, rate, POISSON_STEP_SECONDS, f"sweep{round_}-{rate:.0f}")
        ledgers.append(step)
        budget -= POISSON_STEP_SECONDS
        tail = pct(step.latencies_ms(), POISSON_LIMIT_PERCENTILE)
        sustained = (
            step.failed == 0
            and tail <= POISSON_LIMIT_MS
            and backlog <= rate * POISSON_LIMIT_MS / 1e3
        )
        outcome.notes.append(
            f"sweep {round_} step {rate:.0f} req/s: p50 {pct(step.latencies_ms(), 50):.1f} ms, "
            f"p90 {tail:.1f} ms (n={len(step.completed)}), backlog {backlog}, "
            f"{'sustained' if sustained else 'over the limit'}"
        )
        steps.append((rate, tail, sustained))
        rate *= POISSON_STEP_RATIO
    return steps


def max_rate(steps: Sequence[Tuple[float, float, bool]]) -> float:
    """The highest sustained stepped rate, interpolated on the limit's
    percentile toward the step above it, so the figure is not quantised to
    the step grid."""
    sustained = [index for index, (*_, ok) in enumerate(steps) if ok]
    if not sustained:
        return POISSON_FIRST_STEP_RPS / POISSON_STEP_RATIO
    index = sustained[-1]
    rate_ok, tail_ok, _ = steps[index]
    if index + 1 == len(steps):
        return rate_ok
    rate_bad, tail_bad, _ = steps[index + 1]
    share = (POISSON_LIMIT_MS - tail_ok) / (tail_bad - tail_ok) if tail_bad > tail_ok else 0.0
    return rate_ok + (rate_bad - rate_ok) * min(1.0, max(0.0, share))


# =============================================================== zipf ====
ZIPF_TASKS = 100
ZIPF_CLASSES = 10
ZIPF_MICRO_BATCH = 16
ZIPF_MAX_WAIT = 0.02
ZIPF_IMAGES_PER_TASK = 4
#: Worker processes of the bounded runs.  At nproc workers, each inheriting
#: the BLAS thread count, the fleet is bimodal on a 2-core host: the
#: workers' BLAS threads spin and starve the parent's dispatcher, and the
#: throughput flips between ~100 and ~330 img/s regimes that last ~10 s, so
#: no run length the benchmark can afford is steady.  One worker keeps IPC,
#: the spawn pickle and coalescing in the bounded runs; the traced run
#: measures the nproc fleet too, as the ``contention.*`` metrics.
ZIPF_WORKERS = 1
#: Share of the traced half of a run spent on the nproc fleet.
ZIPF_CONTENTION_SHARE = 0.25


def closed_loop(runtime, task_names, seed, pools, picks, seconds, ledger, report_ms):
    """One blocking submitter for ``seconds``; returns the futures.

    Latency runs from each ``submit`` call, which blocks while the bounded
    queue is full: that wait is the closed loop's admission delay.
    """
    from repro.serving import AdmissionError, LoadGenerator

    arrivals = LoadGenerator.zipf(task_names, rate=1000.0, seed=seed).trace(4096)
    futures, state = [], {}
    stop_at = time.monotonic() + seconds
    while time.monotonic() < stop_at:
        scrape(runtime, state, report_ms)
        task = arrivals[len(futures) % len(arrivals)].task
        image = int(picks[len(futures) % len(picks)])
        now = time.monotonic()
        record = Record(task, image, now, now)
        try:
            future = runtime.submit(task, pools[task][image], block=True)
        except AdmissionError:
            future = None
        record.submit_s = time.monotonic() - record.called
        ledger.records.append(record)
        futures.append(future)
    return futures


def zipf_100task(seed: int, seconds: float, trace: bool) -> Outcome:
    """Closed loop, 100 zipf tasks, coalescing, process backend."""
    from repro.serving import BACKENDS

    task_names = [f"task{index:03d}" for index in range(ZIPF_TASKS)]

    def runtime_for(deployment, workers=ZIPF_WORKERS):
        return BACKENDS["process"](
            deployment.plan, policy="fifo-deadline", micro_batch=ZIPF_MICRO_BATCH,
            max_wait=ZIPF_MAX_WAIT, workers=workers, coalesce=True,
            max_pending=2 * ZIPF_MICRO_BATCH,
        )

    setups, deployment = set_up(lambda: deploy(
        task_names, [ZIPF_CLASSES] * ZIPF_TASKS, dead_fraction=0.3, specialize=False,
        tune_batch=ZIPF_MICRO_BATCH, start=runtime_for,
    ))
    outcome = Outcome()
    outcome.notes.append(choices_note(deployment))
    pools = image_pools(seed, task_names, ZIPF_IMAGES_PER_TASK, deployment.plan.input_shape)
    gate = Gate(deployment.plan_for, pools)
    picks = image_draws(seed, 1 << 16, ZIPF_IMAGES_PER_TASK)
    report_ms: List[float] = []

    def measure(runtime, window, label):
        ledger = Ledger()
        begin = time.monotonic()
        futures = closed_loop(runtime, task_names, trace_seed(seed, label), pools, picks,
                              window, ledger, report_ms)
        resolve(ledger.records, futures, gate)
        return ledger, max(r.finish for r in ledger.completed) - begin

    def fleet(workers, window, label):
        """A fresh fleet, warmed, measured for ``window``, stopped."""
        runtime = runtime_for(deployment, workers)
        runtime.start()
        warm, _ = measure(runtime, 0.3, f"warm-{label}")
        report_ms.clear()
        ledger, wall = measure(runtime, window, label)
        report = runtime.stop()
        reconcile(outcome, report, [warm, ledger])
        ledgers.extend([warm, ledger])
        return ledger, wall, report

    runtime = deployment.runtime
    warm, _ = measure(runtime, 0.3, "warm")  # workers size their workspaces
    window = seconds / 2 if trace else seconds
    ledger, wall = measure(runtime, window, "measure")
    rss = peak_rss_mb([child.pid for child in multiprocessing.active_children()])
    reconcile(outcome, runtime.stop(), [warm, ledger])
    ledgers = [warm, ledger]
    throughput = len(ledger.completed) / wall
    if not trace:
        # A closed loop's offered rate is its completion rate, so its
        # backlog never grows: the highest sustained rate is the throughput.
        end_to_end(outcome, ledger, throughput, throughput, setups, rss, deployment.plan_mb())
    else:
        # Spawned workers rebuild their plans from PlanSpecs, out of the
        # proxies' reach: the traced half re-runs the closed loop on a fresh
        # fleet for the request ledger, and the kernels are timed on a traced
        # copy in this process over the same zipf-mixed micro-batches.
        window *= 1.0 - ZIPF_CONTENTION_SHARE
        traced, traced_wall, traced_report = fleet(ZIPF_WORKERS, window, "measure")
        layers: Dict[str, float] = {}
        serving_layers(layers, traced, traced_report, ZIPF_MICRO_BATCH, ZIPF_WORKERS,
                       traced_wall, report_ms)
        setup_layers(layers, setups)
        log = KernelLog()
        traced_plan = traced_copy(deployment.plan, log)
        rows = [(r.task, r.image) for r in traced.records[: 32 * ZIPF_MICRO_BATCH]]
        for start in range(0, len(rows) - ZIPF_MICRO_BATCH + 1, ZIPF_MICRO_BATCH):
            chunk = rows[start:start + ZIPF_MICRO_BATCH]
            images = np.stack([pools[task][image] for task, image in chunk])
            names = [task for task, _ in chunk]
            out = traced_plan.run_mixed(images, names)
            if start == 0:
                same_bits(outcome, deployment.plan.run_mixed(images, names), out)
                log.calls.clear()
        kernel_layers(layers, log)
        layers["trace.overhead_share"] = overhead_share(
            service_per_image(ledger), service_per_image(traced)
        )
        outcome.notes.append(explain_throughput(
            ZIPF_WORKERS, layers["worker.busy_share"], traced, traced_wall, throughput
        ))
        workers = usable_cpus()
        contended, contended_wall, _ = fleet(workers, seconds / 2 * ZIPF_CONTENTION_SHARE,
                                              "nproc")
        batches = contended.batches()
        contended_busy = sum(f - s for s, f in batches) / (workers * contended_wall)
        layers["contention.workers"] = workers
        layers["contention.throughput_ips"] = len(contended.completed) / contended_wall
        layers["contention.busy_share"] = contended_busy
        layers["contention.service_ms_p50"] = 1e3 * median([f - s for s, f in batches])
        outcome.notes.append(explain_throughput(
            workers, contended_busy, contended, contended_wall, None
        ))
        traced_outcome(outcome, layers)
    outcome.count(ledgers)
    outcome.gate(gate)
    return outcome


def explain_throughput(workers, busy, ledger, wall, untraced) -> str:
    """throughput = workers x busy share / service seconds per image."""
    per_image = service_per_image(ledger)
    text = (
        f"ledger at {workers} worker(s): busy share {busy:.2f} / {1e3 * per_image:.2f} ms "
        f"service per image = {workers * busy / per_image:.0f} img/s vs "
        f"{len(ledger.completed) / wall:.0f} img/s delivered"
    )
    return text + (f" ({untraced:.0f} untraced)" if untraced is not None else "")


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "offline-3task": offline_3task,
    "poisson-3task": poisson_3task,
    "zipf-100task": zipf_100task,
}

#: End-to-end metrics (``--trace 0``), with units.
E2E_UNITS = {
    "throughput_ips": "img/s",
    "latency_p50_ms": "ms",
    "max_rate_rps": "req/s",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "plan_mb": "MB",
}

#: Kernel names of the vgg_small backbone, fixed by the model definition.
GEMM_KERNELS = ("gemm0", "gemm1", "gemm3", "gemm4", "gemm6", "gemm7", "gemm10")
POOL_KERNELS = ("pool2", "pool5", "pool8")
_KERNEL_UNITS = {"ms": "ms", "gflops": "GFLOP/s", "gbps": "GB/s", "roofline_share": "ratio"}

#: Per-layer metrics (``--trace 1``), with units.
LAYER_UNITS: Dict[str, str] = {
    name: _KERNEL_UNITS[name.rsplit(".", 1)[1]]
    for name in kernel_metric_names(GEMM_KERNELS, POOL_KERNELS)
}
LAYER_UNITS.update({
    "engine.run_ms_p50": "ms",
    "engine.mac_reduction": "ratio",
    "serving.submit_us_p50": "us",
    "serving.submit_us_p99": "us",
    "serving.rejected": "count",
    "metrics.report_ms": "ms",
    "batcher.queue_wait_ms_p50": "ms",
    "batcher.queue_wait_ms_p99": "ms",
    "batcher.rows_per_batch": "rows",
    "batcher.fill_ratio": "ratio",
    "batcher.task_switches": "count",
    "worker.service_ms_p50": "ms",
    "worker.service_ms_p99": "ms",
    "worker.busy_share": "ratio",
    "sharded.start_s": "s",
    "sharded.redispatched": "count",
    "sharded.restarts": "count",
    "planspec.pickle_mb": "MB",
    "setup.build_s": "s",
    "setup.tune_s": "s",
    "setup.specialize_s": "s",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_share": "ratio",
    "client.latency_p50_ms": "ms",
    "client.latency_p99_ms": "ms",
    "ledger.residual_share": "ratio",
    "contention.workers": "count",
    "contention.throughput_ips": "img/s",
    "contention.busy_share": "ratio",
    "contention.service_ms_p50": "ms",
})
LAYER_NAMES = tuple(LAYER_UNITS)
