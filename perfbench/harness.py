"""Seeded inputs, the correctness gate, host fingerprint and statistics.

Everything a workload needs that is not the system under test lives here:
the seed-derived images and task draws, the per-(task, image) reference
logits every delivered row is checked against, the per-request timestamp
ledger, and the small statistics the metrics are computed with.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Backbone of every workload: vgg_small at 32x32 with three input channels,
#: built from this fixed seed so the *program* is identical across runs and
#: only the workload seed (images, task draws, arrivals) varies.
MODEL_SEED = 1234
INPUT_SIZE = 32
NUM_CLASSES = 10

#: Kernel variants whose per-row output is bit-identical under any batch
#: regrouping (``matmul_rowsafe`` keeps one reduction order per row).  A plan
#: built only from these is gated for exact equality; any other variant, or
#: a compacted specialized plan, is held to the repo's declared float32
#: tolerance (:func:`repro.engine.winograd_tolerance`).
EXACT_VARIANTS = frozenset({"im2col", "blocked", "packed", "dense", "reshape", "views"})

#: Thread-count variables of the BLAS/OpenMP runtimes, recorded as inherited.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "OMP_PROC_BIND",
    "OMP_PLACES",
)


# ------------------------------------------------------------------ inputs --
def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, named stream)."""
    salt = int.from_bytes(stream.encode()[:8].ljust(8, b"\0"), "little")
    return np.random.default_rng([seed, salt])


def image_pools(
    seed: int, tasks: Sequence[str], per_task: int, input_shape: Tuple[int, ...]
) -> Dict[str, np.ndarray]:
    """``{task: (per_task, C, H, W)}`` float32 images drawn from ``seed``."""
    rng = rng_for(seed, "images")
    return {
        task: rng.standard_normal((per_task,) + tuple(input_shape)).astype(np.float32)
        for task in tasks
    }


def image_draws(seed: int, count: int, per_task: int) -> np.ndarray:
    """Which pool image each of ``count`` requests sends."""
    return rng_for(seed, "picks").integers(0, per_task, size=count)


# ----------------------------------------------------------- correctness --
def gate_tolerance(plan) -> Optional[Dict[str, float]]:
    """``None`` (bit-exact) or the ``allclose`` tolerance ``plan`` is held to."""
    from repro.engine import SpecializedEnginePlan, winograd_tolerance

    variants = {getattr(k, "variant", "dense") for k in plan.kernels if hasattr(k, "variant")}
    compact = isinstance(plan, SpecializedEnginePlan) and plan.compact_reduction
    if variants <= EXACT_VARIANTS and not compact:
        return None
    return winograd_tolerance(plan.dtype)


class Gate:
    """Per-(task, image) reference logits, computed at set-up with
    ``plan_for(task).run``, against which every delivered row is checked.

    A row passes when its argmax equals the reference's and its values are
    equal (bit-exact paths) or within the path's declared tolerance.
    """

    def __init__(self, plan_for, pools: Dict[str, np.ndarray]) -> None:
        self.references: Dict[str, np.ndarray] = {}
        self.tolerance: Dict[str, Optional[Dict[str, float]]] = {}
        for task, images in pools.items():
            plan = plan_for(task)
            self.references[task] = plan.run(images, task)
            self.tolerance[task] = gate_tolerance(plan)
        self.checked = 0
        self.failures = 0
        self.examples: List[str] = []

    def check(self, task: str, image: int, row: np.ndarray) -> bool:
        self.checked += 1
        reference = self.references[task][image]
        tolerance = self.tolerance[task]
        if int(np.argmax(row)) != int(np.argmax(reference)):
            ok = False
        elif tolerance is None:
            ok = np.array_equal(row, reference)
        else:
            ok = bool(np.allclose(row, reference, **tolerance))
        if not ok:
            self.failures += 1
            if len(self.examples) < 5:
                diff = float(np.max(np.abs(np.asarray(row, np.float64) - reference)))
                self.examples.append(f"{task} image {image}: max |diff| {diff:.3g}")
        return ok


# ------------------------------------------------------------ the ledger --
@dataclass
class Record:
    """One request as the client saw it, plus the runtime's timestamps.

    ``due`` is when the request should have been sent (open loop) or when the
    client called ``submit`` (closed loop); ``called`` when it did call;
    ``arrival``/``start``/``finish`` are :class:`ServingResult`'s admission,
    worker-start and logits-ready times, all on ``time.monotonic``.
    """

    task: str
    image: int
    due: float
    called: float
    submit_s: float = 0.0
    arrival: Optional[float] = None
    start: Optional[float] = None
    finish: Optional[float] = None
    done: bool = False


@dataclass
class Ledger:
    records: List[Record] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def completed(self) -> List[Record]:
        return [r for r in self.records if r.done]

    @property
    def failed(self) -> int:
        return self.attempted - len(self.completed)

    def latencies_ms(self) -> List[float]:
        return [1e3 * (r.finish - r.due) for r in self.completed]

    def batches(self) -> Dict[Tuple[float, float], List[Record]]:
        """Completed requests grouped by executed micro-batch.

        Every row of one micro-batch carries the same (start, finish) pair,
        which is how batches are identified from outside the runtime.
        """
        groups: Dict[Tuple[float, float], List[Record]] = {}
        for record in self.completed:
            groups.setdefault((record.start, record.finish), []).append(record)
        return groups


def resolve(records: Sequence[Record], futures, gate: Gate, timeout: float = 60.0) -> None:
    """Wait for each future, gate its logits and copy its timestamps."""
    for record, future in zip(records, futures):
        if future is None:
            continue
        try:
            row = future.result(timeout=timeout)
        except Exception:  # a failed request: counted, never gated
            continue
        record.arrival, record.start, record.finish = (
            future.arrival_time, future.start_time, future.finish_time,
        )
        record.done = True
        gate.check(record.task, record.image, row)


# ------------------------------------------------------------- statistics --
def pct(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty population."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return pct(values, 50)


class Stopwatch:
    """``with Stopwatch() as w: ...`` then ``w.seconds``."""

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start


# -------------------------------------------------------------------- host --
def host_fingerprint() -> Dict[str, object]:
    """nproc, Python, numpy, the BLAS build and the thread variables as
    inherited (``None`` = unset; the benchmark never sets them)."""
    blas: object = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {key: info.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "nproc": usable_cpus(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def usable_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _vm_hwm_kb(pid: int | str) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(children: Sequence[int] = ()) -> float:
    """Peak resident set of this process plus the given live children, MB.

    Sums each process's own high-water mark (``VmHWM``), so it bounds the
    peak of the sum from above.  Falls back to ``getrusage`` where ``/proc``
    is missing.
    """
    own = _vm_hwm_kb("self")
    if not own:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB on Linux
        if sys.platform == "darwin":  # bytes on macOS
            own //= 1024
    return (own + sum(_vm_hwm_kb(pid) for pid in children)) / 1024.0


def stop_children(timeout: float = 10.0) -> None:
    """End every process this run started and wait until each has ended.

    Worker processes a runtime left behind (a workload that raised before
    its ``stop()``) are terminated and joined.  Then multiprocessing's own
    exit hook runs now rather than at interpreter exit, so the finalizers
    that unlink the queues' semaphores cannot restart the resource tracker
    after it is gone.  The tracker, started with the first shared-memory
    segment, would otherwise outlive the run: it is stopped and reaped last,
    once no worker holds its pipe open.
    """
    import multiprocessing
    import multiprocessing.util

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    multiprocessing.util._exit_function()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is None:
        return
    tracker = tracker_module._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()
    elif getattr(tracker, "_fd", None) is not None:  # Pythons before _stop()
        os.close(tracker._fd)
        tracker._fd = None
        if tracker._pid is not None:
            os.waitpid(tracker._pid, 0)
            tracker._pid = None
