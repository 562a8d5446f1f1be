"""The multi-task serving engine: request intake, micro-batching, scheduling.

A :class:`MultiTaskEngine` wraps a compiled :class:`~repro.engine.plan.EnginePlan`
and accepts ``(task, image)`` requests from any mix of tasks.  Requests are
grouped into per-task micro-batches and executed under a pluggable
:class:`~repro.engine.scheduling.SchedulingPolicy`:

* ``"singular"`` — all requests of one task are drained before the next task
  starts (Singular task mode: task switches are rare, parameter reloads
  amortise over the whole per-task queue);
* ``"pipelined"`` — micro-batches round-robin across the active tasks
  (Pipelined task mode: consecutive batches belong to different tasks, the
  scenario where MIME's O(1) threshold-only switch pays off most);
* ``"fifo-deadline"`` / ``"weighted-fair"`` — arrival/deadline- and
  share-ordered policies shared with the online
  :class:`~repro.serving.ServingRuntime`;
* ``"coalescing"`` — deadline-first, then sticky to the current coalescing
  group, the policy of the many-task regime where one batch mixes the rows
  of tasks sharing a backbone.

Results always come back in submission order regardless of the execution
order, and every run records achieved per-layer sparsity into a
:class:`~repro.engine.stats.SparsityRecorder` so the hardware simulator can be
driven by measured numbers (:meth:`MultiTaskEngine.hardware_report`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.plan import EnginePlan, RunContext
from repro.engine.scheduling import (
    SCHEDULING_MODES,
    InferenceRequest,
    SchedulingPolicy,
    chunk_requests,
    get_policy,
)
from repro.engine.stats import SparsityRecorder
from repro.hardware.scenario import ExecutionConfig, mime_config
from repro.hardware.simulator import BatchResult, SystolicArraySimulator
from repro.models.shapes import LayerShape
from repro.utils.ratios import fraction_saved

__all__ = [
    "SCHEDULING_MODES",
    "EngineRunStats",
    "InferenceRequest",
    "MultiTaskEngine",
    "recorder_hardware_report",
]


@dataclass
class EngineRunStats:
    """Operational counters for one :meth:`MultiTaskEngine.process` call."""

    mode: str
    num_images: int = 0
    num_batches: int = 0
    task_switches: int = 0
    batch_tasks: List[str] = field(default_factory=list)
    #: MACs an unspecialized dense plan would have executed for these images.
    dense_macs: int = 0
    #: MACs actually executed (after plan specialization).  Equal to
    #: :attr:`dense_macs` on a plain dense run.
    effective_macs: int = 0
    #: Batches served by a per-task specialized plan.
    specialized_batches: int = 0

    def mac_reduction(self) -> float:
        """Fraction of dense MACs avoided (0.0 when nothing was saved)."""
        return fraction_saved(self.dense_macs, self.effective_macs)

    def summary(self) -> str:
        """One line suitable for logs and the CLI."""
        mean = self.num_images / self.num_batches if self.num_batches else 0.0
        line = (
            f"[{self.mode}] {self.num_images} images in {self.num_batches} "
            f"micro-batches (mean size {mean:.1f}), {self.task_switches} task switches"
        )
        if self.dense_macs:
            line += (
                f", effective MACs {self.effective_macs:,} / {self.dense_macs:,} dense "
                f"({100.0 * self.mac_reduction():.1f}% saved)"
            )
        return line


def recorder_hardware_report(
    recorder: SparsityRecorder,
    shapes: Sequence[LayerShape],
    config: ExecutionConfig | None = None,
    simulator: SystolicArraySimulator | None = None,
    conv_only: bool = False,
    default_sparsity: float = 0.0,
) -> BatchResult:
    """Drive the systolic-array simulator with a recorder's *measured* run.

    Uses the recorded processing order as the schedule and the measured
    sparsity as the profile, so the energy/cycle estimate reflects what was
    actually executed rather than a static table.  Shared by the offline
    engine and the online serving runtime.
    """
    schedule = recorder.schedule()
    if not schedule:
        raise RuntimeError("no requests processed yet; nothing to simulate")
    simulator = simulator if simulator is not None else SystolicArraySimulator()
    config = config if config is not None else mime_config()
    result = simulator.run(
        shapes,
        schedule,
        recorder.to_profile(default_sparsity=default_sparsity),
        config,
        conv_only=conv_only,
    )
    # Surface the engine's *software* MAC counts next to the analytical model:
    # the simulator estimates what the accelerator would skip, the recorder
    # reports what the CPU engine actually executed after specialization.
    result.measured_dense_macs, result.measured_effective_macs = recorder.mac_totals()
    return result


class MultiTaskEngine:
    """Micro-batching multi-task scheduler over a compiled engine plan.

    The :attr:`recorder` accumulates over the engine's **whole lifetime**:
    every :meth:`process`/:meth:`run_pending` call appends to the same
    measured schedule and sparsity totals, and :meth:`hardware_report`
    therefore simulates everything served since construction (or since the
    last :meth:`reset_stats`).  Pass ``fresh_stats=True`` to a run to reset
    the window first when you want per-run numbers.
    """

    def __init__(
        self,
        plan: EnginePlan,
        micro_batch: int = 8,
        specialized: Optional[Dict[str, EnginePlan]] = None,
    ) -> None:
        if micro_batch <= 0:
            raise ValueError("micro_batch must be positive")
        self.plan = plan
        self.micro_batch = micro_batch
        #: Per-task specialized plans (see :func:`repro.engine.specialize.
        #: specialize_tasks`); batches of a listed task execute its compacted
        #: plan, everything else falls back to the shared dense plan.
        self.specialized: Dict[str, EnginePlan] = dict(specialized) if specialized else {}
        for name in self.specialized:
            if name not in plan.tasks:
                raise KeyError(f"specialized plan for unknown task '{name}'")
        self.recorder = SparsityRecorder()
        #: Task of the last batch executed by this engine, across process()
        #: calls, so task-switch accounting spans drains.
        self.last_task: Optional[str] = None
        self._queue: List[InferenceRequest] = []
        self._submitted = 0

    def plan_for(self, task: str) -> EnginePlan:
        """The plan a batch of ``task`` executes (specialized when available)."""
        return self.specialized.get(task, self.plan)

    def specialize(
        self,
        profile=None,
        tasks: Optional[Sequence[str]] = None,
        dead_threshold: float = 0.0,
        calibration_batch: int = 32,
        calibration_seed: int = 0,
    ) -> Dict[str, EnginePlan]:
        """Calibrate (when no ``profile`` is given) and install per-task plans.

        Convenience wrapper over :func:`repro.engine.specialize.specialize_tasks`;
        the installed mapping is also returned for inspection.
        """
        from repro.engine.specialize import specialize_tasks

        self.specialized.update(
            specialize_tasks(
                self.plan,
                profile=profile,
                tasks=tasks,
                dead_threshold=dead_threshold,
                calibration_batch=calibration_batch,
                calibration_seed=calibration_seed,
            )
        )
        return self.specialized

    # ---------------------------------------------------------------- intake --
    def submit(
        self, task: str, images: np.ndarray, deadline: Optional[float] = None
    ) -> List[int]:
        """Enqueue one image ``(C, H, W)`` or a stack ``(N, C, H, W)``.

        Returns the request indices, which identify each image's slot in the
        output of the next :meth:`run_pending` call.  ``deadline`` (a
        ``time.monotonic()`` timestamp) is only consulted by deadline-aware
        scheduling policies.
        """
        if task not in self.plan.tasks:
            raise KeyError(f"unknown task '{task}'; compiled: {self.plan.task_names()}")
        images = np.asarray(images)
        if images.ndim == 3:
            images = images[None, ...]
        if images.ndim != 4 or images.shape[1:] != self.plan.input_shape:
            raise ValueError(
                f"expected images of per-sample shape {self.plan.input_shape}, "
                f"got {images.shape}"
            )
        arrival = time.monotonic()
        indices = []
        for image in images:
            # Copy at enqueue time so callers may reuse their staging buffer
            # between submit() and run_pending().
            self._queue.append(
                InferenceRequest(self._submitted, task, image.copy(), arrival, deadline)
            )
            indices.append(self._submitted)
            self._submitted += 1
        return indices

    def pending(self) -> int:
        return len(self._queue)

    def run_pending(
        self, mode: str | SchedulingPolicy = "pipelined", fresh_stats: bool = False
    ) -> Tuple[List[np.ndarray], EngineRunStats]:
        """Drain the queue; returns per-request logits in submission order."""
        requests, self._queue = self._queue, []
        return self.process(requests, mode=mode, fresh_stats=fresh_stats)

    def reset_stats(self) -> None:
        """Start a fresh measurement window: clear the recorder and last task."""
        self.recorder.reset()
        self.last_task = None

    # ------------------------------------------------------------- execution --
    def process(
        self,
        requests: Sequence[InferenceRequest],
        mode: str | SchedulingPolicy = "pipelined",
        fresh_stats: bool = False,
    ) -> Tuple[List[np.ndarray], EngineRunStats]:
        """Execute ``requests`` under the ``mode`` scheduling policy.

        The returned list is aligned with ``requests`` (first-submitted first),
        each entry a ``(num_classes,)`` logits vector.  ``fresh_stats=True``
        resets the recorder (and :attr:`last_task`) before executing, so the
        subsequent :meth:`hardware_report` covers exactly this run.
        """
        policy = get_policy(mode)
        if fresh_stats:
            self.reset_stats()
        stats = EngineRunStats(mode=policy.name)
        position = {request.index: slot for slot, request in enumerate(requests)}
        outputs: List[Optional[np.ndarray]] = [None] * len(requests)
        previous_task = self.last_task
        for batch in policy.order(chunk_requests(requests, self.micro_batch)):
            images = np.stack([request.image for request in batch.requests])
            plan = self.plan_for(batch.task)
            ctx = RunContext()
            logits = plan.run(images, batch.task, recorder=self.recorder, ctx=ctx)
            self.recorder.record_pass(batch.task, len(batch))
            self.recorder.record_macs(ctx.dense_macs, ctx.effective_macs)
            for request, row in zip(batch.requests, logits):
                outputs[position[request.index]] = row
            stats.num_images += len(batch)
            stats.num_batches += 1
            stats.batch_tasks.append(batch.task)
            stats.dense_macs += ctx.dense_macs
            stats.effective_macs += ctx.effective_macs
            if plan is not self.plan:
                stats.specialized_batches += 1
            if previous_task is not None and previous_task != batch.task:
                stats.task_switches += 1
            previous_task = batch.task
        self.last_task = previous_task
        assert all(output is not None for output in outputs), "scheduler dropped a request"
        return outputs, stats

    # --------------------------------------------------------- hardware glue --
    def sparsity_profile(self, default_sparsity: float = 0.0):
        """Measured per-task, per-layer sparsity as a simulator-ready profile."""
        return self.recorder.to_profile(default_sparsity=default_sparsity)

    def hardware_report(
        self,
        shapes: Sequence[LayerShape],
        config: ExecutionConfig | None = None,
        simulator: SystolicArraySimulator | None = None,
        conv_only: bool = False,
    ) -> BatchResult:
        """Drive the systolic-array simulator with this engine's *measured* run.

        The schedule and sparsity cover the recorder's whole lifetime — every
        request processed since construction or the last
        :meth:`reset_stats`/``fresh_stats=True`` run — not just the most
        recent :meth:`process` call.
        """
        return recorder_hardware_report(
            self.recorder, shapes, config=config, simulator=simulator, conv_only=conv_only
        )
