"""Online recalibration: measure → detect drift → re-specialize → hot-swap.

PR 3 made specialization a *manual* pipeline: calibrate offline, specialize,
hand the plans to a runtime.  This module closes the loop for a live service.
A :class:`RecalibrationLoop` periodically reads the fleet-wide per-channel
survival the serving runtime measured on **real traffic**
(:meth:`~repro.engine.SparsityRecorder.survival_profile` via
:meth:`~repro.serving.base.BaseRuntime.current_recorder`, which merges live
worker snapshots on the process backend), compares it against the
:class:`~repro.engine.CalibrationProfile` the currently-served plans were
specialized from, and — when the traffic has drifted — re-runs
:func:`~repro.engine.specialize_tasks` on the live profile and hot-swaps the
result into the runtime with zero dropped requests
(:meth:`~repro.serving.base.BaseRuntime.swap`).  Optionally every swap is
also published to a :class:`~repro.artifacts.ModelStore`, so the deployed
history stays reproducible.

Drift is judged two ways, both per (task, layer, channel):

* **rate drift** — the maximum absolute difference between live and baseline
  survival rates (``drift_threshold``);
* **classification flips** — channels whose dead/live verdict at
  ``dead_threshold`` changed, i.e. exactly the channels whose elimination
  status the specializer would decide differently today.

One observability caveat is inherent to serving specialized plans: a channel
the current specialization *eliminated* can never be observed firing again
(its work is simply not executed), so recalibration can tighten a
specialization as channels die but can only widen it for channels that were
kept.  Serve the dense plan for a fraction of traffic — or recalibrate from
a dense shadow runtime — when revival matters.  Survival measured on
compacted plans is mapped back to dense channel coordinates before any
comparison, so profiles stay comparable across swaps.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.engine.calibrate import CalibrationProfile
from repro.engine.kernels import autotune_kernel_variants
from repro.engine.specialize import specialize_tasks
from repro.serving.base import PlanSet

__all__ = ["DriftReport", "RecalibrationEvent", "RecalibrationLoop"]


@dataclass(frozen=True)
class DriftReport:
    """How far live survival has moved from the calibration baseline."""

    #: Maximum |live - baseline| survival rate over every compared channel.
    max_rate_delta: float
    #: Channels whose dead/live classification at ``dead_threshold`` flipped.
    flipped_channels: int
    #: Channels compared (shared task/layer pairs with matching widths).
    compared_channels: int
    #: Per-task maximum rate delta, for operator visibility.
    per_task: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class RecalibrationEvent:
    """Outcome of one :meth:`RecalibrationLoop.check_once` pass."""

    checked_at: float
    images_seen: int
    drift: Optional[DriftReport]
    triggered: bool
    swapped: bool
    reason: str
    #: Store version published for this swap (``None`` when not publishing).
    published_version: Optional[str] = None


class RecalibrationLoop:
    """Watch live survival, re-specialize on drift, hot-swap the result.

    ``runtime`` must have been built with a channel-tracking recorder
    (``SparsityRecorder(channel_tracking=True)``) — without per-channel
    counts there is nothing to compare.  ``baseline`` is the profile the
    currently-served specializations came from (e.g. the one shipped in the
    deployed :class:`~repro.artifacts.ModelArtifact`); after every swap the
    live profile that triggered it becomes the new baseline.

    The loop is deliberately conservative: a task is only re-specialized
    once it has seen ``min_images`` images *and* every masked layer has
    measurements, and a swap only happens when drift clears
    ``drift_threshold`` or flips at least ``min_flips`` channel verdicts.
    ``check_once`` is synchronous and side-effect-complete, so tests (and
    operators) can drive the loop without the background thread that
    :meth:`start` runs every ``interval`` seconds.

    Keep ``reset_window=True`` (the default) unless you accept blended
    measurements: after a swap, counts accumulated under the *old*
    specialization describe the old compacted channel axis, and
    :meth:`live_profile` can only map them through the currently-served
    plans' provenance.  The recorder auto-restarts a layer's accumulation
    when its width changes, but a swap that keeps a layer's width while
    changing its live set would blend the two windows without a reset.
    """

    def __init__(
        self,
        runtime,
        baseline: CalibrationProfile,
        *,
        interval: float = 30.0,
        drift_threshold: float = 0.1,
        min_flips: int = 1,
        dead_threshold: float = 0.0,
        min_images: int = 64,
        specialize_kwargs: Optional[Dict[str, object]] = None,
        store=None,
        artifact_name: str = "recalibrated",
        reset_window: bool = True,
        swap_timeout: Optional[float] = 120.0,
        autotune_batch: int = 8,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        recorder = getattr(runtime, "recorder", None)
        if not getattr(recorder, "channel_tracking", False):
            raise ValueError(
                "recalibration needs per-channel survival: build the runtime "
                "with recorder=SparsityRecorder(channel_tracking=True)"
            )
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not 0.0 <= drift_threshold <= 1.0:
            raise ValueError("drift_threshold must lie in [0, 1]")
        self.runtime = runtime
        self.baseline = baseline
        self.interval = interval
        self.drift_threshold = drift_threshold
        self.min_flips = min_flips
        self.dead_threshold = dead_threshold
        self.min_images = min_images
        self.specialize_kwargs = dict(specialize_kwargs) if specialize_kwargs else {}
        self.store = store
        self.artifact_name = artifact_name
        self.reset_window = reset_window
        self.swap_timeout = swap_timeout
        #: Chooser batch size for chooser-tuned deployments (tasks whose
        #: deployed plan carried ``kernel_choices`` are re-tuned on the
        #: re-compacted geometry at swap time; unchanged geometries resolve
        #: from the process timing cache with zero re-timing).
        self.autotune_batch = autotune_batch
        self.events: List[RecalibrationEvent] = []
        self._clock = clock
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -------------------------------------------------------------- measure --
    def live_profile(self) -> CalibrationProfile:
        """Current traffic's survival profile, in dense channel coordinates.

        Tasks served by a compacted specialized plan record survival over the
        compacted channel axis; their counts are scattered back onto the
        dense axis using the plan's ``live_channels`` provenance (eliminated
        channels read as 0.0 survival — they did no work, see the module
        docstring for the observability caveat).
        """
        profile = self.runtime.current_recorder().survival_profile()
        for task, spec_plan in self.runtime.specialized.items():
            live_channels = getattr(spec_plan, "live_channels", None)
            if not live_channels or task not in profile.survival:
                continue
            layers = profile.survival[task]
            for layer, rates in list(layers.items()):
                mask = live_channels.get(layer)
                if mask is None:
                    continue
                live_index = np.flatnonzero(mask)
                dense = np.zeros(mask.shape[0], dtype=float)
                dense[live_index] = np.asarray(rates, dtype=float)[: live_index.size]
                layers[layer] = dense
        return profile

    def drift(
        self,
        live: Optional[CalibrationProfile] = None,
        tasks: Optional[List[str]] = None,
    ) -> DriftReport:
        """Compare ``live`` (measured now when omitted) against the baseline.

        ``tasks`` restricts the comparison; :meth:`check_once` passes only
        the tasks that cleared the ``min_images`` gate, so a barely-served
        task's quantised survival rates cannot trigger fleet-wide swaps on
        sampling noise.
        """
        live = live if live is not None else self.live_profile()
        max_delta = 0.0
        flips = 0
        compared = 0
        per_task: Dict[str, float] = {}
        for task in live.tasks():
            if task not in self.baseline.survival:
                continue
            if tasks is not None and task not in tasks:
                continue
            task_delta = 0.0
            for layer in live.layers(task):
                if layer not in self.baseline.survival[task]:
                    continue
                now = np.asarray(live.rates(task, layer), dtype=float)
                then = np.asarray(self.baseline.rates(task, layer), dtype=float)
                if now.shape != then.shape:
                    continue  # incomparable geometry (e.g. swapped architecture)
                delta = np.abs(now - then)
                task_delta = max(task_delta, float(delta.max())) if delta.size else task_delta
                flips += int(
                    np.count_nonzero(
                        (now > self.dead_threshold) != (then > self.dead_threshold)
                    )
                )
                compared += int(now.size)
            per_task[task] = task_delta
            max_delta = max(max_delta, task_delta)
        return DriftReport(
            max_rate_delta=max_delta,
            flipped_channels=flips,
            compared_channels=compared,
            per_task=per_task,
        )

    def _publish_stream_event(self, event: RecalibrationEvent) -> None:
        """Mirror a drift-measuring check into the runtime's metrics stream.

        Feeds the observability layer: the event lands in the stream's event
        log and its ``max_rate_delta`` becomes the live sparsity-drift gauge
        window snapshots and the Prometheus endpoint report.  Guarded with
        ``getattr`` so the loop keeps working against runtime doubles that
        predate the stream.
        """
        stream = getattr(self.runtime, "stream", None)
        if stream is None or event.drift is None:
            return
        stream.record_event(
            "recalibration",
            detail=event.reason,
            value=event.drift.max_rate_delta,
            at=event.checked_at,
        )

    # ---------------------------------------------------------------- check --
    def _ready_tasks(self, live: CalibrationProfile) -> List[str]:
        """Tasks with enough traffic and full masked-layer coverage."""
        plan = self.runtime.plan
        needed = set(plan.masked_layer_names())
        ready = []
        for task in plan.task_names():
            if live.num_images.get(task, 0) < self.min_images:
                continue
            if task in live.survival and needed.issubset(live.survival[task]):
                ready.append(task)
        return ready

    def check_once(self) -> RecalibrationEvent:
        """One measure→compare→(maybe) re-specialize→(maybe) swap pass."""
        with self._lock:
            now = self._clock()
            live = self.live_profile()
            images_seen = sum(live.num_images.values())
            ready = self._ready_tasks(live)
            if not ready:
                event = RecalibrationEvent(
                    checked_at=now,
                    images_seen=images_seen,
                    drift=None,
                    triggered=False,
                    swapped=False,
                    reason=(
                        f"insufficient traffic: no task has {self.min_images} images "
                        "with full masked-layer coverage yet"
                    ),
                )
                self.events.append(event)
                return event
            drift = self.drift(live, tasks=ready)
            triggered = (
                drift.max_rate_delta >= self.drift_threshold
                or drift.flipped_channels >= self.min_flips
            )
            if not triggered:
                event = RecalibrationEvent(
                    checked_at=now,
                    images_seen=images_seen,
                    drift=drift,
                    triggered=False,
                    swapped=False,
                    reason=(
                        f"within tolerance: max rate delta {drift.max_rate_delta:.3f} "
                        f"< {self.drift_threshold}, {drift.flipped_channels} flips"
                    ),
                )
                self.events.append(event)
                self._publish_stream_event(event)
                return event
            version, publish_error = self._respecialize_and_swap(live, ready)
            reason = (
                f"drift {drift.max_rate_delta:.3f} / {drift.flipped_channels} "
                f"flipped channels over {len(ready)} task(s): re-specialized "
                "and hot-swapped"
            )
            if publish_error is not None:
                reason += f" (store publish failed: {publish_error!r})"
            event = RecalibrationEvent(
                checked_at=now,
                images_seen=images_seen,
                drift=drift,
                triggered=True,
                swapped=True,
                reason=reason,
                published_version=version,
            )
            self.events.append(event)
            self._publish_stream_event(event)
            return event

    def _respecialize_and_swap(
        self, live: CalibrationProfile, tasks: List[str]
    ) -> tuple:
        """Specialize ``tasks`` from ``live``, swap, roll the baseline, publish.

        Returns ``(published_version, publish_error)``.  Once the swap has
        succeeded the remaining steps must not unwind it: the measurement
        window is reset immediately (so the next drift comparison cannot
        blend old- and new-specialization counts), and a store-publish
        failure is captured and reported on the event instead of raised —
        the swap happened, and the record must say so.
        """
        def build(current: PlanSet) -> PlanSet:
            specialized = dict(current.specialized)
            fresh = specialize_tasks(
                current.plan,
                profile=live,
                tasks=tasks,
                dead_threshold=self.dead_threshold,
                **self.specialize_kwargs,
            )
            # Re-specialization resets kernel variants (new geometry).  A
            # deployed plan that was chooser-tuned gets the chooser re-run on
            # the *re-compacted* geometry rather than a blind replay of
            # choices measured on the old shapes: the process-level timing
            # cache makes this a pure lookup when the compacted widths did
            # not change (zero re-timing — tuned once, not per deploy), and
            # only genuinely new shapes pay for fresh measurements.
            for task, spec in fresh.items():
                deployed = specialized.get(task)
                choices = getattr(deployed, "kernel_choices", None)
                if choices:
                    autotune_kernel_variants(spec, batch=self.autotune_batch, seed=0)
            specialized.update(fresh)
            return PlanSet(current.plan, specialized)

        # swap_with holds the runtime's control lock across read + specialize
        # + swap, so a concurrent operator add_task/remove_task/swap cannot
        # interleave and be silently reverted by this derivation.
        plans = self.runtime.swap_with(build, timeout=self.swap_timeout)
        plan, specialized = plans.plan, plans.specialized
        # Roll the baseline per task: only the re-specialized tasks now serve
        # plans derived from `live` — a task that stayed on its old
        # specialization keeps its old baseline, so its drift is still
        # measured against the profile its plans actually came from.
        survival = dict(self.baseline.survival)
        num_images = dict(self.baseline.num_images)
        for task in tasks:
            survival[task] = live.survival[task]
            num_images[task] = live.num_images.get(task, 0)
        self.baseline = CalibrationProfile(survival=survival, num_images=num_images)
        if self.reset_window:
            # Fresh measurement window so the next drift comparison reflects
            # traffic served *by* the new plans, not a blend.
            self.runtime.reset_stats()
        version: Optional[str] = None
        publish_error: Optional[BaseException] = None
        if self.store is not None:
            from repro.artifacts import ModelArtifact

            try:
                artifact = ModelArtifact.from_plans(
                    self.artifact_name,
                    plan,
                    specialized,
                    calibration=live,
                    metadata={
                        "source": "online-recalibration",
                        "images_seen": sum(live.num_images.values()),
                        "tasks": list(tasks),
                    },
                )
                version = self.store.publish(artifact)
            except Exception as error:
                publish_error = error
        return version, publish_error

    # ----------------------------------------------------------------- loop --
    def start(self) -> "RecalibrationLoop":
        """Run :meth:`check_once` every ``interval`` seconds on a daemon thread."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="serving-recalibration", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background loop (the last check, if any, completes)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "RecalibrationLoop":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.check_once()
            except Exception as error:  # keep the loop alive on transient failures
                self.events.append(
                    RecalibrationEvent(
                        checked_at=self._clock(),
                        images_seen=0,
                        drift=None,
                        triggered=False,
                        swapped=False,
                        reason=f"check failed: {error!r}",
                    )
                )

    # ------------------------------------------------------------- reporting --
    @property
    def last_event(self) -> Optional[RecalibrationEvent]:
        return self.events[-1] if self.events else None

    def swaps(self) -> int:
        """How many hot-swaps this loop has performed."""
        return sum(1 for event in self.events if event.swapped)

    def summary(self) -> str:
        """One line per recorded event, operator-facing."""
        lines = []
        for event in self.events:
            mark = "swap" if event.swapped else ("drift" if event.triggered else "ok")
            lines.append(f"[{mark}] t={event.checked_at:.2f} {event.reason}")
        return "\n".join(lines) if lines else "(no recalibration checks yet)"
