"""Pluggable micro-batch scheduling policies.

Both execution paths — the offline :class:`~repro.engine.MultiTaskEngine`
drain and the online :class:`~repro.serving.ServingRuntime` — reduce to the
same decision: given micro-batches of per-task requests, in what order should
they hit the compiled plan?  A :class:`SchedulingPolicy` answers it twice:

* :meth:`SchedulingPolicy.order` ranks a *complete* set of batches for an
  offline drain, where every request is already known;
* :meth:`SchedulingPolicy.pick` chooses the next batch among those currently
  *ready* in an online queue, where future arrivals are unknown and each
  worker remembers the task it last executed.

The two built-in modes mirror the paper's hardware scenarios (``singular``
drains one task before starting the next; ``pipelined`` round-robins so
consecutive batches belong to different tasks — the case where MIME's
threshold-only task switch pays off).  Three online-oriented policies join
them: ``fifo-deadline`` orders batches by deadline slack, falling back to
arrival time (plain FIFO when no deadlines are set); ``weighted-fair`` tracks a
per-task virtual finish time so each task receives service proportional to a
configurable weight; and ``coalescing`` serves urgent deadlines first, then
sticks with the worker's current coalescing group (the batcher's bucket of
tasks whose rows may share one backbone pass), then takes the
longest-waiting group.

Request ordering *within* a task is always preserved by
:func:`chunk_requests`; policies only reorder whole batches, and callers
realign outputs by submission index, so every policy returns results in
submission order no matter how it schedules.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class InferenceRequest:
    """One image of one task, tagged with its submission index.

    ``arrival_time`` and ``deadline`` are timestamps on the caller's clock
    (the serving runtime uses ``time.monotonic()``); only their ordering
    matters.  Offline callers may leave both at their defaults.
    """

    index: int
    task: str
    image: np.ndarray
    arrival_time: float = 0.0
    deadline: Optional[float] = None


class MicroBatch:
    """A scheduling unit: up to ``micro_batch`` requests of one routing key.

    ``seq`` is the batch's per-key sequence number (0 for the key's first
    batch); the derived attributes summarise the member requests for the
    policies' sort keys.

    Historically a batch held same-task requests only.  With cross-task
    coalescing the batcher buckets by *coalescing group* instead, so a batch
    may carry rows of several tasks sharing one backbone: ``group`` names
    that bucket (``None`` for classic per-task batches), ``tasks`` records
    each row's owning task, and ``task`` degrades to the first row's task —
    a representative label for error paths and single-task consumers.
    """

    __slots__ = (
        "task", "requests", "seq", "arrival_time", "deadline", "first_index",
        "group", "tasks", "mixed",
    )

    def __init__(
        self,
        task: str,
        requests: Sequence[InferenceRequest],
        seq: int,
        group: Optional[str] = None,
    ) -> None:
        if not requests:
            raise ValueError("a MicroBatch needs at least one request")
        self.task = task
        self.requests: List[InferenceRequest] = list(requests)
        self.seq = seq
        self.arrival_time = min(request.arrival_time for request in self.requests)
        deadlines = [r.deadline for r in self.requests if r.deadline is not None]
        self.deadline = min(deadlines) if deadlines else None
        self.first_index = min(request.index for request in self.requests)
        self.group = group
        self.tasks: Tuple[str, ...] = tuple(r.task for r in self.requests)
        self.mixed = any(name != task for name in self.tasks)

    def __len__(self) -> int:
        return len(self.requests)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MicroBatch(task={self.task!r}, seq={self.seq}, size={len(self)})"

    @property
    def urgency(self) -> float:
        """Deadline if any member has one, else +inf (sorts after deadlines)."""
        return self.deadline if self.deadline is not None else math.inf

    @property
    def routing_key(self) -> str:
        """What schedulers/dispatchers key affinity on: group, else task.

        Two batches with the same routing key share all plan state (same
        task, or same coalescing group over one backbone), so executing them
        back to back is *not* a task switch.
        """
        return self.group if self.group is not None else self.task


def chunk_requests(
    requests: Sequence[InferenceRequest], micro_batch: int
) -> List[MicroBatch]:
    """Split ``requests`` into per-task micro-batches, preserving order.

    Tasks appear in first-submission order; within a task, requests keep
    their submission order, so batch ``seq`` is monotone in request index.
    """
    if micro_batch <= 0:
        raise ValueError("micro_batch must be positive")
    per_task: Dict[str, List[InferenceRequest]] = {}
    for request in requests:
        per_task.setdefault(request.task, []).append(request)
    batches: List[MicroBatch] = []
    for task, queue in per_task.items():
        for seq, start in enumerate(range(0, len(queue), micro_batch)):
            batches.append(MicroBatch(task, queue[start : start + micro_batch], seq))
    return batches


def _task_rank(batches: Sequence[MicroBatch]) -> Dict[str, int]:
    """Rank tasks by the earliest submission index among their batches."""
    earliest: Dict[str, int] = {}
    for batch in batches:
        previous = earliest.get(batch.task)
        if previous is None or batch.first_index < previous:
            earliest[batch.task] = batch.first_index
    ordered = sorted(earliest, key=earliest.get)
    return {task: rank for rank, task in enumerate(ordered)}


class SchedulingPolicy(ABC):
    """Strategy deciding the execution order of same-plan micro-batches."""

    name: str = "abstract"

    @abstractmethod
    def order(self, batches: Sequence[MicroBatch]) -> List[MicroBatch]:
        """Rank a complete batch set for an offline drain."""

    def pick(
        self, ready: Sequence[MicroBatch], last_task: Optional[str] = None
    ) -> MicroBatch:
        """Choose the next batch among ``ready`` (online case).

        ``last_task`` is the task the calling worker executed last; policies
        that do not care ignore it.  The default takes the head of
        :meth:`order`.
        """
        if not ready:
            raise ValueError("pick() needs at least one ready batch")
        return self.order(list(ready))[0]


class SingularPolicy(SchedulingPolicy):
    """Drain every batch of one task before starting the next task.

    The paper's Singular task mode: task switches are rare, so per-task
    parameter reloads amortise over the task's whole queue.
    """

    name = "singular"

    def order(self, batches: Sequence[MicroBatch]) -> List[MicroBatch]:
        rank = _task_rank(batches)
        return sorted(batches, key=lambda b: (rank[b.task], b.seq))

    def pick(self, ready, last_task=None):
        if not ready:
            raise ValueError("pick() needs at least one ready batch")
        # Stick with the current routing key while it has ready work;
        # otherwise move to the key that has been waiting longest.  (For
        # classic per-task batches the routing key IS the task.)
        return min(
            ready,
            key=lambda b: (
                b.routing_key != last_task, b.arrival_time, b.first_index, b.seq,
            ),
        )


class PipelinedPolicy(SchedulingPolicy):
    """Round-robin one micro-batch per task (the paper's Pipelined task mode).

    Consecutive batches belong to different tasks whenever possible — the
    adversarial schedule for conventional weight reloading and the best case
    for MIME's O(1) threshold switch.
    """

    name = "pipelined"

    def order(self, batches: Sequence[MicroBatch]) -> List[MicroBatch]:
        rank = _task_rank(batches)
        return sorted(batches, key=lambda b: (b.seq, rank[b.task]))

    def pick(self, ready, last_task=None):
        if not ready:
            raise ValueError("pick() needs at least one ready batch")
        # Prefer a routing key other than the one just executed, longest-
        # waiting first.  Per-key seq counters are NOT comparable across keys
        # online (a task active since boot has a far higher counter than a
        # newcomer), so arrival time is the cross-key tiebreak.
        return min(
            ready,
            key=lambda b: (
                b.routing_key == last_task, b.arrival_time, b.first_index, b.seq,
            ),
        )


class FifoDeadlinePolicy(SchedulingPolicy):
    """Earliest-deadline-first, falling back to arrival order.

    Batches carrying a deadline sort by that deadline; batches without one
    sort by arrival time *after* every deadline-bearing batch, so with no
    deadlines anywhere this degrades to plain FIFO over batch arrival.
    """

    name = "fifo-deadline"

    @staticmethod
    def _key(batch: MicroBatch) -> Tuple[float, float, int]:
        return (batch.urgency, batch.arrival_time, batch.first_index)

    def order(self, batches: Sequence[MicroBatch]) -> List[MicroBatch]:
        return sorted(batches, key=self._key)

    def pick(self, ready, last_task=None):
        if not ready:
            raise ValueError("pick() needs at least one ready batch")
        return min(ready, key=self._key)


class WeightedFairPolicy(SchedulingPolicy):
    """Weighted fair queuing over tasks via per-task virtual finish times.

    Each task accrues virtual time ``images_served / weight``; the next batch
    always comes from the task whose virtual time after serving it would be
    smallest.  With equal weights this interleaves like ``pipelined`` but by
    *images* rather than batch count, so a task submitting small partial
    batches is not penalised.  Per-task batch order (``seq``) is preserved.

    Online, :meth:`pick` implements start-time fair queuing: the policy
    instance tracks per-task virtual finish times and a global virtual clock,
    and a task returning from idle has its virtual start clamped **up** to
    the clock — without that clamp a newcomer's zero service history would
    let it monopolise the workers until it "caught up" with tasks that have
    been active since boot, starving them instead of sharing.
    """

    name = "weighted-fair"

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self.weights = dict(weights) if weights else {}
        for task, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(f"weight for task '{task}' must be positive")
        # Online (pick) state; callers serialise pick() calls (the batcher
        # invokes it under its lock), so plain attributes suffice.
        self._virtual_finish: Dict[str, float] = {}
        self._virtual_time = 0.0

    def weight(self, task: str) -> float:
        return self.weights.get(task, 1.0)

    def order(self, batches: Sequence[MicroBatch]) -> List[MicroBatch]:
        rank = _task_rank(batches)
        pending: Dict[str, List[MicroBatch]] = {}
        for batch in sorted(batches, key=lambda b: b.seq):
            pending.setdefault(batch.task, []).append(batch)
        served: Dict[str, float] = {task: 0.0 for task in pending}
        ordered: List[MicroBatch] = []
        while pending:
            task = min(
                pending,
                key=lambda t: (
                    (served[t] + len(pending[t][0])) / self.weight(t),
                    rank[t],
                ),
            )
            batch = pending[task].pop(0)
            if not pending[task]:
                del pending[task]
            served[task] = served.get(task, 0.0) + len(batch)
            ordered.append(batch)
        return ordered

    def _virtual_start(self, task: str) -> float:
        return max(self._virtual_finish.get(task, 0.0), self._virtual_time)

    def pick(self, ready, last_task=None):
        if not ready:
            raise ValueError("pick() needs at least one ready batch")
        batch = min(
            ready,
            key=lambda b: (
                self._virtual_start(b.task) + len(b) / self.weight(b.task),
                b.seq,
                b.arrival_time,
                b.first_index,
            ),
        )
        start = self._virtual_start(batch.task)
        self._virtual_finish[batch.task] = start + len(batch) / self.weight(batch.task)
        self._virtual_time = start
        return batch


class CoalescingPolicy(SchedulingPolicy):
    """Group-sticky, deadline-aware scheduling for coalesced batches.

    Designed for the many-task regime where the batcher buckets by
    coalescing group: among the ready batches, an urgent deadline always
    wins; otherwise the policy sticks with the worker's current routing key
    (consecutive same-group batches share every byte of plan state) and
    falls back to the longest-waiting group.  With coalescing disabled the
    routing key degenerates to the task and this behaves like ``singular``
    with deadline awareness.
    """

    name = "coalescing"

    def order(self, batches: Sequence[MicroBatch]) -> List[MicroBatch]:
        return sorted(batches, key=lambda b: (b.urgency, b.arrival_time, b.first_index))

    def pick(self, ready, last_task=None):
        if not ready:
            raise ValueError("pick() needs at least one ready batch")
        return min(
            ready,
            key=lambda b: (
                b.urgency,
                b.routing_key != last_task,
                b.arrival_time,
                b.first_index,
            ),
        )


#: Built-in policies by CLI/engine mode name.
POLICIES: Dict[str, type] = {
    SingularPolicy.name: SingularPolicy,
    PipelinedPolicy.name: PipelinedPolicy,
    FifoDeadlinePolicy.name: FifoDeadlinePolicy,
    WeightedFairPolicy.name: WeightedFairPolicy,
    CoalescingPolicy.name: CoalescingPolicy,
}

#: Mode names accepted wherever a policy can be named by string.
SCHEDULING_MODES: Tuple[str, ...] = tuple(POLICIES)


def get_policy(policy: str | SchedulingPolicy) -> SchedulingPolicy:
    """Resolve a policy name or pass an instance through unchanged."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    if policy not in POLICIES:
        raise ValueError(f"unknown mode '{policy}'; choose from {SCHEDULING_MODES}")
    return POLICIES[policy]()
