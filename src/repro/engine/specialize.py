"""Per-task plan specialization: dead-channel elimination and compacted GEMMs.

A compiled :class:`~repro.engine.plan.EnginePlan` pays for every MAC and only
*then* zeroes the channels a task's thresholds mask away.  Given a
:class:`~repro.engine.calibrate.CalibrationProfile` proving which output
channels never survive for one task, :func:`specialize_plan` rebuilds the plan
for that task with the dead channels gone — the masked GEMMs' weight columns,
biases and pre-laid-out thresholds are sliced to the live set, downstream
shapes (max-pool, workspaces, :class:`~repro.engine.plan.MaskSpec`) shrink to
match, and the resulting :class:`SpecializedEnginePlan` executes only the
live channels' work.

The shrinkage is propagated into the next kernel's im2col row structure and
the FC head: consumer weight rows for dead input channels are removed, so both
the output and the *reduction* dimension of every GEMM shrink to the live set
and the MAC savings translate directly into CPU time (~2x at the paper's
sparsity levels).  Removing exact-zero terms from a BLAS reduction can regroup
the remaining summands across SIMD accumulators, so a specialized plan is
numerically equivalent to the dense plan to the last ULP, not bit-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.calibrate import CalibrationProfile, calibrate_plan
from repro.utils.ratios import fraction_saved
from repro.engine.plan import (
    CompileError,
    ConvGemmMaskKernel,
    EnginePlan,
    FlattenKernel,
    LinearMaskKernel,
    MaskSpec,
    MaxPoolKernel,
    TaskPlan,
)

__all__ = [
    "SpecializedEnginePlan",
    "specialize_plan",
    "specialize_tasks",
]


@dataclass
class SpecializedEnginePlan(EnginePlan):
    """An :class:`EnginePlan` compacted for exactly one task.

    Carries the provenance of the compaction next to the executable plan:
    which channels stayed live per masked layer, the MACs/image of the dense
    source plan versus this plan, and the settings that produced it.  The
    plan serves only :attr:`source_task`; registering further tasks is a
    compile error because the compacted mask geometry no longer matches the
    training network.
    """

    #: Every specialized plan shrinks its reduction dimensions (the one
    #: compaction strategy); readers use this to pick the ULP tolerance.
    compact_reduction: ClassVar[bool] = True

    source_task: str = ""
    dead_threshold: float = 0.0
    live_channels: Dict[str, np.ndarray] = field(default_factory=dict)
    dense_macs_per_image: int = 0
    specialized_macs_per_image: int = 0

    def mac_reduction(self) -> float:
        """Fraction of the dense plan's MACs this plan avoids per image."""
        return fraction_saved(self.dense_macs_per_image, self.specialized_macs_per_image)

    def dead_channel_counts(self) -> Dict[str, int]:
        return {
            layer: int(np.count_nonzero(~live)) for layer, live in self.live_channels.items()
        }

    def add_task(self, task) -> TaskPlan:
        raise CompileError(
            f"a specialized plan serves only task '{self.source_task}'; "
            "add tasks to the dense plan and re-specialize"
        )


def coalescing_signature(plan) -> Optional[str]:
    """Geometry digest deciding which specialized plans may share a batch.

    Two specialized plans of the **same dense source** are interchangeable —
    their kernels compute bit-identical backbone math, differing only in the
    per-task thresholds/head that ride in the :class:`~repro.engine.plan.
    TaskPlan` — exactly when this digest matches: compaction produces weights
    as pure column slices of the shared dense arrays, so equal live sets (plus
    equal kernel variants and quantization payload) imply equal compacted
    tensors bit-for-bit.  Returns ``None`` for plans that are
    not :class:`SpecializedEnginePlan` instances (unknown provenance — never
    coalesce those with anything).
    """
    if type(plan) is not SpecializedEnginePlan:
        return None
    digest = hashlib.sha1()
    digest.update(repr(plan.dead_threshold).encode())
    for layer in sorted(plan.live_channels):
        live = np.ascontiguousarray(plan.live_channels[layer], dtype=np.bool_)
        digest.update(layer.encode())
        digest.update(live.tobytes())
    for kernel in plan.kernels:
        weight_t = getattr(kernel, "weight_t", None)
        shape = tuple(weight_t.shape) if weight_t is not None else ()
        digest.update(
            repr(
                (
                    type(kernel).__name__,
                    getattr(kernel, "name", ""),
                    getattr(kernel, "variant", None),
                    shape,
                )
            ).encode()
        )
        quant = getattr(kernel, "quant", None)
        if quant is not None:
            # Quantization scales are derived from calibration ranges, not
            # just geometry — fold them in so plans calibrated differently
            # never coalesce (their int8 outputs would differ).
            digest.update(np.asarray(quant.w_scale).tobytes())
            digest.update(np.asarray(quant.scale).tobytes())
            digest.update(repr(float(quant.in_scale)).encode())
    return digest.hexdigest()


def _ensure_min_live(live: np.ndarray, rates: np.ndarray, min_live: int) -> np.ndarray:
    """Keep at least ``min_live`` channels, preferring the highest survival."""
    deficit = min_live - int(np.count_nonzero(live))
    if deficit > 0:
        live = live.copy()
        for index in np.argsort(rates)[::-1]:
            if not live[index]:
                live[index] = True
                deficit -= 1
                if deficit == 0:
                    break
    return live


def _conv_row_gather(live_in: np.ndarray, kernel_size: int) -> np.ndarray:
    """im2col row indices of the live input channels, in (ky, kx, c) order."""
    live_idx = np.flatnonzero(live_in)
    taps = np.arange(kernel_size * kernel_size) * live_in.shape[0]
    return (taps[:, None] + live_idx[None, :]).ravel()


def specialize_plan(
    plan: EnginePlan,
    task: str,
    profile: CalibrationProfile,
    dead_threshold: float = 0.0,
    min_live: int = 1,
    choose_kernels: bool = False,
    choose_batch: int = 8,
    choose_seed: int = 0,
    timing_cache=None,
) -> SpecializedEnginePlan:
    """Compact ``plan`` for ``task`` using the calibrated survival ``profile``.

    Channels whose calibrated survival rate is at or below ``dead_threshold``
    are eliminated (``0.0`` removes only channels that *never* fired during
    calibration); at least ``min_live`` channels per masked layer are always
    kept.  A layer with nothing to eliminate keeps the dense plan's arrays
    by identity.  See the module docstring for the exactness contract.

    Kernel **variants** are reset by specialization: the rebuilt kernels run
    their default paths, because a variant choice (and any int8 payload) is
    measured/calibrated against one concrete geometry and the compacted
    geometry is new.  Kernel *names* are preserved, so re-applying a choice
    map (:func:`repro.engine.kernels.apply_kernel_choices`) or re-running
    the chooser/quantizer on the specialized plan composes cleanly; the
    specialize → quantize → autotune order is the supported pipeline.

    ``choose_kernels=True`` runs that last step here: the chooser
    (:func:`repro.engine.kernels.autotune_kernel_variants`, at
    ``choose_batch``/``choose_seed``) is invoked once on the freshly
    compacted geometry before the plan is returned, so the specialized plan
    arrives already tuned.  Measurements go through ``timing_cache``
    (default: the process-wide ``TIMING_CACHE``), which is what makes the
    per-deploy cost drop to zero for unchanged geometries — N tasks with
    identical compacted shapes, or a recalibration re-deploy that compacts
    to the same widths, resolve the chooser as pure cache replay.
    """
    if isinstance(plan, SpecializedEnginePlan):
        raise CompileError("cannot specialize an already-specialized plan")
    if task not in plan.tasks:
        raise KeyError(f"task '{task}' was not compiled; known: {plan.task_names()}")
    if min_live < 1:
        raise ValueError("min_live must be at least 1")
    if not 0.0 <= dead_threshold < 1.0:
        raise ValueError("dead_threshold must lie in [0, 1)")
    source_task = plan.tasks[task]

    kernels: List[object] = []
    mask_specs: List[MaskSpec] = []
    thresholds: List[np.ndarray] = []
    live_channels: Dict[str, np.ndarray] = {}
    dense_macs = 0
    spec_macs = 0
    #: live mask over the *dense* channel/feature axis of the current
    #: activation stream (``None`` = dense stream); the compacted stream
    #: carries exactly the live channels, in dense order.
    live_in: Optional[np.ndarray] = None
    spatial: Tuple[int, int] = (0, 0)  # H, W entering the flatten boundary

    def compact_masked_output(kernel, weight_t, bias):
        """Shared conv/linear output-side compaction; returns the new parts."""
        nonlocal live_in
        rates = np.asarray(profile.rates(task, kernel.mask.layer_name), dtype=float)
        if rates.shape[0] != weight_t.shape[1]:
            raise CompileError(
                f"profile for '{kernel.mask.layer_name}' has {rates.shape[0]} "
                f"channels but the kernel emits {weight_t.shape[1]}"
            )
        live_out = _ensure_min_live(rates > dead_threshold, rates, min_live)
        live_channels[kernel.mask.layer_name] = live_out
        laid_out = source_task.thresholds[kernel.mask.slot]
        if live_out.all():
            # Nothing to eliminate: the dense arrays pass through by identity.
            live_in = None
            return weight_t, bias, laid_out
        live_in = live_out
        return (
            np.ascontiguousarray(weight_t[:, live_out]),
            bias[live_out],
            np.ascontiguousarray(laid_out[..., live_out]),
        )

    for kernel in plan.kernels:
        if isinstance(kernel, ConvGemmMaskKernel):
            weight_t, bias, in_shape = kernel.weight_t, kernel.bias, kernel.in_shape
            if live_in is not None:  # shrink the reduction to the live inputs
                rows = _conv_row_gather(live_in, kernel.kernel_size)
                weight_t = np.ascontiguousarray(weight_t[rows])
                in_shape = (int(np.count_nonzero(live_in)), in_shape[1], in_shape[2])
                live_in = None
            spec = kernel.mask
            out_shape = kernel.out_shape
            if kernel.mask is not None:
                weight_t, bias, laid_out = compact_masked_output(kernel, weight_t, bias)
                out_shape = (weight_t.shape[1], out_shape[1], out_shape[2])
                spec = MaskSpec(
                    kernel.mask.slot,
                    kernel.mask.layer_name,
                    kernel.mask.kind,
                    (1, out_shape[1] * out_shape[2], out_shape[0]),
                )
                mask_specs.append(spec)
                thresholds.append(laid_out)
            kernels.append(
                ConvGemmMaskKernel(
                    len(kernels),
                    name=kernel.name,
                    weight_t=weight_t,
                    bias=bias,
                    kernel_size=kernel.kernel_size,
                    stride=kernel.stride,
                    padding=kernel.padding,
                    in_shape=in_shape,
                    out_shape=out_shape,
                    mask=spec,
                    dense_macs=kernel.dense_macs_per_image,
                    dense_channels=kernel.dense_channels,
                )
            )
            dense_macs += kernel.dense_macs_per_image
            spec_macs += out_shape[1] * out_shape[2] * weight_t.shape[0] * weight_t.shape[1]
            spatial = (out_shape[1], out_shape[2])
        elif isinstance(kernel, MaxPoolKernel):
            out_shape = kernel.out_shape
            if live_in is not None:
                out_shape = (int(np.count_nonzero(live_in)),) + tuple(out_shape[1:])
            kernels.append(
                MaxPoolKernel(
                    len(kernels), kernel.kernel_size, kernel.stride, out_shape, name=kernel.name
                )
            )
            spatial = (out_shape[1], out_shape[2])
        elif isinstance(kernel, FlattenKernel):
            if live_in is not None:
                # NHWC flat index is position-major: every spatial position
                # carries one block of channels, so the flat live mask is the
                # channel mask tiled over positions.
                live_in = np.tile(live_in, spatial[0] * spatial[1])
            kernels.append(FlattenKernel(len(kernels)))
        elif isinstance(kernel, LinearMaskKernel):
            weight_t, bias = kernel.weight_t, kernel.bias
            if live_in is not None:
                weight_t = np.ascontiguousarray(weight_t[np.flatnonzero(live_in)])
                live_in = None
            spec = kernel.mask
            if kernel.mask is not None:
                weight_t, bias, laid_out = compact_masked_output(kernel, weight_t, bias)
                spec = MaskSpec(
                    kernel.mask.slot,
                    kernel.mask.layer_name,
                    kernel.mask.kind,
                    (1, weight_t.shape[1]),
                )
                mask_specs.append(spec)
                thresholds.append(laid_out)
            kernels.append(
                LinearMaskKernel(
                    len(kernels),
                    name=kernel.name,
                    weight_t=weight_t,
                    bias=bias,
                    mask=spec,
                    relu=kernel.relu,
                    dense_macs=kernel.dense_macs_per_image,
                    dense_channels=kernel.dense_channels,
                )
            )
            dense_macs += kernel.dense_macs_per_image
            spec_macs += weight_t.shape[0] * weight_t.shape[1]
        else:
            raise CompileError(f"cannot specialize kernel type {type(kernel).__name__}")

    head_weight_t = source_task.head_weight_t
    if live_in is not None:
        head_weight_t = np.ascontiguousarray(head_weight_t[np.flatnonzero(live_in)])
    task_plan = TaskPlan(
        name=source_task.name,
        num_classes=source_task.num_classes,
        thresholds=thresholds,
        head_weight_t=head_weight_t,
        head_bias=source_task.head_bias,
        head_dense_macs=source_task.head_dense_macs,
    )
    dense_macs += source_task.head_dense_macs
    spec_macs += head_weight_t.shape[0] * head_weight_t.shape[1]

    spec = SpecializedEnginePlan(
        dtype=plan.dtype,
        input_shape=plan.input_shape,
        kernels=kernels,
        mask_specs=mask_specs,
        tasks={task: task_plan},
        head_permutation=plan.head_permutation,
        source_task=task,
        dead_threshold=dead_threshold,
        live_channels=live_channels,
        dense_macs_per_image=dense_macs,
        specialized_macs_per_image=spec_macs,
    )
    if choose_kernels:
        from repro.engine.kernels import autotune_kernel_variants

        autotune_kernel_variants(
            spec, batch=choose_batch, seed=choose_seed, cache=timing_cache
        )
    return spec


def specialize_tasks(
    plan: EnginePlan,
    profile: Optional[CalibrationProfile] = None,
    tasks: Optional[Sequence[str]] = None,
    dead_threshold: float = 0.0,
    min_live: int = 1,
    calibration_batch: int = 32,
    calibration_seed: int = 0,
    choose_kernels: bool = False,
    choose_batch: int = 8,
    choose_seed: int = 0,
    timing_cache=None,
) -> Dict[str, SpecializedEnginePlan]:
    """Specialize ``plan`` for every task (calibrating first when needed).

    Returns a task-name → :class:`SpecializedEnginePlan` mapping ready to be
    handed to :class:`~repro.engine.MultiTaskEngine` or
    :class:`~repro.serving.ServingRuntime`, which select the specialized plan
    per micro-batch and fall back to the dense plan for unlisted tasks.

    With ``choose_kernels=True`` each per-task plan comes back chooser-tuned
    on its compacted geometry (see :func:`specialize_plan`); the shared
    timing cache means tasks whose layers compact to the same shapes time
    each candidate variant once, not once per task.
    """
    names = list(tasks) if tasks is not None else plan.task_names()
    if profile is None:
        profile = calibrate_plan(plan, tasks=names, batch_size=calibration_batch, seed=calibration_seed)
    return {
        name: specialize_plan(
            plan,
            name,
            profile,
            dead_threshold=dead_threshold,
            min_live=min_live,
            choose_kernels=choose_kernels,
            choose_batch=choose_batch,
            choose_seed=choose_seed,
            timing_cache=timing_cache,
        )
        for name in names
    }
