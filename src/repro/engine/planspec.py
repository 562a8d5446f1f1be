"""Picklable serialization of compiled engine plans.

A live :class:`~repro.engine.plan.EnginePlan` is deliberately *not* something
to ship across a process boundary: its kernels hold process-unique workspace
uids, its default :class:`~repro.engine.plan.WorkspacePool` caches buffers
that must never be shared between processes, and pickling NumPy views of a
parent's buffers would silently alias memory.  A :class:`PlanSpec` is the
transportable alternative — a plain-data snapshot of everything a plan *is*
(kernel geometry, weight/bias/threshold tensors, task plans, dynamic-sparse
config, specialization provenance) and nothing a plan *uses at run time*.

``PlanSpec.from_plan(plan)`` captures a dense or specialized plan;
``spec.build()`` reconstructs a semantically identical plan with **fresh**
kernel uids and an **empty** workspace pool, so a spawned worker process
deserialises its own private executable copy instead of inheriting parent
state.  Reconstruction is exact: the rebuilt plan produces bit-identical
logits to the source plan for any input, because every tensor is carried
verbatim and the kernels are pure functions of their tensors.

This is the serving analogue of :class:`~repro.engine.calibrate.
CalibrationProfile`'s JSON story, but binary (pickle) because plans carry
large float tensors where JSON round-trips would be wasteful and lossy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.kernels import QuantizedGemm
from repro.engine.plan import (
    ChannelScatterKernel,
    CompileError,
    ConvGemmMaskKernel,
    DynamicSparseConfig,
    EnginePlan,
    FlattenKernel,
    LinearMaskKernel,
    MaskSpec,
    MaxPoolKernel,
    TaskPlan,
)

__all__ = ["PlanSetSpec", "PlanSpec", "TaskSpec"]


class _TensorRef:
    """Index into a :class:`PlanSetSpec`-level shared tensor table.

    Version-4 specs captured with deduplication replace repeated ndarrays
    (the shared backbone a specialized plan passes through by identity) with
    one of these markers, so the tensor pickles **once** per plan set rather
    than once per task.  Resolution back to arrays happens in
    :meth:`PlanSetSpec.build_all`; a bare :meth:`PlanSpec.build` never sees
    refs because stand-alone captures don't intern.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_TensorRef({self.index})"

    # __slots__ classes need explicit pickle support.
    def __getstate__(self):
        return self.index

    def __setstate__(self, state) -> None:
        self.index = state


class _TensorInterner:
    """Dedup ndarrays by *source object* identity during capture.

    ``specialize_plan`` passes uncompacted arrays through to each per-task
    plan by identity, so keying on ``id()`` of the source array is exactly
    what collapses the N backbone copies to one.  Source references are kept
    alive for the interner's lifetime so ids cannot be recycled mid-capture.
    """

    def __init__(self) -> None:
        self.table: List[np.ndarray] = []
        self._index: Dict[int, int] = {}
        self._keepalive: List[np.ndarray] = []

    def __call__(self, value: np.ndarray) -> _TensorRef:
        key = id(value)
        slot = self._index.get(key)
        if slot is None:
            slot = len(self.table)
            self._index[key] = slot
            self._keepalive.append(value)
            self.table.append(np.array(value))
        return _TensorRef(slot)


def _arr(value, intern):
    return intern(value) if intern is not None else np.array(value)


def _resolve(obj, tensors: List[np.ndarray]):
    """Replace every :class:`_TensorRef` in a captured structure with its
    table entry.  Refs to one slot resolve to the *same* array object, so
    worker-side plans keep the sharing the capture found."""
    if isinstance(obj, _TensorRef):
        return tensors[obj.index]
    if isinstance(obj, dict):
        return {key: _resolve(value, tensors) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_resolve(value, tensors) for value in obj]
    if isinstance(obj, tuple):
        return tuple(_resolve(value, tensors) for value in obj)
    if isinstance(obj, TaskSpec):
        return TaskSpec(
            name=obj.name,
            num_classes=obj.num_classes,
            thresholds=[_resolve(t, tensors) for t in obj.thresholds],
            head_weight_t=_resolve(obj.head_weight_t, tensors),
            head_bias=_resolve(obj.head_bias, tensors),
            head_dense_macs=obj.head_dense_macs,
        )
    return obj


@dataclass
class TaskSpec:
    """Plain-data snapshot of one :class:`~repro.engine.plan.TaskPlan`."""

    name: str
    num_classes: int
    thresholds: List[np.ndarray]
    head_weight_t: np.ndarray
    head_bias: np.ndarray
    head_dense_macs: int = 0

    @classmethod
    def from_task(cls, task: TaskPlan, intern=None) -> "TaskSpec":
        return cls(
            name=task.name,
            num_classes=task.num_classes,
            thresholds=[_arr(t, intern) for t in task.thresholds],
            head_weight_t=_arr(task.head_weight_t, intern),
            head_bias=_arr(task.head_bias, intern),
            head_dense_macs=task.head_dense_macs,
        )

    def build(self) -> TaskPlan:
        # ``asarray`` not ``array``: plans treat tensors as immutable, so the
        # rebuilt plan may share the spec's arrays — which is what lets every
        # plan resolved against one v4 tensor table share its backbone.
        return TaskPlan(
            name=self.name,
            num_classes=self.num_classes,
            thresholds=[np.asarray(t) for t in self.thresholds],
            head_weight_t=np.asarray(self.head_weight_t),
            head_bias=np.asarray(self.head_bias),
            head_dense_macs=self.head_dense_macs,
        )


def _mask_tuple(mask: Optional[MaskSpec]):
    if mask is None:
        return None
    return (mask.slot, mask.layer_name, mask.kind, tuple(mask.gemm_shape))


def _mask_from_tuple(data) -> Optional[MaskSpec]:
    if data is None:
        return None
    slot, layer_name, kind, gemm_shape = data
    return MaskSpec(slot, layer_name, kind, tuple(gemm_shape))


def _quant_dict(kernel, intern=None) -> Optional[Dict[str, object]]:
    quant = getattr(kernel, "quant", None)
    if quant is None:
        return None
    return {
        "weight_q": _arr(quant.weight_q, intern),
        "w_scale": _arr(quant.w_scale, intern),
        "in_scale": float(quant.in_scale),
        "scale": _arr(quant.scale, intern),
    }


def _quant_from_dict(data) -> Optional[QuantizedGemm]:
    if data is None:
        return None
    # Any other key (an int16 weight copy written by older specs) is ignored.
    return QuantizedGemm(
        weight_q=np.asarray(data["weight_q"]),
        w_scale=np.asarray(data["w_scale"]),
        in_scale=float(data["in_scale"]),
        scale=np.asarray(data["scale"]),
    )


def _describe_kernel(kernel, intern=None) -> Dict[str, object]:
    if isinstance(kernel, ConvGemmMaskKernel):
        return {
            "type": "conv",
            "name": kernel.name,
            "weight_t": _arr(kernel.weight_t, intern),
            "bias": _arr(kernel.bias, intern),
            "kernel_size": kernel.kernel_size,
            "stride": kernel.stride,
            "padding": kernel.padding,
            "in_shape": tuple(kernel.in_shape),
            "out_shape": tuple(kernel.out_shape),
            "mask": _mask_tuple(kernel.mask),
            "dense_macs": kernel.dense_macs_per_image,
            "dense_channels": kernel.dense_channels,
            "variant": kernel.variant,
            "quant": _quant_dict(kernel, intern),
        }
    if isinstance(kernel, LinearMaskKernel):
        return {
            "type": "linear",
            "name": kernel.name,
            "weight_t": _arr(kernel.weight_t, intern),
            "bias": _arr(kernel.bias, intern),
            "mask": _mask_tuple(kernel.mask),
            "relu": kernel.relu,
            "dense_macs": kernel.dense_macs_per_image,
            "dense_channels": kernel.dense_channels,
            "variant": kernel.variant,
            "quant": _quant_dict(kernel, intern),
        }
    if isinstance(kernel, MaxPoolKernel):
        return {
            "type": "pool",
            "name": kernel.name,
            "kernel_size": kernel.kernel_size,
            "stride": kernel.stride,
            "out_shape": tuple(kernel.out_shape),
            "variant": kernel.variant,
        }
    if isinstance(kernel, FlattenKernel):
        return {"type": "flatten"}
    if isinstance(kernel, ChannelScatterKernel):
        return {
            "type": "scatter",
            "live_index": _arr(kernel.live_index, intern),
            "dense_channels": kernel.dense_channels,
        }
    raise CompileError(f"cannot serialize kernel type {type(kernel).__name__}")


#: Retired kernel variants that older specs and artifacts may still name,
#: mapped to the surviving variant that runs the same layer semantics.
_RETIRED_VARIANTS = {"winograd": "im2col", "int8spd": "int8"}


def _build_kernel(index: int, desc: Dict[str, object]):
    # ``desc.get`` defaults keep version-1 specs (captured before kernel
    # variants existed) loadable: they rebuild on the default paths.
    kind = desc["type"]
    if kind == "conv":
        kernel = ConvGemmMaskKernel(
            index,
            name=desc["name"],
            weight_t=np.asarray(desc["weight_t"]),
            bias=np.asarray(desc["bias"]),
            kernel_size=desc["kernel_size"],
            stride=desc["stride"],
            padding=desc["padding"],
            in_shape=tuple(desc["in_shape"]),
            out_shape=tuple(desc["out_shape"]),
            mask=_mask_from_tuple(desc["mask"]),
            dense_macs=desc["dense_macs"],
            dense_channels=desc["dense_channels"],
        )
        variant = desc.get("variant", "im2col")
        kernel.variant = _RETIRED_VARIANTS.get(variant, variant)
        kernel.quant = _quant_from_dict(desc.get("quant"))
        return kernel
    if kind == "linear":
        kernel = LinearMaskKernel(
            index,
            name=desc["name"],
            weight_t=np.asarray(desc["weight_t"]),
            bias=np.asarray(desc["bias"]),
            mask=_mask_from_tuple(desc["mask"]),
            relu=desc["relu"],
            dense_macs=desc["dense_macs"],
            dense_channels=desc["dense_channels"],
        )
        variant = desc.get("variant", "dense")
        kernel.variant = _RETIRED_VARIANTS.get(variant, variant)
        kernel.quant = _quant_from_dict(desc.get("quant"))
        return kernel
    if kind == "pool":
        kernel = MaxPoolKernel(
            index,
            desc["kernel_size"],
            desc["stride"],
            tuple(desc["out_shape"]),
            name=desc.get("name"),
        )
        kernel.variant = desc.get("variant", "reshape")
        return kernel
    if kind == "flatten":
        return FlattenKernel(index)
    if kind == "scatter":
        return ChannelScatterKernel(
            index, np.asarray(desc["live_index"]), desc["dense_channels"]
        )
    raise CompileError(f"cannot deserialize kernel type '{kind}'")


@dataclass
class PlanSpec:
    """A picklable, workspace-free description of an :class:`EnginePlan`.

    ``specialization`` is ``None`` for a dense plan; for a
    :class:`~repro.engine.specialize.SpecializedEnginePlan` it carries the
    compaction provenance so the rebuilt plan reports the same
    :meth:`~repro.engine.specialize.SpecializedEnginePlan.mac_reduction` and
    :meth:`~repro.engine.specialize.SpecializedEnginePlan.dead_channel_counts`.
    """

    dtype: str
    input_shape: Tuple[int, int, int]
    kernels: List[Dict[str, object]]
    mask_specs: List[Tuple[int, str, str, Tuple[int, ...]]]
    tasks: Dict[str, TaskSpec]
    head_permutation: Optional[np.ndarray] = None
    dynamic: Optional[Tuple[float, float, Dict[str, float]]] = None
    specialization: Optional[Dict[str, object]] = None
    #: The chooser's per-kernel variant map (kernel name -> variant); the
    #: kernels' own ``variant`` fields are authoritative for execution, this
    #: is the replayable record (see ``apply_kernel_choices``).
    kernel_choices: Optional[Dict[str, str]] = None
    #: 2 = kernel descriptors carry ``variant``/``quant`` (version-1 specs
    #: still load; see ``_build_kernel``).
    #: 3 = variants may name ``packed``, whose L2 column panels are rebuilt
    #: lazily in the worker rather than serialized.  Specs written before
    #: two lowerings were retired may also carry an int16 weight copy in
    #: their quant payloads (ignored on load) and name the retired variants
    #: (mapped through ``_RETIRED_VARIANTS``).
    #: 4 = tensors captured through :meth:`PlanSetSpec.capture` are interned
    #: into the set-level shared table, with ``_TensorRef`` markers standing
    #: in here; only :meth:`PlanSetSpec.build_all` resolves them.
    version: int = 3

    # ----------------------------------------------------------------- capture --
    @classmethod
    def from_plan(cls, plan: EnginePlan, intern=None) -> "PlanSpec":
        from repro.engine.specialize import SpecializedEnginePlan

        dynamic = None
        if plan.dynamic is not None:
            dynamic = (
                plan.dynamic.gate,
                plan.dynamic.default_crossover,
                dict(plan.dynamic.crossover),
            )
        specialization = None
        if isinstance(plan, SpecializedEnginePlan):
            specialization = {
                "source_task": plan.source_task,
                "dead_threshold": plan.dead_threshold,
                "compact_reduction": plan.compact_reduction,
                "live_channels": {
                    layer: _arr(live, intern) for layer, live in plan.live_channels.items()
                },
                "dense_macs_per_image": plan.dense_macs_per_image,
                "specialized_macs_per_image": plan.specialized_macs_per_image,
            }
        return cls(
            dtype=np.dtype(plan.dtype).name,
            input_shape=tuple(plan.input_shape),
            kernels=[_describe_kernel(kernel, intern) for kernel in plan.kernels],
            mask_specs=[_mask_tuple(spec) for spec in plan.mask_specs],
            tasks={
                name: TaskSpec.from_task(task, intern) for name, task in plan.tasks.items()
            },
            head_permutation=(
                _arr(plan.head_permutation, intern)
                if plan.head_permutation is not None
                else None
            ),
            dynamic=dynamic,
            specialization=specialization,
            kernel_choices=(
                dict(plan.kernel_choices) if getattr(plan, "kernel_choices", None) else None
            ),
            version=4 if intern is not None else 3,
        )

    # ------------------------------------------------------------------- build --
    def resolved(self, tensors: Optional[List[np.ndarray]]) -> "PlanSpec":
        """Return a ref-free copy of this spec, arrays pulled from ``tensors``.

        Identity-preserving: refs to one table slot resolve to the same array
        object across every spec resolved against the same table, so a
        rebuilt plan set shares its backbone arrays the way the captured one
        did.  A no-op (returns ``self``) when there is no table.
        """
        if tensors is None:
            return self
        return replace(
            self,
            kernels=_resolve(self.kernels, tensors),
            tasks=_resolve(self.tasks, tensors),
            head_permutation=_resolve(self.head_permutation, tensors),
            specialization=_resolve(self.specialization, tensors),
        )

    def build(self) -> EnginePlan:
        """Reconstruct an executable plan: fresh kernels, empty workspaces."""
        from repro.engine.specialize import SpecializedEnginePlan

        kernels = [_build_kernel(index, desc) for index, desc in enumerate(self.kernels)]
        mask_specs = [_mask_from_tuple(data) for data in self.mask_specs]
        tasks = {name: spec.build() for name, spec in self.tasks.items()}
        dynamic = None
        if self.dynamic is not None:
            gate, default_crossover, crossover = self.dynamic
            dynamic = DynamicSparseConfig(
                gate=gate, default_crossover=default_crossover, crossover=dict(crossover)
            )
        common = dict(
            dtype=np.dtype(self.dtype),
            input_shape=tuple(self.input_shape),
            kernels=kernels,
            mask_specs=mask_specs,
            tasks=tasks,
            head_permutation=(
                np.asarray(self.head_permutation)
                if self.head_permutation is not None
                else None
            ),
            dynamic=dynamic,
            # getattr: version-1 pickles predate the field entirely.
            kernel_choices=(
                {
                    name: _RETIRED_VARIANTS.get(variant, variant)
                    for name, variant in self.kernel_choices.items()
                }
                if getattr(self, "kernel_choices", None)
                else None
            ),
        )
        if self.specialization is None:
            return EnginePlan(**common)
        extra = self.specialization
        return SpecializedEnginePlan(
            **common,
            source_task=extra["source_task"],
            dead_threshold=extra["dead_threshold"],
            compact_reduction=extra["compact_reduction"],
            live_channels={
                layer: np.asarray(live) for layer, live in extra["live_channels"].items()
            },
            dense_macs_per_image=extra["dense_macs_per_image"],
            specialized_macs_per_image=extra["specialized_macs_per_image"],
        )


@dataclass
class PlanSetSpec:
    """One picklable snapshot of a whole serving plan set.

    The unit the process-sharded runtime ships to a worker in *every*
    situation that (re)builds plans — initial launch, a two-phase hot-swap,
    and a supervisor **restart** of a crashed worker.  Capturing the dense
    plan and the per-task specialized plans together means the restart path
    cannot drift from the swap path: a respawned shard rebuilds from exactly
    the spec the committed generation shipped, so it rejoins the fleet on the
    same plans every live shard is serving.
    """

    plan: PlanSpec
    specialized: Dict[str, PlanSpec]
    #: Version-4 shared tensor table.  ``capture(dedup=True)`` interns every
    #: ndarray by *source object* identity across the dense plan and all
    #: specialized plans, so the frozen backbone (which ``specialize_plan``
    #: passes through to each per-task plan by identity) pickles **once**
    #: per plan set instead of once per task — the wire-size fix for the
    #: many-task regime.  ``None`` for pre-v4 pickles and plain captures.
    tensors: Optional[List[np.ndarray]] = None

    @classmethod
    def capture(
        cls,
        plan: EnginePlan,
        specialized: Dict[str, EnginePlan],
        dedup: bool = True,
    ) -> "PlanSetSpec":
        intern = _TensorInterner() if dedup else None
        captured = cls(
            plan=PlanSpec.from_plan(plan, intern),
            specialized={
                name: PlanSpec.from_plan(spec, intern) for name, spec in specialized.items()
            },
            tensors=intern.table if intern is not None else None,
        )
        return captured

    def build_all(self) -> Tuple[EnginePlan, Dict[str, EnginePlan]]:
        """Reconstruct (dense plan, per-task specialized plans) — fresh kernels.

        v4 specs resolve against the shared tensor table first; refs to one
        slot come back as the same array object, so the rebuilt plans keep
        the backbone sharing the capture deduplicated.  ``getattr`` tolerance:
        pre-v4 pickles have no ``tensors`` attribute at all.
        """
        tensors = getattr(self, "tensors", None)
        return (
            self.plan.resolved(tensors).build(),
            {
                name: spec.resolved(tensors).build()
                for name, spec in self.specialized.items()
            },
        )
