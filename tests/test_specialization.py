"""Sparsity-exploiting plan specialization.

Covers calibration measuring per-channel survival (engine- and mime-side,
JSON round-trip), dead-channel elimination staying ULP-equivalent to the dense
plan (every registered architecture in float64), specialized plans routed
bit-identically through the engine under every scheduling policy and through
a 4-worker serving runtime, and effective-MAC accounting from
``EngineRunStats`` through the recorder into the hardware scenario report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    CalibrationProfile,
    CompileError,
    MultiTaskEngine,
    SCHEDULING_MODES,
    SparsityRecorder,
    SpecializedEnginePlan,
    calibrate_plan,
    compile_network,
    profile_from_network,
    specialize_plan,
    specialize_tasks,
)
from repro.mime import MimeNetwork, add_structured_sparsity_task
from repro.models import available_models, build_model, extract_layer_shapes, vgg_tiny
from repro.models.vgg import VGG
from repro.serving import ServingRuntime

TASKS = ("alpha", "beta", "gamma")
#: Thresholds this high exceed any attainable pre-activation: the channel is
#: structurally dead for the task — it never fires on *any* input.
DEAD = 1e9


def _add_structured_tasks(network: MimeNetwork, rng: np.random.Generator, dead_fraction=0.5):
    for offset, name in enumerate(TASKS):
        add_structured_sparsity_task(
            network, name, 4 + offset, rng=rng,
            dead_fraction=dead_fraction, dead_threshold=DEAD,
        )
    return network


@pytest.fixture()
def network():
    rng = np.random.default_rng(7)
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=rng)
    net = MimeNetwork(backbone)
    net.eval()
    return _add_structured_tasks(net, rng)


@pytest.fixture()
def plan(network):
    return compile_network(network, dtype=np.float64)


@pytest.fixture()
def batch():
    return np.random.default_rng(21).normal(size=(9, 3, 16, 16))


def _profile_on(plan, batch):
    """Calibrate on the evaluation batch itself.

    The specialization contract is 'ULP-equivalent for inputs whose dead
    channels match the profile'; calibrating on the evaluation inputs makes that hold
    by construction, on top of the structurally dead channels which can never
    fire anywhere.
    """
    return calibrate_plan(plan, images={name: batch for name in plan.task_names()})


# ------------------------------------------------------------------ calibration --
def test_calibration_detects_structurally_dead_channels(network, plan):
    profile = calibrate_plan(plan, batch_size=16, seed=3)
    assert sorted(profile.tasks()) == sorted(TASKS)
    for name in TASKS:
        task = network.registry.get(name)
        for mask_layer, param in zip(network.masks(), task.thresholds):
            rates = profile.rates(name, mask_layer.layer_name)
            structurally_dead = (param.data == DEAD).all(axis=tuple(range(1, param.data.ndim)))
            assert rates.shape[0] == param.data.shape[0]
            assert (rates[structurally_dead] == 0.0).all()
            assert (0.0 <= rates).all() and (rates <= 1.0).all()
        assert profile.num_images[name] == 16


def test_calibration_profile_json_roundtrip(plan, tmp_path):
    profile = calibrate_plan(plan, batch_size=8, seed=5)
    path = profile.save(tmp_path / "profile.json")
    loaded = CalibrationProfile.load(path)
    assert sorted(loaded.tasks()) == sorted(profile.tasks())
    for name in profile.tasks():
        for layer in profile.layers(name):
            np.testing.assert_allclose(loaded.rates(name, layer), profile.rates(name, layer))
    assert loaded.num_images == profile.num_images


def test_profile_from_network_matches_engine_calibration(network, plan, batch):
    images = {name: batch for name in TASKS}
    from_plan = calibrate_plan(plan, images=images)
    from_net = profile_from_network(network, images)
    for name in TASKS:
        for layer in from_plan.layers(name):
            np.testing.assert_allclose(
                from_net.rates(name, layer), from_plan.rates(name, layer), atol=1e-12,
                err_msg=f"mime-side and engine-side survival disagree for {name}/{layer}",
            )


def test_calibration_validation(plan):
    with pytest.raises(ValueError):
        calibrate_plan(plan, batch_size=0)
    profile = calibrate_plan(plan, batch_size=4, seed=0)
    with pytest.raises(KeyError):
        profile.rates("nope", "conv1")
    with pytest.raises(KeyError):
        profile.rates("alpha", "conv99")
    with pytest.raises(ValueError):
        profile.live_mask("alpha", "conv1", dead_threshold=1.0)


# -------------------------------------------------------------- specialization --
def test_default_mode_is_ulp_equivalent_and_saves_more(plan, batch):
    profile = _profile_on(plan, batch)
    for name in TASKS:
        fast = specialize_plan(plan, name, profile)
        dense = plan.run(batch, name)
        out = fast.run(batch, name)
        np.testing.assert_allclose(out, dense, rtol=1e-12, atol=1e-12)
        assert (np.argmax(out, axis=1) == np.argmax(dense, axis=1)).all()
        assert fast.compact_reduction
        assert fast.specialized_macs_per_image < fast.dense_macs_per_image
        assert fast.mac_reduction() > 0.3  # ~50% dead channels compound across layers


def test_specialized_plan_shrinks_and_reports(plan, batch):
    profile = _profile_on(plan, batch)
    spec = specialize_plan(plan, "alpha", profile)
    assert isinstance(spec, SpecializedEnginePlan)
    assert spec.source_task == "alpha"
    assert spec.task_names() == ["alpha"]
    counts = spec.dead_channel_counts()
    assert set(counts) == set(plan.masked_layer_names())
    assert sum(counts.values()) > 0
    assert 0 < spec.specialized_macs_per_image < spec.dense_macs_per_image
    assert 0.0 < spec.mac_reduction() < 1.0
    # Masked GEMMs actually shrank to the live channel counts.
    for kernel, original in zip(
        [k for k in spec.kernels if hasattr(k, "weight_t")],
        [k for k in plan.kernels if hasattr(k, "weight_t")],
    ):
        assert kernel.weight_t.shape[1] <= original.weight_t.shape[1]


def test_specialization_errors(plan, batch):
    profile = _profile_on(plan, batch)
    with pytest.raises(KeyError):
        specialize_plan(plan, "nope", profile)
    spec = specialize_plan(plan, "alpha", profile)
    with pytest.raises(CompileError):
        specialize_plan(spec, "alpha", profile)
    with pytest.raises(CompileError):
        spec.add_task(object())
    with pytest.raises(ValueError):
        specialize_plan(plan, "alpha", profile, min_live=0)
    with pytest.raises(ValueError):
        specialize_plan(plan, "alpha", profile, dead_threshold=1.0)
    with pytest.raises(TypeError):  # one compaction strategy, no mode switch
        specialize_plan(plan, "alpha", profile, compact_reduction=False)


def test_min_live_keeps_an_all_dead_layer_alive(network, batch):
    # Kill *every* channel of every masked layer for one task: min_live must
    # retain one channel per layer and the result must still match the dense
    # plan exactly (every masked activation is zero in both plans, so the
    # compacted reductions degenerate to bit equality: the logits are
    # exactly the head bias).
    rng = np.random.default_rng(3)
    task = network.add_task("void", 5, rng=rng)
    for param in task.thresholds:
        param.data[:] = DEAD
    plan = compile_network(network, dtype=np.float64)
    profile = _profile_on(plan, batch)
    spec = specialize_plan(plan, "void", profile)
    for live in spec.live_channels.values():
        assert live.sum() == 1
    np.testing.assert_array_equal(plan.run(batch, "void"), spec.run(batch, "void"))


def test_declined_compaction_reports_zero_eliminated_channels(plan, batch):
    # A layer whose every channel survives declines compaction: it keeps the
    # dense arrays by identity and dead_channel_counts must not claim any
    # eliminated channels, while the other layers still compact.
    profile = _profile_on(plan, batch)
    first = plan.mask_specs[0].layer_name
    profile.survival["alpha"][first] = np.ones_like(profile.rates("alpha", first))
    spec = specialize_plan(plan, "alpha", profile)
    counts = spec.dead_channel_counts()
    assert counts[first] == 0
    assert sum(counts.values()) > 0
    compacted = next(k for k in spec.kernels if getattr(k, "mask", None))
    assert compacted.weight_t is plan.kernels[0].weight_t


# --------------------------------------------- engine / serving / policy sweep --
def _run_in_chunks(plan, images, task, size):
    """``plan`` on ``images`` in consecutive ``size``-row batches — the
    compositions a per-task micro-batcher forms from one task's stream."""
    return np.concatenate(
        [plan.run(images[i : i + size], task) for i in range(0, len(images), size)]
    )


def test_engine_with_specialized_plans_matches_dense_under_every_policy(plan, batch):
    profile = _profile_on(plan, batch)
    specialized = specialize_tasks(plan, profile=profile)
    for mode in SCHEDULING_MODES:
        spec_engine = MultiTaskEngine(plan, micro_batch=4, specialized=specialized)
        for name in TASKS:
            spec_engine.submit(name, batch)
        spec_out, stats = spec_engine.run_pending(mode=mode)
        assert stats.specialized_batches == stats.num_batches
        for offset, name in enumerate(TASKS):
            rows = np.stack(spec_out[offset * len(batch) : (offset + 1) * len(batch)])
            # Routing is exact: the same rows through the task's own plan.
            np.testing.assert_array_equal(
                rows, _run_in_chunks(specialized[name], batch, name, 4),
                err_msg=f"task {name} diverges under policy '{mode}'",
            )
            np.testing.assert_allclose(rows, plan.run(batch, name), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("model_name", available_models())
def test_every_registry_model_specializes_bit_identically(model_name):
    """Specialization correctness for every registered architecture.

    VGG-family backbones specialize to plans that match the dense plan at the
    differential suite's float64 tolerance and that the engine routes bit
    for bit; non-VGG architectures are rejected by MimeNetwork up front
    (documented behaviour), which this sweep pins down.
    """
    rng = np.random.default_rng(17)
    kwargs = {"num_classes": 6, "in_channels": 3, "rng": rng}
    if model_name in ("vgg11", "vgg13", "vgg16", "vgg19"):
        kwargs.update(input_size=32, width_multiplier=0.25)  # full depth, CPU-scale width
    elif model_name.startswith("vgg"):
        kwargs.update(input_size=16)
    else:
        with pytest.raises(TypeError):
            MimeNetwork(build_model(model_name))
        return
    backbone = build_model(model_name, **kwargs)
    assert isinstance(backbone, VGG)
    net = MimeNetwork(backbone)
    net.eval()
    _add_structured_tasks(net, rng)
    plan = compile_network(net, dtype=np.float64)
    size = backbone.input_size
    batch = rng.normal(size=(3, 3, size, size))
    profile = _profile_on(plan, batch)
    specialized = specialize_tasks(plan, profile=profile)
    engine = MultiTaskEngine(plan, micro_batch=len(batch), specialized=specialized)
    for name in TASKS:
        engine.submit(name, batch)
    routed, _ = engine.run_pending()
    for offset, name in enumerate(TASKS):
        own = specialized[name].run(batch, name)
        np.testing.assert_allclose(
            own, plan.run(batch, name), rtol=1e-9, atol=1e-12,
            err_msg=f"{model_name}: specialized logits diverge for task {name}",
        )
        np.testing.assert_array_equal(
            np.stack(routed[offset * len(batch) : (offset + 1) * len(batch)]), own
        )


def test_serving_runtime_4_workers_specialized_matches_dense(plan, batch):
    profile = _profile_on(plan, batch)
    # Per-task counts are exact multiples of micro_batch and max_wait is far
    # above the drain time, so every batch closes on its *size* trigger with
    # a composition fixed by submission order.  That makes the served batches
    # reproducible offline — a bit-exact comparison is only meaningful for
    # identical GEMM row counts (BLAS may reassociate a row's reduction
    # differently for different batch heights).
    items = [(TASKS[i % len(TASKS)], batch[i % batch.shape[0]]) for i in range(36)]
    with ServingRuntime(plan, workers=4, micro_batch=4, max_wait=30.0) as dense_runtime:
        dense_results = [f.result(timeout=30.0) for f in dense_runtime.submit_many(items)]

    # Specialized plans: each batch serves exactly the bits its task's plan
    # gives the same rows, ULP-equivalent to dense, and the recorder must see
    # the executed MACs drop below the dense baseline.
    fast = specialize_tasks(plan, profile=profile)
    runtime = ServingRuntime(plan, workers=4, micro_batch=4, max_wait=30.0, specialized=fast)
    with runtime:
        fast_results = [f.result(timeout=30.0) for f in runtime.submit_many(items)]
    for name in TASKS:
        indices = [i for i, (task, _) in enumerate(items) if task == name]
        images = np.stack([items[i][1] for i in indices])
        np.testing.assert_array_equal(
            np.stack([fast_results[i] for i in indices]),
            _run_in_chunks(fast[name], images, name, 4),
            err_msg=f"task {name} diverges from its specialized plan",
        )
    for lhs, rhs in zip(dense_results, fast_results):
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    dense_macs, effective = runtime.recorder.mac_totals()
    assert dense_macs > 0 and 0 < effective < dense_macs


def test_serving_runtime_rejects_specialized_plan_for_unknown_task(plan, batch):
    profile = _profile_on(plan, batch)
    spec = specialize_plan(plan, "alpha", profile)
    with pytest.raises(KeyError):
        ServingRuntime(plan, specialized={"stranger": spec})


# ------------------------------------------------------------- MAC accounting --
def test_run_stats_report_effective_macs(plan, batch):
    profile = _profile_on(plan, batch)
    engine = MultiTaskEngine(plan, micro_batch=4)
    for name in TASKS:
        engine.submit(name, batch)
    _, dense_stats = engine.run_pending()
    assert dense_stats.dense_macs > 0
    assert dense_stats.effective_macs == dense_stats.dense_macs
    assert dense_stats.mac_reduction() == 0.0
    assert dense_stats.specialized_batches == 0

    engine.specialize(profile=profile)
    for name in TASKS:
        engine.submit(name, batch)
    _, stats = engine.run_pending()
    assert stats.specialized_batches == stats.num_batches
    assert 0 < stats.effective_macs < stats.dense_macs
    assert stats.mac_reduction() > 0.3
    summary = stats.summary()
    assert "effective MACs" in summary and "% saved" in summary


def test_recorder_mac_totals_flow_into_hardware_report(network, plan, batch):
    profile = _profile_on(plan, batch)
    engine = MultiTaskEngine(plan, micro_batch=4, specialized=specialize_tasks(plan, profile=profile))
    for name in TASKS:
        engine.submit(name, batch)
    engine.run_pending()
    dense, effective = engine.recorder.mac_totals()
    assert 0 < effective < dense
    assert engine.recorder.mac_reduction() == pytest.approx(1.0 - effective / dense)

    report = engine.hardware_report(extract_layer_shapes(network.backbone), conv_only=True)
    assert report.measured_dense_macs == dense
    assert report.measured_effective_macs == effective
    assert report.measured_mac_reduction() == pytest.approx(engine.recorder.mac_reduction())


def test_recorder_mac_validation_and_reset():
    recorder = SparsityRecorder()
    with pytest.raises(ValueError):
        recorder.record_macs(-1, 0)
    recorder.record_macs(100, 60)
    recorder.record_macs(100, 40)
    assert recorder.mac_totals() == (200, 100)
    assert recorder.mac_reduction() == pytest.approx(0.5)
    recorder.reset()
    assert recorder.mac_totals() == (0, 0)
    assert recorder.mac_reduction() == 0.0


def test_specialized_runs_record_dense_comparable_sparsity(plan, batch):
    """The sparsity profile driving the hardware simulator must not change
    when the same traffic is served by specialized plans: eliminated channels
    are exactly the channels the dense plan measured as masked, so they count
    as dead in the specialized measurement too (dense-channel normalisation).
    """
    profile = _profile_on(plan, batch)
    recorded = {}
    for label, specs in (
        ("dense", {}),
        ("specialized", specialize_tasks(plan, profile=profile)),
    ):
        engine = MultiTaskEngine(plan, micro_batch=4, specialized=specs)
        for name in TASKS:
            engine.submit(name, batch)
        engine.run_pending()
        recorded[label] = {name: engine.recorder.per_layer(name) for name in TASKS}
    for name in TASKS:
        for layer, dense_value in recorded["dense"][name].items():
            assert recorded["specialized"][name][layer] == pytest.approx(dense_value, abs=1e-6), (
                f"specialized run of {name}/{layer} records sparsity "
                f"{recorded['specialized'][name][layer]:.4f} vs dense {dense_value:.4f}"
            )
