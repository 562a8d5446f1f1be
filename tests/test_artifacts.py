"""Model artifact bundles: roundtrips, integrity, the store, spawned loads.

The deployment contract under test: an artifact saved from live plans and
loaded back — in this process or a freshly spawned one — compiles to plans
producing **bit-identical** logits (dense, compact-specialized, and
bit-exact-specialized alike), the manifest's content hashes catch any byte
drift, and the store's versioning/latest-pointer semantics are atomic enough
to build a zero-downtime deployment flow on.
"""

from __future__ import annotations

import copy
import json
import multiprocessing
from typing import Dict

import numpy as np
import pytest

from repro.artifacts import (
    ArtifactError,
    ArtifactIntegrityError,
    MANIFEST_NAME,
    ModelArtifact,
    ModelStore,
)
from repro.engine import (
    CalibrationProfile,
    PlanSpec,
    calibrate_plan,
    compile_network,
    quantize_plan_kernels,
    specialize_tasks,
)
from repro.mime import MimeNetwork, add_structured_sparsity_task
from repro.models import vgg_tiny

TASKS = ("alpha", "beta", "gamma")
#: add_structured_sparsity_task kills channels with thresholds >= ~1e9.
STRUCTURAL_DEAD = 1e8


def structural_profile(plan, network: MimeNetwork) -> CalibrationProfile:
    """Survival derived from thresholds, so dead sets are exact, not sampled."""
    survival: Dict[str, Dict[str, np.ndarray]] = {}
    for task in network.registry:
        per_layer: Dict[str, np.ndarray] = {}
        for spec, param in zip(plan.mask_specs, task.thresholds):
            data = param.data
            if data.ndim == 3:
                dead = (data >= STRUCTURAL_DEAD).all(axis=(1, 2))
            else:
                dead = data >= STRUCTURAL_DEAD
            per_layer[spec.layer_name] = (~dead).astype(float)
        survival[task.name] = per_layer
    return CalibrationProfile(
        survival=survival, num_images={task.name: 1 for task in network.registry}
    )


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(77)
    backbone = vgg_tiny(num_classes=6, input_size=16, in_channels=3, rng=rng)
    network = MimeNetwork(backbone)
    network.eval()
    for name in TASKS:
        add_structured_sparsity_task(
            network, name, num_classes=5, rng=rng, dead_fraction=0.3, threshold_jitter=0.2
        )
    plan = compile_network(network, dtype=np.float32)
    profile = structural_profile(plan, network)
    compact = specialize_tasks(plan, profile=profile, compact_reduction=True)
    exact = specialize_tasks(plan, profile=profile, compact_reduction=False)
    return network, plan, profile, compact, exact


def make_batch(plan, seed: int, n: int = 6) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n,) + tuple(plan.input_shape))


# ------------------------------------------------------------ ModelArtifact --
class TestModelArtifactRoundTrip:
    def test_dense_roundtrip_bit_identical(self, workload, tmp_path):
        network, plan, profile, compact, _ = workload
        artifact = ModelArtifact.from_plans(
            "demo", plan, compact, calibration=profile, network=network
        )
        artifact.save(tmp_path / "bundle")
        loaded = ModelArtifact.load(tmp_path / "bundle")
        rebuilt, _ = loaded.build_plans()
        batch = make_batch(plan, seed=11)
        for task in TASKS:
            np.testing.assert_array_equal(plan.run(batch, task), rebuilt.run(batch, task))
            # And the compiled plan still tracks the live training network.
            np.testing.assert_allclose(
                rebuilt.run(batch, task), network.forward(batch, task=task), atol=1e-4
            )

    def test_compact_specialized_roundtrip_bit_identical(self, workload, tmp_path):
        network, plan, profile, compact, _ = workload
        artifact = ModelArtifact.from_plans("demo", plan, compact, calibration=profile)
        artifact.save(tmp_path / "bundle")
        _, rebuilt_specialized = ModelArtifact.load(tmp_path / "bundle").build_plans()
        batch = make_batch(plan, seed=12)
        assert sorted(rebuilt_specialized) == sorted(TASKS)
        for task in TASKS:
            np.testing.assert_array_equal(
                compact[task].run(batch, task), rebuilt_specialized[task].run(batch, task)
            )

    def test_exact_specialized_roundtrip_matches_dense_bit_for_bit(self, workload, tmp_path):
        network, plan, profile, _, exact = workload
        artifact = ModelArtifact.from_plans("demo", plan, exact, calibration=profile)
        artifact.save(tmp_path / "bundle")
        rebuilt_plan, rebuilt_specialized = ModelArtifact.load(tmp_path / "bundle").build_plans()
        batch = make_batch(plan, seed=13)
        for task in TASKS:
            # Scatter-mode guarantee survives the disk roundtrip: specialized
            # logits equal the dense plan's bit for bit (structural dead set).
            np.testing.assert_array_equal(
                rebuilt_specialized[task].run(batch, task), plan.run(batch, task)
            )
            np.testing.assert_array_equal(
                rebuilt_plan.run(batch, task), plan.run(batch, task)
            )

    def test_calibration_and_weights_survive_the_roundtrip(self, workload, tmp_path):
        network, plan, profile, compact, _ = workload
        artifact = ModelArtifact.from_plans(
            "demo", plan, compact, calibration=profile, network=network,
            metadata={"note": "pr5"},
        )
        artifact.save(tmp_path / "bundle")
        loaded = ModelArtifact.load(tmp_path / "bundle")
        assert loaded.metadata == {"note": "pr5"}
        assert sorted(loaded.calibration.tasks()) == sorted(TASKS)
        for task in TASKS:
            for layer in profile.layers(task):
                np.testing.assert_allclose(
                    loaded.calibration.rates(task, layer), profile.rates(task, layer)
                )
        # The flat weight map carries W_parent and every per-task record and
        # can restore a fresh network to the same predictions.
        fresh_backbone = vgg_tiny(
            num_classes=6, input_size=16, in_channels=3, rng=np.random.default_rng(5)
        )
        backbone_state = {
            key[len("backbone."):]: value
            for key, value in loaded.weights.items()
            if key.startswith("backbone.")
        }
        fresh_backbone.load_state_dict(backbone_state)
        restored = MimeNetwork(fresh_backbone)
        restored.eval()
        for name in TASKS:
            add_structured_sparsity_task(
                restored, name, num_classes=5, rng=np.random.default_rng(9)
            )
            task_state = {
                key[len(f"task.{name}."):]: value
                for key, value in loaded.weights.items()
                if key.startswith(f"task.{name}.")
            }
            restored.registry.get(name).load_state_dict(task_state)
        batch = make_batch(plan, seed=14)
        for name in TASKS:
            np.testing.assert_allclose(
                restored.forward(batch, task=name), network.forward(batch, task=name)
            )


class TestModelArtifactIntegrity:
    def test_verify_detects_tampered_payload(self, workload, tmp_path):
        _, plan, profile, compact, _ = workload
        ModelArtifact.from_plans("demo", plan, compact, calibration=profile).save(
            tmp_path / "bundle"
        )
        # Still-parseable bytes that differ from what the manifest hashed:
        # only the integrity check can tell the difference.
        target = tmp_path / "bundle" / "calibration.json"
        target.write_text(json.dumps(json.loads(target.read_text()), indent=None))
        with pytest.raises(ArtifactIntegrityError, match="hash mismatch"):
            ModelArtifact.load(tmp_path / "bundle")
        # verify=False skips the check (operator escape hatch).
        ModelArtifact.load(tmp_path / "bundle", verify=False)

    def test_verify_detects_missing_payload(self, workload, tmp_path):
        _, plan, profile, _, _ = workload
        ModelArtifact.from_plans("demo", plan, calibration=profile).save(tmp_path / "bundle")
        (tmp_path / "bundle" / "calibration.json").unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            ModelArtifact.verify(tmp_path / "bundle")

    def test_unsupported_schema_version_rejected(self, workload, tmp_path):
        _, plan, _, _, _ = workload
        ModelArtifact.from_plans("demo", plan).save(tmp_path / "bundle")
        manifest_path = tmp_path / "bundle" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["schema_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="schema version"):
            ModelArtifact.load(tmp_path / "bundle")

    def test_non_artifact_directory_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="not an artifact"):
            ModelArtifact.load(tmp_path)


# ------------------------------------------------- retired kernel variants --
class TestRetiredVariantNames:
    """Specs and artifacts written before two kernel lowerings were retired
    still load: their variant names map onto the surviving variants that run
    the same arithmetic, and a stored int16 weight copy is ignored."""

    @staticmethod
    def legacy_spec(quantized):
        spec = copy.deepcopy(PlanSpec.from_plan(quantized))
        convs = [desc for desc in spec.kernels if desc["type"] == "conv"]
        linears = [desc for desc in spec.kernels if desc["type"] == "linear"]
        # Even convs name the retired float lowering, every other quantized
        # GEMM the retired integer one.
        for index, desc in enumerate(convs):
            desc["variant"] = "winograd" if index % 2 == 0 else "int8spd"
        for desc in linears:
            desc["variant"] = "int8spd"
        spec.kernel_choices = {desc["name"]: desc["variant"] for desc in convs + linears}
        quant = convs[1]["quant"]
        quant["weight_qi"] = np.asarray(quant["weight_q"]).astype(np.int16)
        return spec

    def test_legacy_spec_and_artifact_load_and_run_bit_identically(self, workload, tmp_path):
        _, plan, _, _, _ = workload
        quantized = PlanSpec.from_plan(plan).build()
        profile = calibrate_plan(quantized, batch_size=4, seed=5)
        assert quantize_plan_kernels(quantized, profile, set_variant=True)
        legacy = self.legacy_spec(quantized)
        mapped = {"winograd": "im2col", "int8spd": "int8"}
        expected = {name: mapped[variant] for name, variant in legacy.kernel_choices.items()}

        # The same plan forced onto the surviving variants by hand.
        for kernel in quantized.kernels:
            if getattr(kernel, "name", None) in expected:
                kernel.variant = expected[kernel.name]

        artifact = ModelArtifact.from_plans("legacy", plan)
        artifact.plan_spec = legacy
        artifact.save(tmp_path / "bundle")
        from_artifact, _ = ModelArtifact.load(tmp_path / "bundle").build_plans()

        batch = make_batch(plan, seed=15)
        for rebuilt in (legacy.build(), from_artifact):
            assert rebuilt.kernel_choices == expected
            for kernel in rebuilt.kernels:
                if getattr(kernel, "name", None) in expected:
                    assert kernel.variant == expected[kernel.name]
            for task in TASKS:
                np.testing.assert_array_equal(
                    rebuilt.run(batch, task), quantized.run(batch, task)
                )


# ----------------------------------------------------------- spawned loads --
def _load_and_run_in_child(directory: str, seed: int, task: str, out_path: str) -> None:
    """Spawned-process child: load the artifact, run a batch, save the logits."""
    from repro.artifacts import ModelArtifact

    artifact = ModelArtifact.load(directory)
    plan, specialized = artifact.build_plans()
    batch = np.random.default_rng(seed).normal(size=(4,) + tuple(plan.input_shape))
    np.savez(
        out_path,
        dense=plan.run(batch, task),
        specialized=specialized[task].run(batch, task),
    )


def test_artifact_loads_bit_identically_in_a_spawned_process(workload, tmp_path):
    """The sharded-worker path: a fresh interpreter loads the bundle from disk
    and produces the same bits as the parent's live plans."""
    _, plan, profile, compact, _ = workload
    ModelArtifact.from_plans("demo", plan, compact, calibration=profile).save(
        tmp_path / "bundle"
    )
    out_path = tmp_path / "child_logits.npz"
    ctx = multiprocessing.get_context("spawn")
    child = ctx.Process(
        target=_load_and_run_in_child,
        args=(str(tmp_path / "bundle"), 21, TASKS[1], str(out_path)),
    )
    child.start()
    child.join(120.0)
    assert child.exitcode == 0
    batch = np.random.default_rng(21).normal(size=(4,) + tuple(plan.input_shape))
    with np.load(out_path) as archive:
        np.testing.assert_array_equal(archive["dense"], plan.run(batch, TASKS[1]))
        np.testing.assert_array_equal(
            archive["specialized"], compact[TASKS[1]].run(batch, TASKS[1])
        )


# ------------------------------------------------------------- ModelStore --
class TestModelStore:
    def test_publish_autonumbers_and_moves_latest(self, workload, tmp_path):
        _, plan, profile, compact, _ = workload
        store = ModelStore(tmp_path / "store")
        artifact = ModelArtifact.from_plans("demo", plan, compact, calibration=profile)
        assert store.versions() == []
        assert store.latest() is None
        first = store.publish(artifact)
        second = store.publish(artifact)
        assert (first, second) == ("v001", "v002")
        assert store.versions() == ["v001", "v002"]
        assert store.latest() == "v002"
        loaded = store.load()  # latest
        rebuilt, _ = loaded.build_plans()
        batch = make_batch(plan, seed=31)
        np.testing.assert_array_equal(
            plan.run(batch, TASKS[0]), rebuilt.run(batch, TASKS[0])
        )

    def test_named_versions_and_set_latest(self, workload, tmp_path):
        _, plan, _, _, _ = workload
        store = ModelStore(tmp_path / "store")
        artifact = ModelArtifact.from_plans("demo", plan)
        store.publish(artifact, version="canary", set_latest=False)
        assert store.latest() is None
        store.publish(artifact)  # auto name, becomes latest
        store.set_latest("canary")
        assert store.latest() == "canary"
        assert store.load("canary").name == "demo"
        with pytest.raises(ArtifactError, match="already exists"):
            store.publish(artifact, version="canary")
        with pytest.raises(ArtifactError, match="does not exist"):
            store.set_latest("missing")

    def test_invalid_version_names_rejected(self, workload, tmp_path):
        _, plan, _, _, _ = workload
        store = ModelStore(tmp_path / "store")
        artifact = ModelArtifact.from_plans("demo", plan)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ArtifactError, match="invalid version"):
                store.publish(artifact, version=bad)

    def test_empty_store_load_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="no latest version"):
            ModelStore(tmp_path / "store").load()

    def test_store_verify_catches_post_publish_corruption(self, workload, tmp_path):
        _, plan, _, _, _ = workload
        store = ModelStore(tmp_path / "store")
        version = store.publish(ModelArtifact.from_plans("demo", plan))
        target = store.resolve(version) / "plan.pkl"
        corrupted = bytearray(target.read_bytes())
        corrupted[5] ^= 0xFF
        target.write_bytes(bytes(corrupted))
        with pytest.raises(ArtifactIntegrityError):
            store.verify(version)
