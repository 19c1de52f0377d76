"""The default kernel path: ``optimized``, checked against ``reference``.

Every campaign runs on :data:`repro.backends.DEFAULT_BACKEND` unless told
otherwise, and the ``reference`` backend stays the differential oracle.
This module pins four things about that arrangement:

* **the default** — a freshly quantized model and each of its
  backend-aware nodes report ``DEFAULT_BACKEND == "optimized"``;
* **injected parity** — fault-injected forwards and campaign units on
  ``reference`` and on the default give equal logits, ``event_counts``
  and :class:`~repro.faultsim.SeedPointResult` values, across conv
  modes, RNG schemes, ABFT detect/correct, the
  ``amplify_input_transform_adds`` ablation and a protection plan;
* **view against matrix** — the injector and the ABFT checksum read the
  zero-copy ``(N, C, R, S, P, Q)`` patches view exactly as they would the
  materialized im2col matrix;
* **nothing retained** — after a forward the optimized backend keeps no
  per-call arrays, only its einsum-path and fused-matrix caches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import DEFAULT_BACKEND, get_backend
from repro.faultsim import (
    AbftChecker,
    CampaignConfig,
    FaultModelConfig,
    OperationLevelInjector,
    ProtectionPlan,
    SCHEME_ABFT,
    evaluate_seed_point,
)
from repro.fixedpoint import QFormat
from repro.quantized import QuantConfig, quantize_model
from repro.quantized.qops import QConvDirect, conv_op_counts
from repro.utils.im2col import im2col, im2col_patches

BER = 1e-5
N_SAMPLES = 24
SCHEMES = ("stream", "counter")
VARIANTS = ("plain", "abft_detect", "abft_correct", "amplify", "plan")


def protection_plan(qm) -> ProtectionPlan:
    """Partial TMR on the first layer, ABFT on the last: both mechanisms."""
    layers = [layer.name for layer in qm.injectable_layers()]
    plan = ProtectionPlan()
    for category in ("st_mul", "st_add", "wg_mul", "wg_input_add"):
        plan.set(layers[0], category, 0.5)
    plan.set_scheme(layers[-1], SCHEME_ABFT)
    return plan


def make_injector(qm, variant: str, scheme: str, seed: int = 3):
    """A fresh injector for one variant of the parity matrix."""
    fault_config = FaultModelConfig(
        rng_scheme=scheme, amplify_input_transform_adds=variant == "amplify"
    )
    plan = protection_plan(qm) if variant == "plan" else None
    inner = OperationLevelInjector(BER, seed=seed, config=fault_config, protection=plan)
    if variant.startswith("abft"):
        return AbftChecker(inner, correct=variant == "abft_correct")
    return inner


def on_backend(qm, name: str, run):
    """``run()`` with ``qm`` on backend ``name``, restoring the default."""
    try:
        qm.set_kernel_backend(name)
        return run()
    finally:
        qm.set_kernel_backend(DEFAULT_BACKEND)


class TestDefault:
    @pytest.mark.parametrize("mode", ["standard", "winograd"])
    def test_fresh_model_and_nodes_report_default(self, tiny_trained, tiny_dataset, mode):
        qm = quantize_model(
            tiny_trained, tiny_dataset.train_x[:16], QuantConfig(width=16), mode
        )
        assert qm.kernel_backend == DEFAULT_BACKEND == "optimized"
        aware = [node for node in qm.nodes if hasattr(node, "kernel_backend")]
        assert aware and len(aware) == len(qm.injectable_layers())
        for node in aware:
            assert node.kernel_backend == DEFAULT_BACKEND, node.name


class TestInjectedParity:
    """Reference and the default agree under every injection variant."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("mode_index", [0, 1], ids=["standard", "winograd"])
    def test_logits_and_event_counts(
        self, tiny_quantized, tiny_eval, mode_index, scheme, variant
    ):
        qm = tiny_quantized[mode_index]
        x = tiny_eval[0][:N_SAMPLES]

        def run():
            injector = make_injector(qm, variant, scheme)
            logits = qm.forward(x, injector=injector)
            report = injector.report() if isinstance(injector, AbftChecker) else None
            return logits, dict(injector.event_counts), report

        ref_logits, ref_events, ref_report = on_backend(qm, "reference", run)
        logits, events, report = on_backend(qm, DEFAULT_BACKEND, run)
        assert sum(ref_events.values()) > 0
        np.testing.assert_array_equal(logits, ref_logits)
        assert events == ref_events
        assert report == ref_report

    @pytest.mark.parametrize("variant", ("plain", "amplify", "plan", "abft"))
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("mode_index", [0, 1], ids=["standard", "winograd"])
    def test_seed_point_results(
        self, tiny_quantized, tiny_eval, mode_index, scheme, variant
    ):
        qm = tiny_quantized[mode_index]
        x, y = tiny_eval
        config = CampaignConfig(
            seeds=(0, 1),
            batch_size=12,
            max_samples=N_SAMPLES,
            fault_config=FaultModelConfig(
                rng_scheme=scheme, amplify_input_transform_adds=variant == "amplify"
            ),
        )
        plan = None
        if variant == "plan":
            plan = protection_plan(qm)
        elif variant == "abft":
            plan = ProtectionPlan()
            for layer in qm.injectable_layers():
                plan.set_scheme(layer.name, SCHEME_ABFT)

        def run():
            return [
                evaluate_seed_point(qm, x, y, ber, seed, config, protection=plan)
                for ber in (BER, 1e-4)
                for seed in config.seeds
            ]

        ref = on_backend(qm, "reference", run)
        assert on_backend(qm, DEFAULT_BACKEND, run) == ref
        assert any(result.events for result in ref)


def _direct_layer(rng, c: int, k: int, kernel: int, stride: int, padding: int, out):
    """A standalone quantized direct conv with random int16-range operands."""
    in_fmt = QFormat(16, 8)
    return QConvDirect(
        name="conv",
        inputs=("input",),
        out_fmt=QFormat(16, 8),
        weight_int=rng.integers(-(1 << 15), 1 << 15, size=(k, c, kernel, kernel)),
        bias_acc=rng.integers(-(1 << 20), 1 << 20, size=k),
        in_fmt=in_fmt,
        w_fmt=QFormat(16, 12),
        kernel=kernel,
        stride=stride,
        padding=padding,
        op_counts=conv_op_counts("standard", c, k, kernel, stride, out, m=2),
    )


class TestPatchesViewAgainstMatrix:
    """The injector reads the 6-D view exactly as the im2col matrix."""

    @settings(max_examples=40, deadline=None)
    @given(
        kernel=st.sampled_from([1, 3]),
        stride=st.sampled_from([1, 2]),
        padding=st.sampled_from([0, 1]),
        scheme=st.sampled_from(SCHEMES),
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        h=st.integers(3, 7),
        w=st.integers(3, 7),
        seed=st.integers(0, 2**16),
    )
    def test_visit_direct_view_equals_matrix(
        self, kernel, stride, padding, scheme, n, c, h, w, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.integers(-(1 << 15), 1 << 15, size=(n, c, h, w))
        patches = im2col_patches(x, (kernel, kernel), stride, padding)
        matrix = im2col(x, (kernel, kernel), stride, padding)
        p, q = patches.shape[4:]
        layer = _direct_layer(rng, c, 2, kernel, stride, padding, (p, q))
        acc0 = rng.integers(-(1 << 30), 1 << 30, size=(n, 2, p, q))
        assert not patches.flags.writeable

        def visit(cols):
            injector = OperationLevelInjector(
                0.1, seed=seed, config=FaultModelConfig(rng_scheme=scheme)
            )
            injector.begin_inference(n)
            acc = acc0.copy()
            injector.visit_direct(layer, x, cols, acc)
            return acc, dict(injector.event_counts)

        view_acc, view_events = visit(patches)
        # The matrix as (N, C*R*S, 1, 1, 1, P*Q): the injector's unravel is
        # then the identity, so it reads matrix[img, red, pq] directly.
        matrix_acc, matrix_events = visit(matrix[:, :, None, None, None, :])
        assert view_events["st_mul"] > 0
        assert view_events == matrix_events
        np.testing.assert_array_equal(view_acc, matrix_acc)

        w_sum = layer.weight_int.reshape(2, -1).sum(axis=0)
        expected = np.einsum("r,nrp->np", w_sum, matrix).reshape(n, p, q)
        np.testing.assert_array_equal(
            AbftChecker._conv_checksum(layer, patches),
            expected + int(layer.bias_acc.sum()),
        )


class TestNothingRetained:
    @pytest.mark.parametrize("mode_index", [0, 1], ids=["standard", "winograd"])
    def test_optimized_keeps_only_shared_caches(
        self, tiny_quantized, tiny_eval, mode_index
    ):
        qm = tiny_quantized[mode_index]
        backend = get_backend("optimized")
        on_backend(
            qm,
            "optimized",
            lambda: qm.forward(
                tiny_eval[0][:8], injector=OperationLevelInjector(BER, seed=0)
            ),
        )
        assert set(backend.cache_stats()) == {"einsum_paths", "fused_transforms"}
        arrays = [
            name for name, value in vars(backend).items()
            if isinstance(value, np.ndarray)
        ]
        assert arrays == []
