"""The traced run's instruments, all applied from outside the program.

* :func:`traced_copy` wraps every kernel of a plan in a :class:`TimedKernel`
  proxy on a ``dataclasses.replace`` copy, so the plan the runtime serves is
  unchanged and the proxies only time ``kernel.run`` calls.
* :func:`kernel_metrics` turns those timings into per-kernel wall time, and
  into GFLOP/s and GB/s from FLOPs and bytes *computed* from tensor shapes
  and ``conv_variant_traffic`` (never measured counters), set against a raw
  float32 ``np.matmul`` roofline probe at each call's GEMM shape.
* :func:`run_spans` recovers one span per plan execution (first kernel start
  to last kernel end) from the same log.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import numpy as np


class KernelLog:
    """Append-only ``(thread, position, last, kernel, rows, t0, t1)`` call log.

    ``list.append`` is atomic under the interpreter lock, so worker threads
    share one log without a lock.
    """

    def __init__(self) -> None:
        self.calls: List[tuple] = []


class TimedKernel:
    """Forwards every attribute to ``kernel``; times ``run``."""

    __slots__ = ("_kernel", "_log", "_position", "_last")

    def __init__(self, kernel, log: KernelLog, position: int, last: int) -> None:
        self._kernel = kernel
        self._log = log
        self._position = position
        self._last = last

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    def run(self, x, task, ws, recorder, ctx=None):
        t0 = time.perf_counter()
        out = self._kernel.run(x, task, ws, recorder, ctx)
        t1 = time.perf_counter()
        self._log.calls.append(
            (threading.get_ident(), self._position, self._last, self._kernel, x.shape[0], t0, t1)
        )
        return out


def traced_copy(plan, log: KernelLog):
    """A copy of ``plan`` whose kernels are timing proxies over the originals."""
    last = len(plan.kernels) - 1
    kernels = [TimedKernel(k, log, i, last) for i, k in enumerate(plan.kernels)]
    return replace(plan, kernels=kernels)


def run_spans(log: KernelLog) -> List[Tuple[float, float]]:
    """``(start, end)`` of each plan execution, in ``perf_counter`` seconds."""
    open_at: Dict[int, float] = {}
    spans: List[Tuple[float, float]] = []
    for thread, position, last, _kernel, _rows, t0, t1 in log.calls:
        if position == 0:
            open_at[thread] = t0
        if position == last and thread in open_at:
            spans.append((open_at.pop(thread), t1))
    return spans


# ------------------------------------------------------- computed traffic --
def gemm_shape(kernel, rows: int) -> Tuple[int, int, int]:
    """``(M, K, N)`` of the GEMM a conv/linear kernel computes for ``rows``."""
    reduction, width = kernel.weight_t.shape
    if kernel.kind == "conv":
        _, h_out, w_out = kernel.out_shape
        return rows * h_out * w_out, reduction, width
    return rows, reduction, width


def computed_bytes(kernel, rows: int) -> int:
    from repro.engine.kernels import conv_variant_traffic, linear_variant_traffic

    traffic = conv_variant_traffic if kernel.kind == "conv" else linear_variant_traffic
    return int(traffic(kernel, rows, kernel.variant)[1])


class Roofline:
    """Raw float32 ``np.matmul`` time per GEMM shape, memoised."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._seconds: Dict[Tuple[int, int, int], float] = {}

    def seconds(self, shape: Tuple[int, int, int]) -> float:
        if shape not in self._seconds:
            m, k, n = shape
            a = self._rng.standard_normal((m, k)).astype(np.float32)
            b = self._rng.standard_normal((k, n)).astype(np.float32)
            out = np.empty((m, n), dtype=np.float32)
            np.matmul(a, b, out=out)
            samples = []
            deadline = time.perf_counter() + 0.02
            while len(samples) < 5 or (time.perf_counter() < deadline and len(samples) < 50):
                t0 = time.perf_counter()
                np.matmul(a, b, out=out)
                samples.append(time.perf_counter() - t0)
            self._seconds[shape] = float(np.median(samples))
        return self._seconds[shape]


def kernel_metrics(log: KernelLog, roofline: Roofline) -> Dict[str, float]:
    """``kernels.<name>.ms`` (median per call) for every kernel, plus
    ``.gflops``, ``.gbps`` and ``.roofline_share`` for conv/linear kernels.

    Kernels of several plans that share a name (the per-task specialized
    plans of one backbone) are pooled under that name.
    """
    by_name: Dict[str, List[tuple]] = {}
    for _thread, _position, _last, kernel, rows, t0, t1 in log.calls:
        name = getattr(kernel, "name", None)
        if name is None or kernel.kind == "flatten":
            continue
        by_name.setdefault(name, []).append((kernel, rows, t1 - t0))
    metrics: Dict[str, float] = {}
    for name, calls in by_name.items():
        metrics[f"kernels.{name}.ms"] = 1e3 * float(np.median([c[2] for c in calls]))
        if calls[0][0].kind not in ("conv", "linear"):
            continue
        seconds = sum(c[2] for c in calls)
        flops = sum(2 * int(np.prod(gemm_shape(k, rows))) for k, rows, _ in calls)
        nbytes = sum(computed_bytes(k, rows) for k, rows, _ in calls)
        probe = sum(roofline.seconds(gemm_shape(k, rows)) for k, rows, _ in calls)
        metrics[f"kernels.{name}.gflops"] = flops / seconds / 1e9
        metrics[f"kernels.{name}.gbps"] = nbytes / seconds / 1e9
        metrics[f"kernels.{name}.roofline_share"] = probe / seconds
    return metrics


def kernel_metric_names(gemms: Sequence[str], pools: Sequence[str]) -> List[str]:
    suffixes = ("ms", "gflops", "gbps", "roofline_share")
    names = [f"kernels.{name}.{suffix}" for name in gemms for suffix in suffixes]
    return names + [f"kernels.{name}.ms" for name in pools]
