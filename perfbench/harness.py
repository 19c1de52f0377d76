"""Measurement, correctness checks and metric assembly for one benchmark run.

:func:`run_benchmark` is the whole run: set-up (several times, timed),
engine campaigns until the time budget is spent, and the correctness
oracle outside the timed window.  With ``trace=True`` it adds the serial
plain and traced runs and derives the per-layer metrics from their spans.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backends import EINSUM_PATHS, get_backend
from repro.errors import ReproError
from repro.faultsim import campaign_lambda, evaluate_seed_point

from perfbench.run import THREAD_VARS
from perfbench.tracing import (
    BACKEND_STAGES,
    INJECTOR_HOOKS,
    NULL,
    UNIT_SPAN,
    Tracer,
    instrument,
)
from perfbench.workloads import WORKERS, WORKLOADS, RecordingEngine, Workload

#: Descriptive entries of a workload record, left out of the environment block.
PROSE_KEYS = ("why", "campaign", "traced_calls", "ranking")

#: QNode subclasses the workload models contain (QAffine, QAvgPool and
#: QConcat never run here, so they get no metric).
NODE_METRICS = (
    "QInput", "QConvDirect", "QConvWinograd", "QLinear", "QReLU",
    "QMaxPool", "QGlobalAvgPool", "QFlatten", "QAdd",
)

#: name -> unit of the metrics an untraced run reports.
END_TO_END = {"samples_per_s": "samples/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: (name, unit, better) of the metrics a traced run reports.
PER_LAYER = (
    [(f"backends.{stage}.self_s", "s", "lower") for stage in BACKEND_STAGES]
    + [(f"backends.{stage}.calls", "count", "lower") for stage in BACKEND_STAGES]
    + [
        ("backends.channel_reduce.gmac_per_s", "GMAC/s", "higher"),
        ("backends.im2col_gemm.gmac_per_s", "GMAC/s", "higher"),
        ("backends.einsum_path_hit_ratio", "ratio", "higher"),
        ("backends.mac_check.layers", "count", "higher"),
        ("backends.mac_check.mismatches", "count", "lower"),
    ]
    + [(f"quantized.{name}.self_s", "s", "lower") for name in NODE_METRICS]
    + [
        ("quantizer.standard.quantize_s", "s", "lower"),
        ("quantizer.winograd.quantize_s", "s", "lower"),
        ("faultsim.inject_s", "s", "lower"),
        ("faultsim.events", "count", "higher"),
        ("faultsim.events_per_s", "1/s", "higher"),
        ("faultsim.events_vs_lambda", "ratio", "higher"),
        ("replay.golden_build_s", "s", "lower"),
        ("replay.self_s", "s", "lower"),
        ("replay.recompute_ratio", "ratio", "lower"),
        ("runtime.busy_ratio", "ratio", "higher"),
        ("runtime.overhead_s", "s", "lower"),
        ("runtime.batches", "count", "lower"),
        ("runtime.units", "count", "lower"),
        ("runtime.cached_units", "count", "higher"),
        ("runtime.unit_timed", "count", "higher"),
        ("runtime.unit_p50_s", "s", "lower"),
        ("runtime.unit_tail_s", "s", "lower"),
        ("runtime.unit_tail_q", "ratio", "higher"),
        ("runtime.checkpoint_bytes", "bytes", "lower"),
        ("runtime.checkpoint_s", "s", "lower"),
        ("tmr.planner.self_s", "s", "lower"),
        ("tmr.units_per_iteration", "units/iter", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


@dataclass
class Campaign:
    """One timed engine campaign."""

    wall: float
    units: list
    summary: object
    events: list
    batches: int
    checkpoint_bytes: int
    error: str | None = None


@dataclass
class Report:
    """Outcome of one benchmark run, ready to print."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    environment: dict
    findings: list[str] = field(default_factory=list)
    campaign_walls: list[float] = field(default_factory=list)

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


class Tally:
    """Attempted and failed unit counts, with a note per failure kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.findings.append(f"{count} failed: {why}")

    def check(self, reference: list, got: list, summary_ok: bool, what: str) -> None:
        """Count ``got``'s units; each one that differs from ``reference`` fails."""
        self.attempted += max(len(got), len(reference))
        if not summary_ok:
            self.fail(max(len(got), len(reference)), f"{what}: campaign summary differs")
            return
        bad = abs(len(got) - len(reference)) + sum(
            a[0].key != b[0].key or a[1] != b[1] for a, b in zip(reference, got)
        )
        self.fail(bad, f"{what}: units differ from the first campaign")


def environment(workload: Workload, state) -> dict:
    """Host, library and configuration facts recorded with every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy < 1.26 only prints its config
        blas = "unknown"
    backends = sorted({qmodel.kernel_backend for qmodel in state.models.values()})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "kernel_backend": ",".join(backends),
        "workers": WORKERS,
        "executor": "pool",
        "git_commit": _git_commit(Path(__file__).resolve().parent.parent),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "workload_sizes": {
            key: value for key, value in workload.sizes.items() if key not in PROSE_KEYS
        },
    }


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git (None if absent)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_campaigns(workload: Workload, state, seconds: float, workdir: Path) -> list[Campaign]:
    """Run the campaign on fresh engines until ``seconds`` have passed (at least once)."""
    campaigns: list[Campaign] = []
    deadline = time.perf_counter() + seconds
    while not campaigns or time.perf_counter() < deadline:
        path = workdir / f"campaign-{len(campaigns)}.jsonl"
        path.unlink(missing_ok=True)
        events: list = []
        engine = RecordingEngine(
            workers=WORKERS, checkpoint_path=path, progress=events.append,
            replay=workload.replay,
        )
        error = summary = None
        start = time.perf_counter()
        try:
            summary = workload.campaign(state, engine)
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}".splitlines()[0]
        wall = time.perf_counter() - start
        size = path.stat().st_size if path.exists() else 0
        path.unlink(missing_ok=True)
        campaigns.append(
            Campaign(wall, engine.units(state), summary, events, len(engine.batches), size, error)
        )
    return campaigns


def oracle(workload: Workload, state, reference: list, seed: int, tally: Tally) -> None:
    """Re-evaluate a seed-chosen subset of units independently of the engine.

    Plain :func:`evaluate_seed_point` on the ``reference`` kernel backend,
    serially, without replay: every mismatch or exception fails the unit.
    """
    count = min(int(workload.sizes["oracle_units"]), len(reference))
    picks = np.random.default_rng([seed, 1]).choice(len(reference), size=count, replace=False)
    for index in sorted(int(i) for i in picks):
        unit, outcome = reference[index]
        qmodel = state.models[unit.model]
        previous = qmodel.kernel_backend
        qmodel.set_kernel_backend("reference")
        try:
            result = evaluate_seed_point(
                qmodel, state.x, state.labels, unit.ber, unit.seed,
                config=state.config, protection=unit.plan,
            )
            if (result.accuracy, result.events) != outcome:
                tally.fail(1, f"oracle: {unit.key[:3]} gave {(result.accuracy, result.events)}, campaign {outcome}")
        except Exception as exc:  # noqa: BLE001 - any failure of the unit counts
            tally.fail(1, f"oracle: {unit.key[:3]} raised {type(exc).__name__}: {exc}")
        finally:
            qmodel.set_kernel_backend(previous)


def _check_campaigns(workload: Workload, state, campaigns: list[Campaign], tally: Tally):
    """Tally every campaign against the first successful one; returns it."""
    reference = next((c for c in campaigns if c.error is None), None)
    for campaign in campaigns:
        if campaign.error is not None:
            tally.attempted += workload.units_per_campaign(state)
            tally.fail(workload.units_per_campaign(state), f"campaign raised {campaign.error}")
        else:
            tally.check(
                reference.units, campaign.units, campaign.summary == reference.summary,
                "engine campaign",
            )
    return reference


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    sizes: dict | None = None,
) -> Report:
    """One benchmark run of workload ``name``; see the module docs."""
    workload = WORKLOADS[name](sizes)
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    if trace:
        return _traced_run(workload, seed, seconds, workdir, tally)

    setup_times = []
    for _ in range(int(workload.sizes["setup_repeats"])):
        state = None  # free the previous set-up first: peak RSS is the campaign's
        state, elapsed = workload.timed_setup(seed)
        setup_times.append(elapsed)
    campaigns = run_campaigns(workload, state, seconds, workdir)
    rss = peak_rss_mb()  # before the oracle, whose serial forwards are not the campaign's
    reference = _check_campaigns(workload, state, campaigns, tally)
    if reference is not None:
        oracle(workload, state, reference.units, seed, tally)
    ok = [c for c in campaigns if c.error is None]
    throughput = [len(c.units) * workload.samples / c.wall for c in ok]
    metrics = {
        "samples_per_s": (statistics.median(throughput) if ok else 0.0, END_TO_END["samples_per_s"]),
        "setup_s": (statistics.median(setup_times), END_TO_END["setup_s"]),
        "peak_rss_mb": (rss, END_TO_END["peak_rss_mb"]),
    }
    return _report(tally, reference, metrics, environment(workload, state), campaigns)


def _report(tally: Tally, reference, metrics: dict, env: dict, campaigns=()) -> Report:
    failed = min(tally.failed, max(1, tally.attempted))
    return Report(
        correct=reference is not None and failed == 0,
        attempted=max(1, tally.attempted),
        failed=failed,
        metrics=metrics,
        environment=env,
        findings=tally.findings,
        campaign_walls=[c.wall for c in campaigns],
    )


def _traced_run(workload: Workload, seed: int, seconds: float, workdir: Path, tally: Tally) -> Report:
    setup_trace = Tracer()
    EINSUM_PATHS.clear()
    with instrument(setup_trace, backend=get_backend(), layers=True, checkpoint=False):
        state = workload.setup(seed, tracer=setup_trace)
    backend = get_backend(next(iter(state.models.values())).kernel_backend)

    engine_trace = Tracer()
    with instrument(engine_trace, layers=False, checkpoint=True):
        campaigns = run_campaigns(workload, state, seconds, workdir)
    reference = _check_campaigns(workload, state, campaigns, tally)
    if reference is None:
        zeros = {name: (0, unit) for name, unit, _ in PER_LAYER}
        return _report(tally, None, zeros, environment(workload, state), campaigns)

    start = time.perf_counter()
    plain_units, plain_summary, _ = workload.serial(state, NULL, workdir)
    plain_wall = time.perf_counter() - start
    tally.check(reference.units, plain_units, plain_summary == reference.summary, "plain serial run")

    tracer = Tracer()
    before = backend.cache_stats().get("einsum_paths", {})
    with instrument(tracer, backend=backend, layers=True, checkpoint=True):
        start = time.perf_counter()
        traced_units, traced_summary, stats = workload.serial(state, tracer, workdir)
        traced_wall = time.perf_counter() - start
    after = backend.cache_stats().get("einsum_paths", {})
    tally.check(reference.units, traced_units, traced_summary == reference.summary, "traced serial run")
    oracle(workload, state, reference.units, seed, tally)

    metrics = layer_metrics(
        state, campaigns, setup_trace, engine_trace, tracer, traced_units, stats,
        cache_delta=(
            after.get("hits", 0) - before.get("hits", 0),
            after.get("misses", 0) - before.get("misses", 0),
        ),
        walls=(plain_wall, traced_wall),
        findings=tally.findings,
    )
    env = environment(workload, state)
    tracer.dump(
        workdir / f"trace-{workload.name}.jsonl",
        {"workload": workload.name, "seed": seed, "environment": env},
    )
    return _report(tally, reference, metrics, env, campaigns)


def mac_check(state, tracers, findings: list[str]) -> tuple[int, int]:
    """Per-image conv MACs from traced operand shapes vs ``layer_op_counts()``.

    Returns ``(layers verified, layers mismatched or never traced)``.
    """
    expected = {}
    for label, qmodel in state.models.items():
        counts = qmodel.layer_op_counts()
        for node in qmodel.injectable_layers():
            if node.op in ("QConvWinograd", "QConvDirect"):
                field_name = "wg_mul" if node.op == "QConvWinograd" else "st_mul"
                expected[id(node)] = (label, node.name, getattr(counts[node.name], field_name))
    seen: dict[int, set] = {}
    for tracer in tracers:
        kids = tracer.children()
        for index, span in enumerate(tracer.spans):
            node = span.attrs.get("node")
            if node is None or id(node) not in expected:
                continue
            gemms = [tracer.spans[k].attrs for k in kids[index] if "macs" in tracer.spans[k].attrs]
            rows = {g["rows"] for g in gemms}
            macs = sum(g["macs"] for g in gemms)
            per_image = None
            if len(rows) == 1 and macs % min(rows) == 0:
                per_image = macs // min(rows)
            seen.setdefault(id(node), set()).add(per_image)
    verified = 0
    for key, (label, layer, want) in expected.items():
        got = seen.get(key)
        if got == {want}:
            verified += 1
        else:
            findings.append(
                f"MAC check: {label} {layer} traced {sorted(got, key=str) if got else 'never'}, "
                f"layer_op_counts() {want}"
            )
    return verified, len(expected) - verified


def _quantile_tail(values: list[float]) -> tuple[float, float, float]:
    """(median, value with ten timed units above it, its quantile)."""
    if not values:
        return 0.0, 0.0, 0.0
    ordered = sorted(values)
    n = len(ordered)
    median = statistics.median(ordered)
    if n < 21:
        return median, median, 0.5
    index = n - 11
    return median, ordered[index], index / (n - 1)


def layer_metrics(
    state, campaigns, setup_trace, engine_trace, tracer, traced_units, stats,
    cache_delta, walls, findings,
) -> dict[str, tuple[float, str]]:
    """Assemble every per-layer metric (0 where a layer is not exercised)."""
    values: dict[str, float] = {name: 0 for name, _, _ in PER_LAYER}
    totals = tracer.totals()
    setup_totals = setup_trace.totals()

    def self_s(name, source=totals):
        return source.get(name, (0, 0.0, 0.0))[1]

    for stage in BACKEND_STAGES:
        source = setup_totals if stage == "filter_transform" else totals
        calls, own, _ = source.get(f"backends.{stage}", (0, 0.0, 0.0))
        values[f"backends.{stage}.self_s"] = own
        values[f"backends.{stage}.calls"] = calls
    for stage in ("channel_reduce", "im2col_gemm"):
        macs = sum(s.attrs.get("macs", 0) for s in tracer.spans if s.name == f"backends.{stage}")
        own = self_s(f"backends.{stage}")
        values[f"backends.{stage}.gmac_per_s"] = macs / own / 1e9 if own > 0 else 0.0
    hits, misses = cache_delta
    values["backends.einsum_path_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    verified, bad = mac_check(state, (setup_trace, tracer), findings)
    values["backends.mac_check.layers"] = verified
    values["backends.mac_check.mismatches"] = bad
    for name in NODE_METRICS:
        values[f"quantized.{name}.self_s"] = self_s(f"quantized.{name}")
    for mode in ("standard", "winograd"):
        values[f"quantizer.{mode}.quantize_s"] = setup_totals.get(
            f"quantizer.{mode}", (0, 0.0, 0.0)
        )[2]

    inject_s = sum(self_s(f"faultsim.{hook}") for hook in INJECTOR_HOOKS)
    events = sum(outcome[1] for _, outcome in traced_units)
    expected_events = sum(
        len(state.x) * campaign_lambda(state.models[u.model], u.ber, state.config, u.plan)
        for u, _ in traced_units
        if u.ber > 0
    )
    values["faultsim.inject_s"] = inject_s
    values["faultsim.events"] = events
    values["faultsim.events_per_s"] = events / inject_s if inject_s > 0 else 0.0
    values["faultsim.events_vs_lambda"] = events / expected_events if expected_events else 0.0

    values["replay.golden_build_s"] = totals.get("replay.golden_build", (0, 0.0, 0.0))[2]
    values["replay.self_s"] = self_s("replay.forward")
    if stats.get("rows_visited"):
        values["replay.recompute_ratio"] = stats["rows_recomputed"] / stats["rows_visited"]

    ok = [c for c in campaigns if c.error is None]
    timed = [e.elapsed for c in ok for e in c.events if not e.cached]
    wall = sum(c.wall for c in ok)
    values["runtime.busy_ratio"] = sum(timed) / (WORKERS * wall)
    values["runtime.overhead_s"] = statistics.fmean(
        c.wall - sum(e.elapsed for e in c.events if not e.cached) / WORKERS for c in ok
    )
    values["runtime.batches"] = statistics.fmean(c.batches for c in ok)
    values["runtime.units"] = statistics.fmean(sum(not e.cached for e in c.events) for c in ok)
    values["runtime.cached_units"] = statistics.fmean(sum(e.cached for e in c.events) for c in ok)
    values["runtime.unit_timed"] = len(timed)
    p50, tail, quantile = _quantile_tail(timed)
    values["runtime.unit_p50_s"] = p50
    values["runtime.unit_tail_s"] = tail
    values["runtime.unit_tail_q"] = quantile
    values["runtime.checkpoint_bytes"] = statistics.fmean(c.checkpoint_bytes for c in ok)
    engine_totals = engine_trace.totals()
    values["runtime.checkpoint_s"] = sum(
        engine_totals.get(f"runtime.checkpoint.{m}", (0, 0.0, 0.0))[1] for m in ("put", "flush")
    ) / len(ok)

    values["tmr.planner.self_s"] = self_s("tmr.plan_tmr")
    values["tmr.units_per_iteration"] = stats.get("units_per_iteration", 0.0)

    unit_calls, unit_self, unit_total = totals.get(UNIT_SPAN, (0, 0.0, 0.0))
    values["trace.coverage"] = 1.0 - unit_self / unit_total if unit_total > 0 else 0.0
    plain_wall, traced_wall = walls
    values["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    return {name: (values[name], PER_LAYER_UNITS[name]) for name, _, _ in PER_LAYER}
