"""The benchmark's three campaign workloads, run through the public repro API.

Each workload turns a seed into inputs (an untrained model quantized in
one or two conv modes, plus synthetic evaluation data), runs one campaign
on a :class:`RecordingEngine`, and can run the same units serially
through the public functions the traced run wraps.  Sizes come from
``workloads.json`` beside this file.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.backends import EINSUM_PATHS
from repro.datasets import DATASET_PRESETS, make_dataset
from repro.faultsim import (
    CampaignConfig,
    FaultModelConfig,
    OperationLevelInjector,
    ProtectionPlan,
    ReplayStats,
    build_golden_run,
    evaluate_seed_point,
    replay_forward,
)
from repro.models import build_benchmark_model
from repro.nn import initialize
from repro.quantized import QuantConfig, QuantizedModel, quantize_model
from repro.runtime import CampaignEngine, TaskSpec
from repro.tmr import plan_tmr

from perfbench.tracing import NULL

RECORD = json.loads(Path(__file__).with_name("workloads.json").read_text())

#: Pool size of every measured campaign (fixed, so runs compare across hosts).
WORKERS = int(RECORD["workers"])

#: One unit's outcome: (accuracy, injected events).
Outcome = tuple[float, int]


@dataclass(frozen=True)
class Unit:
    """One (model, BER, seed, protection plan) evaluation."""

    model: str
    ber: float
    seed: int
    plan: ProtectionPlan | None = None

    @property
    def key(self) -> tuple:
        return (
            self.model,
            self.ber,
            self.seed,
            None if self.plan is None else self.plan.cache_key(),
        )


@dataclass
class State:
    """Everything one set-up produced: models, data and campaign config."""

    models: dict[str, QuantizedModel]
    x: np.ndarray
    labels: np.ndarray
    config: CampaignConfig
    seed: int

    def label(self, qmodel: QuantizedModel) -> str:
        for name, candidate in self.models.items():
            if candidate is qmodel:
                return name
        raise KeyError(f"model {qmodel.name!r} is not part of this workload")


class RecordingEngine(CampaignEngine):
    """A :class:`CampaignEngine` that keeps every batch it evaluated."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches: list[tuple[QuantizedModel, list[TaskSpec], list]] = []

    def evaluate_tasks(self, qmodel, x, labels, tasks, config=None, on_result=None):
        results = super().evaluate_tasks(
            qmodel, x, labels, tasks, config=config, on_result=on_result
        )
        self.batches.append((qmodel, list(tasks), results))
        return results

    def units(self, state: State) -> list[tuple[Unit, Outcome]]:
        """Every evaluated unit with its outcome, in submission order."""
        out = []
        for qmodel, tasks, results in self.batches:
            label = state.label(qmodel)
            for task, result in zip(tasks, results):
                if task.is_batch:
                    pairs = zip(task.seeds, result.per_seed, result.events_per_seed)
                else:
                    pairs = [(task.seed, result.accuracy, result.events)]
                for seed, accuracy, events in pairs:
                    unit = Unit(label, task.ber, int(seed), task.protection)
                    out.append((unit, (float(accuracy), int(events))))
        return out


class Workload:
    """Shared set-up for the three workloads; subclasses define the campaign."""

    name = ""

    def __init__(self, sizes: dict | None = None):
        self.sizes = dict(RECORD["workloads"][self.name])
        self.sizes.update(sizes or {})

    @property
    def replay(self) -> bool:
        return bool(self.sizes["replay"])

    @property
    def samples(self) -> int:
        return int(self.sizes["samples_per_unit"])

    def campaign_seeds(self, seed: int, *stream: int) -> tuple[int, ...]:
        """Fault seeds of one point, derived from the workload seed (and a stream)."""
        words = np.random.SeedSequence([seed, *stream]).generate_state(
            self.sizes["seeds_per_point"]
        )
        return tuple(int(w) for w in words)

    def setup(self, seed: int, tracer=NULL) -> State:
        """Build, generate, quantize and warm up; inputs depend on ``seed`` only."""
        s = self.sizes
        graph = build_benchmark_model(s["model"])
        initialize(graph, seed)
        classes = DATASET_PRESETS[s["dataset"]].classes
        per_class = -(-max(s["samples_per_unit"], s["calibration_samples"]) // classes)
        dataset = make_dataset(
            s["dataset"], train_per_class=per_class, test_per_class=per_class, seed=seed
        )
        calib = dataset.train_x[: s["calibration_samples"]]
        models = {}
        for mode in s["conv_modes"]:
            with tracer.span(f"quantizer.{mode}"):
                models[f"{s['model']}/{mode}"] = quantize_model(
                    graph, calib, QuantConfig(width=s["width"]), mode
                )
        x = dataset.test_x[: self.samples]
        labels = dataset.test_y[: self.samples]
        for qmodel in models.values():
            qmodel.forward(x[: s["batch_size"]])  # fills the einsum-path cache
        config = CampaignConfig(
            seeds=self.campaign_seeds(seed),
            batch_size=s["batch_size"],
            fault_config=FaultModelConfig(rng_scheme="counter"),
        )
        return State(models, x, labels, config, seed)

    def timed_setup(self, seed: int) -> tuple[State, float]:
        """One set-up as a user pays it: starting from an empty path cache."""
        EINSUM_PATHS.clear()
        start = time.perf_counter()
        state = self.setup(seed)
        return state, time.perf_counter() - start

    def units_per_campaign(self, state: State) -> int:
        return len(self.units(state))

    def campaign(self, state: State, engine: RecordingEngine):
        """Run one campaign on ``engine``; returns a summary to compare or None."""
        raise NotImplementedError

    def serial(self, state: State, tracer, workdir: Path):
        """The campaign's units, serially through the public functions.

        Returns ``(units, summary, stats)``: the unit outcomes in campaign
        order, the campaign summary, and workload-specific counters.
        """
        raise NotImplementedError


class Fig2Sweep(Workload):
    """Standard vs Winograd accuracy sweep (Fig. 2), no replay."""

    name = "fig2_sweep"

    def units(self, state: State) -> list[Unit]:
        return [
            Unit(label, float(ber), seed)
            for label in state.models
            for ber in self.sizes["bers"]
            for seed in state.config.seeds
        ]

    def campaign(self, state, engine):
        for qmodel in state.models.values():
            engine.run_sweep(
                qmodel, state.x, state.labels, list(self.sizes["bers"]), config=state.config
            )
        return None

    def serial(self, state, tracer, workdir):
        out = []
        for unit in self.units(state):
            with tracer.unit():
                result = evaluate_seed_point(
                    state.models[unit.model], state.x, state.labels, unit.ber,
                    unit.seed, config=state.config, protection=unit.plan,
                )
            out.append((unit, (result.accuracy, result.events)))
        return out, None, {}


class LowBerReplay(Workload):
    """Low-BER sweep plus per-layer fault-free plans through replay."""

    name = "lowber_replay"

    def _model(self, state: State) -> tuple[str, QuantizedModel]:
        return next(iter(state.models.items()))

    def _plans(self, qmodel: QuantizedModel) -> list[tuple[str, ProtectionPlan]]:
        names = [layer.name for layer in qmodel.injectable_layers()]
        return [(name, ProtectionPlan.fault_free_layer(name, names)) for name in names]

    def tasks(self, state: State) -> list[TaskSpec]:
        """One seed-batch task per BER, then one per fault-free-layer plan.

        Every task draws its own fault seeds.  Shared seeds (as in
        ``layer_vulnerability``) would replay two fault realizations in
        every task, so the campaign's replay work would hinge on them.
        """
        _, qmodel = self._model(state)
        points = [(float(ber), None, "") for ber in self.sizes["bers"]]
        points += [
            (float(self.sizes["layer_plan_ber"]), plan, f"fault-free:{name}")
            for name, plan in self._plans(qmodel)
        ]
        return [
            TaskSpec(
                ber=ber, seeds=self.campaign_seeds(state.seed, index),
                protection=plan, tag=tag,
            )
            for index, (ber, plan, tag) in enumerate(points)
        ]

    def units(self, state: State) -> list[Unit]:
        label, _ = self._model(state)
        return [
            Unit(label, task.ber, seed, task.protection)
            for task in self.tasks(state)
            for seed in task.seeds
        ]

    def campaign(self, state, engine):
        _, qmodel = self._model(state)
        engine.evaluate_tasks(
            qmodel, state.x, state.labels, self.tasks(state), config=state.config
        )
        return None

    def serial(self, state, tracer, workdir):
        label, qmodel = self._model(state)
        config = state.config
        n = len(state.x)
        with tracer.span("replay.golden_build"):
            golden = build_golden_run(
                qmodel, state.x, injector_kind=config.injector,
                fault_config=config.fault_config, batch_size=config.batch_size,
            )
        out = []
        recomputed = visited = 0
        for unit in self.units(state):
            with tracer.unit():
                if unit.ber == 0.0:
                    result = evaluate_seed_point(
                        qmodel, state.x, state.labels, unit.ber, unit.seed,
                        config=config, protection=unit.plan, golden=golden,
                    )
                    outcome = (result.accuracy, result.events)
                else:
                    injector = OperationLevelInjector(
                        unit.ber, seed=unit.seed, config=config.fault_config,
                        protection=unit.plan,
                    )
                    stats = ReplayStats()
                    with tracer.span("replay.forward"):
                        preds = replay_forward(qmodel, golden, injector, (0, n), stats=stats)
                    outcome = (
                        float((preds == state.labels).mean()),
                        int(sum(injector.event_counts.values())),
                    )
                    recomputed += stats.total_recomputed
                    visited += len(stats.recomputed) * n
            out.append((unit, outcome))
        return out, None, {"rows_recomputed": recomputed, "rows_visited": visited}


class TmrPlanner(Workload):
    """Speculative fine-grained TMR planning (Fig. 5) on ResNet50."""

    name = "tmr_planner"

    def _plan(self, state: State, engine: CampaignEngine):
        (qmodel,) = state.models.values()
        ranking = [(layer.name, 1.0) for layer in qmodel.injectable_layers()]
        s = self.sizes
        result = plan_tmr(
            qmodel, state.x, state.labels, float(s["ber"]), float(s["target_accuracy"]),
            ranking, config=state.config, step=float(s["step"]),
            max_iterations=int(s["max_iterations"]), engine=engine, speculative=True,
        )
        return {
            "plan": result.to_dict(),
            "history": result.history,
            "units_per_iteration": (
                sum(len(t.seeds) for _, tasks, _ in engine.batches for t in tasks)
                / max(1, result.iterations)
            ),
        }

    def units_per_campaign(self, state: State) -> int:
        # The target is unreachable, so every campaign runs max_iterations.
        return int(self.sizes["max_iterations"]) * int(self.sizes["seeds_per_point"])

    def campaign(self, state, engine):
        summary = self._plan(state, engine)
        return {k: summary[k] for k in ("plan", "history")}

    def serial(self, state, tracer, workdir):
        path = workdir / "serial-checkpoint.jsonl"
        path.unlink(missing_ok=True)
        engine = RecordingEngine(workers=1, checkpoint_path=path)
        engine.evaluate_tasks = tracer.wrap("runtime.evaluate_tasks", engine.evaluate_tasks)
        with tracer.span("tmr.plan_tmr"):
            summary = self._plan(state, engine)
        path.unlink(missing_ok=True)
        units = engine.units(state)
        stats = {"units_per_iteration": summary.pop("units_per_iteration")}
        return units, summary, stats


WORKLOADS = {cls.name: cls for cls in (Fig2Sweep, LowBerReplay, TmrPlanner)}
