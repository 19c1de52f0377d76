"""Lifecycle of the campaign engine's persistent fork pool.

One pool serves every ``evaluate_tasks`` call and retry wave of an engine
and is re-forked only when the fork-time payload (model, kernel backend,
data, golden run) changes; ``close()``, ``with`` and dropping the engine
terminate and join its workers.  Worker identity is observed through
``multiprocessing.active_children()``.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.errors import TaskExecutionError
from repro.faultsim import CampaignConfig, FaultModelConfig, run_sweep
from repro.runtime import CampaignEngine, ChaosSpec, RetryPolicy

BERS = [1e-5, 3e-5, 1e-4]


@pytest.fixture()
def config():
    return CampaignConfig(
        seeds=(0, 1), batch_size=12, max_samples=24,
        fault_config=FaultModelConfig(rng_scheme="counter"),
    )


def worker_pids() -> frozenset[int]:
    return frozenset(p.pid for p in multiprocessing.active_children())


def as_dicts(results):
    return [r.to_dict() for r in results]


def assert_reaped(pids):
    """Every pid was joined by the parent (so RUSAGE_CHILDREN counts it)."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_one_pool_serves_every_batch_and_retry_wave(
    tiny_quantized, tiny_eval, config, tmp_path
):
    qm, _ = tiny_quantized
    x, y = tiny_eval
    chaos = ChaosSpec(seed=3, unit_error_rate=0.5)
    ckpt = tmp_path / "campaign.jsonl"
    retry = RetryPolicy(max_attempts=12, base_delay=0.0)
    seen = []
    with CampaignEngine(
        workers=2, checkpoint_path=ckpt, chaos=chaos, retry=retry
    ) as engine:
        for ber in BERS:
            got = engine.run_sweep(qm, x, y, [ber], config=config)
            assert as_dicts(got) == as_dicts(run_sweep(qm, x, y, [ber], config=config))
            seen.append(worker_pids())
    assert len(seen[0]) == 2 and all(pids == seen[0] for pids in seen)
    assert not multiprocessing.active_children()
    assert_reaped(seen[0])
    keys = [json.loads(line)["key"] for line in ckpt.read_text().splitlines()[1:]]
    assert len(keys) == len(BERS) * len(config.seeds)
    # Retry waves ran on the same pool: some first attempts were failed.
    assert any(chaos.decide("unit_error", key, 1) for key in keys)


def test_pool_reforks_only_when_the_payload_changes(
    tiny_quantized, tiny_eval, config
):
    qm_st, qm_wg = tiny_quantized
    x, y = tiny_eval
    engine = CampaignEngine(workers=2)
    engine.run_sweep(qm_st, x, y, BERS[:1], config=config)
    first = worker_pids()
    engine.run_sweep(qm_st, x, y, BERS[1:], config=config)
    assert worker_pids() == first

    forks = [first]

    def assert_reforked():
        pids = worker_pids()
        assert len(pids) == 2 and not pids & forks[-1]
        assert_reaped(forks[-1])
        forks.append(pids)

    engine.run_sweep(qm_wg, x, y, BERS[:1], config=config)  # model
    assert_reforked()
    x_copy = x.copy()
    engine.run_sweep(qm_wg, x_copy, y, BERS[:1], config=config)  # data
    assert_reforked()
    backend = qm_wg.kernel_backend
    other = "reference" if backend != "reference" else "optimized"
    try:
        qm_wg.set_kernel_backend(other)  # kernel backend
        engine.run_sweep(qm_wg, x_copy, y, BERS[:1], config=config)
        assert_reforked()
    finally:
        qm_wg.set_kernel_backend(backend)
    engine.close()
    assert not multiprocessing.active_children()
    assert_reaped(forks[-1])


def test_pool_reforks_when_the_golden_run_changes(tiny_quantized, tiny_eval, config):
    qm, _ = tiny_quantized
    x, y = tiny_eval
    with CampaignEngine(workers=2, replay=True) as engine:
        engine.run_sweep(qm, x, y, BERS[:1], config=config)
        first = worker_pids()
        engine.run_sweep(qm, x, y, BERS[1:], config=config)  # same golden run
        assert worker_pids() == first
        shorter = CampaignConfig(
            seeds=config.seeds, batch_size=12, max_samples=12,
            fault_config=config.fault_config,
        )
        got = engine.run_sweep(qm, x, y, BERS[:1], config=shorter)
        second = worker_pids()
        assert len(second) == 2 and not second & first
    assert as_dicts(got) == as_dicts(run_sweep(qm, x, y, BERS[:1], config=shorter))
    assert not multiprocessing.active_children()


def test_close_and_drop_join_every_worker(tiny_quantized, tiny_eval, config):
    qm, _ = tiny_quantized
    x, y = tiny_eval
    engine = CampaignEngine(workers=2)
    engine.run_sweep(qm, x, y, BERS, config=config)
    pids = worker_pids()
    assert len(pids) == 2
    engine.close()
    assert not multiprocessing.active_children()
    assert_reaped(pids)
    engine.close()  # idempotent

    # A closed engine forks anew on its next batch; dropping it joins that pool.
    engine.run_sweep(qm, x, y, BERS, config=config)
    pids = worker_pids()
    assert len(pids) == 2
    del engine
    assert not multiprocessing.active_children()
    assert_reaped(pids)


def test_permanent_failure_closes_the_pool(tiny_quantized, tiny_eval, config):
    """A wave abandoned by a permanent failure leaves no stale units behind."""
    qm, _ = tiny_quantized
    x, y = tiny_eval
    broken = CampaignConfig(
        seeds=config.seeds, batch_size=12, max_samples=24, injector="bogus"
    )
    with CampaignEngine(workers=2) as engine:
        with pytest.raises(TaskExecutionError, match="unknown injector"):
            engine.run_sweep(qm, x, y, BERS, config=broken)
        assert not multiprocessing.active_children()
        got = engine.run_sweep(qm, x, y, BERS, config=config)
    assert as_dicts(got) == as_dicts(run_sweep(qm, x, y, BERS, config=config))
