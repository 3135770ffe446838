"""Chaos SLOs: p99 latency, recovery time and zero lost acks per capability.

Runs the full chaos capability matrix (baseline plus one trial per
fault capability — allocation denials, forced queue overflow, disk
full, 8x-slow IO, fail-Nth) against the crash-transparent file service
at the default 16-client scale, then re-runs the whole campaign at
``--jobs 4`` and on both execution engines and asserts the campaign
digests are bit-identical — the seed-purity claim the chaos tier
stands on.

The recorded artifact (``benchmarks/results/chaos_slo.txt``) is the
SLO report: per-capability fires, acked ops, p50/p99 latency under
chaos, recovery time, and the lost-ack count (always 0).
"""

import os

import pytest

from repro.reliability import (
    ChaosCampaignConfig,
    TrafficConfig,
    format_chaos_report,
    run_chaos_campaign,
)
from repro.server import LoadSpec

CLIENTS = int(os.environ.get("RIO_BENCH_CHAOS_CLIENTS", "16"))
OPS = int(os.environ.get("RIO_BENCH_CHAOS_OPS", "30"))
SEED = 11


def _config(ops_per_client=OPS, **overrides):
    params = dict(clients=CLIENTS, crashes=2, seed=SEED)
    params.update(overrides)
    return ChaosCampaignConfig(
        base=TrafficConfig(load=LoadSpec(ops_per_client=ops_per_client), **params)
    )


@pytest.fixture(scope="module")
def campaigns():
    out = {
        "serial": run_chaos_campaign(_config(jobs=1)),
        "fanned": run_chaos_campaign(_config(jobs=4)),
    }
    # The engine is a property of the machine: pinned by RIO_FAST_PATH,
    # which every worker process inherits.
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name, flag in (("reference", "0"), ("hot", "1")):
            monkeypatch.setenv("RIO_FAST_PATH", flag)
            out[name] = run_chaos_campaign(_config(jobs=4))
    return out


def test_chaos_slos(benchmark, campaigns, record_result):
    benchmark.pedantic(
        lambda: run_chaos_campaign(
            _config(clients=4, ops_per_client=10, crashes=1)
        ),
        rounds=1,
        iterations=1,
    )
    result = campaigns["serial"]
    lines = [
        format_chaos_report(result),
        "",
        "seed purity (sha256 campaign digests):",
        f"  --jobs 1           {campaigns['serial'].digest}",
        f"  --jobs 4           {campaigns['fanned'].digest}",
        f"  RIO_FAST_PATH=0    {campaigns['reference'].digest}",
        f"  RIO_FAST_PATH=1    {campaigns['hot'].digest}",
    ]
    record_result("chaos_slo", "\n".join(lines))

    # Every trial survives: zero lost acks under every capability.
    assert result.ok, [t.trial for t in result.trials if not t.ok]
    for trial in result.trials:
        assert trial.lost_acks == 0, trial.trial
        assert trial.crashes_observed == 2, trial.trial
        assert trial.recovery_ns > 0, trial.trial
    by_name = {t.trial: t for t in result.trials}
    # The baseline is calm; every armed capability actually fired.
    assert by_name["baseline"].chaos_fires == 0
    for name in ("fail_alloc", "fail_queue", "fail_disk_full",
                 "slow_io", "fail_nth_syscall"):
        assert by_name[name].chaos_fires > 0, name
    # slow_io denies nothing — it only stretches the tail.
    assert by_name["slow_io"].failed == 0
    assert by_name["slow_io"].p99_ns >= by_name["baseline"].p99_ns
    # Seed purity: bit-identical digests at any worker count and on
    # either execution engine.
    digests = {name: c.digest for name, c in campaigns.items()}
    assert len(set(digests.values())) == 1, digests
