"""Reliability experiments: the crash-test campaign behind Table 1.

Each run boots a system (disk-based write-through, Rio without
protection, or Rio with protection), drives memTest plus concurrent
Andrew instances, arms one fault type, lets the corrupted kernel run
until it crashes (or discards the run after the time budget, as the paper
does), recovers per the system's design, and then hunts for corruption
three ways — exactly the paper's apparatus:

1. memTest replay comparison (direct + indirect corruption);
2. registry checksums (direct corruption, Rio systems only);
3. the two static copies of files no workload modifies.
"""

from repro.reliability.campaign import (
    CrashTestConfig,
    CrashTestResult,
    SYSTEM_NAMES,
    dissect_second_opinion,
    run_crash_test,
    system_spec_for,
)
from repro.reliability.report import (
    CampaignCell,
    Table1,
    format_table1,
    seed_for,
    table1_digest,
)
from repro.reliability.engine import CampaignEngine, EngineStats
from repro.reliability.pool import CampaignWorkerError, ParallelMap, WorkerPool
from repro.reliability.journal import (
    CampaignJournal,
    CampaignResumeError,
    JournalWarning,
)
from repro.reliability.traffic import (
    TrafficConfig,
    TrafficResult,
    format_traffic_report,
    rolling_crash_points,
    run_traffic_campaign,
)
from repro.reliability.chaos import (
    DEFAULT_MATRIX,
    ChaosCampaignConfig,
    ChaosCampaignResult,
    format_chaos_report,
    run_chaos_campaign,
)
from repro.reliability.propagation import (
    PropagationSummary,
    format_propagation,
    summarize_propagation,
)

__all__ = [
    "CrashTestConfig",
    "CrashTestResult",
    "SYSTEM_NAMES",
    "dissect_second_opinion",
    "run_crash_test",
    "system_spec_for",
    "CampaignCell",
    "Table1",
    "format_table1",
    "seed_for",
    "table1_digest",
    "CampaignEngine",
    "CampaignWorkerError",
    "EngineStats",
    "ParallelMap",
    "WorkerPool",
    "CampaignJournal",
    "CampaignResumeError",
    "JournalWarning",
    "TrafficConfig",
    "TrafficResult",
    "format_traffic_report",
    "rolling_crash_points",
    "run_traffic_campaign",
    "DEFAULT_MATRIX",
    "ChaosCampaignConfig",
    "ChaosCampaignResult",
    "format_chaos_report",
    "run_chaos_campaign",
    "PropagationSummary",
    "format_propagation",
    "summarize_propagation",
]
