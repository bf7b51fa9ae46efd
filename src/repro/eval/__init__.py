"""Evaluation: the paper's metrics, run harness and sweep protocol."""

from .aggregate import SweepCell, SweepProtocol, SweepResult, run_sweep
from .bench import compare_backends, write_backend_report
from .campaign import (
    CampaignCell,
    CampaignRunSummary,
    CampaignSpec,
    aggregate_report,
    campaign_status,
    load_campaign,
    run_campaign,
    shard_cells,
)
from .diagnostics import (
    BeliefMode,
    FilterTrace,
    belief_modes,
    trace_filter_health,
)
from .metrics import (
    CONVERGENCE_POSITION_M,
    CONVERGENCE_YAW_RAD,
    SUCCESS_ATE_LIMIT_M,
    AggregateMetrics,
    RunMetrics,
    convergence_curve,
    evaluate_run,
    first_convergence_index,
)
from .runner import RunResult, run_localization, run_localization_batch
from .store import CampaignStore, campaigns_root, list_campaigns
from .sweep_engine import DistanceFieldCache, SweepEngine

__all__ = [
    "compare_backends",
    "write_backend_report",
    "CampaignCell",
    "CampaignRunSummary",
    "CampaignSpec",
    "CampaignStore",
    "aggregate_report",
    "campaign_status",
    "campaigns_root",
    "list_campaigns",
    "load_campaign",
    "run_campaign",
    "shard_cells",
    "DistanceFieldCache",
    "SweepEngine",
    "run_localization_batch",
    "SweepCell",
    "SweepProtocol",
    "SweepResult",
    "run_sweep",
    "BeliefMode",
    "FilterTrace",
    "belief_modes",
    "trace_filter_health",
    "CONVERGENCE_POSITION_M",
    "CONVERGENCE_YAW_RAD",
    "SUCCESS_ATE_LIMIT_M",
    "AggregateMetrics",
    "RunMetrics",
    "convergence_curve",
    "evaluate_run",
    "first_convergence_index",
    "RunResult",
    "run_localization",
]
