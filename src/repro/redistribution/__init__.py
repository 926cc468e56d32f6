"""Data redistribution: schedules, gather/scatter, the executor, baselines."""

from .gather_scatter import (
    copy_segments,
    gather,
    gather_segments,
    scatter,
    scatter_segments,
)
from .schedule import RedistributionPlan, Transfer, build_plan
from .plan_cache import (
    PlanCache,
    clear_plan_cache,
    configure_plan_cache,
    get_plan,
    plan_cache_stats,
)
from .executor import (
    PlanExecutor,
    collect,
    distribute,
    execute_plan,
    redistribute,
)
from .naive import redistribute_bytewise, redistribute_bytewise_vectorized

__all__ = [
    "PlanCache",
    "PlanExecutor",
    "RedistributionPlan",
    "Transfer",
    "build_plan",
    "clear_plan_cache",
    "collect",
    "configure_plan_cache",
    "copy_segments",
    "distribute",
    "execute_plan",
    "gather",
    "gather_segments",
    "get_plan",
    "plan_cache_stats",
    "redistribute",
    "redistribute_bytewise",
    "redistribute_bytewise_vectorized",
    "scatter",
    "scatter_segments",
]
