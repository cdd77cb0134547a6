"""Workload generation, cost accounting, validation, result rendering."""

from repro.analysis.cracking import (
    COMMON_PASSWORDS, PasswordPopulation, attack_dictionary,
)
from repro.analysis.overhead import (
    CostRow, TradeoffRow, cache_growth, compare_recommendations,
    cost_security_tradeoff, measure,
)
from repro.analysis.report import render_matrix, render_table
from repro.analysis.validation import ValidationReport, validate_configuration
from repro.analysis.workload import SiteWorkload, adversary_haul

__all__ = [
    "COMMON_PASSWORDS",
    "CostRow",
    "PasswordPopulation",
    "SiteWorkload",
    "TradeoffRow",
    "ValidationReport",
    "adversary_haul",
    "attack_dictionary",
    "cache_growth",
    "compare_recommendations",
    "cost_security_tradeoff",
    "measure",
    "render_matrix",
    "render_table",
    "validate_configuration",
]
