"""Metacognitive executive for budget-constrained multi-goal navigation,
with a self-contained synthetic benchmark."""

from .config import load_config
