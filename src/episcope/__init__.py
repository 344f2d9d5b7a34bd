"""Statistically grounded planning and validation for episode-based few-shot evaluation."""

__version__ = "0.1.0"
