"""Deterministic simulator for transparent distributed caching in
vehicular edge pub/sub networks."""

__version__ = "0.1.0"
