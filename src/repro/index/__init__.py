"""Indexes supporting early termination (descendant label counts)."""

from repro.index.label_index import BoundIndex

__all__ = ["BoundIndex"]
