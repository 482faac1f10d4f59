"""Logical clock substrate: vector clocks, interval counters, dependences."""

from repro.clocks.dependence import Dependence, DependenceList
from repro.clocks.lamport import IntervalCounter, LamportClock
from repro.clocks.vector import VectorClock

__all__ = [
    "VectorClock",
    "IntervalCounter",
    "LamportClock",
    "Dependence",
    "DependenceList",
]
