"""Discrete-event simulation kernel (virtual time, processes, fluid sharing)."""

from .aggregate import AggregateFlow
from .conditions import AllOf, AnyOf, Condition, ConditionValue
from .core import (
    NORMAL,
    URGENT,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    StopSimulation,
    Timeout,
)
from .fluid import FluidJob, FluidShare
from .primitives import Store, StoreGet, StorePut
from .rng import derive_seed, stream

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "URGENT",
    "NORMAL",
    "AnyOf",
    "AllOf",
    "Condition",
    "ConditionValue",
    "Store",
    "StorePut",
    "StoreGet",
    "FluidShare",
    "FluidJob",
    "AggregateFlow",
    "stream",
    "derive_seed",
]
