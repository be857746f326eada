"""Simulated distributed platform: hosts, CPUs, memory, links, network."""

from .background import BackgroundLoad, PeriodicDaemon
from .cpu import CPU
from .disk import Disk
from .host import Host
from .link import Link, duplex
from .machines import (
    ETHERNET_100_BPS,
    MACHINES,
    PAGE_BYTES,
    PII_333,
    PII_450,
    PPRO_200,
    MachineSpec,
)
from .memory import Memory, MemoryError_, MemorySpace
from .traffic import CrossTraffic
from .network import DeliveryVerdict, Message, Network, NetworkError

__all__ = [
    "CPU",
    "Disk",
    "Host",
    "Memory",
    "MemorySpace",
    "MemoryError_",
    "Link",
    "duplex",
    "Network",
    "NetworkError",
    "DeliveryVerdict",
    "Message",
    "BackgroundLoad",
    "CrossTraffic",
    "PeriodicDaemon",
    "MachineSpec",
    "MACHINES",
    "PII_450",
    "PII_333",
    "PPRO_200",
    "PAGE_BYTES",
    "ETHERNET_100_BPS",
]
