"""Simulation substrate: clocks, the adversarial network, hosts, time.

This package is the "completely open network" of the paper's threat
model.  The Kerberos implementation in :mod:`repro.kerberos` runs
entirely on top of it; the attacks in :mod:`repro.attacks` are ordinary
clients of the same fabric with the adversary's extra capabilities.
"""

from repro.sim.clock import MINUTE, SECOND, EventTimeline, HostClock, SimClock
from repro.sim.host import Host, HostError, StorageKind
from repro.sim.network import Adversary, Endpoint, Network, NetworkError, WireMessage
from repro.sim.process import Process
from repro.sim.sched import Scheduler, Timer
from repro.sim.workload import DiurnalCurve, ZipfianGenerator

__all__ = [
    "Adversary",
    "DiurnalCurve",
    "Endpoint",
    "EventTimeline",
    "Host",
    "HostClock",
    "HostError",
    "MINUTE",
    "Network",
    "NetworkError",
    "Process",
    "SECOND",
    "Scheduler",
    "SimClock",
    "StorageKind",
    "Timer",
    "WireMessage",
    "ZipfianGenerator",
]
