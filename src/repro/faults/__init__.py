"""Deterministic fault injection for the live-call path.

``repro.faults`` answers one question the paper's evaluation never has
to: what happens to the defense when the call itself degrades?  It
provides seeded fault schedules (:class:`FaultSpec` →
:class:`FaultSchedule`: Gilbert–Elliott loss bursts, jitter spikes,
landmark-dropout windows, frame freezes, clock skew) and the wrappers
that replay them against the network stack and a recorded session
without modifying either's happy path.  The robustness sweep over a
severity grid lives in :func:`repro.experiments.matrix.run_fault_matrix`.
"""

from .injector import FaultyChannel, apply_faults_to_record, build_faulty_links
from .schedule import FaultSchedule, FaultSpec

__all__ = [
    "FaultSchedule",
    "FaultSpec",
    "FaultyChannel",
    "apply_faults_to_record",
    "build_faulty_links",
]
