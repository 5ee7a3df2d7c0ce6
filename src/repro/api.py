"""The blessed public surface of the reproduction.

Everything an application (or the CLI, or the README examples) should
import lives here, re-exported from the subsystem that owns it:

* verification — :func:`verify_clips` (batch, the documented offline
  entry point), :class:`ChatVerifier` (sessions), :class:`StreamingVerifier`
  (live call), the latter two returning :class:`VerificationReport`;
* the deployable classifier — :class:`LivenessDetector` and its
  :class:`DetectionResult`;
* batch feature extraction — :func:`extract_features_batch` over the
  structure-of-arrays :class:`ClipBatch` core (a single clip is a batch
  of one);
* configuration — :class:`DetectorConfig` (validated copies via
  :meth:`~repro.core.config.DetectorConfig.with_overrides`) and the
  paper's exact :data:`PAPER_CONFIG`;
* the execution engine — :class:`ExecutionEngine`, :class:`FeatureCache`
  and the printable :class:`PerfReport`;
* session simulation — the ``simulate_*`` entry points the examples use;
* fault injection — :class:`FaultSpec`/:class:`FaultSchedule`, the
  faulted session builder and the :func:`run_fault_matrix` robustness
  sweep, plus the streaming quality-gate vocabulary
  (:class:`GatedAttempt`, :class:`ClipQuality`, :class:`AttemptVerdict`);
* observability — :class:`Instrumentation` (the handle every
  instrumented constructor accepts), the metrics registry and its
  mergeable snapshots, span tracing with the ``repro-trace-v1`` JSONL
  schema, and the Prometheus/JSON exporters;
* the serving layer — :class:`VerificationServer` (admission control,
  per-tenant model banks, bounded per-session queues, deadlines) with
  :class:`ServerConfig`/:class:`SessionOutcome`, the two time regimes
  (:class:`VirtualScheduler` deterministic, :class:`RealTimeScheduler`
  wall clock), the open-loop workload generator
  (:class:`WorkloadConfig`, :func:`run_workload`,
  :func:`make_tenant_bank_provider`) and :func:`build_slo_report`;
* the challenge-binding protocol — :class:`ProtocolConfig`,
  :class:`ProtocolProvisioner` (per-tenant nonces + commitment ledger),
  :class:`ProtocolGate`/:class:`BindingReport` (what the streaming
  verifier consults per clip), the :class:`BindingOutcome` vocabulary,
  the pure derivation helpers (:func:`derive_schedule`,
  :func:`derive_session_schedules`) and the
  :func:`run_protocol_matrix` sweep showing what the layer adds over
  the LOF.

Importing from submodule paths keeps working, but only the names listed
here are covered by the compatibility promise.
"""

from .core.batch import ClipBatch
from .core.config import PAPER_CONFIG, DetectorConfig
from .core.detector import DetectionResult, LivenessDetector, verify_clips
from .core.features import FeatureVector, extract_features_batch
from .core.pipeline import ChatVerifier, VerificationReport
from .core.streaming import (
    AttemptVerdict,
    CallStatus,
    ClipQuality,
    GatedAttempt,
    StreamingState,
    StreamingVerifier,
)
from .core.voting import Verdict, VotingCombiner
from .engine import ExecutionEngine, FeatureCache, PerfReport
from .experiments.matrix import (
    DEFAULT_FAULT_SPEC,
    PROTOCOL_ROLES,
    FaultCell,
    FaultMatrixResult,
    ProtocolCell,
    ProtocolMatrixResult,
    run_fault_matrix,
    run_protocol_matrix,
    simulate_faulted_session,
    simulate_protocol_session,
)
from .experiments.simulate import (
    simulate_adaptive_attack_session,
    simulate_attack_session,
    simulate_genuine_session,
    simulate_replay_attack_session,
)
from .faults import FaultSchedule, FaultSpec
from .obs import (
    PIPELINE_STAGES,
    TRACE_SCHEMA,
    Instrumentation,
    JsonlTraceSink,
    MetricsRegistry,
    MetricsSnapshot,
    Tracer,
    read_trace,
    render_json,
    render_prometheus,
)
from .protocol import (
    BindingOutcome,
    BindingReport,
    ProtocolConfig,
    ProtocolGate,
    ProtocolProvisioner,
    derive_schedule,
    derive_session_schedules,
)
from .service import (
    RealTimeScheduler,
    SLOReport,
    ServerConfig,
    SessionOutcome,
    VerificationServer,
    VirtualScheduler,
    WorkloadConfig,
    build_slo_report,
    make_tenant_bank_provider,
    run_workload,
)

__all__ = [
    "AttemptVerdict",
    "BindingOutcome",
    "BindingReport",
    "CallStatus",
    "ClipBatch",
    "ClipQuality",
    "DEFAULT_FAULT_SPEC",
    "FaultCell",
    "FaultMatrixResult",
    "FaultSchedule",
    "FaultSpec",
    "GatedAttempt",
    "ChatVerifier",
    "DetectionResult",
    "DetectorConfig",
    "ExecutionEngine",
    "FeatureCache",
    "FeatureVector",
    "Instrumentation",
    "JsonlTraceSink",
    "LivenessDetector",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PAPER_CONFIG",
    "PIPELINE_STAGES",
    "PROTOCOL_ROLES",
    "PerfReport",
    "ProtocolCell",
    "ProtocolConfig",
    "ProtocolGate",
    "ProtocolMatrixResult",
    "ProtocolProvisioner",
    "RealTimeScheduler",
    "SLOReport",
    "ServerConfig",
    "SessionOutcome",
    "StreamingState",
    "StreamingVerifier",
    "TRACE_SCHEMA",
    "Tracer",
    "Verdict",
    "VerificationReport",
    "VerificationServer",
    "VirtualScheduler",
    "VotingCombiner",
    "WorkloadConfig",
    "build_slo_report",
    "derive_schedule",
    "derive_session_schedules",
    "extract_features_batch",
    "make_tenant_bank_provider",
    "read_trace",
    "render_json",
    "render_prometheus",
    "run_fault_matrix",
    "run_protocol_matrix",
    "run_workload",
    "simulate_adaptive_attack_session",
    "simulate_attack_session",
    "simulate_faulted_session",
    "simulate_genuine_session",
    "simulate_protocol_session",
    "simulate_replay_attack_session",
    "verify_clips",
]
