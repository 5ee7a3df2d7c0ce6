"""One benchmark run: set-up, the measured phase, metrics, checks.

``--trace 0`` sets each workload up :data:`SETUP_REPEATS` times
(reporting the median set-up time), then runs the measured phase with
no wrapper installed except the service's attempt-close timer, and
reports the end-to-end metrics.  Its timings are taken on the
:class:`~lbench.hostclock.HostClock`: seconds at a nominal host speed,
so the host's drift is divided out and the program's speed is left.  ``--trace 1`` sets up once, runs the
same measured phase untraced as the reference and then traced, and
reports the per-layer metrics, including what tracing itself cost.
"""

from __future__ import annotations

import contextlib
import gc
import os
import statistics
import time

from . import batch, offline, service
from .result import RunResult
from .hostclock import HostClock
from .stats import peak_rss_mb, percentile, share
from .tracing import LAYERS, TARGETS, Patcher, SpanLog, installed_wrappers, tracer

WORKLOADS = {
    "offline-sessions": offline,
    "service-open-loop": service,
    "batch-verify": batch,
}
SETUP_REPEATS = 3
TRACE_DIR = ".layerbench"
#: The only wrapper an untraced run may see: the service's push timer.
UNTRACED_WRAPPERS = {
    "service-open-loop": ["StreamingVerifier.push@StreamingVerifier:timer"],
}

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END = (
    ("frames_per_s", "1/s"),
    ("attempt_close_ms_p50", "ms"),
    ("attempt_close_ms_p95", "ms"),
    ("genuine_accept_share", "share"),
    ("attack_catch_share", "share"),
    ("conclusive_share", "share"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: (name, unit, traced targets it needs) of every per-layer metric,
#: printed with ``--trace 1``.  A metric whose target is gone from the
#: program is reported as missing.
_RENDER, _EXPOSE = ("FaceRenderer.render",), ("ImageSensor.expose",)
_LANDMARKS = ("LandmarkDetector.detect",)
PER_LAYER = (
    ("vision.render.calls", "count", _RENDER),
    ("vision.render.self_s", "s", _RENDER),
    ("camera.expose.calls", "count", _EXPOSE),
    ("camera.expose.self_s", "s", _EXPOSE),
    ("video.codec.self_s", "s", ("VideoCodec.encode", "VideoCodec.decode")),
    ("net.self_s", "s", ("MediaLink.send", "MediaLink.receive")),
    ("net.loss_share", "share", ("MediaLink.send",)),
    ("chat.session.self_s", "s", ("VideoChatSession.run",)),
    ("vision.landmarks.calls", "count", _LANDMARKS),
    ("vision.landmarks.self_s", "s", _LANDMARKS),
    ("vision.landmarks.hit_share", "share", _LANDMARKS),
    ("core.luminance.self_s", "s", ("frame_mean_luminance", "roi_mean_luminance")),
    ("core.preprocess.self_s", "s", ("preprocess_batch",)),
    ("core.peaks.self_s", "s", ("find_peaks",)),
    ("core.dtw.calls", "count", ("dtw_distance_batch",)),
    ("core.dtw.self_s", "s", ("dtw_distance_batch",)),
    ("core.features.self_s", "s", ("extract_features_batch",)),
    ("core.lof.calls", "count", ("LivenessDetector.verify_features",)),
    ("core.lof.self_s", "s", ("LivenessDetector.verify_features",)),
    ("core.streaming.attempts", "count", ()),
    ("core.streaming.conclusive_share", "share", ()),
    ("core.streaming.push.self_s", "s", ("StreamingVerifier.push",)),
    ("engine.cache.hit_share", "share", ()),
    ("engine.self_s", "s", ("ExecutionEngine.extract_features_batch",)),
    ("service.overhead.self_s", "s", ("run_workload",)),
    ("service.tenants.fits", "count", ()),
    ("service.tenants.acquire.self_s", "s", ("TenantBankCache.acquire",)),
    ("service.queue.dropped_share", "share", ()),
    ("service.admission.rejected_share", "share", ()),
    ("service.verdict_latency_s_p50", "s", ()),
    ("service.verdict_latency_s_p95", "s", ()),
    ("protocol.grade.calls", "count", ("ProtocolGate.grade",)),
    ("protocol.grade.self_s", "s", ("ProtocolGate.grade",)),
    ("trace.overhead_share", "share", ()),
    ("trace.unattributed_share", "share", ()),
)

_CALLS = {
    "vision.render.calls": "FaceRenderer.render",
    "camera.expose.calls": "ImageSensor.expose",
    "vision.landmarks.calls": "LandmarkDetector.detect",
    "core.dtw.calls": "dtw_distance_batch",
    "core.lof.calls": "LivenessDetector.verify_features",
    "protocol.grade.calls": "ProtocolGate.grade",
}


def end_to_end(
    result: RunResult, setup_times: list[float], clock: HostClock
) -> dict[str, float]:
    close_ms = [clock.nominal(a, b) / n * 1e3 for a, b, n in result.closes]
    return {
        "frames_per_s": share(result.frames, clock.nominal(*result.window)),
        "attempt_close_ms_p50": percentile(close_ms, 50) if close_ms else 0.0,
        "attempt_close_ms_p95": percentile(close_ms, 95) if close_ms else 0.0,
        "genuine_accept_share": share(result.genuine_accepted, result.genuine_conclusive),
        "attack_catch_share": share(result.attack_caught, result.attack_conclusive),
        "conclusive_share": share(result.conclusive, result.admitted),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup_times),
    }


def layer_self_times(log: SpanLog) -> dict[str, float]:
    """Self time per layer, summed over the layer's targets."""
    layer_of = {t.qualname: t.layer for t in TARGETS}
    totals: dict[str, float] = {}
    for name, seconds in log.self_times().items():
        layer = layer_of[name]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def per_layer(
    reference: RunResult, traced: RunResult, log: SpanLog
) -> tuple[dict[str, float], list[str]]:
    """Per-layer values and the integrity problems of the traced run."""
    problems = []
    selfs = layer_self_times(log)
    covered = sum(selfs.values())
    if log.open_spans:
        problems.append(f"{log.open_spans} spans never closed")
    if covered > traced.wall_s * (1 + 1e-9) or min(selfs.values(), default=0.0) < -1e-6:
        problems.append("layer self times do not fit inside the traced wall time")
    layer = traced.layer
    values = {name: float(log.calls[qualname]) for name, qualname in _CALLS.items()}
    values.update(
        {f"{name}.self_s": selfs.get(name, 0.0) for name in LAYERS}
    )
    values.update(
        {
            "net.loss_share": share(layer.get("net.lost", 0.0), layer.get("net.sent", 0.0)),
            "vision.landmarks.hit_share": share(
                log.landmark_hits, log.calls["LandmarkDetector.detect"]
            ),
            "core.streaming.attempts": layer.get("core.streaming.attempts", 0.0),
            "core.streaming.conclusive_share": share(
                layer.get("core.streaming.conclusive_attempts", 0.0),
                layer.get("core.streaming.attempts", 0.0),
            ),
            "engine.cache.hit_share": share(
                layer.get("engine.cache.hits", 0.0),
                layer.get("engine.cache.hits", 0.0) + layer.get("engine.cache.misses", 0.0),
            ),
            "trace.overhead_share": traced.wall_s / reference.wall_s - 1.0,
            "trace.unattributed_share": 1.0 - covered / traced.wall_s,
        }
    )
    for name in (
        "service.tenants.fits",
        "service.queue.dropped_share",
        "service.admission.rejected_share",
        "service.verdict_latency_s_p50",
        "service.verdict_latency_s_p95",
    ):
        values[name] = layer.get(name, 0.0)
    if traced.deterministic != reference.deterministic:
        problems.append("the traced run's outcomes differ from the untraced run's")
    return values, problems


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed as JSON plus
    diagnostics under the ``"diagnostics"`` key (stripped by the caller)."""
    module = WORKLOADS[name]
    size = module.Size.for_seconds(seconds)
    problems: list[str] = []
    if installed_wrappers():
        problems.append(f"wrappers installed before the run: {installed_wrappers()}")
    setups = []
    state = None
    with HostClock() if not trace else contextlib.nullcontext() as clock:
        for _ in range(1 if trace else SETUP_REPEATS):
            state = None  # release the previous set-up before the next one
            gc.collect()
            t0 = time.perf_counter()
            state = module.setup(seed, size)
            setups.append((t0, time.perf_counter()))
        gc.collect()
        reference = module.run(state)
    span = clock.nominal if clock else (lambda a, b: b - a)
    setup_times = [span(a, b) for a, b in setups]
    if reference.wrappers_seen != UNTRACED_WRAPPERS.get(name, []):
        problems.append(f"the untraced run saw wrappers: {reference.wrappers_seen}")
    problems += reference.problems
    diagnostics = {
        "setup_s": setup_times,
        "wall_s": reference.wall_s,
        "close_samples": len(reference.closes),
    }
    if not trace:
        values = end_to_end(reference, setup_times, clock)
        diagnostics.update(
            {
                "nominal_wall_s": clock.nominal(*reference.window),
                "host_slowdown_median": clock.median_slowdown(),
                "host_samples": clock.samples,
            }
        )
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
        measured = reference
    else:
        log = SpanLog()
        gc.collect()
        with Patcher(tracer(log)) as patcher:
            traced = module.run(state, log=log)
        if installed_wrappers():
            problems.append(f"wrappers left after the traced run: {installed_wrappers()}")
        values, trace_problems = per_layer(reference, traced, log)
        problems += trace_problems + traced.problems
        metrics = {}
        for key, unit, needs in PER_LAYER:
            gone = [q for q in needs if q in patcher.missing]
            if gone:
                metrics[key] = {
                    "value": None,
                    "unit": unit,
                    "missing": "; ".join(f"{q}: {patcher.missing[q]}" for q in gone),
                }
            else:
                metrics[key] = {"value": values[key], "unit": unit}
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{name}-seed{seed}.jsonl")
        log.write_jsonl(path)
        diagnostics.update(
            {"traced_wall_s": traced.wall_s, "spans": len(log.names), "trace_file": path}
        )
        measured = traced
    return {
        "correct": not problems,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
        "problems": problems,
        "diagnostics": diagnostics,
    }
