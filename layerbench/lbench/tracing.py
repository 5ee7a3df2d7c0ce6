"""Wrappers installed from outside the program: span tracing and one timer.

The benchmark never edits the program.  For the traced run it wraps the
public function or method behind each layer (:data:`TARGETS`), records
one span per call (name, start, end, parent span) in memory, and
restores every original when the run ends.  A layer's self time is the
duration of its spans minus the time their wrapped children cover, so
the self times of all layers plus the time no span covers add up to the
traced wall time exactly.

A function imported by name into another module (``from .batch import
dtw_distance_batch``) is bound there too; :meth:`Patcher.install`
replaces every such binding in the loaded ``repro`` modules, not just the
defining one.  A target that no longer exists is reported as missing and
its layer's metrics come out as missing; it never stops a run.

The same :class:`Patcher` installs the one wrapper an untraced run may
carry, :func:`close_timer` on :data:`PUSH`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from collections import Counter

#: Attribute marking a benchmark-installed wrapper (traced or timer).
MARK = "__layerbench_wrapper__"


@dataclasses.dataclass(frozen=True)
class Target:
    """One wrapped callable: ``qualname`` inside ``module``, charged to
    ``layer``.  ``sites`` restricts which modules' name bindings are
    replaced (by module-name prefix); ``None`` means every loaded
    ``repro`` module that binds the same object."""

    module: str
    qualname: str
    layer: str
    sites: str | None = None
    is_async: bool = False


TARGETS: tuple[Target, ...] = (
    Target("repro.vision.renderer", "FaceRenderer.render", "vision.render"),
    Target("repro.camera.sensor", "ImageSensor.expose", "camera.expose"),
    Target("repro.video.codec", "VideoCodec.encode", "video.codec"),
    Target("repro.video.codec", "VideoCodec.decode", "video.codec"),
    Target("repro.net.link", "MediaLink.send", "net"),
    Target("repro.net.link", "MediaLink.receive", "net"),
    Target("repro.chat.session", "VideoChatSession.run", "chat.session"),
    Target("repro.vision.landmarks", "LandmarkDetector.detect", "vision.landmarks"),
    # The capture rig (chat endpoints, attackers) also reads frame means;
    # only the detector's own calls belong to the core luminance layer.
    Target(
        "repro.video.luminance", "frame_mean_luminance", "core.luminance",
        sites="repro.core",
    ),
    Target("repro.core.luminance", "roi_mean_luminance", "core.luminance"),
    Target("repro.core.preprocessing", "preprocess_batch", "core.preprocess"),
    Target("repro.core.peaks", "find_peaks", "core.peaks"),
    Target("repro.core.batch", "dtw_distance_batch", "core.dtw"),
    Target("repro.core.features", "extract_features_batch", "core.features"),
    Target("repro.core.detector", "LivenessDetector.verify_features", "core.lof"),
    Target("repro.core.streaming", "StreamingVerifier.push", "core.streaming.push"),
    Target("repro.engine.engine", "ExecutionEngine.extract_features_batch", "engine"),
    Target(
        "repro.service.tenants", "TenantBankCache.acquire", "service.tenants.acquire",
        is_async=True,
    ),
    Target("repro.protocol.gate", "ProtocolGate.grade", "protocol.grade"),
    Target("repro.service.loadgen", "run_workload", "service.overhead"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))
#: The push that completes a clip: the service's attempt-close target.
PUSH: Target = next(t for t in TARGETS if t.qualname == "StreamingVerifier.push")


class SpanLog:
    """In-memory span store plus the per-call counts the layers need."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.landmark_hits = 0
        self.channel_stats: dict[int, object] = {}  # id -> ChannelStats (held)

    def enter(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self._clock())
        return index

    def exit(self, index: int) -> None:
        self.ends[index] = self._clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order (open: {popped})")

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus wrapped-child cover."""
        cover = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                cover[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = {}
        for i, name in enumerate(self.names):
            totals[name] = totals.get(name, 0.0) + (
                self.ends[i] - self.starts[i] - cover[i]
            )
        return totals

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i] if self.parents[i] >= 0 else None,
                        }
                    )
                )
                fh.write("\n")


class _SlicedAwait:
    """Awaitable proxy timing each synchronous slice of a coroutine.

    A span must not stay open across an ``await``: other tasks run in
    between and their spans would nest under it.  So an async target is
    charged one span per resumption, each closed before control returns
    to the event loop.
    """

    def __init__(self, coro, name: str, log: SpanLog) -> None:
        self._coro = coro
        self._name = name
        self._log = log

    def __await__(self):
        coro, log, name = self._coro, self._log, self._name
        value, error = None, None
        while True:
            span = log.enter(name)
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                log.exit(span)
            value, error = None, None
            try:
                value = yield yielded
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # delivered into the coroutine
                error = exc


def tracer(log: SpanLog):
    """Wrapper factory of the traced run: one span per call into ``log``."""

    def wrap(fn, target: Target):
        name = target.qualname
        if target.is_async:

            @functools.wraps(fn)
            def async_wrapper(*args, **kwargs):
                log.calls[name] += 1
                return _SlicedAwait(fn(*args, **kwargs), name, log)

            setattr(async_wrapper, MARK, "trace")
            return async_wrapper
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log.calls[name] += 1
            span = log.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.exit(span)
            if observe is not None:
                observe(log, args, result)
            return result

        setattr(wrapper, MARK, "trace")
        return wrapper

    return wrap


def close_timer(samples: list[tuple[float, float, int]]):
    """Wrapper factory of the one timer an untraced run may carry: the
    start and end of every call that returns a result, appended to
    ``samples`` as ``(start, end, 1)``.  On :data:`PUSH` that is every
    push completing a clip."""
    clock = time.perf_counter

    def wrap(fn, target: Target):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            if result is not None:
                samples.append((t0, clock(), 1))
            return result

        setattr(timed, MARK, "timer")
        return timed

    return wrap


def _observe_landmarks(log: SpanLog, args, result) -> None:
    if result is not None:
        log.landmark_hits += 1


def _observe_send(log: SpanLog, args, result) -> None:
    stats = args[0].channel.stats
    log.channel_stats[id(stats)] = stats


_OBSERVERS = {
    "LandmarkDetector.detect": _observe_landmarks,
    "MediaLink.send": _observe_send,
}


@dataclasses.dataclass
class _Binding:
    owner: object
    attr: str
    original: object
    owned: bool  # the attribute lived in owner.__dict__ (not inherited)


def _resolve(target: Target):
    """``(module, owner, attr, current)`` of a target; raises when it is
    gone.  ``owner`` is the class for a method, else the module."""
    module = importlib.import_module(target.module)
    owner = module
    parts = target.qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1], getattr(owner, parts[-1])


def _modules(prefix: str) -> list:
    """Loaded modules named ``prefix`` or below it."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == prefix or name.startswith(prefix + "."))
    ]


def _bindings(target: Target) -> list[tuple[object, str, object]]:
    """Every place the target's callable is bound and would be called from."""
    module, owner, attr, original = _resolve(target)
    if owner is not module:  # a method: the class attribute is the one site
        return [(owner, attr, original)]
    return [
        (mod, attr, original)
        for mod in _modules(target.sites or "repro")
        if getattr(mod, attr, None) is original
    ]


class Patcher:
    """Installs the wrappers ``wrap(fn, target)`` makes on ``targets``
    and restores the originals."""

    def __init__(self, wrap, targets: tuple[Target, ...] = TARGETS) -> None:
        self.wrap = wrap
        self.targets = targets
        self.missing: dict[str, str] = {}  # qualname -> reason
        self._installed: list[_Binding] = []

    def install(self) -> None:
        for target in self.targets:
            try:
                sites = _bindings(target)
            except (ImportError, AttributeError) as exc:
                self.missing[target.qualname] = f"{type(exc).__name__}: {exc}"
                continue
            if not sites:
                self.missing[target.qualname] = "no call site binds it"
                continue
            wrapper = self.wrap(sites[0][2], target)
            for owner, attr, original in sites:
                owned = attr in vars(owner)
                self._installed.append(_Binding(owner, attr, original, owned))
                setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._installed:
            binding = self._installed.pop()
            if binding.owned:
                setattr(binding.owner, binding.attr, binding.original)
            else:
                delattr(binding.owner, binding.attr)

    def __enter__(self) -> "Patcher":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def installed_wrappers() -> list[str]:
    """Qualnames of targets currently replaced by a benchmark wrapper,
    as ``"<qualname>@<module>:<kind>"``; empty when the program is
    pristine."""
    found = []
    for target in TARGETS:
        try:
            module, owner, attr, _ = _resolve(target)
        except (ImportError, AttributeError):
            continue
        for site in [owner] if owner is not module else _modules("repro"):
            kind = getattr(getattr(site, attr, None), MARK, None)
            if kind is not None:
                found.append(f"{target.qualname}@{getattr(site, '__name__', site)}:{kind}")
    return found
