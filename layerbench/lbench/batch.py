"""``batch-verify``: :func:`repro.api.verify_clips` through a serial engine.

Pre-generated labelled luminance pairs of ragged length are verified in
batches through one ``ExecutionEngine(jobs=1)``.  A quarter of every
batch revisits a clip verified in an earlier batch, the way figure
sweeps do, so the engine's feature cache serves them.  This runs the
same ``core`` kernels as ``service-open-loop`` but amortised over a
batch, so a kernel change that helps one path at the other's cost shows
on one of the two.

Every batch has the same composition: the same clip lengths, the same
number of revisits and the same number of clips of each kind.  The seed
decides only the signals, the order inside a batch and which earlier
clip a revisit draws, so two seeds offer the same amount of work.

The pairs come from this module's own generator, modelled on the
program's attackers:

* a genuine face echoes the screen's challenges after the 0.2-0.5 s
  round trip, with a reflection gain and sensor noise drawn per clip;
* a reenactment (:class:`ReenactmentAttacker`) follows the target
  recording's own light, whose changes never line up with the
  challenges on purpose;
* a forger (:class:`AdaptiveLuminanceForger`) echoes the challenges too,
  but 0.4-1.4 s later still, its processing delay: the paper's Fig. 17
  range, where the defence goes from missing most forgers to catching
  most of them.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro import api

from .result import RunResult
from .tracing import SpanLog, installed_wrappers

#: Clip lengths in 10 Hz samples (15, 17.5 and 20 s clips, as duration
#: sweeps produce them) of the fresh clips and the revisits of one batch.
FRESH_LENGTHS = (150,) * 8 + (175,) * 8 + (200,) * 8
REVISIT_LENGTHS = (150,) * 3 + (175,) * 3 + (200,) * 2
#: Kinds of the fresh clips of one batch (a third are attacks).
FRESH_KINDS = ("genuine",) * 16 + ("reenactment",) * 4 + ("forger",) * 4
BATCH_CLIPS = len(FRESH_LENGTHS) + len(REVISIT_LENGTHS)
#: Batches per second of requested run time (about 0.35 s each on a
#: 2-vCPU x86 virtual machine).
BATCHES_PER_SECOND = 2.8
BANK_CLIPS = 200
CHECK_EVERY = 25  # batches between per-clip oracle checks


@dataclasses.dataclass(frozen=True)
class Size:
    batches: int = 56

    @classmethod
    def for_seconds(cls, seconds: float) -> "Size":
        return cls(batches=max(1, round(seconds * BATCHES_PER_SECOND)))


@dataclasses.dataclass
class State:
    detector: api.LivenessDetector
    clips: list[tuple[np.ndarray, np.ndarray]]
    attack: np.ndarray  # per clip, True for attack clips
    draws: np.ndarray  # clip index per verification, batch-major


def _screen(rng: np.random.Generator, n: int) -> np.ndarray:
    """The verifier's screen luminance: two challenge steps."""
    t = np.full(n, 180.0)
    t[int(rng.integers(25, 55)) :] -= 50.0
    t[int(rng.integers(85, 120)) :] += 50.0
    return t


def _echo(rng: np.random.Generator, t: np.ndarray, delay: int, noise: float) -> np.ndarray:
    delayed = np.concatenate([np.full(delay, t[0]), t[:-delay]])
    return 120.0 + rng.uniform(0.12, 0.4) * delayed + rng.normal(0.0, noise, t.size)


def _clip(rng: np.random.Generator, kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One labelled pair of ``n`` samples."""
    t = _screen(rng, n)
    round_trip = int(rng.integers(2, 6))
    if kind == "genuine":
        return t, _echo(rng, t, round_trip, rng.uniform(0.3, 2.0))
    if kind == "forger":
        processing = int(round(10 * rng.uniform(0.4, 1.4)))
        return t, _echo(rng, t, round_trip + processing, rng.uniform(0.3, 1.0))
    r = np.full(n, 174.0)
    for _ in range(int(rng.integers(1, 3))):
        r[int(rng.integers(10, n - 10)) :] += rng.choice((-1.0, 1.0)) * rng.uniform(5, 20)
    return t, r + rng.normal(0.0, rng.uniform(0.3, 1.0), n)


def setup(seed: int, size: Size) -> State:
    """Generate the clips and the draw sequence, fit the detector on a
    genuine bank, and verify one warm-up batch (discarded)."""
    rng = np.random.default_rng([seed, 0xBA7C])
    clips: list[tuple[np.ndarray, np.ndarray]] = []
    attack: list[bool] = []
    by_length: dict[int, list[int]] = {n: [] for n in set(FRESH_LENGTHS)}
    draws: list[int] = []
    for b in range(size.batches):
        earlier = {n: list(indices) for n, indices in by_length.items()}
        slots = list(zip(rng.permutation(FRESH_LENGTHS), rng.permutation(FRESH_KINDS)))
        # The first batch has nothing to revisit: its revisit slots are
        # fresh genuine clips of the same lengths.
        slots += [(n, "genuine" if b == 0 else None) for n in REVISIT_LENGTHS]
        batch = []
        for n, kind in slots:
            n = int(n)
            if kind is None:
                batch.append(int(rng.choice(earlier[n])))
                continue
            by_length[n].append(len(clips))
            batch.append(len(clips))
            clips.append(_clip(rng, str(kind), n))
            attack.append(kind != "genuine")
        draws += [batch[i] for i in rng.permutation(len(batch))]
    detector = api.LivenessDetector()
    detector.fit_from_clips(
        _clip(rng, "genuine", int(n)) for n in rng.choice(FRESH_LENGTHS, BANK_CLIPS)
    )
    warmup = [_clip(rng, str(kind), int(n)) for n, kind in zip(FRESH_LENGTHS, FRESH_KINDS)]
    with api.ExecutionEngine(jobs=1) as engine:
        api.verify_clips(warmup, detector, engine=engine)
    return State(detector, clips, np.array(attack), np.array(draws, dtype=np.int64))


def _same(a, b) -> bool:
    return a.lof_score == b.lof_score and a.features == b.features


def run(state: State, log: SpanLog | None = None) -> RunResult:
    wrappers_seen = installed_wrappers()
    detector, k = state.detector, BATCH_CLIPS
    closes: list[tuple[float, float, int]] = []
    frames = failed = 0
    accepted = np.zeros(len(state.clips), dtype=bool)
    verified = np.ones(len(state.draws), dtype=bool)
    checked: list[tuple[list, list]] = []  # (pairs, engine results) sampled
    problems: list[str] = []
    clock = time.perf_counter
    with api.ExecutionEngine(jobs=1) as engine:
        t_start = clock()
        for b, start in enumerate(range(0, len(state.draws), k)):
            index = state.draws[start : start + k]
            pairs = [state.clips[i] for i in index]
            t0 = clock()
            try:
                results = api.verify_clips(pairs, detector, engine=engine)
            except Exception as exc:  # counted as failed operations
                failed += len(pairs)
                verified[start : start + k] = False
                problems.append(f"batch {b}: {type(exc).__name__}: {exc}")
                continue
            closes.append((t0, clock(), 1))
            frames += sum(t.size for t, _ in pairs)
            accepted[index] = [r.accepted for r in results]
            if log is None and b % CHECK_EVERY == 0:
                checked.append((pairs, results))
        window = (t_start, clock())
        hits, misses = engine.cache.hits, engine.cache.misses
    # Oracles, outside the timed phase and only in the untraced run (a
    # traced run must spend no wrapped time outside its wall window): the
    # engine path equals the plain batch path, and each clip equals
    # LivenessDetector.verify_clip alone.
    for pairs, results in checked:
        plain = api.verify_clips(pairs, detector)
        if not all(_same(a, b) for a, b in zip(results, plain)):
            problems.append("engine path differs from the no-engine path")
        t, r = pairs[0]
        if not _same(results[0], detector.verify_clip(t, r)):
            problems.append("verify_clips differs from verify_clip on one pair")
    attack = state.attack[state.draws][verified]
    verdict_accept = accepted[state.draws][verified]
    return RunResult(
        window=window,
        frames=frames,
        closes=closes,
        genuine_accepted=int((verdict_accept & ~attack).sum()),
        genuine_conclusive=int((~attack).sum()),
        attack_caught=int((~verdict_accept & attack).sum()),
        attack_conclusive=int(attack.sum()),
        conclusive=int(verified.sum()),
        admitted=int(verified.sum()),
        attempted=len(state.draws),
        failed=failed,
        problems=problems,
        wrappers_seen=wrappers_seen,
        layer={"engine.cache.hits": float(hits), "engine.cache.misses": float(misses)},
        deterministic={"accepted": accepted.tobytes(), "hits": hits, "misses": misses},
    )
