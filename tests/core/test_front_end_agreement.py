"""The batch and streaming front ends agree on clean clips, and where they part.

``ChatVerifier.verify_session`` cuts a record into clips and extracts
each clip's two luminance signals at once
(:func:`repro.core.luminance.clip_signals`); ``StreamingVerifier``
builds the same signals one pushed frame pair at a time.  On records
whose clips do not open with a landmark miss, every per-clip feature
vector and LOF score is identical.

The two concealment policies differ at a clip start that opens with
misses: the batch extractor backfills them with that clip's first hit,
the streaming verifier holds the previous clip's last value (it carries
its last ROI value across clip boundaries).  The second test pins both.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.features import FeatureVector
from repro.core.pipeline import ChatVerifier
from repro.core.streaming import StreamingVerifier
from repro.experiments.profiles import Environment
from repro.experiments.simulate import simulate_attack_session, simulate_genuine_session
from repro.video.stream import VideoStream
from repro.vision.landmarks import LandmarkDetector

ENV = Environment(frame_size=(72, 72), verifier_frame_size=(48, 48))
CONFIG = DetectorConfig()
CLIP = CONFIG.samples_per_clip
#: Faceless frames at the start of the second clip in the divergence case.
LEAD_MISSES = 5


@pytest.fixture(scope="module")
def bank():
    rng = np.random.default_rng(0)
    return [
        FeatureVector(
            z1=1.0,
            z2=float(rng.choice([1.0, 1.0, 1.0, 0.667])),
            z3=float(rng.uniform(0.9, 1.0)),
            z4=float(rng.uniform(0.02, 0.2)),
        )
        for _ in range(20)
    ]


@pytest.fixture(scope="module")
def records():
    return {
        "genuine": simulate_genuine_session(duration_s=30.0, seed=61, env=ENV),
        "attack": simulate_attack_session(duration_s=30.0, seed=62, env=ENV),
    }


def _both_paths(bank, record):
    """Per-clip attempts of each front end, each with a fresh landmark
    detector (so both draw the same jitter sequence)."""
    verifier = ChatVerifier(CONFIG)
    verifier.detector.fit(bank)
    batch = verifier.verify_session(record).attempts
    streaming = StreamingVerifier(verifier.detector, LandmarkDetector())
    for t_frame, r_frame in zip(record.transmitted, record.received):
        streaming.push(t_frame, r_frame)
    return batch, tuple(a.result for a in streaming.gated_attempts)


@pytest.mark.parametrize("role", ["genuine", "attack"])
def test_clean_clips_agree_exactly(bank, records, role):
    record = records[role]
    assert record.received.fps == CONFIG.sample_rate_hz
    assert len(record.received) == 2 * CLIP
    # The premise: the second clip opens with a face in view.
    assert LandmarkDetector().detect(list(record.received)[CLIP].pixels) is not None

    batch, streaming = _both_paths(bank, record)

    assert len(batch) == len(streaming) == 2
    for b, s in zip(batch, streaming):
        assert b.features == s.features
        assert b.lof_score == s.lof_score


def test_clip_opening_with_misses_pins_each_policy(bank, records):
    record = records["genuine"]
    frames = list(record.received)
    for i in range(CLIP, CLIP + LEAD_MISSES):
        frames[i] = dataclasses.replace(frames[i], pixels=np.zeros_like(frames[i].pixels))
    faceless = dataclasses.replace(
        record, received=VideoStream(fps=record.received.fps, frames=frames)
    )

    batch, streaming = _both_paths(bank, faceless)

    b1, b2 = (a.extraction.received.raw for a in batch)
    s1, s2 = (a.extraction.received.raw for a in streaming)
    # Batch: the leading misses take this clip's first hit.
    assert np.all(b2[:LEAD_MISSES] == b2[LEAD_MISSES])
    # Streaming: they hold the previous clip's last value.
    assert np.all(s2[:LEAD_MISSES] == s1[-1])
    assert s1[-1] != b2[LEAD_MISSES]
    # Everywhere else the signals, and the first clip's verdict inputs,
    # are identical (a miss draws no landmark jitter).
    np.testing.assert_array_equal(s1, b1)
    np.testing.assert_array_equal(s2[LEAD_MISSES:], b2[LEAD_MISSES:])
    assert batch[0].features == streaming[0].features
    assert batch[0].lof_score == streaming[0].lof_score
    assert batch[1].features != streaming[1].features
