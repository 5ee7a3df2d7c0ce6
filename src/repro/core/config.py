"""Configuration for the liveness-detection pipeline.

Every constant the paper fixes is a named, documented field here, with the
paper's value as the default.  The evaluation section of the paper sweeps
several of them (decision threshold, sampling rate, number of detection
attempts, training-set size); the experiment harness does the same by
constructing modified configs rather than monkey-patching the pipeline.
"""

from __future__ import annotations

import dataclasses
import math

__all__ = ["DetectorConfig", "PAPER_CONFIG"]


@dataclasses.dataclass(frozen=True)
class DetectorConfig:
    """All tunables of the detection pipeline (paper defaults).

    Attributes
    ----------
    sample_rate_hz:
        Rate at which frames are sampled from both videos (Sec. IV: 10 Hz;
        Sec. VIII-H shows 8 Hz is the lowest viable rate).
    clip_duration_s:
        Length of one detection clip (Sec. VIII-A: 15 seconds).
    lowpass_cutoff_hz:
        Cut-off of the first low-pass filter (Sec. V / Fig. 6: 1 Hz).
    lowpass_taps:
        Length of the windowed-sinc FIR used for the low-pass stage.  Not
        specified by the paper; 41 taps at 10 Hz gives a ~0.25 Hz
        transition band, comfortably isolating the sub-1 Hz band.
    variance_window:
        Moving window (samples) for the short-time variance (Sec. V: 10).
    variance_threshold:
        Cut-off applied to the variance signal to remove small spikes
        (Sec. V: 2).
    rms_window:
        Moving window (samples) for the root-mean-square smoothing
        (Sec. V: 30).
    savgol_window:
        Savitzky-Golay filter window length (Sec. V: 31 samples).
    savgol_polyorder:
        Polynomial order of the Savitzky-Golay fit.  The paper says only
        "polynomial fitting"; order 3 is the filter's common default.
    moving_average_window:
        Final moving-average window (Sec. V: 10 samples).
    peak_prominence_screen:
        Minimal prominence for peaks in the transmitted-video (screen
        light) variance signal (Sec. V: 10).
    peak_prominence_face:
        Minimal prominence for peaks in the received-video (face
        reflection) variance signal (Sec. V: 0.5).
    match_tolerance_s:
        Two significant luminance changes are "matched" when their times
        differ by at most this much.  The paper leaves F(T, R)/G(T, R)
        unspecified; 1.0 s absorbs the network round trip plus display
        latency while staying well under the spacing of distinct metering
        events (wider tolerances measurably inflate an attacker's lucky
        coincidences).
    boundary_guard_s:
        Changes whose counterpart falls outside the clip cannot be
        matched no matter how live the face is: a transmitted change in
        the last ``boundary_guard_s`` seconds has its (delayed) reflection
        truncated by the clip end, and a received change in the first
        ``boundary_guard_s`` seconds reflects a challenge sent before the
        clip started.  Such changes are excluded from the counts N and M
        of Eqs. 4-5 (an unstated but necessary detail of segmenting a
        continuous chat into equal clips).  The default covers the
        round-trip delay plus the group delay of the smoothing chain
        (RMS window 30 + Savitzky-Golay 31 at 10 Hz ~ 1.5-2 s).
    dtw_scale:
        z4 is the max DTW distance between segment pairs divided by this
        (Sec. VI: 30), to keep its range comparable to z1..z3.
    segment_count:
        The smoothed variance signal is cut into this many equal segments
        for the trend features (Sec. VI: 2).
    lof_neighbors:
        k of the Local Outlier Factor model (Sec. VII-A: 5).
    lof_threshold:
        Decision threshold tau on LOF(z) (Sec. VII-A: 3; Sec. VIII-D
        sweeps 1.5..4 and finds the EER near 2.8-3).
    vote_fraction:
        An untrusted user is declared an attacker when its attacker votes
        exceed ``vote_fraction * D`` over D attempts (Sec. VII-B: 0.7).
    gate_min_landmark_fraction:
        Streaming quality gate: minimum fraction of a clip's received
        samples with a usable landmark detection.  Below it the clip's
        attempt is graded ``INCONCLUSIVE`` and excluded from the vote —
        a face the system cannot find proves nothing either way.
    gate_max_frozen_fraction:
        Streaming quality gate: maximum fraction of a clip's received
        samples allowed to be loss-concealed (frozen/stale) frames.  A
        signal dominated by freeze concealment carries the *channel's*
        behaviour, not the peer's.
    gate_min_transmitted_changes:
        Streaming quality gate: minimum number of significant luminance
        changes the transmitted clip must contain for its attempt to be
        conclusive (no challenge issued means nothing to verify).
    min_challenges:
        Challenges the active scheduler guarantees per detection window,
        and the count :func:`~repro.core.challenge.challenge_quality`
        requires before grading a clip *sufficient*.  Also the number of
        challenge times a protocol-derived schedule places per clip.
    min_gap_s:
        Minimum spacing between scheduled challenges.  Must exceed the
        Sec. V smoothing chain's merge radius (~4 s at 10 Hz) or two
        challenges collapse into one variance peak and are undercounted.
    """

    sample_rate_hz: float = 10.0
    clip_duration_s: float = 15.0

    lowpass_cutoff_hz: float = 1.0
    lowpass_taps: int = 41

    variance_window: int = 10
    variance_threshold: float = 2.0
    rms_window: int = 30
    savgol_window: int = 31
    savgol_polyorder: int = 3
    moving_average_window: int = 10

    peak_prominence_screen: float = 10.0
    peak_prominence_face: float = 0.5

    match_tolerance_s: float = 1.0
    boundary_guard_s: float = 2.0
    dtw_scale: float = 30.0
    segment_count: int = 2

    lof_neighbors: int = 5
    lof_threshold: float = 3.0
    vote_fraction: float = 0.7

    gate_min_landmark_fraction: float = 0.5
    gate_max_frozen_fraction: float = 0.5
    gate_min_transmitted_changes: int = 1

    min_challenges: int = 2
    min_gap_s: float = 4.5

    def __post_init__(self) -> None:
        # Every range check below is a comparison, and a NaN fails every
        # comparison, so ``nan <= 0`` would let a NaN through: a NaN
        # prominence gate, for one, passes no peak and rejects every face.
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and math.isnan(value):
                raise ValueError(f"{field.name} must not be NaN")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.clip_duration_s <= 0:
            raise ValueError("clip_duration_s must be positive")
        if not 0 < self.lowpass_cutoff_hz < self.sample_rate_hz / 2:
            raise ValueError(
                "lowpass_cutoff_hz must lie in (0, nyquist); got "
                f"{self.lowpass_cutoff_hz} at fs={self.sample_rate_hz}"
            )
        if self.lowpass_taps < 3 or self.lowpass_taps % 2 == 0:
            raise ValueError("lowpass_taps must be an odd integer >= 3")
        for name in ("variance_window", "rms_window", "moving_average_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.savgol_window % 2 == 0 or self.savgol_window < 3:
            raise ValueError("savgol_window must be an odd integer >= 3")
        if not 0 <= self.savgol_polyorder < self.savgol_window:
            raise ValueError("savgol_polyorder must be < savgol_window")
        if self.peak_prominence_screen <= 0 or self.peak_prominence_face <= 0:
            raise ValueError("peak prominences must be positive")
        if self.match_tolerance_s <= 0:
            raise ValueError("match_tolerance_s must be positive")
        if self.boundary_guard_s < 0:
            raise ValueError("boundary_guard_s must be non-negative")
        if self.dtw_scale <= 0:
            raise ValueError("dtw_scale must be positive")
        if self.segment_count < 1:
            raise ValueError("segment_count must be >= 1")
        if self.lof_neighbors < 1:
            raise ValueError("lof_neighbors must be >= 1")
        if self.lof_threshold <= 0:
            raise ValueError("lof_threshold must be positive")
        if not 0 < self.vote_fraction < 1:
            raise ValueError("vote_fraction must lie in (0, 1)")
        if not 0.0 <= self.gate_min_landmark_fraction <= 1.0:
            raise ValueError("gate_min_landmark_fraction must lie in [0, 1]")
        if not 0.0 <= self.gate_max_frozen_fraction <= 1.0:
            raise ValueError("gate_max_frozen_fraction must lie in [0, 1]")
        if self.gate_min_transmitted_changes < 0:
            raise ValueError("gate_min_transmitted_changes must be >= 0")
        if self.min_challenges < 1:
            raise ValueError("min_challenges must be >= 1")
        if self.min_gap_s <= 0:
            raise ValueError("min_gap_s must be positive")
        # Whether min_challenges * min_gap_s fits the usable window is
        # checked where a schedule is actually built (ChallengeScheduler,
        # protocol derivation): clip-duration sweeps legitimately build
        # configs whose window is too short for the *default* challenge
        # count and never schedule from them.

    @property
    def samples_per_clip(self) -> int:
        """Number of luminance samples in one detection clip."""
        return int(round(self.clip_duration_s * self.sample_rate_hz))

    def with_overrides(self, **overrides: object) -> "DetectorConfig":
        """Return a validated copy with the given fields changed.

        This is the blessed way to derive sweep/ablation configs: unknown
        field names fail loudly (instead of ``dataclasses.replace``'s
        bare ``TypeError``) and the copy re-runs every ``__post_init__``
        check, so an invalid sweep point cannot reach the pipeline.
        """
        valid = {field.name for field in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ValueError(
                f"unknown DetectorConfig field(s) {unknown}; "
                f"valid fields: {sorted(valid)}"
            )
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]


#: The exact configuration evaluated in the paper.
PAPER_CONFIG = DetectorConfig()
