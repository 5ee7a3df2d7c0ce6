"""Target recordings: the victim footage an attacker reenacts.

The paper's adversary model (Sec. III-A) assumes the attacker harvested
the victim's videos from social networks.  A :class:`TargetRecording`
captures what matters about such footage for the defense: the victim's
appearance (face model), the victim's original performance, and — the
crux of the paper — the *illumination track under which the footage was
shot*.  Face reenactment transfers expressions but keeps this lighting
(Sec. II-A), so the fake video's luminance follows this track instead of
the verifier's screen light.
"""

from __future__ import annotations

import numpy as np

from ..screen.illumination import AmbientLight
from ..vision.expression import ExpressionTrack
from ..vision.face_model import FaceModel

__all__ = ["TargetRecording"]


class TargetRecording:
    """Pre-recorded victim footage available to the attacker.

    Parameters
    ----------
    victim:
        The impersonated person's appearance.
    illumination:
        The lighting process of the original recording.  Victim footage
        shot during *their own* video calls or in live environments has
        its own significant luminance changes — which is what gives an
        attacker occasional lucky coincidences with the verifier's
        challenge (the paper's residual false-accept rate).
    expression:
        The victim's original performance (used by replay attacks; the
        reenactment attacker overrides it with the driving actor's).
    duration_s:
        Length of the footage; playback loops beyond it.
    """

    def __init__(
        self,
        victim: FaceModel,
        illumination: AmbientLight | None = None,
        expression: ExpressionTrack | None = None,
        duration_s: float = 300.0,
        seed: int = 0,
    ) -> None:
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        self.victim = victim
        rng = np.random.default_rng(seed)
        if illumination is None:
            # Footage shot in a live environment: base light plus its own
            # occasional changes (lamps, passing scenes, the victim's own
            # screen during their original call).
            illumination = AmbientLight(
                base_lux=float(rng.uniform(60.0, 140.0)),
                drift_lux=3.0,
                event_rate_hz=0.08,
                event_lux_range=(20.0, 90.0),
                rng=np.random.default_rng(seed + 1),
            )
        self.illumination = illumination
        self.expression = expression or ExpressionTrack(seed=seed + 2)
        self.duration_s = duration_s

    def playback_time(self, t: float, offset_s: float = 0.0) -> float:
        """Map wall-clock time to looping footage time."""
        if t < 0:
            raise ValueError("time must be non-negative")
        return (t + offset_s) % self.duration_s

    def illuminance_at(self, t: float, offset_s: float = 0.0) -> float:
        """Illuminance (lux) on the victim's face at footage time."""
        return self.illumination.sample(self.playback_time(t, offset_s))
