"""Face reenactment attacker (the paper's ICFace stand-in).

Reenactment transfers the *driving actor's* expressions and head pose
onto the *target* face and re-renders photo-realistically (Sec. II-A).
Two properties of the technique define the attack surface the paper
exploits, and both are reproduced here exactly:

1. The output inherits the **target recording's illumination** — the
   attacker's screen light never reaches the fake face, so the received
   video's luminance is decoupled from the verifier's transmitted video.
2. The synthesis adds small temporal **artifacts** (blending jitter at
   the face boundary, slight intensity flicker) — far below what the
   human victim can spot, per the adversary model.

The attacker endpoint plugs straight into :class:`VideoChatSession` in
Bob's chair via the virtual-camera capability of the adversary model.
"""

from __future__ import annotations

import numpy as np

from ..camera.camera import Camera
from ..camera.exposure import AutoExposureController
from ..camera.metering import LightMeter, MeteringMode
from ..camera.sensor import ImageSensor, table_normal
from ..video.frame import Frame
from ..vision.expression import ExpressionTrack
from ..vision.renderer import FaceRenderer
from .target import TargetRecording

__all__ = ["ReenactmentAttacker"]


class ReenactmentAttacker:
    """Generates fake facial video of the victim in real time.

    Parameters
    ----------
    target:
        The victim footage being reenacted.
    driving:
        The attacker's own performance (expressions/pose transferred onto
        the victim's face).  Defaults to a fresh seeded track.
    artifact_level:
        Relative amplitude of synthesis flicker (multiplicative noise on
        the rendered radiance).  ICFace-quality output keeps this small.
    frame_size:
        Raster size of the generated video.
    seed:
        Seed for artifact noise and the synthetic recording camera.
    """

    def __init__(
        self,
        target: TargetRecording,
        driving: ExpressionTrack | None = None,
        artifact_level: float = 0.012,
        frame_size: tuple[int, int] = (96, 96),
        seed: int = 100,
    ) -> None:
        if artifact_level < 0:
            raise ValueError("artifact_level must be non-negative")
        self.target = target
        self.driving = driving or ExpressionTrack(seed=seed + 3)
        self.artifact_level = artifact_level
        height, width = frame_size
        self.renderer = FaceRenderer(target.victim, height=height, width=width, seed=seed)
        self._rng = np.random.default_rng(seed + 7)
        # The footage was shot by a real camera; model it with a locked
        # exposure converged on the recording's typical light level.
        self.camera = Camera(
            sensor=ImageSensor(rng=np.random.default_rng(seed + 11)),
            meter=LightMeter(mode=MeteringMode.MULTI_ZONE),
            auto_exposure=AutoExposureController(target_level=0.22),
        )
        self._exposure_locked = False

    def _illuminance(self, t: float, displayed: Frame | None) -> float:
        """Light on the fake face at time ``t``.

        Plain reenactment uses the target recording's track and ignores
        the verifier's video entirely — the decoupling the defense
        detects.  Subclasses (the adaptive forger) override this.
        """
        del displayed  # the fake face never sees the attacker's screen
        return self.target.illuminance_at(t)

    def produce_frame(self, t: float, displayed: Frame | None) -> Frame:
        """ProverEndpoint interface: synthesize the fake frame at ``t``."""
        pose = self.driving.sample(t)
        illuminance = self._illuminance(t, displayed)
        result = self.renderer.render(
            pose,
            face_illuminance_lux=illuminance,
            ambient_lux=illuminance,
        )
        radiance = result.radiance
        if self.artifact_level > 0:
            flicker = 1.0 + self._rng.normal(0.0, self.artifact_level)
            spatial = table_normal(self._rng, radiance.shape[:2])
            spatial *= self.artifact_level * 0.5
            # In place: the renderer hands back a fresh raster.
            gain = np.clip(flicker + spatial, 0.8, 1.2)
            for channel in range(3):
                radiance[..., channel] *= gain
        frame = self.camera.capture(
            radiance,
            timestamp=t,
            metadata={
                "landmarks_truth": result.landmarks,
                "fake": True,
                "attack": type(self).__name__,
            },
        )
        if not self._exposure_locked:
            # One metering pass is enough: the recording camera was
            # already converged when the footage was shot.
            self.camera.auto_exposure.lock()
            self._exposure_locked = True
        return frame
