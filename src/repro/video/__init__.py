"""Video plumbing: frames, streams, codec, luminance."""

from .codec import EncodedFrame, VideoCodec
from .frame import Frame
from .luminance import BT709_WEIGHTS, frame_mean_luminance, pixel_luminance
from .stream import VideoStream

__all__ = [
    "EncodedFrame",
    "VideoCodec",
    "Frame",
    "BT709_WEIGHTS",
    "frame_mean_luminance",
    "pixel_luminance",
    "VideoStream",
]
