"""Codec: quantization and payload model."""

import numpy as np
import pytest

from repro.video.codec import VideoCodec
from repro.video.frame import blank_frame


class TestQuantization:
    def test_full_quality_preserves_8bit_values(self):
        codec = VideoCodec(quality=1.0)
        frame = blank_frame(8, 8, value=137.0)
        encoded = codec.encode(frame)
        decoded = codec.decode(encoded)
        assert np.allclose(decoded.pixels, 137.0)
        # The decoded frame holds the 8-bit raster itself, no float copy.
        assert decoded.pixels is encoded.data

    def test_low_quality_coarsens(self):
        codec = VideoCodec(quality=0.25)  # step 4
        frame = blank_frame(8, 8, value=130.0)
        decoded = codec.decode(codec.encode(frame))
        assert np.allclose(decoded.pixels % 4, 0.0)
        assert np.abs(decoded.pixels - 130.0).max() <= 2.0

    def test_out_of_range_input_clipped(self):
        codec = VideoCodec()
        frame = blank_frame(4, 4)
        frame.pixels[0, 0] = [300.0, -5.0, 100.0]
        decoded = codec.decode(codec.encode(frame))
        assert decoded.pixels.max() <= 255.0
        assert decoded.pixels.min() >= 0.0

    def test_encoded_raster_is_read_only(self):
        codec = VideoCodec()
        encoded = codec.encode(blank_frame(4, 4, value=50.0))
        assert not encoded.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            encoded.data[0, 0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            codec.decode(encoded).pixels *= 2

    def test_quant_step_from_quality(self):
        assert VideoCodec(quality=1.0).quant_step == 1
        assert VideoCodec(quality=0.5).quant_step == 2
        assert VideoCodec(quality=0.1).quant_step == 10


class TestMetadataAndIds:
    def test_frame_ids_increment(self):
        codec = VideoCodec()
        a = codec.encode(blank_frame(4, 4, timestamp=0.0))
        b = codec.encode(blank_frame(4, 4, timestamp=0.1))
        assert b.frame_id == a.frame_id + 1

    def test_timestamp_preserved(self):
        codec = VideoCodec()
        encoded = codec.encode(blank_frame(4, 4, timestamp=2.5))
        assert codec.decode(encoded).timestamp == pytest.approx(2.5)

    def test_metadata_round_trip(self):
        codec = VideoCodec()
        frame = blank_frame(4, 4, timestamp=0.0)
        frame.metadata["tag"] = "x"
        assert codec.decode(codec.encode(frame)).metadata["tag"] == "x"


class TestPayloadModel:
    def test_payload_positive_and_bounded(self):
        codec = VideoCodec()
        encoded = codec.encode(blank_frame(96, 96))
        raw = 96 * 96 * 3
        assert 0 < encoded.payload_bytes < raw

    def test_lower_quality_smaller_payload(self):
        hi = VideoCodec(quality=1.0).encode(blank_frame(96, 96))
        lo = VideoCodec(quality=0.5).encode(blank_frame(96, 96))
        assert lo.payload_bytes < hi.payload_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoCodec(quality=0.0)
        with pytest.raises(ValueError):
            VideoCodec(base_compression=0.5)
