"""The public facade: one blessed import surface for applications."""

import repro
import repro.api as api


class TestFacade:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_top_level_package_mirrors_facade(self):
        """`from repro import X` and `from repro.api import X` agree."""
        for name in api.__all__:
            if hasattr(repro, name):
                assert getattr(repro, name) is getattr(api, name)

    def test_core_entry_points_are_the_real_ones(self):
        from repro.core.config import PAPER_CONFIG
        from repro.core.pipeline import ChatVerifier, VerificationReport
        from repro.engine import ExecutionEngine

        assert api.PAPER_CONFIG is PAPER_CONFIG
        assert api.ChatVerifier is ChatVerifier
        assert api.VerificationReport is VerificationReport
        assert api.ExecutionEngine is ExecutionEngine

    def test_deleted_shims_stay_deleted(self):
        from repro import core
        from repro.core import delay, features, matching, pipeline, preprocessing
        from repro.core.config import DetectorConfig
        from repro.engine import ExecutionEngine

        for module in (repro, api, features):
            assert not hasattr(module, "extract_features")
        assert not hasattr(features, "features_from_signals")
        # Naming the deleted alias is the point (R006 polices field names).
        assert not hasattr(DetectorConfig, "replace")  # reprolint: disable=R006
        assert not hasattr(ExecutionEngine, "map")
        for name in ("SessionVerdict", "DiagnosedVerdict"):
            assert not hasattr(pipeline, name)
            assert not hasattr(repro, name)
        # One form per Sec. V/VI step: the batch kernels, preprocess_batch
        # and the unchecked tail helpers stay; their views are gone.
        deleted = {
            preprocessing: (
                "lowpass_filter",
                "moving_variance",
                "threshold_filter",
                "moving_rms",
                "savgol_filter",
                "moving_average",
                "_as_signal",
                "preprocess",
            ),
            features: (
                "normalize_unit",
                "split_segments",
                "features_from_signals_batch",
                "_match_and_align",
                "_ClipPartial",
            ),
            matching: ("match_changes",),
            delay: ("align_signals",),
        }
        for module, names in deleted.items():
            for name in names:
                assert not hasattr(module, name), (module.__name__, name)
        assert not hasattr(core, "features_from_signals_batch")

        # Public names only tests called (R009 does not count a test
        # reference as a use); the tests read the state directly.
        from repro import baselines, screen, video
        from repro.baselines import facelive
        from repro.camera.camera import Camera
        from repro.camera.exposure import AutoExposureController
        from repro.core.lof import LocalOutlierFactor
        from repro.core.pipeline import ChatVerifier, VerificationReport
        from repro.core.streaming import StreamingVerifier
        from repro.core.voting import Verdict
        from repro.experiments import dataset, metrics
        from repro.net.jitterbuffer import JitterBuffer
        from repro.obs.metrics import MetricsSnapshot, SeriesSnapshot
        from repro.protocol.gate import ProtocolGate
        from repro.screen import illumination
        from repro.service.queues import FrameQueue
        from repro.service.server import VerificationServer
        from repro.service.tenants import TenantBankCache
        from repro.video import frame, stream
        from repro.vision import geometry
        from repro.vision.expression import ExpressionTrack
        from repro.vision.landmarks import FaceLandmarks

        test_only = {
            LocalOutlierFactor: ("effective_neighbors",),
            VerificationReport: ("is_conclusive",),
            ChatVerifier: ("clip_features", "enroll_features"),
            StreamingVerifier: ("protocol_gate", "all_attempts"),
            Verdict: ("accept_votes",),
            dataset.ClipInstance: ("is_genuine",),
            metrics: ("rates_at_threshold", "RateSummary"),
            JitterBuffer: ("pending_count",),
            MetricsSnapshot: ("merge",),
            SeriesSnapshot: ("merged",),
            ProtocolGate: ("attempts_graded",),
            FrameQueue: ("closed",),
            VerificationServer: ("active_sessions", "queued_sessions"),
            TenantBankCache: ("resident_tenants",),
            facelive: ("head_motion_from_video",),
            baselines: ("head_motion_from_video",),
            stream.VideoStream: ("slice_time",),
            frame: ("blank_frame",),
            video: ("blank_frame",),
            geometry: ("clamp",),
            geometry.Point: ("translated", "scaled", "as_array"),
            geometry.Rect: ("area", "contains", "center", "intersect", "_overlap"),
            FaceLandmarks: ("lower_bridge", "nose_tip_center"),
            Camera: ("reset_clock",),
            AutoExposureController: ("unlock",),
            ExpressionTrack: ("sample_many",),
            illumination: ("von_kries_reflection",),
            screen: ("von_kries_reflection",),
            illumination.AmbientLight: ("sample_scalar",),
        }
        for owner, names in test_only.items():
            for name in names:
                assert not hasattr(owner, name), (owner.__name__, name)
