#!/usr/bin/env python3
"""Walkthrough of the full Fig. 4 loop, component by component.

Builds the whole testbed explicitly — Alice's scene/camera/metering, the
network links, Bob's screen/face/camera — runs a 30-second chat, then
walks the detector pipeline stage by stage and prints what each stage
sees: luminance signals, filter outputs, significant changes, matches,
features, LOF score.

A good starting point for understanding how the system is wired, and for
swapping any component (a different screen, a lossier network, a darker
room) to see its effect on the evidence.

Run:  python examples/video_chat_walkthrough.py
"""

import numpy as np

from repro.chat.session import VideoChatSession
from repro.core.config import DetectorConfig
from repro.core.detector import LivenessDetector
from repro.core.features import extract_features_batch
from repro.core.luminance import received_luminance_signal, transmitted_luminance_signal
from repro.experiments.profiles import Environment
from repro.experiments.simulate import (
    build_genuine_prover,
    build_links,
    build_verifier,
    default_user,
    simulate_genuine_session,
)


def main() -> None:
    config = DetectorConfig()
    env = Environment()  # the paper's testbed: 27" LED at 85 %, 10 Hz

    print("=== Step 0: build the testbed ===")
    verifier_endpoint = build_verifier(env, seed=11)
    prover_endpoint = build_genuine_prover(default_user(), env, seed=12)
    uplink, downlink = build_links(env, seed=13)
    print(f"  screen        : {env.screen.diagonal_in}\" {env.screen.technology.upper()}"
          f" at {env.screen.brightness:.0%} brightness")
    print(f"  viewing dist. : {env.viewing_distance_m} m")
    print(f"  network       : {uplink.channel.base_delay_s * 1000:.0f} ms one-way,"
          f" {uplink.channel.loss_rate:.1%} loss,"
          f" {uplink.jitter_buffer.playout_delay_s * 1000:.0f} ms playout buffer")

    print("\n=== Steps 1-4: run the chat (30 s) ===")
    session = VideoChatSession(
        verifier=verifier_endpoint,
        prover=prover_endpoint,
        uplink=uplink,
        downlink=downlink,
        fps=env.fps,
    )
    record = session.run(duration_s=30.0)
    print(f"  transmitted frames : {len(record.transmitted)}")
    print(f"  received frames    : {len(record.received)}"
          f" ({record.stats['frozen_ticks']} loss-concealed)")
    print(f"  round-trip delay   : {record.stats['round_trip_delay_s'] * 1000:.0f} ms")

    print("\n=== Step 5a: luminance extraction (Sec. IV) ===")
    t_lum = transmitted_luminance_signal(record.transmitted)
    received = received_luminance_signal(record.received)
    r_lum = received.luminance
    print(f"  transmitted luminance: {t_lum.min():.0f} .. {t_lum.max():.0f}"
          f" (mean {t_lum.mean():.0f})")
    print(f"  nasal-ROI luminance  : {r_lum.min():.0f} .. {r_lum.max():.0f}"
          f" (face detected in {received.detection_rate:.0%} of frames)")

    print("\n=== Step 5b: preprocessing + features (Sec. V-VI) ===")
    # Use the first 15-second clip, like a real detection attempt.
    n = config.samples_per_clip
    fx = extract_features_batch([(t_lum[:n], r_lum[:n])], config)[0]
    print(f"  screen changes at : {np.round(fx.transmitted.peak_times, 1)} s")
    print(f"  face changes at   : {np.round(fx.received.peak_times, 1)} s")
    print(f"  matched pairs     : {len(fx.matches)}"
          f" (estimated delay {fx.delay_s:.2f} s)")
    z = fx.features
    print(f"  z1 (matched in T) : {z.z1:.3f}")
    print(f"  z2 (matched in R) : {z.z2:.3f}")
    print(f"  z3 (min Pearson)  : {z.z3:.3f}")
    print(f"  z4 (max DTW / 30) : {z.z4:.3f}")

    print("\n=== Step 5c: LOF classification (Sec. VII) ===")
    detector = LivenessDetector(config)
    detector.fit_from_clips(
        _training_clips(config, count=8)
    )
    result = detector.verify_features(z)
    print(f"  LOF score : {result.lof_score:.2f} (threshold {result.threshold})")
    print(f"  decision  : {'REJECT (attacker)' if result.rejected else 'ACCEPT (live)'}")


def _training_clips(config: DetectorConfig, count: int):
    """Legitimate (transmitted, received) luminance pairs for the bank."""
    clips = []
    for seed in range(count):
        record = simulate_genuine_session(duration_s=15.0, seed=500 + seed)
        t = transmitted_luminance_signal(record.transmitted)
        r = received_luminance_signal(record.received).luminance
        n = config.samples_per_clip
        clips.append((t[:n], r[:n]))
    return clips


if __name__ == "__main__":
    main()
