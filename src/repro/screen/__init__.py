"""Display and illumination substrate."""

from .display import (
    DELL_27_LED,
    LAPTOP_13_LCD,
    MONITOR_21_LCD,
    PHONE_6_OLED,
    SCREEN_SIZE_LADDER,
    TABLET_10_LCD,
    ScreenSpec,
)
from .illumination import AmbientEvent, AmbientLight, screen_illuminance

__all__ = [
    "DELL_27_LED",
    "LAPTOP_13_LCD",
    "MONITOR_21_LCD",
    "PHONE_6_OLED",
    "SCREEN_SIZE_LADDER",
    "TABLET_10_LCD",
    "ScreenSpec",
    "AmbientEvent",
    "AmbientLight",
    "screen_illuminance",
]
