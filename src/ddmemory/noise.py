"""Dephasing-noise spectral densities and strength calibration.

The model family is S(omega) = g * (omega/omega_c)**s * f(omega, omega_c)
with either a hard cutoff, a Gaussian rolloff applied across the whole
band, or a power-law tail g*(omega/omega_c)**(-r) above omega_c that is
continuous at the cutoff. Angular frequency (rad/s) is the internal unit
everywhere; only the CLI speaks Hz. Band limits [omega_min, omega_max]
truncate every integral built on top of a spectrum.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Union

import numpy as np

from .errors import CalibrationError, DomainError

TWO_PI = 2.0 * math.pi

HARD = "hard"
GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class PowerLaw:
    """Power-law rolloff: S follows g*(omega/omega_c)**(-r) above omega_c."""

    r: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r > 0):
            raise DomainError(f"power-law rolloff exponent r must be finite and > 0, got {self.r}")


Rolloff = Union[str, PowerLaw]


@dataclass(frozen=True)
class NoiseSpectrum:
    """Power-law dephasing spectrum with a cutoff and integration band.

    s is the dimensionless low-frequency exponent, g the strength in
    rad/s, omega_c the cutoff in rad/s. g >= 0 so error integrals stay
    nonnegative; g = 0 encodes a noiseless reference.
    """

    s: float
    g: float
    omega_c: float
    rolloff: Rolloff = GAUSSIAN
    omega_min: float = TWO_PI * 0.01
    omega_max: float = TWO_PI * 1.0e8

    def __post_init__(self) -> None:
        for name in ("s", "g", "omega_c", "omega_min", "omega_max"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.omega_c > 0:
            raise DomainError(f"omega_c must be positive, got {self.omega_c}")
        if self.g < 0:
            raise DomainError(f"spectral strength g must be >= 0, got {self.g}")
        if not (0 < self.omega_min < self.omega_max):
            raise DomainError(
                f"need 0 < omega_min < omega_max, got [{self.omega_min}, {self.omega_max}]"
            )
        if isinstance(self.rolloff, str) and self.rolloff not in (HARD, GAUSSIAN):
            raise DomainError(f"unknown rolloff kind {self.rolloff!r}")


def evaluate(spec: NoiseSpectrum, omega):
    """Spectral density S(omega) in rad/s, vectorized over omega.

    Zero outside [omega_min, omega_max]. omega must be strictly positive.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise DomainError("spectral density is defined for omega > 0 only")
    x = w / spec.omega_c
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        vals = spec.g * np.power(x, spec.s)
        if spec.rolloff == HARD:
            vals = np.where(w > spec.omega_c, 0.0, vals)
        elif spec.rolloff == GAUSSIAN:
            vals = vals * np.exp(-np.minimum(x * x, 745.0))
        else:
            hi = spec.g * np.power(x, -spec.rolloff.r)
            vals = np.where(w > spec.omega_c, hi, vals)
    vals = np.where((w < spec.omega_min) | (w > spec.omega_max), 0.0, vals)
    if np.isscalar(omega):
        return float(vals)
    return vals


def calibrate_strength(spec_template: NoiseSpectrum, target_t2: float) -> NoiseSpectrum:
    """Rescale g so free evolution of duration target_t2 has error chi = 1.

    chi is exactly linear in g, so a single baseline evaluation fixes the
    scale. The template's g only needs to be positive.
    """
    if not target_t2 > 0:
        raise DomainError(f"target T2 must be positive, got {target_t2}")
    from .integrals import chi
    from .pulses import bang_bang
    from .sequences import free_evolution

    template = spec_template if spec_template.g > 0 else replace(spec_template, g=spec_template.omega_c)
    baseline = chi(free_evolution(target_t2), template, bang_bang()).chi_total
    if not math.isfinite(baseline) or baseline <= 0.0:
        raise CalibrationError(
            f"baseline free-evolution error is {baseline}; cannot solve chi(T2) = 1"
        )
    return replace(template, g=template.g / baseline)


# -- JSON presets ------------------------------------------------------------

PRESET_DIR_ENV = "DDMEMORY_PRESET_DIR"


def spectrum_from_json(doc: dict) -> NoiseSpectrum:
    """Build a spectrum from the preset schema (frequencies in Hz)."""
    try:
        raw = doc["rolloff"]
        if isinstance(raw, dict):
            rolloff: Rolloff = PowerLaw(float(raw["power_law"]))
        else:
            rolloff = str(raw)
        omega_c = TWO_PI * float(doc["omega_c_hz"])
        return NoiseSpectrum(
            s=float(doc["s"]),
            g=float(doc["g_over_omega_c"]) * omega_c,
            omega_c=omega_c,
            rolloff=rolloff,
            omega_min=TWO_PI * float(doc["omega_min_hz"]),
            omega_max=TWO_PI * float(doc["omega_max_hz"]),
        )
    except KeyError as exc:
        raise DomainError(f"spectrum JSON is missing field {exc}") from exc


def spectrum_to_json(spec: NoiseSpectrum) -> dict:
    """Inverse of spectrum_from_json (frequencies back in Hz)."""
    rolloff: Union[str, dict]
    if isinstance(spec.rolloff, PowerLaw):
        rolloff = {"power_law": spec.rolloff.r}
    else:
        rolloff = spec.rolloff
    return {
        "s": spec.s,
        "g_over_omega_c": spec.g / spec.omega_c,
        "omega_c_hz": spec.omega_c / TWO_PI,
        "rolloff": rolloff,
        "omega_min_hz": spec.omega_min / TWO_PI,
        "omega_max_hz": spec.omega_max / TWO_PI,
    }


def load_preset(name: str) -> NoiseSpectrum:
    """Load a spectrum preset by name or by explicit JSON path.

    Lookup order for bare names: $DDMEMORY_PRESET_DIR, then the presets
    shipped with the package (gaas, yb).
    """
    candidates = []
    if os.sep in name or name.endswith(".json"):
        candidates.append(Path(name))
    else:
        env_dir = os.environ.get(PRESET_DIR_ENV)
        if env_dir:
            candidates.append(Path(env_dir, name + ".json"))
        candidates.append(resources.files("ddmemory").joinpath("presets", name + ".json"))
    for path in candidates:
        if path.is_file():
            with path.open("r") as fh:
                return spectrum_from_json(json.load(fh))
    raise DomainError(f"unknown spectrum preset {name!r}")
