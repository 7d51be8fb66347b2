"""Pipeline configuration: flat key=value files with section dots.

Example file:

    core.order=2
    core.lambda=0.01
    trajectory.merge_rotated=true
    phantom.kind=disk

The same keys work as command-line overrides.  Presets bundle the
regularization weights used for the two reference experiments; they were
tuned with a different denoiser, so treat them as starting points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Bad configuration file or override string."""


@dataclass
class KernelConfig:
    h: float = 0.01


@dataclass
class TrajectoryConfig:
    freq_x: float = 16.0
    freq_y: float = 17.0
    phase_x: float = math.pi / 2
    phase_y: float = math.pi / 2
    L: int = 1632
    merge_rotated: bool = False


@dataclass
class GridConfig:
    fine_nx: int = 512
    recon_nx: int = 100
    coeff_n: int = 64


@dataclass
class CoreConfig:
    order: int = 2
    lam: float = 0.01


@dataclass
class DeconvConfig:
    mu: float = 0.01
    nu0: float = 1.0
    iters: int = 8
    denoiser: str = "gaussian_blur"
    denoiser_width: float = 0.3
    external_command: str = ""
    timeout: float = 60.0


@dataclass
class NoiseConfig:
    fraction: float = 0.02
    seed: int = 1234


@dataclass
class PhantomConfig:
    kind: str = "disk"
    intensity: float = 1.0
    path: str = ""


@dataclass
class PipelineConfig:
    kernel: KernelConfig = field(default_factory=KernelConfig)
    trajectory: TrajectoryConfig = field(default_factory=TrajectoryConfig)
    grids: GridConfig = field(default_factory=GridConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    deconv: DeconvConfig = field(default_factory=DeconvConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    phantom: PhantomConfig = field(default_factory=PhantomConfig)


# config-file key -> dataclass field, where names differ ("lambda" is reserved)
_ALIASES = {"core.lambda": "core.lam"}

PRESETS: dict[str, dict[str, str]] = {
    "exp1_order1": {"core.order": "1", "core.lambda": "0.08",
                    "deconv.mu": "0.05", "trajectory.merge_rotated": "false"},
    "exp1_order2": {"core.order": "2", "core.lambda": "0.01",
                    "deconv.mu": "0.01", "trajectory.merge_rotated": "false"},
    "exp2_order1": {"core.order": "1", "core.lambda": "1",
                    "deconv.mu": "0.05", "trajectory.merge_rotated": "true"},
    "exp2_order2": {"core.order": "2", "core.lambda": "0.004",
                    "deconv.mu": "0.01", "trajectory.merge_rotated": "true"},
}


def _coerce(current, text: str):
    if isinstance(current, bool):
        low = text.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {text!r}")
    if isinstance(current, int):
        return int(text)
    if isinstance(current, float):
        return float(text)
    return text


def set_option(cfg: PipelineConfig, key: str, value: str) -> None:
    key = _ALIASES.get(key, key)
    section, _, name = key.partition(".")
    if not name:
        raise ConfigError(f"key {key!r} must look like section.name")
    try:
        group = getattr(cfg, section)
    except AttributeError:
        raise ConfigError(f"unknown config section {section!r}") from None
    if not any(f.name == name for f in fields(group)):
        raise ConfigError(f"unknown config key {key!r}")
    try:
        setattr(group, name, _coerce(getattr(group, name), value))
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def apply_overrides(cfg: PipelineConfig, pairs) -> None:
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"override {pair!r} must look like key=value")
        set_option(cfg, key.strip(), value.strip())


def apply_preset(cfg: PipelineConfig, name: str) -> None:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    for key, value in PRESETS[name].items():
        set_option(cfg, key, value)


def load_config(path: str) -> PipelineConfig:
    cfg = PipelineConfig()
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            set_option(cfg, key.strip(), value.strip())
    return cfg

