"""Disturbance scenarios driving the time-domain simulations."""

import math
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["ScenarioKind", "Scenario", "DEFAULTS"]


class ScenarioKind(Enum):
    STEP = "step"
    NOISE = "noise"


# The value a scenario field takes where its source leaves it unset, per
# kind: the constructors below, case files, the CLI flags and the
# stochastic simulator all read this one table. A step scenario's
# ``onset=None`` still means onset at t = 0.
DEFAULTS = {
    ScenarioKind.STEP: {"t_end": 60.0, "h": 0.01, "onset": 5.0},
    ScenarioKind.NOISE: {"t_end": 250.0, "h": 1e-3, "paths": 20, "burn_in": 50.0},
}
_STEP = DEFAULTS[ScenarioKind.STEP]
_NOISE = DEFAULTS[ScenarioKind.NOISE]


@dataclass(frozen=True)
class Scenario:
    """Either step loads at given nodes and onset time, or white noise.

    ``h`` is the Euler-Maruyama step for noise runs and the output-grid
    spacing for deterministic runs (which integrate adaptively underneath).
    ``seed`` is mandatory for noise runs so every ensemble is reproducible.
    """

    kind: ScenarioKind
    t_end: float
    h: float
    onset: float | None = None
    steps: dict[int, float] = field(default_factory=dict)
    sigma: dict[int, float] = field(default_factory=dict)
    paths: int | None = None
    burn_in: float | None = None
    seed: int | None = None

    def __post_init__(self):
        for name in ("t_end", "h", "onset", "burn_in"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("steps", "sigma"):
            for nid, value in getattr(self, name).items():
                if not math.isfinite(value):
                    raise ValueError(f"{name} at node {nid} must be finite, got {value}")
        if not self.h > 0:
            raise ValueError(f"step h must be positive, got {self.h}")
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.kind is ScenarioKind.STEP:
            onset = 0.0 if self.onset is None else self.onset
            if onset < 0 or onset >= self.t_end:
                raise ValueError(f"onset {onset} must lie in [0, t_end)")
        else:
            if any(s < 0 for s in self.sigma.values()):
                raise ValueError("noise strengths must be >= 0")
            if self.paths is not None and self.paths < 1:
                raise ValueError("paths must be >= 1")
            if self.burn_in is not None and not 0 <= self.burn_in < self.t_end:
                raise ValueError("burn_in must lie in [0, t_end)")

    @classmethod
    def step(cls, steps: dict[int, float], onset: float = _STEP["onset"],
             t_end: float = _STEP["t_end"], h: float = _STEP["h"]) -> "Scenario":
        return cls(kind=ScenarioKind.STEP, t_end=t_end, h=h, onset=onset,
                   steps=dict(steps))

    @classmethod
    def white_noise(cls, sigma: dict[int, float], seed: int,
                    t_end: float = _NOISE["t_end"], h: float = _NOISE["h"],
                    paths: int = _NOISE["paths"],
                    burn_in: float = _NOISE["burn_in"]) -> "Scenario":
        return cls(kind=ScenarioKind.NOISE, t_end=t_end, h=h, sigma=dict(sigma),
                   paths=paths, burn_in=burn_in, seed=seed)
