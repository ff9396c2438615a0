"""Disturbance scenarios driving the time-domain simulations.

A scenario owns the time axis of both simulators: see
:meth:`Scenario.record_steps` and :meth:`Scenario.record_times`.
"""

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

__all__ = ["ScenarioKind", "Scenario", "DEFAULTS"]


class ScenarioKind(Enum):
    STEP = "step"
    NOISE = "noise"


# The value a scenario field takes where its source leaves it unset, per
# kind. :class:`Scenario` fills every ``None`` field of its kind from this
# one table, so case files, the CLI flags and the simulators see one value.
DEFAULTS = {
    ScenarioKind.STEP: {"t_end": 60.0, "h": 0.01, "onset": 5.0},
    ScenarioKind.NOISE: {"t_end": 250.0, "h": 1e-3, "paths": 20, "burn_in": 50.0},
}
# the fields only the other kind reads, which a scenario refuses, in the CLI's flag order
_FOREIGN = {ScenarioKind.STEP: ("seed", "paths", "sigma", "burn_in"),
            ScenarioKind.NOISE: ("steps", "onset")}
# recording interval of noise runs in s, taken as the whole number of steps
# nearest to it (at least one)
_RECORD_DT = 0.1


@dataclass(frozen=True)
class Scenario:
    """Either step loads at given nodes and onset time, or white noise.

    ``h`` is the Euler-Maruyama step for noise runs and the output-grid
    spacing for deterministic runs (which integrate adaptively underneath).
    ``t_end`` must be a whole number of steps ``h``, up to a relative slack
    of 1e-9, so the last recorded row is at ``n * h``, the end of the last
    of the n steps. A step's ``onset`` lies in [0, t_end) and at least
    ``2 eps t_n`` below the last recorded time ``t_n``: the study integrates
    from the onset to ``t_n``, and LSODA steps no shorter span. A noise
    run's ``burn_in`` lies in [0, t_end) and at most 1e-12 past ``t_n``:
    its metrics average the recorded rows at or after the burn-in.
    A noise scenario admits ``seed=None``, but
    :func:`~piac.sim.simulate_stochastic` and the CLI refuse to run one
    without a seed, so every ensemble is reproducible. A seed is
    non-negative, as numpy's ``SeedSequence`` requires. ``paths`` and
    ``seed`` are integers: a float or a bool is refused.
    A field left ``None``, ``t_end`` and ``h`` included, takes its kind's
    value in :data:`DEFAULTS`; a field only the other kind reads must be
    left unset (``None``, or empty).
    """

    kind: ScenarioKind
    t_end: float | None = None
    h: float | None = None
    onset: float | None = None
    steps: dict[int, float] = field(default_factory=dict)
    sigma: dict[int, float] = field(default_factory=dict)
    paths: int | None = None
    burn_in: float | None = None
    seed: int | None = None

    def __post_init__(self):
        foreign = [f.name for f in fields(self) if f.name in _FOREIGN[self.kind]
                   and getattr(self, f.name) not in (None, {})]
        if foreign:
            raise ValueError(f"{self.kind.value} scenarios take no "
                             f"{', '.join(foreign)}")
        for name, value in DEFAULTS[self.kind].items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        for name in ("paths", "seed"):
            value = getattr(self, name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
        t_n = self.record_steps()[-1] * self.h
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.kind is ScenarioKind.STEP:
            if self.onset < 0 or self.onset >= self.t_end:
                raise ValueError(f"onset {self.onset} must lie in [0, t_end)")
            # LSODA refuses a span under 2 eps max(|t|, |tout|); an onset at
            # or past t_n would leave no span at all
            if t_n - self.onset < 2 * np.finfo(float).eps * t_n:
                raise ValueError(f"onset {self.onset!r} lies less than 2 eps t_n "
                                 f"below the last recorded time t_n = {t_n!r}: "
                                 "the integrator cannot step a span that short; "
                                 "give an earlier onset")
        else:
            if any(s < 0 for s in self.sigma.values()):
                raise ValueError("noise strengths must be >= 0")
            if self.paths < 1:
                raise ValueError("paths must be >= 1")
            if not 0 <= self.burn_in < self.t_end:
                raise ValueError("burn_in must lie in [0, t_end)")
            if t_n < self.burn_in - 1e-12:
                raise ValueError(f"burn_in {self.burn_in!r} lies past the last recorded "
                                 f"time t_n = {t_n!r}: no recorded row is left to "
                                 "average; give an earlier burn-in")

    def record_steps(self) -> range:
        """The recorded steps ..., n - 2s, n - s, n of the n steps to
        ``t_end``, counted back from n down to the least step >= 0.

        A step study records every step (s = 1): ``h`` alone sets its grid.
        A noise run records every ``_RECORD_DT`` s, rounded to whole steps
        (at least one); where s does not divide n, its first recorded step
        is ``n % s``, not 0. A ``t_end`` that is not a whole number of steps
        raises :class:`ValueError`.
        """
        q = self.t_end / self.h
        n = round(q) if math.isfinite(q) else 0
        if n < 1 or abs(n * self.h - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(f"t_end {self.t_end:g} is not a whole number of "
                             f"steps h = {self.h:g}")
        stride = (max(1, round(_RECORD_DT / self.h))
                  if self.kind is ScenarioKind.NOISE else 1)
        return range(n % stride, n + 1, stride)

    def record_times(self) -> np.ndarray:
        """The times ``k * h`` of :meth:`record_steps`, the last at ``n * h``."""
        return np.array(self.record_steps()) * self.h

    @classmethod
    def step(cls, steps: dict[int, float], onset: float | None = None,
             t_end: float | None = None, h: float | None = None) -> "Scenario":
        return cls(kind=ScenarioKind.STEP, t_end=t_end, h=h, onset=onset,
                   steps=dict(steps))

    @classmethod
    def white_noise(cls, sigma: dict[int, float], seed: int,
                    t_end: float | None = None, h: float | None = None,
                    paths: int | None = None,
                    burn_in: float | None = None) -> "Scenario":
        return cls(kind=ScenarioKind.NOISE, t_end=t_end, h=h, sigma=dict(sigma),
                   paths=paths, burn_in=burn_in, seed=seed)
