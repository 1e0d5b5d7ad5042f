"""Runtime configuration knobs with environment-variable overrides."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .extremal import DEFAULT_BRUTE_CAP
from .geval import DEFAULT_FAREY_DEPTH_CAP

ENV_PREFIX = "DTU_"


@dataclass
class RunConfig:
    """Caps shared by the CLI commands.

    Environment overrides: DTU_BRUTE_CAP, DTU_FAREY_DEPTH_CAP.
    """

    brute_cap: int = DEFAULT_BRUTE_CAP
    farey_depth_cap: int = DEFAULT_FAREY_DEPTH_CAP

    def __post_init__(self):
        for name in ("brute_cap", "farey_depth_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @classmethod
    def from_env(cls, environ=None, **overrides) -> "RunConfig":
        environ = os.environ if environ is None else environ
        values = {}
        for field, env in (("brute_cap", "BRUTE_CAP"),
                           ("farey_depth_cap", "FAREY_DEPTH_CAP")):
            raw = environ.get(ENV_PREFIX + env)
            if raw is not None:
                try:
                    values[field] = int(raw)
                except ValueError as exc:
                    raise ValueError(
                        f"{ENV_PREFIX + env} must be an integer, got {raw!r}") from exc
        values.update(overrides)
        return cls(**values)
