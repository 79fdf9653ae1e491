"""Three-valued checker outcomes with re-checkable witnesses."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Vec, format_scalar


class Status(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Witness:
    """Concrete data backing a verdict; every field is re-checkable."""

    x: Vec | None = None
    z: Vec | None = None
    radius: Fraction | None = None
    direction: Vec | None = None
    detail: str = ""

    def to_json(self):
        out = {}
        if self.x is not None:
            out["x"] = [format_scalar(v) for v in self.x]
        if self.z is not None:
            out["z"] = [format_scalar(v) for v in self.z]
        if self.radius is not None:
            out["radius"] = format_scalar(self.radius)
        if self.direction is not None:
            out["direction"] = [format_scalar(v) for v in self.direction]
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class Verdict:
    """holds / fails-with-witness / inconclusive-at-resolution."""

    status: Status
    witness: Witness | None = None
    resolution: int | None = None
    note: str = ""

    def __post_init__(self):
        if self.status is Status.FAILS and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")

    @staticmethod
    def holds(resolution: int | None = None, note: str = "", witness: Witness | None = None) -> "Verdict":
        return Verdict(Status.HOLDS, witness, resolution, note)

    @staticmethod
    def fails(witness: Witness, resolution: int | None = None, note: str = "") -> "Verdict":
        return Verdict(Status.FAILS, witness, resolution, note)

    @staticmethod
    def inconclusive(note: str = "", resolution: int | None = None) -> "Verdict":
        return Verdict(Status.INCONCLUSIVE, None, resolution, note)

    @property
    def is_holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def is_fails(self) -> bool:
        return self.status is Status.FAILS

    @property
    def decisive(self) -> bool:
        return self.status is not Status.INCONCLUSIVE

    def to_json(self):
        out = {"status": self.status.value}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.resolution is not None:
            out["resolution"] = self.resolution
        if self.note:
            out["note"] = self.note
        return out
