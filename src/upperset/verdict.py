"""Three-valued checker outcomes with re-checkable witnesses."""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .linalg import Vec, to_json


class Status(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


class Witness(NamedTuple):
    """Concrete data backing a verdict; every field is re-checkable."""

    x: Vec | None = None
    z: Vec | None = None
    radius: Fraction | None = None
    direction: Vec | None = None
    detail: str = ""

    def to_json(self):
        return _present(to_json(self._asdict()))


class Verdict:
    """holds / fails-with-witness / inconclusive-at-resolution."""

    def __init__(
        self,
        status: Status,
        witness: Witness | None = None,
        resolution: int | None = None,
        note: str = "",
    ):
        if status is Status.FAILS and witness is None:
            raise ValueError("a failing verdict must carry a witness")
        self.status = status
        self.witness = witness
        self.resolution = resolution
        self.note = note

    def __eq__(self, other) -> bool:
        return type(other) is Verdict and vars(self) == vars(other)

    def __repr__(self) -> str:
        return "Verdict(%s)" % ", ".join(f"{k}={v!r}" for k, v in vars(self).items())

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
        witness = None if self.witness is None else self.witness.to_json()
        return _present(
            {"status": self.status.value, "witness": witness, "resolution": self.resolution, "note": self.note}
        )


def _present(fields: dict) -> dict:
    """The fields that are set, in order: None and the empty note drop out."""
    return {k: v for k, v in fields.items() if v is not None and v != ""}
