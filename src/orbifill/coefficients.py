"""Coefficient ring descriptors: Q, Z, or Z/m."""

from __future__ import annotations

import math

from .errors import excerpt, integer
from .record import Record


class CoefficientRing(Record):
    def __init__(self, kind: str, modulus: int | None = None):
        # kind is "Q", "Z", or "Z/m"
        self.__dict__.update(kind=kind, modulus=modulus)
        if kind == "Z/m" and modulus < 2:
            raise ValueError("modulus must be at least 2")

    def is_invertible(self, k: int) -> bool:
        """Whether the integer k is a unit in this ring."""
        if self.kind == "Q":
            return k != 0
        if self.kind == "Z":
            return abs(k) == 1
        return math.gcd(k, self.modulus) == 1

    def describe(self) -> str:
        return f"Z/{self.modulus}" if self.kind == "Z/m" else self.kind

    @staticmethod
    def parse(text: str) -> "CoefficientRing":
        t = text.strip().lower()
        if t in ("q", "rationals"):
            return CoefficientRing("Q")
        if t in ("z", "integers"):
            return CoefficientRing("Z")
        if t.startswith("z/"):
            return CoefficientRing("Z/m", integer(t[2:], name="coefficient ring Z/m"))
        raise ValueError(f"unknown coefficient ring {excerpt(text)}")
