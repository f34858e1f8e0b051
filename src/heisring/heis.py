"""Heisenberg group algebra, gauge metric, similarities and the contact structure.

The group is C x R with product (z,t)*(w,s) = (z+w, t+s+2 Im(z conj(w))).
Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class HPoint:
    """A group element (z, t): complex horizontal part, real vertical part."""

    z: complex
    t: float

    def __iter__(self):
        yield self.z
        yield self.t


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector in coordinate frame (d/dx, d/dy, d/dt) at ``base``."""

    base: HPoint
    a: float
    b: float
    c: float


ORIGIN = HPoint(0j, 0.0)


def mul(p: HPoint, q: HPoint) -> HPoint:
    """Group product."""
    return HPoint(p.z + q.z, p.t + q.t + 2.0 * (p.z * q.z.conjugate()).imag)


def inverse(p: HPoint) -> HPoint:
    return HPoint(-p.z, -p.t)


def gauge(p: HPoint) -> float:
    """Koranyi gauge (|z|^4 + t^2)^(1/4)."""
    return (abs(p.z) ** 4 + p.t * p.t) ** 0.25


def dist(p: HPoint, q: HPoint) -> float:
    """Koranyi-Cygan distance gauge(p^-1 * q)."""
    return gauge(mul(inverse(p), q))


def dilate(delta: float, p: HPoint) -> HPoint:
    """Dilation (z, t) -> (delta z, delta^2 t); requires delta > 0."""
    if not delta > 0.0:
        raise ValueError(f"dilation factor must be positive, got {delta}")
    return HPoint(delta * p.z, delta * delta * p.t)


def koranyi_map(p: HPoint) -> complex:
    """alpha(z, t) = -|z|^2 + i t, into the closed left half plane."""
    return complex(-abs(p.z) ** 2, p.t)


def contact_eval(v: TangentVector) -> float:
    """Value of the contact form dt + 2(x dy - y dx) on ``v``."""
    x = v.base.z.real
    y = v.base.z.imag
    return v.c + 2.0 * (x * v.b - y * v.a)


# -- similarities --------------------------------------------------------------

Similarity = Callable[[HPoint], HPoint]


def left_translation(g: HPoint) -> Similarity:
    return lambda p: mul(g, p)


def rotation(theta: float) -> Similarity:
    phase = complex(math.cos(theta), math.sin(theta))
    return lambda p: HPoint(p.z * phase, p.t)


def dilation(delta: float) -> Similarity:
    if not delta > 0.0:
        raise ValueError(f"dilation factor must be positive, got {delta}")
    return lambda p: dilate(delta, p)


def inversion() -> Similarity:
    def apply(p: HPoint) -> HPoint:
        if p.z == 0 and p.t == 0.0:
            raise ValueError("inversion is undefined at the origin")
        alpha = koranyi_map(p)
        return HPoint(p.z / alpha, -p.t / abs(alpha) ** 2)

    return apply
