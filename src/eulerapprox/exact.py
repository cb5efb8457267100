"""Exact complex-rational arithmetic (numbers a + bi with a, b in Q).

Backs ``factors.partial_product_exact``, the exact oracle for the float
products: at an integer exponent and quarter-turn phases every factor of a
character valued in {0, +-1, +-i} lies in Q(i), so the product does too and
tests compare against it with no tolerance on the exact side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, "QI"]


@dataclass(frozen=True)
class QI:
    re: Fraction
    im: Fraction

    @staticmethod
    def of(x: Scalar) -> "QI":
        if isinstance(x, QI):
            return x
        if isinstance(x, complex):
            raise TypeError("floating complex is not exact; build QI from rationals")
        return QI(Fraction(x), Fraction(0))

    def __add__(self, other: Scalar) -> "QI":
        o = QI.of(other)
        return QI(self.re + o.re, self.im + o.im)

    def __neg__(self) -> "QI":
        return QI(-self.re, -self.im)

    def __sub__(self, other: Scalar) -> "QI":
        return self + (-QI.of(other))

    def __mul__(self, other: Scalar) -> "QI":
        o = QI.of(other)
        return QI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, other: Scalar) -> "QI":
        o = QI.of(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return QI((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


QI_ONE = QI(Fraction(1), Fraction(0))
QI_I = QI(Fraction(0), Fraction(1))

# e^{-2 pi i q} for quarter turns q = 0, 1/4, 1/2, 3/4
QUARTER_UNITS = {
    Fraction(0): QI_ONE,
    Fraction(1, 4): -QI_I,
    Fraction(1, 2): -QI_ONE,
    Fraction(3, 4): QI_I,
}
