"""Scalar fields on (t, x) with optional analytic partial derivatives.

The PDE checker consumes solution components through this interface:
when a field carries analytic ``dt``/``dx``/``dxx`` callables they are
used directly, otherwise the checker falls back to finite differences.
Every callable takes scalars or broadcasting arrays for t and x and
returns a value of the broadcast shape (a constant may stay a scalar).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Point = float | np.ndarray
PointFn = Callable[[Point, Point], Point]


@dataclass(frozen=True)
class ScalarField:
    value: PointFn
    dt: PointFn | None = None
    dx: PointFn | None = None
    dxx: PointFn | None = None

    def __call__(self, t: Point, x: Point) -> Point:
        return self.value(t, x)

    @property
    def has_analytic(self) -> bool:
        return self.dt is not None and self.dx is not None and self.dxx is not None

    def scaled(self, factor: float) -> "ScalarField":
        """The field multiplied pointwise by a constant (partials follow)."""

        def wrap(fn: PointFn | None) -> PointFn | None:
            if fn is None:
                return None
            return lambda t, x: factor * fn(t, x)

        return ScalarField(
            value=lambda t, x: factor * self.value(t, x),
            dt=wrap(self.dt),
            dx=wrap(self.dx),
            dxx=wrap(self.dxx),
        )
