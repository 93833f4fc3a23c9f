"""Scalar monotonicity profiles f, xi and quasilinear coefficient profiles.

A ``Profile`` is the 1-D monotone function that enters a subequation
(``tr A >= f(r)``, ``|p| <= xi(r)``, ...).  Three kinds are supported:
linear through the origin, constant, and a tabulated monotone linear
spline with flat extension beyond the table.  Monotonicity and the sign
flags (f1), (f1'), (xi1), (xi0) are verified by sampling at construction
time and cached on the instance.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionError, InputError

_SAMPLE_GRID = np.concatenate(
    [-np.geomspace(1e-6, 100.0, 160)[::-1], [0.0], np.geomspace(1e-6, 100.0, 160)]
)


@dataclass(frozen=True)
class Profile:
    kind: str  # "linear" | "constant" | "table"
    slope: float = 0.0
    value: float = 0.0
    xs: np.ndarray | None = None
    ys: np.ndarray | None = None
    flags: dict = field(default_factory=dict, compare=False)

    # -- constructors -------------------------------------------------
    @staticmethod
    def linear(slope: float) -> "Profile":
        if not np.isfinite(slope):
            raise InputError("linear profile slope must be finite")
        return Profile._finish(Profile(kind="linear", slope=float(slope)))

    @staticmethod
    def constant(value: float) -> "Profile":
        if not np.isfinite(value):
            raise InputError("constant profile value must be finite")
        return Profile._finish(Profile(kind="constant", value=float(value)))

    @staticmethod
    def table(xs, ys) -> "Profile":
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
            raise InputError("table profile needs matching 1-D arrays, >= 2 knots")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise InputError("table profile knots must be finite")
        if np.any(np.diff(xs) <= 0):
            raise InputError("table profile abscissae must be strictly increasing")
        d = np.diff(ys)
        if not (np.all(d >= 0) or np.all(d <= 0)):
            raise ConstructionError("table profile values must be monotone")
        return Profile._finish(Profile(kind="table", xs=xs, ys=ys))

    @staticmethod
    def _finish(p: "Profile") -> "Profile":
        p.flags.update(_profile_flags(p))
        return p

    # -- evaluation ----------------------------------------------------
    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "linear":
            out = self.slope * r
        elif self.kind == "constant":
            out = np.full_like(r, self.value)
        else:
            out = np.interp(r, self.xs, self.ys)  # flat beyond the table
        return out if out.ndim else float(out)

    # -- monotonicity --------------------------------------------------
    @property
    def nondecreasing(self) -> bool:
        return self.flags["nondecreasing"]

    @property
    def nonincreasing(self) -> bool:
        return self.flags["nonincreasing"]

    def require_f(self) -> "Profile":
        if not self.nondecreasing:
            raise ConstructionError("profile f must be non-decreasing")
        return self

    def require_xi(self) -> "Profile":
        if not (self.flags["xi1"] or self.flags["xi0"]):
            raise ConstructionError(
                "profile xi must satisfy (xi1) or (xi0): non-negative, non-increasing"
            )
        return self

    # -- transforms used by Dirichlet duality --------------------------
    def reflect(self) -> "Profile":
        """The dual profile r -> -f(-r)."""
        if self.kind == "linear":
            return Profile.linear(self.slope)
        if self.kind == "constant":
            return Profile.constant(-self.value)
        return Profile.table(-self.xs[::-1], -self.ys[::-1])

    def neg_arg(self) -> "Profile":
        """The reflected-argument profile r -> f(-r) (eikonal duality)."""
        if self.kind == "linear":
            return Profile.linear(-self.slope)
        if self.kind == "constant":
            return Profile.constant(self.value)
        return Profile.table(-self.xs[::-1], self.ys[::-1])


def _profile_flags(p: Profile) -> dict:
    if p.kind == "table":
        grid = np.unique(np.concatenate([_SAMPLE_GRID, p.xs]))
    else:
        grid = _SAMPLE_GRID
    v = np.asarray(p(grid))
    dv = np.diff(v)
    nondec = bool(np.all(dv >= -1e-14))
    noninc = bool(np.all(dv <= 1e-14))
    at0 = float(p(0.0))
    neg = grid < 0
    f1 = nondec and abs(at0) <= 1e-12 and bool(np.all(v[neg] < 0))
    f1p = nondec and abs(at0) <= 1e-12 and abs(float(p(-1e-3))) <= 1e-12
    xi1 = (
        noninc
        and abs(at0) <= 1e-12
        and bool(np.all(v >= -1e-14))
        and bool(np.all(v[neg] > 0))
    )
    xi0 = noninc and bool(np.all(v > 0))
    return {
        "nondecreasing": nondec,
        "nonincreasing": noninc,
        "f1": f1,
        "f1_prime": f1p,
        "xi1": xi1,
        "xi0": xi0,
    }


# ---------------------------------------------------------------------------
# quasilinear coefficient profiles a(t)
# ---------------------------------------------------------------------------

_T_EPS = 1e-8  # where the p -> 0 closure values of lambda_j are read off


@dataclass(frozen=True)
class AProfile:
    """Coefficient profile a(t) of div(a(|du|) du) with eigenvalues
    lambda_1 = a + t a' (radial) and lambda_2 = a (tangential)."""

    name: str
    a: callable
    da: callable
    kind: str = "generic"  # "power" | "mean_curvature" | "const" | "generic"
    param: float = 0.0

    def lam1(self, t):
        t = np.asarray(t, dtype=float)
        return self.a(t) + t * self.da(t)

    def lam2(self, t):
        return self.a(np.asarray(t, dtype=float))

    @property
    def lam1_0(self) -> float:
        return float(self.lam1(_T_EPS))

    @property
    def lam2_0(self) -> float:
        return float(self.lam2(_T_EPS))

    def validate(self) -> "AProfile":
        t = np.geomspace(1e-6, 1e3, 200)
        l1, l2 = self.lam1(t), self.lam2(t)
        if np.any(l1 < -1e-12):
            raise ConstructionError(f"AProfile {self.name}: lambda_1 = a + t a' < 0")
        if np.any(l2 <= 0):
            raise ConstructionError(f"AProfile {self.name}: lambda_2 = a <= 0")
        return self

    # -- stock profiles -------------------------------------------------
    @staticmethod
    def constant(c: float = 1.0) -> "AProfile":
        return AProfile(
            name=f"const_{c:g}", a=lambda t: c + 0.0 * np.asarray(t),
            da=lambda t: 0.0 * np.asarray(t), kind="const", param=float(c),
        ).validate()

    @staticmethod
    def k_laplacian(k: float) -> "AProfile":
        if k < 1:
            raise InputError("k-Laplacian needs k >= 1")
        return AProfile(
            name=f"p_laplace_{k:g}",
            a=lambda t: np.asarray(t, dtype=float) ** (k - 2.0),
            da=lambda t: (k - 2.0) * np.asarray(t, dtype=float) ** (k - 3.0),
            kind="power", param=float(k),
        ).validate()

    @staticmethod
    def mean_curvature() -> "AProfile":
        return AProfile(
            name="mean_curvature",
            a=lambda t: (1.0 + np.asarray(t, dtype=float) ** 2) ** -0.5,
            da=lambda t: -np.asarray(t, dtype=float)
            * (1.0 + np.asarray(t, dtype=float) ** 2) ** -1.5,
            kind="mean_curvature",
        ).validate()
