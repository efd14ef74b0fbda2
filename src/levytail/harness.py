"""Validation harness: residual curves, rate fits and bound domination checks.

The central quantity is the residual P(|X_t| >= eps) - t lambda_eps, whose
smallness and decay order the bound theorems predict.  Truth comes either
from a closed form attached to the model or from Monte Carlo; either way a
point carries an interval [ci_low, ci_high], and a bound check only FAILs
when the interval certifiably contradicts the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import bounds as _bounds
from . import simulate as _sim
from .errors import (
    AlphaOutOfRange,
    InvalidCutoff,
    TooFewPoints,
    TruthUnavailable,
)
from .levy_model import (
    LevyModel,
    PowerPart,
    lambda_,
    _parts_density,
)

__all__ = [
    "ResidualPoint",
    "ResidualCurve",
    "RateFit",
    "ValidationRow",
    "ValidationReport",
    "t_log_grid",
    "clip_to_window",
    "theorem_bound",
    "residual_curve",
    "fit_rate",
    "validate_bounds",
    "discontinuous_example",
]


# === grids ===================================================================


def t_log_grid(lo: float, hi: float, per_decade: int = 12) -> np.ndarray:
    """Logarithmic t grid with ``per_decade`` points per decade."""
    if not 0.0 < lo < hi:
        raise InvalidCutoff(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    npts = max(2, int(round(math.log10(hi / lo) * per_decade)) + 1)
    return np.geomspace(lo, hi, npts)


def clip_to_window(grid: Sequence[float], t_max: float,
                   strict: bool = True) -> np.ndarray:
    """Drop grid points outside the validity window (0, t_max)."""
    g = np.asarray(grid, dtype=float)
    keep = g < t_max if strict else g <= t_max
    return g[keep]


# === bound dispatch ==========================================================


def theorem_bound(model: LevyModel, eps: float, t: float, theorem: str,
                  m1: Optional[float] = None) -> _bounds.BoundResult:
    """Evaluate the bound named ``theorem`` in :data:`bounds.THEOREMS` at
    (eps, t); the corollaries need the lower envelope constant ``m1``."""
    try:
        _, entry, variant = _bounds.THEOREMS[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem {theorem!r}") from None
    fn = getattr(_bounds, entry)
    return (fn(model, eps, t) if variant is None
            else fn(model, eps, t, m1, variant))


# === residual curves =========================================================


@dataclass(frozen=True)
class ResidualPoint:
    t: float
    truth: float
    ci_low: float
    ci_high: float
    lambda_t: float
    residual: float  # truth - t lambda_eps, signed


@dataclass(frozen=True)
class ResidualCurve:
    eps: float
    lambda_eps: float
    truth_source: str
    points: tuple[ResidualPoint, ...]


def _truth_at(model: LevyModel, truth: str,
              stream: Optional[_sim.SeededStream],
              **mc) -> Callable[[float, float, int], tuple[float, float, float]]:
    """Check the truth source once and return truth(eps, t, i) giving
    (value, ci_low, ci_high); Monte Carlo point i draws on stream.child(i)
    with the keywords ``mc`` of :func:`simulate.estimate_tail_prob`."""
    if truth == "closed":
        if model.closed is None or model.closed.tail is None:
            raise TruthUnavailable(
                f"model {model.name!r} declares no closed-form tail; use "
                f"Monte Carlo truth instead"
            )

        def closed(eps: float, t: float, i: int) -> tuple[float, float, float]:
            exact = model.closed.tail(eps, t)
            return exact.value, exact.value - exact.abs_error_estimate, \
                exact.value + exact.abs_error_estimate
        return closed
    if truth != "mc":
        raise TruthUnavailable(f"unknown truth source {truth!r}")
    if stream is None:
        raise TruthUnavailable("Monte Carlo truth needs a seeded stream")

    def monte_carlo(eps: float, t: float, i: int) -> tuple[float, float, float]:
        est = _sim.estimate_tail_prob(model, eps, t, stream=stream.child(i), **mc)
        return est.p_hat, est.ci_low, est.ci_high
    return monte_carlo


def residual_curve(model: LevyModel, eps: float, t_grid: Sequence[float],
                   truth: str = "closed",
                   stream: Optional[_sim.SeededStream] = None,
                   n: int = 10 ** 6, shards: int = 1,
                   confidence: float = 0.99, method: str = "clopper_pearson",
                   scheme: Optional[_sim.SmallJumpScheme] = None,
                   margin: Optional[float] = None,
                   widen: str = "certified") -> ResidualCurve:
    """The residual truth - t lambda_eps along a t grid.

    ``truth="closed"`` uses the model's exact tail; ``truth="mc"`` estimates
    each point with ``n`` paths on ``stream.child(i)``.
    """
    truth_at = _truth_at(model, truth, stream, n=n, shards=shards,
                         confidence=confidence, method=method, scheme=scheme,
                         margin=margin, widen=widen)
    lam = lambda_(model, eps).value
    pts = []
    for i, t in enumerate(sorted(float(v) for v in t_grid)):
        value, lo, hi = truth_at(eps, t, i)
        pts.append(ResidualPoint(t=t, truth=value, ci_low=lo, ci_high=hi,
                                 lambda_t=lam * t, residual=value - lam * t))
    return ResidualCurve(eps=eps, lambda_eps=lam, truth_source=truth,
                         points=tuple(pts))


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r2: float
    t_range: tuple[float, float]
    points_used: int


def fit_rate(curve: ResidualCurve,
             t_range: Optional[tuple[float, float]] = None) -> RateFit:
    """Least-squares slope of log |residual| against log t.

    Points are dropped when |residual| <= 1e-14 or when it is not resolved
    against the truth interval (|residual| below three interval half-widths),
    so MC noise cannot masquerade as signal.  Needs at least three surviving
    points.
    """
    ts, rs = [], []
    for p in curve.points:
        if t_range is not None and not t_range[0] <= p.t <= t_range[1]:
            continue
        half = (p.ci_high - p.ci_low) / 2.0
        r = abs(p.residual)
        if r <= 1e-14 or r <= 3.0 * half:
            continue
        ts.append(p.t)
        rs.append(r)
    if len(ts) < 3:
        raise TooFewPoints(
            f"rate fit needs at least 3 resolved points, got {len(ts)}"
        )
    lt, lr = np.log(ts), np.log(rs)
    slope, intercept = np.polyfit(lt, lr, 1)
    pred = slope * lt + intercept
    ss_res = float(np.sum((lr - pred) ** 2))
    ss_tot = float(np.sum((lr - lr.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept), r2=r2,
                   t_range=(min(ts), max(ts)), points_used=len(ts))


# === bound validation ========================================================


@dataclass(frozen=True)
class ValidationRow:
    eps: float
    t: float
    truth: float
    ci_low: float
    ci_high: float
    lambda_eps: float
    residual: float
    bound: float
    theorem: str
    valid: bool
    margin: float
    status: str  # PASS, FAIL or SKIP


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.rows if r.status == "PASS")

    @property
    def n_fail(self) -> int:
        return sum(1 for r in self.rows if r.status == "FAIL")

    @property
    def n_skip(self) -> int:
        return sum(1 for r in self.rows if r.status == "SKIP")

    @property
    def passed(self) -> bool:
        return self.n_fail == 0


def validate_bounds(model: LevyModel, eps_values: Sequence[float],
                    t_grid: Sequence[float], theorem: str = "auto",
                    truth: str = "closed",
                    stream: Optional[_sim.SeededStream] = None,
                    n: int = 10 ** 6, shards: int = 1,
                    confidence: float = 0.99,
                    method: str = "clopper_pearson",
                    scheme: Optional[_sim.SmallJumpScheme] = None,
                    margin: Optional[float] = None,
                    widen: str = "certified",
                    m1: Optional[float] = None) -> ValidationReport:
    """Check a bound against the truth interval on an (eps, t) grid.

    A row FAILs only when the truth interval certifiably exceeds the bound:
    for residual bounds the certified residual is max(0, ci_low - t lambda,
    t lambda - ci_high); for probability bounds (the kind is read from
    :data:`bounds.THEOREMS`) only the excess above t lambda counts.
    Out-of-window points are SKIPped.
    """
    truth_at = _truth_at(model, truth, stream, n=n, shards=shards,
                         confidence=confidence, method=method, scheme=scheme,
                         margin=margin, widen=widen)
    # an unknown name raises at its first evaluation, in theorem_bound
    probability = _bounds.THEOREMS.get(theorem, ("",))[0] == "probability"
    rows: list[ValidationRow] = []
    for k, eps in enumerate(eps_values):
        lam = lambda_(model, eps).value
        for i, t in enumerate(sorted(float(v) for v in t_grid)):
            try:
                br = theorem_bound(model, eps, t, theorem, m1=m1)
            except InvalidCutoff:
                continue  # theorem does not cover this eps at all
            value, lo, hi = truth_at(eps, t, 1000 * k + i)
            if probability:
                certified = max(0.0, lo - lam * t)
            else:
                certified = max(0.0, lo - lam * t, lam * t - hi)
            slack = br.value - certified
            status = "SKIP" if not br.valid else ("PASS" if slack >= 0.0 else "FAIL")
            rows.append(ValidationRow(
                eps=eps, t=t, truth=value, ci_low=lo, ci_high=hi,
                lambda_eps=lam, residual=value - lam * t, bound=br.value,
                theorem=br.theorem, valid=br.valid, margin=slack,
                status=status,
            ))
    return ValidationReport(rows=tuple(rows))


# === a worked infinite-variation example =====================================


def discontinuous_example(alpha: float, eps: float, stable_M: float = 1.0,
                          notch_depth: float = 0.8,
                          notch_width: float = 0.5) -> LevyModel:
    """Symmetric stable-type density with a jump discontinuity at |x| = eps.

    The density is stable_M |x|^-(1+alpha) on 0 < |x| <= 2, scaled down by
    (1 - notch_depth) on the notch eps < |x| < eps + notch_width.  The
    discontinuity at eps makes the residual decay at the genuine
    t^(1 + 1/alpha) order rather than the Lipschitz t^2 order, while the
    density stays inside the same stable-type class (class_M = stable_M).
    """
    if not 1.0 < alpha < 2.0:
        raise AlphaOutOfRange(
            f"the discontinuous example needs alpha in (1, 2), got {alpha}"
        )
    if not 0.0 < eps < 2.0:
        raise InvalidCutoff(f"the notch needs eps in (0, 2), got {eps}")
    if not 0.0 < notch_depth <= 1.0 or notch_width <= 0.0:
        raise InvalidCutoff("need notch_depth in (0, 1] and notch_width > 0")
    hi = min(eps + notch_width, 2.0)
    parts = [PowerPart(coef=stable_M, alpha=alpha, lo=0.0, hi=eps)]
    if notch_depth < 1.0:
        parts.append(PowerPart(coef=stable_M * (1.0 - notch_depth),
                               alpha=alpha, lo=eps, hi=hi))
    if hi < 2.0:
        parts.append(PowerPart(coef=stable_M, alpha=alpha, lo=hi, hi=2.0))
    parts_t = tuple(parts)
    global_m = max(
        p.coef * max(1.0, p.lo) ** -(1.0 + alpha)
        for p in parts_t if p.hi > 1.0
    ) if any(p.hi > 1.0 for p in parts_t) else stable_M
    return LevyModel(
        density=_parts_density(parts_t),
        symmetric=True,
        variation="infinite",
        class_alpha=alpha,
        class_M=stable_M,
        global_M=global_m,
        support_radius=2.0,
        jump_parts=parts_t,
        name=f"discontinuous({alpha:g},{eps:g})",
    )
