"""Fit the analytic machine model to measured observations.

Each term of the cost model is fitted independently, mirroring how the
model decomposes:

* **Pairwise transfers** follow the alpha-beta model
  ``seconds = latency + bytes / bandwidth``; per link type an ordinary
  least-squares line (optionally Huber-robust against outliers) yields the
  latency intercept and the bandwidth slope, reported as a *scale factor*
  over the nominal bandwidth.
* **Dense kernels** follow ``seconds = flops / effective_flops``; a
  slope-through-origin fit yields the sustained FLOP/s, reported as a scale
  over the device spec's nominal ``effective_flops``.
* **Uniform All-to-All** observations are predicted on the *already
  calibrated* topology by the simulator's kernel
  (:func:`~repro.calib.measure.uniform_all_to_all_seconds`), whose price is
  affine in its ``scale``: the latency alone at scale 0 (latency is charged
  on unscaled bytes), plus the bandwidth part at scale 1.  The
  ``comm_bytes_scale`` is the slope through the origin of the measured time
  less that latency against the bandwidth part; the latency is never folded
  into the scale.  Each term keeps one fitted parameter, so its R² stays
  informative on as few as two sizes.

Everything is stdlib + numpy; no SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.calib.measure import ObservationSet, uniform_all_to_all_seconds
from repro.calib.profile import CalibrationProfile
from repro.cluster.topology import ClusterTopology, LinkType

#: Huber tuning constant (in robust-scale units); the standard 95%-efficiency
#: choice for Gaussian residuals.
HUBER_K = 1.345

#: IRLS iterations for the robust path (each is a closed-form weighted OLS).
ROBUST_ITERATIONS = 10


@dataclass(frozen=True)
class TermFit:
    """Goodness of fit of one model term.

    Attributes:
        term: ``"comm:intra_node"``, ``"comm:inter_node"``, ``"compute"`` or
            ``"all_to_all"``.
        num_observations: Observations the term was fitted on.
        r2: Coefficient of determination of the fitted predictions; NaN
            (undefined) when every measurement of the term is equal.
        mape: Mean absolute percentage error of the fitted predictions.
        params: Fitted parameters (term-specific, e.g. ``bandwidth_scale``
            and ``latency_s`` for a comm term).
    """

    term: str
    num_observations: int
    r2: float
    mape: float
    params: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Residual:
    """One observation's prediction error under the fitted model."""

    term: str
    label: str
    measured: float
    predicted: float

    @property
    def rel_error(self) -> float:
        if self.measured == 0:
            return 0.0 if self.predicted == 0 else float("inf")
        return (self.predicted - self.measured) / self.measured


@dataclass
class FitResult:
    """A fitted profile plus everything needed to grade the fit."""

    profile: CalibrationProfile
    terms: List[TermFit] = field(default_factory=list)
    residuals: List[Residual] = field(default_factory=list)

    @property
    def r2_min(self) -> float:
        """Worst per-term R² (the headline goodness-of-fit number).

        NaN when a term's R² is undefined, so no ``>=`` floor passes it.
        """
        r2s = [term.r2 for term in self.terms]
        return float(np.min(r2s)) if r2s else float("nan")

    @property
    def mape_max(self) -> float:
        return max((term.mape for term in self.terms), default=float("nan"))

    def term(self, name: str) -> TermFit:
        for term in self.terms:
            if term.term == name:
                return term
        raise KeyError(f"no fitted term {name!r}")


# ----------------------------------------------------------------------
# Core least-squares helpers
# ----------------------------------------------------------------------
def _weighted_line(x: np.ndarray, y: np.ndarray,
                   w: np.ndarray) -> Tuple[float, float]:
    """Weighted OLS of ``y = a + b x`` via the closed-form normal equations."""
    sw = float(np.sum(w))
    mx = float(np.sum(w * x)) / sw
    my = float(np.sum(w * y)) / sw
    sxx = float(np.sum(w * (x - mx) ** 2))
    if sxx <= 0:
        raise ValueError("need at least two distinct x values to fit a line")
    sxy = float(np.sum(w * (x - mx) * (y - my)))
    slope = sxy / sxx
    return my - slope * mx, slope


def fit_line(x: np.ndarray, y: np.ndarray,
             robust: bool = False) -> Tuple[float, float]:
    """Fit ``y = intercept + slope * x``; optionally Huber-robust (IRLS).

    The robust path re-solves the weighted closed form a few times with
    Huber weights computed from the median-absolute-deviation scale, so a
    handful of wild measurements cannot drag the bandwidth estimate.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    weights = np.ones_like(x)
    intercept, slope = _weighted_line(x, y, weights)
    if not robust:
        return intercept, slope
    for _ in range(ROBUST_ITERATIONS):
        resid = y - (intercept + slope * x)
        scale = float(np.median(np.abs(resid - np.median(resid)))) / 0.6745
        if scale <= 0:
            break  # perfect fit -- nothing to down-weight
        z = np.abs(resid) / scale
        weights = np.where(z <= HUBER_K, 1.0, HUBER_K / np.maximum(z, 1e-300))
        intercept, slope = _weighted_line(x, y, weights)
    return intercept, slope


def _slope_through_origin(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of ``y = b x`` (no intercept)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sxx = float(np.sum(x * x))
    if sxx <= 0:
        raise ValueError("need non-zero x values to fit a slope")
    return float(np.sum(x * y)) / sxx


def _r2(measured: np.ndarray, predicted: np.ndarray) -> float:
    measured = np.asarray(measured, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    ss_res = float(np.sum((measured - predicted) ** 2))
    ss_tot = float(np.sum((measured - np.mean(measured)) ** 2))
    if ss_tot <= 0:
        # All measurements equal: nothing varies for the model to explain,
        # so any fitted value would "explain" it.
        return float("nan")
    return 1.0 - ss_res / ss_tot


def _mape(measured: np.ndarray, predicted: np.ndarray) -> float:
    measured = np.asarray(measured, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    nonzero = measured != 0
    if not np.any(nonzero):
        return 0.0
    return float(np.mean(np.abs(predicted[nonzero] - measured[nonzero])
                         / np.abs(measured[nonzero])))


_COMM_TERMS = {LinkType.INTRA_NODE: "comm:intra_node",
               LinkType.INTER_NODE: "comm:inter_node"}


# ----------------------------------------------------------------------
# The full fit
# ----------------------------------------------------------------------
def fit_calibration(observations: ObservationSet,
                    base_topology: Optional[ClusterTopology] = None,
                    robust: bool = False) -> FitResult:
    """Fit a :class:`CalibrationProfile` to an observation set.

    Args:
        observations: Measured (or synthetic) observations.
        base_topology: Nominal topology the scale factors are relative to;
            defaults to the observation set's recorded cluster shape with
            the paper's nominal link figures.
        robust: Use Huber-weighted (IRLS) line fits for the comm terms, so
            outlier transfers do not skew the bandwidth estimates.

    Returns:
        A :class:`FitResult` whose profile recovers the measured machine;
        on noise-free synthetic observations the recovery is exact
        (per-term R² = 1.0 up to float rounding).

    Raises:
        ValueError: When a term has observations but too few distinct sizes
            to fit, or a fitted slope is non-positive (inconsistent data).
    """
    topology = base_topology or observations.base_topology()
    terms: List[TermFit] = []
    residuals: List[Residual] = []
    fitted: Dict[str, float] = {}

    # --- pairwise transfers, per link type ---------------------------------
    nominal_bw = {LinkType.INTRA_NODE: topology.intra_node_bandwidth,
                  LinkType.INTER_NODE: topology.inter_node_bandwidth}
    groups: Dict[LinkType, List] = {kind: [] for kind in _COMM_TERMS}
    for obs in observations.comm:
        kind = topology.link_type(obs.link_src, obs.link_dst)
        if kind not in groups:
            raise ValueError(
                f"observation {obs.link_src}->{obs.link_dst} is a local "
                f"transfer; calibration needs cross-device links")
        groups[kind].append(obs)
    for kind, group in groups.items():
        if not group:
            continue
        name = _COMM_TERMS[kind]
        x = np.array([obs.num_bytes for obs in group])
        y = np.array([obs.seconds for obs in group])
        try:
            intercept, slope = fit_line(x, y, robust=robust)
        except ValueError as error:
            raise ValueError(f"{name}: {error}") from None
        if slope <= 0:
            raise ValueError(
                f"{name}: fitted a non-positive bandwidth slope; the "
                f"observations are inconsistent with the alpha-beta model")
        latency = max(0.0, intercept)
        bandwidth = 1.0 / slope
        predicted = latency + x * slope
        terms.append(TermFit(
            term=name, num_observations=len(group),
            r2=_r2(y, predicted), mape=_mape(y, predicted),
            params={"bandwidth_scale": bandwidth / nominal_bw[kind],
                    "bandwidth_bytes_per_s": bandwidth,
                    "latency_s": latency}))
        for obs, pred in zip(group, predicted):
            residuals.append(Residual(
                term=name, label=f"{obs.link_src}->{obs.link_dst} "
                f"{obs.num_bytes / 1024**2:.0f}MiB",
                measured=obs.seconds, predicted=float(pred)))
        prefix = "intra" if kind is LinkType.INTRA_NODE else "inter"
        fitted[f"{prefix}_node_bandwidth_scale"] = bandwidth / nominal_bw[kind]
        fitted[f"{prefix}_node_latency_s"] = latency

    # --- dense kernels -----------------------------------------------------
    if observations.compute:
        nominal_flops = topology.device_spec.effective_flops
        x = np.array([obs.flops for obs in observations.compute])
        y = np.array([obs.seconds for obs in observations.compute])
        slope = _slope_through_origin(x, y)
        if slope <= 0:
            raise ValueError("compute: fitted a non-positive FLOPs slope")
        effective = 1.0 / slope
        predicted = x * slope
        terms.append(TermFit(
            term="compute", num_observations=len(observations.compute),
            r2=_r2(y, predicted), mape=_mape(y, predicted),
            params={"flops_scale": effective / nominal_flops,
                    "effective_flops": effective}))
        for obs, pred in zip(observations.compute, predicted):
            residuals.append(Residual(
                term="compute",
                label=f"dev{obs.device} {obs.flops:.2g}F",
                measured=obs.seconds, predicted=float(pred)))
        fitted["flops_scale"] = effective / nominal_flops

    # --- All-to-All byte overhead (needs calibrated links) -----------------
    partial = CalibrationProfile(
        intra_node_bandwidth_scale=fitted.get("intra_node_bandwidth_scale", 1.0),
        inter_node_bandwidth_scale=fitted.get("inter_node_bandwidth_scale", 1.0),
        intra_node_latency_s=fitted.get("intra_node_latency_s"),
        inter_node_latency_s=fitted.get("inter_node_latency_s"),
        flops_scale=fitted.get("flops_scale", 1.0),
    )
    if observations.all_to_all:
        calibrated = partial.apply_to_topology(topology)
        config = observations.model_config()
        y = np.array([obs.seconds for obs in observations.all_to_all])

        def priced(scale: float) -> np.ndarray:
            return np.array([
                uniform_all_to_all_seconds(calibrated, config,
                                           obs.tokens_per_device, scale=scale)
                for obs in observations.all_to_all])

        latency = priced(0.0)
        scale = _slope_through_origin(priced(1.0) - latency, y - latency)
        if scale <= 0:
            raise ValueError("all_to_all: fitted a non-positive byte overhead")
        predicted = priced(scale)
        terms.append(TermFit(
            term="all_to_all", num_observations=len(observations.all_to_all),
            r2=_r2(y, predicted), mape=_mape(y, predicted),
            params={"comm_bytes_scale": scale}))
        for obs, pred in zip(observations.all_to_all, predicted):
            residuals.append(Residual(
                term="all_to_all",
                label=f"{obs.tokens_per_device} tok/dev",
                measured=obs.seconds, predicted=float(pred)))
        fitted["comm_bytes_scale"] = scale

    if not terms:
        raise ValueError("observation set is empty; nothing to fit")

    profile = CalibrationProfile(
        intra_node_bandwidth_scale=fitted.get("intra_node_bandwidth_scale", 1.0),
        inter_node_bandwidth_scale=fitted.get("inter_node_bandwidth_scale", 1.0),
        intra_node_latency_s=fitted.get("intra_node_latency_s"),
        inter_node_latency_s=fitted.get("inter_node_latency_s"),
        flops_scale=fitted.get("flops_scale", 1.0),
        comm_bytes_scale=fitted.get("comm_bytes_scale", 1.0),
        source=observations.source,
    )
    return FitResult(profile=profile, terms=terms, residuals=residuals)
