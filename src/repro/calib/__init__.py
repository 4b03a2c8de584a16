"""Calibration of the analytic cost model against measured data.

The planner's :class:`~repro.core.cost_model.MoECostModel` and the iteration
simulator are parameterised by hand-set machine numbers -- per-link-type
bandwidths and latencies, sustained device FLOP/s and the bytes moved per
routed token.  This package closes the sim-to-hardware loop in the spirit of
ECM-style analytic modelling:

* :mod:`repro.calib.measure` -- run seeded microbenchmark schedules (pairwise
  transfers, All-to-All at several sizes, per-device compute kernels) through
  the simulator against a hidden machine (a profile drawn by
  ``draw_machine``), producing synthetic "measured" observations; or load
  external observations from CSV files.
* :mod:`repro.calib.fit` -- least-squares / robust (Huber) fitting of
  bandwidth scale factors per link type, latency intercepts, a device-FLOPs
  efficiency and the ``comm_bytes_scale`` on token bytes, producing a frozen,
  JSON-round-tripping :class:`~repro.calib.profile.CalibrationProfile`.
* :mod:`repro.calib.report` -- goodness-of-fit reporting (per-term R²,
  MAPE, residual tables, worst-fit links) rendered with
  :mod:`repro.analysis.reporting`.

Calibration holds no price of its own: every All-to-All time it generates
or predicts is ``TOKEN_ALL_TO_ALLS`` times the simulator's
``CollectiveCostModel.uniform_all_to_all``.

The resulting profile threads through :class:`repro.api.ExperimentSpec`
(serialized only when set, so existing content-hashed run ids are untouched)
and :func:`repro.sim.systems.make_system`, so studies and the serve daemon
run on calibrated models.
"""

from repro.calib.fit import FitResult, TermFit, fit_calibration
from repro.calib.measure import (
    AllToAllObservation,
    CommObservation,
    ComputeObservation,
    MeasureConfig,
    ObservationSet,
    draw_machine,
    run_microbenchmarks,
)
from repro.calib.profile import CalibrationProfile
from repro.calib.report import fit_report, fit_summary_line

__all__ = [
    "AllToAllObservation",
    "CalibrationProfile",
    "CommObservation",
    "ComputeObservation",
    "FitResult",
    "MeasureConfig",
    "ObservationSet",
    "TermFit",
    "draw_machine",
    "fit_calibration",
    "fit_report",
    "fit_summary_line",
    "run_microbenchmarks",
]
