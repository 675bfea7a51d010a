"""The FDR anomaly detector: offline training + online flagging.

Training (§IV-A): per unit, estimate sensor means/stds, compute the
covariance of the standardised training data, take its SVD (for a
symmetric PSD matrix, the eigendecomposition) and keep the top-k
directions.  Evaluation (:class:`~repro.core.online.OnlineEvaluator`,
the one scorer): standardise incoming samples, form per-sensor window
t-statistics (:mod:`~repro.core.hypothesis`), and apply the
Benjamini–Hochberg procedure *across sensors at each time step* so the
expected proportion of false alarms among the flagged sensors stays
below q — regardless of how many thousand sensors the unit carries.

The T² channel (optional, on by default) adds a unit-level
multivariate alarm: correlated faults that are small per sensor but
coherent across a factor group light up T² long before any marginal
test fires.  One half of the training rows picks its directions and
the other calibrates them, so its F threshold holds the alarm rate at
``unit_alarm_alpha`` exactly for Gaussian rows (DESIGN §27).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hypothesis import two_sided_pvalues
from .model import IncrementalMoments, UnitModel
from .multiple_testing import PROCEDURES

__all__ = [
    "FDRDetectorConfig",
    "AnomalyReport",
    "FDRDetector",
    "build_unit_model",
]


@dataclass(frozen=True)
class FDRDetectorConfig:
    """Detector hyperparameters.

    Parameters
    ----------
    q:
        Target false-discovery rate for per-sensor flags.
    window:
        Trailing window (samples) for the mean-shift statistic; 1 tests
        individual samples (fastest reaction, least power for drifts).
    procedure:
        Multiple-testing procedure across sensors per time step, a key
        of :data:`~repro.core.multiple_testing.PROCEDURES` (``"bh"``,
        ``"by"``, ``"holm"``, ``"bonferroni"``, ``"adaptive-bh"``,
        ``"none"``).
    variance_target:
        Fraction of standardised variance the T² directions must
        explain (k is then capped at a tenth of training half B's rows).
    unit_alarm_alpha:
        Significance level of the unit-level T² alarm.
    use_t2:
        Whether to compute the T² channel at all.
    """

    q: float = 0.05
    window: int = 32
    procedure: str = "bh"
    variance_target: float = 0.95
    unit_alarm_alpha: float = 0.01
    use_t2: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must be in (0, 1)")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.procedure not in PROCEDURES:
            raise ValueError(
                f"unknown procedure {self.procedure!r}; choose from {sorted(PROCEDURES)}"
            )
        if not 0.0 < self.variance_target <= 1.0:
            raise ValueError("variance_target must be in (0, 1]")
        if not 0.0 < self.unit_alarm_alpha < 1.0:
            raise ValueError("unit_alarm_alpha must be in (0, 1)")


@dataclass
class AnomalyReport:
    """Detection output for one unit window.

    ``flags`` is the ``(T, p)`` boolean per-sensor anomaly mask after
    FDR control; ``zscores`` the window t-statistics it was taken on
    (``pvalues`` is derived from them and the model's ``n_train`` on
    demand, not stored); ``unit_alarm`` a ``(T,)`` mask from the T²
    channel (all False when disabled).
    """

    unit_id: int
    flags: np.ndarray
    zscores: np.ndarray
    unit_alarm: np.ndarray
    t2: np.ndarray
    config: FDRDetectorConfig
    n_train: int

    @property
    def pvalues(self) -> np.ndarray:
        """Two-sided Student-t p-values of :attr:`zscores` with
        ``n_train − 1`` degrees of freedom, ``(T, p)``."""
        return two_sided_pvalues(self.zscores, self.n_train - 1)

    @property
    def n_discoveries(self) -> int:
        return int(self.flags.sum())

    def flagged_sensors(self) -> np.ndarray:
        """Sensor indices with at least one flag, sorted."""
        return np.flatnonzero(self.flags.any(axis=0))

    def first_detection(self) -> Optional[int]:
        """Earliest flagged time index (per-sensor or unit alarm), or None."""
        any_flag = self.flags.any(axis=1) | self.unit_alarm
        hits = np.flatnonzero(any_flag)
        return int(hits[0]) if hits.size else None


def build_unit_model(
    unit_id: int, moments: IncrementalMoments, config: FDRDetectorConfig
) -> UnitModel:
    """The one model builder: moments → split-sample T² map → :class:`UnitModel`.

    The batch, streaming and distributed trainers all estimate a unit's
    moments with :class:`~repro.core.model.IncrementalMoments` and end
    here, so ``n_train`` is ``moments.count`` on every path.  Half A's
    correlation gives the T² directions ``W_A`` and k (the variance
    target, capped at ``n_B // 10``); half B the mean and covariance
    ``S_B = L Lᵀ`` of the scores ``W′ᵀ(x − μ_A)``, ``W′ = diag(1/σ_A) W_A``;
    they fold into ``projection = diag(σ) W′ L⁻ᵀ`` and
    ``offset = L⁻¹ W′ᵀ(μ − μ_B)`` (DESIGN §27).  A degenerate sensor is
    refused; one constant within a half leaves k at 0.
    """
    if moments.degenerate().any():
        raise ValueError(f"unit {unit_id}: every sensor needs non-zero training variance")
    mean, std = moments.mean, moments.std()
    counts, means, m2, constant = moments.halves()
    n_a, n_b = int(counts[0]), int(counts[1])
    p = moments.n_sensors
    cap = 0 if constant.any() else n_b // 10
    if cap == 0:
        return UnitModel(unit_id, mean, std, np.zeros((p, 0)), np.zeros(0), moments.count, n_b)
    # Half A's correlation (the scale cancels), eigenpairs descending; a direction
    # with no variance in A (collinear sensors) would leave S_B singular.
    inv_root = 1.0 / np.sqrt(np.diag(m2[0]))
    eigvals, eigvecs = np.linalg.eigh(m2[0] * np.outer(inv_root, inv_root))
    lam = np.clip(eigvals[::-1], 0.0, None)
    explained = np.cumsum(lam) / lam.sum()
    rank = np.count_nonzero(lam > 1e-10 * lam[0])
    k = min(int(np.searchsorted(explained, config.variance_target)) + 1, rank, cap)
    scores = eigvecs[:, ::-1][:, :k] * (inv_root * np.sqrt(n_a - 1.0))[:, None]  # W′
    s_b = scores.T @ (m2[1] @ scores) / (n_b - 1.0)
    rhs = np.column_stack(((scores * std[:, None]).T, (mean - means[1]) @ scores))
    folded = np.linalg.solve(np.linalg.cholesky((s_b + s_b.T) / 2.0), rhs)
    return UnitModel(unit_id, mean, std, folded[:, :p].T, folded[:, p], moments.count, n_b)


class FDRDetector:
    """Offline-trained, online-evaluated FDR anomaly detector."""

    def __init__(self, config: Optional[FDRDetectorConfig] = None) -> None:
        self.config = config if config is not None else FDRDetectorConfig()

    # ------------------------------------------------------------------
    # offline training
    # ------------------------------------------------------------------
    def fit(self, training_values: np.ndarray, unit_id: int = 0) -> UnitModel:
        """Estimate a :class:`UnitModel` from fault-free training data.

        ``training_values`` is ``(n, p)``: one moment update, then the
        shared builder.
        """
        x = np.asarray(training_values, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 2:
            raise ValueError("training data must be (n >= 2, p)")
        return build_unit_model(unit_id, IncrementalMoments.of(x), self.config)

    # ------------------------------------------------------------------
    # online evaluation
    # ------------------------------------------------------------------
    def detect(self, model: UnitModel, values: np.ndarray) -> AnomalyReport:
        """Flag anomalies in an evaluation window ``(T, p)``.

        Per time step, the p-values of all p sensors form one family and
        the configured procedure controls its false discoveries.  One
        call into the scoring kernel,
        :meth:`~repro.core.online.OnlineEvaluator.report`.
        """
        from .online import OnlineEvaluator  # online imports this module

        return OnlineEvaluator(model, self.config).report(values)
