"""Online evaluation: the high-throughput scoring path.

§IV-A: "Evaluation is thereby relatively fast requiring a single
matrix multiplication per iteration ... we can evaluate for anomalies
at a rate of 939,000 sensor samples per second on average."

:class:`OnlineEvaluator` pre-binds everything derivable from the model
(means, inverse stds, whitening map, χ² threshold) so the steady-state
cost per batch is: one subtraction, one multiply by the reciprocal
stds, the window-mean update, the p-values in one buffer, the exact
step-up (which only touches entries with p ≤ q) and the T² multiply.
Every entry point runs that one kernel.  The E5 benchmark measures
this path in real wall-clock samples/second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import special

from .fdr import AnomalyReport, FDRDetectorConfig
from .model import UnitModel
from .multiple_testing import apply_procedure, step_up_sparse

__all__ = ["OnlineEvaluator", "StreamStats"]


def _two_sided_pvalues_fast(z: np.ndarray) -> np.ndarray:
    """``2·Φ(−|z|)`` via ``scipy.special.ndtr`` directly.

    Bit-identical to :func:`~repro.core.hypothesis.two_sided_pvalues`,
    which calls the same ``ndtr``, but reuses one buffer for the whole
    chain, so the hot path allocates a single array.  The reference
    keeps its own spelling so the kernel differential stays two paths.
    """
    buf = np.abs(z)
    np.negative(buf, out=buf)
    special.ndtr(buf, out=buf)
    buf *= 2.0
    return buf


@dataclass
class StreamStats:
    """Running totals for a streaming evaluation session."""

    samples: int = 0
    batches: int = 0
    discoveries: int = 0
    unit_alarms: int = 0


class OnlineEvaluator:
    """Vectorised scorer bound to one trained :class:`UnitModel`."""

    def __init__(self, model: UnitModel, config: Optional[FDRDetectorConfig] = None) -> None:
        self.model = model
        self.config = config if config is not None else FDRDetectorConfig()
        self._inv_std = 1.0 / model.std
        self._mean = model.mean
        self._whitening = model.whitening if self.config.use_t2 else None
        self._t2_threshold = (
            float(special.chdtri(model.n_components, self.config.unit_alarm_alpha))
            if self.config.use_t2 and model.n_components > 0
            else np.inf
        )
        self._carry: Optional[np.ndarray] = None  # window tail across batches
        self.stats = StreamStats()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget cross-batch window state (new stream)."""
        self._carry = None
        self.stats = StreamStats()

    def evaluate(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Score one batch ``(T, p)``.

        Returns ``(flags, unit_alarm)`` — the per-sensor FDR-controlled
        mask and the T² unit alarm.  Window state carries across calls,
        so feeding a long window in chunks matches one-shot evaluation.
        """
        flags, unit_alarm, _ = self.evaluate_scored(values)
        return flags, unit_alarm

    def evaluate_scored(
        self, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`evaluate` plus the windowed z-scores it flagged on.

        Identical state/carry semantics and identical flags; the third
        element is the ``(T, p)`` windowed z-score matrix, which the
        streaming alerting path uses for severity scoring without a
        second standardisation pass.
        """
        flags, z_win, _, unit_alarm = self._score(values)
        return flags, unit_alarm, z_win

    def report(self, values: np.ndarray) -> AnomalyReport:
        """Score one full window into an :class:`AnomalyReport`.

        One-shot semantics: cross-batch window state is reset first, so
        the result matches :meth:`FDRDetector.detect` on the same model
        and window — flags, z-scores (hence p-values), T² and unit
        alarm.  The fleet evaluation engine calls this per unit.
        """
        self._carry = None
        flags, z_win, t2, unit_alarm = self._score(values)
        return AnomalyReport(
            unit_id=self.model.unit_id,
            flags=flags,
            zscores=z_win,
            unit_alarm=unit_alarm,
            t2=t2,
            config=self.config,
        )

    def _score(
        self, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The one scoring kernel: standardise → window → p-values →
        step-up → T²; ``(flags, z_win, t2, unit_alarm)``.

        Non-finite input is refused here, by name: a NaN would
        otherwise ride the window carry into the next ``window − 1``
        rows and surface as a complaint about p-values.
        """
        x = np.asarray(values, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.model.n_sensors:
            raise ValueError(f"values must be (T, {self.model.n_sensors})")
        if not np.isfinite(x).all():
            raise ValueError("values must be finite; the batch holds NaN or inf")
        z_inst = x - self._mean
        z_inst *= self._inv_std
        z_win = self._windowed(z_inst)
        flags = self._flag_pvalues(_two_sided_pvalues_fast(z_win))
        t2, unit_alarm = self._t2_channel(z_inst)

        self.stats.samples += x.size
        self.stats.batches += 1
        self.stats.discoveries += int(flags.sum())
        self.stats.unit_alarms += int(unit_alarm.sum())
        return flags, z_win, t2, unit_alarm

    def _flag_pvalues(self, pvalues: np.ndarray) -> np.ndarray:
        """Per-row multiple-testing flags via the fastest exact route.

        BH/BY go through :func:`step_up_sparse` (rejection sets are
        identical to the dense reference step-up); other procedures use
        the dense dispatch.
        """
        cfg = self.config
        if cfg.procedure == "bh":
            return step_up_sparse(pvalues, cfg.q, dependence_correction=False)
        if cfg.procedure == "by":
            return step_up_sparse(pvalues, cfg.q, dependence_correction=True)
        return apply_procedure(cfg.procedure, pvalues, cfg.q)

    def _t2_channel(self, z_inst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Whitened T² statistic and threshold alarm for one batch."""
        if self._whitening is not None and self.model.n_components > 0:
            whitened = z_inst @ self._whitening
            t2 = np.einsum("ij,ij->i", whitened, whitened)
            return t2, t2 >= self._t2_threshold
        n = z_inst.shape[0]
        return np.zeros(n), np.zeros(n, dtype=bool)

    # ------------------------------------------------------------------
    def _windowed(self, z: np.ndarray) -> np.ndarray:
        """Trailing-window mean z-scores with cross-batch carry."""
        w = self.config.window
        if w == 1:
            return z
        carry = self._carry
        n_carry = 0 if carry is None else carry.shape[0]
        stacked = z if carry is None else np.vstack([carry, z])
        csum = np.cumsum(stacked, axis=0)
        t_idx = np.arange(stacked.shape[0])
        counts = np.minimum(t_idx + 1, w).astype(np.float64)
        win = np.empty_like(csum)
        win[:w] = csum[:w]
        np.subtract(csum[w:], csum[:-w], out=win[w:])
        win /= np.sqrt(counts)[:, None]
        # Keep the last (w-1) standardised rows for the next batch.
        tail = stacked[-(w - 1):] if stacked.shape[0] >= w - 1 else stacked
        self._carry = tail.copy()
        return win[n_carry:]

    def throughput_samples_per_second(self, elapsed_seconds: float) -> float:
        """Convenience: sensor samples evaluated per wall-clock second."""
        if elapsed_seconds <= 0:
            raise ValueError("elapsed_seconds must be positive")
        return self.stats.samples / elapsed_seconds
