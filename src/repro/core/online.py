"""Online evaluation: the one scoring path.

§IV-A: "Evaluation is thereby relatively fast requiring a single
matrix multiplication per iteration ... we can evaluate for anomalies
at a rate of 939,000 sensor samples per second on average."

:class:`OnlineEvaluator` pre-binds everything derivable from the model
(means, inverse stds, the step-up ladder as |t| thresholds, the folded
T² map and its F threshold) so the steady-state cost per batch is: one
subtraction, one multiply by the reciprocal stds, the window update
(scaled to Student t with ``n_train − 1`` degrees of freedom, see
:mod:`~repro.core.hypothesis`), a ladder lookup for the entries whose
|t| reaches the last rung (every other p is above every rung), the
exact step-up over that buffer and the T² multiply-add.  Every entry point
runs that one kernel, and :meth:`~repro.core.fdr.FDRDetector.detect` is
one call into it.  The E5 benchmark measures this path in real
wall-clock samples/second.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from scipy import special

from .fdr import AnomalyReport, FDRDetectorConfig
from .hypothesis import two_sided_pvalues
from .model import UnitModel
from .multiple_testing import apply_procedure, step_up_ladder, step_up_sparse

__all__ = ["OnlineEvaluator", "StreamStats"]

#: Relative band around each |t| threshold inside which a statistic
#: pays an exact p-value.  ``stdtrit`` and ``stdtr`` round-trip to
#: ~1e-14 relative, while a 1e-9 relative step in |t| moves p by at
#: least ~1e-11 relative at every rung of a level q ≤ 0.99, so outside the
#: band the comparison in |t| decides what the comparison in p would.
_NEAR = 1e-9


@lru_cache(maxsize=64)
def _statistic_ladder(
    dof: int, m: int, q: float, dependence_correction: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BH/BY's step-up ladder mapped to |t| thresholds.

    A two-sided p-value meets rung ``r`` (``p ≤ r``) exactly when
    ``|t| ≥ −F⁻¹_dof(r/2)``.  Returns ``(lo, hi, rungs)``, ascending in
    |t|: each rung's threshold lowered and raised by :data:`_NEAR`, and
    the rungs themselves in the same order (largest first).  Every
    unit of a fleet shares one key, so the ``stdtrit`` calls are paid
    once per process, not per evaluator.
    """
    rungs = step_up_ladder(q, m, dependence_correction)[::-1].copy()
    cut = -special.stdtrit(dof, rungs / 2.0)
    lo, hi = cut * (1.0 - _NEAR), cut * (1.0 + _NEAR)
    for array in (lo, hi, rungs):
        array.setflags(write=False)
    return lo, hi, rungs


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
        self._t2_on = self.config.use_t2 and model.n_components > 0
        self._t2_threshold = model.t2_limit(self.config.unit_alarm_alpha) if self._t2_on else np.inf
        self._dof = model.n_train - 1
        self._ladder = (
            _statistic_ladder(
                self._dof, model.n_sensors, self.config.q, self.config.procedure == "by"
            )
            if self.config.procedure in ("bh", "by")
            else None
        )
        self._carry: Optional[np.ndarray] = None  # window tail across batches
        self.stats = StreamStats()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget cross-batch window state (new stream)."""
        self._carry = None
        self.stats = StreamStats()

    def continue_window(self, previous: "OnlineEvaluator") -> None:
        """Continue ``previous``'s window under this model: each carried
        row re-standardised, ``(z·σ_old + μ_old − μ_new) / σ_new``, so a
        model swap does not restart the window."""
        carry = previous._carry
        if carry is not None:
            raw = carry * previous.model.std + previous._mean
            self._carry = (raw - self._mean) * self._inv_std

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
        """:meth:`evaluate` plus the window statistics it flagged on.

        Identical state/carry semantics and identical flags; the third
        element is the ``(T, p)`` window t-statistic matrix, which the
        streaming alerting path uses for severity scoring without a
        second standardisation pass.
        """
        flags, z_win, _, unit_alarm = self._score(values)
        return flags, unit_alarm, z_win

    def report(self, values: np.ndarray) -> AnomalyReport:
        """Score one batch into an :class:`AnomalyReport`.

        The window carries across calls as in :meth:`evaluate`; a fresh
        evaluator (or :meth:`reset`) starts from an empty window.
        :meth:`FDRDetector.detect` and the fleet evaluation engine are
        this call.
        """
        flags, z_win, t2, unit_alarm = self._score(values)
        return AnomalyReport(
            unit_id=self.model.unit_id,
            flags=flags,
            zscores=z_win,
            unit_alarm=unit_alarm,
            t2=t2,
            config=self.config,
            n_train=self.model.n_train,
        )

    def _score(
        self, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The one scoring kernel: standardise → window statistic →
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
        flags = self._flag(z_win)
        t2, unit_alarm = self._t2_channel(z_inst)

        self.stats.samples += x.size
        self.stats.batches += 1
        self.stats.discoveries += int(flags.sum())
        self.stats.unit_alarms += int(unit_alarm.sum())
        return flags, z_win, t2, unit_alarm

    def _flag(self, z_win: np.ndarray) -> np.ndarray:
        """Per-row multiple-testing flags, decided in statistic space.

        BH/BY's decisions depend on a p-value only through the lowest
        rung it meets.  An entry below the last rung's |t| band has
        p > q_eff, above every rung, so it stays at 1.0 in the p-value
        buffer, as does one below rung c of a row with c candidates
        (k ≤ c).  Every other entry finds its rung by one
        ``searchsorted`` against the memoised |t| ladder and stands in
        the buffer as that rung's own value, which meets the same rungs
        its p-value would; only an entry inside a threshold's
        :data:`_NEAR` band pays an exact ``stdtr``.  So
        :func:`step_up_sparse` rejects exactly what the dense step-up
        rejects on every p-value.  Other procedures get every p-value
        and the dense dispatch.

        A NaN statistic (finite input can overflow the window:
        ``inf − inf``) fails ``|t| < floor`` and ``|t| > band``, so it
        pays the exact route, its p-value is NaN and the step-up refuses
        the batch.
        """
        cfg = self.config
        if self._ladder is None:
            return apply_procedure(cfg.procedure, two_sided_pvalues(z_win, self._dof), cfg.q)
        lo, hi, rungs = self._ladder
        m = z_win.shape[1]
        pvalues = np.ones(z_win.size)
        mag = np.abs(z_win).ravel()
        idx = np.flatnonzero(~(mag < lo[0]))
        mag = mag[idx]
        # A row with c candidates rejects at most c of them, so an entry
        # below rung c's threshold is neither rejected nor moves k; it
        # stays at 1.0 (and a NaN is kept).
        rows = idx // m
        keep = ~(mag < lo[m - np.bincount(rows)[rows]])
        idx, mag = idx[keep], mag[keep]
        below = np.searchsorted(lo, mag, side="right") - 1
        vals = rungs[below]
        near = ~(mag > hi[below])
        if near.any():
            vals[near] = two_sided_pvalues(mag[near], self._dof)
        pvalues[idx] = vals
        return step_up_sparse(
            pvalues.reshape(z_win.shape), cfg.q, dependence_correction=cfg.procedure == "by"
        )

    def _t2_channel(self, z_inst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split-sample T² statistic ``‖z·P + o‖²`` and its alarm for one batch."""
        if self._t2_on:
            scores = z_inst @ self.model.projection
            scores += self.model.offset
            t2 = np.einsum("ij,ij->i", scores, scores)
            return t2, t2 >= self._t2_threshold
        n = z_inst.shape[0]
        return np.zeros(n), np.zeros(n, dtype=bool)

    # ------------------------------------------------------------------
    def _windowed(self, z: np.ndarray) -> np.ndarray:
        """Window t-statistics with cross-batch carry.

        Each row's window sum over its ``c`` standardised rows, divided
        by ``√(c·(1 + c/n_train))``: its null std, σ̂ and the shared
        training error included (:mod:`~repro.core.hypothesis`).
        """
        w = self.config.window
        n_train = float(self.model.n_train)
        if w == 1:
            return z / np.sqrt(1.0 + 1.0 / n_train)
        carry = self._carry
        n_carry = 0 if carry is None else carry.shape[0]
        stacked = z if carry is None else np.vstack([carry, z])
        csum = np.cumsum(stacked, axis=0)
        t_idx = np.arange(stacked.shape[0])
        counts = np.minimum(t_idx + 1, w).astype(np.float64)
        win = np.empty_like(csum)
        win[:w] = csum[:w]
        np.subtract(csum[w:], csum[:-w], out=win[w:])
        win /= np.sqrt(counts * (1.0 + counts / n_train))[:, None]
        # Keep the last (w-1) standardised rows for the next batch.
        tail = stacked[-(w - 1):] if stacked.shape[0] >= w - 1 else stacked
        self._carry = tail.copy()
        return win[n_carry:]

    def throughput_samples_per_second(self, elapsed_seconds: float) -> float:
        """Convenience: sensor samples evaluated per wall-clock second."""
        if elapsed_seconds <= 0:
            raise ValueError("elapsed_seconds must be positive")
        return self.stats.samples / elapsed_seconds
