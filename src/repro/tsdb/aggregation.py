"""Series aggregation and downsampling.

Vectorised (NumPy) implementations of the OpenTSDB aggregation
semantics the query engine needs: combining multiple series into one
(``sum``/``avg``/``min``/``max``/``count``/``dev``), downsampling onto
fixed windows, and rate conversion.

Windows are reduced in one place, :func:`reduce_windows`: a segmented
kernel over ``(key, timestamp, value)`` columns that reduces every
window of every key with whole-array calls, bitwise equal to one
``np.nan*`` call per window.  :func:`downsample` is that kernel with
one key; rollup materialization calls it once for every series of a
span (``repro.lifecycle.rollup``).

A :class:`Series` is a read result: tags plus two NumPy columns it
owns and marks read-only, ``timestamps`` (strictly increasing
``int64`` seconds) and ``values`` (``float64``).  The kernels below
read those columns directly and hand the arrays they build to the
series they return without a second copy.
"""

from __future__ import annotations

from itertools import pairwise
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Series",
    "AGGREGATORS",
    "aggregate",
    "downsample",
    "rate",
    "align_union",
    "join_series",
    "reduce_windows",
]


class Series:
    """One time series: its tags and two read-only NumPy columns.

    ``timestamps`` (int64 seconds, strictly increasing) and ``values``
    (float64) are arrays the series owns and marks non-writeable, so a
    result the gateway caches and serves again cannot be edited in
    place by one of its readers.  ``Series(tags, timestamps, values)``
    copies any array-likes once and validates them; the read path and
    the kernels below hand over columns they have just built through
    :meth:`_adopt`, which neither copies nor checks.
    """

    __slots__ = ("_tags", "_timestamps", "_values")

    def __init__(
        self,
        tags: Optional[Tuple[Tuple[str, str], ...]] = None,
        timestamps: object = None,
        values: object = None,
    ) -> None:
        ts = np.array(timestamps if timestamps is not None else (), dtype=np.int64)
        vs = np.array(values if values is not None else (), dtype=np.float64)
        if ts.shape != vs.shape or ts.ndim != 1:
            raise ValueError("timestamps and values must be 1-D and equal length")
        if len(ts) > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("timestamps must be strictly increasing")
        self._set(tuple(tags or ()), ts, vs)

    @classmethod
    def _adopt(
        cls, tags: Tuple[Tuple[str, str], ...], timestamps: np.ndarray, values: np.ndarray
    ) -> "Series":
        """A series over int64/float64 columns the caller built and
        hands over: neither copied nor checked, only made read-only."""
        self = cls.__new__(cls)
        self._set(tags, timestamps, values)
        return self

    def _set(self, tags: Tuple[Tuple[str, str], ...], ts: np.ndarray, vals: np.ndarray) -> None:
        # Tag order is kept as given: group-by output sorts tags, but
        # pass-through transforms (downsample/rate) must not.
        ts.flags.writeable = vals.flags.writeable = False
        self._tags, self._timestamps, self._values = tags, ts, vals

    @property
    def tags(self) -> Tuple[Tuple[str, str], ...]:
        return self._tags

    @property
    def timestamps(self) -> np.ndarray:
        """int64 seconds, strictly increasing; read-only."""
        return self._timestamps

    @property
    def values(self) -> np.ndarray:
        """float64 samples; read-only."""
        return self._values

    def __len__(self) -> int:
        return len(self._timestamps)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Series(tags={self._tags!r}, n={len(self)})"

    @property
    def tag_dict(self) -> Dict[str, str]:
        return dict(self._tags)


def _nan_agg(fn: Callable[..., np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Column-wise nan-reduction that stays silent on all-NaN columns.

    ``np.nanmean``/``nanmin``/``nanmax``/``nanstd`` emit a
    ``RuntimeWarning`` (via ``warnings.warn``, which ``np.errstate``
    does *not* suppress) for all-NaN slices; sparse unions hit that
    during perfectly normal aggregation.  All-NaN columns are masked to
    0.0 before the reduction and restored to NaN afterwards — other
    columns are reduced bit-identically.  ``nansum`` is excluded: it
    never warns, and masking would change its documented all-NaN
    result (0.0) to NaN.
    """

    def agg(stack: np.ndarray) -> np.ndarray:
        all_nan = np.all(np.isnan(stack), axis=0)
        if not np.any(all_nan):
            return np.asarray(fn(stack, axis=0))
        safe = np.where(all_nan[np.newaxis, :], 0.0, stack)
        out = np.asarray(fn(safe, axis=0), dtype=np.float64)
        out[all_nan] = np.nan
        return out

    return agg


AGGREGATORS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sum": lambda stack: np.nansum(stack, axis=0),
    "avg": _nan_agg(np.nanmean),
    "min": _nan_agg(np.nanmin),
    "max": _nan_agg(np.nanmax),
    "count": lambda stack: np.sum(~np.isnan(stack), axis=0).astype(np.float64),
    "dev": _nan_agg(np.nanstd),
}


def join_series(series: Sequence[Series]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``(owner, timestamps, values)`` column triple over many series.

    Each column is one ``np.concatenate`` of the series' own; ``owner``
    is each sample's position in ``series``, so series sorted by their
    tags and each by time give columns sorted by ``(owner, timestamp)``.
    """
    ts = np.concatenate([s.timestamps for s in series])
    values = np.concatenate([s.values for s in series])
    owner = np.repeat(np.arange(len(series)), [len(s) for s in series])
    return owner, ts, values


def align_union(series: Sequence[Series]) -> Tuple[np.ndarray, np.ndarray]:
    """Align series on the union of their timestamps.

    Returns ``(times, stack)`` where ``stack[i, j]`` is series ``i``'s
    value at ``times[j]`` or NaN where the series has no sample (the
    OpenTSDB interpolation policy simplified to "missing = absent",
    which is correct for the 1 Hz aligned sensor data this system
    ingests).  The columns are joined once and the stack is filled by
    one scatter, whatever the number of series.
    """
    if not series:
        return np.empty(0, dtype=np.int64), np.empty((0, 0))
    owner, ts, values = join_series(series)
    times = np.unique(ts)
    stack = np.full((len(series), len(times)), np.nan)
    stack[owner, np.searchsorted(times, ts)] = values
    return times, stack


def aggregate(series: Sequence[Series], aggregator: str) -> Series:
    """Combine many series into one using the named aggregator.

    Tags kept are those common to (identical across) all inputs, as in
    OpenTSDB's group-by output.
    """
    if aggregator not in AGGREGATORS:
        raise ValueError(f"unknown aggregator {aggregator!r}; choose from {sorted(AGGREGATORS)}")
    if not series:
        raise ValueError("cannot aggregate zero series")
    # No single-series shortcut: one matching series must flow through
    # the same tag-reduction, float64 cast, and aggregator semantics as
    # N (``count`` yields ones, ``dev`` zeros) so the group-by output
    # schema does not depend on how many series matched.
    times, stack = align_union(series)
    values = AGGREGATORS[aggregator](stack)
    common = set(series[0].tags).intersection(*[s.tags for s in series[1:]])
    return Series._adopt(tuple(sorted(common)), times, values)


def reduce_windows(
    keys: Optional[np.ndarray],
    timestamps: np.ndarray,
    values: np.ndarray,
    window: int,
    aggregators: Sequence[str],
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
    """Reduce every fixed window of every key with whole-array calls.

    The one window reducer.  ``(keys, timestamps, values)`` are columns
    sorted by key, then by strictly increasing timestamp (``keys`` is
    ``None`` for a single key); a window starts wherever the key or the
    bucket ``ts // window * window`` changes.  Returns ``(first,
    starts, columns)``: each window's first row, its start time, and
    one column per aggregator name.

    Each window's value is bitwise the matching ``np.nan*`` reduction
    of that window alone.  ``min``/``max`` are ``fmin``/``fmax``
    ``reduceat`` (what ``nanmin``/``nanmax`` reduce with); ``count`` is
    exact.  ``sum``/``avg``/``dev`` go through :func:`_window_sums`,
    which gives each window the very pairwise summation ``np.sum``
    would.  An all-NaN window is written as ``np.nan`` (``0/0`` may set
    the sign bit), except ``sum``, which stays ``nansum``'s 0.0.
    """
    n = len(timestamps)
    buckets = (timestamps // window) * window
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(buckets[1:], buckets[:-1], out=new[1:])
    if keys is not None:
        new[1:] |= keys[1:] != keys[:-1]
    first = np.flatnonzero(new)
    lengths = np.diff(first, append=n)
    missing = np.isnan(values)
    counts = np.add.reduceat(~missing, first, dtype=np.intp)
    empty = counts == 0
    sums: Optional[np.ndarray] = None
    columns: List[np.ndarray] = []
    for name in aggregators:
        if name == "count":
            columns.append(counts.astype(np.float64))
            continue
        if name == "min" or name == "max":
            column = (np.fmin if name == "min" else np.fmax).reduceat(values, first)
        else:
            if sums is None:
                sums = _window_sums(np.where(missing, 0.0, values), first, lengths)
            if name == "sum":
                columns.append(sums)
                continue
            with np.errstate(invalid="ignore", divide="ignore"):
                column = sums / counts
                if name == "dev":
                    spread = np.where(missing, 0.0, values - np.repeat(column, lengths))
                    column = np.sqrt(_window_sums(spread * spread, first, lengths) / counts)
        column[empty] = np.nan
        columns.append(column)
    return first, buckets[first], columns


def _window_sums(x: np.ndarray, first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-window ``np.sum``, bit for bit, in one call per window length.

    ``np.add.reduceat`` adds a window left to right, which is not what
    ``np.sum`` does (pairwise, in blocks of 8 and 128).  Windows of one
    length are gathered into a C-ordered ``(k, L)`` array instead, and
    ``sum(axis=1)`` runs the same pairwise loop over each row that
    ``np.sum`` runs over a lone window of ``L`` elements.
    """
    out = np.empty(len(first))
    order = np.argsort(lengths, kind="stable")
    ranked = lengths[order]
    cuts = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(order)]
    for a, b in pairwise(cuts):
        sel = order[a:b]
        out[sel] = x[first[sel, np.newaxis] + np.arange(ranked[a])].sum(axis=1)
    return out


def downsample(series: Series, window: int, aggregator: str = "avg") -> Series:
    """Downsample onto fixed windows of ``window`` seconds.

    Each output point sits at the window start (OpenTSDB convention);
    empty windows produce no point.  :func:`reduce_windows` with one key.
    """
    if window < 1:
        raise ValueError("window must be >= 1 second")
    if aggregator not in AGGREGATORS:
        raise ValueError(f"unknown aggregator {aggregator!r}")
    if len(series) == 0:
        return series
    _, starts, (values,) = reduce_windows(
        None, series.timestamps, series.values, window, (aggregator,)
    )
    return Series._adopt(series.tags, starts, values)


def rate(series: Series, counter: bool = False, max_value: float | None = None) -> Series:
    """First-difference rate (per second), as OpenTSDB's ``rate`` option.

    With ``counter=True`` negative deltas are treated as counter wraps
    at ``max_value`` (default: 2**64).
    """
    if len(series) < 2:
        return Series._adopt(series.tags, series.timestamps[:0], series.values[:0])
    dt = np.diff(series.timestamps).astype(np.float64)
    dv = np.diff(series.values)
    if counter:
        wrap = max_value if max_value is not None else float(2**64)
        negative = dv < 0
        dv = np.where(negative, dv + wrap, dv)
    return Series._adopt(series.tags, series.timestamps[1:], dv / dt)
