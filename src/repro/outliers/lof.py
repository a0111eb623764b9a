"""Local Outlier Factor (Breunig et al., SIGMOD 2000) — density detector.

Implemented from scratch for 1-d metric values.  For a point ``p`` with
``k`` nearest neighbours ``N_k(p)``:

* ``k-dist(p)`` — distance to the k-th nearest neighbour,
* ``reach-dist_k(p, o) = max(k-dist(o), d(p, o))``,
* ``lrd(p) = 1 / mean_{o in N_k(p)} reach-dist_k(p, o)``  (local
  reachability density),
* ``LOF(p) = mean_{o in N_k(p)} lrd(o) / lrd(p)``.

A point is an outlier when ``LOF(p) > threshold`` (default 1.5).
Neighbour sets are exactly ``k`` points — the common implementation choice
(e.g. scikit-learn) for the tie rule: candidates are ranked by distance,
then by sorted position, so of two equally distant candidates the left one
wins.  Duplicate-heavy data where ``k-dist = 0`` is handled by the standard
convention ``lrd = inf`` and ``inf/inf = 1``.

Three kernels compute the scores:

* :func:`lof_scores` is the exact path.  It sorts the values, lays the
  ``2k`` sorted positions around each point out as an ``(n, 2k)`` window,
  and picks each row's ``k`` nearest with a stable argsort.
* :func:`lof_window_scores` is the window kernel, for values already in
  ascending order (:class:`LOFDetector` is ``sorted_input``, so the
  verifier hands it populations in metric order).  In 1-d the ``k``
  nearest neighbours of a sorted value are a contiguous window.  With
  ``L_j`` and ``R_j`` the distances to the j-th value on the left and on
  the right, the window holds ``l = sum_{j<=k} [L_j <= R_{k+1-j}]`` left
  neighbours (ties go left, as in the argsort) and ``k - l`` right ones.
  k-dist, reach distances, lrd and the LOF ratios are then masked sums
  over ``2k`` shifted slices of arrays padded with ``k`` infinitely far
  slots beyond each end: no index matrix, no per-row sort, no gather
  beyond the window's two ends.
* :func:`lof_centre_scores` scores only the centre value of each row of a
  ``(B, m)`` batch, each row one population's ascending values padded with
  ``-inf`` before and ``+inf`` after them: the one question a
  record-scoped verdict asks.  A pad is an infinitely far neighbour,
  exactly like the slots beyond a population's ends.  It lays out the
  ``2k + 1`` distances of each of the ``4k + 1`` positions within ``2k``
  of the centre, once, and reads their k-distances off them: a sorted
  value and its ``k`` nearest are ``k + 1`` consecutive values, so its
  k-distance is the least, over the ``k + 1`` such runs holding it, of the
  run's larger end distance.  It forms windows (with the window kernel's
  rule) and mean reach distances for the ``2k + 1`` positions within
  ``k``, and one score, instead of scoring all ``m`` positions.

The centre kernel runs rows in sub-batches under a fixed element budget
(or one row at a time where a row exceeds it), so at a large ``k`` a batch
allocates no more than one of its windows does alone.

The window kernel adds its terms in window order rather than (distance,
position) order, which moves scores by a few ulps, and where two distinct
left values round to the same distance it keeps the nearer one where the
argsort keeps the further one.  So it declines — returns ``None``, and the
population is re-scored with :func:`lof_scores` — whenever any of these
holds:

1. a finite score lies within ``1e-9 * threshold`` of the threshold;
2. a nonzero mean reach distance lies outside ``[1e-150, 1e150]``, where
   densities and their ratios could overflow or underflow;
3. some point has two distinct values at one rounded distance among its
   first ``k`` left neighbours.

It also declines when the values' spread overflows.  Outlier positions are
therefore exactly those of ``lof_scores(values, k) > threshold`` for every
finite input, in any order.

The centre kernel declines a row (NaN, then :func:`lof_scores` on the
row's finite values) on the same three conditions, checked where its score
reads them: (1) at the centre, (2) and (3) at the ``2k + 1`` positions
within ``k`` of it, whose windows and densities the score uses; the
positions further out contribute only their k-distances, which no tie
changes.  An overflowing spread needs no condition of its own there: a
distance the score reads that overflows, or a k-distance that does, puts a
mean reach distance it reads at ``1.7e308 / k`` or more, and (2) declines
the row.  Each condition is one test over a whole sub-batch (on ordinary
data none fires), and rows are told apart only where it fires.

**Locality.**  :class:`LOFDetector` declares ``locality = 3 * k``: in
ascending order, whether a value is an outlier depends only on the ``3k``
values on each side of it.

* ``N_k(p)`` lies within ``k`` sorted positions of ``p``: the ``k``
  nearest values of a sorted point are a contiguous run around it.
* ``lrd(o)`` for ``o`` in ``N_k(p)`` needs ``N_k(o)`` and the k-distances
  of its members: the members lie within ``2k`` of ``p``, and their
  k-distances read values out to ``3k``.
* ``LOF(p)`` reads those densities plus ``lrd(p)``, so ``3k`` positions
  either side are all it needs.

On the slice of ascending values reaching ``3k`` positions either side of
``p`` (clipped where the population ends), ``lof_scores`` compares the
same floats under the same positional tie rule as on the whole
population, so it gives ``p`` the bit-identical score.  The verifier
exploits this for record-bound questions (see
:mod:`repro.core.verification`): it hands all of one read's windows to
:meth:`LOFDetector.outlier_centres` as one padded batch, whose centres are
scored by one :func:`lof_centre_scores` call, and any row the kernel
declines is re-scored with :func:`lof_scores` on its finite values.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.outliers.base import OutlierDetector, register_detector


def lof_scores(values: np.ndarray, k: int) -> np.ndarray:
    """LOF score per value (1-d, exact k neighbours, deterministic ties)."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.shape[0]
    if n <= k:
        raise ValueError(f"LOF needs more than k={k} points, got {n}")

    order = np.argsort(arr, kind="stable")
    sv = arr[order]

    # Candidate neighbours: the 2k sorted positions around each point.  Out-
    # of-range window slots are masked with +inf distance rather than
    # clipped — clipping would duplicate boundary candidates and a duplicate
    # could be selected twice into N_k.  Every row keeps >= k valid
    # candidates because the in-range window around i always holds at least
    # min(n - 1, k) non-i positions and n > k.
    offsets = np.concatenate([np.arange(-k, 0), np.arange(1, k + 1)])
    idx = np.arange(n)[:, None] + offsets[None, :]
    valid = (idx >= 0) & (idx < n)
    np.clip(idx, 0, n - 1, out=idx)

    # over=ignore: values further apart than the largest float are at an
    # infinite distance, which sorts last, as the true distance would.
    with np.errstate(over="ignore"):
        dist = np.abs(sv[idx] - sv[:, None])
    dist[~valid] = np.inf
    # Deterministic k smallest per row: candidates are laid out in ascending
    # sorted position, so a stable sort on distance breaks ties by position.
    row_order = np.argsort(dist, axis=1, kind="stable")
    nbr = np.take_along_axis(idx, row_order[:, :k], axis=1)
    nbr_dist = np.take_along_axis(dist, row_order[:, :k], axis=1)

    k_dist = nbr_dist[:, -1]  # distance to the k-th nearest
    reach = np.maximum(k_dist[nbr], nbr_dist)
    # over=ignore: a denormal-small mean reach distance overflows 1/x to
    # inf, which is the intended "infinitely dense" limit anyway, and huge
    # reach distances sum to inf, the "infinitely sparse" one.
    with np.errstate(divide="ignore", over="ignore"):
        mean_reach = reach.mean(axis=1)
        lrd = np.where(mean_reach > 0.0, 1.0 / mean_reach, np.inf)

    lrd_nbr = lrd[nbr]
    # over=ignore: a finite-but-huge neighbour density over a tiny one may
    # overflow to inf, and so may a sum of huge ratios, which is the right
    # answer (the point is infinitely less dense than its neighbourhood).
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ratios = lrd_nbr / lrd[:, None]
        # inf / inf -> nan -> both densities are "infinite" (duplicate
        # cluster): the point is exactly as dense as its neighbours, LOF
        # contribution 1.
        ratios = np.where(np.isnan(ratios), 1.0, ratios)
        scores_sorted = ratios.mean(axis=1)

    scores = np.empty(n, dtype=np.float64)
    scores[order] = scores_sorted
    return scores


#: A window score this close to the threshold (relative to it) is re-scored
#: exactly; the window kernel's own rounding error is near 1e-14.
_THRESHOLD_MARGIN = 1e-9
#: Nonzero mean reach distances outside this range are re-scored exactly.
_REACH_MIN, _REACH_MAX = 1e-150, 1e150


#: Rows of a centre-kernel batch are scored in sub-batches of at most this
#: many kernel elements (one row at least), so a batch's temporaries stay
#: within one large window's however many rows it has, and a sub-batch's
#: float temporaries (512 KB each) near the CPU's caches: at 1 << 20 the
#: centre kernel took 1.2x (388 rows) and 2.1x (1,024 rows) as long per row
#: as on 64 rows, at k = 10.
_ELEMENT_BUDGET = 1 << 16
#: The centre kernel caps distances here before masking by multiplication.
_FAR = np.finfo(np.float64).max


def _shifted(buf: np.ndarray, n_rows: int, n: int) -> np.ndarray:
    """``(n_rows, *lead, n)`` view of a ``(*lead, w)`` array whose slice
    ``t`` is ``buf[..., t : t + n]``."""
    *lead, step = buf.strides
    return np.ndarray(
        (n_rows, *buf.shape[:-1], n), dtype=buf.dtype, buffer=buf,
        strides=(step, *lead, step),
    )


def _sub_batches(n_rows: int, per_row: int):
    """Slices of rows holding at most :data:`_ELEMENT_BUDGET` kernel
    elements at ``per_row`` each (one row at least)."""
    step = max(1, _ELEMENT_BUDGET // per_row)
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def lof_window_scores(
    sorted_values: np.ndarray, k: int, threshold: float
) -> Optional[np.ndarray]:
    """LOF scores of ascending values by the window kernel (see the module
    docstring), or ``None`` where only :func:`lof_scores` can decide which
    scores exceed ``threshold``."""
    values = np.asarray(sorted_values, dtype=np.float64)
    m = values.shape[0]
    if m <= k:
        raise ValueError(f"LOF needs more than k={k} points, got {m}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        span = values[-1] - values[0]
        if not np.isfinite(span):
            return None
        # The population's ends: slots beyond them are infinitely far.
        pad = np.empty(m + 2 * k)
        pad[:k] = -np.inf
        pad[k : k + m] = values
        pad[k + m :] = np.inf
        dist, in_left, k_dist, tied = _neighbours(pad, k, m)
        if tied.any():
            return None
        left, right = dist[:k], dist[k:]
        in_right = ~in_left

        # Only the first and last k values have neighbours beyond the ends:
        # cap their inf at the span (no in-range distance exceeds it) so
        # that masking by multiplication stays finite.
        edges = [slice(None)] if 2 * k >= m else [slice(k), slice(m - k, None)]
        for edge in edges:
            np.minimum(dist[:, edge], span, out=dist[:, edge])
        kd_pad = np.zeros(m + 2 * k)
        kd_pad[k : k + m] = k_dist
        kd_near = _shifted(kd_pad, 2 * k + 1, m)
        np.maximum(left, kd_near[:k], out=left)
        np.maximum(right, kd_near[k + 1 :], out=right)
        np.multiply(left, in_left, out=left)
        np.multiply(right, in_right, out=right)
        mean_reach = dist.sum(axis=0)
        mean_reach /= k
        out_of_range = (mean_reach < _REACH_MIN) | (mean_reach > _REACH_MAX)
        if ((mean_reach > 0.0) & out_of_range).any():
            return None
        dense = mean_reach == 0.0  # lrd = inf: a run of more than k duplicates

        def window_sum(per_point: np.ndarray) -> np.ndarray:
            # Reuses dist's buffer: the reach distances are summed by now.
            padded = np.zeros(m + 2 * k)
            padded[k : k + m] = per_point
            shifted = _shifted(padded, 2 * k + 1, m)
            np.multiply(shifted[:k], in_left, out=left)
            np.multiply(shifted[k + 1 :], in_right, out=right)
            return dist.sum(axis=0)

        lrd = 1.0 / mean_reach
        # The ratios' mean, as (sum of the neighbours' densities) / lrd / k;
        # dense points add nothing to the sum.
        scores = window_sum(np.where(mean_reach > 0.0, lrd, 0.0)) / lrd / k
        if dense.any():
            # inf / inf counts 1, finite / inf counts 0, inf / finite is inf.
            n_dense = window_sum(dense)
            scores = np.where(dense, n_dense / k, np.where(n_dense > 0, np.inf, scores))
        if (np.abs(scores - threshold) <= _THRESHOLD_MARGIN * threshold).any():
            return None
    return scores


def lof_centre_scores(rows: np.ndarray, k: int, threshold: float) -> np.ndarray:
    """LOF score of the centre value of each row of a ``(B, m)`` batch, ``m``
    odd.

    Each row holds one population's values in ascending order, padded with
    ``-inf`` before them and ``+inf`` after them (any number of each).
    Entry ``b`` is the score of ``rows[b, m // 2]`` among row ``b``'s finite
    values, or NaN where the kernel declines and only :func:`lof_scores`
    can decide whether it exceeds ``threshold`` (see the module docstring).
    A row holding ``k`` or fewer finite values gets an arbitrary entry.
    """
    rows = np.asarray(rows, dtype=np.float64)
    scores = np.empty(rows.shape[0])
    # Per row, the distances of the 4k + 1 positions scored.
    for part in _sub_batches(rows.shape[0], (2 * k + 1) * (4 * k + 1)):
        scores[part] = _centre_rows(rows[part], k, threshold)
    return scores


def _neighbours(pad: np.ndarray, k: int, width: int):
    """The neighbour-window stage of the window kernel.

    ``pad`` holds ascending values with ``k`` more on each side, infinite
    beyond the population's ends; the positions are its slots ``k .. k +
    width - 1``, whose ``k`` nearest slots on each side all lie inside it.
    Returns, per position:

    * ``dist``, ``(2k, width)``: slice ``r < k`` holds ``L_{k-r}``, slice
      ``k + r`` holds ``R_{r+1}``; slots beyond the ends are infinitely far.
    * ``in_left``, ``(k, width)``: slice ``r`` is ``[L_{k-r} <=
      R_{r+1}]``, true for exactly the window's left neighbours (ties go
      left): it is the left slices' window mask, and its negation the right
      slices'.  The window is slices ``[k - l, 2k - l)``.
    * ``k_dist``, ``(width,)``: the distance to the k-th nearest, the
      larger of the window's two ends.
    * ``tied``, ``(width,)``: two distinct left values at one rounded
      distance, where the argsort keeps the further one and the window the
      nearer.
    """
    values = pad[k : k + width]
    near = _shifted(pad, 2 * k + 1, width)  # slice t: the values at offset t - k
    dist = np.empty((2 * k, width))
    left, right = dist[:k], dist[k:]
    np.subtract(values, near[:k], out=left)
    np.subtract(near[k + 1 :], values, out=right)
    in_left = left <= right
    first = (k - in_left.sum(axis=0)) * width + np.arange(width)
    flat = dist.reshape(-1)
    k_dist = np.maximum(flat[first], flat[first + (k - 1) * width])
    distinct = _shifted(pad[1:] != pad[:-1], k - 1, width)
    tied = ((left[:-1] == left[1:]) & distinct).any(axis=0)
    return dist, in_left, k_dist, tied


def _centre_rows(rows: np.ndarray, k: int, threshold: float) -> np.ndarray:
    """:func:`lof_centre_scores` of one sub-batch of padded rows."""
    b, m = rows.shape
    centre, reach = m // 2, 3 * k
    # The 6k + 1 values the centre's score reads: the positions within 2k of
    # it (slab columns k .. 5k) and their k neighbours on each side.
    if centre >= reach:
        slab = np.ascontiguousarray(rows[:, centre - reach : centre + reach + 1])
    else:  # a row narrower than that: pad it out
        short = reach - centre
        slab = np.full((b, 2 * reach + 1), np.inf)
        slab[:, :short] = -np.inf
        slab[:, short : short + m] = rows
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Slice t: each of the 4k + 1 positions' distance to the value at
        # offset t - k (slice k: to itself).  Pads are infinitely far, and a
        # pad is NaN from a pad at the same infinity.
        near = _shifted(slab, 2 * k + 1, 4 * k + 1)
        dist = np.subtract(near, slab[:, k : 5 * k + 1])
        np.abs(dist, out=dist)
        # A sorted value's k nearest and itself are k + 1 consecutive
        # values, so its k-distance is the least over those runs of their
        # larger end distance: the window kernel's value, and NaN at pads.
        k_dist = np.minimum.reduce(np.maximum(dist[: k + 1], dist[k:]), axis=0)

        # The 2k + 1 positions within k of the centre.  ``window`` is each
        # one's neighbour window over the slices, ties going left, as
        # ``in_left`` of :func:`_neighbours`.
        inner = dist[:, :, k : 3 * k + 1]
        window = np.empty((2 * k + 1, b, 2 * k + 1), dtype=bool)
        np.less_equal(inner[:k], inner[k + 1 :], out=window[:k])
        window[k] = False
        np.logical_not(window[:k], out=window[k + 1 :])
        # fmax passes over a pad neighbour's NaN k-distance, and the cap
        # keeps masking by multiplication finite (no in-range distance
        # exceeds it).  A pad's own first neighbour is a pad at the same
        # infinity, so its mean reach stays NaN: no check below fires on it.
        reach_dist = np.fmax(_shifted(k_dist, 2 * k + 1, 2 * k + 1), inner)
        np.minimum(reach_dist, _FAR, out=reach_dist)
        reach_dist *= window
        mean_reach = np.add.reduce(reach_dist, axis=0)
        mean_reach /= k

        lrd = 1.0 / mean_reach
        dense = mean_reach == 0.0  # lrd = inf: a run of more than k duplicates
        around = window[:, :, k].T  # the centre's window over the positions
        total = np.add.reduce(np.where(mean_reach > 0.0, lrd, 0.0) * around, axis=1)
        scores = total / lrd[:, k] / k
        if np.count_nonzero(dense):
            # inf / inf counts 1, finite / inf counts 0, inf / finite is inf.
            n_dense = np.add.reduce(dense & around, axis=1)
            scores = np.where(
                dense[:, k], n_dense / k, np.where(n_dense > 0, np.inf, scores)
            )

        # The exactness checks.  Each is one test over the whole sub-batch,
        # and rows are told apart only where it fires.
        declined = np.abs(scores - threshold) <= _THRESHOLD_MARGIN * threshold
        if not (
            np.fmin.reduce(mean_reach, axis=None) >= _REACH_MIN
            and np.fmax.reduce(mean_reach, axis=None) <= _REACH_MAX
        ):
            declined |= np.logical_or.reduce(
                (mean_reach > 0.0)
                & ((mean_reach < _REACH_MIN) | (mean_reach > _REACH_MAX)),
                axis=1,
            )
        # Two distinct left values at one rounded distance.  Differences, so
        # that two infinite distances (a pad's) never count as a tie.
        values = near[:, :, k : 3 * k + 1]
        tied = (np.subtract(inner[: k - 1], inner[1:k]) == 0.0) & (
            values[: k - 1] != values[1:k]
        )
        if np.count_nonzero(tied):
            declined |= np.logical_or.reduce(tied, axis=(0, 2))
    scores[declined] = np.nan
    return scores


class LOFDetector(OutlierDetector):
    """LOF with score threshold.

    Parameters
    ----------
    k:
        Neighbourhood size (MinPts in the original paper), default 10.
    threshold:
        LOF score above which a point is an outlier, default 1.5.
    """

    name = "lof"
    sorted_input = True

    def __init__(self, k: int = 10, threshold: float = 1.5, min_population: int | None = None):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if threshold <= 0.0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        # LOF needs at least k+1 points; fold that into min_population.
        floor = k + 1
        if min_population is None:
            min_population = max(10, floor)
        super().__init__(min_population=max(min_population, floor))
        self.k = int(k)
        self.threshold = float(threshold)

    @property
    def locality(self) -> int:
        """``3 * k`` sorted positions either side (see the module docstring)."""
        return 3 * self.k

    def _outlier_centres(self, rows: np.ndarray) -> np.ndarray:
        """All centres through one :func:`lof_centre_scores` call; a row it
        declines is re-scored with :func:`lof_scores` on its finite values,
        and a row of fewer than ``min_population`` finite values holds no
        outlier."""
        scores = lof_centre_scores(rows, self.k, self.threshold)
        sized = np.add.reduce(np.isfinite(rows), axis=1) >= self.min_population
        declined = np.isnan(scores)
        if np.count_nonzero(declined):
            centre = rows.shape[1] // 2
            for i in np.flatnonzero(declined & sized):
                finite = np.isfinite(rows[i])
                at = centre - int(np.count_nonzero(~finite[:centre]))
                scores[i] = lof_scores(rows[i][finite], self.k)[at]
        return (scores > self.threshold) & sized

    def _outlier_positions(self, values: np.ndarray) -> np.ndarray:
        order = None
        if values.shape[0] > 1 and not (values[1:] >= values[:-1]).all():
            order = np.argsort(values, kind="stable")
            values = values[order]
        scores = lof_window_scores(values, self.k, self.threshold)
        if scores is None:
            scores = lof_scores(values, self.k)
        positions = np.flatnonzero(scores > self.threshold)
        return positions if order is None else order[positions]


register_detector("lof", LOFDetector)
