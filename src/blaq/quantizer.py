"""Symmetric fixed-point grids and the loss-aware scaled projection.

A k-bit grid holds the 2^k levels {±i/2^(k-1) : i = 1..2^(k-1)}; zero is
never a level and the extremes are ±1.  Quantized weights are represented
as a single positive scale times a grid-valued code vector.  The fit
minimizes the diagonally weighted squared error exactly: for n weights,
one sweep over the N = n (2^(k-1) - 1) scales where the nearest code
changes finds the best code.  A long sweep bounds each bucket of scales
in O(N) passes and sorts only the breakpoints of the buckets that can
hold the best one; a short sweep, or one where the bound rules out
little (a very fine grid), sorts all N in O(N log N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .buffers import IN_PLACE_MIN_SIZE
from .errors import NumericError

# Scale assigned when the input vector is exactly zero; keeps w_hat ~ 0
# while preserving alpha > 0.
ZERO_VECTOR_ALPHA = 1e-8

MAX_BITWIDTH = 16

# Largest breakpoint count n (2^(k-1) - 1) a layer of n weights may bring
# to the sweep.  A sweep that sorts every breakpoint holds three arrays of
# that length at once, 24 bytes per breakpoint: about 400 MB at the cap.
MAX_SWEEP_BREAKPOINTS = 2 ** 24

# Fewest breakpoints n (2^(k-1) - 1), zero weights included, for which
# the sweep first bounds its buckets and sorts only the candidates; a
# shorter sweep sorts them all.  Both took the same time near 10^4
# breakpoints at k = 2, 3 and 4.
BUCKET_SWEEP_MIN = 2 ** 14

# Breakpoints the bucket passes take at a time, so that their scratch
# arrays stay in cache.
BUCKET_BLOCK = 2 ** 16


class QuantGrid:
    """Level set for k-bit weights, sorted ascending."""

    __slots__ = ("bitwidth", "levels")

    def __init__(self, bitwidth):
        if not isinstance(bitwidth, (int, np.integer)) or bitwidth < 1:
            raise ValueError(f"bitwidth must be a positive integer, got {bitwidth!r}")
        if bitwidth > MAX_BITWIDTH:
            raise ValueError(f"bitwidth {bitwidth} exceeds supported maximum {MAX_BITWIDTH}")
        half = 2 ** (bitwidth - 1)
        pos = np.arange(1, half + 1, dtype=np.float64) / half
        self.bitwidth = int(bitwidth)
        self.levels = np.concatenate([-pos[::-1], pos])

    @property
    def resolution(self):
        """Count of positive levels, 2^(k-1)."""
        return 2 ** (self.bitwidth - 1)

    def __repr__(self):
        return f"QuantGrid(bitwidth={self.bitwidth})"


def _sign(x):
    """-1.0 where x < 0, else +1.0 (for +-0.0 and NaN too).

    On a long vector the branch-free 1 - 2*(x < 0), computed in place,
    which is bit for bit np.where(x < 0, -1, 1) and faster there; on a
    short one np.where itself.
    """
    if x.size < IN_PLACE_MIN_SIZE:
        return np.where(x < 0.0, -1.0, 1.0)
    sign = np.multiply(x < 0.0, -2.0)
    sign += 1.0
    return sign


def nearest_level(grid, x):
    """Round to the closest grid level; ties go away from zero.

    Values beyond +-1 clamp to the extreme levels, and x = 0 maps to the
    smallest positive level (sign(0) is taken as +1).  Accepts scalars or
    arrays.
    """
    arr = np.asarray(x, dtype=np.float64)
    sign = _sign(arr)
    n = grid.resolution
    # floor(m + 0.5) rounds half-up on the non-negative magnitude, which is
    # exactly "ties away from zero" after the sign is reapplied.
    idx = np.minimum(np.maximum(np.floor(np.abs(arr) * n + 0.5), 1.0), float(n))
    out = sign * idx / n
    return float(out) if arr.ndim == 0 else out


@dataclass
class ScaledCode:
    """Quantized weights as alpha * beta with beta on the grid."""

    alpha: float
    beta: np.ndarray

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def w_hat(self):
        return self.alpha * self.beta


def weighted_objective(w, d, alpha, beta):
    """0.5 * sum_i d_i (w_i - alpha*beta_i)^2."""
    r = w - alpha * beta
    return 0.5 * float(np.dot(d, r * r))


def _sweep_scale(w, d, grid):
    """Optimal scale of the best code, by one sorted breakpoint sweep.

    With n = 2^(k-1) positive levels j/n, the best code for a fixed alpha
    is nearest(w/alpha), and coordinate i moves from level j/n up to
    (j+1)/n as alpha falls through 2n|w_i|/(2j+1).  Starting from the
    all-level-1 code (alpha -> inf), crossing the breakpoints in
    descending order visits every code of that family.  With
    S_wb = sum d|w||beta| and S_bb = sum d beta^2, a code's objective at
    its own optimal scale is 0.5 * (sum d w^2 - S_wb^2 / S_bb), so the
    prefix maximizing S_wb^2 / S_bb is the global optimum.  Prefixes
    within a relative 1e-12 of the best tie (float noise between
    scale-equivalent codes such as [1, 1] and [0.5, 0.5]); the last one,
    with the largest levels and smallest scale, wins.  Returns
    S_wb / S_bb of the winning prefix.  Needs k >= 2: the 1-bit grid has
    no breakpoints.

    Of N breakpoints, only those of the buckets that can hold the best
    prefix are sorted (`_candidate_sums`), so a long sweep costs O(N)
    passes plus a small sort: in MNIST training at k = 2, a median of 78
    of the 784x256 layer's 200,704.  A sweep of fewer than
    `BUCKET_SWEEP_MIN` breakpoints, or one whose candidates are most of
    them (a very fine grid, where the ratio is flat near its maximum),
    sorts all N in O(N log N) (`_all_sums`).
    """
    n = grid.resolution
    mags = np.abs(w)
    s_wb = float(np.dot(d, mags)) / n
    s_bb = float(d.sum()) / (n * n)
    if not s_bb > 0.0:
        raise NumericError(f"projection weights underflow: sum(d) / {n * n} is 0")
    odd = np.arange(3, 2 * n, 2, dtype=np.float64)           # 2j+1, j = 1..n-1
    sums = _candidate_sums(mags, d, n, odd, s_wb, s_bb)
    if sums is None:
        sums = _all_sums(mags, d, n, odd, s_wb, s_bb)
    wb, bb = sums
    ratio = wb * wb
    ratio /= bb
    best = max(s_wb * s_wb / s_bb, float(ratio.max()))
    ties = np.flatnonzero(ratio >= best - 1e-12 * best)
    if not ties.size:
        return s_wb / s_bb
    last = ties[-1]
    return float(wb[last] / bb[last])


def _all_sums(mags, d, n, odd, s_wb, s_bb):
    """(S_wb, S_bb) after each of the N breakpoints, all sorted."""
    # ascending order of the negated breakpoints is the descending sweep;
    # zero weights sit at the end (alpha = 0 is never crossed) and are cut
    order = np.argsort(np.multiply.outer(mags, -2.0 * n / odd), axis=None)
    order = order[:np.count_nonzero(mags) * (n - 1)]
    bb = np.multiply.outer(d, odd / (n * n)).reshape(-1)[order]
    bb[0] += s_bb
    np.cumsum(bb, out=bb)
    order //= n - 1                                  # the weight of each step
    wb = (d * mags)[order]
    del order
    wb /= n
    wb[0] += s_wb
    np.cumsum(wb, out=wb)
    return wb, bb


def _candidate_sums(mags, d, n, odd, s_wb, s_bb):
    """(S_wb, S_bb) after each breakpoint that can hold the best prefix.

    Every crossing of bp = 2n|w_i|/(2j+1) adds d_i|w_i|/n to S_wb and
    d_i(2j+1)/n^2 to S_bb: a step of slope bp/2.  A first pass puts the
    breakpoints into about sqrt(N) equal-width buckets and sums each
    bucket's steps.  Inside a bucket whose breakpoints are at most
    `top`, S_bb grows at least 2/top times as fast as S_wb, and
    S_wb^2 / S_bb along such a path peaks at one of its ends, so
    max(R_start, W_end^2 / (B_start + dW 2/top)) bounds every prefix in
    it.  A bucket whose bound falls short of the best bucket-end ratio,
    less a slack that covers the rounding of sums of N positive terms,
    holds neither the best prefix nor a tie of it.  A second pass
    collects the kept buckets' breakpoints, and one sort puts them in
    sweep order, each run of adjacent kept buckets in one block; every
    run is summed from the sums before it.  Keys and steps are the
    products `_all_sums` forms, so they have its bits.  Both passes go
    through the breakpoints in blocks: apart from the candidates, no
    array of length N is held.

    Returns None, and the caller sorts everything, for a sweep shorter
    than `BUCKET_SWEEP_MIN`, when the candidates are more than half of
    the breakpoints, or when the sums or the bucket scale overflow.
    """
    top_ratio = (n * s_wb) * (n * s_wb) / s_bb     # no prefix ratio exceeds this
    if mags.size * (n - 1) < BUCKET_SWEEP_MIN or not math.isfinite(top_ratio):
        return None
    nonzero = mags > 0.0
    total = int(np.count_nonzero(nonzero)) * (n - 1)
    if total < mags.size * (n - 1):                 # zero weights are never crossed
        mags, d = mags[nonzero], d[nonzero]
    pos = 2.0 * n / odd
    n_buckets = math.isqrt(total)
    width = float(mags.max() * pos[0]) / n_buckets  # the largest breakpoint, split
    scale = 1.0 / width if width > 0.0 else math.inf
    if not math.isfinite(scale):
        return None
    blocks = _blocks(n - 1, mags.size)
    wb_steps = d * mags
    wb_steps /= n
    oddn = odd / (n * n)
    count = np.zeros(n_buckets + 1, dtype=np.intp)
    step_wb = np.zeros(n_buckets + 1)
    step_bb = np.zeros(n_buckets + 1)
    for rows, cols in blocks:
        ids = _bucket_ids(pos[rows], mags[cols], scale)
        wb = np.broadcast_to(wb_steps[cols], ids.shape).reshape(-1)
        bb = np.multiply.outer(oddn[rows], d[cols]).reshape(-1)
        ids = ids.reshape(-1)
        count += np.bincount(ids, None, n_buckets + 1)
        step_wb += np.bincount(ids, wb, n_buckets + 1)
        step_bb += np.bincount(ids, bb, n_buckets + 1)
    # per bucket in sweep order, from the largest breakpoints down
    step_wb, step_bb, count = step_wb[::-1], step_bb[::-1], count[::-1]
    ends_wb = np.cumsum(np.concatenate(([s_wb], step_wb)))
    ends_bb = np.cumsum(np.concatenate(([s_bb], step_bb)))
    ends = ends_wb * ends_wb / ends_bb
    # a bucket's upper edge, plus one width of margin for rounding in the ids
    top = np.arange(n_buckets + 2, 1, -1) * width
    bound = np.maximum(ends[:-1], ends_wb[1:] ** 2 / (ends_bb[:-1] + step_wb * (2.0 / top)))
    slack = 1e-9 + 16.0 * total * np.finfo(np.float64).eps
    keep = bound >= float(ends.max()) * (1.0 - slack)
    if 2 * int(count[keep].sum()) > total:
        return None
    kept_ids = keep[::-1]
    found = []
    for rows, cols in blocks:
        ids = _bucket_ids(pos[rows], mags[cols], scale)
        row_len = ids.shape[1]
        ids = ids.reshape(-1)
        at = np.flatnonzero(kept_ids[ids])
        if at.size:
            j, i = np.divmod(at, row_len)
            found.append((j + rows.start, i + cols.start, n_buckets - ids[at]))
    # j: level step, i: weight, place: the bucket's position in the sweep
    j, i, place = (np.concatenate(part) for part in zip(*found))
    order = np.argsort(mags[i] * -pos[j])
    j, i, place = j[order], i[order], place[order]
    wb = wb_steps[i]
    bb = d[i] * oddn[j]
    kept = np.flatnonzero(keep)
    firsts = kept[np.diff(kept, prepend=-2) > 1]
    starts = np.searchsorted(place, firsts)
    stops = np.append(starts[1:], len(place))
    for first, start, stop in zip(firsts, starts, stops):
        if start < stop:
            wb[start] += ends_wb[first]
            np.cumsum(wb[start:stop], out=wb[start:stop])
            bb[start] += ends_bb[first]
            np.cumsum(bb[start:stop], out=bb[start:stop])
    return wb, bb


def _blocks(n_steps, m):
    """(level steps, weights) slices tiling the n_steps x m breakpoints
    in blocks of about `BUCKET_BLOCK`."""
    if m >= BUCKET_BLOCK:
        return [(slice(j, j + 1), slice(i, i + BUCKET_BLOCK))
                for j in range(n_steps) for i in range(0, m, BUCKET_BLOCK)]
    per = BUCKET_BLOCK // m
    return [(slice(j, j + per), slice(0, m)) for j in range(0, n_steps, per)]


def _bucket_ids(pos, mags, scale):
    """floor(bp * scale) of the breakpoints pos_j |w_i|: the same products
    as the sort keys, so an id never falls as the breakpoint rises."""
    ids = np.multiply.outer(pos, mags)
    ids *= scale
    return ids.astype(np.intp)


def _fit(w, d, grid):
    """Swept scale, then one code half-step and one scale half-step.

    On the 1-bit grid the code is sign(w) (zeros and -0.0 map to +1), so
    the sweep and the code half-step are skipped.  Returns the final code
    as (alpha, beta).
    """
    if grid.bitwidth == 1:
        beta = _sign(w)
    else:
        beta = nearest_level(grid, w / _sweep_scale(w, d, grid))
    alpha = float(d.dot(w * beta) / d.dot(beta * beta))
    if not 0.0 < alpha < math.inf:
        kind = "positive" if math.isfinite(alpha) else "finite"
        raise NumericError(f"projection scale is not {kind}: {alpha}")
    return alpha, beta


def project(w, d, grid):
    """Fit (alpha, beta) minimizing the d-weighted squared error to w.

    Exact: the breakpoint sweep finds the scale of the globally best
    code, in O(N) passes over the N = n (2^(k-1) - 1) breakpoints plus a
    sort of those that can hold it, and at most O(N log N) time and O(N)
    memory.  Then one code half-step (per-entry nearest level of
    w/alpha) and one scale half-step
    (alpha = sum(d*w*beta) / sum(d*beta^2)) finish it.
    On the 1-bit grid there are no breakpoints and this is the closed
    form beta = sign(w), alpha = sum(d*|w|)/sum(d).  A scale that is not
    finite (a NaN or infinite w, or an overflowing sum) or not positive
    (a sum that underflows to 0) is a NumericError, and so are weights d
    too small for the sweep's sums.
    """
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    if w.shape != d.shape or w.ndim != 1:
        raise ValueError(f"w and d must be equal-length vectors, got {w.shape} and {d.shape}")
    # one reduction each: the minimum of d is NaN or not above 0 exactly
    # when some entry is; count_nonzero beats any() on a short w only
    if not np.minimum.reduce(d, initial=math.inf) > 0.0:
        raise ValueError("all weights d must be strictly positive")
    if not (np.count_nonzero(w) if w.size < IN_PLACE_MIN_SIZE else w.any()):
        return ScaledCode(ZERO_VECTOR_ALPHA, np.ones_like(w))
    return ScaledCode(*_fit(w, d, grid))


def exhaustive_project(w, d, grid):
    """Brute-force reference: best objective over every code vector.

    Only feasible for tiny n and k; used as the oracle for project.
    Mirrored codes share the same w_hat, so the unconstrained per-code
    optimal scale loses nothing against the alpha > 0 constraint.
    """
    w = np.asarray(w, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    n = len(w)
    best = None
    grids = np.meshgrid(*([grid.levels] * n), indexing="ij")
    codes = np.stack([g.reshape(-1) for g in grids], axis=1)
    for beta in codes:
        denom = float(np.dot(d, beta * beta))
        alpha = float(np.dot(d, w * beta) / denom)
        obj = weighted_objective(w, d, alpha, beta)
        if best is None or obj < best[0]:
            best = (obj, alpha, beta.copy())
    return best
