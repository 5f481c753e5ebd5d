"""The cross-moment engine: pooled products of a panel's lagged columns.

Sufficient statistics
---------------------
Every estimator and diagnostic reads the panel only through its cached
cross-moments: every quantity they report is a product of two linear forms
in the lagged columns ``const`` and ``<series>_lag<k>``, k = 0..L, pooled
over periods t >= L.  The panel caches one period Gram, the second moments
over firms of its (series, period) columns with each series centered by its
overall mean, accumulated in firm blocks.  The window means and pooled
second moments of every lag depth are averages along its diagonals, so an
IV fit such as ``estimate.two_sls`` is k x k algebra.  The fourth
cross-moments (the Gram matrix over firms of each firm's mean of the
pairwise products of the columns, centered by their pooled means so that
no variance is a small difference of large products), which the
firm-clustered influence-function standard errors need,
take one blocked pass per lag depth on first use, holding about
``_BLOCK_ROWS`` rows and their pair products at a time, never n x k^2.

The pass is one serial loop over firm blocks on one block buffer that adds
each block's Gram into ``fourth`` in block order, so its bits do not depend
on the thread that runs it.  Scans, bisection steps and IV fits never run
it: the first read of a standard error that needs the fourth moments does
(a ``Concentrated``'s ``moment_ses``, a curve's ``ses``, the moment
inequality, ``gmm_objective``).  :func:`cached` alone creates, reads and
writes a panel's moment cache, on the panel's first use, and
:func:`_moments_from` is the one way to the cross-moments of a lag depth:
it takes the depth from the first period of a residual and the columns
named, and refuses a panel without the periods.  Every standard error of a
moment mean is :meth:`_CrossMoments.ses`: a firm is one cluster, so it is
the sample standard deviation, ddof 1, of the firms' mean products over
sqrt(n_firms), and NaN for one firm.  A fit checks its column names against
the panel where it takes them (``_name_tuple``); the engine only forms the
columns of checked names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

#: Pooled rows per accumulation block; with k = 10 columns the block and its
#: 55 pair products take about 4 MB.
_BLOCK_ROWS = 8192


def _parse_name(name: str, field: str = "instruments"):
    if not isinstance(name, str):
        raise ValidationError(f"{name!r} in {field} is not a name",
                              field=field)
    if name == "const":
        return ("const", 0)
    # the canonical spelling only: the engine indexes columns by it
    match = re.fullmatch(r"([yxz])_lag(0|[1-9][0-9]*)", name)
    if match is None:
        raise ValidationError(
            f"bad column name {name!r}; use 'const' or "
            "'<y|x|z>_lag<k>'", field=field)
    return (match[1], int(match[2]))


def _name_tuple(names, field: str, panel) -> tuple:
    """``names`` as a tuple of names of columns ``panel`` holds; a bare
    string or any other entry raises, naming ``field``."""
    if isinstance(names, str):
        raise ValidationError(f"{field} must be a sequence of names, "
                              f"not the string {names!r}", field=field)
    names = tuple(names)
    for name in names:
        series = _parse_name(name, field)[0]
        if series != "const" and getattr(panel, series) is None:
            raise ValidationError(f"panel has no series {series!r}",
                                  field=field)
    return names


def cached(panel, key, build):
    """The panel's statistic ``key``, made by ``build()`` on first use and
    kept in its moment cache, which the first call makes (a replaced panel
    starts without one); a build that raises keeps nothing."""
    cache = vars(panel).setdefault("_moment_cache", {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _series_map(panel):
    out = {"y": panel.y, "x": panel.x}
    if panel.z is not None:
        out["z"] = panel.z
    return out


@dataclass(frozen=True)
class _CrossMoments:
    """Pooled cross-moments of the lagged columns of one panel.

    A linear form is a coefficient vector over the centered columns
    (``const`` first); :meth:`forms` gives the forms of raw columns.
    ``second`` is E[d d'] for the centered columns d, and ``fourth`` is
    E[q q'] over firms for q a firm's mean of the k^2 ordered products
    vec(d d'), so the variance of a firm's mean (a'd)(b'd) is a quadratic
    form in vec(a b'), computed from ``sources`` on first use.
    """

    index: dict
    n: int                 # pooled rows
    n_firms: int
    basis: np.ndarray      # column j: the centered form of raw column j
    second: np.ndarray
    sources: list          # the pooled lagged columns, firm by period

    @cached_property
    def fourth(self) -> np.ndarray:
        return _pair_moments(self.sources, self.basis[0, 1:])

    def forms(self, names) -> np.ndarray:
        """The forms of the raw columns ``names``, one column each; None
        gives the zero form."""
        out = np.zeros((len(self.index), len(names)))
        for j, name in enumerate(names):
            if name is not None:
                out[:, j] = self.basis[:, self.index[name]]
        return out

    def cross(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """E[(a'd)(b'd)]; columns of matrix arguments are separate forms."""
        return a.T @ self.second @ b

    def product_moments(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The uncentered second moments over firms of the firm means of
        the products (a_i'd)(b'd), over the columns a_i of ``a``: one
        quadratic form in the fourth moments."""
        w = np.multiply.outer(b, a).reshape(b.size * a.shape[0], -1)
        return w.T @ self.fourth @ w

    def ses(self, a: np.ndarray, b: np.ndarray,
            means: np.ndarray) -> np.ndarray:
        """Standard errors of the means of (a_j'd)(b'd), one per column a_j
        of ``a``, given those means, clustered by firm (see the module)."""
        if self.n_firms <= 1:
            return np.full(a.shape[1], np.nan)
        var = self.product_moments(a, b).diagonal() - means * means
        return np.sqrt(np.maximum(var, 0.0) / (self.n_firms - 1))


def _period_gram(panel):
    """(m, G, s) for the panel's (series, period) columns c, each series
    centered by its overall mean m: G = E[c c'] and s = E[c] over firms.
    One pass in firm blocks, cached on the panel."""
    def build():
        arrays = list(_series_map(panel).values())
        n_firms = arrays[0].shape[0]
        means = np.array([a.mean() for a in arrays])
        width = sum(a.shape[1] for a in arrays)
        gram, sums = np.zeros((width, width)), np.zeros(width)
        block = np.empty((width, min(_BLOCK_ROWS, n_firms)))
        for lo in range(0, n_firms, _BLOCK_ROWS):
            b = block[:, :min(_BLOCK_ROWS, n_firms - lo)]
            for arr, mean, rows in zip(arrays, means,
                                       np.split(b, len(arrays))):
                np.subtract(arr[lo:lo + b.shape[1]].T, mean, out=rows)
            gram += b @ b.T
            sums += b.sum(axis=1)
        return means, gram / n_firms, sums / n_firms

    return cached(panel, "gram", build)


def _accumulate_moments(panel, lags: int) -> _CrossMoments:
    """The cross-moments of ``const`` and each series at lags 0..``lags``,
    pooled over periods t >= ``lags``, read off the period Gram: a window
    mean and a pooled second moment are averages along its diagonals."""
    means, gram, shift = _period_gram(panel)
    n_periods = panel.spec.n_periods
    names, sources, cols = ["const"], [], []
    for s, (series, arr) in enumerate(_series_map(panel).items()):
        for lag in range(lags + 1):
            names.append(f"{series}_lag{lag}")
            sources.append(arr[:, lags - lag:n_periods - lag])
            # the Gram columns of this lagged column, one per pooled period
            cols.append(range(s * n_periods + lags - lag,
                              (s + 1) * n_periods - lag))
    cols = np.array(cols)
    offset = shift[cols].mean(axis=1)  # window mean minus overall mean
    k = len(names)
    second = np.eye(k)  # the constant and its zero cross-moments
    second[1:, 1:] = (gram[cols[:, None], cols[None, :]].mean(axis=2)
                      - np.outer(offset, offset))
    basis = np.eye(k)
    basis[0, 1:] = np.repeat(means, lags + 1) + offset
    return _CrossMoments(
        index={name: j for j, name in enumerate(names)},
        n=sources[0].size, n_firms=len(sources[0]), basis=basis, second=second,
        sources=sources)


def _pair_moments(sources, means) -> np.ndarray:
    """E[q q'] over firms for q a firm's mean of the ordered products
    vec(d d') of the centered columns d = (1, sources - means): one blocked
    pass over the products of the i <= j pairs, spread over all k^2 ordered
    pairs."""
    k = len(sources) + 1
    n_firms, t_len = sources[0].shape
    rows, cols = np.triu_indices(k)
    fourth = np.zeros((rows.size, rows.size))
    step = max(1, _BLOCK_ROWS // t_len)
    block = np.empty((rows.size, min(step, n_firms) * t_len))
    ones = np.ones(t_len)
    for lo in range(0, n_firms, step):
        hi = min(lo + step, n_firms)
        # the pairs (0, j) come first and column 0 is the constant 1, so
        # rows 0..k-1 of the pair products are the centered columns d
        p = block[:, :(hi - lo) * t_len]
        p[0] = 1.0
        for j, (src, mean) in enumerate(zip(sources, means), start=1):
            np.subtract(src[lo:hi], mean, out=p[j].reshape(hi - lo, t_len))
        start = k
        for i in range(1, k):
            np.multiply(p[i], p[i:k], out=p[start:start + k - i])
            start += k - i
        # each firm's sum over its rows, as a matvec: 2-3x faster than .sum()
        s = (p.reshape(-1, t_len) @ ones).reshape(rows.size, hi - lo)
        fourth += s @ s.T
    fourth /= n_firms * t_len**2
    pair = np.empty((k, k), dtype=np.intp)
    pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
    return fourth[np.ix_(pair.ravel(), pair.ravel())]


def _moments_from(panel, first: int, names) -> _CrossMoments:
    """The panel's cross-moments, computed once per lag depth, over the
    periods where a residual defined from period ``first`` on meets every
    column of ``names``; a panel too short for that depth raises."""
    lags = max([first] + [_parse_name(name)[1] for name in names])
    if lags >= panel.spec.n_periods:
        raise ValidationError(
            "not enough periods for the requested instrument lags",
            field="n_periods")
    return cached(panel, lags, lambda: _accumulate_moments(panel, lags))
