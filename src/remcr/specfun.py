"""Log-space special functions for the analytic crossing-rate formulas.

The densities and survival functions here can span hundreds of orders of
magnitude over a threshold sweep, so all magnitudes are carried as logarithms
and exponentiated only at the very end.  The densities come as logarithms
only (gamma_logpdf, ncx2_logpdf): Rice's formula in remcr.lcr adds its own
log factor before it exponentiates.  The primitives are plain numpy and
`math`:
  - log-gamma is math.lgamma;
  - log I_nu comes from Debye's uniform asymptotic expansion at orders of 40
    and above, and from the downward ratio recurrence below that;
  - the regularized upper incomplete gamma Q(a, y) is the ascending series
    below y = a + 1 and Lentz's continued fraction above it;
  - the noncentral chi-square survival function is its Poisson mixture of
    incomplete gammas, each sum built from one of them by the exact
    recurrence in the shape.
Only bessel_j0, which no study reaches, imports scipy.special (on its first
call), so the studies never load it.

The other functions raise ValueError on a NaN argument or parameter.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bessel_j0",
    "log_bessel_i",
    "gamma_logpdf",
    "gamma_sf",
    "ncx2_logpdf",
    "ncx2_sf",
]


def _result(out, x):
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def _not_nan(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError(f"{name} requires x that is not NaN")
    return arr


def bessel_j0(x):
    """Bessel function of the first kind, order zero.  Vectorized.

    Delegated to scipy.special, imported on the first call: only
    remcr.lcr.aggregate_acf uses it, and no study does.
    """
    from scipy import special as _sp

    arr = np.asarray(x, dtype=float)
    return _result(_sp.j0(arr), x)


def _debye_polynomials(count: int) -> list[np.ndarray]:
    # Coefficients (in powers of p) of Debye's u_0 .. u_{count-1} (DLMF
    # 10.41.9): u_0 = 1 and
    #   u_{k+1}(p) = p^2 (1 - p^2) u_k'(p) / 2 + (1/8) int_0^p (1 - 5t^2) u_k(t) dt.
    polys = [[1.0]]
    for _ in range(count - 1):
        u = polys[-1]
        nxt = [0.0] * (len(u) + 3)
        for n, c in enumerate(u):
            nxt[n + 1] += 0.5 * n * c + c / (8 * (n + 1))
            nxt[n + 3] -= 0.5 * n * c + 5 * c / (8 * (n + 3))
        polys.append(nxt)
    return [np.array(u) for u in polys]


# Debye's expansion is used at orders from _DEBYE_ORDER up.  There the term
# after the last one kept, max_p |u_13(p)| / 40^13, is below 1e-19.
_DEBYE_ORDER = 40.0
_DEBYE_U = _debye_polynomials(13)


def _log_i_debye(order: float, x: np.ndarray) -> np.ndarray:
    # DLMF 10.41.3 with z = x/order, written in r = hypot(order, x) and
    # p = order/r:
    #   log I = r - order*asinh(order/x) - log(2*pi*r)/2 + log(sum_k u_k(p)/order^k),
    # since log((order + r)/x) = asinh(order/x).  x > 0 and finite.
    r = np.hypot(order, x)
    coef = np.zeros(len(_DEBYE_U[-1]))
    for k, u in enumerate(_DEBYE_U):
        coef[: len(u)] += u / order**k
    series = np.polyval(coef[::-1], order / r)
    return r - order * np.arcsinh(order / x) - 0.5 * np.log(2.0 * math.pi * r) + np.log(series)


# Below this x, log I_nu(x) = nu*log(x/2) - lnGamma(nu+1) + log1p(x^2/(4(nu+1)))
# to rounding: the next term of the ascending series is under 2e-17 of the
# last one kept.
_SMALL_X = 1e-8


def log_bessel_i(order: float, x) -> np.ndarray:
    """log of the modified Bessel function I_order(x), order > -1, x >= 0.

    I is positive there, and the orders (dof - 2)/2 of the noncentral
    chi-square densities with dof > 0 are all inside.  Returns an array of
    logarithms, so that I values far beyond float range (x of several
    hundred) stay usable inside log-space density formulas.  At x = 0 the
    limit is 0, -inf or +inf as the order is zero, positive or negative,
    and below x = 1e-8 two terms of the ascending series are exact.

    At orders of 40 and above Debye's uniform asymptotic expansion gives the
    value directly.  Below, the expansion is taken at mu = order + n >= 40
    and mu + 1 (n an integer), and the ratio recurrence
    I_{k-1}/I_k = 2k/x + I_{k+1}/I_k runs down to the order; it is stable in
    that direction and its terms stay positive since every k > 0.
    """
    if not order > -1.0:
        raise ValueError("log_bessel_i requires order > -1")
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError("log_bessel_i requires x >= 0")
    out = np.empty_like(x)
    out[x == 0.0] = 0.0 if order == 0.0 else (-math.inf if order > 0.0 else math.inf)
    out[x == math.inf] = math.inf
    small = (x > 0.0) & (x < _SMALL_X)
    xs = x[small]
    out[small] = (
        order * (np.log(xs) - math.log(2.0))
        - math.lgamma(order + 1.0)
        + np.log1p(0.25 * xs * xs / (order + 1.0))
    )
    pos = (x >= _SMALL_X) & (x < math.inf)
    xp = x[pos]
    if order >= _DEBYE_ORDER:
        out[pos] = _log_i_debye(order, xp)
        return out
    steps = math.ceil(_DEBYE_ORDER - order)
    mu = order + steps
    total = _log_i_debye(mu, xp)
    ratio = np.exp(_log_i_debye(mu + 1.0, xp) - total)  # I_{mu+1} / I_mu
    for n in range(steps, 0, -1):
        step = 2.0 * (order + n) / xp + ratio  # I_{order+n-1} / I_{order+n}
        total += np.log(step)
        ratio = 1.0 / step
    out[pos] = total
    return out


# Relative size of the tail left out of each sum below: under rounding.
_EPS = 1e-17
# Terms a sum takes per numpy step.
_BLOCK = 64


def _stirling_error(a):
    # lnGamma(a+1) - (a ln a - a + ln(2 pi a)/2), from its asymptotic series
    # above 15 (Loader 2000), where five terms are exact to rounding.
    a = np.atleast_1d(np.asarray(a, dtype=float))
    aa = a * a
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * aa)) / aa) / aa) / aa) / a
    small = a <= 15.0
    if np.any(small):
        out[small] = [
            math.lgamma(v + 1.0) - (v + 0.5) * math.log(v) + v - 0.5 * math.log(2.0 * math.pi)
            for v in a[small].tolist()
        ]
    return out


def _log_gamma_term(a, y):
    """log(y^a e^-y / Gamma(a+1)) for a > 0 and y > 0, broadcast over both,
    written as
        -(a ln(a/y) + y - a) - ln(2 pi a)/2 - _stirling_error(a)
    so that its error is a few ulp of its own size, not of a ln y: where
    |a - y| < (a + y)/10 the bracket is summed as Loader's series
        (a - y) v + 2a (v^3/3 + v^5/5 + ...),  v = (a - y)/(a + y),
    whose terms fall by v^2 < 1/100, so ten terms are exact to rounding."""
    a0 = np.asarray(a, dtype=float)
    a, y = np.broadcast_arrays(a0, np.asarray(y, dtype=float))
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        ratio = a / y
        inside = (ratio > 0.0) & (ratio < math.inf)
        bd0 = a * np.where(inside, np.log(ratio), np.log(a) - np.log(y)) + y - a
    near = np.abs(a - y) < 0.1 * (a + y)
    if np.any(near):
        diff = a[near] - y[near]
        v = diff / (a[near] + y[near])
        total = diff * v
        odd = 2.0 * a[near] * v
        for j in range(1, 11):
            odd = odd * v * v
            total = total + odd / (2 * j + 1)
        bd0[near] = total
    return -bd0 - 0.5 * np.log(2.0 * math.pi * a0) - _stirling_error(a0)


def _log_pq(a: float, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """logs of the regularized incomplete gammas P(a, y) and Q(a, y) = 1 - P,
    a > 0, for finite y > 0.

    Below y = a + 1, P comes from the ascending series
        P = y^a e^-y / Gamma(a+1) * sum_n y^n / ((a+1)...(a+n)),
    whose terms fall geometrically there; the sum stops once the last term
    times y/(a+n+1-y), a bound on the rest, is below _EPS of the sum.  From
    y = a + 1 up, Q comes from Legendre's continued fraction
        Q = a y^a e^-y / Gamma(a+1) / (y+1-a - 1(1-a)/(y+3-a - 2(2-a)/(y+5-a - ...))),
    evaluated by the modified Lentz method until every factor is within
    1e-15 of 1.  Each keeps its relative accuracy however small it gets; the
    other is log1p of minus it, and it is below about 0.9 there, so the
    subtraction costs at most a digit.
    """
    log_p = np.empty_like(y)
    log_q = np.empty_like(y)
    low = y < a + 1.0
    ys = y[low]
    if ys.size:
        total = np.ones_like(ys)
        term = np.ones_like(ys)
        n = 0
        while True:
            steps = ys[:, None] / (a + np.arange(n + 1, n + _BLOCK + 1))
            terms = term[:, None] * np.cumprod(steps, axis=1)
            total += terms.sum(axis=1)
            term = terms[:, -1]
            n += _BLOCK
            if np.all(term * ys <= _EPS * total * (a + n + 1.0 - ys)):
                break
        log_p[low] = _log_gamma_term(a, ys) + np.log(total)
        log_q[low] = np.log1p(-np.exp(log_p[low]))
    yc = y[~low]
    if yc.size:
        b = yc + 1.0 - a
        c = np.full_like(yc, math.inf)
        d = 1.0 / b
        frac = d
        i = 0
        while True:
            i += 1
            an = -i * (i - a)
            b = b + 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            delta = d * c
            frac = frac * delta
            if np.all(np.abs(delta - 1.0) <= 1e-15):
                break
        log_q[~low] = _log_gamma_term(a, yc) + math.log(a) + np.log(frac)
        log_p[~low] = np.log1p(-np.exp(log_q[~low]))
    return log_p, log_q


def gamma_logpdf(x, shape: float, rate: float):
    """log of the gamma density (shape/rate parameterization, mean
    shape/rate) at x > 0:
        shape*ln(rate) + (shape-1)*ln(x) - rate*x - lnGamma(shape).
    Vectorized over x."""
    if not (shape > 0.0 and rate > 0.0):
        raise ValueError("gamma_logpdf requires shape > 0 and rate > 0")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("gamma_logpdf requires x > 0")
    return shape * math.log(rate) + (shape - 1.0) * np.log(x) - rate * x - math.lgamma(shape)


def gamma_sf(x, shape: float, rate: float):
    """Survival function of the gamma law, the regularized upper incomplete
    gamma Q(shape, rate*x); 1 at x <= 0.  Vectorized over x."""
    if not (shape > 0.0 and rate > 0.0):
        raise ValueError("gamma_sf requires shape > 0 and rate > 0")
    arr = _not_nan(x, "gamma_sf")
    with np.errstate(over="ignore"):
        y = rate * arr
    out = np.where(y > 0.0, 0.0, 1.0)  # Q(shape, 0) = 1, also where y underflows
    mid = (y > 0.0) & (y < math.inf)
    out[mid] = np.exp(_log_pq(shape, y[mid])[1])
    return _result(out, x)


def ncx2_logpdf(x, dof: float, noncentrality: float, scale: float):
    """log of the density of g = (noncentral chi-square with `dof` d.o.f.
    and given noncentrality) / scale at x > 0, with real dof > 0 allowed:
        ln(scale/2) - (noncentrality + scale*x)/2
        + (dof-2)/4 * ln(scale*x / noncentrality)
        + ln I_{(dof-2)/2}( sqrt(noncentrality*scale*x) ),
    which stays finite for extreme arguments.  At zero noncentrality it is
    gamma_logpdf with shape dof/2 and rate scale/2; a tiny positive
    noncentrality lands on that limit smoothly.  Vectorized over x.
    """
    if not (dof > 0.0 and scale > 0.0 and noncentrality >= 0.0):
        raise ValueError("ncx2_logpdf requires dof > 0, scale > 0, noncentrality >= 0")
    if noncentrality == 0.0:
        return gamma_logpdf(x, 0.5 * dof, 0.5 * scale)
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("ncx2_logpdf requires x > 0")
    order = 0.5 * (dof - 2.0)
    logi = log_bessel_i(order, np.sqrt(noncentrality * scale * x))
    return (
        math.log(0.5 * scale)
        - 0.5 * (noncentrality + scale * x)
        + 0.5 * order * (np.log(scale * x) - math.log(noncentrality))
        + logi
    )


# Below these bounds on its log, a survival value is 0.0 in float (under half
# the least subnormal), and a distribution value leaves 1 - it at 1.0 (under
# half an ulp of 1).
_LOG_SF_IS_0 = -750.0
_LOG_CDF_IS_0 = -40.0


def _poisson_mixture(y, a: float, h: float, j: int, log_v, down: bool) -> tuple[np.ndarray, int]:
    """log of sum_k w_k V_k, w_k = Pois(k; h), at each y > 0, summed over
    k = j, j+1, ... with V_k = Q(a + k, y), or over k = j, j-1, ..., 0 with
    V_k = P(a + k, y) when `down`; also the number of terms.

    From V_j = exp(log_v) the other V follow from the exact recurrences
        Q(s+1, y) = Q(s, y) + g(s),  P(s-1, y) = P(s, y) + g(s-1),
        g(s) = y^s e^-y / Gamma(s+1),
    which add positive steps, _BLOCK terms a block.  The weights
    w_k = g(k) at y = h, and each block's first g, come from
    _log_gamma_term; the other g from the log ratio
    log g(s+1) - log g(s) = log y - log(s+1), taken either way.  Each point
    is carried over exp(scale), its largest V or g so far, so that nothing
    overflows and the sum keeps its relative accuracy far below the float
    range.

    The ratio t_{k+1}/t_k = h/(k+1) * Q_{k+1}/Q_k of the terms t_k = w_k Q_k
    falls with k, since Q_{k+1}/Q_k = 1 + g(a+k)/Q_k and the gamma hazard
    falls with the shape; going down, t_{k-1}/t_k = k/h * P_{k-1}/P_k falls
    as k does, the reversed hazard rising with the shape.  So once the last
    ratio r is below 1, the terms not yet summed are at most t r/(1 - r) for
    the last term t, and the sum stops when that is below _EPS of it at
    every point.
    """
    scale = np.asarray(log_v, dtype=float)
    v = np.ones_like(scale)  # V_j over exp(scale)
    total = np.zeros_like(scale)
    log_y = np.log(y)[:, None]
    terms = 0
    sign = -1 if down else 1
    while True:
        n = min(_BLOCK, j + 1) if down else _BLOCK
        k = j + sign * np.arange(n)
        w = np.exp(np.where(k > 0, _log_gamma_term(np.maximum(k, 1.0), h), -h))
        # log g of the step from V_k to the next V; the block's last step is
        # needed only if another block follows
        steps = n if not down or j >= n else n - 1
        shape = a + (k[:steps] - 1.0 if down else k[:steps])
        log_g = np.empty((y.size, n))
        log_g[:, steps:] = -math.inf
        if steps:
            log_g[:, 0] = _log_gamma_term(shape[0], y)
            if down:
                log_g[:, 1:steps] = np.log(shape[:-1]) - log_y
            else:
                log_g[:, 1:steps] = log_y - np.log(shape[:-1] + 1.0)
            np.cumsum(log_g[:, :steps], axis=1, out=log_g[:, :steps])
        new_scale = np.maximum(scale + np.log(v), log_g.max(axis=1))
        shift = np.exp(scale - new_scale)
        scale = new_scale
        g = np.exp(log_g - scale[:, None])
        vs = np.empty_like(g)  # V over the block's k, over exp(scale)
        vs[:, 0] = v * shift
        np.cumsum(g[:, :-1], axis=1, out=vs[:, 1:])
        vs[:, 1:] += vs[:, :1]
        t = vs * w
        total = total * shift + t.sum(axis=1)
        terms += n
        if steps < n:  # the block ended at k = 0
            break
        j += sign * n
        r = (k[-2] / h if down else h / k[-1]) * vs[:, -1] / vs[:, -2]
        with np.errstate(divide="ignore", invalid="ignore"):
            rest = t[:, -1] * r / (1.0 - r)
        if np.all((r < 1.0) & (rest <= _EPS * total)):
            break
        v = vs[:, -1] + g[:, -1]
    return scale + np.log(total), terms


def _ncx2_log_sf(y: np.ndarray, a: float, h: float) -> tuple[np.ndarray, int]:
    """log SF of the Poisson mixture sum_j w_j Q(a + j, y), w_j = Pois(j; h),
    for finite y > 0, a > 0, h > 0; also the number of terms summed.

    At and above the mean, y >= a + h, it sums the Q terms upward from
    j0 = floor(h - sqrt(82 h)) + 1 (or 0).  Below, it sums the distribution
    function sum_j w_j P(a + j, y) downward from J = ceil(h + sqrt(82 h) + 28)
    and returns log1p of minus it, so that a survival value near 1 is exact
    to rounding.  The terms left out before the first are at most its V times
    the Poisson tail beyond it, below exp(-41) by the Chernoff bounds
    exp(-d^2/(2h)) and exp(-d^2/(2(h + d/3))) on the lower and upper tail at
    distance d from h, while the sum is at least half that V.

    Points are not summed where the Chernoff bound on log SF (u > 1) or on
    log CDF (u < 1), its minimum over u,
        y (1/u - 1) + h (u - 1) + a ln u,  u = 2y / (a + sqrt(a^2 + 4hy)),
    puts the answer at 0.0 or 1.0 in float: below _LOG_SF_IS_0 or
    _LOG_CDF_IS_0.  This keeps both sums within O(sqrt(h)) terms of the
    Poisson mode.
    """
    out = np.zeros_like(y)
    half_root = 0.5 * (a + np.hypot(a, 2.0 * math.sqrt(h) * np.sqrt(y)))
    u = y / half_root
    with np.errstate(divide="ignore"):  # u = 0 where y is subnormal: SF 1
        bound = half_root - y + h * (u - 1.0) + a * np.log(u)
    upper = y >= a + h
    out[upper & (bound <= _LOG_SF_IS_0)] = -math.inf
    rows = upper & (bound > _LOG_SF_IS_0)
    j0 = max(0, math.floor(h - math.sqrt(82.0 * h)) + 1)
    _, log_q = _log_pq(a + j0, y[rows])
    out[rows], terms = _poisson_mixture(y[rows], a, h, j0, log_q, down=False)
    # Downward over P: an upward Q sum rounds SF near 1 up and down, not monotone.
    rows = ~upper & (bound > _LOG_CDF_IS_0)
    j1 = math.ceil(h + math.sqrt(82.0 * h) + 28.0)
    log_p, _ = _log_pq(a + j1, y[rows])
    log_cdf, terms_down = _poisson_mixture(y[rows], a, h, j1, log_p, down=True)
    out[rows] = np.log1p(-np.exp(log_cdf))
    return out, terms + terms_down


def ncx2_sf(x, dof: float, noncentrality: float, scale: float):
    """Survival function of the scaled noncentral chi-square above.

    The Poisson mixture of central chi-square tails,
        SF(x) = sum_j w_j * Q(dof/2 + j, scale*x/2),  w_j = Pois(j; h),
    h = noncentrality/2, summed from one incomplete gamma by its recurrence
    in the shape (see _ncx2_log_sf), so that it keeps its relative accuracy
    far into the upper tail, down to the float underflow; 1 at x <= 0.  At
    zero noncentrality it is gamma_sf with shape dof/2 and rate scale/2.  The
    work grows as sqrt(h).  Vectorized over x.
    """
    if not (dof > 0.0 and scale > 0.0 and noncentrality >= 0.0):
        raise ValueError("ncx2_sf requires dof > 0, scale > 0, noncentrality >= 0")
    half = 0.5 * noncentrality
    if half == 0.0:  # also where a subnormal noncentrality halves to 0
        return gamma_sf(x, 0.5 * dof, 0.5 * scale)
    arr = _not_nan(x, "ncx2_sf")
    with np.errstate(over="ignore"):
        y = 0.5 * scale * arr
    out = np.where(y > 0.0, 0.0, 1.0)
    mid = (y > 0.0) & (y < math.inf)
    out[mid] = np.minimum(np.exp(_ncx2_log_sf(y[mid], 0.5 * dof, half)[0]), 1.0)
    return _result(out, x)
