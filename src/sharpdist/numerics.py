"""Log-domain arithmetic and scalar solver primitives.

Everything here is elementary numerics: stable log-space differences,
the log-sum-exp, accurate summation, bracketed scalar maximization and
root finding.  No physics enters this module.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NoMaximumError

LN2 = math.log(2.0)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _finish(energy_in, out):
    """Return ``out`` as a float when the energy argument was a scalar."""
    return float(out) if np.ndim(energy_in) == 0 else out


def log_one_minus_exp(g):
    """ln(1 - exp(g)) for g <= 0, switching branches at -ln 2 for accuracy.

    Near 0 the expm1 branch keeps tiny gaps (down to the ulp of the inputs
    that produced g); exactly at g == 0 the result is -inf, total
    cancellation.
    """
    g_arr = np.asarray(g, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        near = np.log(-np.expm1(np.minimum(g_arr, 0.0)))
        far = np.log1p(-np.exp(np.minimum(g_arr, 0.0)))
    out = np.where(g_arr > -LN2, near, far)
    if out.ndim == 0:
        return float(out)
    return out


def log_sum_exp(values) -> float:
    """ln of the sum of exp(values), shifted by the maximum so nothing overflows.

    A non-finite maximum is returned as is: -inf when every value is -inf.
    """
    values = np.asarray(values, dtype=float)
    m = float(np.max(values))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.exp(values - m).sum()))


def compensated_sum(values) -> float:
    """Accurate sum of a float array.

    Small arrays go straight to math.fsum (exactly rounded).  Large arrays
    are reduced to pairwise block sums first and the blocks are combined by
    fsum, which keeps the error at a few ulps without boxing every element.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size <= 4096:
        return math.fsum(arr)
    partials = np.add.reduceat(arr, np.arange(0, arr.size, 4096))
    return math.fsum(partials)


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       rel_tol: float = 1e-10, max_iter: int = 256):
    """Maximize a unimodal scalar function on [lo, hi].

    Returns (argmax, max value).  The bracket is shrunk until its width is
    below ``rel_tol`` relative to the larger endpoint magnitude (floored at 1).
    """
    a, b = float(lo), float(hi)
    if not b > a:
        return a, f(a)
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if h <= rel_tol * max(abs(a), abs(b), 1.0):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


def bisect_crossing(f: Callable[[float], float], x_above: float, x_below: float,
                    target: float, max_iter: int = 120) -> float:
    """Abscissa where f crosses ``target`` between x_above and x_below.

    Requires f(x_above) >= target > f(x_below); f is assumed monotone on the
    segment.  Returns a point on the low side of the crossing so that the
    interval [x_above, result] contains all of the region above target.
    """
    a, b = float(x_above), float(x_below)
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        if f(m) >= target:
            a = m
        else:
            b = m
    return b


def bracket_root_geometric(g: Callable[[float], float], scale: float,
                           max_doublings: int = 200):
    """Search for a sign change of g on a geometric grid anchored at ``scale``.

    Scans scale * 2**j upward and then scale / 2**j downward.  Returns a
    bracketing pair (lo, hi); raises NoMaximumError if no sign change is
    found within ``max_doublings`` steps in either direction.
    """
    if scale <= 0.0:
        raise ValueError("bracket scale must be positive")

    def scan(factor):
        x_prev = scale
        g_prev = g(x_prev)
        if g_prev == 0.0:
            return x_prev, x_prev
        x = scale
        for _ in range(max_doublings):
            x *= factor
            gx = g(x)
            if gx == 0.0:
                return x, x
            if (gx < 0.0) != (g_prev < 0.0):
                return (min(x_prev, x), max(x_prev, x))
            x_prev, g_prev = x, gx
        return None

    for factor in (2.0, 0.5):
        found = scan(factor)
        if found is not None:
            return found
    raise NoMaximumError(
        "no sign change within %d doublings of the bracket grown from %g"
        % (max_doublings, scale))


def newton_bisect_root(g, dg, lo: float, hi: float,
                       rel_tol: float = 1e-13, max_iter: int = 200) -> float:
    """Root of g inside the bracket [lo, hi], Newton steps safeguarded by bisection."""
    a, b = float(lo), float(hi)
    if a == b:
        return a
    ga, gb = g(a), g(b)
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    if (ga < 0.0) == (gb < 0.0):
        raise ValueError("endpoints do not bracket a root")
    x = 0.5 * (a + b)
    for _ in range(max_iter):
        gx = g(x)
        if gx == 0.0:
            return x
        if (gx < 0.0) == (ga < 0.0):
            a, ga = x, gx
        else:
            b, gb = x, gx
        d = dg(x)
        x_new = x - gx / d if d != 0.0 else 0.5 * (a + b)
        if not (min(a, b) < x_new < max(a, b)):
            x_new = 0.5 * (a + b)
        if abs(x_new - x) <= rel_tol * max(abs(x_new), 1e-300):
            return x_new
        x = x_new
    return x


def central_difference(f: Callable[[float], float], x: float, step: float):
    """Second-order centered estimates of (f'(x), f''(x))."""
    fp = f(x + step)
    fm = f(x - step)
    f0 = f(x)
    first = (fp - fm) / (2.0 * step)
    second = (fp - 2.0 * f0 + fm) / (step * step)
    return first, second
