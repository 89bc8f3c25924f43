"""Log-domain arithmetic, accurate summation and scalar root finding.

Everything here is elementary numerics: stable log-space differences,
the log-sum-exp, accurate summation, and the safeguarded Newton root
finding of the saddle-point solve, inside a bracket its caller found.
No physics enters this module.  The searches that evaluate a function on
many points at once (the window search's maximum and crossings, and the
saddle-point bracket) live in ``distribution``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

LN2 = math.log(2.0)

# the Newton solve stops at this relative step; after _MAX_NEWTON_ITER steps it raises
_NEWTON_REL_TOL = 1e-13
_MAX_NEWTON_ITER = 200


def _finish(e_arr, out):
    """Return ``out`` as a float when the energy array ``e_arr`` is 0-d."""
    return float(out) if e_arr.ndim == 0 else out


def _float_or_array(value):
    """``value`` as a Python float when it is a number or 0-d, else as a float array."""
    if isinstance(value, float):   # a Newton step's energy: skip numpy's overhead
        return float(value)
    arr = np.asarray(value, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def _on_half_line(e_arr, closed, formula, fill):
    """``formula`` at the energies above 0 (or at it, when ``closed``), -inf elsewhere.

    When every energy is inside, as for every probe of an overlap piece,
    formula is applied to ``e_arr`` itself and nothing is masked.
    Otherwise it is applied to e_arr with the outside energies replaced by
    ``fill``, and its values there become -inf; inside, both ways give
    bitwise equal values.  A NaN energy is outside.  Returns a float when
    e_arr is 0-d.
    """
    least = e_arr.min(initial=math.inf)  # NaN when any energy is NaN
    all_inside = least >= 0.0 if closed else least > 0.0
    if all_inside:
        out = formula(e_arr)
    else:
        inside = e_arr >= 0.0 if closed else e_arr > 0.0
        out = np.where(inside, formula(np.where(inside, e_arr, fill)), -np.inf)
    return _finish(e_arr, out)


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
    A list, as of a build's per-segment integrals, is reduced in Python.
    """
    if isinstance(values, list):
        m = max(values)
        return m + math.log(math.fsum(math.exp(v - m) for v in values)) if math.isfinite(m) else m
    values = np.asarray(values, dtype=float)
    m = float(np.max(values))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.exp(values - m).sum()))


def compensated_sum(values) -> float:
    """Accurate sum of a float array.

    Pairwise sums of blocks of 4096 values (ndarray.sum, whose rounding
    grows like log n) are combined by math.fsum: a few ulps, without the
    40 ns a value of fsum over every value.
    """
    arr = np.asarray(values, dtype=float).ravel()
    return math.fsum(np.add.reduceat(arr, np.arange(0, arr.size, 4096)).tolist())


def newton_bisect_root(g, dg, lo: float, hi: float) -> float:
    """Root of g inside the bracket [lo, hi], Newton steps safeguarded by bisection.

    Raises ``ConvergenceError`` when ``_MAX_NEWTON_ITER`` steps leave the
    step above its tolerance.
    """
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
    for _ in range(_MAX_NEWTON_ITER):
        gx = g(x)
        if gx == 0.0:
            return x
        if (gx < 0.0) == (ga < 0.0):
            a, ga = x, gx
        else:
            b, gb = x, gx
        d = dg(x)
        x_new = x - gx / d if d != 0.0 else 0.5 * (a + b)
        # converged before the bracket check, which a step onto the end g just moved rejects
        if abs(x_new - x) <= _NEWTON_REL_TOL * max(abs(x_new), 1e-300):
            return x_new
        if not (min(a, b) < x_new < max(a, b)):
            x_new = 0.5 * (a + b)
            if abs(x_new - x) <= _NEWTON_REL_TOL * max(abs(x_new), 1e-300):
                return x_new
        x_last, x = x, x_new
    raise ConvergenceError("Newton solve not converged after %d steps: bracket [%r, %r], "
                           "last step %r -> %r" % (_MAX_NEWTON_ITER, a, b, x_last, x))

