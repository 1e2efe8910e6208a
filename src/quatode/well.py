"""Bound states of the rectangular well -V + jW on (0, a).

A bound state is an energy in (-sqrt(V^2 + |W|^2), 0) at which the
homogeneous 8x8 matching system of the four decaying exterior modes and the
four interior modes is singular: scatter's barrier system at E < 0, without
its incident wave, at |W| (arg W is a gauge, see scatter).  The mirror
x -> a - x splits it into an even and an odd 4x4 block, and
find_bound_states scans a grid of energies for the states of each block.

At W = 0 the blocks are the textbook square well (H. Prüfer, Math. Ann. 95,
499 (1926)).  With t = k a / 2 and s = kappa a / 2 for the interior and
exterior wave numbers, the n-th even state is where the phase
theta = t - atan2(s, t) equals n pi, and the n-th odd one where it equals
n pi + pi / 2, n = 0, 1, ...  theta rises from -pi / 2 at E = -V with
dtheta/dt = 1 + 1 / s, so the number of states of a parity at or below E is
floor((theta - shift) / pi) + 1, shift 0 or pi / 2.  _phase_roots evaluates
theta over the grid in one numpy pass, and a scan cell in which a count
rises by j holds j states of that parity: two states of one parity in one
cell are two states.  Each is refined inside its cell by a safeguarded
Newton iteration on Python floats (_phase_root).

At |W| != 0 each block is singular where a 2x2 determinant vanishes
(_parity_determinants).  find_bound_states evaluates both over the grid in
one numpy call, and every sign change of the real part between two
neighbouring grid energies, in either block, is one bracket.  One secant
search per bracket (_secant_roots) refines it: a plain Python loop on
_parity_determinant, one entry of the same function on Python complex, since
a search needs only a handful of evaluations.  Each search keeps a sign
bracket [blo, bhi] inside its scan bracket: an iterate inside it with a
finite value replaces the end whose real part has its sign.  A secant step
that would leave the scan bracket goes to the middle of the sign bracket, so
a secant through two points of one sign cannot walk away from the state.  A
search stops when its step is within xtol, when the step's zero lies far off
the real axis (a near miss, not a root), or after _MAX_STEPS steps.

At any W a closed-form residual (_folded_residual, one numpy call on the
sorted energies) then certifies the refined energies and alone decides
acceptance: the smallest singular value of the 8x8 system after an
orthonormal basis of the interior columns' span takes their place, so the
coinciding interior modes at E = -|W| give no state.  It follows from the
same fold and the principal angle between the exterior and the interior
span, in elementwise numpy on unit-size columns, so thick wells do not
overflow.  The scattering module re-exports find_bound_states and
BoundStateSet.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .clode import schrodinger_mode_arrays

if TYPE_CHECKING:   # scatter imports this module on its last line
    from .scatter import PhysicalParams, Regime


@dataclass(frozen=True)
class BoundStateSet:
    energies: tuple[float, ...]
    residuals: tuple[float, ...]
    regimes: tuple[Regime, ...]
    params: PhysicalParams


# At most this many secant steps per search.  On 1580 wells (the 80
# benchmark spectra and 1500 seeded ones of 1-40 states, with |W| zero,
# small and sizable, at grids 250, 400 and 2000; 30,990 searches) 211
# reached it, all in sizable-|W| wells and none at a state: a sign change of
# the real part with no real zero, which the searches bisect.
_MAX_STEPS = 12
# A search stops as a near miss when its complex secant step s has
# |Im s| > 10 |Re s| and |Im s| > _OFF_AXIS xtol: the zero of the secant line
# is then off the real axis by more than 1e-6 max(1, V_max), and the real
# part of the step is within a tenth of that distance of its foot, where the
# search stops.  On the wells above this rule stopped 6536 searches, none at
# a state, and lost none; without it 1925 searches reached _MAX_STEPS, and
# the 80 benchmark spectra took 1461 evaluations instead of 1030.
_OFF_AXIS = 1e6
# At most this many Newton steps per W = 0 state.  On 640 W = 0 wells (150
# seeded ones of 1-300 states at grid 50 and 450 of 1-40 states at grids 250,
# 400 and 2000, hbar in 1e-3..1e3 and m in 0.1..10, and the 40 benchmark
# spectra of seeds 1-10; 32,485 states) a state took at most 4.
_PHASE_STEPS = 12
# pi / 2 = _HALF_PI + _HALF_PI_TAIL to 4e-27: _HALF_PI has 31 significant
# bits, so order * _HALF_PI is exact for order < 2^22, and a state's target
# order pi / 2 is not rounded before theta's t is subtracted from it
_HALF_PI, _HALF_PI_TAIL = 1.5707963267341256, 6.077100506506192e-11
# A W = 0 well of more states than this is a ValueError: the certificate
# takes about 1 kB of working memory per state (135 MB for 99,000 states),
# and the count is known in closed form before any state is refined.
_MAX_STATES = 100_000
# the Prüfer phase's offset of the even and the odd states, (parity, 1)
_SHIFTS = np.array(((0.0,), (0.5 * math.pi,)))
# A refined energy is a state when its residual is below this.
_ACCEPT = 1e-8
_NAN = complex(math.nan, math.nan)


def _folded_residual(es: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """The residual of each energy, in closed form and elementwise: (n,), in [0, 1].

    The residual is the smallest singular value of the 8x8 matching system
    with unit exterior columns and an orthonormal basis of the interior span.
    Both column sets are orthonormal, so it is sqrt(1 - cos theta), theta the
    smallest principal angle between the exterior and the interior span.  The
    mirror x -> a - x is unitary and maps each span onto itself, so theta is
    the smaller of the two parity blocks' angles: the rows at 0 plus or minus
    diag(-1, -1, 1, 1) times the rows at a.  Both blocks have the exterior
    columns (1, 0, kappa, 0) and (0, 1, 0, -i kappa), whose complement N is
    spanned by (-kappa, 0, 1, 0) and (0, -i kappa, 0, 1).  Each interior pair
    u exp(+-g x) gives one column (u alpha, u beta), alpha = 1 +- e and
    beta = g (1 -+ e), e = exp(g a) with Re g <= 0, scaled to unit size, so
    no scale of hbar or a over- or underflows.  With c1 the u- column and q2
    the u+ column orthonormalised against it, sin theta = s is the smaller
    singular value of the 2x2 A = N^H [c1 q2], |det A| / sigma_max(A); a
    block whose u+ column is parallel to c1 counts as s = 1.  The residual is
    s / sqrt(1 + sqrt(1 - s^2)).
    """
    modes = schrodinger_mode_arrays(es, -params.V, -abs(params.W))
    g = np.array((modes.z_minus, modes.z_plus)) * (-math.sqrt(2.0 * params.m) / params.hbar)
    em = np.expm1(g * params.a)
    # (parity, pair, n): value and slope factors of the even and the odd column
    alpha, beta = np.array((2.0 + em, -em)), np.array((-em, 2.0 + em)) * g
    scale = np.hypot(np.abs(alpha), np.abs(beta))
    alpha, beta = alpha / scale, beta / scale
    # (component, pair, n): u- = (1, wfrac), u+ = (wfrac, 1), both of length
    # sqrt(1 + |wfrac|^2)
    length = np.sqrt(1.0 + np.square(np.abs(modes.wfrac)))
    one = np.ones_like(length)
    u = np.array(((one, modes.wfrac), (modes.wfrac, one))) / length
    # (entry, parity, pair, n): the unit columns, then u+'s orthonormalised
    c = np.array((u[0] * alpha, u[1] * alpha, u[0] * beta, u[1] * beta))
    c1, c2 = c[:, :, 0], c[:, :, 1]
    c2 = c2 - (c1.conj() * c2).sum(0) * c1
    rho = np.sqrt(np.square(np.abs(c2)).sum(0))
    kappa = np.sqrt(-2.0 * params.m * es) / params.hbar
    hyp = np.hypot(1.0, kappa)
    with np.errstate(divide="ignore", invalid="ignore"):
        c[:, :, 1] = c2 / rho
        # (parity, column, n): the rows of A
        a0, a1 = (c[2] - kappa * c[0]) / hyp, (c[3] + 1j * kappa * c[1]) / hyp
        det = np.abs(a0[:, 0] * a1[:, 1] - a0[:, 1] * a1[:, 0])
        frob2 = (np.square(np.abs(a0)) + np.square(np.abs(a1))).sum(1)
        smax2 = 0.5 * (frob2 + np.sqrt(np.maximum(frob2 * frob2 - 4.0 * det * det, 0.0)))
        s = np.fmin(det / np.sqrt(smax2), 1.0)
    s = np.where(rho > 0.0, s, 1.0).min(0)
    return s / np.sqrt(1.0 + np.sqrt(1.0 - s * s))


def _parity_determinants(es: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """det A of each parity block over factors without real zeros: (parity, n).

    In _folded_residual's notation, the block is singular where det A = 0,
    here A = N^H C the 2x2 matrix of the two interior columns C (u- and u+,
    not orthonormalised) against the complement N of the exterior span.
    This returns the Schur complement A00 - A01 A10 / A11 = det A / A11;
    A11 = u+'s row of (beta + i kappa alpha) has no zero below E = -|W|.
    At W = 0 the complement is u-'s factor alone: det A is that times A11,
    whose modulus swings by a decade within a scan step wherever the u+
    pair's phase passes a multiple of 2 pi, and there the secant on det A
    lost states.  Rates are in units of sqrt(2 m) / hbar and the columns are
    not scaled, so no scale of hbar over- or underflows; scaled to unit size,
    the function turned steep where cos(g a / 2) = 0.  Factors without real
    zeros are taken out:
    - the u- column's phase exp(i Im(g) a / 2), so that at W = 0 both
      blocks are real;
    - the odd column's factor z, so it does not vanish at E = -V_max
      (there z- = 0 and the column is 0, or 0/0 at unit size);
    - 1 - wfrac^2 = 2 sigma / (E + sigma), the spurious zero at
      E = -|W| where the two interior pairs coincide.
    """
    modes = schrodinger_mode_arrays(es, -params.V, -abs(params.W))
    z = np.array((modes.z_minus, modes.z_plus))
    za = math.sqrt(2.0 * params.m) * params.a / params.hbar     # g a = -za z
    em = np.expm1(z * -za)
    p, q = 2.0 + em, -em
    alpha, beta = np.array((p, q / z)), np.array((q * -z, -p))
    kalpha = np.sqrt(-es) * alpha
    x, y = beta - kalpha, beta + 1j * kalpha
    t = modes.wfrac * modes.wfrac
    with np.errstate(divide="ignore", invalid="ignore"):
        schur = x[:, 0] - t * x[:, 1] * y[:, 0] / y[:, 1]
        return schur * (np.exp(0.5j * za * z[0].imag) / (1.0 - t))


def _interior_rows(z: complex, odd: bool, za: float, k: float) -> tuple[complex, complex]:
    """x and y of the block's interior column of the pair of rate z, as in
    _parity_determinants, with k = sqrt(-E)."""
    x = z * -za
    h = math.sin(x.imag / 2)     # numpy's complex expm1, term for term
    em = complex(math.expm1(x.real) * math.cos(x.imag) - 2 * h * h,
                 math.exp(x.real) * math.sin(x.imag))
    if odd:
        alpha, beta = -em / z, -2.0 - em
    else:
        alpha, beta = 2.0 + em, em * z
    kalpha = k * alpha
    return beta - kalpha, beta + 1j * kalpha


def _parity_determinant(e: float, odd: bool, V: float, w: float, za: float) -> complex:
    """One entry of _parity_determinants on Python complex: block `odd` at e < 0.

    V is the well's depth, w = |W| and za = sqrt(2 m) a / hbar.  The u+ pair
    is evaluated only at w != 0; at w = 0, t = wfrac^2 = 0.  Returns
    complex(nan, nan) wherever the value is not finite, as at E = -|W|
    exactly, where 1 - t = 0.
    """
    if abs(e) < 1e-150:     # e * e underflows: scale as schrodinger_mode_arrays does
        p = math.ldexp(-1.0, math.frexp(max(-e, w))[1])
        sigma = cmath.sqrt((e / p) * (e / p) - (w / p) * (w / p)) * p
    else:
        sigma = -cmath.sqrt(e * e - w * w)
    k = math.sqrt(-e)
    zm = cmath.sqrt(-V - sigma)
    phase = 0.5 * za * zm.imag
    phase = complex(math.cos(phase), math.sin(phase))
    try:
        x0, y0 = _interior_rows(zm, odd, za, k)
        if w:
            wfrac = -w / (e + sigma)
            t = wfrac * wfrac
            x1, y1 = _interior_rows(cmath.sqrt(-V + sigma), odd, za, k)
            x0, phase = x0 - t * x1 * y0 / y1, phase / (1.0 - t)
    except ZeroDivisionError:
        return _NAN
    f = x0 * phase
    return f if cmath.isfinite(f) else _NAN


def _secant_roots(es: np.ndarray, f: np.ndarray, parity: np.ndarray, n: np.ndarray,
                  xtol: float, params: PhysicalParams) -> np.ndarray:
    """One secant search on the block `parity` in each bracket [es[n], es[n+1]].

    f holds _parity_determinants at es.  Each search is a Python loop over
    _parity_determinant; see the module docstring for its rules.  Returns
    the last iterate of each search, which is not evaluated: a search makes
    at most _MAX_STEPS - 1 scalar evaluations.
    """
    V, w = params.V, abs(params.W)
    za = math.sqrt(2.0 * params.m) * params.a / params.hbar
    es, f = es.tolist(), f.tolist()
    out = []
    for odd, k in zip(parity.tolist(), n.tolist()):
        lo, hi = es[k], es[k + 1]
        x0, f0, x1, f1 = lo, f[odd][k], hi, f[odd][k + 1]
        # the sign bracket: Re f at blo has the sign of Re f at lo, at bhi not
        blo, bhi, neg = lo, hi, math.copysign(1.0, f0.real) < 0.0
        for step in range(_MAX_STEPS):
            if step:    # the previous step's iterate; the last step's is not evaluated
                x0, f0, x1, f1 = x1, f1, x2, _parity_determinant(x2, odd, V, w, za)
                if cmath.isfinite(f1) and blo < x2 < bhi:
                    if (math.copysign(1.0, f1.real) < 0.0) == neg:
                        blo = x2
                    else:
                        bhi = x2
            df = f1 - f0
            s = f1 * ((x1 - x0) / df) if df else _NAN
            x2 = x1 - s.real
            if not lo <= x2 <= hi:
                x2 = 0.5 * (blo + bhi)
            if not (abs(x2 - x1) > xtol
                    and abs(s.imag) <= max(10.0 * abs(s.real), _OFF_AXIS * xtol)):
                break
        out.append(x2)
    return np.array(out)


def _phase_root(order: int, lo: float, hi: float, tlo: float, thi: float,
                V: float, half: float) -> float:
    """The energy in [lo, hi] where theta = order pi / 2, with
    tlo = theta(lo) < order pi / 2 <= thi = theta(hi).

    order is 2 n for the n-th even state and 2 n + 1 for the n-th odd one.

    half = sqrt(m / 2) a / hbar, so t = half sqrt(E + V) and s = half sqrt(-E).
    Newton in E, dtheta/dE = (1 + 1 / s) dt/dE, from the energy whose t
    interpolates theta linearly between the cell's ends (theta - t varies
    slowly); a step that would leave the bracket, which each iterate narrows
    by the sign of theta - order pi / 2, goes to its middle.  Stops after a
    step within 4 ulps of V, at |theta - order pi / 2| within 4 ulps of
    order pi / 2 + pi (its rounding), or after _PHASE_STEPS steps.
    """
    target, tail = order * _HALF_PI, order * _HALF_PI_TAIL
    xtol, gtol = 4.0 * math.ulp(V), 4.0 * math.ulp(target + math.pi)
    rlo, rhi = math.sqrt(lo + V), math.sqrt(hi + V)
    r = rlo + (target - tlo) / (thi - tlo) * (rhi - rlo)
    e = min(max(r * r - V, lo), hi)
    for _ in range(_PHASE_STEPS):
        r, q = math.sqrt(e + V), math.sqrt(-e)
        t = half * r
        g = (t - target) - tail - math.atan2(half * q, t)
        if g < 0.0:
            lo = e
        else:
            hi = e
        x = e - 2.0 * r * g / (half + 1.0 / q)
        if not lo <= x <= hi:
            x = 0.5 * (lo + hi)
        step, e = abs(x - e), x
        if step <= xtol or abs(g) <= gtol:
            break
    return e


def _phase_roots(es: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """The W = 0 states in the scan cells of es, one _phase_root each.

    theta is evaluated over es in one numpy pass; a cell where the count of
    a parity's states rises by j holds the j states whose targets
    n pi + shift its ends enclose.  A well of more than _MAX_STATES states is
    a ValueError.  See the module docstring.
    """
    V = params.V
    # t at E = 0, in an order that is finite where find_bound_states'
    # phase check passed; the well has floor(2 t0 / pi) + 1 states
    t0 = params.a * (math.sqrt(0.5 * params.m) * math.sqrt(V)) / params.hbar
    if 2.0 * t0 / math.pi >= _MAX_STATES:
        raise ValueError(f"the W = 0 well has {math.floor(2.0 * t0 / math.pi) + 1:.6g}"
                         f" states, more than {_MAX_STATES}")
    half = t0 / math.sqrt(V)
    t = half * np.sqrt(es + V)
    theta = t - np.arctan2(half * np.sqrt(-es), t)
    # (parity, n): the count of the parity's states at or below es[n], less one
    below = np.floor((theta - _SHIFTS) / math.pi)
    parity, n = np.nonzero(below[:, :-1] != below[:, 1:])
    cells = np.array((es[n], es[n + 1], theta[n], theta[n + 1],
                      below[parity, n], below[parity, n + 1])).T.tolist()
    roots = []
    for odd, (lo, hi, tlo, thi, klo, khi) in zip(parity.tolist(), cells):
        roots += [_phase_root(2 * k + odd, lo, hi, tlo, thi, V, half)
                  for k in range(int(klo) + 1, int(khi) + 1)]
    return np.array(roots)


def find_bound_states(params: PhysicalParams, grid: int = 2000) -> BoundStateSet:
    """Scan E in (-sqrt(V^2+|W|^2), 0) for singular matching systems.

    At W = 0 the states come from the Prüfer phase (_phase_roots); otherwise
    each sign change of a parity determinant's real part on the grid is
    refined by _secant_roots.  Energies whose residual (_folded_residual) is
    below _ACCEPT are returned in ascending order.
    """
    with np.errstate(over="ignore"):     # abs(W) bit for bit, or inf where it overflows
        wabs = float(np.hypot(params.W.real, params.W.imag))
    if not (0.0 < params.V < math.inf and 0.0 < params.a < math.inf
            and wabs < math.inf and grid >= 3):
        raise ValueError("well needs finite V > 0, a > 0 and |W|, and the scan grid >= 3")
    vmax = math.hypot(params.V, wabs)
    # the modes take E^2 - |W|^2 for |E| up to V_max, and the interior rates
    # sqrt(2 m) z / hbar have |z|^2 <= 2 V_max
    if not vmax * vmax < math.inf:
        raise ValueError(f"well depth sqrt(V^2 + |W|^2) = {vmax:g}: its square overflows")
    if not 2.0 * params.a * math.sqrt(params.m * vmax) / params.hbar < math.inf:
        raise ValueError("well phase 2 a sqrt(m sqrt(V^2 + |W|^2)) / hbar overflows")
    margin = 1e-6 * vmax
    es = np.linspace(-vmax + margin, -margin, grid)
    if wabs:
        f = _parity_determinants(es, params)
        sign = np.signbit(f.real)
        parity, n = np.nonzero(sign[:, :-1] != sign[:, 1:])
        e_star = _secant_roots(es, f, parity, n, 1e-12 * max(1.0, vmax), params)
    else:
        e_star = _phase_roots(es, params)
    e_star = np.sort(e_star)
    res = _folded_residual(e_star, params)
    keep = res < _ACCEPT
    energies, residuals = tuple(e_star[keep].tolist()), tuple(res[keep].tolist())
    from .scatter import Regime     # at call time: scatter imports this module
    regimes = tuple(Regime.SUBW if abs(e) < wabs else Regime.EVANESCENT
                    for e in energies)
    return BoundStateSet(energies=energies, residuals=residuals,
                         regimes=regimes, params=params)
