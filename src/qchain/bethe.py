"""The Bethe equations at a set of roots: the root validator's last check.

bae_residuals_by_form evaluates both forms of the equations, in z on the
roots of Q and in w on their Moebius images, in the fixed point of
fixedpoint.py at the roots' scale F, as roots.find_roots stored them.  The
anisotropy enters through explicit exp and sinh constants (_constants),
not through the exact pipeline's cyclotomic shortcuts, so the check stays
independent of them.  Where the root set allows, it visits one root per
orbit of Q's two symmetries (symmetry.py) and reads the other members'
residuals from the same numbers; its docstring derives those identities
and every term of the rounding bound.  roots.py re-exports it beside the
other measurements.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import mpmath

from .fixedpoint import Measured, _mul, _product, _scaled_mul, _to_fixed
from .symmetry import _orbits, _partner_gap, _reject_coincident

if TYPE_CHECKING:
    from .roots import RootSet


def _bethe_form(roots, M: int, bits: int, n: int, factor_error: int) -> Measured:
    """Worst |(a/b)^M - num/den| over the roots and the partners named, as a
    Measured with the bound that bae_residuals_by_form derives (e =
    factor_error).

    roots gives per visited root its left-hand base a/b (b None for b = 1),
    the factors of num and of den, the first of each an exact start, all in
    fixed point at 2^-bits, and whether the residual |X| / |a^M num| of
    other members of its orbit is read from the same numbers.
    """
    keep = bits + 1
    top, bottom = 0, 1
    spread = None
    low = keep  # the bit length of 2^bits
    for a, b, nums, dens, mirrored in roots:
        nr, ni, ne, low_n = _product(nums, bits)
        dr, di, de, low_d = _product(dens, bits)
        pr, pi, pe, low_a = _product([a] * M, bits)
        qr, qi, qe, low_b = (1 << bits, 0, -bits, keep) if b is None else _product([b] * M, bits)
        low = min(low, low_n, low_d, low_a, low_b)
        x1r, x1i, e1 = _scaled_mul(pr, pi, pe, dr, di, de, keep)
        x2r, x2i, e2 = _scaled_mul(qr, qi, qe, nr, ni, ne, keep)
        e = min(e1, e2)
        xr = (x1r << e1 - e) - (x2r << e2 - e)
        xi = (x1i << e1 - e) - (x2i << e2 - e)
        square = xr * xr + xi * xi
        size = max(
            (abs(x1r) | abs(x1i)).bit_length() + e1, (abs(x2r) | abs(x2i)).bit_length() + e2
        )
        divisors = [_scaled_mul(qr, qi, qe, dr, di, de, keep)]  # Y = b^M den
        if mirrored:
            divisors.append(_scaled_mul(pr, pi, pe, nr, ni, ne, keep))  # a^M num
        for yr, yi, ey in divisors:
            num, den = square, yr * yr + yi * yi
            if not den:
                raise ZeroDivisionError("Bethe-equation denominator vanishes")
            if e > ey:
                num <<= 2 * (e - ey)
            else:
                den <<= 2 * (ey - e)
            if num * bottom > top * den:
                top, bottom = num, den
            gap = size - ((abs(yr) | abs(yi)).bit_length() + ey)
            spread = gap if spread is None else max(spread, gap)
    error = None if 16 * n * factor_error > 1 << low else (192 * n * factor_error, spread - low)
    return Measured.from_square(top, bottom, bits, error)


@functools.lru_cache(maxsize=None)
def _constants(L: int, bits: int) -> tuple[tuple[int, int], ...]:
    """A = exp(2 s eta), B = exp(2 eta) and sinh of eta, (2s+1) eta, (2s-1) eta,
    eta = -(L-1) pi i / L, 2s = L - 2, in fixed point at 2^-bits.

    mpmath evaluates them at bits + 64, which for L < 2^40 errs by far less
    than a unit 2^-bits; truncation adds less than 1.5, so each is within 2
    units.  |A| = |B| = 1 and each sinh of an imaginary argument is at most 1.
    """
    with mpmath.workprec(bits + 64):
        eta = mpmath.mpc(0, -(L - 1)) * mpmath.pi / L
        values = (
            mpmath.exp((L - 2) * eta),
            mpmath.exp(2 * eta),
            mpmath.sinh(eta),
            mpmath.sinh((L - 1) * eta),
            mpmath.sinh((L - 3) * eta),
        )
        return tuple(_to_fixed(v, bits) for v in values)


def _scale_bound(points: list[tuple[int, int]], bits: int) -> int:
    """m, the least power of two with m >= 1 and m > |x| for every point."""
    size = 0
    for xr, xi in points:
        size |= abs(xr) | abs(xi)
    return 1 << max(0, size.bit_length() - bits + 1)


def bae_residuals_by_form(rs: RootSet) -> dict:
    """Worst Bethe-equation residual over all roots, for each form.

    z-form, per root j (blank product for p = 1):

        ((z_j A - 1)/(z_j - A))^M = prod_(k!=j) (z_j B - z_k)/(z_j - z_k B)

    with A = exp(2 s eta), B = exp(2 eta), eta = -(L-1) pi i / L.  w-form,
    on the Moebius images, with an overall sign (-1)^(p-1) on the product:

        w_j^M = (-1)^(p-1) prod_(k!=j)
                (sh w_j w_k - sp w_j + sm w_k + sh) /
                (sh w_j w_k - sp w_k + sm w_j + sh)

    where sh, sp, sm are sinh of eta, (2s+1) eta, (2s-1) eta.  Each form
    returns a Measured; the worst residual of a root set is the max of the
    two.

    Everything runs in fixed point at the roots' scale F = rs.bits, on the
    stored roots as they are.  Roots closer than 2^-(F//2) are rejected
    first: a near-pair pass in doubles flags every pair that close, and
    each flagged pair's squared distance is compared exactly
    (_reject_coincident).  Per root the residual is |X| / |Y| with
    X = a^M den - b^M num and Y = b^M den, the powers and products keeping
    F + 1 significant bits and an exponent (_product); one division, taken
    at the end on the worst |X|^2 / |Y|^2.

    Orbits.  Where every stored (re, im) has (re, -im) stored (an exact set
    lookup, _conjugate_closed), and the inversion partner map pi (j to the
    stored root nearest 1/z_j, RootSet.inverses) is an involution that
    commutes with conjugation and passes root-inversion's tolerance (its
    largest gap, rounded up, plus that check's rounding bound, below
    2^-(precision_bits - LOOSE_BITS)), one root with im >= 0 is visited per
    orbit {j, conj j, pi j, conj pi j} (symmetry._orbits), each still with
    factors over all p roots.  Its own residual |X| / |Y| stands for z_j
    and for 1/conj(z_j), and |X| / |a^M num|, one more product and
    quotient, for conj(z_j) and 1/z_j.  Where the partner map fails, the
    orbits are the conjugate pairs, (p + r)/2 of them for r real roots;
    where the set is not closed under conjugation, every root is visited
    on its own and no partner is read (the all-roots loop).

    The identities, on roots closed under both maps.  Conjugation: as
    |A| = |B| = 1, (conj(z) A - 1)/(conj(z) - A) = 1/conj((z A - 1)/(z - A)),
    and each factor ratio at conj(z_j), (conj(z_j) B - conj(z_k))/(conj(z_j)
    - conj(z_k) B), is 1/conj of that at z_j: both sides at conj(z_j) are
    the conjugate-inverses of their values at z_j, so there the residual is
    |b^M/a^M - den/num| = |X| / |a^M num|.  Inversion: (A/z - 1)/(1/z - A)
    = (A - z)/(1 - A z) = 1/((z A - 1)/(z - A)), and (B/z_j - 1/z_k)/(1/z_j
    - B/z_k) = (z_k B - z_j)/(z_k - z_j B), the inverse of the ratio at
    z_j: both sides at 1/z_j are the inverses of their values at z_j, and
    the residual there is |X| / |a^M num| again.  The two together make
    the sides at 1/conj(z_j) the conjugates of those at z_j, residual
    |X| / |Y|.  In the w-form, w(conj z) = 1/conj(w(z)) for the exact pole
    on the unit circle, and, sh, sp, sm being purely imaginary, the
    numerator factor f and the denominator factor g obey
    f(1/conj(w_j), 1/conj(w_k)) = -conj(g(w_j, w_k)) / conj(w_j w_k);
    w(1/z) = (a/z - 1)/(1/z - a) = 1/w(z) for any pole a, and
    f(1/w_j, 1/w_k) = g(w_j, w_k) / (w_j w_k); each also with f and g
    exchanged.  The divisor cancels in each ratio and the sign (-1)^(p-1)
    is real and its own inverse, so the same holds with a = w_j, b = 1.

    Rounding bound.  In units u = 2^-F the stored roots are within 1.5 of
    the last Newton step's points (find_roots truncated them to F) and the
    constants within 2 (_constants); the bound holds at either.  With m a
    power of two above 1 and every |root| (_scale_bound), a factor of the
    z-form errs by at most e = 7m (z B truncated: 2m + 3; less a root:
    2m + 4.5) and one of the w-form by at most e = 25m^2 (c w truncated:
    5m for c = sh, sp, sm; (sh w_j) w_k truncated, plus sh: 12m^2; plus
    sp w_j and sm w_k: 12m^2 + 10m); the lhs bases err less.  A factor f
    off by e has relative error below 2e/|f|, and each product adds one
    below 1.5 * 2^-F (_scaled_mul).  The bit lengths give
    |x| >= 2^(bits-1), so with low the smallest bit length of a factor, a
    base or 2^F, every one of the n <= 4(p+M) terms of a root is below
    e 2^(2-low), their sum S below n e 2^(2-low), and each of a^M den,
    b^M num and Y has relative error rho <= e^S - 1 <= 2S once S <= 1/4.
    Then |X/Y| is computed to within 2 rho (|a^M den| + |b^M num|) / |Y|,
    which is at most 192 n e 2^(spread - low), spread the largest bit
    position of a^M den or b^M num less that of Y; the bound adds the
    2^(1-F) by which the reported square root may be low.  If S could
    exceed 1/4 the bound is infinite.

    Partner bound.  a^M num is made as Y is, with relative error rho, so
    |X| / |a^M num| is within 192 n e 2^(spread - low) of its exact value
    at the visited root's data, spread now measured against a^M num; the
    bound takes the larger spread.  The identities need data closed under
    the maps, so a member's residual at its stored roots is the formula's
    value at data D + Delta, D the stored roots (z or w) and Delta_k the
    member's stored datum for k mapped back: for conj z, Delta_k = 0 in
    the z-form, as mirrors are exact, and 1/conj(w_conj(k)) - w_k in the
    w-form, as z_to_w truncates each w on its own; for 1/z, Delta_k =
    1/z_pi(k) - z_k and 1/w_pi(k) - w_k; for 1/conj z at most the sum of
    the two, as |conj(w_conj(pi k)) - w_k| <= |w_conj(pi k) -
    1/conj(w_pi(k))| + |1/w_pi(k) - w_k| and z_conj(k) = conj(z_k)
    exactly.  Each is read as its largest distance in units, the quotient
    as _divide makes it (within 1.5 units), plus 3: delta_z from the
    partner map's gaps max_j |1/z_j - z_pi(j)| (the same max, pi being an
    involution), delta_w the sum of the two w-form gaps (_partner_gap).
    Moving the data by delta units moves a z-form factor or base by at
    most (|B| + 1) delta = 2 delta units, and a w-form factor, bilinear
    with |sh|, |sp|, |sm| <= 1 and |w_k + Delta_k| < m + 1, by at most
    (2m + 3) delta <= 5m delta units, so the forms take e = 7m + 2 delta_z
    and e = 25m^2 + 5m delta_w, each delta 0 where no member reads it.
    """
    params = rs.params
    L, M, p = params.L, params.M, params.p
    F, z, w = rs.bits, rs.z, rs.w
    _reject_coincident(z, F)

    one = 1 << F
    n = 4 * (p + M)
    sign = (-1) ** (p - 1)
    (Ar, Ai), B, sh, sp, sm = _constants(L, F)
    visits, conj, inv = _orbits(rs)
    # how far the data of the members read from a visited root's numbers are
    # from the stored roots; 0 where no root has a partner of that kind
    inverted = inv is not None and any(k != j for j, k in enumerate(inv))
    conjugated = conj is not None and any(k != j for j, k in enumerate(conj))
    delta_z = math.isqrt(max(rs.inverses.gaps)) + 3 if inverted else 0
    delta_w = _partner_gap(w, inv, F, conjugate=False) if inverted else 0
    if conjugated:
        delta_w += _partner_gap(w, conj, F, conjugate=True)

    zb = [_mul(*v, *B, F) for v in z]

    def z_form():
        for j, mirrored in visits:
            (zr, zi), (br, bi) = z[j], zb[j]
            ar, ai = _mul(zr, zi, Ar, Ai, F)
            nums = [(one, 0)] + [(br - kr, bi - ki) for kr, ki in z[:j] + z[j + 1 :]]
            dens = [(one, 0)] + [(zr - cr, zi - ci) for cr, ci in zb[:j] + zb[j + 1 :]]
            yield (ar - one, ai), (zr - Ar, zi - Ai), nums, dens, mirrored

    m = _scale_bound(z, F)
    res_z = _bethe_form(z_form(), M, F, n, 7 * m + 2 * delta_z)

    w_sh = [_mul(*v, *sh, F) for v in w]
    w_sp = [_mul(*v, *sp, F) for v in w]
    w_sm = [_mul(*v, *sm, F) for v in w]

    def w_form():
        for j, mirrored in visits:
            hr, hi = w_sh[j]
            pr, pi = w_sp[j]
            mr, mi = w_sm[j]
            nums, dens = [(sign * one, 0)], [(one, 0)]
            for k, ((wr, wi), (sr, si), (tr, ti)) in enumerate(zip(w, w_sp, w_sm)):
                if k != j:
                    qr, qi = _mul(hr, hi, wr, wi, F)
                    qr += sh[0]
                    qi += sh[1]
                    nums.append((qr - pr + tr, qi - pi + ti))
                    dens.append((qr - sr + mr, qi - si + mi))
            yield w[j], None, nums, dens, mirrored

    m = _scale_bound(w, F)
    res_w = _bethe_form(w_form(), M, F, n, 25 * m * m + 5 * m * delta_w)
    return {"z": res_z, "w": res_w}
