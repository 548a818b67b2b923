"""Arbitrary-precision root finder and Bethe-equation validator.

This module is the one place where roots are actually computed, and it is
numeric on purpose: nothing here feeds back into the exact pipeline.  Roots
of Q are found on its multiple P = (z-1)^M Q, formed from Q's own integers,
which has 2(N+1) terms where Q has p + 1 and is far better conditioned at
the roots (find_roots).  A simultaneous Aberth iteration (all roots at
once, updates applied in place) runs in doubles as far as its evaluation
noise allows; where its own rounding bounds certify the points it reached,
a ladder of Newton steps at doubling precisions polishes them, else an
Aberth search in fixed point runs first.  The ladder ends at one unit of
the scale F = precision_bits + 128, so the reported residuals measure the
polynomial and the Bethe equations honestly rather than the evaluation
noise.

After the double phase, the search, the polish and the measurements run on
plain Python integers, in the fixed point of fixedpoint.py, which is
several times faster than mpmath's mpc at these sizes; its docstring
states the rounding convention that every bound here starts from.  The
Aberth pair sums run in Python floats, since they merely scale each
Newton correction.  The roots are stored at one scale, F, set once in
find_roots: the last Newton step's points truncated to 2^-F (_rescale),
and their Moebius images (z_to_w) at F.  Every measurement reads them as
stored, at F, and none rescales them: the polynomial residual |Q(z_j)|
(dense Horner on Q's own coefficients), the Bethe-equation residuals, the
root product, the inversion closure and the root sum.  Each of the first
four comes back as a Measured: the residual and an explicit bound on its rounding error,
derived in the function's docstring and computed in integers, so a check
passes only when residual + bound is below its tolerance; a scale too low
for some chain thus turns its checks red rather than hiding an error.
Q's coefficients are rational, so its roots come in conjugate pairs, and
the stored roots keep them bit for bit (truncation toward zero commutes
with negation).  Where every stored (re, im) has (re, -im) stored,
|Q(z_j)| and both Bethe forms visit each pair once, at im > 0, and each
real root; the partner's value follows from numbers already made.  The
root product, the inversion closure and the root sum read every root.
The seeds are made in doubles (cmath); mpmath computes only the constants
exp and sinh of eta, the Moebius pole, the embedding of the exact root sum
and the reported values.

The Bethe equations are evaluated in both variables: the z-form directly on
the roots of Q, and the w-form on their Moebius images, with the anisotropy
entering through explicit exp/sinh calls rather than pre-simplified
constants, so the two forms are independent of the exact pipeline's
cyclotomic shortcuts.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import mpmath

from .cyclotomic import CyclotomicNumber
from .fixedpoint import Measured, _divide, _fixed, _float, _horner, _mul, _product, _scaled_mul
from .fixedpoint import _rescale, _to_fixed
from .qoperator import ChainParams, QPolynomial

if TYPE_CHECKING:
    from .multiple import _Multiple

MIN_ROOT_BITS = 128
MAX_SWEEPS = 200
HANDOVER_BITS = 24


class ConvergenceError(RuntimeError):
    """Aberth iteration did not settle within the sweep cap."""

    def __init__(self, sweeps: int, worst: str):
        super().__init__(f"no convergence after {sweeps} sweeps, worst correction {worst}")
        self.sweeps = sweeps
        self.worst = worst

    def __reduce__(self):
        # args holds only the message, so unpickling (a process pool) needs the fields
        return type(self), (self.sweeps, self.worst)


@dataclass
class RootSet:
    """The roots z of Q and their Moebius images w, each an (re, im) int pair at
    2^-bits, bits the one scale F that find_roots sets and every measurement reads."""

    params: ChainParams
    precision_bits: int
    bits: int
    z: tuple
    w: tuple
    max_poly_residual: Measured
    sweeps: int = 0
    float_sweeps: int = 0
    search_bits: int = 0
    ladder: tuple = ()


def z_to_w(z: tuple[int, int], a: tuple[int, int], bits: int) -> tuple[int, int]:
    """Moebius image w = (z a - 1)/(z - a) of z at 2^-bits, a = exp(-2 pi i / L)
    at 2^-(bits + 64), in fixed point at 2^-bits.

    The product and the division run 64 bits below the unit of z and w, and
    w is truncated toward zero to 2^-bits.  Points closer to the pole a than
    2^-(bits//2) are rejected rather than silently amplified.
    """
    guard = bits + 64
    zr, zi = z[0] << 64, z[1] << 64
    dr, di = zr - a[0], zi - a[1]
    if dr * dr + di * di < 1 << 2 * (guard - bits // 2):
        raise ValueError("z is too close to the Moebius pole")
    nr, ni = _mul(zr, zi, *a, guard)
    return _rescale(_divide(nr - (1 << guard), ni, dr, di, guard), 64)


def _pair_sum(points: list[complex], i: int) -> complex:
    """sum_(j!=i) 1/(z_i - z_j) in Python complex; ZeroDivisionError if two points coincide."""
    x = points[i]
    return sum([1 / (x - y) for y in points[:i]]) + sum([1 / (x - y) for y in points[i + 1 :]])


def _aberth_denominator(nr, ni, i, real, imag, floats, bits) -> tuple[int, int]:
    """1 - N sum_(j!=i) 1/(z_i - z_j) in fixed point at 2^-bits, N = Q/Q' at z_i.

    The sum only scales the correction N, so it is taken in Python complex
    on the float copies of the roots and read into fixed point exactly.  If
    two copies coincide, one is out of float range (nan) or the result is
    not finite, the sum is taken on the integers instead.
    """
    one = 1 << bits
    try:
        m = 1 - complex(nr / one, ni / one) * _pair_sum(floats, i)
        (ar, br), (ai, bi) = m.real.as_integer_ratio(), m.imag.as_integer_ratio()
        return (ar << bits) // br, (ai << bits) // bi
    except (ZeroDivisionError, OverflowError, ValueError):  # inf and nan have no ratio
        pass
    sr = si = 0
    for j, (yr, yi) in enumerate(zip(real, imag)):
        if j != i:
            tr, ti = _divide(one, 0, real[i] - yr, imag[i] - yi, bits)
            sr, si = sr + tr, si + ti
    mr, mi = _mul(nr, ni, sr, si, bits)
    return one - mr, -mi


def _float_corrector(monic: list[Fraction], multiple: _Multiple | None):
    """x -> (N, bound): Q/Q' at x in doubles and a bound on its error, from P
    where _trusted vouches for it, else by Horner's rule on the monic Q.
    Raises OverflowError where a monic coefficient is out of float range.

    Horner's rule in doubles, u = 2^-53, computes Q(x) to within gamma_2p
    sum_k |c_k| |x|^k, gamma_n = n u / (1 - n u) (Higham, Accuracy and
    Stability of Numerical Algorithms, section 5.1), for real data.  A
    complex product errs by at most about twice a real one, and rounding
    each monic coefficient to a double adds u |c_k| |x|^k per term, so
    4 (p+1) u sum_k |c_k| |x|^k bounds the noise, and that over |Q'| bounds
    N's; the sum is taken in the same Horner loop.
    """
    terms = [(c, abs(c)) for c in map(float, reversed(monic[:-1]))]
    noise = 4 * len(monic) * 2.0**-53

    def correction(x: complex):
        if multiple is not None:
            found = multiple.float_correction(x, HANDOVER_BITS)
            if found is not None:
                return found
        r = abs(x)
        v, d, size = 1 + 0j, 0j, 1.0
        for c, a in terms:
            d = d * x + v
            v = v * x + c
            size = size * r + a
        return v / d, noise * size / abs(d)

    return correction


def _float_search(
    monic: list[Fraction], points: list[complex], multiple: _Multiple | None = None
) -> tuple[int, list | None]:
    """Aberth in doubles from points: (sweeps, the points reached), or
    (sweeps, None) where doubles cannot go on and the seeds are kept.

    A root stops moving once its step is below 2^-45 max(1, |z|), or once
    its correction N is within N's own error bound (_float_corrector): the
    computed value then says nothing more of the root's position.  A
    stopped root still counts in the others' pair sums.  The search gives
    up without raising if a monic coefficient or a seed is out of float
    range, a value is not finite, or a division by zero (two points
    coincide, Q' = 0) or an overflow occurs; after MAX_SWEEPS sweeps it
    hands over what it has.
    """
    try:
        correction = _float_corrector(monic, multiple)
    except OverflowError:
        return 0, None
    if not all(map(cmath.isfinite, points)):
        return 0, None
    p = len(points)
    z = list(points)
    moving = [True] * p
    sweeps = 0
    try:
        while any(moving) and sweeps < MAX_SWEEPS:
            sweeps += 1
            for i in range(p):
                if not moving[i]:
                    continue
                x = z[i]
                n, bound = correction(x)
                if abs(n) <= bound:
                    moving[i] = False
                    continue
                step = n / (1 - n * _pair_sum(z, i))
                x -= step
                if not cmath.isfinite(x):
                    return sweeps, None
                z[i] = x
                moving[i] = abs(step) >= 2.0**-45 * max(1.0, abs(x))
    except (ZeroDivisionError, OverflowError):
        return sweeps, None
    return sweeps, z


def _handover_bits(correction, points: list[complex]) -> int:
    """The bits, relative to max(1, |z|), that one more correction certifies
    for every point: -log2 of the worst (|N| + its bound) / max(1, |z|),
    at most 52; 0 unless each such reach is below a quarter of the
    distance to the nearest other point."""
    worst = 0.0
    try:
        for i, x in enumerate(points):
            n, bound = correction(x)
            reach = abs(n) + bound
            others = points[:i] + points[i + 1 :]
            if others and not 4 * reach < min(abs(x - y) for y in others):
                return 0
            worst = max(worst, reach / max(1.0, abs(x)))
    except (ZeroDivisionError, OverflowError):
        return 0
    return 52 if not worst else min(52, int(-math.log2(worst)))


def _fixed_search(fraction, real, imag, floats, S: int, margin: int) -> tuple[int, int]:
    """Aberth in fixed point at 2^-S on real + i imag, in place: (sweeps,
    the bits the roots are good to); see find_roots."""
    p = len(real)
    one = 1 << S
    target = Fraction(1, 1 << 2 * (S - margin))
    stall_floor = Fraction(1, 1 << 96)
    worst = Fraction(1)
    previous = None
    stalled = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        top, bottom = 0, 1
        for i in range(p):
            zr, zi = real[i], imag[i]
            vr, vi, dr, di = fraction(zr, zi, S)
            if vr == vi == 0:
                continue
            if dr == di == 0:
                real[i] += 1 << (S - S // 3)
                floats[i] = _float(real[i], zi, one)
                if top < bottom:
                    top, bottom = 1, 1
                continue
            nr, ni = _divide(vr, vi, dr, di, S)
            mr, mi = _aberth_denominator(nr, ni, i, real, imag, floats, S)
            sr, si = (nr, ni) if mr == mi == 0 else _divide(nr, ni, mr, mi, S)
            zr -= sr
            zi -= si
            real[i], imag[i] = zr, zi
            floats[i] = _float(zr, zi, one)
            size = sr * sr + si * si
            scale = max(one * one, zr * zr + zi * zi)
            if size * bottom > top * scale:
                top, bottom = size, scale
        worst = Fraction(top, bottom)
        if worst < target:
            return sweeps, S - margin
        if worst < stall_floor and previous is not None and 4 * worst > previous:
            stalled += 1
            if stalled >= 3:
                return sweeps, 48
        else:
            stalled = 0
        previous = worst
    with mpmath.workprec(53):
        worst_step = mpmath.sqrt(mpmath.mpf(worst.numerator) / worst.denominator)
        raise ConvergenceError(MAX_SWEEPS, mpmath.nstr(worst_step, 5))


def find_roots(q: QPolynomial, precision_bits: int = 256, seed: int = 0) -> RootSet:
    """All p roots of Q, polished well past precision_bits.

    Initial guesses sit on a circle of radius equal to the p-th root of the
    Cauchy coefficient bound (the roots of these palindromic polynomials
    live in an annulus around the unit circle) with a seed-controlled phase
    offset; the radius comes from the logarithms of the bound's integers,
    so no bound overflows.  Aberth runs in doubles (_float_search), then,
    unless the hand-over below passes, in fixed point (_fixed_search), each
    with a cap of MAX_SWEEPS sweeps; then a Newton ladder polishes each root.

    Q's multiple.  Where P = (z-1)^M Q has fewer nonzero terms than Q (from
    L = 5 on, 2(N+1) against p + 1), every phase takes its Newton
    corrections Q/Q' from P's terms, at O(N + log L) products each, except
    where the evaluation's own rounding bound refuses them, near P's
    M-fold zero at z = 1; Q's dense Horner gives those, and all of them on
    Q's dense path (multiple.py derives the terms, the correction and the
    bound).

    Double phase.  A root stops moving once its correction N is within
    its rounding bound eps (_float_corrector), when the computed value says
    nothing more of its position, or once its step is below 2^-45
    max(1, |z|); stopped roots still count in the others' pair sums.  P is
    evaluated in 1/z where |z| > 1, so p = 416 does not overflow (scaling
    in multiple.py).  The points reached go to fixed point exactly
    (_fixed), or the seeds do, when doubles cannot run (a coefficient or
    seed out of float range, a value not finite, a division by zero).

    Hand-over.  One more correction at each point reached puts a root of Q
    within about |N| + eps of it.  If each such reach is below a quarter of
    the distance to the nearest other point, the least -log2(reach /
    max(1, |z|)) (40 to 49 bits on the CI grids) is what the ladder starts
    from, and no fixed-point sweep runs (_handover_bits), on P or on Q's
    dense path alike.  Otherwise the fixed-point search runs, on the same
    corrections, keeping Aberth's pair sums in doubles (plain Newton from
    the double phase's points merged roots at (11, 8), (31, 6), (41, 6)).

    Search precision.  On P, the monic coefficients are below 2^bits(C),
    C = 1 + max |c_j| over the lower terms, so at 2^-S an evaluation errs
    by up to kappa T 2^bits(C) units at |z| <= 1, and a correction is sound
    to 2^-(S - margin), margin = bits(C) + bits(T (deg + 2T)) + 24, the 24
    for |Q'| |z-1|^M below 1 and the correction's own rounding; on Q's
    dense path margin = bits(Q's Cauchy bound) + bits(p) + 24, the same
    reasoning for p + 1 terms.  At (51, 8) P's margin is 53, Q's 107.  The
    search stops once every step, relative to max(1, |z|), is below
    2^-(S - margin), or when steps below 2^-48 stop halving three sweeps
    running.  So at S = margin + 72 its roots are good to 72 bits, or 48
    after a stall: far inside their Newton basins.

    Newton ladder.  A Newton step from a root good to a bits lands within
    about 2^-2a if it runs at 2a + margin bits or more.  The roots are
    stored and measured at one scale, F = precision_bits + 128, so the last
    step runs at exactly F + margin: from a root good to F/2 bits or more
    it lands within its noise floor 2^-(F + margin - margin), one unit of
    2^-F.  Each earlier step runs at half the next one's good bits plus
    margin, back to the first within reach of the hand-over's bits or the
    search's 72 (or 48).  Each root keeps for the whole ladder the route,
    P or Q, that the rounding-bound test chose at its first step: the test
    is blind to the precision but for dG's 2^-B term, and the root moves
    by under 2^-good after it.  The stored roots are the last step's
    points truncated once to 2^-F (_rescale), so each is within a unit or
    two of a root of Q.  That loses nothing a measurement reads: every
    measurement reads the roots at 2^-F, where a longer ladder would only
    change bits that the truncation drops, and its bound allows each root
    the 1.5 units of that truncation.

    Why F = precision_bits + 128 suffices.  The root checks' tolerances are
    2^-(precision_bits - 40), and 2^-(precision_bits - 24) (1 + max |c_k|)
    for |Q(z_j)|, so one unit 2^-F sits 168 bits under the first and at
    least 152 under the second.  A residual at roots within a couple of
    units of Q's, with its rounding bound, is some number of units that
    grows with p and with the spread of the roots.  At precision_bits = 256
    the largest, the w-form's bound, is 2^72 units at (L, N) = (11, 8),
    2^58 at (21, 4), 2^69 at (31, 6), 2^70 at (41, 6) and 2^83 at (51, 8)
    (p = 76, 85, 188, 253, 416); the z-form's stays below 2^68, |Q|'s below
    2^91 (against the larger tolerance), the product's below 2^16 and the
    inversion's below 2^6.  So at least 85 bits separate residual + bound
    from the tolerance at those points; at (51, 12), p = 612, the w-form's
    bound is 2^102 units and 66 bits remain.  A chain that needed more
    would turn its check red, not pass.

    max_poly_residual is max_j |Q(z_j)| at the stored roots, evaluated by
    _horner at F on Q's coefficients truncated to F, with its rounding
    bound.  In units 2^-F each coefficient is low by less than 1 and each
    Horner step truncates both parts, an error below 1.5 that the
    remaining steps multiply by z^k, so the computed value is within
    2.5 sum_(k<=p) |z|^k <= 2.5 (p+1) max(1, |z|)^p units of |Q(z_j)|;
    max(1, |z|) is rounded up to a multiple of 2^-16, and the bound adds
    the 2 units by which the reported square root may be low.  Where the
    stored roots are closed under conjugation (_conjugate_closed) only
    those with im >= 0 are evaluated: the truncated coefficients are real,
    so |Q(conj z)| = |Q(z)| exactly, and the bound covers both.
    """
    if precision_bits < MIN_ROOT_BITS:
        raise ValueError(f"precision_bits must be >= {MIN_ROOT_BITS}")
    p = q.params.p
    coeffs = q.coefficients()
    lead = coeffs[-1]
    if lead == 0:
        raise ValueError("leading coefficient vanished")
    monic = [c / lead for c in coeffs]
    bound = 1 + max(abs(c) for c in monic[:-1])
    margin = (bound.numerator // bound.denominator).bit_length() + p.bit_length() + 24
    dense_margin = margin
    from .multiple import _multiple  # only root searches compile it

    multiple = _multiple(q)
    if multiple is not None:
        margin = multiple.margin
    S = search_bits = margin + 72

    # the seeds, on the circle of radius bound^(1/p) = 2^(shift + frac), are made
    # in doubles at radius 2^frac and shifted into fixed point, whatever the bound
    log2_radius = (math.log2(bound.numerator) - math.log2(bound.denominator)) / p
    shift = int(log2_radius)
    offset = random.Random(seed).random() * 2 * math.pi / p
    seeds = [cmath.rect(2 ** (log2_radius - shift), 2 * math.pi * k / p + offset) for k in range(p)]
    real = [_fixed(z.real, S + shift) for z in seeds]
    imag = [_fixed(z.imag, S + shift) for z in seeds]

    floats = [_float(zr, zi, 1 << S) for zr, zi in zip(real, imag)]
    float_sweeps, reached = _float_search(monic, floats, multiple)
    good = 0
    if reached is not None:
        floats = reached
        real = [_fixed(z.real, S) for z in reached]
        imag = [_fixed(z.imag, S) for z in reached]
        good = _handover_bits(_float_corrector(monic, multiple), reached)

    # Q/Q' at 2^-bits from the monic Q at up more bits, which its margin needs
    up = max(0, dense_margin - margin)
    truncated = {}

    def dense(zr: int, zi: int, bits: int):
        at = bits + up
        if at not in truncated:
            truncated[at] = [_fixed(c, at) for c in monic]
        return _horner(truncated[at], zr << up, zi << up, at)

    def fraction(zr: int, zi: int, bits: int):
        return (multiple and multiple.fraction(zr, zi, bits)) or dense(zr, zi, bits)

    sweeps = 0
    if good < HANDOVER_BITS:
        sweeps, good = _fixed_search(fraction, real, imag, floats, S, margin)

    F = precision_bits + 128  # the one scale of the stored roots and the measurements
    ladder = [F + margin]
    while ladder[0] - margin > 2 * good:
        ladder.insert(0, (ladder[0] - margin + 1) // 2 + margin)
    on_p = [multiple is not None] * p  # decided per root at the first step
    at = S
    for bits in ladder:
        shift_up, down = max(bits - at, 0), max(at - bits, 0)
        for i in range(p):
            zr, zi = (real[i] << shift_up) >> down, (imag[i] << shift_up) >> down
            found = on_p[i] and multiple.fraction(zr, zi, bits, check=bits == ladder[0])
            if not found:
                on_p[i] = False
                found = dense(zr, zi, bits)
            vr, vi, dr, di = found
            if (vr or vi) and (dr or di):
                sr, si = _divide(vr, vi, dr, di, bits)
                zr -= sr
                zi -= si
            real[i], imag[i] = zr, zi
        at = bits
    z = tuple(_rescale(x, margin) for x in zip(real, imag))

    # |Q| at the stored roots, on Q's coefficients truncated to F
    plain = [_fixed(c, F) for c in coeffs]
    worst = 0
    reach = 1 << 16  # 2^16 max(1, |z_j|), rounded up
    closed = _conjugate_closed(z)
    for zr, zi in z:
        if zi < 0 and closed:
            continue
        vr, vi, _, _ = _horner(plain, zr, zi, F, slope=False)
        worst = max(worst, vr * vr + vi * vi)
        reach = max(reach, math.isqrt((zr * zr + zi * zi) >> (2 * F - 32)) + 1)
    # 2.5 (p+1) (reach / 2^16)^p units
    error = (5 * (p + 1) * reach**p, -16 * p - 1 - F)
    residual = Measured.from_square(worst, 1 << 2 * F, F, error)

    with mpmath.workprec(F + 64):
        pole = _to_fixed(mpmath.expjpi(mpmath.mpf(-2) / q.params.L), F + 64)
    return RootSet(
        params=q.params,
        precision_bits=precision_bits,
        bits=F,
        z=z,
        w=tuple(z_to_w(x, pole, F) for x in z),
        max_poly_residual=residual,
        sweeps=sweeps,
        float_sweeps=float_sweeps,
        search_bits=search_bits,
        ladder=tuple(ladder),
    )


def _conjugate_closed(points) -> bool:
    """Whether each stored (re, im) has (re, -im) stored too, tested exactly."""
    stored = set(points)
    return all((re, -im) in stored for re, im in points)


def _bethe_form(roots, M: int, bits: int, n: int, factor_error: int) -> Measured:
    """Worst |(a/b)^M - num/den| over the roots and the partners named, as a
    Measured with the bound that bae_residuals_by_form derives (e =
    factor_error).

    roots gives per visited root its left-hand base a/b (b None for b = 1),
    the factors of num and of den, the first of each an exact start, all in
    fixed point at 2^-bits, and whether its conjugate partner's residual,
    |X| / |a^M num|, is read from the same numbers.
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


def _constants(L: int, bits: int) -> list[tuple[int, int]]:
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
        return [_to_fixed(v, bits) for v in values]


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
    first, by an exact comparison of squared distances.  Per root the
    residual is |X| / |Y| with X = a^M den - b^M num and Y = b^M den, the
    powers and products keeping F + 1 significant bits and an exponent
    (_product); one division, taken at the end on the worst |X|^2 / |Y|^2.

    Conjugate pairs.  If every stored (re, im) has (re, -im) stored (an
    exact set lookup, _conjugate_closed), only the roots with im >= 0 are
    visited, (p + r)/2 of them for r real roots, each still with factors
    over all p roots; otherwise every root is.  A visited z_j with im > 0
    gives its partner's residual too.  As |A| = |B| = 1,
    (conj(z) A - 1)/(conj(z) - A) = 1/conj((z A - 1)/(z - A)), and the
    set being closed, each factor ratio at conj(z_j), (conj(z_j) B -
    conj(z_k))/(conj(z_j) - conj(z_k) B), is 1/conj of that at z_j: both
    sides at conj(z_j) are the conjugate-inverses of their values at z_j,
    so there the residual is |b^M/a^M - den/num| = |X| / |a^M num|, one
    more product and quotient.  In the w-form w(conj z) = 1/conj(w(z)) for
    the exact pole on the unit circle, and, sh, sp, sm being purely
    imaginary, the numerator factor f and the denominator factor g obey
    f(1/conj(w_j), 1/conj(w_k)) = -conj(g(w_j, w_k)) / conj(w_j w_k) and
    the same with f and g exchanged; the divisor cancels in each ratio and
    the sign (-1)^(p-1) is real, so the same holds with a = w_j, b = 1.

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
    the partner's |X| / |a^M num| is within 192 n e 2^(spread - low) of its
    value at the data the identity reads, spread now measured against
    a^M num; the bound takes the larger spread.  For the z-form those data
    are the stored roots themselves (at the Newton points, the conjugates
    of the partners' points, again within 1.5 units of them).  For the
    w-form they are v_k = 1/conj(w_k') for k' the partner of k, which
    differ from the stored w_k by a few units, as z_to_w truncates each w
    on its own; delta, the largest |w_k - v_k| in units as computed by
    _divide (within 1.5 units), plus 3, bounds that.  The factors are bilinear with |sh|, |sp|, |sm| <= 1
    and |v_k| < m + 1, so moving each w by delta units moves a factor by
    at most (2m + 3) delta <= 5m delta units, and the w-form takes e =
    25m^2 + 5m delta where it reads a partner.
    """
    params = rs.params
    L, M, p = params.L, params.M, params.p
    F, z, w = rs.bits, rs.z, rs.w
    min_gap = 1 << 2 * (F - F // 2)  # (2^-(F//2))^2 at the scale 2^-2F
    for i in range(p):
        xr, xi = z[i]
        for j in range(i + 1, p):
            dr, di = xr - z[j][0], xi - z[j][1]
            if dr * dr + di * di < min_gap:
                raise ValueError(f"roots {i} and {j} coincide")

    one = 1 << F
    n = 4 * (p + M)
    sign = (-1) ** (p - 1)
    (Ar, Ai), B, sh, sp, sm = _constants(L, F)
    closed = _conjugate_closed(z)
    # per root: 0 skipped (im < 0), 1 its own residual, 2 its partner's too
    sides = [1 if not closed or zi == 0 else 2 if zi > 0 else 0 for _, zi in z]

    zb = [_mul(*v, *B, F) for v in z]

    def z_form():
        for j, ((zr, zi), (br, bi)) in enumerate(zip(z, zb)):
            if not sides[j]:
                continue
            ar, ai = _mul(zr, zi, Ar, Ai, F)
            nums = [(one, 0)] + [(br - kr, bi - ki) for kr, ki in z[:j] + z[j + 1 :]]
            dens = [(one, 0)] + [(zr - cr, zi - ci) for cr, ci in zb[:j] + zb[j + 1 :]]
            yield (ar - one, ai), (zr - Ar, zi - Ai), nums, dens, sides[j] == 2

    res_z = _bethe_form(z_form(), M, F, n, 7 * _scale_bound(z, F))

    w_sh = [_mul(*v, *sh, F) for v in w]
    w_sp = [_mul(*v, *sp, F) for v in w]
    w_sm = [_mul(*v, *sm, F) for v in w]

    def w_form():
        for j, (hr, hi) in enumerate(w_sh):
            if not sides[j]:
                continue
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
            yield w[j], None, nums, dens, sides[j] == 2

    m = _scale_bound(w, F)
    delta = 0  # the partners' data v_k against the stored w_k, in units
    if 2 in sides:
        index = {x: k for k, x in enumerate(z)}
        for (wr, wi), (zr, zi) in zip(w, z):
            ur, ui = w[index[zr, -zi]]
            vr, vi = _divide(one, 0, ur, -ui, F)  # 1/conj(w of the partner)
            delta = max(delta, (wr - vr) ** 2 + (wi - vi) ** 2)
        delta = math.isqrt(delta) + 3
    res_w = _bethe_form(w_form(), M, F, n, 25 * m * m + 5 * m * delta)
    return {"z": res_z, "w": res_w}


def root_product_gap(rs: RootSet) -> Measured:
    """|prod z_j - (-1)^p|; the product must match Q(0) = 1.

    The stored roots, at u = 2^-F, are multiplied in order, keeping F + 1
    significant bits (_product).  A root is within 1.5 units of the last
    Newton step's point (find_roots truncated it to F), a relative error
    below 3/|z_j| (|z_j| in units), and each product adds one below
    1.5 * 2^-F; with low the smallest bit length of a root or 2^F, each of
    the 2p terms is below 2^(3-low), their sum S below p 2^(4-low), and the
    product P has relative error rho <= 2S once S <= 1/4.  The gap moves by
    at most |P - P~| <= 2 rho |P~|, which the bit position b of P~ bounds
    by p 2^(7 - low + b); the bound adds 2^(1-F) for the reported square
    root, and is infinite if S could exceed 1/4.
    """
    F, z = rs.bits, rs.z
    p = rs.params.p
    pr, pi, pe, low = _product([(1 << F, 0), *z], F)
    size = (abs(pr) | abs(pi)).bit_length() + pe
    e = min(pe, -F)  # P - (-1)^p exactly, in units 2^e
    gr = (pr << pe - e) - ((-1) ** p << -e)
    gi = pi << pe - e
    error = None if p << 6 > 1 << low else (p, 7 - low + size)
    return Measured.from_square(gr * gr + gi * gi, 1 << -2 * e, F, error)


def inversion_closure_gap(rs: RootSet) -> Measured:
    """How far the root multiset is from being closed under z -> 1/z:
    max_j min_k |1/z_j - z_k|.

    Each 1/z_j is one division at the roots' scale u = 2^-F = 2^-rs.bits,
    and the scan compares exact squared distances.  A stored root is less
    than 1.5 units from the last Newton step's point (find_roots), which
    moves 1/z_j by less than 3 u / |z_j|^2 while |z_j| >= 3u; the division
    rounds each part down, less than 1.5 units more.  Every distance is then
    within 3 4^(F+1-b) + 3 units of its exact value, b the smallest bit
    length of a root, and so is the max of the mins; the bound adds 2 units
    for the reported square root, and is infinite for a root below 4 units.
    """
    F, z = rs.bits, rs.z
    worst = 0
    for zr, zi in z:
        ir, ii = _divide(1 << F, 0, zr, zi, F)
        worst = max(worst, min((ir - kr) ** 2 + (ii - ki) ** 2 for kr, ki in z))
    low = min(abs(zr) | abs(zi) for zr, zi in z).bit_length()
    error = None if low < 3 else (3 * 4 ** max(0, F + 1 - low) + 3, -F)
    return Measured.from_square(worst, 1 << 2 * F, F, error)


def numeric_cross_check(rs: RootSet, e1: CyclotomicNumber) -> mpmath.mpf:
    """The larger distance of sum_j w_j and of sum_j 1/w_j from the exact root
    sum e1, both summed at the roots' scale F = rs.bits with e1 embedded at
    F + 64 bits and truncated, and reported as Measured.from_square reports
    a value.
    """
    F, w = rs.bits, rs.w
    inverses = [_divide(1 << F, 0, wr, wi, F) for wr, wi in w]
    er, ei = _to_fixed(e1.embed(F + 64), F)
    worst = max(
        (sum(xr for xr, _ in terms) - er) ** 2 + (sum(xi for _, xi in terms) - ei) ** 2
        for terms in (w, inverses)
    )
    return Measured.from_square(worst, 1 << 2 * F, F, None).value
