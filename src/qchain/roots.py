"""Arbitrary-precision root finder and Bethe-equation validator.

This module is the one place where roots are actually computed, and it is
numeric on purpose: nothing here feeds back into the exact pipeline.  Roots
of Q are found on its multiple P = (z-1)^M Q, formed from Q's own integers,
which has 2(N+1) terms where Q has p + 1 and is far better conditioned at
the roots (find_roots).  A simultaneous Aberth iteration (all roots at
once, updates applied in place) runs in doubles as far as its evaluation
noise allows; where its own rounding bounds certify the points it reached,
a ladder of Newton steps at doubling precisions polishes them, else an
Aberth search in fixed point runs first.  Where Q is palindromic, as
every chain's is, the double phase searches on u = z + 1/z, at half the
degree.  The ladder ends at one unit of the scale F = precision_bits +
128, so the reported residuals measure the polynomial and the Bethe
equations honestly rather than the evaluation noise.

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
Q's coefficients are rational and Q is palindromic, so its roots come in
orbits {z, conj z, 1/z, 1/conj z} (symmetry.py).  Passes that visit one
root per conjugate pair (and each real root): the Newton ladder, which
stores each partner as the exact mirror (re, -im) of the root it polished,
and |Q(z_j)|, since |Q(conj z)| = |Q(z)| exactly.  Passes that visit one
root per orbit: both Bethe forms, which read the other members' residuals
from numbers already made, conjugation exactly and inversion to within a
measured gap of a few units that their bound carries; where the stored
roots are not closed under conjugation they visit every root, and where
the inversion partners fail root-inversion's tolerance, one root per pair.
Passes that read every root: the Moebius images, the root product, the
inversion closure (one quotient per root; the partner map finds each
nearest root in doubles, confirmed exactly), the root sum, and the
coincidence test, a near-pair pass in doubles with each flagged pair
compared exactly.
The seeds are made in doubles (cmath); mpmath computes only the constants
exp and sinh of eta, the Moebius pole, the embedding of the exact root sum
and the reported values.

The Bethe equations are evaluated in both variables (bethe.py, whose
bae_residuals_by_form is read here with the other measurements): the
z-form directly on the roots of Q, and the w-form on their Moebius images,
with the anisotropy entering through explicit exp/sinh calls rather than
pre-simplified constants, so the two forms are independent of the exact
pipeline's cyclotomic shortcuts.  It sits in a module of its own, as does
symmetry.py: under PYTHONDONTWRITEBYTECODE each process compiles what it
imports, and compile's transient memory grows faster than the source, so
one module this size would raise a verify run's peak memory.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .bethe import bae_residuals_by_form  # noqa: F401 (a measurement, read here with the others)
from .fixedpoint import Measured, _divide, _fixed, _float, _horner, _mul, _product, _rescale
from .fixedpoint import _to_fixed
from .qoperator import ChainParams, QPolynomial
from .report import MIN_ROOT_BITS, ConvergenceError
from .symmetry import _Inverses, _conjugate_closed, _inverses, _mirror_pairs

if TYPE_CHECKING:
    import mpmath

    from .cyclotomic import CyclotomicNumber
    from .multiple import _Multiple

MAX_SWEEPS = 200
HANDOVER_BITS = 24
U_SEED = 1 + 2**-4  # the least modulus of a point whose image seeds the search on u


class _RootFields(NamedTuple):
    params: ChainParams
    precision_bits: int
    bits: int
    z: tuple
    w: tuple
    max_poly_residual: Measured
    sweeps: int = 0
    float_sweeps: int = 0
    search: str = "z"
    search_bits: int = 0
    ladder: tuple = ()


class RootSet(_RootFields):
    """The roots z of Q and their Moebius images w, each an (re, im) int pair at
    2^-bits, bits the one scale F that find_roots sets and every measurement reads.
    search names the plane, "u = z + 1/z" or "z", of the search in doubles whose
    points were handed over; float_sweeps counts every sweep in doubles.

    Instances keep a __dict__ (no __slots__) for the cached partner map."""

    @functools.cached_property
    def inverses(self) -> _Inverses:
        """The inversion partner map, made once per root set and read by
        inversion_closure_gap and bae_residuals_by_form; ZeroDivisionError
        if a stored root is 0."""
        return _inverses(self.z, self.bits)


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


@functools.lru_cache(maxsize=None)
def _pole(L: int, bits: int) -> tuple[int, int]:
    """The Moebius pole a = exp(-2 pi i / L) at 2^-(bits + 64), as z_to_w reads it."""
    import mpmath

    with mpmath.workprec(bits + 64):
        return _to_fixed(mpmath.expjpi(mpmath.mpf(-2) / L), bits + 64)


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


def _palindromic(coeffs: list[Fraction]) -> bool:
    """Whether Q(z) = z^p Q(1/z), tested exactly on Q's coefficients."""
    return coeffs == coeffs[::-1]


def _z_of(u: complex) -> complex:
    """The root z of z^2 - u z + 1 = 0 with |z| >= 1; the other is 1/z."""
    s = cmath.sqrt(u - 2) * cmath.sqrt(u + 2)
    return (u + s) / 2 if abs(u + s) >= abs(u - s) else (u - s) / 2


def _on_u(correction, p: int):
    """u -> (N_u, bound) for a palindromic Q of degree p from its correction
    on z (_float_corrector), read at z = _z_of(u); see find_roots.  The
    bound is N's scaled by |N_u / N|, so a point stops where N would."""
    m = p // 2

    def on_u(u: complex):
        z = _z_of(u)
        n, bound = correction(z)
        if not n:
            return n, bound
        n1 = n * (z + 1) / (z + 1 - n) if p % 2 else n
        n_u = n1 * (1 - z**-2) / (1 - m * n1 / z)
        return n_u, bound * abs(n_u / n)

    return on_u


def _float_search(
    monic: list[Fraction],
    points: list[complex],
    multiple: _Multiple | None = None,
    on_u: bool = False,
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

    With on_u, for a palindromic Q, the same loop runs on the m = p // 2
    points u = z + 1/z, reading N_u (_on_u) and stopping a point at a step
    below 2^-45 max(1, |u|) (find_roots).  Its seeds are the images of every
    other point, each pushed out to modulus U_SEED or more; it hands over z
    and 1/z for each u reached, and -1 at odd p, and gives up, too, after
    MAX_SWEEPS sweeps with a point still moving.
    """
    p = len(monic) - 1
    try:
        correction = _float_corrector(monic, multiple)
        if on_u:
            correction = _on_u(correction, p)
            seeds = [x * max(1.0, U_SEED / abs(x)) for x in points[::2][: p // 2]]
            points = [x + 1 / x for x in seeds]
    except (ZeroDivisionError, OverflowError):
        return 0, None
    if not all(map(cmath.isfinite, points)):
        return 0, None
    z = list(points)
    moving = [True] * len(z)
    sweeps = 0
    try:
        while any(moving) and sweeps < MAX_SWEEPS:
            sweeps += 1
            for i, x in enumerate(z):
                if not moving[i]:
                    continue
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
        if on_u:
            if any(moving):
                return sweeps, None
            z = [_z_of(u) for u in z]
            z += [1 / x for x in z] + [-1 + 0j] * (p % 2)
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
    import mpmath

    with mpmath.workprec(53):
        worst_step = mpmath.sqrt(mpmath.mpf(worst.numerator) / worst.denominator)
        raise ConvergenceError(MAX_SWEEPS, mpmath.nstr(worst_step, 5))


def find_roots(q: QPolynomial, precision_bits: int = 256, seed: int = 0) -> RootSet:
    """All p roots of Q, polished well past precision_bits.

    Initial guesses sit on a circle of radius equal to the p-th root of the
    Cauchy coefficient bound (the roots of these palindromic polynomials
    live in an annulus around the unit circle) with a seed-controlled phase
    offset; the radius comes from the logarithms of the bound's integers,
    so no bound overflows.  Aberth runs in doubles (_float_search), on
    u = z + 1/z where Q is palindromic, else on z, then, unless the
    hand-over below passes, in fixed point (_fixed_search), each with a cap
    of MAX_SWEEPS sweeps; then a Newton ladder polishes each root, or one
    root of each conjugate pair.

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

    Search on u = z + 1/z.  Where Q(z) = z^p Q(1/z), tested exactly on its
    coefficients (_palindromic; a chain's Q is, and a bump of one
    coefficient other than the middle one breaks it), its roots pair as z,
    1/z, and at odd p the terms of Q(-1) cancel in pairs, so -1 is a root.
    Then Q = (z+1)^(p-2m) Q1, m = p // 2, and Q1(z) = z^m R(u) with R of
    degree m, so Q1'/Q1 = m/z + (R'/R)(1 - z^-2).
    From N = Q/Q' on z, taken as above: N1 = Q1/Q1' = N (z+1)/(z+1-N) at odd
    p, by Q'/Q = 1/(z+1) + Q1'/Q1, and N1 = N at even p; and the correction
    on u is N_u = R/R' = N1 (1 - z^-2)/(1 - m N1/z) (_on_u).  Aberth's loop
    runs as on z, on the m points u, at a quarter of the pair sums and half
    the corrections of a sweep on z; each u is read as the root z of
    z^2 - u z + 1 = 0 with |z| >= 1 (_z_of), and a point stops where |N| is
    within eps or its step is below 2^-45 max(1, |u|).  The seeds are the
    images z + 1/z of every other seed, pushed out to |z| >= 1 + 2^-4: a
    seed at |z| = 1 maps onto the real segment [-2, 2], where a real R's
    corrections are real.  The search hands over z and 1/z for each u
    reached, and exactly -1 at odd p, to the hand-over below, which reads
    them on z like the points of the search on z.  Where it gives up (a
    value not finite, a division by zero, MAX_SWEEPS sweeps with a point
    still moving), Aberth runs on z from the seeds, as it does for a Q
    that is not palindromic; float_sweeps counts the sweeps of both.

    Hand-over.  One more correction at each point reached puts a root of Q
    within about |N| + eps of it.  If each such reach is below a quarter of
    the distance to the nearest other point, the least -log2(reach /
    max(1, |z|)) (40 to 49 bits on the CI grids) is what the ladder starts
    from, and no fixed-point sweep runs (_handover_bits), on P or on Q's
    dense path alike.  Otherwise the fixed-point search runs, on the same
    corrections, keeping Aberth's pair sums in doubles (plain Newton from
    the double phase's points merged roots at (11, 8), (31, 6), (41, 6)),
    and the ladder polishes every root.

    Mirror pairs.  Q's coefficients are real, so conj z is a root with z.
    After a hand-over, each point is paired with the point nearest its
    conjugate (_mirror_pairs).  Where that map is an involution (paired
    points then lie on opposite sides of the real axis) and leaves alone
    only points within the hand-over's reach 2^-good max(1, |z|) of the
    axis, each lone point's root is taken as real.  The ladder runs on the point with
    im > 0 of each pair and on each lone point with its im set to 0, which
    every Newton step keeps at exactly 0 (Q and Q' of a real point are real
    in fixed point, a product of parts that are 0 being exactly 0), and
    each partner is stored as the exact mirror (re, -im) of the stored
    root: (p + r)/2 ladders for r real roots.  Newton's map commutes with
    conjugation for real Q and truncation toward zero with negation, so a
    mirror is as close to a root of Q as the root it mirrors.  Were a lone
    point's root not real, the stored point would be no root, and |Q(z_j)|
    and the Bethe forms, measured at the stored roots, would turn red.
    Otherwise every point is polished on its own.

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
    the largest, the w-form's bound, is 2^73 units at (L, N) = (11, 8),
    2^58 at (21, 4), 2^70 at (31, 6), 2^72 at (41, 6) and 2^85 at (51, 8)
    (p = 76, 85, 188, 253, 416); the z-form's stays below 2^69, |Q|'s below
    2^91 (against the larger tolerance), the product's below 2^16 and the
    inversion's below 2^6.  So at least 83 bits separate residual + bound
    from the tolerance at those points; at (51, 12), p = 612, the w-form's
    bound is 2^103 units and 65 bits remain, at (101, 6), p = 643, 2^78
    and 90.  A chain that needed more would turn its check red, not pass.

    max_poly_residual is max_j |Q(z_j)| at the stored roots, evaluated by
    _horner at F on Q's coefficients truncated to F, with its rounding
    bound.  In units 2^-F each coefficient is low by less than 1 and each
    Horner step truncates both parts, an error below 1.5 that the
    remaining steps multiply by z^k, so the computed value is within
    2.5 sum_(k<=p) |z|^k <= 2.5 (p+1) max(1, |z|)^p units of |Q(z_j)|;
    max(1, |z|) is rounded up to a multiple of 2^-16, and the bound adds
    the 2 units by which the reported square root may be low.  Where the
    stored roots are closed under conjugation (_conjugate_closed), as
    mirrored ones are, only those with im >= 0 are evaluated: the truncated
    coefficients are real, so |Q(conj z)| = |Q(z)| exactly, and the bound
    covers both.
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
    float_sweeps, reached = 0, None
    if _palindromic(coeffs):
        float_sweeps, reached = _float_search(monic, floats, multiple, True)
    search = "z" if reached is None else "u = z + 1/z"
    if reached is None:
        more, reached = _float_search(monic, floats, multiple)
        float_sweeps += more
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
    mirror = None
    if good < HANDOVER_BITS:
        sweeps, good = _fixed_search(fraction, real, imag, floats, S, margin)
    else:
        mirror = _mirror_pairs(floats, good)
    if mirror is None:
        polish = range(p)
    else:  # one root of each conjugate pair, and each real root with im 0
        polish = [j for j, k in enumerate(mirror) if k == j or floats[j].imag > 0]
        for j in polish:
            if mirror[j] == j:
                imag[j] = 0

    F = precision_bits + 128  # the one scale of the stored roots and the measurements
    ladder = [F + margin]
    while ladder[0] - margin > 2 * good:
        ladder.insert(0, (ladder[0] - margin + 1) // 2 + margin)
    on_p = [multiple is not None] * p  # decided per root at the first step
    at = S
    for bits in ladder:
        shift_up, down = max(bits - at, 0), max(at - bits, 0)
        for i in polish:
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
    z = [None] * p
    for j in polish:
        z[j] = _rescale((real[j], imag[j]), margin)
        if mirror is not None:
            z[mirror[j]] = (z[j][0], -z[j][1])
    z = tuple(z)

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

    pole = _pole(q.params.L, F)
    return RootSet(
        params=q.params,
        precision_bits=precision_bits,
        bits=F,
        z=z,
        w=tuple(z_to_w(x, pole, F) for x in z),
        max_poly_residual=residual,
        sweeps=sweeps,
        float_sweeps=float_sweeps,
        search=search,
        search_bits=search_bits,
        ladder=tuple(ladder),
    )


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
    and every distance read is an exact squared distance; the nearest root
    is pi(j) of the partner map (_inverses), so the max is over
    |1/z_j - z_pi(j)|.  A stored root is less
    than 1.5 units from the last Newton step's point (find_roots), which
    moves 1/z_j by less than 3 u / |z_j|^2 while |z_j| >= 3u; the division
    rounds each part down, less than 1.5 units more.  Every distance is then
    within 3 4^(F+1-b) + 3 units of its exact value, b the smallest bit
    length of a root, and so is the max of the mins; the bound adds 2 units
    for the reported square root, and is infinite for a root below 4 units.
    """
    F = rs.bits
    inverses = rs.inverses
    error = None if inverses.error is None else (inverses.error, -F)
    return Measured.from_square(max(inverses.gaps), 1 << 2 * F, F, error)


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
