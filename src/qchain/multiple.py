"""Q's sparse multiple P = (z-1)^M Q, Q's own monic terms, and the Newton
corrections for Q read from either.

The terms.  With x = -1/z, Q(z) = z^p E(x), E = sum_k e_k x^k, so
P = (z-1)^M Q = z^deg (1+x)^M E(x) = sum_m (-1)^m S_m z^(deg-m),
deg = p + M, S_m entry m of _times_one_plus_x(nums, M): one exact integer
pass, O(pM), on the Q under test's own integers, never on route one's
product weights; where route two or tq already formed the product of the
same integers, its memo returns that one.
Route two's support condition makes S_m vanish off m = Lk and Lk + h,
h = (L-1)/2, so a chain's P has 2(N+1) terms, at the exponents Lj and
Lj + h: gaps h and h + 1.  Q's own monic coefficients are the M = 0 case
of the same object (_own): its nonzero terms, deg = p, every gap 1 for a
chain.  find_roots runs a point on P (_multiple) only if P has fewer
nonzero terms than Q; else, at L = 3 (2N+2 terms against N+1) or for a
bumped Q at L = 5, it runs on Q's own terms alone.  A bump adds at most
M + 1 terms, so from L = 7 on a bumped Q keeps a sparse P, with the bump
in it.

The correction.  Q = P/(z-1)^M, so Q/Q' = H/G with H = z P (z-1) and
G = z P' (z-1) - M z P, from P and z P' = sum_j e_j c_j z^(e_j), which one
pass of fixedpoint._horner over the terms makes together: the gap powers
z^h and z^(h+1) by repeated squaring, then 2 products a term, O(N + log L)
products against 2p on Q.  At M = 0 there is no factor z - 1, which
_trusted reads as 1: H = z Q and G = z Q'.  P(z) = 0 makes H = 0, a
converged root wherever G does not vanish.  At odd p that happens at
z = -1, exact in doubles and in fixed point: Q is palindromic of odd
degree, so Q(-1) = 0.  Q(1) is not 0 (70 at (5, 2)); z = 1 is only P's
M-fold zero, where H and G both cancel, which is why Q's own terms are
needed there.

The rounding bound, and the switch to Q.  In fixed point at 2^-B, under
fixedpoint.py's rounding convention, z^g made by any product tree costs
g - 1 products, each truncated by under 1.5 units, and each Horner step
one more, so P and z P' come out within kappa s and deg kappa s units,
kappa = 2 (deg + 2T), T terms, s = sum_j |c_j| max(1, |z|)^(e_j)
(test_multiple checks it).  In
doubles a complex product errs by under sqrt(5) u relatively, u = 2^-53,
and the same count gives 4 (deg + 2T) u sum_j |c_j| |z|^(e_j).  With e
the bound on P, G errs by under dG = (deg |z-1| + M |z|) e and H by
|z| |z-1| e, so N = H/G errs by at most
eps = (|z| |z-1| e + |N| dG) / (|G| - dG) (_trusted).  A correction is
taken from P only where eps 2^t <= max(1, |z|) + |N|, t the bits the
phase needs (roots.HANDOVER_BITS in doubles, B - margin in fixed point);
elsewhere find_roots takes it from Q's own terms, at B + (Q's margin -
P's) bits, as good as Q's margin promises.  Q's terms are the last
resort, so they never refuse a point: in doubles, where G is within its
own noise (|G| <= dG), the bound is infinite and the point stops moving,
and only an exactly zero G raises ZeroDivisionError; in fixed point they
are taken unchecked.  Near z = 1, P's G cancels to its noise and the
test fails, at a distance set by the bound (2^-6 to 2^-8 on the default
grid in fixed point), not by a fixed radius.  At the roots P is well
conditioned: sum_j |c_j| |z|^(e_j) / (|Q'(z)| |z-1|^M) stays under 2^2
from (11, 4) to (51, 8), so eps sits near its floor.

Scaling.  In doubles, where |z| > 1, P and z P' are evaluated in 1/z over
the reversed exponents, z^-deg P(z) = sum_j c_j z^(e_j - deg), so no
power exceeds 1 and p = 416 does not overflow; the correction, its bound
and the tests on them are ratios, blind to the common factor z^-deg.  The
fixed-point test scales its float copies by max(1, |z|)^-deg the same
way.  Where a coefficient is out of float range there is no evaluation
in doubles (forward is None): P is then not used at all, and Q's terms
only in fixed point.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fixedpoint import _fixed, _float, _horner, _mul
from .qoperator import QPolynomial, _times_one_plus_x


def _trusted(z, v, d, e, need, M, deg):
    """Q/Q' at z from v = P(z) and d = z P'(z), both scaled by one common
    factor, P's within e of its value, with a bound on its error: (N,
    bound), or None unless bound 2^t <= max(1, |z|) + |N|, need = e 2^t
    (apart from e, which underflows at large precisions).

    N = H/G, H = z P (z-1) and G = z P' (z-1) - M z P (module docstring); G errs
    by at most (deg |z-1| + M |z|) e, since |z P'| <= deg sum_j |c_j|
    |z|^(e_j).  P(z) = 0 gives N = 0 wherever G does not vanish.  M = 0 is
    Q's own terms: z - 1 is read as 1, and no point is refused, the bound
    being infinite where |G| is within G's error; G = 0 raises
    ZeroDivisionError.
    """
    zm = z - 1 if M else 1
    r, rm = abs(z), abs(zm)
    w = z * v
    g = d * zm - M * w
    spread = deg * rm + M * r
    gap = abs(g) - spread * e
    if not gap > 0:
        return None if M else (w * zm / g, math.inf)
    n = w * zm / g
    reach = abs(n)
    top = r * rm + reach * spread
    if M and top * need > (max(1.0, r) + reach) * gap:
        return None
    return n, top * e / gap


class _Multiple:
    """P = (z-1)^M Q through its nonzero terms (e_j, c_j), c_j monic, by
    descending e_j from deg = p + M, Q's own terms at M = 0; see the module
    docstring."""

    def __init__(self, M: int, terms: list[tuple[int, Fraction]]):
        self.M, self.deg, self.terms = M, terms[0][0], terms
        count = len(terms)
        self.kappa = 2 * (self.deg + 2 * count)
        top = 1 + max((abs(c) for _, c in terms[1:]), default=0)
        self.margin = int(top).bit_length() + (count * self.kappa // 2).bit_length() + 24
        self.fixed = {}
        self.forward = self.backward = None  # no evaluation in doubles beyond float range
        try:
            floats = [(e, float(c)) for e, c in terms]
        except OverflowError:
            return
        self.forward = [(e, c, e * c, abs(c)) for e, c in floats]
        self.backward = [(self.deg - e, c, e * c, abs(c)) for e, c in reversed(floats)]
        self.total = sum(abs(c) for _, c in floats)

    def float_correction(self, z: complex, bits: int):
        """_trusted's (Q/Q', bound) at z from the terms in doubles, wanting
        bits, evaluated in z or, where |z| > 1, in 1/z."""
        x, terms = (z, self.forward) if abs(z) <= 1 else (1 / z, self.backward)
        a = abs(x)
        powers = {}
        e, v, d, size = terms[0]
        for below, c, ec, ac in terms[1:]:
            g = e - below
            if g not in powers:
                powers[g] = x**g, a**g
            w, s = powers[g]
            v, d, size = v * w + c, d * w + ec, size * s + ac
            e = below
        if e:
            w, s = x**e, a**e
            v, d, size = v * w, d * w, size * s
        bound = 2 * self.kappa * size * 2.0**-53
        return _trusted(z, v, d, bound, math.ldexp(bound, bits), self.M, self.deg)

    def fraction(self, zr: int, zi: int, bits: int, check: bool = True):
        """(Re H, Im H, Re G, Im G) at 2^-bits, Q/Q' = H/G, from the terms
        truncated to 2^-bits; None, if check, where _trusted does not vouch
        for 2^-(bits - margin).  Q's own terms (M = 0) are never checked."""
        if bits not in self.fixed:
            self.fixed[bits] = [(e, _fixed(c, bits)) for e, c in self.terms]
        vr, vi, dr, di = _horner(self.fixed[bits], zr, zi, bits)
        one = 1 << bits
        if check and self.M:
            z, deg = _float(zr, zi, one), self.deg
            r = max(1.0, math.hypot(z.real, z.imag))  # inf, not OverflowError, out of range
            if r == 1:
                size = self.total
            else:
                size = sum(ac * r ** (e - deg) for e, _, _, ac in self.forward)
            v, d = _float(vr, vi, one) * r**-deg, _float(dr, di, one) * r**-deg
            bound = self.kappa * size
            e, need = math.ldexp(bound, -bits), math.ldexp(bound, -self.margin)
            if _trusted(z, v, d, e, need, self.M, deg) is None:
                return None
        wr, wi = _mul(zr, zi, vr, vi, bits)
        if not self.M:  # H = z Q, G = z Q'
            return wr, wi, dr, di
        zm = zr - one
        hr, hi = _mul(wr, wi, zm, zi, bits)
        gr, gi = _mul(dr, di, zm, zi, bits)
        return hr, hi, gr - self.M * wr, gi - self.M * wi


def _multiple(q: QPolynomial) -> _Multiple | None:
    """Q's multiple P = (z-1)^M Q from Q's own integers, or None where P has
    no fewer nonzero terms than Q or a coefficient of P is out of float range."""
    p, M = q.params.p, q.params.M
    s = _times_one_plus_x(q.nums, M)
    terms = [(M + p - m, Fraction((-1) ** m * c, s[0])) for m, c in enumerate(s) if c]
    if len(terms) >= sum(1 for c in q.nums if c):
        return None
    multiple = _Multiple(M, terms)
    return multiple if multiple.forward is not None else None


def _own(monic: list[Fraction]) -> _Multiple:
    """Q's own terms, the M = 0 case of _Multiple, from its monic
    coefficients in ascending order: the last resort of every phase."""
    return _Multiple(0, [(k, c) for k, c in reversed(list(enumerate(monic))) if c])
