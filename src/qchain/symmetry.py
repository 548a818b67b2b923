"""Q's two symmetries on a set of roots, for the root validator (roots.py).

Q has rational coefficients, so its roots are closed under conjugation, and
it is palindromic, so they are closed under inversion z -> 1/z too: they
come in orbits {z, conj z, 1/z, 1/conj z} of four, two on the unit circle
or the real axis, one at z = +-1.  find_roots keeps the first symmetry
exactly: it pairs the double phase's points by nearest conjugate
(_mirror_pairs), polishes one root per pair and stores the other as its
mirror image (re, -im), so _conjugate_closed, an exact set lookup, holds.
The second holds only to a few units of 2^-F, since each root is polished
on its own: _inverses maps each root j to pi(j), the stored root nearest
1/z_j, measures each gap |1/z_j - z_pi(j)| exactly, and reports the
largest as a Measured, the root-inversion check's; _orbits uses the map
only where that passes the check's tolerance, report.loose_tolerance.
bae_residuals_by_form reads both through _orbits; its docstring derives
the identities and the bound terms they add.

Each search for near points runs in doubles, over the points sorted by
real part (_nearest, _close_pairs), and every answer a measurement reads
is then made or confirmed on the exact integers: a flagged pair's distance
is compared exactly, a nearest point is taken from the doubles only where
it is nearer than every other by more than their error (_slack), else by
an exact scan, and where a float copy is out of range every pair or every
point is compared exactly.
"""

from __future__ import annotations

import bisect
import cmath
import math
from typing import TYPE_CHECKING, NamedTuple

from .fixedpoint import Measured, _divide, _float
from .report import loose_tolerance

if TYPE_CHECKING:
    from .roots import RootSet


def _slack(points: list[complex]) -> float:
    """2^-46 max(1, |x|) over the points.  Where each part of each point is a
    correctly rounded double of an exact value, or a few roundings from one,
    a difference of two points, or a distance, errs by under 2^-49 times
    that size, so this is more than twice the error of any of them."""
    return 2.0**-46 * max([1.0, *map(abs, points)])


def _nearest(points: list[complex], targets: list[complex], slack: float = 0.0) -> list:
    """For each target, (k, best, second): k the index of the nearest point
    (the first of equals), best its distance and second the next smallest
    distance to a point (inf if there is none).  A sweep runs outward from
    the target's place among the points sorted by real part, and stops where
    the real parts alone are farther than second or best + slack: second is
    exact with slack inf, and otherwise decides second - best > slack, which
    says whether every other point is farther by more than slack."""
    order = sorted(range(len(points)), key=lambda k: points[k].real)
    keys = [points[k].real for k in order]
    found = []
    for t in targets:
        best = second = math.inf
        at = -1
        start = bisect.bisect_left(keys, t.real)
        for positions in (range(start, len(keys)), range(start - 1, -1, -1)):
            for pos in positions:
                if abs(keys[pos] - t.real) > min(second, best + slack):
                    break
                k = order[pos]
                d = abs(points[k] - t)
                if d < best or (d == best and k < at):
                    best, second, at = d, best, k
                elif d < second:
                    second = d
        found.append((at, best, second))
    return found


def _close_pairs(points: list[complex], tau: float) -> list[tuple[int, int]]:
    """Every pair (i, j), i < j, whose real parts and whose imaginary parts
    each differ by at most tau, by a sweep over the points sorted by real part."""
    order = sorted(range(len(points)), key=lambda k: points[k].real)
    pairs = []
    for a, i in enumerate(order):
        x = points[i]
        for b in range(a + 1, len(order)):
            y = points[order[b]]
            if y.real - x.real > tau:
                break
            if abs(y.imag - x.imag) <= tau:
                pairs.append((min(i, order[b]), max(i, order[b])))
    return pairs


def _mirror_pairs(points: list[complex], good: int) -> list[int] | None:
    """Each point's conjugate partner, itself for a point taken as real; None
    unless the nearest-conjugate map is an involution and each point it
    maps to itself lies within the hand-over's reach 2^-good max(1, |x|) of
    the real axis.  Points paired with each other lie on opposite sides of
    the axis: x_k nearest conj(x_j) is no farther from it than x_j is,
    2 |im x_j|, which a point on x_j's side can be only with |im x_k| <=
    |im x_j|; the same the other way round leaves equal points, where the
    map is no involution (each goes to the first of them)."""
    partner = [k for k, _, _ in _nearest(points, [x.conjugate() for x in points])]
    for j, k in enumerate(partner):
        x = points[j]
        if partner[k] != j:
            return None
        if k == j and abs(x.imag) > math.ldexp(max(1.0, abs(x)), -good):
            return None
    return partner


def _conjugate_closed(points) -> bool:
    """Whether each stored (re, im) has (re, -im) stored too, tested exactly."""
    stored = set(points)
    return all((re, -im) in stored for re, im in points)


def _reject_coincident(z, bits: int) -> None:
    """ValueError naming the first pair i < j of roots closer than 2^-(bits//2).

    A near-pair pass in doubles (_close_pairs) flags every pair whose parts
    differ by at most _slack(floats), which all pairs that close do, and
    each flagged pair's squared distance is compared exactly; where a float
    copy is out of range every pair is compared exactly.
    """
    one = 1 << bits
    min_gap = 1 << 2 * (bits - bits // 2)  # (2^-(bits//2))^2 at the scale 2^-2bits
    floats = [_float(zr, zi, one) for zr, zi in z]
    if all(map(cmath.isfinite, floats)):
        pairs = _close_pairs(floats, _slack(floats))
    else:
        pairs = [(i, j) for i in range(len(z)) for j in range(i + 1, len(z))]
    close = [
        (i, j)
        for i, j in pairs
        if (z[i][0] - z[j][0]) ** 2 + (z[i][1] - z[j][1]) ** 2 < min_gap
    ]
    if close:
        raise ValueError("roots {} and {} coincide".format(*min(close)))


class _Inverses(NamedTuple):
    """partner[j] = pi(j), the stored root nearest 1/z_j (the first of equals),
    and gaps[j] = |1/z_j - z_pi(j)|^2 in units 2^-2F, 1/z_j as _divide makes
    it at 2^-F; gap, their largest as inversion_closure_gap reports it, with
    its rounding bound (infinite where it is unbounded)."""

    partner: tuple
    gaps: tuple
    gap: Measured

    @property
    def involution(self) -> bool:
        return all(self.partner[k] == j for j, k in enumerate(self.partner))


def _inverses(z, bits: int) -> _Inverses:
    """The partner map of RootSet.inverses: pi(j) the stored root nearest the
    exact quotient 1/z_j as _divide makes it, found by a sweep in doubles
    (_nearest) where the nearest is nearer than every other by more than the
    doubles' slack, and by an exact scan over all roots for the other j, or
    for all where a float copy or its inverse is out of range."""
    one = 1 << bits
    values = [_divide(one, 0, zr, zi, bits) for zr, zi in z]
    floats = [_float(zr, zi, one) for zr, zi in z]
    found = [(-1, False)] * len(z)
    if all(map(cmath.isfinite, floats)):
        targets = [_float(ir, ii, one) for ir, ii in values]
        if all(map(cmath.isfinite, targets)):
            slack = _slack(floats + targets)
            nearest = _nearest(floats, targets, slack)
            found = [(k, second - best > slack) for k, best, second in nearest]
    partner, gaps = [], []
    for (ir, ii), (k, sure) in zip(values, found):
        if not sure:
            k = min(range(len(z)), key=lambda c: ((ir - z[c][0]) ** 2 + (ii - z[c][1]) ** 2, c))
        partner.append(k)
        gaps.append((ir - z[k][0]) ** 2 + (ii - z[k][1]) ** 2)
    low = min(abs(zr) | abs(zi) for zr, zi in z).bit_length()
    error = None if low < 3 else (3 * 4 ** max(0, bits + 1 - low) + 3, -bits)
    return _Inverses(tuple(partner), tuple(gaps), Measured.from_square(max(gaps), one * one, bits, error))


def _orbits(rs: RootSet) -> tuple[list[tuple[int, bool]], list[int] | None, tuple | None]:
    """(visits, conj, inv): per orbit of the roots under the symmetries in
    use one visited root j and whether the orbit has other members; conj[k]
    the index of (re, -im) of root k, None unless the stored roots are
    closed under conjugation, exactly; inv the inversion partner map, None
    unless bae_residuals_by_form can read it (its docstring says when)."""
    z = rs.z
    p = len(z)
    if not _conjugate_closed(z):
        return [(j, False) for j in range(p)], None, None
    index = {x: k for k, x in enumerate(z)}
    conj = [index[zr, -zi] for zr, zi in z]
    inv = None
    if all(zr or zi for zr, zi in z):
        inverses = rs.inverses
        inv = inverses.partner
        if (
            not inverses.involution
            or any(inv[conj[j]] != conj[inv[j]] for j in range(p))
            or not inverses.gap.below(loose_tolerance(rs.precision_bits))
        ):
            inv = None
    visits, seen = [], set()
    for j in range(p):
        if j not in seen:
            orbit = {j, conj[j]} if inv is None else {j, conj[j], inv[j], conj[inv[j]]}
            seen |= orbit
            visits.append((min(k for k in orbit if z[k][1] >= 0), len(orbit) > 1))
    return visits, conj, inv


def _partner_gap(w, partner, bits: int, conjugate: bool) -> int:
    """max_k |w_k - v_k| in units 2^-bits, plus 3, v_k = 1/conj(w_partner(k))
    if conjugate else 1/w_partner(k), as _divide computes v_k."""
    one = 1 << bits
    worst = 0
    for (wr, wi), k in zip(w, partner):
        ur, ui = w[k]
        vr, vi = _divide(one, 0, ur, -ui if conjugate else ui, bits)
        worst = max(worst, (wr - vr) ** 2 + (wi - vi) ** 2)
    return math.isqrt(worst) + 3
