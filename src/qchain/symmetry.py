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

Every near point is found by one sweep over the points sorted by real part
(_nearest): on the stored integer roots each distance it compares is exact.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, NamedTuple

from .fixedpoint import Measured, _divide
from .report import loose_tolerance

if TYPE_CHECKING:
    from .roots import RootSet


def _nearest(points, targets) -> list:
    """For each target, (k, best, second): k the index of the nearest point
    (the first of equals), best its squared distance and second the next
    smallest squared distance to a point (inf if there is none), points and
    targets being (re, im) pairs.  A sweep runs outward from the target's
    place among the points sorted by real part, and stops where the squared
    difference of real parts alone exceeds second: every point it skips is
    farther than second, so it returns what a scan over all the points
    returns, exactly on int pairs and in the same arithmetic on doubles."""
    order = sorted(range(len(points)), key=lambda k: points[k][0])
    keys = [points[k][0] for k in order]
    found = []
    for tr, ti in targets:
        best = second = math.inf
        at = -1
        start = bisect.bisect_left(keys, tr)
        for positions in (range(start, len(keys)), range(start - 1, -1, -1)):
            for pos in positions:
                dr = keys[pos] - tr
                d = dr * dr
                if d > second:
                    break
                k = order[pos]
                di = points[k][1] - ti
                d += di * di
                if d < best or (d == best and k < at):
                    best, second, at = d, best, k
                elif d < second:
                    second = d
        found.append((at, best, second))
    return found


def _mirror_pairs(points: list[complex], good: int) -> list[int] | None:
    """Each point's conjugate partner, itself for a point taken as real; None
    unless the nearest-conjugate map is an involution and each point it
    maps to itself lies within the hand-over's reach 2^-good max(1, |x|) of
    the real axis.  Points paired with each other lie on opposite sides of
    the axis: x_k nearest conj(x_j) is no farther from it than x_j is,
    2 |im x_j|, which a point on x_j's side can be only with |im x_k| <=
    |im x_j|; the same the other way round leaves equal points, where the
    map is no involution (each goes to the first of them)."""
    pairs = [(x.real, x.imag) for x in points]
    partner = [k for k, _, _ in _nearest(pairs, [(re, -im) for re, im in pairs])]
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

    With each root its own target, the sweep's second (_nearest) is the
    exact squared distance to the nearest other root, so the roots it puts
    below the gap are those of the close pairs: i is the first of them, and
    j the first after i whose exact distance to it is below the gap.
    """
    min_gap = 1 << 2 * (bits - bits // 2)  # (2^-(bits//2))^2 at the scale 2^-2bits
    close = [j for j, (_, _, second) in enumerate(_nearest(z, z)) if second < min_gap]
    if close:
        i, *rest = close
        ir, ii = z[i]
        j = next(j for j in rest if (ir - z[j][0]) ** 2 + (ii - z[j][1]) ** 2 < min_gap)
        raise ValueError(f"roots {i} and {j} coincide")


class _Inverses(NamedTuple):
    """partner[j] = pi(j), the stored root nearest 1/z_j (the first of equals),
    and gaps[j] = |1/z_j - z_pi(j)|^2 in units 2^-2F, 1/z_j as _divide makes
    it at 2^-F, both exact; gap, their largest as inversion_closure_gap
    reports it, with its rounding bound (infinite where it is unbounded)."""

    partner: tuple
    gaps: tuple
    gap: Measured

    @property
    def involution(self) -> bool:
        return all(self.partner[k] == j for j, k in enumerate(self.partner))


def _inverses(z, bits: int) -> _Inverses:
    """The partner map of RootSet.inverses: the sweep (_nearest) of the
    stored roots against the exact quotients 1/z_j as _divide makes them,
    whose nearest index and squared distance are pi(j) and the gap."""
    one = 1 << bits
    values = [_divide(one, 0, zr, zi, bits) for zr, zi in z]
    partner, gaps, _ = zip(*_nearest(z, values))
    low = min(abs(zr) | abs(zi) for zr, zi in z).bit_length()
    error = None if low < 3 else (3 * 4 ** max(0, bits + 1 - low) + 3, -bits)
    return _Inverses(partner, gaps, Measured.from_square(max(gaps), one * one, bits, error))


def _orbits(rs: RootSet) -> tuple[list[tuple[int, bool]], list[int] | None, tuple | None]:
    """(visits, conj, inv): per orbit of the roots under the symmetries in
    use one visited root j and whether the orbit has other members; conj[k]
    the index of (re, -im) of root k, None unless the stored roots are
    closed under conjugation, exactly; inv the inversion partner map, None
    unless bae_residuals_by_form can read it (its docstring says when)."""
    z = rs.z
    p = len(z)
    index = {x: k for k, x in enumerate(z)}
    conj = [index.get((zr, -zi)) for zr, zi in z]
    if None in conj:
        return [(j, False) for j in range(p)], None, None
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
