"""Arbitrary-precision root finder and Bethe-equation validator.

This module is the one place where roots are actually computed, and it is
numeric on purpose: nothing here feeds back into the exact pipeline.  Roots
of Q come from a simultaneous Aberth iteration (all roots at once, updates
applied in place) run at a moderate guard precision, then polished root by
root with Newton steps at well above the requested precision, so the
reported residuals measure the polynomial and the Bethe equations honestly
rather than the evaluation noise.

The search and the polish run on plain Python integers: a complex number
is a pair of ints scaled by 2^F (F = the search or polish precision in
bits), which is several times faster than mpmath's mpc at these sizes.
Everything that is reported is measured in mpmath instead: the polynomial
residual (mpmath.polyval on the exact coefficients at the polish
precision), the Moebius images, the Bethe-equation residuals, the root
product, the inversion closure and the root sum.

The Bethe equations are evaluated in both variables: the z-form directly on
the roots of Q, and the w-form on their Moebius images, with the anisotropy
entering through explicit exp/sinh calls rather than pre-simplified
constants, so the two forms are independent of the exact pipeline's
cyclotomic shortcuts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .cyclotomic import CyclotomicNumber
from .qoperator import ChainParams, QPolynomial
from .report import CheckResult

MIN_ROOT_BITS = 128
MAX_SWEEPS = 200


class ConvergenceError(RuntimeError):
    """Aberth iteration did not settle within the sweep cap."""

    def __init__(self, sweeps: int, worst: str):
        super().__init__(f"no convergence after {sweeps} sweeps, worst correction {worst}")
        self.sweeps = sweeps


@dataclass
class RootSet:
    params: ChainParams
    precision_bits: int
    z_roots: tuple
    w_roots: tuple
    max_poly_residual: mpmath.mpf
    sweeps: int = 0


def _fixed(x: Fraction, bits: int) -> int:
    """x scaled by 2^bits and rounded down to an integer."""
    return (x.numerator << bits) // x.denominator


def _horner(monic: list[int], zr: int, zi: int, bits: int) -> tuple[int, int, int, int]:
    """Q(z) and Q'(z) in fixed point at 2^-bits: (Re Q, Im Q, Re Q', Im Q').

    The coefficients are real, ascending, and scaled like z = zr + i zi.
    Each complex product takes three integer products (Gauss's trick); the
    imaginary part (a + b)(c + d) - ac - bd is exact, so the result is the
    same as with four.
    """
    zs = zr + zi
    ar, ai = monic[-1], 0
    dr = di = 0
    for c in reversed(monic[:-1]):
        t1, t2 = dr * zr, di * zi
        dr, di = ((t1 - t2) >> bits) + ar, (((dr + di) * zs - t1 - t2) >> bits) + ai
        t1, t2 = ar * zr, ai * zi
        ar, ai = ((t1 - t2) >> bits) + c, ((ar + ai) * zs - t1 - t2) >> bits
    return ar, ai, dr, di


def _divide(xr: int, xi: int, yr: int, yi: int, bits: int) -> tuple[int, int]:
    """x / y in fixed point at 2^-bits; y must be nonzero."""
    norm = yr * yr + yi * yi
    return ((xr * yr + xi * yi) << bits) // norm, ((xi * yr - xr * yi) << bits) // norm


def z_to_w(z, L: int):
    """Moebius image w = (z a - 1)/(z - a), a = exp(-2 pi i / L).

    Evaluated at the caller's working precision.  Points closer to the pole
    a than 2^-(prec/2) are rejected rather than silently amplified.
    """
    a = mpmath.expjpi(mpmath.mpf(-2) / L)
    if abs(z - a) < mpmath.mpf(2) ** -(mpmath.mp.prec // 2):
        raise ValueError("z is too close to the Moebius pole")
    return (z * a - 1) / (z - a)


def find_roots(
    q: QPolynomial, precision_bits: int = 256, seed: int = 0
) -> RootSet:
    """All p roots of Q, polished well past precision_bits.

    Initial guesses sit on a circle of radius equal to the p-th root of the
    Cauchy coefficient bound (the roots of these palindromic polynomials
    live in an annulus around the unit circle) with a seed-controlled phase
    offset.  Aberth runs with a cap of 200 sweeps; Newton polishing and the
    residual measurement then happen at more than twice the requested
    precision.
    """
    if precision_bits < MIN_ROOT_BITS:
        raise ValueError(f"precision_bits must be >= {MIN_ROOT_BITS}")
    p = q.params.p
    coeffs = q.coefficients()
    lead = coeffs[-1]
    if lead == 0:
        raise ValueError("leading coefficient vanished")
    monic = [c / lead for c in coeffs]

    search_bits = 128 + 2 * p
    with mpmath.workprec(search_bits):
        bound = 1 + max(abs(c) for c in monic[:-1])
        cauchy = mpmath.mpf(bound.numerator) / bound.denominator
        radius = cauchy ** (mpmath.mpf(1) / p)
        rng = random.Random(seed)
        offset = rng.random() * 2 * mpmath.pi / p
        seeds = [
            radius * mpmath.exp(1j * (2 * mpmath.pi * k / p + offset))
            for k in range(p)
        ]
        real = [int(mpmath.ldexp(z.real, search_bits)) for z in seeds]
        imag = [int(mpmath.ldexp(z.imag, search_bits)) for z in seeds]
        noise_bits = max(0, int(mpmath.log(cauchy, 2)) + 1)

    # Fixed point at 2^-F, F = search_bits.  The achievable correction size
    # is limited by evaluation noise, which scales with the coefficients;
    # corrections only need to land the roots inside their Newton basins
    # for the polish phase.  Each fixed-point product rounds by at most
    # 2^-F, so a Horner pass over p + 1 terms of size up to 2^noise_bits
    # errs far below the target: at the target the steps still sit
    # 24 + noise_bits + bitlen(p) bits above 2^-F, so F fractional bits are
    # enough.  Step sizes are compared squared, as exact fractions
    # |step|^2 / max(1, |z|^2).
    F = search_bits
    one = 1 << F
    cube = 1 << 3 * F
    fixed = [_fixed(c, F) for c in monic]
    target = Fraction(2) ** -(2 * (F - 24 - noise_bits - p.bit_length()))
    stall_floor = Fraction(2) ** -96
    worst = Fraction(1)
    previous = None
    stalled = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        top, bottom = 0, 1
        for i in range(p):
            zr, zi = real[i], imag[i]
            vr, vi, dr, di = _horner(fixed, zr, zi, F)
            if vr == vi == 0:
                continue
            if dr == di == 0:
                real[i] += 1 << (F - F // 3)
                if top < bottom:
                    top, bottom = 1, 1
                continue
            nr, ni = _divide(vr, vi, dr, di, F)
            # sum of 1/(z_i - z_j), kept at 2^-2F until the final shift
            rr = ri = 0
            for j in range(p):
                if j != i:
                    xr, xi = zr - real[j], zi - imag[j]
                    k = cube // (xr * xr + xi * xi)
                    rr += xr * k
                    ri -= xi * k
            rr >>= F
            ri >>= F
            mr = one - ((nr * rr - ni * ri) >> F)
            mi = -((nr * ri + ni * rr) >> F)
            sr, si = (nr, ni) if mr == mi == 0 else _divide(nr, ni, mr, mi, F)
            zr -= sr
            zi -= si
            real[i], imag[i] = zr, zi
            size = sr * sr + si * si
            scale = max(one * one, zr * zr + zi * zi)
            if size * bottom > top * scale:
                top, bottom = size, scale
        worst = Fraction(top, bottom)
        if worst < target:
            break
        if worst < stall_floor and previous is not None and 4 * worst > previous:
            stalled += 1
            if stalled >= 3:
                break
        else:
            stalled = 0
        previous = worst
    else:
        with mpmath.workprec(53):
            worst_step = mpmath.sqrt(mpmath.mpf(worst.numerator) / worst.denominator)
            raise ConvergenceError(MAX_SWEEPS, mpmath.nstr(worst_step, 5))

    polish_bits = 2 * precision_bits + 128 + 2 * p
    shift = polish_bits - F
    fixed = [_fixed(c, polish_bits) for c in monic]
    with mpmath.workprec(polish_bits):
        exact = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
        polished = []
        worst_residual = mpmath.mpf(0)
        for zr, zi in zip(real, imag):
            zr <<= shift
            zi <<= shift
            for _ in range(4):
                vr, vi, dr, di = _horner(fixed, zr, zi, polish_bits)
                if vr == vi == 0 or dr == di == 0:
                    break
                sr, si = _divide(vr, vi, dr, di, polish_bits)
                zr -= sr
                zi -= si
            z = mpmath.mpc(mpmath.ldexp(zr, -polish_bits), mpmath.ldexp(zi, -polish_bits))
            polished.append(z)
            worst_residual = max(worst_residual, abs(mpmath.polyval(exact, z)))
        w_images = tuple(z_to_w(z, q.params.L) for z in polished)

    return RootSet(
        params=q.params,
        precision_bits=precision_bits,
        z_roots=tuple(polished),
        w_roots=w_images,
        max_poly_residual=worst_residual,
        sweeps=sweeps,
    )


def bae_residuals_by_form(rs: RootSet) -> dict:
    """Worst Bethe-equation residual over all roots, for each form.

    z-form, per root j (blank product for p = 1):

        ((z_j A - 1)/(z_j - A))^M = prod_(k!=j) (z_j B - z_k)/(z_j - z_k B)

    with A = exp(2 s eta), B = exp(2 eta), eta = -(L-1) pi i / L.  w-form,
    on the Moebius images, with an overall sign (-1)^(p-1) on the product:

        w_j^M = (-1)^(p-1) prod_(k!=j)
                (sh w_j w_k - sp w_j + sm w_k + sh) /
                (sh w_j w_k - sp w_k + sm w_j + sh)

    where sh, sp, sm are sinh of eta, (2s+1) eta, (2s-1) eta.  Coincident
    roots are rejected before either form is evaluated.  Each product is
    taken as one numerator over one denominator, so there is one division
    per root.  The worst residual of a root set is the max of the two.
    """
    params = rs.params
    L, M, p = params.L, params.M, params.p
    work = rs.precision_bits + 128 + 2 * p
    with mpmath.workprec(work):
        z = [mpmath.mpc(v) for v in rs.z_roots]
        w = [mpmath.mpc(v) for v in rs.w_roots]
        min_gap = mpmath.mpf(2) ** -(work // 2)
        for i in range(p):
            for j in range(i + 1, p):
                if abs(z[i] - z[j]) < min_gap:
                    raise ValueError(f"roots {i} and {j} coincide")

        eta = mpmath.mpc(0, -(L - 1)) * mpmath.pi / L
        big_a = mpmath.exp((L - 2) * eta)  # 2s = L - 2
        big_b = mpmath.exp(2 * eta)
        zb = [v * big_b for v in z]
        res_z = mpmath.mpf(0)
        for j in range(p):
            lhs = ((z[j] * big_a - 1) / (z[j] - big_a)) ** M
            num = den = mpmath.mpc(1)
            for k in range(p):
                if k != j:
                    num *= zb[j] - z[k]
                    den *= z[j] - zb[k]
            res_z = max(res_z, abs(lhs - num / den))

        sh = mpmath.sinh(eta)
        sp = mpmath.sinh((L - 1) * eta)  # (2s+1) eta
        sm = mpmath.sinh((L - 3) * eta)  # (2s-1) eta
        sign = (-1) ** (p - 1)
        w_sh = [sh * v for v in w]
        w_sp = [sp * v for v in w]
        w_sm = [sm * v for v in w]
        res_w = mpmath.mpf(0)
        for j in range(p):
            lhs = w[j] ** M
            num = mpmath.mpc(sign)
            den = mpmath.mpc(1)
            for k in range(p):
                if k != j:
                    pair = w_sh[j] * w[k] + sh
                    num *= pair - w_sp[j] + w_sm[k]
                    den *= pair - w_sp[k] + w_sm[j]
            res_w = max(res_w, abs(lhs - num / den))
    return {"z": res_z, "w": res_w}


def root_product_gap(rs: RootSet) -> mpmath.mpf:
    """|prod z_j - (-1)^p|; the product must match Q(0) = 1."""
    with mpmath.workprec(rs.precision_bits + 64):
        prod = mpmath.mpc(1)
        for z in rs.z_roots:
            prod *= z
        return abs(prod - (-1) ** rs.params.p)


def inversion_closure_gap(rs: RootSet) -> mpmath.mpf:
    """How far the root multiset is from being closed under z -> 1/z."""
    with mpmath.workprec(rs.precision_bits + 64):
        worst = mpmath.mpf(0)
        for z in rs.z_roots:
            inv = 1 / z
            worst = max(worst, min(abs(inv - other) for other in rs.z_roots))
        return worst


def numeric_cross_check(rs: RootSet, e1: CyclotomicNumber) -> CheckResult:
    """Sum of the Moebius images against the exact root sum e1, both directions."""
    precision = rs.precision_bits
    with mpmath.workprec(precision + 64):
        forward = mpmath.fsum(rs.w_roots, absolute=False)
        backward = mpmath.fsum([1 / w for w in rs.w_roots], absolute=False)
        target = e1.embed(precision + 64)
        gap = max(abs(forward - target), abs(backward - target))
        tolerance = mpmath.mpf(2) ** -(precision - 40)
    return CheckResult(
        name="root-sum",
        params={"L": rs.params.L, "N": rs.params.N},
        passed=gap < tolerance,
        residual=mpmath.nstr(gap, 8),
        detail=f"tolerance {mpmath.nstr(tolerance, 4)}",
    )
