"""Arbitrary-precision root finder and Bethe-equation validator.

This module is the one place where roots are actually computed, and it is
numeric on purpose: nothing here feeds back into the exact pipeline.  Roots
of Q come from a simultaneous Aberth iteration (all roots at once, updates
applied in place) run at a moderate guard precision, then polished root by
root with Newton steps at well above the requested precision, so the
reported residuals measure the polynomial and the Bethe equations honestly
rather than the evaluation noise.

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

from .qoperator import ChainParams, QPolynomial
from .report import CheckResult
from .wtransform import WSymmetrics

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
    max_bae_residual: mpmath.mpf | None = None
    sweeps: int = 0


def _mpc_coeffs(q: QPolynomial) -> list[mpmath.mpc]:
    out = []
    for c in q.coefficients():
        out.append(mpmath.mpc(mpmath.mpf(c.numerator) / c.denominator))
    return out


def _horner(coeffs, z):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _horner_with_derivative(coeffs, z):
    acc = coeffs[-1]
    der = mpmath.mpc(0)
    for c in reversed(coeffs[:-1]):
        der = der * z + acc
        acc = acc * z + c
    return acc, der


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

    search_bits = 128 + 2 * p
    with mpmath.workprec(search_bits):
        coeffs = _mpc_coeffs(q)
        lead = coeffs[-1]
        if lead == 0:
            raise ValueError("leading coefficient vanished")
        monic = [c / lead for c in coeffs]

        cauchy = 1 + max(abs(c) for c in monic[:-1])
        radius = cauchy ** (mpmath.mpf(1) / p)
        rng = random.Random(seed)
        offset = rng.random() * 2 * mpmath.pi / p
        roots = [
            radius * mpmath.exp(1j * (2 * mpmath.pi * k / p + offset))
            for k in range(p)
        ]

        # The achievable correction size is limited by evaluation noise,
        # which scales with the coefficients; corrections only need to land
        # the roots inside their Newton basins for the polish phase.
        noise_bits = max(0, int(mpmath.log(cauchy, 2)) + 1)
        target = mpmath.mpf(2) ** -(search_bits - 24 - noise_bits - p.bit_length())
        stall_floor = mpmath.mpf(2) ** -48
        sweeps = 0
        worst = mpmath.mpf(1)
        previous = mpmath.inf
        stalled = 0
        for sweeps in range(1, MAX_SWEEPS + 1):
            worst = mpmath.mpf(0)
            for i in range(p):
                value, derivative = _horner_with_derivative(monic, roots[i])
                if value == 0:
                    continue
                if derivative == 0:
                    roots[i] += mpmath.mpf(2) ** -(search_bits // 3)
                    worst = max(worst, mpmath.mpf(1))
                    continue
                newton = value / derivative
                repulsion = mpmath.mpc(0)
                for j in range(p):
                    if j != i:
                        repulsion += 1 / (roots[i] - roots[j])
                denom = 1 - newton * repulsion
                step = newton if denom == 0 else newton / denom
                roots[i] -= step
                worst = max(worst, abs(step) / max(1, abs(roots[i])))
            if worst < target:
                break
            if worst < stall_floor and worst * 2 > previous:
                stalled += 1
                if stalled >= 3:
                    break
            else:
                stalled = 0
            previous = worst
        else:
            raise ConvergenceError(MAX_SWEEPS, mpmath.nstr(worst, 5))

    polish_bits = 2 * precision_bits + 128 + 2 * p
    with mpmath.workprec(polish_bits):
        coeffs = _mpc_coeffs(q)
        lead = coeffs[-1]
        monic = [c / lead for c in coeffs]
        polished = []
        worst_residual = mpmath.mpf(0)
        for z in roots:
            z = mpmath.mpc(z)
            for _ in range(4):
                value, derivative = _horner_with_derivative(monic, z)
                if value == 0 or derivative == 0:
                    break
                z -= value / derivative
            polished.append(z)
            worst_residual = max(worst_residual, abs(_horner(coeffs, z)))
        w_images = tuple(z_to_w(z, q.params.L) for z in polished)

    return RootSet(
        params=q.params,
        precision_bits=precision_bits,
        z_roots=tuple(polished),
        w_roots=w_images,
        max_poly_residual=worst_residual,
        sweeps=sweeps,
    )


def bae_residual(rs: RootSet) -> mpmath.mpf:
    """Worst Bethe-equation residual over all roots, max of both forms.

    z-form, per root j (blank product for p = 1):

        ((z_j A - 1)/(z_j - A))^M = prod_(k!=j) (z_j B - z_k)/(z_j - z_k B)

    with A = exp(2 s eta), B = exp(2 eta), eta = -(L-1) pi i / L.  w-form,
    on the Moebius images, with an overall sign (-1)^(p-1) on the product:

        w_j^M = (-1)^(p-1) prod_(k!=j)
                (sh w_j w_k - sp w_j + sm w_k + sh) /
                (sh w_j w_k - sp w_k + sm w_j + sh)

    where sh, sp, sm are sinh of eta, (2s+1) eta, (2s-1) eta.  Coincident
    roots are rejected before either form is evaluated.
    """
    forms = bae_residuals_by_form(rs)
    worst = max(forms["z"], forms["w"])
    rs.max_bae_residual = worst
    return worst


def bae_residuals_by_form(rs: RootSet) -> dict:
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
        res_z = mpmath.mpf(0)
        for j in range(p):
            lhs = ((z[j] * big_a - 1) / (z[j] - big_a)) ** M
            rhs = mpmath.mpc(1)
            for k in range(p):
                if k != j:
                    rhs *= (z[j] * big_b - z[k]) / (z[j] - z[k] * big_b)
            res_z = max(res_z, abs(lhs - rhs))

        sh = mpmath.sinh(eta)
        sp = mpmath.sinh((L - 1) * eta)  # (2s+1) eta
        sm = mpmath.sinh((L - 3) * eta)  # (2s-1) eta
        sign = (-1) ** (p - 1)
        res_w = mpmath.mpf(0)
        for j in range(p):
            lhs = w[j] ** M
            rhs = mpmath.mpc(sign)
            for k in range(p):
                if k != j:
                    rhs *= (sh * w[j] * w[k] - sp * w[j] + sm * w[k] + sh) / (
                        sh * w[j] * w[k] - sp * w[k] + sm * w[j] + sh
                    )
            res_w = max(res_w, abs(lhs - rhs))
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


def numeric_cross_check(rs: RootSet, ws: WSymmetrics) -> CheckResult:
    """Sum of the Moebius images against the exact root sum, both directions."""
    precision = rs.precision_bits
    with mpmath.workprec(precision + 64):
        forward = mpmath.fsum(rs.w_roots, absolute=False)
        backward = mpmath.fsum([1 / w for w in rs.w_roots], absolute=False)
        target = ws.E1.embed(precision + 64)
        gap = max(abs(forward - target), abs(backward - target))
        tolerance = mpmath.mpf(2) ** -(precision - 40)
    return CheckResult(
        name="root-sum",
        params={"L": rs.params.L, "N": rs.params.N},
        passed=gap < tolerance,
        residual=mpmath.nstr(gap, 8),
        detail=f"tolerance {mpmath.nstr(tolerance, 4)}",
    )
