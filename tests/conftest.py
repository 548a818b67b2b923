"""Helpers shared by the test modules (import them with `from conftest import ...`)."""

import math
from fractions import Fraction
from math import comb
from unittest import mock

import mpmath

from qchain.cyclotomic import CyclotomicNumber, _reduce, cyc_cos, zeta_power
from qchain.energy import groundstate_summary
from qchain.fixedpoint import Measured, _divide, _mul, _product, _scaled_mul
from qchain.linalg import SingularMatrixError, solve_linear_system
from qchain.qoperator import ChainParams, QPolynomial, admissible_indices, build_q
from qchain.rationals import divide_monic
from qchain.report import CheckResult
import qchain.roots
from qchain.bethe import _constants, _scale_bound


def summary_at(L, N):
    """Groundstate summary of one (L, N) point, Q built by the closed form."""
    return groundstate_summary(build_q(ChainParams(L, N)))


def summaries_for(L, N_max=2):
    """One L's summaries for N = 1..max(N_max, 2), ordered by N."""
    return [summary_at(L, N) for N in range(1, max(N_max, 2) + 1)]


def count_fractions(monkeypatch):
    """A list that records the arguments of every Fraction made until monkeypatch.undo()."""
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return made


def q_at(q, z):
    """Q evaluated at z (rational or cyclotomic) by Horner's rule."""
    coeffs = q.coefficients()
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def field_inverse_oracle(x):
    """x^-1 from x's full phi x phi integer multiplication matrix.

    The reference for `CyclotomicNumber.inverse`, which solves in the real
    subfield: column j is nums * zeta^j reduced by the power table, and
    Bareiss solves (columns) y = den e_0, so x^-1 = y / d.
    """
    if x.is_zero():
        raise ZeroDivisionError("inverse of zero in cyclotomic field")
    dim = len(x.nums)
    columns = [_reduce(x.order, [0] * j + list(x.nums)) for j in range(dim)]
    rhs = [x.den] + [0] * (dim - 1)
    try:
        d, y = solve_linear_system([[*row, b] for row, b in zip(zip(*columns), rhs)])
    except SingularMatrixError:
        raise AssertionError("modulus not coprime to nonzero element")
    return CyclotomicNumber(x.order, y, d)


def linear_system_oracle(params):
    """Q from the full p x p system of vanishing conditions, one row per admissible index.

    The reference for `q_linear_system`, which solves the same conditions
    on the M+1 support exponents of (1+x)^M E(x): here each admissible ell
    gives sum_j C(M, ell-j) e_j = 0, with e_0 = 1 moved to the right-hand
    side, and Bareiss solves for e_1..e_p directly.
    """
    M, p = params.M, params.p
    rows = []
    for ell in admissible_indices(params):
        row = [0] * (p + 1)
        lo, hi = max(0, ell - M), min(p, ell)
        for j in range(max(lo, 1), hi + 1):
            row[j - 1] = comb(M, ell - j)
        row[p] = -comb(M, ell) if lo == 0 else 0
        rows.append(row)
    d, y = solve_linear_system(rows)
    return QPolynomial(params, (d, *y), d)


def support_system_oracle(params):
    """Q from the M x (M+1) power-row system on the support of (1+x)^M E(x).

    The reference for `q_linear_system`, which writes the same kernel in
    closed form: P(x) = (1+x)^M E(x) lives on the M+1 excluded exponents
    with P_0 = e_0 = 1, and sum_s P_s (-1)^s s^i = 0 for i < M is solved
    for the other M coefficients by Bareiss.  E is then the exact quotient
    of P by (1+x)^M, by long division.
    """
    L, N, M = params.L, params.N, params.M
    half = (L - 1) // 2
    # the excluded exponents but s = 0, where P_0 = 1 goes to the right-hand side
    support = sorted({L * k for k in range(1, N + 1)} | {L * k + half for k in range(N + 1)})
    rows = [[(-1) ** s * s**i for s in support] + [-1 if i == 0 else 0] for i in range(M)]
    d, y = solve_linear_system(rows)
    numerator = [0] * (L * N + half + 1)
    numerator[0] = d
    for s, coefficient in zip(support, y):
        numerator[s] = coefficient
    return QPolynomial(params, tuple(divide_monic(numerator, [comb(M, i) for i in range(M + 1)])), d)


def _cyclo_convolve(a, b, order):
    out = [CyclotomicNumber.zero(order)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def tq_oracle(q):
    """The three-term identity by plain field arithmetic, term by term.

    The reference for `verify_tq_identity`, which collects the same sum in
    buckets by zeta exponent: each of the three terms is expanded as field
    polynomials, the two factors convolved, and the results added with
    their prefactors.  Same CheckResult contract (passed, residual, detail).
    """
    params = q.params
    L, M, p = params.L, params.M, params.p
    order = params.field_order
    half = (L - 1) // 2

    one = CyclotomicNumber.one(order)
    omega = zeta_power(2, L)
    omega_bar = zeta_power(-2, L)
    prefactors = [
        CyclotomicNumber.from_rational(-2, order) * cyc_cos(half, L),
        zeta_power(-half, L),
        zeta_power(half, L),
    ]
    shifts = [one, omega, omega_bar]

    total = [CyclotomicNumber.zero(order)] * (M + p + 1)
    for prefactor, shift in zip(prefactors, shifts):
        shift_powers = [one]
        for _ in range(max(M, p)):
            shift_powers.append(shift_powers[-1] * shift)
        # (z - shift)^M, ascending
        binomial_part = [
            Fraction(comb(M, i)) * (-1) ** (M - i) * shift_powers[M - i]
            for i in range(M + 1)
        ]
        # prod_j (z - shift * z_j), ascending
        shifted_q = [CyclotomicNumber.zero(order)] * (p + 1)
        for k in range(p + 1):
            shifted_q[p - k] = Fraction((-1) ** k) * q.e[k] * shift_powers[k]
        product = _cyclo_convolve(binomial_part, shifted_q, order)
        for i, c in enumerate(product):
            total[i] = total[i] + prefactor * c

    bad = [(i, c) for i, c in enumerate(total) if not c.is_zero()]
    if not bad:
        return CheckResult(name="tq", params={"L": L, "N": params.N}, passed=True)
    degree, witness = bad[0]
    return CheckResult(
        name="tq",
        params={"L": L, "N": params.N},
        passed=False,
        residual=str(witness.to_dict(64)["coeffs"]),
        detail=f"{len(bad)} nonzero coefficients, first at degree {degree}",
    )


def as_mpc(points, bits):
    """Fixed-point (re, im) int pairs at 2^-bits, such as RootSet.z and .w, as exact mpc values."""
    with mpmath.workprec(max(53, *(abs(x).bit_length() for point in points for x in point))):
        return [mpmath.mpc(mpmath.ldexp(re, -bits), mpmath.ldexp(im, -bits)) for re, im in points]


def moebius_oracle(z, L):
    """w = (z a - 1)/(z - a), a = exp(-2 pi i / L), in mpmath at the caller's
    precision: the reference for the fixed-point `z_to_w`."""
    a = mpmath.expjpi(mpmath.mpf(-2) / L)
    return (z * a - 1) / (z - a)


def bae_oracle(rs, bits):
    """Both Bethe forms in mpmath at `bits`, the reference for `bae_residuals_by_form`.

    The same equations, coincidence test and A, B, sh, sp, sm as the
    fixed-point kernel, evaluated in floating point at the caller's
    precision; at a few dozen bits above the kernel's scale its own
    rounding is far below the kernel's bound.
    """
    params = rs.params
    L, M, p = params.L, params.M, params.p
    with mpmath.workprec(bits):
        z = as_mpc(rs.z, rs.bits)
        w = as_mpc(rs.w, rs.bits)
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
        res_w = mpmath.mpf(0)
        for j in range(p):
            lhs = w[j] ** M
            num = mpmath.mpc(sign)
            den = mpmath.mpc(1)
            for k in range(p):
                if k != j:
                    pair = sh * w[j] * w[k] + sh
                    num *= pair - sp * w[j] + sm * w[k]
                    den *= pair - sp * w[k] + sm * w[j]
            res_w = max(res_w, abs(lhs - num / den))
    return {"z": res_z, "w": res_w}


def bae_all_roots_oracle(rs, only=None):
    """Both Bethe forms in fixed point, each root measured on its own numbers.

    The reference for `bae_residuals_by_form`, which reads the residuals of
    each orbit {z, conj z, 1/z, 1/conj z} from one root's numbers: this is the loop
    that measured every root directly, with its bound 192 n e 2^(spread - low)
    (e = 7m for the z-form, 25m^2 for the w-form), over the roots listed in
    `only` (default all), so `only=[j]` gives root j's own Measured.
    """
    params = rs.params
    L, M, p = params.L, params.M, params.p
    F, z, w = rs.bits, rs.z, rs.w
    one = 1 << F
    keep = F + 1
    n = 4 * (p + M)
    sign = (-1) ** (p - 1)
    (Ar, Ai), B, sh, sp, sm = _constants(L, F)
    chosen = range(p) if only is None else only

    def worst(roots, factor_error):
        top, bottom, spread, low = 0, 1, None, keep
        for a, b, nums, dens in roots:
            nr, ni, ne, low_n = _product(nums, F)
            dr, di, de, low_d = _product(dens, F)
            pr, pi, pe, low_a = _product([a] * M, F)
            qr, qi, qe, low_b = (one, 0, -F, keep) if b is None else _product([b] * M, F)
            low = min(low, low_n, low_d, low_a, low_b)
            x1r, x1i, e1 = _scaled_mul(pr, pi, pe, dr, di, de, keep)
            x2r, x2i, e2 = _scaled_mul(qr, qi, qe, nr, ni, ne, keep)
            yr, yi, ey = _scaled_mul(qr, qi, qe, dr, di, de, keep)
            e = min(e1, e2)
            xr = (x1r << e1 - e) - (x2r << e2 - e)
            xi = (x1i << e1 - e) - (x2i << e2 - e)
            num, den = xr * xr + xi * xi, yr * yr + yi * yi
            if e > ey:
                num <<= 2 * (e - ey)
            else:
                den <<= 2 * (ey - e)
            if num * bottom > top * den:
                top, bottom = num, den
            gap = max(
                (abs(x1r) | abs(x1i)).bit_length() + e1, (abs(x2r) | abs(x2i)).bit_length() + e2
            ) - ((abs(yr) | abs(yi)).bit_length() + ey)
            spread = gap if spread is None else max(spread, gap)
        error = None if 16 * n * factor_error > 1 << low else (192 * n * factor_error, spread - low)
        return Measured.from_square(top, bottom, F, error)

    zb = [_mul(*v, *B, F) for v in z]
    z_roots = []
    for j in chosen:
        (zr, zi), (br, bi) = z[j], zb[j]
        ar, ai = _mul(zr, zi, Ar, Ai, F)
        nums = [(one, 0)] + [(br - kr, bi - ki) for k, (kr, ki) in enumerate(z) if k != j]
        dens = [(one, 0)] + [(zr - cr, zi - ci) for k, (cr, ci) in enumerate(zb) if k != j]
        z_roots.append(((ar - one, ai), (zr - Ar, zi - Ai), nums, dens))
    w_roots = []
    for j in chosen:
        wj = w[j]
        nums, dens = [(sign * one, 0)], [(one, 0)]
        for k, wk in enumerate(w):
            if k != j:
                pair = _mul(*_mul(*wj, *sh, F), *wk, F)
                pr, pi = pair[0] + sh[0], pair[1] + sh[1]
                a, b = _mul(*wj, *sp, F), _mul(*wk, *sm, F)
                c, d = _mul(*wk, *sp, F), _mul(*wj, *sm, F)
                nums.append((pr - a[0] + b[0], pi - a[1] + b[1]))
                dens.append((pr - c[0] + d[0], pi - c[1] + d[1]))
        w_roots.append((wj, None, nums, dens))
    m = _scale_bound(w, F)
    return {"z": worst(z_roots, 7 * _scale_bound(z, F)), "w": worst(w_roots, 25 * m * m)}


def product_oracle(rs, bits):
    """|prod z_j - (-1)^p| in mpmath at `bits`, the reference for `root_product_gap`."""
    with mpmath.workprec(bits):
        prod = mpmath.mpc(1)
        for z in as_mpc(rs.z, rs.bits):
            prod *= z
        return abs(prod - (-1) ** rs.params.p)


def inversion_oracle(rs, bits):
    """max_j min_k |1/z_j - z_k| in mpmath at `bits`, the reference for `inversion_closure_gap`."""
    with mpmath.workprec(bits):
        worst = mpmath.mpf(0)
        roots = as_mpc(rs.z, rs.bits)
        for z in roots:
            inv = 1 / z
            worst = max(worst, min(abs(inv - other) for other in roots))
        return worst


def poly_residual_oracle(q, rs, bits):
    """max_j |Q(z_j)| by mpmath.polyval at `bits`, the reference for `max_poly_residual`."""
    with mpmath.workprec(bits):
        exact = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(q.coefficients())]
        return max(abs(mpmath.polyval(exact, z)) for z in as_mpc(rs.z, rs.bits))


def polish_every_root_oracle(q, precision_bits):
    """find_roots with each root polished by its own Newton ladder.

    The reference for the mirrored roots: find_roots polishes one root of
    each conjugate pair and stores the other as its mirror image; this is
    its fallback path, which runs the ladder on all p roots, forced here.
    """
    with mock.patch.object(qchain.roots, "_mirror_pairs", lambda points, good: None):
        return qchain.roots.find_roots(q, precision_bits)


def inversion_scan_oracle(rs):
    """max_j min_k |1/z_j - z_k| by a scan over all roots for every j, with
    the same rounding bound: the reference for `inversion_closure_gap`, which
    reads the nearest root from the partner map."""
    F, z = rs.bits, rs.z
    worst = 0
    for zr, zi in z:
        ir, ii = _divide(1 << F, 0, zr, zi, F)
        worst = max(worst, min((ir - kr) ** 2 + (ii - ki) ** 2 for kr, ki in z))
    low = min(abs(zr) | abs(zi) for zr, zi in z).bit_length()
    error = None if low < 3 else (3 * 4 ** max(0, F + 1 - low) + 3, -F)
    return Measured.from_square(worst, 1 << 2 * F, F, error)


def coincidence_oracle(z, bits):
    """The first pair (i, j), i < j, of fixed-point points closer than
    2^-(bits//2), by comparing all pairs exactly, or None: the reference
    for the near-pair pass of `bae_residuals_by_form`."""
    min_gap = 1 << 2 * (bits - bits // 2)
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if (z[i][0] - z[j][0]) ** 2 + (z[i][1] - z[j][1]) ** 2 < min_gap:
                return i, j
    return None


def exact_value(x) -> Fraction:
    """An mpf as the exact Fraction it is."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def to_fixed(x, bits):
    """An mpmath number scaled by 2^bits, each part truncated toward zero:
    how the validator read its mpmath constants into fixed point before the
    integer kernel fixedpoint.expjpi made them."""
    return int(mpmath.ldexp(x.real, bits)), int(mpmath.ldexp(x.imag, bits))


def pole_oracle(L, bits):
    """The Moebius pole exp(-2 pi i / L) from mpmath at bits + 64, read at
    2^-(bits + 64): the mpmath version of `roots._pole`."""
    with mpmath.workprec(bits + 64):
        return to_fixed(mpmath.expjpi(mpmath.mpf(-2) / L), bits + 64)


def constants_oracle(L, bits):
    """A, B, sh, sp, sm from mpmath at bits + 64, read at 2^-bits: the mpmath
    version of `bethe._constants`."""
    with mpmath.workprec(bits + 64):
        eta = mpmath.mpc(0, -(L - 1)) * mpmath.pi / L
        values = (
            mpmath.exp((L - 2) * eta),
            mpmath.exp(2 * eta),
            mpmath.sinh(eta),
            mpmath.sinh((L - 1) * eta),
            mpmath.sinh((L - 3) * eta),
        )
        return tuple(to_fixed(v, bits) for v in values)


def closed_form_oracle(L, N, precision_bits=256):
    """The published closed form of the root sum in mpmath at precision_bits:
    the mpmath version of `energy.closed_form_root_sum`."""
    from qchain.energy import CLOSED_FORM_SUMS

    def trig_sum(terms):
        total = mpmath.mpf(0)
        for coeff, kind, a in terms:
            if kind == "one":
                total += coeff
            elif kind == "cos":
                total += coeff * mpmath.cospi(mpmath.mpf(a) / (2 * L))
            else:
                total += coeff * mpmath.sinpi(mpmath.mpf(a) / (2 * L))
        return total

    (scale1, num1, den1), (scale2, num2, den2) = CLOSED_FORM_SUMS[L]
    with mpmath.workprec(precision_bits):
        first = scale1 * trig_sum(num1) / trig_sum(den1)
        second = scale2 * trig_sum(num2) / trig_sum(den2)
        return (N - 1) * first + (2 - N) * second


def closed_form_gap_oracle(summary, precision_bits=256):
    """|E1 - closed form| in mpmath at precision_bits, E1 by
    `CyclotomicNumber.embed`: the mpmath version of the gap that
    `crosscheck_closed_forms` reports."""
    reference = closed_form_oracle(summary.params.L, summary.params.N, precision_bits)
    mine = summary.E1.embed(precision_bits)
    with mpmath.workprec(precision_bits):
        return abs(mine - reference)


def root_sum_oracle(rs, e1):
    """`numeric_cross_check` with e1 embedded by mpmath at F + 64 and
    truncated to F, as it was made before the integer embedding."""
    F, w = rs.bits, rs.w
    inverses = [_divide(1 << F, 0, wr, wi, F) for wr, wi in w]
    er, ei = to_fixed(e1.embed(F + 64), F)
    worst = max(
        (sum(xr for xr, _ in terms) - er) ** 2 + (sum(xi for _, xi in terms) - ei) ** 2
        for terms in (w, inverses)
    )
    return Measured.from_square(worst, 1 << 2 * F, F, None).value


def handover_scan_oracle(correction, points):
    """`roots._handover_bits` with each point's nearest other point found by
    a scan over all the others, a copy of the list per point: the reference
    for the sweep by real part that it reads."""
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


def dense_horner_oracle(coeffs, zr, zi, bits, slope=True):
    """Q(z) and Q'(z) in fixed point at 2^-bits, (Re Q, Im Q, Re Q', Im Q'),
    Q' left at 0 unless slope, by Horner's rule on the dense coefficients,
    ascending and scaled like z: the loop that evaluated Q before
    `fixedpoint._horner` read term lists, each product rounding each part
    down (Gauss's three products)."""
    zs = zr + zi
    ar, ai = coeffs[-1], 0
    dr = di = 0
    for c in reversed(coeffs[:-1]):
        if slope:
            t1, t2 = dr * zr, di * zi
            dr, di = ((t1 - t2) >> bits) + ar, (((dr + di) * zs - t1 - t2) >> bits) + ai
        t1, t2 = ar * zr, ai * zi
        ar, ai = ((t1 - t2) >> bits) + c, ((ar + ai) * zs - t1 - t2) >> bits
    return ar, ai, dr, di


def float_corrector_oracle(monic):
    """x -> (N, bound): Q/Q' at x in doubles by Horner's rule on the dense
    monic Q, with the bound 4 (p+1) u sum_k |c_k| |x|^k / |Q'(x)|, u = 2^-53:
    how Q's corrections in doubles were made before Q's own term list
    (`multiple._own`) made them."""
    terms = [(c, abs(c)) for c in map(float, reversed(monic[:-1]))]
    noise = 4 * len(monic) * 2.0**-53

    def correction(x: complex):
        r = abs(x)
        v, d, size = 1 + 0j, 0j, 1.0
        for c, a in terms:
            d = d * x + v
            v = v * x + c
            size = size * r + a
        return v / d, noise * size / abs(d)

    return correction
