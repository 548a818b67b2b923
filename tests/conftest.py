"""Helpers shared by the test modules (import them with `from conftest import ...`)."""

from fractions import Fraction
from math import comb

from qchain.cyclotomic import CyclotomicNumber, cyc_cos, zeta_power
from qchain.energy import groundstate_summary
from qchain.qoperator import MIN_REPORT_BITS, ChainParams, build_q
from qchain.report import CheckResult


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
        residual=str(witness.to_dict(MIN_REPORT_BITS)["coeffs"]),
        detail=f"{len(bad)} nonzero coefficients, first at degree {degree}",
    )
