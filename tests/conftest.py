"""Helpers shared by the test modules (import them with `from conftest import ...`)."""

from qchain.energy import groundstate_summary
from qchain.polynomials import RationalPolynomial
from qchain.qoperator import ChainParams, build_q


def summary_at(L, N):
    """Groundstate summary of one (L, N) point, Q built by the closed form."""
    return groundstate_summary(build_q(ChainParams(L, N)))


def summaries_for(L, N_max=2):
    """One L's summaries for N = 1..max(N_max, 2), ordered by N."""
    return [summary_at(L, N) for N in range(1, max(N_max, 2) + 1)]


def q_at(q, z):
    """Q evaluated at z through RationalPolynomial's Horner routine."""
    return RationalPolynomial(q.coefficients())(z)
