"""Every construction and orbit entry point is bounded in p and n: at the
largest primes is_prime decides, at n = p - 1 and at n just above each
ceiling, a call returns or raises LimitExceeded or ValueError within a
second.  The inputs are fixed."""

from __future__ import annotations

import signal

import pytest

from udrfusion import ffield, orbits
from udrfusion.abelian import AbelianParams, CharacterPair, abelian_orbits
from udrfusion.dihedral import DihedralParams
from udrfusion.ffield import (
    PRIME_SEARCH_CEILING,
    ROOT_ORDER_CEILING,
    LimitExceeded,
    find_prime,
    find_primes,
    has_order,
    is_prime,
    multiplicative_order,
    primitive_root_of_unity,
)
from udrfusion.fusion import fusion_orbits_closed_form

# is_prime decides every m below this bound and refuses the rest
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
# a prime p = 1 (mod 12) just below it: p - 1 has the prime factors 2, 3
# and 103 below PRIME_SEARCH_CEILING, and a composite cofactor with none
P = 3_317_044_064_679_887_385_961_813
W = 128_170_379_506_701_445_685_355  # of order 12 mod P
# a prime just below the bound whose p - 1 has every prime factor below
# 5 * 10^6, so the order tests at n = p - 1 finish and only the root's
# least-of-all-generators step is left to bound
SMOOTH_P = 3_317_044_064_679_887_385_961_657
SMOOTH_ROOT = 13  # a generator of F_SMOOTH_P^*
# the root order just above its ceiling, and a prime = 1 mod it
ROOT_N = ROOT_ORDER_CEILING + 1
ROOT_P = 2 * ROOT_N + 1
# a few times ORBIT_LIMIT: the coset table would take tens of MB
COSET_P = 4_000_037


PROBES = {
    "is_prime(P)": lambda: is_prime(P),
    "is_prime(bound)": lambda: is_prime(MILLER_RABIN_BOUND),
    "find_prime(P - 1)": lambda: find_prime(P - 1),
    "find_prime(3, P)": lambda: find_prime(3, P),
    "find_primes(ceiling + 1, 2)": lambda: find_primes(PRIME_SEARCH_CEILING + 1, 2),
    "multiplicative_order(2, P)": lambda: multiplicative_order(2, P),
    "multiplicative_order(2, smooth P)": lambda: multiplicative_order(2, SMOOTH_P),
    "has_order(W, P - 1, P)": lambda: has_order(W, P - 1, P),
    "has_order(W, 12, P)": lambda: has_order(W, 12, P),
    "primitive_root_of_unity(P, 12)": lambda: primitive_root_of_unity(P, 12),
    "primitive_root_of_unity(P, P - 1)": lambda: primitive_root_of_unity(P, P - 1),
    "primitive_root_of_unity(smooth P, P - 1)": lambda: primitive_root_of_unity(SMOOTH_P, SMOOTH_P - 1),
    "primitive_root_of_unity(p, ceiling + 1)": lambda: primitive_root_of_unity(ROOT_P, ROOT_N),
    "DihedralParams(12, P, W)": lambda: DihedralParams(12, P, W),
    "DihedralParams(P - 1, P, W)": lambda: DihedralParams(P - 1, P, W),
    "DihedralParams(smooth P - 1, ...)": lambda: DihedralParams(SMOOTH_P - 1, SMOOTH_P, SMOOTH_ROOT),
    "DihedralParams.standard(12, P)": lambda: DihedralParams.standard(12, P),
    "DihedralParams.standard(P - 1, P)": lambda: DihedralParams.standard(P - 1, P),
    "DihedralParams.standard(ceiling + 1, p)": lambda: DihedralParams.standard(ROOT_N, ROOT_P),
    "AbelianParams.standard((P - 1,), P)": lambda: AbelianParams.standard((P - 1,), P),
    "AbelianParams.standard((ceiling + 1,))": lambda: AbelianParams.standard((ROOT_N,)),
    "CharacterPair.from_exponents at P - 1": lambda: CharacterPair.from_exponents(
        AbelianParams((P - 1,), P), (1,), (1,)
    ),
    "CharacterPair.from_exponents at ceiling + 1": lambda: CharacterPair.from_exponents(
        AbelianParams((ROOT_N,), ROOT_P), (1,), (1,)
    ),
    "coset_minima(a few times ORBIT_LIMIT)": lambda: orbits.coset_minima(COSET_P, (1, COSET_P - 1)),
    "fusion_orbits_closed_form at P": lambda: fusion_orbits_closed_form(DihedralParams(12, P, W), 1),
    "abelian_orbits at P": lambda: abelian_orbits(
        CharacterPair.from_exponents(AbelianParams((2,), P), (1,), (1,))
    ),
}


class _Overran(Exception):
    pass


def _overran(signum, frame):
    raise _Overran


def test_entry_points_return_or_refuse_within_a_second(monkeypatch):
    previous = signal.signal(signal.SIGALRM, _overran)
    overran = []
    try:
        for name, probe in PROBES.items():
            signal.alarm(1)
            try:
                probe()
            except (LimitExceeded, ValueError):
                pass
            except _Overran:
                overran.append(name)
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert overran == []

    # no construction path reads the order of omega from the divisors of p - 1
    def no_order_search(*args):
        raise AssertionError("multiplicative_order called")

    monkeypatch.setattr(ffield, "multiplicative_order", no_order_search)
    assert DihedralParams(12, P, W).omega == W
    assert DihedralParams.standard(12, P).omega == primitive_root_of_unity(P, 12)
    with pytest.raises(ValueError, match=r"^0 does not have order 12 mod "):
        DihedralParams(12, P, P)
