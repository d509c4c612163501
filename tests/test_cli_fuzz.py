"""Fuzz the CLI in process with argument lists drawn from its own
vocabulary: every call must return 0, 1 or 2, and no exception may
escape main.  Ranks, primes and group orders stay small enough that an
example takes a few tens of milliseconds; the order ceiling and the
work ceilings are drawn too, since they refuse before any work."""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from udrfusion.cli import main

VERIFY_TOKENS = ["thm42", "thm43", "thm11", "lemma410", "cor34", "prop48", "cor49", "oracle-h1"]

# an integer argument: mostly small, sometimes negative, huge or not an
# integer at all
_INT_TEXT = st.one_of(
    st.integers(-1, 14).map(str),
    st.sampled_from(["0", "-3", "1000000000", "x", "1.5", "", " 7"]),
)
_PRIME_TEXT = st.sampled_from(["3", "5", "7", "11", "13", "29", "31", "37", "43", "97", "101",
                               "2", "4", "9", "1", "0", "-7", "x"])
_MALFORMED_LIST = st.sampled_from(["", ",", "1,,2", "2,x", "1;2", " 3 , 4 ", "-0", "0", "2,-1"])


def _optional(flag: str, value: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(st.just([]), value.map(lambda v: [flag, v]))


def _concat(*parts: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(*parts).map(lambda lists: [tok for part in lists for tok in part])


def _rarely(draw, usual: str, other: st.SearchStrategy) -> str:
    """usual, or one time in five a draw from other: mostly well-formed
    arguments get past the parser and the checks to the routes."""
    return draw(other) if draw(st.integers(0, 4)) == 4 else usual


def _int_list(values: list[int]) -> str:
    return ",".join(map(str, values))


_FORMAT = _optional("--format", st.sampled_from(["json", "csv"]))


@st.composite
def _analyze_dihedral(draw) -> list[str]:
    """A rank under 15, since the default prime of a huge rank is searched
    for, and an index mostly inside it."""
    n = draw(st.integers(-1, 14))
    i0 = _rarely(draw, str(draw(st.integers(1, max(n // 2, 1)))), _INT_TEXT)
    n_text = _rarely(draw, str(n), st.sampled_from(["0", "-3", "x", "1.5", ""]))
    argv = ["analyze", "dihedral", "--n", n_text, "--i0", i0]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--p", draw(_PRIME_TEXT)]
    return argv + draw(_FORMAT)


@st.composite
def _analyze_abelian(draw) -> list[str]:
    """Cyclic orders up to 7 (or the 2^22 of the order ceiling) with
    exponent lists of the same length, now and then malformed or of
    another length."""
    if draw(st.integers(0, 9)) == 0:
        orders = [2] * 22
    else:
        orders = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
    thetas = [
        _rarely(
            draw,
            _int_list(draw(st.lists(st.integers(-2, 7), min_size=len(orders),
                                    max_size=len(orders)))),
            st.one_of(st.lists(st.integers(0, 3), max_size=3).map(_int_list), _MALFORMED_LIST),
        )
        for _ in range(2)
    ]
    argv = ["analyze", "abelian", "--orders", _rarely(draw, _int_list(orders), _MALFORMED_LIST),
            "--theta1", thetas[0], "--theta2", thetas[1]]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--p", draw(_PRIME_TEXT)]
    return argv + draw(_FORMAT)


@st.composite
def _scan(draw) -> list[str]:
    """A range inside 3..18, or now and then an empty, malformed or
    refused one (up to 2000, past the work ceiling)."""
    n_min = draw(st.integers(3, 16))
    n_max = draw(st.integers(n_min, 18))
    argv = ["scan", "dihedral",
            "--n-min", _rarely(draw, str(n_min), _INT_TEXT),
            "--n-max", _rarely(draw, str(n_max), st.sampled_from(["2", "2000", "x"]))]
    return argv + draw(_optional("--primes-per-n", st.integers(-1, 2).map(str))) + draw(_FORMAT)


# verify always gets a ceiling: the default ceilings run every family in full
_VERIFY = _concat(
    st.just(["verify"]),
    _optional("--check", st.sampled_from([*VERIFY_TOKENS, "all", "thm99"])),
    st.one_of(st.integers(-1, 6).map(str), st.just("1000000000"), st.just("x")).map(
        lambda v: ["--n-max", v]
    ),
)

# token soup: any order, any count, parsed or refused by argparse.  The
# verify command word is left out for the reason above.
_SOUP = st.lists(
    st.sampled_from(["analyze", "scan", "dihedral", "abelian", "--n", "--p", "--i0", "--orders",
                     "--theta1", "--theta2", "--format", "json", "csv", "xml", "--n-min",
                     "--n-max", "--primes-per-n", "--check", "all", "-h", "3", "5", "1", "2,3",
                     "x", "-1"]),
    max_size=8,
)

ARGV = st.one_of(_analyze_dihedral(), _analyze_abelian(), _scan(), _VERIFY, _SOUP)


@settings(max_examples=120, deadline=1000)
@given(ARGV)
def test_cli_returns_a_status_for_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 0:
        assert out.getvalue() != ""
    elif rc == 2 and not err.getvalue().startswith("usage:"):
        assert err.getvalue().startswith("error: ")
