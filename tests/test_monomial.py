"""Unit tests for repro.poly.monomial."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import PolyError
from repro.poly.monomial import Monomial


def test_one_is_constant():
    assert Monomial.one().is_constant()
    assert Monomial.one().degree == 0
    assert str(Monomial.one()) == "1"


def test_var_construction():
    m = Monomial.var("x", 3)
    assert m.degree == 3
    assert m.exponent("x") == 3
    assert m.exponent("y") == 0
    assert str(m) == "x^3"


def test_zero_exponents_dropped():
    assert Monomial({"x": 0}) == Monomial.one()


def test_negative_exponent_rejected():
    with pytest.raises(PolyError):
        Monomial({"x": -1})


def test_non_integer_exponent_rejected():
    with pytest.raises(PolyError):
        Monomial({"x": 1.5})


def test_multiplication_merges_exponents():
    product = Monomial.var("x") * Monomial({"x": 1, "y": 2})
    assert product == Monomial({"x": 2, "y": 2})


def test_division():
    numerator = Monomial({"x": 3, "y": 1})
    denominator = Monomial({"x": 1})
    assert numerator / denominator == Monomial({"x": 2, "y": 1})


def test_division_failure():
    with pytest.raises(PolyError):
        Monomial.var("x") / Monomial.var("y")


def test_divides():
    assert Monomial.var("x").divides(Monomial({"x": 2, "y": 1}))
    assert not Monomial.var("y", 2).divides(Monomial({"y": 1}))


def test_graded_lex_order_degree_first():
    assert Monomial.var("z") < Monomial({"a": 2})
    assert Monomial.one() < Monomial.var("a")


def test_hash_and_equality():
    assert hash(Monomial({"x": 1, "y": 2})) == hash(Monomial({"y": 2, "x": 1}))
    assert Monomial({"x": 1}) != Monomial({"x": 2})


def test_variables_property():
    assert Monomial({"x": 1, "y": 2}).variables == frozenset({"x", "y"})


@given(
    st.dictionaries(
        st.sampled_from(["x", "y", "z"]), st.integers(0, 5), max_size=3
    ),
    st.dictionaries(
        st.sampled_from(["x", "y", "z"]), st.integers(0, 5), max_size=3
    ),
)
def test_multiplication_commutative(p1, p2):
    a, b = Monomial(p1), Monomial(p2)
    assert a * b == b * a


@given(
    st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 4), max_size=2),
    st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 4), max_size=2),
)
def test_product_degree_adds(p1, p2):
    a, b = Monomial(p1), Monomial(p2)
    assert (a * b).degree == a.degree + b.degree


@given(
    st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 4), max_size=2),
    st.dictionaries(st.sampled_from(["x", "y"]), st.integers(1, 3), max_size=2),
)
def test_division_inverts_multiplication(p1, p2):
    a, b = Monomial(p1), Monomial(p2)
    assert (a * b) / b == a


def test_pickle_roundtrip_rehashes_across_hash_seeds(tmp_path):
    """A monomial pickled under another process's PYTHONHASHSEED must
    hash like a freshly built equal monomial here.

    Regression: Monomial cached ``hash(self._powers)`` in a slot and
    the default slot pickling preserved it, so monomials pickled by
    another process (a pool worker's result, a cached trace) carried
    stale hashes — equal monomials then missed every dict/set lookup
    and silently produced different invariants.
    """
    import os
    import pickle
    import subprocess
    import sys

    script = (
        "import pickle, sys\n"
        "from repro.poly.monomial import Monomial\n"
        "with open(sys.argv[1], 'wb') as handle:\n"
        "    pickle.dump(Monomial({'x': 2, 'y': 1}), handle)\n"
    )
    fresh = Monomial({"x": 2, "y": 1})
    # Two distinct explicit seeds: at most one can coincide with this
    # process's randomized seed.
    for seed in ("1", "2"):
        path = tmp_path / f"mono_{seed}.pkl"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p] 
        )
        subprocess.run(
            [sys.executable, "-c", script, str(path)], env=env, check=True
        )
        with open(path, "rb") as handle:
            loaded = pickle.load(handle)
        assert loaded == fresh
        assert hash(loaded) == hash(fresh)
        assert loaded in {fresh}
        assert {loaded: 1}[fresh] == 1


def test_pickle_roundtrip_all_protocols_including_constant():
    """Protocols 0/1 skip __setstate__ for falsy states; the constant
    monomial's state must therefore never be falsy."""
    import pickle

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for mono in (Monomial.one(), Monomial({"x": 2, "y": 1})):
            loaded = pickle.loads(pickle.dumps(mono, protocol=protocol))
            assert loaded == mono
            assert hash(loaded) == hash(mono)
