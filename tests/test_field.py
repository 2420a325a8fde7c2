"""Field arithmetic: frozen values, axioms, and an independent
polynomial-arithmetic oracle for the extension fields."""

import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilbij import (
    DivisionByZero,
    FieldSpec,
    Matrix,
    NilbijError,
    SchemaError,
    forward,
    inverse,
    mat_pow,
)
from nilbij.field import BUILTIN_POLYS, _PRIME_LIMIT, _is_irreducible, _is_prime

AXIOM_SPECS = [FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(7),
               FieldSpec(2, 2), FieldSpec(2, 3), FieldSpec(3, 2)]
BIG_SPECS = [FieldSpec(2, 4), FieldSpec(5, 2), FieldSpec(3, 3)]


def poly_oracle_mul(spec: FieldSpec, a: int, b: int) -> int:
    """Schoolbook polynomial product mod the reduction polynomial mod p,
    written against the digit encoding directly."""
    p = spec.p
    da, db = spec.digits(a), spec.digits(b)
    prod = [0] * (2 * spec.k - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    poly = list(spec.poly)
    for top in range(len(prod) - 1, spec.k - 1, -1):
        c = prod[top]
        if c:
            prod[top] = 0
            for i in range(spec.k):
                prod[top - spec.k + i] = (prod[top - spec.k + i] - c * poly[i]) % p
    return spec.code(tuple(prod[: spec.k]))


# frozen values

def test_gf2_tables():
    f = FieldSpec(2)
    assert f.add(1, 1) == 0
    assert f.mul(1, 1) == 1
    assert f.neg(1) == 1


def test_gf4_frozen_products():
    f = FieldSpec(2, 2)
    assert f.poly == (1, 1, 1)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1
    assert f.add(2, 3) == 1
    assert f.inv(2) == 3
    assert f.inv(3) == 2


def test_gf5_frozen_inverses():
    f = FieldSpec(5)
    assert f.inv(2) == 3
    assert f.inv(4) == 4
    assert f.neg(2) == 3


def test_gf9_frozen_product():
    f = FieldSpec(3, 2)
    assert f.mul(3, 3) == 4  # x*x = x + 1 under x^2 + 2x + 2


def test_pow_conventions():
    f = FieldSpec(3)
    assert f.pow(0, 0) == 1
    assert f.pow(2, 0) == 1
    assert f.pow(2, 2) == 1
    # a library error, and still the ValueError it always was
    for negative in (lambda: f.pow(2, -1), lambda: mat_pow(Matrix.identity(f, 2), -1)):
        with pytest.raises(ValueError):
            negative()
        with pytest.raises(NilbijError):
            negative()


# construction and validation

def test_rejects_composite_characteristic():
    with pytest.raises(SchemaError):
        FieldSpec(4)
    with pytest.raises(SchemaError):
        FieldSpec(1)


def test_rejects_reducible_polynomial():
    with pytest.raises(SchemaError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2 over GF(2)


def test_rejects_non_monic_and_bad_degree():
    with pytest.raises(SchemaError):
        FieldSpec(3, 2, (1, 1))
    with pytest.raises(SchemaError):
        FieldSpec(3, 2, (2, 2, 2))


def test_constructor_rejects_non_integer_slots():
    for args in [(2.0,), (3, 2.0), (2, 2, (1, 1, 1.0)), (True,), (3, True),
                 ("2",), (2, 2, (1, True, 1)), (2, 2, "111")]:
        with pytest.raises(SchemaError):
            FieldSpec(*args)
    assert FieldSpec(2, 2, [1, 1, 1]).poly == (1, 1, 1)


def test_is_irreducible_matches_sympy():
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy import ZZ

    for p, top in ((2, 4), (3, 4), (5, 3)):
        for k in range(1, top + 1):
            for low in product(range(p), repeat=k):
                poly = low + (1,)
                expected = galoistools.gf_irreducible_p(list(reversed(poly)), p, ZZ)
                assert _is_irreducible(poly, p) == expected, (p, poly)


def test_builtin_polynomials_are_irreducible():
    for (p, k), poly in BUILTIN_POLYS.items():
        assert _is_irreducible(poly, p)
        assert FieldSpec(p, k).poly == poly


def test_irreducibility_is_fast_for_a_large_characteristic():
    # x^4 + x + 2 over GF(1000003); trial division would try ~p^2 divisors
    started = time.perf_counter()
    f = FieldSpec.from_json({"p": 1000003, "k": 4, "poly": [2, 1, 0, 0, 1]})
    assert time.perf_counter() - started < 1.0
    assert f.q == 1000003**4
    with pytest.raises(SchemaError):  # (x^2 + 1)^2 is reducible
        FieldSpec(1000003, 4, (1, 0, 2, 0, 1))


def trinomial(k):
    """x^k + x + 1 as little-endian coefficients."""
    return (1, 1) + (0,) * (k - 2) + (1,)


def test_extension_fields_stop_below_two_to_the_128():
    # Rabin's test costs about k³, so long polys are refused before it runs
    for k in (400, 2000):
        started = time.perf_counter()
        with pytest.raises(SchemaError):
            FieldSpec(2, k, trinomial(k))
        assert time.perf_counter() - started < 0.05
    with pytest.raises(SchemaError):
        FieldSpec(2, 128, trinomial(128))  # q = 2^128 exactly
    f = FieldSpec(2, 127, trinomial(127))
    assert f.q == 2**127
    assert f.mul(2**126, 2) == 3  # x^126 * x = x^127 = x + 1
    assert f.mul(f.inv(12345), 12345) == 1


def test_no_builtin_polynomial_available():
    with pytest.raises(SchemaError):
        FieldSpec(7, 2)


def test_prime_field_rejects_poly():
    with pytest.raises(SchemaError):
        FieldSpec(5, 1, (1, 1))


def test_explicit_poly_accepted():
    f = FieldSpec(7, 2, (3, 1, 1))  # x^2 + x + 3, irreducible over GF(7)
    assert f.q == 49
    assert f.mul(7, 7) == f.code((4, 6))  # x*x = -x - 3 = 6x + 4


def test_digits_code_roundtrip():
    f = FieldSpec(3, 3)
    for a in f.elements():
        assert f.code(f.digits(a)) == a


# axioms, exhaustive over the small fields

@pytest.mark.parametrize("spec", AXIOM_SPECS, ids=lambda s: f"q{s.q}")
def test_field_axioms_exhaustive(spec):
    els = list(spec.elements())
    for a in els:
        assert spec.add(a, 0) == a
        assert spec.mul(a, 1) == a
        assert spec.add(a, spec.neg(a)) == 0
        if a:
            assert spec.mul(a, spec.inv(a)) == 1
        for b in els:
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
            assert spec.sub(a, b) == spec.add(a, spec.neg(b))
    for a in els:
        for b in els:
            for c in els:
                assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
                assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
                assert spec.mul(a, spec.add(b, c)) == spec.add(
                    spec.mul(a, b), spec.mul(a, c)
                )


@pytest.mark.parametrize("spec", AXIOM_SPECS + BIG_SPECS, ids=lambda s: f"q{s.q}")
def test_fermat_exhaustive(spec):
    for a in range(1, spec.q):
        assert spec.pow(a, spec.q - 1) == 1


@pytest.mark.parametrize(
    "spec", [FieldSpec(2, 2), FieldSpec(2, 3), FieldSpec(2, 4), FieldSpec(3, 2),
             FieldSpec(3, 3), FieldSpec(5, 2)],
    ids=lambda s: f"q{s.q}",
)
def test_extension_mul_matches_poly_oracle(spec):
    for a in spec.elements():
        for b in spec.elements():
            assert spec.mul(a, b) == poly_oracle_mul(spec, a, b)


@settings(max_examples=200)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_gf16_axioms_sampled(a, b, c):
    f = FieldSpec(2, 4)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def kernel_ops(f):
    """The add, mul and neg that f's row kernel was built from."""
    return f._kernel.add, f._kernel.mul, f._kernel.neg


def test_large_prime_field_without_tables():
    f = FieldSpec(4099)
    assert not any(isinstance(op, tuple) for op in kernel_ops(f))
    assert f.mul(4098, 4098) == (4098 * 4098) % 4099
    assert f.add(4000, 200) == (4000 + 200) % 4099
    assert f.mul(17, f.inv(17)) == 1


def test_field_above_the_table_limit_computes_on_demand():
    """GF(2^8) builds no table, so its first arithmetic is immediate,
    and the bijection still round-trips over it."""
    f = FieldSpec(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))  # x^8 + x^4 + x^3 + x^2 + 1
    assert not any(isinstance(op, tuple) for op in kernel_ops(f))
    for rows in ([(0, 1), (0, 0)], [(7, 200), (255, 3)]):
        q = Matrix.from_rows(f, rows)
        assert forward(*inverse(q)) == q


def test_small_fields_are_tabulated():
    for f in (FieldSpec(2), FieldSpec(3, 2), FieldSpec(2, 4)):
        add, mul, neg = kernel_ops(f)
        assert all(isinstance(op, tuple) for op in (add, mul, neg))
        assert len(add) == len(mul) == len(neg) == f.q
        assert add[f.q - 1][1] == f.add(f.q - 1, 1)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [p for p in range(20000) if _is_prime(p)] == \
        [p for p in range(20000) if sympy.isprime(p)]
    # strong pseudoprimes to the bases 2..7 and 2..23, and primes near them
    for n in (3215031751, 3825123056546413051, 10**18 + 3, 2**61 - 1,
              _PRIME_LIMIT - 2):
        assert _is_prime(n) == sympy.isprime(n), n


def test_huge_prime_field_is_immediate_or_refused():
    f = FieldSpec(10**18 + 3)
    assert not any(isinstance(op, tuple) for op in kernel_ops(f))
    assert f.add(f.neg(5), 5) == 0
    assert f.mul(f.inv(12345), 12345) == 1
    with pytest.raises(SchemaError):
        FieldSpec(_PRIME_LIMIT)  # composite, yet passes all twelve bases


def test_inv_zero_raises():
    for spec in (FieldSpec(2), FieldSpec(3, 2)):
        with pytest.raises(DivisionByZero):
            spec.inv(0)
        with pytest.raises(ZeroDivisionError):
            spec.inv(0)


def test_field_json_roundtrip():
    for spec in AXIOM_SPECS + [FieldSpec(7, 2, (3, 1, 1))]:
        assert FieldSpec.from_json(spec.to_json()) == spec


def test_field_json_rejects_garbage():
    with pytest.raises(SchemaError):
        FieldSpec.from_json({"p": "two"})
    with pytest.raises(SchemaError):
        FieldSpec.from_json([2])
    for bad in ({"p": 2.7}, {"p": True}, {"p": 2, "k": 1.5}, {"p": 2, "k": "a"},
                {"p": 2, "k": 2, "poly": 7}, {"p": 2, "k": 2, "poly": "111"}):
        with pytest.raises(SchemaError):
            FieldSpec.from_json(bad)
