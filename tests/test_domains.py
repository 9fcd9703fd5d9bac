import json
import math

import numpy as np
import pytest

from bergman.domains import (
    Block,
    DomainSpec,
    contains,
    diagonal_domain,
    gamma_fn,
    log_gamma,
    log_monomial_norm_sq,
    parse_domain_spec,
    phi,
    volume,
)
from bergman.errors import DimensionMismatch, SchemaError, UnsupportedDomain

from _oracles import quad_monomial_norm


def test_log_gamma_against_stdlib():
    # dense sweep plus random points over the range actually used
    xs = list(np.linspace(0.05, 50.0, 400))
    rng = np.random.default_rng(31)
    xs += list(rng.uniform(0.01, 50.0, 200))
    for x in xs:
        ref = math.lgamma(x)
        assert abs(log_gamma(x) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.3)


def test_parse_simplex_c3():
    d = parse_domain_spec(
        '{"blocks":[{"dim":1,"p":2},{"dim":1,"p":2},{"dim":1,"p":2}]}')
    assert d.total_dim == 3
    assert d.is_diagonal
    assert d.exponents() == (2.0, 2.0, 2.0)


def test_parse_ball_c3():
    d = parse_domain_spec('{"blocks":[{"dim":3,"p":1}]}')
    assert d.total_dim == 3
    assert not d.is_diagonal
    # p=1 on a full block is the unit ball
    assert phi(d, (0.3, 0.4, 0.5)) == pytest.approx(0.5)


def test_parse_accepts_decoded_dict():
    d = parse_domain_spec({"blocks": [{"dim": 1, "p": 2}, {"dim": 1, "p": 4}]})
    assert d.blocks == (Block(1, 2.0), Block(1, 4.0))


@pytest.mark.parametrize("doc,path", [
    ("[1,2]", "$"),
    ("{}", "$.blocks"),
    ('{"blocks":[]}', "$.blocks"),
    ('{"blocks":[5]}', "$.blocks[0]"),
    ('{"blocks":[{"p":2}]}', "$.blocks[0].dim"),
    ('{"blocks":[{"dim":1}]}', "$.blocks[0].p"),
    ('{"blocks":[{"dim":1.5,"p":2}]}', "$.blocks[0].dim"),
    ('{"blocks":[{"dim":1,"p":"x"}]}', "$.blocks[0].p"),
    ("not json", "$"),
])
def test_parse_schema_errors(doc, path):
    with pytest.raises(SchemaError) as exc:
        parse_domain_spec(doc)
    assert exc.value.path == path


@pytest.mark.parametrize("doc", [
    '{"blocks":[{"dim":0,"p":2}]}',
    '{"blocks":[{"dim":1,"p":0}]}',
    '{"blocks":[{"dim":1,"p":-2}]}',
])
def test_parse_nonpositive_values(doc):
    with pytest.raises(ValueError):
        parse_domain_spec(doc)


def test_contains_examples():
    simplex = diagonal_domain(2, 2, 2)
    assert contains(simplex, (0, 0, 0))
    assert not contains(simplex, (1, 0, 0))
    mixed = diagonal_domain(2, 4)
    # 0.5 + sqrt(0.2) ~ 0.947 < 1
    assert contains(mixed, (0.5, 0.2))
    assert phi(mixed, (0.5, 0.2)) == pytest.approx(0.5 + math.sqrt(0.2))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        contains(diagonal_domain(2, 2), (0.1,))


def monomial_norm_sq(d, alpha):
    return math.exp(log_monomial_norm_sq(d, alpha))


def test_monomial_norm_disc():
    disc = diagonal_domain(1)
    for k in range(6):
        assert monomial_norm_sq(disc, (k,)) == pytest.approx(
            math.pi / (k + 1), rel=1e-12)


def test_monomial_norm_two_block_volume():
    rng = np.random.default_rng(5150)
    for _ in range(10):
        p, q = rng.uniform(0.3, 4.0, 2)
        d = diagonal_domain(p, q)
        expect = (math.pi ** 2 * gamma_fn(p + 1) * gamma_fn(q + 1)
                  / gamma_fn(p + q + 1))
        assert monomial_norm_sq(d, (0, 0)) == pytest.approx(expect, rel=1e-12)


def test_monomial_norm_simplex_c3():
    d = diagonal_domain(2, 2, 2)
    assert monomial_norm_sq(d, (0, 0, 0)) == pytest.approx(
        math.pi ** 3 / 90.0, rel=1e-12)


def test_monomial_norm_against_quadrature():
    # independent check of the Gamma closed form by nested radial quadrature
    rng = np.random.default_rng(777)
    for _ in range(6):
        n = int(rng.integers(1, 4))
        ps = [float(rng.uniform(0.5, 3.0)) for _ in range(n)]
        alphas = [int(rng.integers(0, 4 if n < 3 else 2)) for _ in range(n)]
        closed = monomial_norm_sq(diagonal_domain(*ps), alphas)
        ref = quad_monomial_norm(ps, alphas)
        assert abs(closed - ref) <= 1e-8 * abs(ref)


def test_monomial_norm_permutation_symmetry():
    rng = np.random.default_rng(88)
    for _ in range(10):
        ps = rng.uniform(0.5, 3.0, 3)
        alphas = rng.integers(0, 5, 3)
        base = monomial_norm_sq(diagonal_domain(*ps), tuple(alphas))
        perm = rng.permutation(3)
        permuted = monomial_norm_sq(
            diagonal_domain(*ps[perm]), tuple(alphas[perm]))
        assert permuted == pytest.approx(base, rel=1e-12)


def test_monomial_norm_decreases_in_each_index():
    rng = np.random.default_rng(4096)
    for _ in range(10):
        ps = rng.uniform(0.5, 3.0, 3)
        alphas = list(rng.integers(0, 6, 3))
        d = diagonal_domain(*ps)
        base = monomial_norm_sq(d, alphas)
        for j in range(3):
            bumped = list(alphas)
            bumped[j] += 1
            assert monomial_norm_sq(d, bumped) < base


def test_monomial_norm_rejects_vector_blocks():
    with pytest.raises(UnsupportedDomain):
        monomial_norm_sq(DomainSpec((Block(2, 1.0),)), (0, 0))


def test_monomial_norm_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        monomial_norm_sq(diagonal_domain(2, 2), (0, 0, 0))


def test_monomial_norm_rejects_a_negative_index():
    with pytest.raises(ValueError, match="negative"):
        log_monomial_norm_sq(diagonal_domain(2, 2), (1, -1))


@pytest.mark.parametrize("alpha, want", [
    ((1, 2), "-0x1.a46d1d918e590p+2"),
    ((3, 40), "-0x1.0175d91c54fd0p+5"),
    ((0, 150), "-0x1.d292d99013900p+3"),
])
def test_monomial_norm_keeps_its_bits_in_n_plus_one_log_gammas(monkeypatch, alpha, want):
    # one share per coordinate, at its own exponent, and the Gamma of the sum
    import bergman.domains

    calls = []

    def counting(x):
        calls.append(x)
        return log_gamma(x)

    monkeypatch.setattr(bergman.domains, "log_gamma", counting)
    assert log_monomial_norm_sq(diagonal_domain(2, 3.5), alpha).hex() == want
    assert len(calls) == 3


def test_volume_catalog():
    assert volume(diagonal_domain(1)) == pytest.approx(math.pi, rel=1e-12)
    assert volume(diagonal_domain(2, 2)) == pytest.approx(
        math.pi ** 2 / 6.0, rel=1e-12)
    assert volume(diagonal_domain(1, 2)) == pytest.approx(
        math.pi ** 2 / 3.0, rel=1e-12)
    assert volume(diagonal_domain(2, 2, 2)) == pytest.approx(
        math.pi ** 3 / 90.0, rel=1e-12)


@pytest.mark.parametrize("blocks", [
    ((1, 60.0), (1, 60.0), (1, 60.0)),
    ((2, 50.0), (1, 80.5)),
    ((1, 2.5), (3, 57.0)),
])
def test_volume_in_log_space_past_gamma_170(blocks):
    # 1 + sum p_j m_j > 170 takes the log branch; its logs reach about 1e3 in
    # size, so rounding leaves a few 1e-13 of the value
    from mpmath import mp

    d = DomainSpec(tuple(Block(m, p) for m, p in blocks))
    assert 1.0 + sum(m * p for m, p in blocks) > 170.0
    with mp.workdps(30):
        want = mp.pi ** d.total_dim / mp.gamma(1 + sum(m * mp.mpf(p) for m, p in blocks))
        for m, p in blocks:
            want *= p * mp.gamma(m * mp.mpf(p)) / mp.gamma(m)
        assert abs(volume(d) - want) <= 1e-12 * want


def test_volume_vector_blocks():
    # unit balls: vol of the ball in C^m is pi^m/m!
    for m in (1, 2, 3):
        d = DomainSpec((Block(m, 1.0),))
        assert volume(d) == pytest.approx(math.pi ** m / math.factorial(m),
                                          rel=1e-12)
    # {||z||^2 + |Z| < 1} in C^3: block (2, p=1) + block (1, p=2)
    d = DomainSpec((Block(2, 1.0), Block(1, 2.0)))
    assert volume(d) == pytest.approx(math.pi ** 3 / 12.0, rel=1e-12)
