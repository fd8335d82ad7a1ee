"""Unit and property tests for GF(2^8) arithmetic and Reed-Solomon."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnrecoverableDataError
from repro.storage.ec import ReedSolomon, gf_inv, gf_mul, gf_pow

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


# --- field axioms ----------------------------------------------------------

@given(elements, elements)
def test_mul_commutative(a, b):
    assert gf_mul(a, b) == gf_mul(b, a)


@given(elements, elements, elements)
def test_mul_associative(a, b, c):
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


@given(elements)
def test_mul_identity(a):
    assert gf_mul(a, 1) == a


@given(elements)
def test_mul_zero(a):
    assert gf_mul(a, 0) == 0


@given(nonzero)
def test_inverse(a):
    assert gf_mul(a, gf_inv(a)) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


@given(elements, elements, elements)
def test_distributive(a, b, c):
    # addition in GF(2^8) is XOR
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


@given(nonzero, st.integers(min_value=0, max_value=10))
def test_pow_matches_repeated_mul(a, n):
    expected = 1
    for _ in range(n):
        expected = gf_mul(expected, a)
    assert gf_pow(a, n) == expected


# --- codec construction -----------------------------------------------------

def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ReedSolomon(0, 2)
    with pytest.raises(ValueError):
        ReedSolomon(200, 60)


def test_storage_overhead():
    assert ReedSolomon(4, 2).storage_overhead == 1.5
    assert ReedSolomon(8, 1).storage_overhead == 1.125


def test_shard_count_and_systematic_prefix():
    codec = ReedSolomon(4, 2)
    data = bytes(range(200))
    shards = codec.encode(data)
    assert len(shards) == 6
    # systematic: concatenated data shards start with the original payload
    assert b"".join(shards[:4])[: len(data)] == data


# --- decode under erasures ----------------------------------------------------

def test_decode_intact():
    codec = ReedSolomon(4, 2)
    data = b"streamlake" * 50
    shards = codec.encode(data)
    assert codec.decode(list(shards), len(data)) == data


def test_decode_with_max_erasures():
    codec = ReedSolomon(4, 2)
    data = b"abcdefgh" * 33
    shards = list(codec.encode(data))
    shards[1] = None
    shards[4] = None
    assert codec.decode(shards, len(data)) == data


def test_decode_too_many_erasures_raises():
    codec = ReedSolomon(4, 2)
    shards = list(codec.encode(b"x" * 64))
    shards[0] = shards[1] = shards[2] = None
    with pytest.raises(UnrecoverableDataError):
        codec.decode(shards, 64)


def test_decode_wrong_slot_count_raises():
    codec = ReedSolomon(4, 2)
    with pytest.raises(ValueError):
        codec.decode([b"x"] * 5, 4)


def test_reconstruct_data_shard():
    codec = ReedSolomon(5, 3)
    data = bytes(range(256)) * 3
    shards = list(codec.encode(data))
    lost = shards[2]
    shards[2] = None
    assert codec.reconstruct_shard(shards, 2, len(data)) == lost


def test_reconstruct_parity_shard():
    codec = ReedSolomon(3, 2)
    data = b"parity-please" * 9
    shards = list(codec.encode(data))
    lost = shards[4]
    shards[4] = None
    assert codec.reconstruct_shard(shards, 4, len(data)) == lost


@settings(max_examples=30, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=2000),
    k=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=0, max_value=4),
    erase_seed=st.integers(min_value=0, max_value=2**31),
)
def test_roundtrip_under_arbitrary_erasures(data, k, m, erase_seed):
    """Any m erasures of an RS(k+m) codeword decode to the original."""
    import random

    codec = ReedSolomon(k, m)
    shards = list(codec.encode(data))
    rng = random.Random(erase_seed)
    for index in rng.sample(range(k + m), m):
        shards[index] = None
    assert codec.decode(shards, len(data)) == data


def test_empty_parity_configuration():
    codec = ReedSolomon(4, 0)
    data = b"no-parity" * 10
    assert codec.decode(list(codec.encode(data)), len(data)) == data


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=1, max_value=3),
    erase_seed=st.integers(min_value=0, max_value=2**31),
)
def test_beyond_m_erasures_names_lost_shards(k, m, extra, erase_seed):
    """Losing more than m shards raises and the error lists exactly which."""
    import random

    codec = ReedSolomon(k, m)
    shards = list(codec.encode(b"\x5a" * 32 * k))
    rng = random.Random(erase_seed)
    lost = sorted(rng.sample(range(k + m), min(m + extra, k + m)))
    for index in lost:
        shards[index] = None
    with pytest.raises(UnrecoverableDataError) as excinfo:
        codec.decode(shards, 32 * k)
    assert f"lost shards {lost}" in str(excinfo.value)


# --- kernel output against a scalar reference ---------------------------------

def _ref_matmul(left, right):
    """Scalar GF(2^8) matrix product of two lists of rows (gf_mul + XOR)."""
    out = []
    for row in left:
        acc = [0] * len(right[0])
        for coefficient, source in zip(row, right):
            for j, value in enumerate(source):
                acc[j] ^= gf_mul(int(coefficient), value)
        out.append(acc)
    return out


def _ref_encode(codec, data):
    """Scalar reference codeword: k zero-padded data rows + m parity rows."""
    length = codec.shard_length(len(data))
    padded = data + bytes(length * codec.k - len(data))
    rows = [list(padded[c * length:(c + 1) * length]) for c in range(codec.k)]
    if length == 0:
        return [b""] * (codec.k + codec.m)
    parity = _ref_matmul(codec.matrix[codec.k:].tolist(), rows)
    return [bytes(row) for row in rows + parity]


geometries = st.integers(min_value=1, max_value=11).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(min_value=0, max_value=12 - k))
)
payloads = st.one_of(
    st.sampled_from([b"", b"\x01", b"\xff" * 7]),
    st.binary(min_size=0, max_size=300),
)


@settings(max_examples=40, deadline=None)
@given(geometry=geometries)
def test_systematic_matrix_matches_scalar_reference(geometry):
    """matrix x V_top == V for the Vandermonde V, computed with gf_mul;
    this pins the matrix independently of the vectorized kernel."""
    k, m = geometry
    codec = ReedSolomon(k, m)
    vandermonde = [[gf_pow(row + 1, col) for col in range(k)]
                   for row in range(k + m)]
    assert _ref_matmul(codec.matrix.tolist(), vandermonde[:k]) == vandermonde
    assert codec.matrix[:k].tolist() == [
        [int(row == col) for col in range(k)] for row in range(k)
    ]


@settings(max_examples=60, deadline=None)
@given(geometry=geometries, data=payloads, extra=st.lists(payloads, max_size=3))
def test_encode_is_bit_identical_to_scalar_reference(geometry, data, extra):
    k, m = geometry
    codec = ReedSolomon(k, m)
    assert codec.encode(data) == _ref_encode(codec, data)
    batch = [data, *extra]
    assert codec.encode_batch(batch) == [_ref_encode(codec, p) for p in batch]


def _erasure_sets(n, max_lost):
    for size in range(max_lost + 1):
        yield from itertools.combinations(range(n), size)


@settings(max_examples=15, deadline=None)
@given(data=payloads)
def test_rs42_decodes_under_every_erasure_set(data):
    codec = ReedSolomon(4, 2)
    shards = codec.encode(data)
    for lost in _erasure_sets(6, 2):
        erased = [None if i in lost else shard for i, shard in enumerate(shards)]
        assert codec.decode(erased, len(data)) == data, lost


@settings(max_examples=15, deadline=None)
@given(data=payloads)
def test_rs42_reconstructs_every_index_under_every_survivor_set(data):
    codec = ReedSolomon(4, 2)
    shards = codec.encode(data)
    for lost in _erasure_sets(6, 2):
        erased = [None if i in lost else shard for i, shard in enumerate(shards)]
        for index in range(6):
            rebuilt = codec.reconstruct_shard(erased, index, len(data))
            assert rebuilt == shards[index], (lost, index)


@settings(max_examples=40, deadline=None)
@given(geometry=geometries, data=payloads,
       erase_seed=st.integers(min_value=0, max_value=2**31))
def test_decode_and_repair_under_random_erasures(geometry, data, erase_seed):
    k, m = geometry
    codec = ReedSolomon(k, m)
    shards = codec.encode(data)
    rng = random.Random(erase_seed)
    lost = set(rng.sample(range(k + m), rng.randint(0, m)))
    erased = [None if i in lost else shard for i, shard in enumerate(shards)]
    assert codec.decode(erased, len(data)) == data
    for index in range(k + m):
        assert codec.reconstruct_shard(erased, index, len(data)) == shards[index]


@pytest.mark.parametrize("k,m", [(4, 2), (3, 3), (5, 1)])
def test_inverse_cache_is_bounded_by_survivor_sets(k, m):
    codec = ReedSolomon(k, m)
    data = bytes(range(97))
    shards = codec.encode(data)
    for _ in range(2):
        for lost in _erasure_sets(k + m, m):
            erased = [None if i in lost else s for i, s in enumerate(shards)]
            assert codec.decode(erased, len(data)) == data
            assert len(codec._inverses) <= math.comb(k + m, k)
    # the clean set never needs an inverse
    assert tuple(range(k)) not in codec._inverses


def test_singular_survivor_set_raises_every_time_and_is_not_cached():
    codec = ReedSolomon(4, 2)
    shards = codec.encode(b"singular" * 8)
    codec.matrix[4] = codec.matrix[1]  # parity row 4 now duplicates data row 1
    erased = [None, *shards[1:]]       # chosen survivors: rows 1, 2, 3, 4
    for _ in range(2):
        with pytest.raises(UnrecoverableDataError, match="singular"):
            codec.decode(erased, 64)
        with pytest.raises(UnrecoverableDataError, match="singular"):
            codec.reconstruct_shard(erased, 0, 64)
    assert codec._inverses == {}


def test_decode_rejects_inconsistent_shard_lengths():
    codec = ReedSolomon(4, 2)
    shards = list(codec.encode(bytes(64)))
    shards[0] = None
    shards[2] = shards[2][:-1]
    with pytest.raises(ValueError, match="inconsistent"):
        codec.decode(shards, 64)


def test_reconstruct_beyond_m_erasures_names_lost_shards():
    codec = ReedSolomon(4, 2)
    shards = [None, None, None, *codec.encode(bytes(64))[3:]]
    with pytest.raises(UnrecoverableDataError) as excinfo:
        codec.reconstruct_shard(shards, 0, 64)
    assert excinfo.value.failed_shards == [0, 1, 2]
