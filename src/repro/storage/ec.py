"""Reed-Solomon erasure coding over GF(2^8), from scratch.

StreamLake stores data with erasure coding instead of 3x replication,
raising disk utilization from 33% to 91% (Section I) and producing the
space-vs-fault-tolerance curves of Fig 14(d).  This module implements a
systematic Reed-Solomon code: ``k`` data shards plus ``m`` parity shards
tolerate any ``m`` erasures.

The construction is the classic one used by jerasure/ISA-L:

1. build an ``(k + m) x k`` Vandermonde matrix over GF(2^8);
2. make it systematic (top ``k`` rows = identity) by multiplying with the
   inverse of its top square block, so data shards are stored verbatim;
3. encode: parity rows of the matrix times the data;
4. decode: take the first ``k`` surviving rows of the matrix, invert
   once per survivor set (cached), compute only the erased rows; surviving
   data shards pass through verbatim, and a repair builds one fragment.

Field arithmetic uses exp/log tables (generator polynomial 0x11D) and a
256 x 256 product table; one kernel, :func:`_gf_combine`, XOR-accumulates
one table-row gather per nonzero coefficient, as ISA-L and klauspost
``reedsolomon`` do with their per-coefficient multiply tables.
"""

from __future__ import annotations

import numpy as np

from repro.common import stats
from repro.errors import UnrecoverableDataError

_PRIMITIVE_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1

# --- GF(2^8) tables -------------------------------------------------------


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _PRIMITIVE_POLY
    # duplicate so exp[log a + log b] never needs a modulo
    exp[255:510] = exp[0:255]
    return exp, log


_EXP, _LOG = _build_tables()

#: full GF(2^8) product table (256 x 256, 64 KiB): _MUL[a, b] = a * b
_MUL = np.zeros((256, 256), dtype=np.uint8)
_MUL[1:, 1:] = _EXP[_LOG[1:, None] + _LOG[None, 1:]]


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP[_LOG[a] + _LOG[b]])


def gf_inv(a: int) -> int:
    """Multiplicative inverse; raises on zero."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(2^8)")
    return int(_EXP[255 - _LOG[a]])


def gf_pow(a: int, n: int) -> int:
    """a**n in the field (a != 0 or n > 0)."""
    if n == 0:
        return 1
    if a == 0:
        return 0
    return int(_EXP[(_LOG[a] * n) % 255])


def _matrix_invert(matrix: np.ndarray,
                   shard_set: list[int] | None = None) -> np.ndarray:
    """Invert a square matrix over GF(2^8) by Gauss-Jordan elimination.

    ``shard_set`` names the shard rows the matrix was gathered from; a
    singular matrix then reports exactly which shard combination failed
    instead of surfacing a bare ``ZeroDivisionError`` from ``gf_inv(0)``.
    """
    size = matrix.shape[0]
    work = matrix.astype(np.uint8).copy()
    inverse = np.eye(size, dtype=np.uint8)
    for col in range(size):
        pivot_row = next(
            (row for row in range(col, size) if work[row, col] != 0), None
        )
        if pivot_row is None:
            detail = (
                f" (gathered from shards {shard_set})"
                if shard_set is not None else ""
            )
            raise UnrecoverableDataError(
                f"singular decode matrix at column {col}: the surviving "
                f"shard set cannot reconstruct the data{detail}"
            )
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inverse[[col, pivot_row]] = inverse[[pivot_row, col]]
        pivot_inv = _MUL[gf_inv(int(work[col, col]))]
        work[col] = pivot_inv[work[col]]
        inverse[col] = pivot_inv[inverse[col]]
        for row in range(size):
            if row == col or work[row, col] == 0:
                continue
            factor = _MUL[work[row, col]]
            work[row] ^= factor[work[col]]
            inverse[row] ^= factor[inverse[col]]
    return inverse


def _gf_combine(coefficients: np.ndarray,
                sources: np.ndarray | list[np.ndarray]) -> np.ndarray:
    """(rows x n) coefficients times n equal-length source rows, GF(2^8).

    Each output row is an XOR-accumulate of ``_MUL[c].take(source)`` (one
    gather through the product table's row for ``c``) over its
    coefficients: a zero coefficient is skipped and a one is a plain XOR,
    so no temporary larger than one row is ever built.
    """
    out = np.zeros((len(coefficients), len(sources[0])), dtype=np.uint8)
    for row, coefficient_row in zip(out, coefficients.tolist()):
        for c, source in zip(coefficient_row, sources):
            if c == 1:
                row ^= source
            elif c:
                row ^= _MUL[c].take(source)
    return out


# --- Reed-Solomon codec ---------------------------------------------------


class ReedSolomon:
    """Systematic RS(k + m, k) codec: k data shards, m parity shards.

    ``k + m`` must not exceed 255 (field size minus one distinct
    Vandermonde evaluation point each).
    """

    def __init__(self, data_shards: int, parity_shards: int) -> None:
        if data_shards < 1 or parity_shards < 0:
            raise ValueError("need data_shards >= 1 and parity_shards >= 0")
        if data_shards + parity_shards > 255:
            raise ValueError("RS over GF(2^8) supports at most 255 total shards")
        self.k = data_shards
        self.m = parity_shards
        self.matrix = self._systematic_matrix(self.k, self.m)
        #: decode inverse per survivor set (at most C(k+m, k) entries)
        self._inverses: dict[tuple[int, ...], np.ndarray] = {}

    @staticmethod
    def _systematic_matrix(k: int, m: int) -> np.ndarray:
        rows = k + m
        vandermonde = np.zeros((rows, k), dtype=np.uint8)
        for row in range(rows):
            for col in range(k):
                vandermonde[row, col] = gf_pow(row + 1, col)
        top_inverse = _matrix_invert(vandermonde[:k])
        systematic = _gf_combine(vandermonde, top_inverse)
        # sanity: top block must be identity after the transform
        assert np.array_equal(systematic[:k], np.eye(k, dtype=np.uint8))
        return systematic

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per user byte, e.g. 1.5 for RS(4+2)."""
        return (self.k + self.m) / self.k

    def shard_length(self, data_length: int) -> int:
        """Per-shard byte length for a payload of ``data_length`` bytes."""
        return -(-data_length // self.k)  # ceil division

    def _data_block(self, data: bytes) -> np.ndarray:
        length = self.shard_length(len(data))
        padded = np.zeros(length * self.k, dtype=np.uint8)
        padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        return padded.reshape(self.k, length)

    def encode(self, data: bytes) -> list[bytes]:
        """Split ``data`` into k shards, append m parity shards.

        The payload is zero-padded to a multiple of k; callers must remember
        the original length for :meth:`decode`.
        """
        self.count_batch_encode(1)
        return self._encode_blocks([self._data_block(data)])[0]

    @staticmethod
    def count_batch_encode(payload_count: int) -> None:
        """Charge the counters one counted :meth:`encode_batch` of
        ``payload_count`` payloads would have charged.

        The sharded committer (:mod:`repro.parallel.ingest`) encodes its
        partitions with ``counted=False`` inside forked contexts and then
        calls this once on the driver context, so merged counters stay
        value-identical to the serial oracle's single counted encode.
        """
        ingest = stats.ingest_stats()
        ingest.ec_encode_calls += 1
        ingest.ec_payloads_encoded += payload_count

    def encode_batch(self, payloads: list[bytes], *,
                     counted: bool = True) -> list[list[bytes]]:
        """Encode many payloads with one parity kernel call.

        The per-payload data blocks (each ``(k, shard_len_i)``) are stacked
        along the shard-length axis into one ``(k, sum(shard_len_i))``
        matrix, so N slice seals pay for one kernel call instead of N.
        Shard lengths per payload are identical to per-payload
        :meth:`encode`.  ``counted=False`` skips the stats charge (see
        :meth:`count_batch_encode`).
        """
        if not payloads:
            return []
        if counted:
            self.count_batch_encode(len(payloads))
        return self._encode_blocks([self._data_block(p) for p in payloads])

    def _encode_blocks(self, blocks: list[np.ndarray]) -> list[list[bytes]]:
        stacked = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
        parity_all = _gf_combine(self.matrix[self.k :], stacked)
        out: list[list[bytes]] = []
        cursor = 0
        for block in blocks:
            length = block.shape[1]
            parity = parity_all[:, cursor:cursor + length]
            shards = [block[i].tobytes() for i in range(self.k)]
            shards.extend(parity[i].tobytes() for i in range(self.m))
            out.append(shards)
            cursor += length
        return out

    def _survivors(self, shards: list[bytes | None]) -> list[int]:
        """The first k surviving shard positions; raises when fewer survive."""
        if len(shards) != self.k + self.m:
            raise ValueError(
                f"expected {self.k + self.m} shard slots, got {len(shards)}"
            )
        survivors = [i for i, shard in enumerate(shards) if shard is not None]
        if len(survivors) < self.k:
            lost = [i for i in range(self.k + self.m) if shards[i] is None]
            raise UnrecoverableDataError(
                f"only {len(survivors)} shards survive, need {self.k}: "
                f"lost shards {lost} exceed the {self.m} erasures "
                f"RS({self.k}+{self.m}) tolerates",
                failed_shards=lost,
            )
        return survivors[: self.k]

    def _data_rows(self, shards: list[bytes | None], chosen: list[int],
                   rows: list[int]) -> list[np.ndarray]:
        """Data shards ``rows``: survivors verbatim, erased ones computed
        from their rows of the survivor set's inverse.  The inverse is
        cached read-only per set (a concurrent miss only recomputes it; a
        singular set raises every time and is never cached)."""
        sources = [np.frombuffer(shards[i], dtype=np.uint8)  # type: ignore[arg-type]
                   for i in chosen]
        if any(len(source) != len(sources[0]) for source in sources):
            raise ValueError("surviving shards have inconsistent lengths")
        # every surviving data shard is among the first k survivors
        out = dict(zip(chosen, sources))
        lost = [row for row in rows if row not in out]
        if lost:
            inverse = self._inverses.get(tuple(chosen))
            if inverse is None:
                inverse = _matrix_invert(self.matrix[chosen], shard_set=chosen)
                inverse.setflags(write=False)
                self._inverses[tuple(chosen)] = inverse
            out.update(zip(lost, _gf_combine(inverse[lost], sources)))
        return [out[row] for row in rows]

    def decode(self, shards: list[bytes | None], data_length: int) -> bytes:
        """Recover the original payload from any >= k surviving shards.

        ``shards`` lists all k+m positions with ``None`` at erasures.
        """
        chosen = self._survivors(shards)
        if chosen == list(range(self.k)):
            # fast path: all data shards intact
            data = b"".join(shards[i] for i in range(self.k))  # type: ignore[misc]
            return data[:data_length]
        data = self._data_rows(shards, chosen, list(range(self.k)))
        return b"".join(data)[:data_length]

    def reconstruct_shard(self, shards: list[bytes | None], index: int,
                          data_length: int) -> bytes:
        """Rebuild the one shard at ``index`` (repair after a disk failure),
        byte-identical to ``encode(original)[index]``: a data shard from
        its inverse row, a parity shard as its matrix row times the data
        rows.  ``data_length`` is implied by the shard length."""
        chosen = self._survivors(shards)
        if index < self.k:
            return self._data_rows(shards, chosen, [index])[0].tobytes()
        data = self._data_rows(shards, chosen, list(range(self.k)))
        return _gf_combine(self.matrix[index : index + 1], data)[0].tobytes()
