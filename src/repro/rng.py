"""Deterministic random-stream derivation.

Every stochastic component in the library draws from a ``numpy`` generator
obtained through :func:`derive`. A child stream is identified by a *path* of
strings and integers (e.g. ``("module", "M1", "row", 4182, "traps")``) hashed
together with the root seed, so that:

* the same root seed always reproduces the same experiment, bit for bit;
* distinct components (rows, traps, measurement noise, Monte Carlo loops)
  consume independent streams, so adding a draw in one place never perturbs
  results elsewhere.

This mirrors how the paper's testbed achieves repeatability: the physical
system is uncontrollable, but the *test schedule* is deterministic. In our
simulated substrate the "physics" itself is the randomness, so we pin it.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

PathElement = Union[str, int]

#: Default root seed used when an experiment does not specify one.
DEFAULT_SEED = 0x5AFA_121D


def encode_element(element: PathElement) -> bytes:
    """Canonical byte encoding of one path element (length-prefixed)."""
    if isinstance(element, bool) or not isinstance(element, (str, int)):
        raise TypeError(
            f"rng path elements must be str or int, got {element!r}"
        )
    encoded = str(element).encode("utf-8")
    return len(encoded).to_bytes(4, "little") + encoded


def hasher_prefix(root_seed: int, *path: PathElement) -> "hashlib.blake2b":
    """Partially evaluated :func:`child_seed` hasher over a path prefix.

    Batched consumers (the packed bank state derives three streams per
    row) copy the returned hasher and feed only the varying path
    tail, instead of rehashing the shared prefix thousands of times.
    ``seed_from_prefix(hasher_prefix(s, *head), *tail)`` is equal to
    ``child_seed(s, *head, *tail)`` by construction.
    """
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(int(root_seed).to_bytes(16, "little", signed=True))
    for element in path:
        hasher.update(encode_element(element))
    return hasher


def seed_from_prefix(
    prefix: "hashlib.blake2b", *tail: "PathElement | bytes"
) -> int:
    """Finish a :func:`hasher_prefix` derivation with the path tail.

    Tail elements may be pre-encoded ``bytes`` (from
    :func:`encode_element`) so constant suffixes are encoded once.
    """
    hasher = prefix.copy()
    for element in tail:
        hasher.update(
            element if isinstance(element, bytes) else encode_element(element)
        )
    return int.from_bytes(hasher.digest(), "little")


def child_seed(root_seed: int, *path: PathElement) -> int:
    """Return a 64-bit seed derived from ``root_seed`` and a string path.

    The derivation uses BLAKE2b over the canonical encoding of the path, so
    it is stable across Python versions and platforms (unlike ``hash``).
    """
    return int.from_bytes(hasher_prefix(root_seed, *path).digest(), "little")


def derive(root_seed: int, *path: PathElement) -> np.random.Generator:
    """Return an independent ``numpy`` generator for ``path``.

    >>> g1 = derive(7, "module", "M1", "row", 12)
    >>> g2 = derive(7, "module", "M1", "row", 12)
    >>> g1.integers(0, 2**32) == g2.integers(0, 2**32)
    True
    """
    return np.random.default_rng(child_seed(root_seed, *path))


# numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_SHIFT = np.uint32(16)


def _hash_steps(init: int, mult: int, count: int) -> List[Tuple[np.uint32, np.uint32]]:
    """``(xor, multiplier)`` of each successive hash step: step ``k``
    xors with ``init * mult**k`` and multiplies by ``init * mult**(k+1)``,
    modulo 2**32. The chain depends only on the step, never on the data."""
    chain = [init]
    for _ in range(count):
        chain.append((chain[-1] * mult) & _MASK32)
    return [(np.uint32(a), np.uint32(b)) for a, b in zip(chain, chain[1:])]


# A pool of 4 words takes 4 entropy hashes, then 12 cross-mixing hashes
# (every source word into every other word); ``generate_state(4, uint64)``
# takes 8 output hashes, cycling over the pool.
_POOL_STEPS = _hash_steps(_INIT_A, _MULT_A, 16)
_ENTROPY_XOR, _ENTROPY_MULT = (
    np.array(column, dtype=np.uint32)[:, None] for column in zip(*_POOL_STEPS[:4])
)
_MIX_PAIRS = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
_MIX_STEPS = [pair + step for pair, step in zip(_MIX_PAIRS, _POOL_STEPS[4:])]
_OUT_XOR, _OUT_MULT = (
    np.array(column, dtype=np.uint32)[:, None]
    for column in zip(*_hash_steps(_INIT_B, _MULT_B, 8))
)


def seed_sequence_state(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every ``s``.

    ``seeds`` holds integers in ``[0, 2**64)``; the result is a ``(k, 4)``
    uint64 array. numpy's SeedSequence hashes the seed's 32-bit words
    (low word first; a seed below 2**32 is one word, and the pool pads
    it with zeros, which hash as a zero high word would) into a pool of
    four words, cross-mixes the pool, then hashes the pool cyclically
    into 8 output words. Every step is 32-bit multiply/xor/shift
    arithmetic, done here for all seeds at once on wrapping uint32 rows.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & np.uint64(_MASK32)
    pool[1] = seeds >> np.uint64(32)
    pool ^= _ENTROPY_XOR
    pool *= _ENTROPY_MULT
    pool ^= pool >> _SHIFT
    hashed = np.empty(seeds.size, dtype=np.uint32)
    shifted = np.empty(seeds.size, dtype=np.uint32)
    for src, dst, xor, mult in _MIX_STEPS:
        # pool[dst] = mix(pool[dst], hashmix(pool[src]))
        np.bitwise_xor(pool[src], xor, out=hashed)
        hashed *= mult
        np.right_shift(hashed, _SHIFT, out=shifted)
        hashed ^= shifted
        hashed *= _MIX_MULT_R
        word = pool[dst]
        word *= _MIX_MULT_L
        word -= hashed
        np.right_shift(word, _SHIFT, out=shifted)
        word ^= shifted
    out = pool[[0, 1, 2, 3, 0, 1, 2, 3]]
    out ^= _OUT_XOR
    out *= _OUT_MULT
    out ^= out >> _SHIFT
    # Pairs of words read as little-endian uint64s, as numpy reads them.
    return np.ascontiguousarray(out.T).astype("<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """Hands a bit generator the state words :func:`seed_sequence_state`
    already computed; ``PCG64`` asks for exactly 4 uint64 words."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """``Generator(PCG64(s))`` for every seed, in order, bit-identical.

    Building a generator from an integer seed runs numpy's SeedSequence
    hashing in Python-level code, about ten times the cost of the
    generator itself; this derives all seeds' state words in one array
    pass (:func:`seed_sequence_state`) and feeds them through numpy's
    public ``ISeedSequence`` interface. The pass costs about 120 small
    numpy calls whatever the count, so it pays from about ten seeds on;
    its callers open one stream per packed row.
    """
    for words in seed_sequence_state(seeds):
        yield Generator(PCG64(_SeedState(words)))
