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
from typing import Union

import numpy as np

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
