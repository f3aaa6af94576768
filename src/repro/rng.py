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
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

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


#: Fewest seeds :func:`generators` hashes in one array pass: the pass
#: costs about 90 us whatever the count, numpy's own SeedSequence about
#: 10 us per seed (process time on a 2-core x86 host).
_ARRAY_SEEDING_MIN = 8


def generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """``Generator(PCG64(s))`` for every seed, in order, bit-identical.

    Building a generator from an integer seed runs numpy's SeedSequence
    hashing in Python-level code, about ten times the cost of the
    generator itself; from :data:`_ARRAY_SEEDING_MIN` seeds on, this
    derives all seeds' state words in one array pass
    (:func:`seed_sequence_state`) and feeds them through numpy's public
    ``ISeedSequence`` interface. Its callers open one stream per packed
    row: thousands for a row probe, one for a single row.
    """
    if len(seeds) < _ARRAY_SEEDING_MIN:
        for seed in seeds:
            yield Generator(PCG64(seed))
        return
    for words in seed_sequence_state(seeds):
        yield Generator(PCG64(_SeedState(words)))


# ----------------------------------------------------------------------
# Word mirror of ``Generator.random`` / ``Generator.standard_normal``
# ----------------------------------------------------------------------

# numpy's 256-layer ziggurat for the standard normal: ``ki_double``,
# ``wi_double`` and ``fi_double`` of numpy's
# ``random/src/distributions/ziggurat_constants.h``, unchanged since
# numpy 1.17. A draw's first word picks a layer with its low byte; the
# magnitude ``rabs`` (bits 9-60) takes the fast path ``rabs * wi`` when
# ``rabs < ki``. ``ki[1] == 0``: layer 1 always takes the wedge test.
# ``tests/test_rng.py`` re-derives ``wi`` and ``ki`` from numpy itself.
_ZIGGURAT_KI = np.array([
    0xEF33D8025EF6A, 0x0000000000000, 0xC08BE98FBC6A8, 0xDA354FABD8142,
    0xE51F67EC1EEEA, 0xEB255E9D3F77E, 0xEEF4B817ECAB9, 0xF19470AFA44AA,
    0xF37ED61FFCB18, 0xF4F469561255C, 0xF61A5E41BA396, 0xF707A755396A4,
    0xF7CB2EC28449A, 0xF86F10C6357D3, 0xF8FA6578325DE, 0xF9724C74DD0DA,
    0xF9DA907DBF509, 0xFA360F581FA74, 0xFA86FDE5B4BF8, 0xFACF160D354DC,
    0xFB0FB6718B90F, 0xFB49F8D5374C6, 0xFB7EC2366FE77, 0xFBAECE9A1E50E,
    0xFBDAB9D040BED, 0xFC03060FF6C57, 0xFC2821037A248, 0xFC4A67AE25BD1,
    0xFC6A2977AEE31, 0xFC87AA92896A4, 0xFCA325E4BDE85, 0xFCBCCE902231A,
    0xFCD4D12F839C4, 0xFCEB54D8FEC99, 0xFD007BF1DC930, 0xFD1464DD6C4E6,
    0xFD272A8E2F450, 0xFD38E4FF0C91E, 0xFD49A9990B478, 0xFD598B8920F53,
    0xFD689C08E99EC, 0xFD76EA9C8E832, 0xFD848547B08E8, 0xFD9178BAD2C8C,
    0xFD9DD07A7ADD2, 0xFDA9970105E8C, 0xFDB4D5DC02E20, 0xFDBF95C5BFCD0,
    0xFDC9DEBB99A7D, 0xFDD3B8118729D, 0xFDDD288342F90, 0xFDE6364369F64,
    0xFDEEE708D514E, 0xFDF7401A6B42E, 0xFDFF46599ED40, 0xFE06FE4BC24F2,
    0xFE0E6C225A258, 0xFE1593C28B84C, 0xFE1C78CBC3F99, 0xFE231E9DB1CAA,
    0xFE29885DA1B91, 0xFE2FB8FB54186, 0xFE35B33558D4A, 0xFE3B799D0002A,
    0xFE410E99EAD7F, 0xFE46746D47734, 0xFE4BAD34C095C, 0xFE50BAED29524,
    0xFE559F74EBC78, 0xFE5A5C8E41212, 0xFE5EF3E138689, 0xFE6366FD91078,
    0xFE67B75C6D578, 0xFE6BE661E11AA, 0xFE6FF55E5F4F2, 0xFE73E5900A702,
    0xFE77B823E9E39, 0xFE7B6E37070A2, 0xFE7F08D774243, 0xFE8289053F08C,
    0xFE85EFB35173A, 0xFE893DC840864, 0xFE8C741F0CEBC, 0xFE8F9387D4EF6,
    0xFE929CC879B1D, 0xFE95909D388EA, 0xFE986FB939AA2, 0xFE9B3AC714866,
    0xFE9DF2694B6D5, 0xFEA0973ABE67C, 0xFEA329CF166A4, 0xFEA5AAB32952C,
    0xFEA81A6D5741A, 0xFEAA797DE1CF0, 0xFEACC85F3D920, 0xFEAF07865E63C,
    0xFEB13762FEC13, 0xFEB3585FE2A4A, 0xFEB56AE3162B4, 0xFEB76F4E284FA,
    0xFEB965FE62014, 0xFEBB4F4CF9D7C, 0xFEBD2B8F449D0, 0xFEBEFB16E2E3E,
    0xFEC0BE31EBDE8, 0xFEC2752B15A15, 0xFEC42049DAFD3, 0xFEC5BFD29F196,
    0xFEC75406CEEF4, 0xFEC8DD2500CB4, 0xFECA5B6911F12, 0xFECBCF0C427FE,
    0xFECD38454FB15, 0xFECE97488C8B3, 0xFECFEC47F91B7, 0xFED1377358528,
    0xFED278F844903, 0xFED3B10242F4C, 0xFED4DFBAD586E, 0xFED605498C3DD,
    0xFED721D414FE8, 0xFED8357E4A982, 0xFED9406A42CC8, 0xFEDA42B85B704,
    0xFEDB3C8746AB4, 0xFEDC2DF416652, 0xFEDD171A46E52, 0xFEDDF813C8AD3,
    0xFEDED0F909980, 0xFEDFA1E0FD414, 0xFEE06AE124BC4, 0xFEE12C0D95A06,
    0xFEE1E579006E0, 0xFEE29734B6524, 0xFEE34150AE4BC, 0xFEE3E3DB89B3C,
    0xFEE47EE2982F4, 0xFEE51271DB086, 0xFEE59E9407F41, 0xFEE623528B42E,
    0xFEE6A0B5897F1, 0xFEE716C3E077A, 0xFEE7858327B82, 0xFEE7ECF7B06BA,
    0xFEE84D2484AB2, 0xFEE8A60B66343, 0xFEE8F7ACCC851, 0xFEE94207E25DA,
    0xFEE9851A829EA, 0xFEE9C0E13485C, 0xFEE9F557273F4, 0xFEEA22762CCAE,
    0xFEEA4836B42AC, 0xFEEA668FC2D71, 0xFEEA7D76ED6FA, 0xFEEA8CE04FA0A,
    0xFEEA94BE8333B, 0xFEEA950296410, 0xFEEA8D9C0075E, 0xFEEA7E7897654,
    0xFEEA678481D24, 0xFEEA48AA29E83, 0xFEEA21D22E4DA, 0xFEE9F2E352024,
    0xFEE9BBC26AF2E, 0xFEE97C524F2E4, 0xFEE93473C0A3A, 0xFEE8E40557516,
    0xFEE88AE369C7A, 0xFEE828E7F3DFD, 0xFEE7BDEA7B888, 0xFEE749BFF37FF,
    0xFEE6CC3A9BD5E, 0xFEE64529E007E, 0xFEE5B45A32888, 0xFEE51994E57B6,
    0xFEE474A0006CF, 0xFEE3C53E12C50, 0xFEE30B2E02AD8, 0xFEE2462AD8205,
    0xFEE175EB83C5A, 0xFEE09A22A1447, 0xFEDFB27E349CC, 0xFEDEBEA76216C,
    0xFEDDBE422047E, 0xFEDCB0ECE39D3, 0xFEDB964042CF4, 0xFEDA6DCE938C9,
    0xFED937237E98D, 0xFED7F1C38A836, 0xFED69D2B9C02B, 0xFED538D06AE00,
    0xFED3C41DEA422, 0xFED23E76A2FD8, 0xFED0A732FE644, 0xFECEFDA07FE34,
    0xFECD4100EB7B8, 0xFECB708956EB4, 0xFEC98B61230C1, 0xFEC790A0DA978,
    0xFEC57F50F31FE, 0xFEC356686C962, 0xFEC114CB4B335, 0xFEBEB948E6FD0,
    0xFEBC429A0B692, 0xFEB9AF5EE0CDC, 0xFEB6FE1C98542, 0xFEB42D3AD1F9E,
    0xFEB13B00B2D4B, 0xFEAE2591A02E9, 0xFEAAEAE992257, 0xFEA788D8EE326,
    0xFEA3FCFFD73E5, 0xFEA044C8DD9F6, 0xFE9C5D62F563B, 0xFE9843BA947A4,
    0xFE93F471D4728, 0xFE8F6BD76C5D6, 0xFE8AA5DC4E8E6, 0xFE859E07AB1EA,
    0xFE804F690A940, 0xFE7AB488233C0, 0xFE74C751F6AA5, 0xFE6E8102AA202,
    0xFE67DA0B6ABD8, 0xFE60C9F38307E, 0xFE5947338F742, 0xFE51470977280,
    0xFE48BD436F458, 0xFE3F9BFFD1E37, 0xFE35D35EEB19C, 0xFE2B5122FE4FE,
    0xFE20003995557, 0xFE13C82788314, 0xFE068C4EE67B0, 0xFDF82B02B71AA,
    0xFDE87C57EFEAA, 0xFDD7509C63BFD, 0xFDC46E529BF13, 0xFDAF8F82E0282,
    0xFD985E1B2BA75, 0xFD7E6EF48CF04, 0xFD613ADBD650B, 0xFD40149E2F012,
    0xFD1A1A7B4C7AC, 0xFCEE204761F9E, 0xFCBA8D85E11B2, 0xFC7D26ECD2D22,
    0xFC32B2F1E22ED, 0xFBD6581C0B83A, 0xFB606C4005434, 0xFAC40582A2874,
    0xF9E971E014598, 0xF89FA48A41DFC, 0xF66C5F7F0302C, 0xF1A5A4B331C4A,
], dtype=np.uint64)

_ZIGGURAT_WI = np.array([
    8.683627060801306e-16, 4.779330175727737e-17, 6.354352417405262e-17,
    7.454870481247696e-17, 8.3293668157931e-17, 9.068060405059482e-17,
    9.714860076567762e-17, 1.0294750314241019e-16, 1.0823430288447684e-16,
    1.131147019610903e-16, 1.176635945702292e-16, 1.2193617278714363e-16,
    1.2597439914637093e-16, 1.2981099886264032e-16, 1.3347203736824123e-16,
    1.3697864842571203e-16, 1.4034823001242382e-16, 1.4359529452056943e-16,
    1.4673208742364422e-16, 1.4976904668391037e-16, 1.5271515003596198e-16,
    1.5557818169460764e-16, 1.5836494009290885e-16, 1.6108140175274928e-16,
    1.6373285203969853e-16, 1.6632399058420835e-16, 1.6885901708676596e-16,
    1.713417017655966e-16, 1.737754436586486e-16, 1.7616331923000996e-16,
    1.7850812316976727e-16, 1.8081240285799152e-16, 1.830784876482675e-16,
    1.853085138861802e-16, 1.8750444639373882e-16, 1.896680970077476e-16,
    1.918011406483862e-16, 1.9390512930625104e-16, 1.9598150426628824e-16,
    1.9803160683128174e-16, 2.000566877627333e-16, 2.0205791562071654e-16,
    2.0403638415480212e-16, 2.0599311887403706e-16, 2.079290829041402e-16,
    2.0984518222370352e-16, 2.1174227035760342e-16, 2.1362115259449868e-16,
    2.1548258978581458e-16, 2.1732730177564367e-16, 2.191559705042727e-16,
    2.2096924282235318e-16, 2.2276773304789553e-16, 2.2455202529414355e-16,
    2.263226755928568e-16, 2.280802138345017e-16, 2.2982514554424684e-16,
    2.3155795351040804e-16, 2.3327909928004356e-16, 2.3498902453470955e-16,
    2.3668815235791604e-16, 2.3837688840454243e-16, 2.4005562198135063e-16,
    2.4172472704675025e-16, 2.433845631371103e-16, 2.4503547622614954e-16,
    2.466777995232705e-16, 2.4831185421610877e-16, 2.4993795016204524e-16,
    2.515563865329658e-16, 2.5316745241713583e-16, 2.547714273816944e-16,
    2.563685819989397e-16, 2.579591783392867e-16, 2.5954347043351707e-16,
    2.6112170470670194e-16, 2.6269412038597256e-16, 2.6426094988411895e-16,
    2.658224191608307e-16, 2.6737874806323633e-16, 2.689301506472616e-16,
    2.704768354811995e-16, 2.720190059327732e-16, 2.735568604408679e-16,
    2.7509059277301666e-16, 2.7662039226963903e-16, 2.781464440759544e-16,
    2.79668929362423e-16, 2.8118802553450207e-16, 2.827039064324479e-16,
    2.842167425218406e-16, 2.8572670107546015e-16, 2.87233946347098e-16,
    2.887386397378482e-16, 2.9024093995538423e-16, 2.9174100316669455e-16,
    2.9323898314471816e-16, 2.947350314092935e-16, 2.9622929736280665e-16,
    2.977219284209029e-16, 2.992130701386013e-16, 3.007028663321331e-16,
    3.0219145919680615e-16, 3.036789894211802e-16, 3.051655962978219e-16,
    3.0665141783089545e-16, 3.081365908408297e-16, 3.0962125106629225e-16,
    3.111055332636893e-16, 3.125895713043999e-16, 3.140734982699446e-16,
    3.1555744654528006e-16, 3.1704154791040285e-16, 3.1852593363044065e-16,
    3.2001073454440114e-16, 3.214960811527447e-16, 3.2298210370394156e-16,
    3.244689322801698e-16, 3.2595669688230784e-16, 3.2744552751437067e-16,
    3.2893555426753697e-16, 3.3042690740391284e-16, 3.3191971744017523e-16,
    3.3341411523123725e-16, 3.3491023205407785e-16, 3.364081996918765e-16,
    3.37908150518595e-16, 3.394102175841489e-16, 3.409145347003126e-16,
    3.424212365275018e-16, 3.4393045866258313e-16, 3.454423377278584e-16,
    3.4695701146137835e-16, 3.4847461880874137e-16, 3.499953000165381e-16,
    3.5151919672760744e-16, 3.53046452078274e-16, 3.5457721079774357e-16,
    3.5611161930983884e-16, 3.5764982583726505e-16, 3.59191980508603e-16,
    3.6073823546823514e-16, 3.6228874498941915e-16, 3.6384366559073444e-16,
    3.65403156156137e-16, 3.669673780588701e-16, 3.685364952894914e-16,
    3.7011067458828983e-16, 3.716900855823823e-16, 3.7327490092779435e-16,
    3.7486529645684887e-16, 3.7646145133120287e-16, 3.7806354820089604e-16,
    3.7967177336979443e-16, 3.8128631696783774e-16, 3.829073731305243e-16,
    3.8453514018609596e-16, 3.8616982085091493e-16, 3.878116224335587e-16,
    3.894607570481926e-16, 3.9111744183782054e-16, 3.9278189920805415e-16,
    3.944543570720877e-16, 3.9613504910761354e-16, 3.9782421502646826e-16,
    3.995221008578565e-16, 4.012289592460629e-16, 4.029450497636328e-16,
    4.04670639241075e-16, 4.0640600211422504e-16, 4.0815142079049387e-16,
    4.0990718603532664e-16, 4.1167359738030257e-16, 4.134509635544236e-16,
    4.1523960294026883e-16, 4.170398440568316e-16, 4.1885202607101123e-16,
    4.206764993399015e-16, 4.2251362598620494e-16, 4.243637805093078e-16,
    4.262273504347798e-16, 4.2810473700531167e-16, 4.2999635591638323e-16,
    4.3190263810026294e-16, 4.338240305622791e-16, 4.357609972736849e-16,
    4.3771402012585875e-16, 4.3968359995105214e-16, 4.4167025761542035e-16,
    4.4367453519065673e-16, 4.456969972112043e-16, 4.477382320247534e-16,
    4.49798853244555e-16, 4.518795013130059e-16, 4.539808451870034e-16,
    4.561035841567422e-16, 4.582484498109567e-16, 4.604162081631153e-16,
    4.626076619547846e-16, 4.648236531543207e-16, 4.670650656712631e-16,
    4.693328283093329e-16, 4.716279179838351e-16, 4.739513632325867e-16,
    4.763042480533137e-16, 4.786877161048723e-16, 4.811029753147417e-16,
    4.835513029411525e-16, 4.860340511450812e-16, 4.885526531353603e-16,
    4.91108629959527e-16, 4.937035980240335e-16, 4.963392774403987e-16,
    4.990175013091822e-16, 5.017402260718089e-16, 5.045095430818727e-16,
    5.073276915733542e-16, 5.101970732341562e-16, 5.131202686306784e-16,
    5.161000557743228e-16, 5.191394311757699e-16, 5.222416338000234e-16,
    5.254101724177597e-16, 5.286488569504945e-16, 5.3196183453384e-16,
    5.353536311816497e-16, 5.388292001334053e-16, 5.423939782201712e-16,
    5.46053951907478e-16, 5.498157350892814e-16, 5.536866612467876e-16,
    5.576748932926576e-16, 5.617895553555417e-16, 5.660408920082422e-16,
    5.704404621291389e-16, 5.750013768919895e-16, 5.797385945724594e-16,
    5.846692893455479e-16, 5.898133176477899e-16, 5.951938149641444e-16,
    6.008379696271908e-16, 6.067780409333449e-16, 6.130527208725282e-16,
    6.197089894581626e-16, 6.268046963301284e-16, 6.344122407127506e-16,
    6.426239659548055e-16, 6.515603317344994e-16, 6.613827885097664e-16,
    6.723150462505587e-16, 6.846803417564259e-16, 6.98971833638762e-16,
    7.159994934830664e-16, 7.372424301798799e-16, 7.658936370805573e-16,
    8.113849337656484e-16,
])

_ZIGGURAT_FI = np.array([
    1.0, 0.9771017012676716, 0.9598790918001067,
    0.9451989534422996, 0.9320600759592305, 0.919991505039347,
    0.9087264400521309, 0.8980959218983434, 0.8879846607558334,
    0.8783096558089174, 0.869008688036857, 0.8600336211963315,
    0.851346258458678, 0.8429156531122042, 0.8347162929868834,
    0.8267268339462214, 0.8189291916037024, 0.8113078743126563,
    0.8038494831709643, 0.796542330422959, 0.7893761435660246,
    0.7823418326548025, 0.7754313049811872, 0.7686373157984863,
    0.7619533468367954, 0.7553735065070961, 0.7488924472191568,
    0.742505296340151, 0.7362075981268627, 0.7299952645614762,
    0.7238645334686302, 0.717811932630722, 0.7118342488782484,
    0.7059285013327543, 0.7000919181365116, 0.6943219161261167,
    0.6886160830046718, 0.6829721616449949, 0.6773880362187735,
    0.6718617198970821, 0.6663913439087501, 0.6609751477766631,
    0.6556114705796973, 0.6502987431108167, 0.6450354808208223,
    0.6398202774530566, 0.6346517992876236, 0.6295287799248367,
    0.6244500155470265, 0.6194143606058343, 0.6144207238889139,
    0.6094680649257734, 0.6045553906974678, 0.5996817526191253,
    0.5948462437679874, 0.590047996332826, 0.5852861792633715,
    0.5805599961007909, 0.5758686829723537, 0.5712115067352532,
    0.5665877632561644, 0.5619967758145243, 0.557437893618766,
    0.5529104904258323, 0.5484139632552658, 0.5439477311900263,
    0.5395112342569521, 0.5351039323804576, 0.5307253044036621,
    0.5263748471716845, 0.5220520746723218, 0.5177565172297564,
    0.513487720747327, 0.5092452459957479, 0.5050286679434681,
    0.5008375751261487, 0.4966715690524897, 0.49253026364386854,
    0.48841328470545803, 0.4843202694266833, 0.48025086590904675,
    0.47620473271950586, 0.4721815384677302, 0.4681809614056936,
    0.46420268904817436, 0.46024641781284287, 0.45631185267871643,
    0.4523987068618485, 0.44850670150720306, 0.4446355653957394,
    0.440785034665804, 0.43695485254798555, 0.43314476911265226,
    0.4293545410294414, 0.42558393133802197, 0.4218327092294959,
    0.4181006498378482, 0.4143875340408911, 0.41069314827018816,
    0.40701728432947337, 0.4033597392211145, 0.3997203149801972,
    0.39609881851583245, 0.3924950614593156, 0.3889088600187887,
    0.3853400348400773, 0.38178841087339366, 0.3782538172456192,
    0.37473608713789114, 0.3712350576682395, 0.3677505697790326,
    0.36428246812900406, 0.36083060098964803, 0.3573948201457805,
    0.3539749808000768, 0.3505709414814061, 0.34718256395679364,
    0.3438097131468507, 0.34045225704452187, 0.33711006663700605,
    0.33378301583071845, 0.3304709813791636, 0.3271738428136014,
    0.3238914823763911, 0.32062378495690536, 0.3173706380299136,
    0.3141319315963372, 0.3109075581262865, 0.30769741250429206,
    0.30450139197665, 0.30131939610080305, 0.2981513266966855,
    0.2949970877999618, 0.2918565856170952, 0.2887297284821829,
    0.28561642681550176, 0.2825165930837076, 0.27943014176163794,
    0.2763569892956683, 0.27329705406857707, 0.27025025636587546,
    0.26721651834356147, 0.2641957639972612, 0.2611879191327212,
    0.25819291133761924, 0.25521066995466196, 0.2522411260559422,
    0.24928421241852852, 0.24633986350126383, 0.2434080154227503,
    0.2404886059405006, 0.2375815744312381, 0.23468686187233,
    0.23180441082433872, 0.22893416541468034, 0.22607607132238028,
    0.22323007576391748, 0.220396127480152, 0.21757417672433113,
    0.21476417525117358, 0.21196607630703018, 0.20917983462112508,
    0.2064054063978808, 0.2036427493103349, 0.2008918224946566,
    0.19815258654577514, 0.1954250035141343, 0.19270903690358918,
    0.19000465167046499, 0.1873118142238003, 0.18463049242679927,
    0.18196065559952251, 0.17930227452284758, 0.17665532144373486,
    0.17401977008183855, 0.17139559563750575, 0.1687827748012113,
    0.1661812857644819, 0.16359110823236558, 0.161012223437511,
    0.15844461415592428, 0.1558882647244792, 0.15334316106026286,
    0.15080929068184568, 0.14828664273257455, 0.14577520800599403,
    0.14327497897351346, 0.1407859498144447, 0.13830811644855073,
    0.13584147657125376, 0.13338602969166916, 0.13094177717364436,
    0.12850872227999957, 0.1260868702201859, 0.12367622820159657,
    0.1212768054847903, 0.11888861344291006, 0.11651166562561087,
    0.11414597782783849, 0.11179156816383809, 0.1094484571468118,
    0.1071166677746838, 0.10479622562248707, 0.10248715894193525,
    0.10018949876881002, 0.09790327903886246, 0.095628536713009,
    0.09336531191269101, 0.09111364806637376, 0.08887359206827589,
    0.08664519445055807, 0.08442850957035347, 0.0822235958132029,
    0.08003051581466307, 0.07784933670209612, 0.07568013035892718,
    0.07352297371398132, 0.0713779490588904, 0.06924514439700676,
    0.0671246538277885, 0.0650165779712429, 0.06292102443775814,
    0.06083810834953988, 0.05876795292093374, 0.0567106901062029,
    0.05466646132488892, 0.05263541827679219, 0.05061772386094778,
    0.04861355321586854, 0.04662309490193038, 0.044646552251294463,
    0.04268414491647446, 0.04073611065594094, 0.03880270740452615,
    0.036884215688567305, 0.034980941461716125, 0.03309321945857858,
    0.0312214171919203, 0.02936593975813336, 0.027527235669603113,
    0.02570580400854891, 0.02390220330579588, 0.02211706270730885,
    0.02035109623004451, 0.018605121275724622, 0.016880083152543142,
    0.01517708830793531, 0.013497450601739867, 0.011842757857907879,
    0.010214971439701459, 0.008616582769398726, 0.007050875471373222,
    0.0055224032992509916, 0.0040379725933630236, 0.0026090727461021593,
    0.001260285930498598,
])

#: The tail's start ``r`` and ``-1/r`` (numpy's ``ziggurat_nor_r`` and
#: negated ``ziggurat_nor_inv_r``).
_ZIGGURAT_R = 3.654152885361009
_ZIGGURAT_NEG_INV_R = -0.2736612373297583
#: Indexed by a word's low 9 bits (layer, then sign): ``±wi`` folds the
#: sign into the fast-path product, exactly.
_SIGNED_KI = np.concatenate([_ZIGGURAT_KI, _ZIGGURAT_KI])
_SIGNED_WI = np.concatenate([_ZIGGURAT_WI, -_ZIGGURAT_WI])
_LAYER = np.uint64(0xFF)
_LAYER_SIGN = np.uint64(0x1FF)
_MAGNITUDE = np.uint64(0x000F_FFFF_FFFF_FFFF)
_NINE = np.uint64(9)
_ELEVEN = np.uint64(11)
#: numpy's ``next_double``: a uniform is ``(word >> 11) * 2**-53``.
_UNIT = 2.0 ** -53


def _unit(word: int) -> float:
    return (word >> 11) * _UNIT


def _tail_normal(words: np.ndarray, start: int) -> Tuple[float, int]:
    """The ziggurat's tail from the layer-0 word at ``start``: ``(value,
    next word)``. Pairs of uniforms are tried until one is accepted."""
    negative = (int(words[start]) >> 17) & 1
    position = start + 1
    while True:
        x = _ZIGGURAT_NEG_INV_R * math.log1p(-_unit(int(words[position])))
        y = -math.log1p(-_unit(int(words[position + 1])))
        position += 2
        if y + y > x * x:
            value = _ZIGGURAT_R + x
            return (-value if negative else value), position


def _fast_normals(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every word read as the first word of a draw: the fast-path value
    ``±rabs * wi[layer]`` and whether the fast path returns it."""
    # Both are below 2**53, so their int64 views read the same numbers.
    layer_sign = (words & _LAYER_SIGN).view(np.int64)
    magnitude = words >> _NINE
    magnitude &= _MAGNITUDE
    table = _SIGNED_KI.take(layer_sign)
    fast = magnitude < table
    values = magnitude.view(np.int64).astype(np.float64)
    values *= _SIGNED_WI.take(layer_sign, out=table.view(np.float64))
    return values, fast


# Outcome of a draw's first word when it leaves the fast path.
_ACCEPT, _REJECT, _TAIL = 0, 1, 2


def _slow_outcomes(
    words: np.ndarray, values: np.ndarray, slow: np.ndarray
) -> Dict[int, int]:
    """Wedge test of every word off the fast path, at once: ``(fi[layer-1]
    - fi[layer]) * u + fi[layer] < exp((-0.5 * x) * x)`` with ``u`` from
    the next word. Layer 0 goes to the tail; a last word, whose test
    needs a word past the block, is left out (the draw runs out)."""
    slow = slow[slow + 1 < words.size]
    layer = (words[slow] & _LAYER).view(np.int64)
    x = values[slow]
    u = (words[slow + 1] >> _ELEVEN).astype(np.float64) * _UNIT
    density = np.fromiter(
        map(math.exp, ((-0.5 * x) * x).tolist()), np.float64, slow.size
    )
    accept = (
        (_ZIGGURAT_FI[layer - 1] - _ZIGGURAT_FI[layer]) * u
        + _ZIGGURAT_FI[layer] < density
    )
    outcome = np.where(accept, _ACCEPT, _REJECT)
    outcome[layer == 0] = _TAIL
    return dict(zip(slow.tolist(), outcome.tolist()))


def _word_layout(
    words: np.ndarray, n: int, uniforms: int, normals: int
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Where each draw of ``n`` steps of ``uniforms`` uniforms then
    ``normals`` standard normals starts in ``words``, and their values.

    Returns ``(starts, uniform_values, normal_values)``: ``starts`` holds
    the first word of each of the ``n * (uniforms + normals)`` draws, then
    the words used; the values are ``(n, uniforms)`` and ``(n, normals)``
    arrays. ``None`` when the draws run past ``words``.

    A uniform takes one word, as does a normal on the fast path (about 99%
    of draws); every draw starts one word after the last one ended. The
    "words consumed" of a normal that leaves the fast path are resolved
    in word order, skipping off-path words that land on a uniform or
    inside an earlier normal: two for an accepted wedge, two plus a
    restart for a rejected one, one plus two per attempt for the tail.
    Every later draw shifts by the extra words.
    """
    width = uniforms + normals
    draws = n * width
    values, fast = _fast_normals(words)
    slow = np.flatnonzero(~fast)
    outcomes = _slow_outcomes(words, values, slow)
    shifted, extras, slow_values = [], [], []
    shift = 0
    free = 0
    try:
        for word in slow.tolist():
            if word < free:
                continue
            draw = word - shift
            if draw >= draws:
                break
            if draw % width < uniforms:
                continue
            start = word
            outcome = outcomes.get(start)
            while outcome == _REJECT:
                start += 2
                outcome = outcomes.get(start)
            if outcome == _TAIL:
                value, free = _tail_normal(words, start)
            elif outcome == _ACCEPT:
                value, free = float(values[start]), start + 2
            elif fast[start]:
                value, free = float(values[start]), start + 1
            else:
                return None
            shifted.append(draw + 1)
            extras.append(free - word - 1)
            slow_values.append(value)
            shift += free - word - 1
    except IndexError:
        return None
    if draws + shift > words.size:
        return None
    starts = np.zeros(draws + 1, dtype=np.int64)
    starts[shifted] = extras
    np.cumsum(starts, out=starts)
    starts += np.arange(draws + 1)
    grid = starts[:-1].reshape(n, width)
    uniform_words = words[grid[:, :uniforms]] >> _ELEVEN
    uniform_values = uniform_words.view(np.int64).astype(np.float64)
    uniform_values *= _UNIT
    normal_values = values[grid[:, uniforms:]]
    if shifted:
        draw = np.array(shifted) - 1
        normal_values[draw // width, draw % width - uniforms] = slow_values
    return starts, uniform_values, normal_values


def _native_draws(
    rng: np.random.Generator, n: int, uniforms: int, normals: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The reference: ``rng.random(uniforms)`` then
    ``rng.standard_normal(normals)``, step by step."""
    uniform_values = np.empty((n, uniforms))
    normal_values = np.empty((n, normals))
    random, standard_normal = rng.random, rng.standard_normal
    for uniform_row, normal_row in zip(uniform_values, normal_values):
        random(out=uniform_row)
        standard_normal(out=normal_row)
    return uniform_values, normal_values


def _place(bit_generator, snapshot: dict, words: int) -> None:
    """Set ``bit_generator`` ``words`` 64-bit draws past ``snapshot``.
    ``advance`` clears PCG64's buffered 32-bit half-word, which no double
    draw touches, so it is put back."""
    bit_generator.state = snapshot
    bit_generator.advance(words)
    if snapshot.get("has_uint32"):
        state = bit_generator.state
        state["has_uint32"] = snapshot["has_uint32"]
        state["uinteger"] = snapshot["uinteger"]
        bit_generator.state = state


class StepDraws:
    """The draws of :func:`step_draws`; the generator is left after the
    last step until :meth:`rewind` moves it back."""

    __slots__ = ("uniforms", "normals", "_rng", "_snapshot", "_ends")

    def __init__(self, uniforms, normals, rng, snapshot, ends):
        #: ``(n, uniforms)`` array: each step's uniforms.
        self.uniforms = uniforms
        #: ``(n, normals)`` array: each step's standard normals.
        self.normals = normals
        self._rng = rng
        self._snapshot = snapshot
        #: Words used after each of ``0..n`` steps (``None``: drawn
        #: natively).
        self._ends = ends

    def rewind(self, steps: int) -> None:
        """Leave the generator just after the first ``steps`` steps, as if
        only they had been drawn."""
        if steps == len(self.uniforms) or self._snapshot is None:
            return
        bit_generator = self._rng.bit_generator
        if self._ends is None:
            bit_generator.state = self._snapshot
            _native_draws(
                self._rng, steps, self.uniforms.shape[1], self.normals.shape[1]
            )
        else:
            _place(bit_generator, self._snapshot, int(self._ends[steps]))


#: Words a block draws beyond its steps' share, so short blocks rarely
#: need extending.
_BLOCK_SLACK = 64


def _mirror_draws(
    rng: np.random.Generator, n: int, uniforms: int, normals: int
) -> StepDraws:
    """:func:`step_draws` from blocks of raw words (see
    :func:`_word_layout`), one ``random_raw`` call in all but rare cases."""
    bit_generator = rng.bit_generator
    snapshot = bit_generator.state
    width = uniforms + normals
    # About 2% of normals take extra words; a short block is extended.
    block = n * width + n * normals // 16 + _BLOCK_SLACK
    words = bit_generator.random_raw(block)
    layout = _word_layout(words, n, uniforms, normals)
    while layout is None:
        words = np.concatenate([words, bit_generator.random_raw(block)])
        layout = _word_layout(words, n, uniforms, normals)
    starts, uniform_values, normal_values = layout
    ends = starts[::width]
    _place(bit_generator, snapshot, int(ends[-1]))
    return StepDraws(uniform_values, normal_values, rng, snapshot, ends)


def step_draws(
    rng: np.random.Generator, n: int, uniforms: int, normals: int
) -> StepDraws:
    """``n`` steps of ``rng.random(uniforms)`` then
    ``rng.standard_normal(normals)``, bit-identical values and final
    generator state, for a PCG64 generator (what :func:`derive` builds).

    The draws are resolved from blocks of raw 64-bit words: a uniform is
    ``(word >> 11) * 2**-53`` and a normal runs numpy's ziggurat on the
    words, as ``Generator.random`` and ``Generator.standard_normal`` do.
    When the once-per-process probe :func:`word_mirror_ok` fails (a numpy
    whose samplers differ), they are drawn natively, step by step.
    Memory is ``O(n * (uniforms + normals))`` words.
    """
    if n == 0 or uniforms + normals == 0:
        return StepDraws(np.empty((n, uniforms)), np.empty((n, normals)),
                         rng, None, None)
    if word_mirror_ok():
        return _mirror_draws(rng, n, uniforms, normals)
    snapshot = rng.bit_generator.state
    uniform_values, normal_values = _native_draws(rng, n, uniforms, normals)
    return StepDraws(uniform_values, normal_values, rng, snapshot, None)


#: Probe stream of :func:`word_mirror_ok`: a seed and a step shape
#: ``(n, uniforms, normals)`` whose draws take every ziggurat branch (fast
#: path, wedge accept, wedge reject, tail), and a step to rewind to.
_PROBE_SEED = 0
_PROBE_SHAPE = (96, 3, 16)
_PROBE_REWIND = 40


def _word_mirror_matches() -> bool:
    """One-time check of the word mirror against numpy's own samplers on
    the probe stream: every draw, the final state and a rewind."""
    n, uniforms, normals = _PROBE_SHAPE
    reference = Generator(PCG64(_PROBE_SEED))
    expected = _native_draws(reference, n, uniforms, normals)
    mirrored = Generator(PCG64(_PROBE_SEED))
    draws = _mirror_draws(mirrored, n, uniforms, normals)
    if not (
        np.array_equal(draws.uniforms, expected[0])
        and np.array_equal(draws.normals, expected[1])
        and mirrored.bit_generator.state == reference.bit_generator.state
    ):
        return False
    draws.rewind(_PROBE_REWIND)
    reference = Generator(PCG64(_PROBE_SEED))
    _native_draws(reference, _PROBE_REWIND, uniforms, normals)
    return mirrored.bit_generator.state == reference.bit_generator.state


#: Lazily filled probe result; ``None`` means "not yet evaluated", so the
#: probe only runs in processes that draw a chain walk. Tests set it to
#: ``False`` to exercise the native route.
_WORD_MIRROR_OK: Optional[bool] = None


def word_mirror_ok() -> bool:
    """Whether the word mirror equals numpy's samplers, probed once per
    process (see :func:`_word_mirror_matches`) and cached."""
    global _WORD_MIRROR_OK
    if _WORD_MIRROR_OK is None:
        _WORD_MIRROR_OK = _word_mirror_matches()
    return _WORD_MIRROR_OK
