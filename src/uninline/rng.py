"""Seeded uniform doubles, exactly those of numpy's `default_rng(entropy).random()`.

numpy's default generator is PCG64 (XSL-RR 128/64; O'Neill 2014) seeded
through a SeedSequence. Both are small integer algorithms, reproduced
here bit for bit in plain Python, so that no stage loads numpy's random
package, whose extension modules would be the largest step of a stage's
peak memory. The entropy is a non-negative int or a tuple of them; each int
enters the SeedSequence as its 32-bit words, low first (one word for 0).
"""

from __future__ import annotations

from typing import Iterator

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 2549297995355413924 << 64 | 4865540595714422341


def _hash_constants(constant: int, multiplier: int, calls: int) -> list[tuple[int, int]]:
    """Per call of a SeedSequence hash, the constant it xors in and the next, its multiplier."""
    out = []
    for _ in range(calls):
        following = constant * multiplier & _MASK32
        out.append((constant, following))
        constant = following
    return out


def _schedule(extra_words: int) -> tuple[list, list]:
    """The pool hash calls of a SeedSequence given 4 + `extra_words` words of entropy.

    Four calls fill the pool of four words, 12 mix each pool word into
    the others and four mix each extra word into the pool. Returns the
    fill's (xor, multiplier) pairs and, per mix, (source, destination,
    xor, multiplier), where a source indexes the pool and then the
    extra words.
    """
    constants = _hash_constants(0x43B0D7E5, 0x931E8875, 16 + 4 * extra_words)
    order = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    order += [(4 + word, dst) for word in range(extra_words) for dst in range(4)]
    return constants[:4], [(*pair, *c) for pair, c in zip(order, constants[4:])]


_FILL, _MIXES = _schedule(0)
# The PCG64 seed is eight 32-bit words hashed from the pool with another constant
# sequence. They pair up, low first, into four 64-bit words: the state's high and low
# halves, then the stream's. Per word: its pool word, xor, multiplier and bit offset
# in the 256-bit seed, whose low half is the state.
_SEED_WORDS = [(i % 4, xor, mul, 32 * (i ^ 2))
               for i, (xor, mul) in enumerate(_hash_constants(0x8B51F9DD, 0x58F38DED, 8))]


def _words(entropy) -> list[int]:
    """The entropy's 32-bit words; anything but a count or a tuple of counts is refused."""
    words = []
    for n in entropy if type(entropy) is tuple else (entropy,):
        if type(n) is not int or n < 0:
            raise ValueError(f"seed must be a non-negative integer or a tuple of them, "
                             f"not {entropy!r}")
        words.append(n & _MASK32)
        while n := n >> 32:
            words.append(n & _MASK32)
    return words


def doubles(entropy) -> Iterator[float]:
    """The endless stream of numpy's `default_rng(entropy).random()` draws.

    The entropy is checked here, before the first draw. The hashes are
    written out in the loops, as a call per hash would cost a third of
    a seeding.
    """
    words = _words(entropy)
    fill, mixes = _schedule(len(words) - 4) if len(words) > 4 else (_FILL, _MIXES)
    cells = []
    for word, (xor, mul) in zip(words[:4] + [0] * (4 - len(words)), fill):
        value = (word ^ xor) * mul & _MASK32
        cells.append(value ^ value >> 16)
    cells += words[4:]
    for src, dst, xor, mul in mixes:
        value = (cells[src] ^ xor) * mul & _MASK32
        value = (0xCA01F9DD * cells[dst] - 0x4973F715 * (value ^ value >> 16)) & _MASK32
        cells[dst] = value ^ value >> 16
    seed = 0
    for src, xor, mul, shift in _SEED_WORDS:
        value = (cells[src] ^ xor) * mul & _MASK32
        seed |= (value ^ value >> 16) << shift
    return _pcg64(seed & _MASK128, (seed >> 128) << 1 | 1)


def _pcg64(initial: int, increment: int) -> Iterator[float]:
    multiplier, mask64, mask128 = _PCG_MULTIPLIER, _MASK64, _MASK128  # locals: a draw is ~1 us
    state = ((increment + initial) * multiplier + increment) & mask128
    while True:
        state = (state * multiplier + increment) & mask128
        rotation = state >> 122
        folded = (state >> 64 ^ state) & mask64
        yield (((folded >> rotation | folded << 64 - rotation) & mask64) >> 11) * 2.0 ** -53
