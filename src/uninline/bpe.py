"""Byte-level byte-pair encoding, trained from scratch.

Token ids 0..255 are the raw bytes; each merge appends one id. Training
repeatedly merges the most frequent adjacent pair, breaking frequency
ties toward the smaller (left_id, right_id) pair, and stops once the
vocabulary limit is reached or no pair occurs min_frequency times.
Pair frequencies count every adjacent position; application is
left-to-right non-overlapping.

Training never recounts. An index maps each pair to the positions
where it occurs, so a merge visits only its own sites and adjusts the
counts of the pairs beside each one; a max-heap of (count, pair),
checked against the true count when popped, picks the next merge. A
merge only creates pairs that hold its new id, so every other pair
only loses sites: a pair below min_frequency can never be merged, and
is dropped from the index and the heap the moment it falls there. The
merges, their order and their tie-breaks equal those of recounting
every pair for each merge, which `tests/test_bpe.py` keeps as the oracle.

Text enters and leaves through utf-8 with surrogateescape, so
decode(encode(text)) is the identity even for text that round-trips
arbitrary bytes.

Vocabulary file layout (line-oriented, one artifact for external models):

    # comment / header lines
    <rank>\\t<left_id>\\t<right_id>    three fields per merge, rank ascending
    <id>\\t<escaped token bytes>       two fields per id-table entry

The id table is derivable from the merges; it is written for consumers
that want token strings without replaying merges, and checked on load.
"""

from __future__ import annotations

import logging
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

from .jsonl import atomic_write

log = logging.getLogger(__name__)

BASE_TOKENS = 256
DEFAULT_VOCAB_SIZE = 25_000
DEFAULT_MIN_FREQUENCY = 20


def _to_bytes(text: str | bytes) -> bytes:
    if isinstance(text, bytes):
        return text
    return text.encode("utf-8", "surrogateescape")


def _check_merge(rank: int, pair: tuple[int, int], where: str = "") -> None:
    if not all(0 <= t < BASE_TOKENS + rank for t in pair):
        raise ValueError(f"{where}merge {rank} references an id not yet defined: {pair}")


@dataclass(frozen=True)
class BpeVocab:
    """A merge list and the limits it was trained under.

    The tables derived from the merges, and the encode memo, are built
    on first use and kept on the object. They are not fields, so
    equality, hashing and repr see only the merges and limits.
    """

    merges: tuple[tuple[int, int], ...]
    vocab_size_limit: int = DEFAULT_VOCAB_SIZE
    min_frequency: int = DEFAULT_MIN_FREQUENCY

    def __post_init__(self):
        if BASE_TOKENS + len(self.merges) > self.vocab_size_limit:
            raise ValueError("more merges than the vocabulary limit allows")
        for rank, pair in enumerate(self.merges):
            _check_merge(rank, pair)

    @property
    def size(self) -> int:
        return BASE_TOKENS + len(self.merges)

    def token_bytes(self) -> tuple[bytes, ...]:
        """Byte expansion of every token id, index = id."""
        return self._token_bytes

    @cached_property
    def _token_bytes(self) -> tuple[bytes, ...]:
        table = [bytes([i]) for i in range(BASE_TOKENS)]
        for a, b in self.merges:
            table.append(table[a] + table[b])
        return tuple(table)

    @cached_property
    def _ranks(self) -> dict[tuple[int, int], int]:
        return {pair: rank for rank, pair in enumerate(self.merges)}

    @cached_property
    def _joinable(self) -> frozenset[tuple[int, int]]:
        """The byte pairs (x, y) that sit side by side in some token.

        A merge's token adds one adjacency to those inside its two parts:
        the last byte of the left part against the first of the right.
        """
        tokens = self._token_bytes
        return frozenset((tokens[a][-1], tokens[b][0]) for a, b in self.merges)

    @cached_property
    def _memo(self) -> dict[bytes, tuple[int, ...]]:
        """Ids of every segment encoded so far with this vocabulary."""
        return {}


def train_bpe(
    corpus: Iterable[str | bytes],
    vocab_size: int = DEFAULT_VOCAB_SIZE,
    min_frequency: int = DEFAULT_MIN_FREQUENCY,
) -> BpeVocab:
    """Learn merges over the documents until the size limit or frequency floor.

    All documents of two or more bytes form one token stream, each
    preceded and followed by -1, which is in no pair. Tokens are linked
    by `nxt`/`prv`; a position merged into its left neighbour holds -2.
    Every pair at or above the floor keeps its count and the ascending
    array of its left positions; a heap holds (-count, pair).
    """
    if vocab_size <= BASE_TOKENS:
        raise ValueError(f"vocab_size must exceed {BASE_TOKENS}")
    if min_frequency < 1:
        raise ValueError("min_frequency must be at least 1")
    toks = array("i", [-1])
    for raw in map(_to_bytes, corpus):
        if len(raw) >= 2:
            toks.extend(raw)
            toks.append(-1)
    if len(toks) == 1:
        log.warning("empty corpus; vocabulary holds only the %d base byte tokens", BASE_TOKENS)
    counts = {pair: count for pair, count in Counter(zip(toks, islice(toks, 1, None))).items()
              if count >= min_frequency and min(pair) >= 0}
    sites = {pair: array("i") for pair in counts}
    for i, pair in enumerate(zip(toks, islice(toks, 1, None))):
        if pair in sites:
            sites[pair].append(i)
    nxt = array("i", range(1, len(toks) + 1))
    prv = array("i", range(-1, len(toks) - 1))
    heap = [(-count, pair) for pair, count in counts.items()]
    heapify(heap)

    merges: list[tuple[int, int]] = []
    while heap and BASE_TOKENS + len(merges) < vocab_size:
        neg_count, pair = heappop(heap)
        count = counts.get(pair)
        if count is None:
            continue
        if count != -neg_count:  # counts only fall: retry at the true count
            heappush(heap, (-count, pair))
            continue
        new = BASE_TOKENS + len(merges)
        merges.append(pair)
        del counts[pair]
        a, b = pair
        born: dict[tuple[int, int], list[int]] = {}
        for i in sites.pop(pair):
            j = nxt[i]
            if toks[i] != a or toks[j] != b:
                continue  # an earlier merge, or site of this one, took a token of it
            p, k = prv[i], nxt[j]
            left, right = toks[p], toks[k]
            for lost in ((left, a), (b, right)):
                c = counts.get(lost)
                if c is None:
                    continue
                if c > min_frequency:
                    counts[lost] = c - 1
                else:
                    del counts[lost], sites[lost]
            toks[i], toks[j] = new, -2
            nxt[i], prv[k] = k, i
            if left >= 0:
                born.setdefault((left, new), []).append(p)
            if right >= 0:
                born.setdefault((new, right), []).append(i)
        # a new pair only loses sites after this merge: below the floor now, never merged
        for (x, y), candidates in born.items():
            live = array("i", [q for q in candidates if toks[q] == x and toks[nxt[q]] == y])
            if len(live) >= min_frequency:
                counts[x, y] = len(live)
                sites[x, y] = live
                heappush(heap, (-len(live), (x, y)))
    return BpeVocab(tuple(merges), vocab_size_limit=vocab_size, min_frequency=min_frequency)


def encode(vocab: BpeVocab, text: str | bytes) -> list[int]:
    """Tokenize by applying merges in rank order, each left to right without overlap.

    No token spans two adjacent bytes that sit side by side in no token,
    so the input is cut between every such pair and each segment is
    encoded alone: a merge that is the lowest rank left in the whole
    text is also the lowest in each segment holding it. Segment ids are
    memoized on the vocabulary object.
    """
    raw = _to_bytes(text)
    joinable = vocab._joinable
    cuts = [i for i, pair in enumerate(zip(raw, raw[1:]), 1) if pair not in joinable]
    memo = vocab._memo
    out: list[int] = []
    for start, end in zip([0, *cuts], [*cuts, len(raw)]):
        segment = raw[start:end]
        ids = memo.get(segment)
        if ids is None:
            ids = memo[segment] = _merge_segment(vocab, segment)
        out += ids
    return out


def _merge_segment(vocab: BpeVocab, segment: bytes) -> tuple[int, ...]:
    """Apply the merges to one segment, popping pair sites by (rank, position).

    Tokens form a linked list over byte positions; a heap holds
    rank * n + position for every adjacent pair that has a rank, and
    sites a merge has changed are skipped when popped. A merge of rank r
    only creates pairs that contain its new id, whose ranks exceed r, so
    all sites of rank r are present when the first is popped and are
    merged left to right, as the rank-by-rank rescan would.
    """
    n = len(segment)
    if n < 2:
        return tuple(segment)
    ranks = vocab._ranks
    merges = vocab.merges
    tokens = list(segment)  # -1 marks a position merged into its left neighbour
    nxt = list(range(1, n + 1))
    prv = list(range(-1, n - 1))
    heap = [r * n + i for i, pair in enumerate(zip(segment, segment[1:]))
            if (r := ranks.get(pair)) is not None]
    heapify(heap)
    while heap:
        rank, i = divmod(heappop(heap), n)
        j = nxt[i]
        if j == n or (tokens[i], tokens[j]) != merges[rank]:
            continue
        new = BASE_TOKENS + rank
        tokens[i] = new
        tokens[j] = -1
        k = nxt[i] = nxt[j]
        p = prv[i]
        if p >= 0 and (r := ranks.get((tokens[p], new))) is not None:
            heappush(heap, r * n + p)
        if k < n:
            prv[k] = i
            if (r := ranks.get((new, tokens[k]))) is not None:
                heappush(heap, r * n + i)
    return tuple(t for t in tokens if t >= 0)


def decode(vocab: BpeVocab, ids: Sequence[int]) -> str:
    table = vocab.token_bytes()
    try:
        raw = b"".join(table[i] for i in ids)
    except IndexError:
        raise ValueError(f"token id outside the vocabulary of {vocab.size}") from None
    return raw.decode("utf-8", "surrogateescape")


def _escape(token: bytes) -> str:
    out = []
    for byte in token:
        ch = chr(byte)
        if byte in (0x5C,):
            out.append("\\\\")
        elif 0x20 < byte < 0x7F:
            out.append(ch)
        else:
            out.append(f"\\x{byte:02x}")
    return "".join(out)


def save_vocab(path: str | Path, vocab: BpeVocab) -> None:
    lines = [
        "# byte-level bpe vocabulary",
        f"# vocab_size_limit\t{vocab.vocab_size_limit}",
        f"# min_frequency\t{vocab.min_frequency}",
    ]
    for rank, (a, b) in enumerate(vocab.merges):
        lines.append(f"{rank}\t{a}\t{b}")
    for tid, token in enumerate(vocab.token_bytes()):
        lines.append(f"{tid}\t{_escape(token)}")
    atomic_write(path, "\n".join(lines) + "\n")


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: expected an integer, not {text!r}") from None


def load_vocab(path: str | Path) -> BpeVocab:
    limit = DEFAULT_VOCAB_SIZE
    min_freq = DEFAULT_MIN_FREQUENCY
    merges: list[tuple[int, int]] = []
    id_table: dict[int, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        where = f"{path}:{lineno}"
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line[1:].split("\t")
            if len(parts) == 2 and parts[0].strip() == "vocab_size_limit":
                limit = _parse_int(parts[1], where)
            elif len(parts) == 2 and parts[0].strip() == "min_frequency":
                min_freq = _parse_int(parts[1], where)
            continue
        fields = line.split("\t")
        if len(fields) == 3:
            rank, a, b = (_parse_int(f, where) for f in fields)
            if rank != len(merges):
                raise ValueError(f"{where}: merge ranks out of order")
            _check_merge(rank, (a, b), f"{where}: ")
            merges.append((a, b))
        elif len(fields) == 2:
            id_table[_parse_int(fields[0], where)] = fields[1]
        else:
            raise ValueError(f"{where}: expected 2 or 3 tab-separated fields")
    try:
        vocab = BpeVocab(tuple(merges), vocab_size_limit=limit, min_frequency=min_freq)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if id_table:
        expected = {i: _escape(tok) for i, tok in enumerate(vocab.token_bytes())}
        if id_table != expected:
            raise ValueError(f"{path}: id table disagrees with the merge list")
    return vocab
