"""Byte-level byte-pair encoding, trained from scratch.

Token ids 0..255 are the raw bytes; each merge appends one id. Training
repeatedly merges the most frequent adjacent pair, breaking frequency
ties toward the smaller (left_id, right_id) pair, and stops once the
vocabulary limit is reached or no pair occurs min_frequency times.
Pair frequencies count every adjacent position; application is
left-to-right non-overlapping.

Training never recounts. The documents are laid on one token stream,
the trainer's only state per byte (an int32: a token's first position
holds its id, and its last a back-pointer to the first), and its byte
pairs are counted once, both as array operations; a merge adjusts the
counts of the pairs beside each of its sites. A max-heap of (count,
pair), checked against the true count when popped, picks the next
merge. A merge only creates pairs that hold its new id, so every other
pair only loses sites: a pair below min_frequency can never be merged,
and is dropped the moment it falls there. Byte pairs keep no positions:
a position that still holds a byte never absorbed its right neighbour,
so one array scan for the two bytes side by side finds the live sites
of a byte pair when it is merged. A pair born from a merge keeps the
ascending array of its positions. A merge with few sites visits them
one by one; one with many is applied as array operations (stale sites
and every other site of an overlapping chain dropped, born pairs read
beside the sites and grouped by a stable sort), which give the same
stream and counts. Both follow one chained-site rule: a site that
starts where the site merged before it ended has the new id on its
left, loses no pair there, and the pair (new, a) the earlier site would
have made on its right never forms. Every other born pair stays live,
since a later site writes only at or after its own start, so each born
pair's positions are exactly its live sites, with no check after the
merge; and each site beside a born pair lost the pair its neighbour
made with a or b, so both tally the lost pairs from the born ones, one
decrement per pair. The merges, their order and their tie-breaks equal
those of recounting every pair for each merge, which `tests/test_bpe.py`
keeps as the oracle.

Encoding never rescans. No token spans two adjacent bytes that sit side
by side in no token, so the text is cut between every such pair and
each segment is encoded alone, once per vocabulary object (a memo).
Bytes are never cut one pair at a time: `_joins` marks the joinable
pairs of a byte string at once, through `bytes.translate` and integer
operations. `encode` encodes one text alone: a regular expression
finds the runs of joinable pairs; only a run is a segment of several
bytes, and every other byte is its own id.

A pass over consecutive texts (`encode_spans`, `encode_each`) shares
their cuts: it lays each run of overlapping texts on a byte stream of
its own, each text at the first line start where the two agree byte
for byte as far as they overlap, and once the run is complete it
encodes the stream once, by the runs `encode` uses. Each text's ids
are then its stream's ids between its first and last cut, found by
bisection, and the partial segments at its two edges, so windows slid
down a body one line at a time cut each line once. A cut depends only
on the two bytes beside it, so a text's ids equal those of the
rank-by-rank rescan of the text alone, whatever else the pass laid;
`tests/test_bpe.py` keeps the rescan as the oracle. The vocabulary
holds no state of a pass: its memo is a pure cache.

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
import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .jsonl import atomic_write

log = logging.getLogger(__name__)

BASE_TOKENS = 256
DEFAULT_VOCAB_SIZE = 25_000
DEFAULT_MIN_FREQUENCY = 20


def _to_bytes(text: str | bytes) -> bytes:
    if isinstance(text, bytes):
        return text
    return text.encode("utf-8", "surrogateescape")


def _check_merge(rank: int, a: int, b: int) -> None:
    """Refuse the merge at `rank` if it references an id not defined before it."""
    if not (0 <= a < BASE_TOKENS + rank and 0 <= b < BASE_TOKENS + rank):
        raise ValueError(f"merge {rank} references an id not yet defined: {(a, b)}")


@dataclass(frozen=True)
class BpeVocab:
    """A merge list and the limits it was trained under.

    The tables derived from the merges, and the encode memo, are built
    on first use and kept on the object. They are not fields, so
    equality, hashing and repr see only the merges and limits. Nothing
    of an encoding pass is kept, so passes may share one vocabulary.
    """

    merges: tuple[tuple[int, int], ...]
    vocab_size_limit: int = DEFAULT_VOCAB_SIZE
    min_frequency: int = DEFAULT_MIN_FREQUENCY

    def __post_init__(self):
        if BASE_TOKENS + len(self.merges) > self.vocab_size_limit:
            raise ValueError(f"more merges than vocab_size_limit {self.vocab_size_limit} allows")
        for rank, (a, b) in enumerate(self.merges):
            _check_merge(rank, a, b)
        if self.min_frequency < 1:
            raise ValueError(f"min_frequency must be at least 1, not {self.min_frequency}")

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
    def _join_lanes(self) -> tuple[tuple[bytes, bytes], ...]:
        """The joinable byte pairs as `bytes.translate` tables, eight left bytes a lane.

        A pair (x, y) is joinable when x and y sit side by side in some
        token. A merge's token adds one adjacency to those inside its
        two parts: the last byte of the left part against the first of
        the right. Each byte that begins a joinable pair has one bit in
        one lane. The lane's left table maps it to that bit, and its
        right table maps every byte that may follow it to a set holding
        that bit.
        """
        tokens = self._token_bytes
        joinable = {(tokens[a][-1], tokens[b][0]) for a, b in self.merges}
        bit = {x: divmod(k, 8) for k, x in enumerate(sorted({x for x, _ in joinable}))}
        lanes = [(bytearray(256), bytearray(256)) for _ in range((len(bit) + 7) // 8)]
        for x, y in joinable:
            lane, k = bit[x]
            left, right = lanes[lane]
            left[x] = 1 << k
            right[y] |= 1 << k
        return tuple((bytes(left), bytes(right)) for left, right in lanes)

    @cached_property
    def _memo(self) -> "_Memo":
        """Ids of every segment encoded so far with this vocabulary."""
        return _Memo(self)


def train_bpe(
    corpus: Iterable[str | bytes],
    vocab_size: int = DEFAULT_VOCAB_SIZE,
    min_frequency: int = DEFAULT_MIN_FREQUENCY,
) -> BpeVocab:
    """Learn merges over the documents until the size limit or frequency floor.

    All documents of two or more bytes form one token stream, each
    preceded and followed by -1, which is in no pair. It is one int32
    array, allocated once at its final length if int32 addresses that;
    each document is copied in through a numpy view of it, and byte
    pairs are counted from that view, a bounded chunk at a time. A
    token's first position holds its id and, if the token is longer
    than one byte, its last holds -3 - first; those between hold -2 or a
    stale back-pointer, never read. So a token's right neighbour starts
    `width[id]` positions on, and the position before it holds -1, a
    byte or a back-pointer. Every pair at or above the floor keeps its
    count, and a heap holds (-count, pair). A pair that holds a merged
    id also keeps the ascending array of its left positions; a byte
    pair's are found by a scan when it is merged.
    """
    if vocab_size <= BASE_TOKENS:
        raise ValueError(f"vocab_size must exceed {BASE_TOKENS}")
    if min_frequency < 1:
        raise ValueError("min_frequency must be at least 1")
    docs = [raw for raw in map(_to_bytes, corpus) if len(raw) >= 2]
    n = 1 + sum(map(len, docs)) + len(docs)
    if n > _MAX_STREAM:
        raise ValueError(f"{n - 1 - len(docs)} bytes of training text overflow the int32 stream")
    toks = array("i", [-1]) * n
    T = np.frombuffer(toks, dtype=np.intc)
    start = 1
    for raw in docs:
        T[start:start + len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        start += len(raw) + 1
    del docs  # the stream is the only full-size copy from here on
    if len(toks) == 1:
        log.warning("empty corpus; vocabulary holds only the %d base byte tokens", BASE_TOKENS)
    counts = _byte_pair_counts(T, min_frequency)
    width = [1] * BASE_TOKENS
    sites: dict[tuple[int, int], array] = {}
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
        width.append(width[pair[0]] + width[pair[1]])
        del counts[pair]
        at = sites.pop(pair, None)
        if at is None:  # a byte pair: a position holding a byte never absorbed its right neighbour
            at = _byte_pair_sites(T, *pair)
        apply = _merge_loop if len(at) < _ARRAY_MERGE_SITES else _merge_array
        # a new pair only loses sites after this merge: below the floor now, never merged
        for born, live in apply(toks, width, at, pair, new, counts, sites, min_frequency):
            counts[born] = len(live)
            sites[born] = live
            heappush(heap, (-len(live), born))
    return BpeVocab(tuple(merges), vocab_size_limit=vocab_size, min_frequency=min_frequency)


# Each position, and each back-pointer -3 - start (start <= length - 3), fits int32
_MAX_STREAM = 2**31

# A merge with at least this many sites is applied as array operations; one
# numpy step costs about as much as the loop over this many sites
_ARRAY_MERGE_SITES = 64


def _lose(counts, sites, lost, by: int, floor: int) -> None:
    """Take `by` sites from the pair `lost`, forgetting it below the floor."""
    c = counts.get(lost)
    if c is None:
        return
    if c - by >= floor:
        counts[lost] = c - by
    else:
        del counts[lost]
        sites.pop(lost, None)


def _merge_loop(toks: array, width: list[int], at, pair, new: int, counts, sites, floor: int):
    """Merge `pair` into `new` at each live site of `at`, left to right.

    Adjusts the counts of the pairs beside each site and returns the
    pairs born with `new` that reach the floor, with their sites.

    A site that starts where the site merged before it ended (a chained
    site) has that site's `new` on its left, and the pair (new, a) the
    earlier site recorded on its right never forms: it is dropped at
    once, and no pair is lost on the left. Every other born pair stays
    live: a later site writes only at or after its own start. So each
    born pair's list holds live sites only, as `_merge_array`'s `fresh`
    mask keeps them, and the lost pairs are tallied from those lists
    after the loop, one decrement per born pair: each site of (x, new)
    with x != new lost (x, a), and each site of (new, y) lost (b, y), as
    did each site whose (new, a) a chained site dropped.
    """
    a, b = pair
    wa, wb = width[a], width[b]
    born: dict[tuple[int, int], list[int]] = {}
    end = -1  # where the last site merged ends
    chained = 0
    for i in at.tolist() if isinstance(at, np.ndarray) else at:
        j = i + wa
        if toks[i] != a or toks[j] != b:
            continue  # an earlier merge, or site of this one, took a token of it
        k = j + wb
        right = toks[k]
        if i == end:
            p, left = i - wa - wb, new
            born[new, a].pop()
            chained += 1
        else:
            p = i - 1 if toks[i - 1] > -2 else -3 - toks[i - 1]  # a longer token's back-pointer
            left = toks[p]
        toks[i], toks[j], toks[k - 1] = new, -2, -3 - i  # j is k - 1 when b is a byte
        end = k
        if left >= 0:
            born.setdefault((left, new), []).append(p)
        if right >= 0:
            born.setdefault((new, right), []).append(i)
    out = []
    for (x, y), live in born.items():
        if x != new:
            _lose(counts, sites, (x, a), len(live), floor)
        elif y != new:
            _lose(counts, sites, (b, y), len(live) + chained * (y == a), floor)
        if len(live) >= floor:
            out.append(((x, y), array("i", live)))
    return out


def _merge_array(toks: array, width: list[int], at, pair, new: int, counts, sites, floor: int):
    """`_merge_loop` as one numpy step over the ascending sites `at`.

    Stale sites are dropped, and in a chain of overlapping sites of a
    pair (a, a) every other one, from the first, as the loop would skip
    them. A site whose left neighbour the previous site merged has
    `new` on its left and loses no pair there; the pair it would lose
    is the previous site's right one. Every other site's left neighbour
    is untouched by the merge, so the pairs born there hold the ids that
    lost theirs. Those on the right are read off the merged stream, with
    (new, new) where a chained site starts, whose earlier site lost (b,
    a). So, as in the loop, the lost pairs are tallied from the born
    ones: one count per id beside the sites, one decrement per pair.
    """
    T = np.frombuffer(toks, dtype=np.intc)
    a, b = pair
    at = np.asarray(at)
    at = at[(T[at] == a) & (T[at + width[a]] == b)]
    right = at + width[a]
    if a == b:
        idx = np.arange(len(at))
        chained = np.zeros(len(at), dtype=bool)
        chained[1:] = at[1:] == right[:-1]
        first = np.maximum.accumulate(np.where(chained, 0, idx))
        keep = (idx - first) % 2 == 0
        at, right = at[keep], right[keep]
    after = right + width[b]
    end = T[at - 1]  # the left neighbour's back-pointer, a byte's id or the separator
    before = np.where(end < -1, -3 - end, at - 1)
    fresh = np.ones(len(at), dtype=bool)
    fresh[1:] = before[1:] != right[:-1]
    before = before[fresh]
    left = T[before]
    T[at] = new
    T[right] = -2
    T[after - 1] = -3 - at
    out = []
    for x, by, live in _group(left, before, floor):
        _lose(counts, sites, (x, a), by, floor)
        if live is not None:
            out.append(((x, new), live))
    for y, by, live in _group(T[after], at, floor):
        _lose(counts, sites, (b, a if y == new else y), by, floor)  # a chained site reads new
        if live is not None:
            out.append(((new, y), live))
    return out


def _group(ids: np.ndarray, where: np.ndarray, floor: int) -> list[tuple[int, int, array | None]]:
    """Each token id (>= 0) in `ids`, in ascending order, with its
    occurrences and, if they reach `floor`, its positions from the
    ascending `where` (None otherwise).

    A stable sort by id keeps each group's positions ascending. The
    groups come out in id order, not in order of first occurrence; the
    trainer's choices do not depend on that order, because its heap
    orders entries by (-count, pair) alone.
    """
    ok = ids >= 0
    ids, where = ids[ok], where[ok]
    if not len(ids):
        return []
    tally = np.bincount(ids)
    seen = np.flatnonzero(tally)
    kept = tally[ids] >= floor
    ids, where = ids[kept], where[kept]
    where = where[np.argsort(ids, kind="stable")].astype(np.intc, copy=False)
    out = []
    end = 0
    for x, n in zip(seen.tolist(), tally[seen].tolist()):
        if n < floor:
            out.append((x, n, None))
        else:
            out.append((x, n, array("i", where[end:end + n].tobytes())))
            end += n
    return out


# Byte pairs are counted this many stream positions at a time, so the
# temporaries stay small whatever the corpus size
_PAIR_CHUNK = 1 << 13


# Byte-pair sites are found this many stream positions at a time, each step
# with three boolean temporaries this long. It is larger than `_PAIR_CHUNK`
# because a scan runs once per byte-pair merge, and each step's fixed numpy
# overhead costs about what scanning 8,192 positions does
_SITE_CHUNK = 1 << 15


def _byte_pair_sites(T: np.ndarray, a: int, b: int) -> np.ndarray:
    """The ascending positions i of the stream `T` where T[i] == a and T[i + 1] == b."""
    return np.concatenate([
        lo + np.flatnonzero((chunk[:-1] == a) & (chunk[1:] == b))
        for lo in range(0, len(T) - 1, _SITE_CHUNK)
        for chunk in (T[lo:lo + _SITE_CHUNK + 1],)
    ])


def _byte_pair_counts(T: np.ndarray, floor: int) -> dict[tuple[int, int], int]:
    """Each pair of adjacent bytes in the stream `T` that occurs `floor` times, with its count.

    The m byte values present get dense codes 0..m-1 and the separator
    -1 gets m, so a pair is one index into an (m + 1)² tally, not one
    into 65,536 entries; a pair that holds the separator is in no
    document and is dropped.
    """
    seen = np.zeros(BASE_TOKENS, dtype=np.intp)
    for lo in range(0, len(T), _PAIR_CHUNK):
        chunk = T[lo:lo + _PAIR_CHUNK]
        seen += np.bincount(chunk[chunk >= 0], minlength=BASE_TOKENS)
    byte_of = np.flatnonzero(seen)
    m = len(byte_of)
    width = m + 1
    code = np.full(BASE_TOKENS + 1, m, dtype=np.intc)  # T's -1 reads the last entry
    code[byte_of] = np.arange(m)
    tally = np.zeros(width * width, dtype=np.intp)
    for lo in range(0, len(T) - 1, _PAIR_CHUNK):
        c = code[T[lo:lo + _PAIR_CHUNK + 1]]
        pair = c[:-1] * width
        pair += c[1:]
        tally += np.bincount(pair, minlength=width * width)
    tally = tally.reshape(width, width)[:m, :m]  # the separator's row and column dropped
    left, right = np.nonzero(tally >= floor)
    return dict(zip(zip(byte_of[left].tolist(), byte_of[right].tolist()),
                    tally[left, right].tolist()))


def encode(vocab: BpeVocab, text: str | bytes) -> list[int]:
    """Tokenize by applying merges in rank order, each left to right without overlap.

    No token spans two adjacent bytes that sit side by side in no token,
    so the input is cut between every such pair and each segment is
    encoded alone: a merge that is the lowest rank left in the whole
    text is also the lowest in each segment holding it. Only the runs of
    joinable byte pairs are looked up or merged: each byte between them
    is a segment of its own, and its id. Segment ids are memoized on the
    vocabulary object. Each call encodes its text alone; a pass over
    overlapping windows shares their cuts through `encode_each`.
    """
    raw = _to_bytes(text)
    return _by_runs(vocab, raw, _joins(vocab, raw))


def _by_runs(vocab: BpeVocab, raw: bytes, joins: bytes, ends: array | None = None,
             ids: array | None = None) -> list[int]:
    """The ids of `raw`, whose joinable pairs `joins` marks, one run of them at a time.

    With `ends` and `ids` given, each run's end and the number of ids
    before that end are appended to them.
    """
    memo = vocab._memo
    out: list[int] = []
    end = 0
    for run in _RUN.finditer(joins):
        start = run.start()
        out += raw[end:start]
        end = run.end()
        out += memo[raw[start:end]]
        if ends is not None:
            ends.append(end)
            ids.append(len(out))
    out += raw[end:]
    return out


def encode_spans(vocab: BpeVocab, texts: Iterable[str | bytes]):
    """Where each text lies on the byte stream of one pass: None, or (head, toks, lo, hi, tail).

    The pass lays runs of overlapping texts on streams (see `_runs`). A
    text that starts a stream gives None; its ids are `encode`'s, which
    are not computed here. Any other text's ids are head + toks[lo:hi]
    + tail, where `toks` is its stream's ids (see `_spans`). A run's
    spans come once the run is complete, after the text that ends it
    has been read.
    """
    for stream, laid in _runs(texts):
        yield None
        if len(laid) > 2:
            yield from _spans(vocab, stream, laid[2:])


def encode_each(vocab: BpeVocab, texts: Iterable[str | bytes]) -> Iterator[list[int]]:
    """`encode` of each text, in order, encoding each stream of `encode_spans` once.

    A text that no other lies on is encoded alone; the texts of a longer
    run, its first one too, are spans of their stream's ids.
    """
    for stream, laid in _runs(texts):
        if len(laid) == 2:
            yield encode(vocab, stream)
            continue
        for head, toks, lo, hi, tail in _spans(vocab, stream, laid):
            yield [*head, *toks[lo:hi], *tail]


def _runs(texts: Iterable[str | bytes]) -> Iterator[tuple[bytes, array]]:
    """Each run of consecutive texts laid on one byte stream: the stream, and where each lies.

    A text is laid at the first line start of the stream, from where the
    text before it began, at which the two agree byte for byte as far as
    they overlap (`_find`), and the part of it past the stream's end is
    appended. Texts slid down a body one line at a time thus share one
    stream and each adds only its last line. A text that lies nowhere
    ends the run and starts the next stream. The i-th text of a run
    is stream[laid[2i]:laid[2i + 1]]; the first lies at 0, and a run of
    one text has that text's bytes as its stream.
    Correctness rests only on the byte comparison, not on the shape or
    order of the texts.
    """
    stream, laid = None, array("i")
    for text in texts:
        raw = _to_bytes(text)
        a = -1 if stream is None else _find(stream, laid[-2], raw)
        if a < 0:
            if stream is not None:
                yield bytes(stream), laid
            stream, laid = raw, array("i", [0, len(raw)])
            continue
        n = len(stream)
        if len(raw) > n - a:
            if isinstance(stream, bytes):  # copied once a second text grows it
                stream = bytearray(stream)
            stream += raw[n - a:]
        laid.extend((a, a + len(raw)))
    if stream is not None:
        yield bytes(stream), laid


def _find(stream: bytes | bytearray, start: int, raw: bytes) -> int:
    """Where `raw` lies on `stream`, at a line start from `start` on, or -1.

    Where `raw` overlaps the stream by a line or more, the stream holds
    raw's first line and its newline there, so finding that head visits
    every such place; an overlap shorter than that lies within the
    stream's last line.
    """
    n = len(stream)
    head = raw[:raw.find(b"\n") + 1] or raw
    a = stream.find(head, start)
    while 0 <= a < n:
        if (a == 0 or stream[a - 1] == 10) and (
                stream.startswith(raw, a) if len(raw) <= n - a
                else raw.startswith(stream[a:])):
            return a
        a = stream.find(head, a + 1)
    a = stream.rfind(b"\n") + 1
    return a if start <= a < n and raw.startswith(stream[a:]) else -1


def _spans(vocab: BpeVocab, stream: bytes, laid: array):
    """(head, toks, lo, hi, tail) of each text laid on `stream` (see `_runs`).

    The stream is encoded once, by runs, into `toks`. A cut depends only
    on the two bytes beside it, so a text's own cuts are the stream's
    cuts strictly inside it, and its ids are the partial segment up to
    its first cut (head), the stream's ids of the whole segments
    between, toks[lo:hi], and the partial segment from its last cut
    (tail). A text inside one segment is that segment's part: its head,
    with no toks and no tail. The ids never depend on which texts share
    the stream.

    The ids before a cut c are those before the end of the last run
    that ends at or before c, plus one per byte from that end to c:
    those bytes lie in no run, since no run holds a cut inside it.
    """
    joins = _joins(vocab, stream)
    ends, ids = array("i", [0]), array("i", [0])
    toks = _by_runs(vocab, stream, joins, ends, ids)
    cut = b"\x00" + joins  # cut[p] is zero where a segment starts at p, or p is the end
    memo = vocab._memo
    for a, b in zip(laid[::2], laid[1::2]):
        first, last = cut.find(0, a), cut.rfind(0, 0, b + 1)
        if first > last:  # no cut from a to b
            yield memo[stream[a:b]], toks, 0, 0, ()
            continue
        k, j = bisect_right(ends, first) - 1, bisect_right(ends, last) - 1
        yield (memo[stream[a:first]], toks, ids[k] + first - ends[k],
               ids[j] + last - ends[j], memo[stream[last:b]])


# A run of joinable byte pairs in `_joins`: the bytes that join the next
# one, and the last byte, which does not
_RUN = re.compile(rb"[^\x00]+\x00")


def _joins(vocab: BpeVocab, raw: bytes) -> bytes:
    """Byte i is nonzero where (raw[i], raw[i + 1]) is joinable, zero elsewhere.

    Each lane's tables (see `BpeVocab._join_lanes`) translate `raw`
    twice; read as integers, byte i of the first and byte i + 1 of the
    second share a bit where the pair is joinable through that lane.
    """
    joins = 0
    for left, right in vocab._join_lanes:
        joins |= (int.from_bytes(raw.translate(left), "little")
                  & int.from_bytes(raw.translate(right), "little") >> 8)
    return joins.to_bytes(len(raw), "little")


class _Memo(dict):
    """The ids of every segment encoded so far with one vocabulary.

    A segment missing from it is merged and kept by `__missing__`, so a
    lookup is one subscript, with no Python call once the segment is in.
    """

    def __init__(self, vocab: BpeVocab):
        super().__init__()
        self.ranks, self.merges = vocab._ranks, vocab.merges

    def __missing__(self, segment: bytes) -> tuple[int, ...]:
        """Apply the merges to `segment`, popping pair sites by (rank, position).

        Tokens form a linked list over byte positions; a heap holds
        rank * n + position for every adjacent pair that has a rank, and
        sites a merge has changed are skipped when popped. A merge of
        rank r only creates pairs that contain its new id, whose ranks
        exceed r, so all sites of rank r are present when the first is
        popped and are merged left to right, as the rank-by-rank rescan
        would.
        """
        ranks, merges = self.ranks, self.merges
        n = len(segment)
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
        ids = self[segment] = tuple(t for t in tokens if t >= 0)
        return ids


def decode(vocab: BpeVocab, ids: Sequence[int]) -> str:
    table = vocab.token_bytes()
    # a negative index would count back from the table's end
    if not all(0 <= i < len(table) for i in ids):
        raise ValueError(f"token id outside the vocabulary of {vocab.size}")
    return b"".join([table[i] for i in ids]).decode("utf-8", "surrogateescape")


# the escaped text of each byte: printable ASCII but backslash as is
_ESCAPES = tuple("\\\\" if byte == 0x5C else chr(byte) if 0x20 < byte < 0x7F else f"\\x{byte:02x}"
                 for byte in range(256))


def _escape(token: bytes) -> str:
    return "".join([_ESCAPES[byte] for byte in token])


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


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, not {text!r}") from None


def _ints(fields: list[str]) -> list[int]:
    try:
        return [*map(int, fields)]
    except ValueError:
        return [_parse_int(f) for f in fields]  # raises, naming the first bad field


def load_vocab(path: str | Path) -> BpeVocab:
    """Read a vocabulary file; an error names the `path:line` it is on.

    A merge's ids are checked as its line is read, so the first error in
    file order is the one reported. The header values are checked once
    the vocabulary is built: a size limit the merges exceed, or a
    frequency floor below 1, is reported at its header line. So is the
    id table, once the merges give each id's text: its first line in
    file order with an id out of range, an id listed again or a text
    that disagrees. A table that leaves ids out names only the path.
    """
    limit, limit_at = DEFAULT_VOCAB_SIZE, str(path)
    min_freq, min_freq_at = DEFAULT_MIN_FREQUENCY, str(path)
    merges: list[tuple[int, int]] = []
    id_table: dict[int, str] = {}
    repeated = False  # an id listed twice, which the dict alone would hide
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            if line.startswith("#"):
                parts = line[1:].split("\t")
                if len(parts) == 2 and parts[0].strip() == "vocab_size_limit":
                    limit, limit_at = _parse_int(parts[1]), f"{path}:{lineno}"
                elif len(parts) == 2 and parts[0].strip() == "min_frequency":
                    min_freq, min_freq_at = _parse_int(parts[1]), f"{path}:{lineno}"
                continue
            fields = line.split("\t")
            if len(fields) == 3:
                rank, a, b = _ints(fields)
                if rank != len(merges):
                    raise ValueError("merge ranks out of order")
                _check_merge(rank, a, b)
                merges.append((a, b))
            elif len(fields) == 2:
                tid = _parse_int(fields[0])
                repeated = repeated or tid in id_table
                id_table[tid] = fields[1]
            else:
                raise ValueError("expected 2 or 3 tab-separated fields")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    try:
        vocab = BpeVocab(tuple(merges), vocab_size_limit=limit, min_frequency=min_freq)
    except ValueError as exc:  # every merge is defined, so a header value is bad
        where = limit_at if BASE_TOKENS + len(merges) > limit else min_freq_at
        raise ValueError(f"{where}: {exc}") from None
    if id_table:
        expected = {i: _escape(tok) for i, tok in enumerate(vocab.token_bytes())}
        if repeated or id_table != expected:
            raise ValueError(_id_table_error(path, expected))
    return vocab


def _id_table_error(path: str | Path, expected: dict[int, str]) -> str:
    """The first id-table line of `path` in file order that `expected` refutes.

    `load_vocab` has parsed every line, so only an error pays for
    reading the file again. A table whose every line agrees leaves ids
    out, and no line shows that: then only the path is named.
    """
    listed = set()
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        fields = line.split("\t")
        if len(fields) != 2 or line.startswith("#") or not line.strip():
            continue
        tid, text = int(fields[0]), fields[1]
        if tid not in expected:
            problem = f"id {tid} is outside the {len(expected)} tokens of the merge list"
        elif tid in listed:
            problem = f"id {tid} is listed again"
        elif text != expected[tid]:
            problem = f"id {tid} reads {text}, where the merge list gives {expected[tid]}"
        else:
            listed.add(tid)
            continue
        return f"{path}:{lineno}: id table disagrees with the merge list: {problem}"
    return f"{path}: id table disagrees with the merge list"
