"""Byte-level BPE: training, coding, serialization."""

from __future__ import annotations

import pickle
import random
import re
import sys
import threading
import tracemalloc
from array import array
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uninline import bpe
from uninline.bpe import (
    BASE_TOKENS,
    BpeVocab,
    decode,
    encode,
    encode_each,
    encode_spans,
    load_vocab,
    save_vocab,
    train_bpe,
)

FIXTURE = [
    "undefined4 __cdecl process(undefined4 *param_1)",
    "{",
    "  int iVar1;",
    "  iVar1 = *param_1;",
    "  while (iVar1 != 0) {",
    "    iVar1 = iVar1 + -1;",
    "  }",
    "  return 0;",
    "}",
]


def test_single_pair_corpus_first_merge() -> None:
    vocab = train_bpe(["aaaa"], vocab_size=300, min_frequency=2)
    assert vocab.merges[0] == (ord("a"), ord("a"))
    # the merged-token pair occurs once, below the frequency floor
    assert len(vocab.merges) == 1


def test_tie_breaks_toward_smaller_pair() -> None:
    # "ab" and "ba" both occur twice in "abab"... "ab" twice, "ba" once;
    # use "abba abba" style data where two pairs tie exactly
    vocab = train_bpe(["abab", "cdcd"], vocab_size=258, min_frequency=2)
    # (a,b) and (c,d) both occur twice; (a,b) is lexicographically smaller
    assert vocab.merges[0] == (ord("a"), ord("b"))
    assert vocab.merges[1] == (ord("c"), ord("d"))


def test_overlapping_pairs_counted_per_position_but_applied_disjointly() -> None:
    vocab = train_bpe(["aaa"], vocab_size=257, min_frequency=2)
    # "aaa" has two (a,a) positions, so the merge qualifies at floor 2,
    # but application is left-to-right non-overlapping: (aa) a
    assert vocab.merges == ((ord("a"), ord("a")),)
    assert encode(vocab, "aaa") == [BASE_TOKENS, ord("a")]


def test_empty_corpus_yields_base_vocab() -> None:
    vocab = train_bpe([], vocab_size=300, min_frequency=1)
    assert vocab.merges == ()
    assert vocab.size == BASE_TOKENS


def test_training_is_deterministic() -> None:
    a = train_bpe(FIXTURE, vocab_size=300, min_frequency=2)
    b = train_bpe(FIXTURE, vocab_size=300, min_frequency=2)
    assert a.merges == b.merges


def test_min_frequency_prefix_monotonicity() -> None:
    # a higher floor only stops earlier; the merge list is a prefix
    low = train_bpe(FIXTURE, vocab_size=400, min_frequency=2)
    high = train_bpe(FIXTURE, vocab_size=400, min_frequency=5)
    assert high.merges == low.merges[: len(high.merges)]
    assert len(high.merges) <= len(low.merges)


def test_roundtrip_on_seeded_random_bytes() -> None:
    vocab = train_bpe(FIXTURE, vocab_size=320, min_frequency=2)
    rng = np.random.default_rng(7)
    for _ in range(300):
        raw = bytes(rng.integers(0, 256, size=int(rng.integers(0, 60))))
        text = raw.decode("utf-8", "surrogateescape")
        assert decode(vocab, encode(vocab, text)) == text


def test_roundtrip_on_fixture_text() -> None:
    vocab = train_bpe(FIXTURE, vocab_size=300, min_frequency=2)
    joined = "\n".join(FIXTURE)
    ids = encode(vocab, joined)
    assert decode(vocab, ids) == joined
    assert max(ids) < vocab.size


def _apply_merge(seq: list[int], pair: tuple[int, int], new_id: int) -> list[int]:
    out = []
    i = 0
    a, b = pair
    n = len(seq)
    while i < n:
        if i + 1 < n and seq[i] == a and seq[i + 1] == b:
            out.append(new_id)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def _loop_merges(corpus, vocab_size, min_frequency):
    """The training loop the incremental trainer replaced: recount every
    pair of every document for each merge, then rewrite every document."""
    seqs = [list(doc if isinstance(doc, bytes) else doc.encode("utf-8", "surrogateescape"))
            for doc in corpus]
    seqs = [s for s in seqs if len(s) >= 2]
    merges = []
    while BASE_TOKENS + len(merges) < vocab_size:
        counts = Counter()
        for s in seqs:
            counts.update(zip(s, s[1:]))
        if not counts:
            break
        neg_freq, pair = min((-f, p) for p, f in counts.items())
        if -neg_freq < min_frequency:
            break
        new_id = BASE_TOKENS + len(merges)
        merges.append(pair)
        seqs = [_apply_merge(s, pair, new_id) for s in seqs]
        seqs = [s for s in seqs if len(s) >= 2]
    return tuple(merges)


# few distinct bytes, so long runs, repeated pairs and frequency ties are common
_DOC = st.lists(st.sampled_from(b"aaaabb\n "), max_size=30).map(bytes)


@settings(max_examples=300, deadline=None)
@given(corpus=st.lists(st.one_of(_DOC, _DOC.map(bytes.decode)), max_size=8),
       limit=st.integers(257, 300), min_frequency=st.integers(1, 4))
@example(corpus=[b"aaaa"], limit=300, min_frequency=1)
@example(corpus=[b"aaaaaaaaa", b"aaa"], limit=300, min_frequency=2)
@example(corpus=[b"", b"a", b"ab", b"b", b"ab"], limit=300, min_frequency=2)
@example(corpus=[b"abab", b"cdcd", b"ba"], limit=300, min_frequency=2)
@example(corpus=[b"ab\nab\nab", b"b\na"], limit=258, min_frequency=1)
def test_train_matches_loop_oracle(corpus, limit, min_frequency) -> None:
    vocab = train_bpe(corpus, vocab_size=limit, min_frequency=min_frequency)
    assert vocab.merges == _loop_merges(corpus, limit, min_frequency)


# runs of one byte, odd and even, and abab... alternations: merges with
# chains of overlapping sites, with sites on both sides of the array-step
# constant, and with sites whose left neighbour the site before merged
_PIECE = st.one_of(
    st.builds(lambda byte, n: bytes([byte]) * n, st.sampled_from(b"ab"), st.integers(1, 150)),
    st.integers(1, 80).map(lambda n: b"ab" * n),
    st.sampled_from([b"", b"a", b"b", b"\n"]),
)
_RUN_DOC = st.lists(_PIECE, max_size=5).map(b"".join)


@settings(max_examples=150, deadline=None)
@given(corpus=st.lists(st.one_of(_RUN_DOC, st.sampled_from([b"", b"a", b"b"])), max_size=6),
       limit=st.integers(257, 290), min_frequency=st.integers(1, 3),
       array_sites=st.sampled_from([1, bpe._ARRAY_MERGE_SITES]))
@example(corpus=[b"a" * 129, b"", b"a" * 128], limit=290, min_frequency=1, array_sites=64)
@example(corpus=[b"ab" * 70 + b"a", b"b", b"ba" * 65], limit=290, min_frequency=2,
         array_sites=64)
@example(corpus=[b"aab" * 40, b"a", b"abb" * 40], limit=290, min_frequency=3, array_sites=1)
@example(corpus=[b"aaababaaa"], limit=263, min_frequency=1, array_sites=1)  # stale sites
# (b, a) loses 69 of its 81 sites to the first merge, (a, b), and is merged later
@example(corpus=[b"ab" * 70, b"ab\n" * 20] + [b"ba"] * 12, limit=270, min_frequency=1,
         array_sites=64)
def test_array_step_matches_loop_oracle(corpus, limit, min_frequency, array_sites) -> None:
    # at 1, every merge is applied as array operations, however few its sites
    with mock.patch.object(bpe, "_ARRAY_MERGE_SITES", array_sites):
        vocab = train_bpe(corpus, vocab_size=limit, min_frequency=min_frequency)
    assert vocab.merges == _loop_merges(corpus, limit, min_frequency)


def _recheck_merge_loop(toks, width, at, pair, new, counts, sites, floor):
    """The merge loop before it applied the chained-site rule: it kept every
    born candidate and checked each one's liveness after the loop."""
    a, b = pair
    wa, wb = width[a], width[b]
    born = {}
    for i in at.tolist() if isinstance(at, np.ndarray) else at:
        j = i + wa
        if toks[i] != a or toks[j] != b:
            continue
        p = i - 1 if toks[i - 1] > -2 else -3 - toks[i - 1]
        k = j + wb
        left, right = toks[p], toks[k]
        bpe._lose(counts, sites, (left, a), 1, floor)
        bpe._lose(counts, sites, (b, right), 1, floor)
        toks[i], toks[j], toks[k - 1] = new, -2, -3 - i
        if left >= 0:
            born.setdefault((left, new), []).append(p)
        if right >= 0:
            born.setdefault((new, right), []).append(i)
    out = []
    for (x, y), candidates in born.items():
        live = array("i", [q for q in candidates if toks[q] == x and toks[q + width[x]] == y])
        if len(live) >= floor:
            out.append(((x, y), live))
    return out


@settings(max_examples=150, deadline=None)
@given(corpus=st.lists(st.one_of(_RUN_DOC, st.sampled_from([b"", b"a", b"b", b"aab"])),
                       max_size=6),
       limit=st.integers(257, 290), min_frequency=st.integers(1, 3),
       array_sites=st.sampled_from([bpe._ARRAY_MERGE_SITES, 10**9]))
@example(corpus=[b"aaaaa", b"ababa\nab"], limit=290, min_frequency=1, array_sites=10**9)
@example(corpus=[b"ab" * 70 + b"a", b"a" * 9, b"b\na"], limit=290, min_frequency=2,
         array_sites=10**9)
def test_merge_loop_matches_the_loop_that_rechecks_liveness(corpus, limit, min_frequency,
                                                            array_sites) -> None:
    """Each merge the loop applies returns the born pairs, with the same site
    arrays in the same order, and leaves the stream, counts and sites as the
    loop that kept dead candidates and dropped them after the loop."""
    merge_loop = bpe._merge_loop

    def checked(toks, width, at, pair, new, counts, sites, floor):
        expected_toks, expected_counts, expected_sites = array("i", toks), dict(counts), \
            dict(sites)
        expected = _recheck_merge_loop(expected_toks, width, at, pair, new, expected_counts,
                                       expected_sites, floor)
        out = merge_loop(toks, width, at, pair, new, counts, sites, floor)
        assert [(born, list(live)) for born, live in out] \
            == [(born, list(live)) for born, live in expected]
        assert toks == expected_toks
        assert counts == expected_counts
        assert sites == expected_sites
        return out

    with mock.patch.object(bpe, "_merge_loop", checked), \
            mock.patch.object(bpe, "_ARRAY_MERGE_SITES", array_sites):
        vocab = train_bpe(corpus, vocab_size=limit, min_frequency=min_frequency)
    assert vocab.merges == _loop_merges(corpus, limit, min_frequency)


def test_array_step_matches_loop_oracle_over_thousands_of_sites() -> None:
    corpus = [b"a" * 4097, b"", b"ab" * 3001 + b"a", b"b", b"b" * 3000 + b"ab" * 999,
              b"aab" * 1500, b"a"]
    counts = Counter(pair for doc in corpus for pair in zip(doc, doc[1:]))
    assert min(counts.values()) > 2000
    vocab = train_bpe(corpus, vocab_size=300, min_frequency=2)
    assert len(vocab.merges) > 20
    assert vocab.merges == _loop_merges(corpus, 300, 2)


# high bytes too: 0xc3 0xa9 is valid utf-8, 0x80 and 0xff never start a character
_WIDE_DOC = st.lists(st.sampled_from(b"aab\x00\x80\xc3\xa9\xff"), max_size=12).map(bytes)


@st.composite
def _setup_corpora(draw):
    """Documents of every length from 0, each as bytes or surrogate-escaped
    str, with some of them repeated."""
    docs = draw(st.lists(st.one_of(_WIDE_DOC, st.sampled_from([b"", b"a", b"\xff", b"ab"])),
                         max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        if docs:
            docs.insert(draw(st.integers(0, len(docs))), draw(st.sampled_from(docs)))
    as_str = draw(st.lists(st.booleans(), min_size=len(docs), max_size=len(docs)))
    return [d.decode("utf-8", "surrogateescape") if s else d for d, s in zip(docs, as_str)]


# each document is b + one distinct byte + a: the pair (a, b) across every
# boundary would be the most frequent pair, but it lies in no document
_BOUNDARY_DOCS = [bytes([98, byte, 97]) for byte in range(0x70, 0x90)]


@settings(max_examples=200, deadline=None)
@given(corpus=_setup_corpora(), limit=st.integers(257, 300), min_frequency=st.integers(1, 3),
       chunk=st.sampled_from([1, 2, 3, 7, bpe._PAIR_CHUNK]),
       array_sites=st.sampled_from([1, bpe._ARRAY_MERGE_SITES]))
@example(corpus=_BOUNDARY_DOCS * 2, limit=300, min_frequency=2, chunk=5, array_sites=1)
@example(corpus=[b"\xff\xfe", "\udcff\udcfe", b"\xff\xfe\xff", "é\udcffé"], limit=300,
         min_frequency=2, chunk=2, array_sites=1)
@example(corpus=[b"ab", b"ab", b"a", b"", b"ab", b"b"], limit=300, min_frequency=3, chunk=1,
         array_sites=64)
def test_stream_setup_matches_loop_oracle(corpus, limit, min_frequency, chunk,
                                          array_sites) -> None:
    # small chunks put chunk edges at every place, separators included
    with mock.patch.object(bpe, "_PAIR_CHUNK", chunk), \
            mock.patch.object(bpe, "_SITE_CHUNK", chunk), \
            mock.patch.object(bpe, "_ARRAY_MERGE_SITES", array_sites):
        vocab = train_bpe(corpus, vocab_size=limit, min_frequency=min_frequency)
    assert vocab.merges == _loop_merges(corpus, limit, min_frequency)


def test_no_pair_is_counted_across_documents() -> None:
    assert train_bpe(_BOUNDARY_DOCS, vocab_size=300, min_frequency=2).merges == ()
    assert train_bpe([b"".join(_BOUNDARY_DOCS)], vocab_size=257,
                     min_frequency=2).merges == ((97, 98),)


def _loop_group(ids, where, floor):
    """The grouping loop the stable sort replaced: one dict append per site."""
    tally = Counter(x for x in ids if x >= 0)
    groups = {}
    for x, q in zip(ids, where):
        if x >= 0 and tally[x] >= floor:
            groups.setdefault(x, []).append(q)
    return [(x, tally[x], groups.get(x)) for x in sorted(tally)]


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(st.sampled_from([-2, -1, 0, 7, 299, 300, 301]), max_size=300),
       floor=st.integers(1, 4))
@example(ids=[300, 299, -1, 300, 299, 7, 300, 299], floor=2)
@example(ids=[301, 300, 299] * 100, floor=100)  # every id arrives in descending order
def test_group_matches_loop_oracle(ids, floor) -> None:
    where = np.arange(0, 3 * len(ids), 3, dtype=np.intc)  # ascending, as the trainer's are
    groups = bpe._group(np.array(ids, dtype=np.intc), where, floor)
    assert [(x, n, live and list(live)) for x, n, live in groups] \
        == _loop_group(ids, where.tolist(), floor)


# "ef" is merged fifth: the new token's left neighbours are "cd"'s id (257)
# in the first half of the stream and "ab"'s (256) in the second, so its born
# pairs reach the grouping in descending id order; "gh" and "ij" do the same
# on the right; the loop alone groups them in order of first occurrence
@pytest.mark.parametrize("array_sites", [1, 10**9], ids=["array-step", "loop"])
def test_born_pairs_arriving_in_descending_id_order_match_loop_oracle(array_sites) -> None:
    corpus = [b"cdefij"] * 40 + [b"abefgh"] * 40 + [b"ab", b"cd", b"gh", b"ij"] * 50
    with mock.patch.object(bpe, "_ARRAY_MERGE_SITES", array_sites):
        vocab = train_bpe(corpus, vocab_size=300, min_frequency=2)
    assert vocab.merges[:5] == ((97, 98), (99, 100), (103, 104), (105, 106), (101, 102))
    assert vocab.merges == _loop_merges(corpus, 300, 2)


def _identifier_corpus(seed: int, docs: int, lines: int) -> list[str]:
    rng = random.Random(seed)
    syllables = ["ba", "ko", "ri", "tu", "me", "sa", "no", "vi", "xe", "lu", "qa", "zo"]
    idents = ["".join(rng.choice(syllables) for _ in range(rng.randint(2, 4)))
              for _ in range(120)]
    out = []
    for _ in range(docs):
        body = []
        for _ in range(lines):
            x, y, z = rng.sample(idents, 3)
            body.append(rng.choice([f"  {x} = {y} + {rng.randint(0, 99)};",
                                    f"  if ({x} < {z}) {{", f"  {x}({y}, {z});", "  }"]))
        out.append("\n".join(body))
    return out


def test_train_matches_loop_oracle_over_a_thousand_merges() -> None:
    corpus = _identifier_corpus(11, docs=20, lines=20)
    vocab = train_bpe(corpus, vocab_size=1400, min_frequency=1)
    assert len(vocab.merges) == 1400 - BASE_TOKENS  # the limit stops it
    assert vocab.merges == _loop_merges(corpus, 1400, 1)


# The traced peak of training on the 100,560 bytes below, per byte: 17.5
# with the nxt/prv link arrays the trainer once kept beside its token
# stream, 9.5 with the stream alone, whose 4 bytes a position are the most
# of it. The peak falls in a merge, so counting byte pairs with
# pointer-wide codes instead of int32 ones reads 9.4 here too
_TRACED_BYTES_PER_BYTE = 12


def test_training_traces_a_bounded_peak_per_input_byte() -> None:
    corpus = _identifier_corpus(3, docs=100, lines=50)
    size = sum(len(doc.encode()) for doc in corpus)
    assert size >= 100_000
    tracemalloc.start()
    try:
        train_bpe(corpus, vocab_size=300, min_frequency=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / size < _TRACED_BYTES_PER_BYTE


def test_merge_sequence_matches_naive_oracle() -> None:
    vocab = train_bpe(FIXTURE, vocab_size=280, min_frequency=2)
    assert vocab.merges == tuple(_oracle_merges(FIXTURE, 280, 2))


def _oracle_merges(corpus, vocab_size, min_frequency):
    """Deliberately different implementation: recount pairs from scratch
    each round over explicit token lists, pick by (-count, pair)."""
    seqs = [[int(b) for b in doc.encode("utf-8", "surrogateescape")] for doc in corpus]
    merges = []
    next_id = 256
    while next_id < vocab_size:
        counts = Counter()
        for seq in seqs:
            for i in range(len(seq) - 1):
                counts[(seq[i], seq[i + 1])] += 1
        if not counts:
            break
        best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if best[1] < min_frequency:
            break
        pair = best[0]
        new_seqs = []
        for seq in seqs:
            out = []
            i = 0
            while i < len(seq):
                if seq[i : i + 2] == list(pair):
                    out.append(next_id)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            new_seqs.append(out)
        seqs = new_seqs
        merges.append(pair)
        next_id += 1
    return merges


def _oracle_encode(vocab, text):
    """The rank-by-rank rescan: apply the lowest-ranked merge present
    everywhere, left to right without overlap, until none is present."""
    seq = list(text if isinstance(text, bytes) else text.encode("utf-8", "surrogateescape"))
    ranks = {pair: rank for rank, pair in enumerate(vocab.merges)}
    while len(seq) >= 2:
        best = min((ranks[p] for p in set(zip(seq, seq[1:])) if p in ranks), default=None)
        if best is None:
            break
        seq = _apply_merge(seq, vocab.merges[best], BASE_TOKENS + best)
    return seq


# few distinct bytes, so runs like "aaa" and pairs across "\n" are common;
# 0xc3 0xa9 is valid utf-8 and 0xff never is
_RAW = st.lists(st.sampled_from(b"aaab\n \xc3\xa9\xff"), max_size=40).map(bytes)
_TEXT = st.one_of(_RAW, _RAW.map(lambda raw: raw.decode("utf-8", "surrogateescape")))


@settings(max_examples=200, deadline=None)
@given(corpus=st.lists(_RAW, max_size=6), limit=st.integers(257, 320),
       texts=st.lists(_TEXT, max_size=8))
@example(corpus=[b"aaaa"], limit=257, texts=["aaa", "aaaaa", "", "a"])
@example(corpus=[b"a\nb a\nb"], limit=262, texts=["a\nb", "\n", "b a\nb\n"])
@example(corpus=[b"\xff\xffa"], limit=260, texts=[b"\xff\xffa", "\udcff\udcffa"])
def test_encode_matches_rescan_oracle(corpus, limit, texts) -> None:
    vocab = train_bpe(corpus, vocab_size=limit, min_frequency=1)
    expected = [_oracle_encode(vocab, text) for text in texts]
    assert [encode(vocab, text) for text in texts] == expected
    # the memo now holds every segment, and a pass lays each text on the stream
    # its predecessors left: neither may change a result, in either order
    assert list(encode_each(vocab, reversed(texts))) == expected[::-1]
    assert list(encode_each(vocab, texts)) == expected


# lines of few distinct bytes, so windows of different bodies often share lines
_LINE = st.lists(st.sampled_from(b"aab; \xc3\xa9\xff"), max_size=6).map(bytes)


@st.composite
def _window_sequences(draw):
    """Documents, and texts cut from them in the orders encode may see them.

    Each document is slid over by a window of random height and stride,
    its windows kept in order, reversed or shuffled; then unrelated,
    empty and newline-only texts, prefixes and suffixes of the text
    before, and repeats are inserted at random places. Each text is
    passed as bytes or as surrogate-escaped str.
    """
    docs = draw(st.lists(st.lists(_LINE, min_size=1, max_size=12), min_size=1, max_size=3))
    texts = []
    for lines in docs:
        height, stride = draw(st.integers(1, 6)), draw(st.integers(1, 3))
        windows = [b"\n".join(lines[i:i + height])
                   for i in range(0, max(1, len(lines) - height + 1), stride)]
        order = draw(st.sampled_from(["forward", "reversed", "shuffled"]))
        if order == "reversed":
            windows.reverse()
        elif order == "shuffled":
            windows = draw(st.permutations(windows))
        texts += windows
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(texts)))
        before = texts[at - 1] if at else b""
        line_starts = [0] + [i + 1 for i, byte in enumerate(before) if byte == ord("\n")]
        cut = draw(st.one_of(st.sampled_from(line_starts), st.integers(0, len(before))))
        kind = draw(st.sampled_from(["unrelated", "empty", "newlines", "prefix", "suffix",
                                     "repeat"]))
        texts.insert(at, {
            "unrelated": b"\n".join(draw(st.lists(_LINE, max_size=4))),
            "empty": b"",
            "newlines": b"\n" * draw(st.integers(1, 3)),
            "prefix": before[:cut],
            "suffix": before[cut:],
            "repeat": before,
        }[kind])
    as_str = draw(st.lists(st.booleans(), min_size=len(texts), max_size=len(texts)))
    texts = [t.decode("utf-8", "surrogateescape") if s else t for t, s in zip(texts, as_str)]
    return [b"\n".join(lines) for lines in docs], texts


@settings(max_examples=300, deadline=None)
@given(case=_window_sequences(), limit=st.integers(257, 320))
@example(case=([b"ab\nab\nb;"], [b"ab\nab", b"ab\nb;", b"b;", b"ab\nb;", b"ab\nab\nb;"]),
         limit=300)
@example(case=([b"a\naa\na"], [b"a\naa", b"aa\na", "a\naa", b"", b"\n\n", b"a\na"]),
         limit=300)
@example(case=([b"\xff\n\xff\xff"], [b"\xff\n\xff", "\udcff\n\udcff\udcff", b"\xff"]),
         limit=300)
# the second text lies wholly inside one run of joinable pairs
@example(case=([b"b\na\na\nb"], [b"b\na\na\nb", b"a\na"]), limit=300)
# the second text ends exactly on a cut inside the stream
@example(case=([b"ab"], [b"ab\nab\nab", b"ab\nab"]), limit=300)
# CRLF lines, joined across "\r\n"
@example(case=([b"ab\r\nb\r\nab"], [b"ab\r\nb\r", b"b\r\nab", b"ab", "b\r\nab"]),
         limit=300)
def test_encode_matches_rescan_oracle_over_window_sequences(case, limit) -> None:
    # every text goes through one pass, so each is laid on the stream its
    # predecessors left, and must still encode as the rescan encodes it alone
    corpus, texts = case
    vocab = train_bpe(corpus, vocab_size=limit, min_frequency=1)
    expected = [_oracle_encode(vocab, text) for text in texts]
    assert list(encode_each(vocab, texts)) == expected
    # spans are joined after the pass: a stream's ids are never changed once yielded
    spans = list(encode_spans(vocab, texts))
    assert not texts or spans[0] is None
    assert [encode(vocab, text) if span is None else [*span[0], *span[1][span[2]:span[3]],
                                                      *span[4]]
            for text, span in zip(texts, spans)] == expected


# twelve byte values, the zero byte among them: a vocabulary's pairs then
# begin with more than the eight bytes one lane of `bpe._joins` holds
_ALPHABET = b"ab\n \x00\x01\xc3\xa9\xff{}x"
_ALPHABET_TEXT = st.lists(st.sampled_from(_ALPHABET), max_size=40).map(bytes)


@st.composite
def _vocabs(draw):
    """Merge lists over `_ALPHABET`, any of them listed twice, each id defined before use."""
    merges = []
    for rank in range(draw(st.integers(0, 40))):
        part = st.sampled_from(_ALPHABET)
        if rank:
            part = st.one_of(part, st.integers(BASE_TOKENS, BASE_TOKENS + rank - 1))
        merges.append((draw(part), draw(part)))
    return BpeVocab(tuple(merges), vocab_size_limit=BASE_TOKENS + 40)


def _adjacent(vocab) -> set:
    """The byte pairs that sit side by side in some token's bytes."""
    return {pair for token in vocab.token_bytes() for pair in zip(token, token[1:])}


_AA = BpeVocab(((97, 97),), vocab_size_limit=300)
_AB = BpeVocab(((97, 98), (98, 97), (256, 97)), vocab_size_limit=300)
_TWO_LANES = BpeVocab(tuple((x, 97) for x in _ALPHABET), vocab_size_limit=300)


@settings(max_examples=300, deadline=None)
@given(vocab=_vocabs(), raw=_ALPHABET_TEXT)
@example(vocab=_AA, raw=b"")
@example(vocab=_AA, raw=b"a")
@example(vocab=_AA, raw=b"aaa")
@example(vocab=_AA, raw=b"ab\nb a")  # no pair joins
@example(vocab=_AB, raw=b"abababa")  # every pair joins
@example(vocab=_TWO_LANES, raw=b"{a}a\xffa\x00a\x01ab")
def test_a_stream_cut_by_runs_matches_rescan_oracle(vocab, raw) -> None:
    """The ids of a text encoded alone, and the cuts of its stream and the
    ids before each, are the rescan's ids and the cuts by definition."""
    adjacent = _adjacent(vocab)
    joined = [pair in adjacent for pair in zip(raw, raw[1:])] + [False] * len(raw[:1])
    assert [bool(flag) for flag in bpe._joins(vocab, raw)] == joined
    assert encode(vocab, raw) == _oracle_encode(vocab, raw)
    # every prefix of the text, laid on the stream the text makes
    prefixes = array("i", [x for end in range(len(raw) + 1) for x in (0, end)])
    spans = list(bpe._spans(vocab, raw, prefixes))
    cuts = [0, *(i for i in range(1, len(raw)) if (raw[i - 1], raw[i]) not in adjacent)]
    cuts += [len(raw)] * (len(raw) > 0)
    # a prefix ends on a cut exactly when it has no tail, and then toks[:hi] are its ids
    assert [end for end, span in enumerate(spans) if not span[4]] == cuts
    assert [spans[end][3] for end in cuts] == [len(_oracle_encode(vocab, raw[:end]))
                                               for end in cuts]
    assert spans[-1][1] == _oracle_encode(vocab, raw)
    assert [[*head, *toks[lo:hi], *tail] for head, toks, lo, hi, tail in spans] \
        == [_oracle_encode(vocab, raw[:end]) for end in range(len(raw) + 1)]


@settings(max_examples=300, deadline=None)
@given(vocab=_vocabs(), raw=_ALPHABET_TEXT)
@example(vocab=_AB, raw=b"ab\nab\nba")
@example(vocab=BpeVocab(((97, 10), (10, 97)), vocab_size_limit=300), raw=b"a\na\na\nab")
@example(vocab=_TWO_LANES, raw=b"{a}a\n\xffa\x00a\n\na\x01ab")
def test_a_stream_grown_line_by_line_matches_the_whole_text(vocab, raw) -> None:
    """Successive line prefixes of one text lie on one stream, which holds the
    whole text, and each gets the rescan's ids of that prefix alone."""
    # no text lies on an empty stream, so the prefixes start with the first nonempty one
    prefixes = [raw[:i] for i, byte in enumerate(raw) if byte == ord("\n") and i] + [raw]
    spans = list(encode_spans(vocab, prefixes))
    assert spans[0] is None and None not in spans[1:]
    assert [encode(vocab, prefixes[0])] + [[*head, *toks[lo:hi], *tail]
                                           for head, toks, lo, hi, tail in spans[1:]] \
        == [_oracle_encode(vocab, prefix) for prefix in prefixes]
    assert all(span[1] == _oracle_encode(vocab, raw) for span in spans[1:])


def test_a_pass_over_slid_windows_cuts_each_body_once() -> None:
    vocab = train_bpe(FIXTURE, vocab_size=400, min_frequency=1)
    body = FIXTURE + FIXTURE[:2]
    texts = ["\n".join(body[j:j + 3]) for j in range(len(body) - 2)]
    assert len(texts) == 9
    with mock.patch.object(bpe, "_joins", wraps=bpe._joins) as joins:
        assert list(encode_each(vocab, texts)) == [_oracle_encode(vocab, t) for t in texts]
    assert joins.call_count == 1


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=2, max_size=60),
       pair=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       chunk=st.sampled_from([1, 2, 3, 7, bpe._SITE_CHUNK]))
def test_byte_pair_sites_match_one_scan(ids, pair, chunk) -> None:
    T = np.array(ids, dtype=np.intc)
    with mock.patch.object(bpe, "_SITE_CHUNK", chunk):
        sites = bpe._byte_pair_sites(T, *pair)
    a, b = pair
    assert sites.tolist() == np.flatnonzero((T[:-1] == a) & (T[1:] == b)).tolist()


def _encode_in_threads(encode_run) -> None:
    """Run `encode_run(vocab, texts)` over four runs of windows on one
    vocab object, a thread each, with switches forced often."""
    vocab = train_bpe(FIXTURE, vocab_size=400, min_frequency=1)
    bodies = [FIXTURE[i:] + FIXTURE[:i] for i in range(4)]
    texts = [["\n".join(body[j:j + 3]) for j in range(len(body) - 2)] * 20 for body in bodies]
    expected = [[_oracle_encode(vocab, text) for text in seq] for seq in texts]
    results: list = [None] * len(texts)

    def work(k: int) -> None:
        results[k] = list(encode_run(vocab, texts[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(texts))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


def test_encode_on_one_vocab_from_many_threads() -> None:
    _encode_in_threads(lambda vocab, texts: [encode(vocab, text) for text in texts])


def test_encode_each_on_one_vocab_from_many_threads() -> None:
    # each pass owns its stream; the threads share only the segment memo,
    # where two misses of one segment store equal ids
    _encode_in_threads(encode_each)


def test_a_pass_over_slid_windows_starts_one_stream_per_body() -> None:
    vocab = train_bpe(FIXTURE, vocab_size=400, min_frequency=1)
    bodies = [FIXTURE, [line.upper() for line in FIXTURE]]
    texts = ["\n".join(body[j:j + 3]) for body in bodies for j in range(len(body) - 2)]
    spans = list(encode_spans(vocab, texts))
    assert [j for j, span in enumerate(spans) if span is None] == [0, len(FIXTURE) - 2]


def test_a_used_vocab_pickles_to_an_equal_one_that_encodes_alike() -> None:
    vocab = train_bpe(FIXTURE, vocab_size=300, min_frequency=2)
    text = "\n".join(FIXTURE)
    encode(vocab, text)
    copy = pickle.loads(pickle.dumps(vocab))
    assert copy == vocab
    for start in range(len(FIXTURE)):
        window = "\n".join(FIXTURE[start:start + 3])
        assert encode(copy, window) == encode(vocab, window) == _oracle_encode(vocab, window)


def test_encode_matches_rescan_oracle_on_windows() -> None:
    vocab = train_bpe(FIXTURE, vocab_size=400, min_frequency=1)
    assert len(vocab.merges) > 60
    rng = np.random.default_rng(5)
    for _ in range(200):
        start = int(rng.integers(0, len(FIXTURE)))
        text = "\n".join(FIXTURE[start:start + int(rng.integers(1, 6))])
        assert encode(vocab, text) == _oracle_encode(vocab, text)


def test_encode_of_a_merge_listed_twice_uses_its_last_rank() -> None:
    # a hand-written vocabulary may repeat a merge; the rescan ranks a
    # pair by its last listing, so id 256 is never produced
    vocab = BpeVocab(((97, 97), (97, 97), (256, 97), (257, 97)), vocab_size_limit=300)
    for text in ("aa", "aaa", "aaaa", "aaaaaaa"):
        assert encode(vocab, text) == _oracle_encode(vocab, text)
    assert encode(vocab, "aaa") == [259]


def test_vocab_file_roundtrip(tmp_path) -> None:
    vocab = train_bpe(FIXTURE, vocab_size=300, min_frequency=2)
    path = tmp_path / "vocab.tsv"
    save_vocab(path, vocab)
    back = load_vocab(path)
    assert back == vocab
    assert back.vocab_size_limit == 300
    assert back.min_frequency == 2


def test_vocab_file_detects_tampered_id_table(tmp_path) -> None:
    vocab = train_bpe(["abab"], vocab_size=257, min_frequency=2)
    path = tmp_path / "vocab.tsv"
    save_vocab(path, vocab)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\twrong"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_vocab(path)


def test_invalid_parameters_refused() -> None:
    with pytest.raises(ValueError):
        train_bpe(["x"], vocab_size=256, min_frequency=1)
    with pytest.raises(ValueError):
        train_bpe(["x"], vocab_size=300, min_frequency=0)
    with pytest.raises(ValueError):
        BpeVocab(((990, 0),), vocab_size_limit=300)
    with pytest.raises(ValueError):
        BpeVocab((), min_frequency=0)
    with pytest.raises(ValueError):
        decode(BpeVocab(()), [4000])
    with pytest.raises(ValueError):
        decode(BpeVocab(()), [-1])


class _HugeDocument(bytes):
    """Two bytes that report a length of 2**31: the trainer must refuse them
    before it allocates a stream that long."""

    def __len__(self) -> int:
        return 2**31


def test_training_text_past_the_int32_stream_is_refused() -> None:
    with pytest.raises(ValueError, match="^2147483648 bytes of training text overflow "):
        train_bpe([_HugeDocument(b"ab")], vocab_size=300, min_frequency=1)


def test_a_stream_at_the_position_limit_is_accepted() -> None:
    # one separator before each document and one after the last: 1 + 4 + 1 positions
    with mock.patch.object(bpe, "_MAX_STREAM", 6):
        assert train_bpe([b"abab"], vocab_size=300, min_frequency=1).merges
        with pytest.raises(ValueError, match="^5 bytes "):
            train_bpe([b"ababa"], vocab_size=300, min_frequency=1)


@pytest.mark.parametrize("line", [
    "# vocab_size_limit\tmany",
    "# min_frequency\t2.5",
    "x\t97\t97",
    "0\t97\tb",
    "z\ta",
    "0\t97\t256",
    "# min_frequency\t-5",
    "# vocab_size_limit\t10",
], ids=["header-limit", "header-frequency", "rank", "merge-id", "table-id", "undefined-id",
        "frequency-floor", "limit-below-merges"])
def test_vocab_file_errors_name_the_line(tmp_path, line) -> None:
    path = tmp_path / "vocab.tsv"
    path.write_text(f"# byte-level bpe vocabulary\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
        load_vocab(path)


def test_vocab_file_undefined_merge_is_named_before_a_later_bad_line(tmp_path) -> None:
    path = tmp_path / "vocab.tsv"
    path.write_text("# byte-level bpe vocabulary\n0\t97\t256\n1\t97\tb\n")  # 3: not an id
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: merge 0 references an "
                                         r"id not yet defined: \(97, 256\)$"):
        load_vocab(path)
