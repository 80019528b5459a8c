"""Byte-level BPE: training, coding, serialization."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from uninline.bpe import (
    BASE_TOKENS,
    BpeVocab,
    decode,
    encode,
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
        decode(BpeVocab(()), [4000])
