"""Synthetic text corpora for next-word prediction.

The paper evaluates on PTB, WikiText-2 and Reddit.  Offline substitutes
are generated from sparse first-order Markov chains over a synthetic
vocabulary:

* a *base chain* with Zipfian unigram statistics and a small successor
  set per token gives corpora whose next-word distribution is learnable
  by an LSTM (top-3 accuracy lands in the paper's ~28-34% band);
* the WikiText-2-like preset is >2x larger than the PTB-like one with a
  larger vocabulary, matching the paper's description;
* the Reddit-like preset draws each *user's* text from a topic-specific
  perturbation of the base chain with unequal lengths — naturally
  non-IID clients, as in the LEAF Reddit benchmark the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MarkovLM", "TextCorpus", "make_text_corpus", "make_user_corpora"]


@dataclass
class MarkovLM:
    """A sparse first-order Markov language model.

    Attributes
    ----------
    successors:
        ``(vocab, k)`` integer array — the candidate next tokens of each
        token.
    probs:
        ``(vocab, k)`` rows summing to 1 — transition probabilities.
    unigram:
        ``(vocab,)`` stationary fallback distribution (Zipfian).
    """

    successors: np.ndarray
    probs: np.ndarray
    unigram: np.ndarray

    @property
    def vocab_size(self) -> int:
        return self.unigram.shape[0]

    def sample(self, length: int, rng: np.random.Generator, mix: float = 0.1) -> np.ndarray:
        """Generate a token stream of ``length`` tokens.

        With probability ``mix`` the next token is drawn from the
        unigram fallback, which keeps every token reachable.
        """
        out = np.empty(length, dtype=np.int64)
        token = int(rng.choice(self.vocab_size, p=self.unigram))
        k = self.successors.shape[1]
        # Pre-draw the randomness in bulk — the Python loop then only
        # routes indices (vectorization guidance from the HPC notes).
        use_unigram = rng.random(length) < mix
        unigram_draws = rng.choice(self.vocab_size, size=length, p=self.unigram)
        slot_uniform = rng.random(length)
        cdf = np.cumsum(self.probs, axis=1)
        for i in range(length):
            out[i] = token
            if use_unigram[i]:
                token = int(unigram_draws[i])
            else:
                slot = int(np.searchsorted(cdf[token], slot_uniform[i]))
                token = int(self.successors[token, min(slot, k - 1)])
        return out


def _zipf_unigram(vocab: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    ranks = np.arange(1, vocab + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    rng.shuffle(weights)  # decouple token id from frequency rank
    return weights / weights.sum()


def build_markov_lm(
    vocab: int,
    branching: int,
    seed: int,
    concentration: float = 0.35,
    zipf_exponent: float = 1.1,
) -> MarkovLM:
    """Construct a random sparse Markov chain.

    ``branching`` successors per token, Dirichlet-distributed transition
    mass with ``concentration`` (small values -> peaky rows -> higher
    achievable top-3 accuracy).
    """
    rng = np.random.default_rng(seed)
    unigram = _zipf_unigram(vocab, zipf_exponent, rng)
    successors = np.empty((vocab, branching), dtype=np.int64)
    probs = np.empty((vocab, branching), dtype=np.float64)
    for token in range(vocab):
        successors[token] = rng.choice(vocab, size=branching, replace=False, p=unigram)
        row = rng.dirichlet(np.full(branching, concentration))
        probs[token] = row
    return MarkovLM(successors=successors, probs=probs, unigram=unigram)


def perturb_topic(
    base: MarkovLM,
    fraction: float,
    rng: np.random.Generator,
    concentration: float = 0.05,
) -> MarkovLM:
    """Derive a topic chain by re-rolling a fraction of transition rows.

    Used for the Reddit-like preset: users writing about different
    topics share most of the language but differ on a subset of
    transitions, which is what makes their data non-IID.
    """
    vocab, k = base.successors.shape
    successors = base.successors.copy()
    probs = base.probs.copy()
    n_changed = int(round(fraction * vocab))
    changed = rng.choice(vocab, size=n_changed, replace=False)
    for token in changed:
        successors[token] = rng.choice(vocab, size=k, replace=False, p=base.unigram)
        probs[token] = rng.dirichlet(np.full(k, concentration))
    return MarkovLM(successors=successors, probs=probs, unigram=base.unigram)


@dataclass
class TextCorpus:
    """A next-word-prediction corpus.

    ``train_stream`` may be the concatenation of per-user streams, user
    ``u`` owning tokens ``user_offsets[u]:user_offsets[u + 1]``; the
    federated registry slices it.  ``test_stream`` is held out globally.
    """

    train_stream: np.ndarray
    test_stream: np.ndarray
    vocab_size: int
    name: str
    #: ``(users + 1,)`` token offsets of a per-user corpus, else ``None``
    user_offsets: np.ndarray | None = None

    def __len__(self) -> int:
        return self.train_stream.shape[0]


def make_text_corpus(
    name: str,
    vocab: int,
    train_tokens: int,
    test_tokens: int,
    branching: int = 4,
    concentration: float = 0.05,
    zipf_exponent: float = 0.9,
    unigram_mix: float = 0.20,
    seed: int = 0,
) -> TextCorpus:
    """Generate an IID corpus (PTB-like / WikiText-2-like presets).

    The defaults are calibrated so that a small two-layer LSTM reaches
    the paper's top-3 accuracy band (high 20s to low 30s, distinctly
    above the ~20% unigram baseline) within a few hundred SGD steps.
    """
    lm = build_markov_lm(
        vocab, branching, seed, concentration=concentration, zipf_exponent=zipf_exponent
    )
    rng = np.random.default_rng(seed + 1)
    train = lm.sample(train_tokens, rng, mix=unigram_mix)
    test = lm.sample(test_tokens, rng, mix=unigram_mix)
    return TextCorpus(
        train_stream=train,
        test_stream=test,
        vocab_size=vocab,
        name=name,
    )


def make_user_corpora(
    name: str,
    vocab: int,
    n_users: int,
    mean_tokens: int,
    test_tokens: int,
    n_topics: int = 4,
    topic_fraction: float = 0.5,
    branching: int = 4,
    concentration: float = 0.05,
    zipf_exponent: float = 0.9,
    unigram_mix: float = 0.20,
    seed: int = 0,
) -> TextCorpus:
    """Generate a non-IID per-user corpus (Reddit-like preset).

    Users are assigned to topics; each user's stream is drawn from their
    topic's chain with a log-normal length (so sample sizes differ, as
    the paper notes for the Reddit top-100 users).  The test stream
    mixes all topics equally.
    """
    base = build_markov_lm(
        vocab, branching, seed, concentration=concentration, zipf_exponent=zipf_exponent
    )
    rng = np.random.default_rng(seed + 1)
    topics = [perturb_topic(base, topic_fraction, rng) for _ in range(n_topics)]
    user_topic = rng.integers(0, n_topics, size=n_users)
    lengths = np.maximum(
        (mean_tokens * rng.lognormal(mean=0.0, sigma=0.5, size=n_users)).astype(int),
        mean_tokens // 5,
    )
    user_streams = [
        topics[user_topic[u]].sample(int(lengths[u]), rng, mix=unigram_mix)
        for u in range(n_users)
    ]
    offsets = np.concatenate(([0], np.cumsum([s.shape[0] for s in user_streams])))
    per_topic = max(test_tokens // n_topics, 1)
    test = np.concatenate([t.sample(per_topic, rng, mix=unigram_mix) for t in topics])
    return TextCorpus(
        train_stream=np.concatenate(user_streams),
        test_stream=test,
        vocab_size=vocab,
        name=name,
        user_offsets=offsets.astype(np.int64),
    )
