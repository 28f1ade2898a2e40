"""Tweet preprocessing and embedding lookup.

Tweets are lowercased, stripped to alphabetic tokens and represented by the
mean of their word vectors: ``embed_tweet`` for one tweet, ``embed_tweets``
for many at once, with the same bytes. ``pad_and_mask``, a branch as a
fixed-length matrix with a validity mask, is called by nothing in the
package; it is kept because the bench tracer wraps it by name.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from pathlib import Path
from typing import Optional, Sequence

import numpy as np


_WORD = re.compile("[a-z]+")


def preprocess(text: str) -> list[str]:
    """The runs of ASCII letters a-z in the lowercased text, in order.

    Every other character separates tokens, so "don't" gives [don, t], and
    digits, punctuation and non-ASCII letters are dropped.
    """
    return _WORD.findall(text.lower())


class EmbeddingTable:
    """Fixed token -> vector mapping with a common dimension."""

    def __init__(self, dimension: int, entries: dict[str, np.ndarray]):
        if dimension < 1:
            raise ValueError(f"dimension must be positive, got {dimension}")
        for token, vec in entries.items():
            if vec.shape != (dimension,):
                raise ValueError(
                    f"token {token!r} has vector shape {vec.shape}, expected ({dimension},)")
        self.dimension = dimension
        self._entries = entries

    def get(self, token: str) -> Optional[np.ndarray]:
        return self._entries.get(token)

    def __contains__(self, token: str) -> bool:
        return self.get(token) is not None

    def __len__(self) -> int:
        return len(self._entries)


class HashEmbeddings(EmbeddingTable):
    """Deterministic pseudo-random unit vectors, one per requested token.

    Stands in for a pretrained table: every token is in-vocabulary and the
    vector depends only on (token, seed).
    """

    def __init__(self, dimension: int, seed: int = 0):
        super().__init__(dimension, {})
        self.seed = seed

    def get(self, token: str) -> np.ndarray:
        cached = self._entries.get(token)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(
            f"{self.seed}:{token}".encode(), digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        vec = rng.standard_normal(self.dimension)
        vec /= np.linalg.norm(vec)
        self._entries[token] = vec
        return vec


def hash_embeddings(dimension: int, seed: int = 0) -> HashEmbeddings:
    """Build the deterministic fallback embedding table."""
    return HashEmbeddings(dimension, seed)


def load_embeddings(path: str | Path) -> EmbeddingTable:
    """Read a text embedding file: token then ``dimension`` reals per line,
    with an optional ``<count> <dimension>`` header."""
    path = Path(path)
    entries: dict[str, np.ndarray] = {}
    dimension: Optional[int] = None
    with path.open(encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if lineno == 1 and len(fields) == 2:
                try:
                    declared = int(fields[1])
                except ValueError:
                    declared = None
                if declared is not None and fields[0].isdigit():
                    dimension = declared
                    continue
            token, values = fields[0], fields[1:]
            try:
                vec = np.array([float(v) for v in values], dtype=float)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field: {exc}") from None
            if not (np.abs(vec) <= np.finfo(np.float32).max).all():
                raise ValueError(f"{path}:{lineno}: a value is not finite in float32")
            if dimension is None:
                dimension = len(vec)
            if len(vec) != dimension:
                raise ValueError(
                    f"{path}:{lineno}: expected {dimension} values, got {len(vec)}")
            entries[token] = vec
    if dimension is None:
        raise ValueError(f"{path}: empty embedding file")
    return EmbeddingTable(dimension, entries)


def embed_tweet(tokens: Sequence[str], table: EmbeddingTable) -> np.ndarray:
    """Average the vectors of in-vocabulary tokens; zero vector if none.

    The sum and the division are the ones ``np.mean(vectors, axis=0)``
    runs, without its Python wrapper, so the result is the same bit for bit.
    """
    vectors = [v for v in map(table.get, tokens) if v is not None]
    if not vectors:
        return np.zeros(table.dimension)
    return np.add.reduce(vectors, axis=0) / len(vectors)


#: Most posts that ``embed_tweets`` gathers at once. Gathering all posts of
#: a count at once holds (posts, count, dimension) doubles: on the bench's
#: paper corpus that raised the peak RSS from 122 to 171 MB.
EMBED_BLOCK = 256


def embed_tweets(token_lists: Sequence[Sequence[str]], table: EmbeddingTable) -> np.ndarray:
    """``embed_tweet`` of each token list, as the float32 rows of one
    (len(token_lists), dimension) matrix; a row with no in-vocabulary token
    is zero.

    ``table.get`` runs once per distinct token. The posts with k
    in-vocabulary tokens are averaged together, up to ``EMBED_BLOCK`` at a
    time: their vectors are gathered as (posts, k, dimension) and reduced
    over k with ``embed_tweet``'s sum and division, so each row equals
    ``embed_tweet(tokens, table).astype(np.float32)`` byte for byte.
    """
    distinct = dict.fromkeys(itertools.chain.from_iterable(token_lists))
    found = {token: vec for token in distinct if (vec := table.get(token)) is not None}
    local = dict.fromkeys(distinct, -1)     # token -> row of ``vectors``, -1 if out of vocabulary
    local.update(zip(found, itertools.count()))
    codes = np.fromiter(map(local.__getitem__, itertools.chain.from_iterable(token_lists)),
                        dtype=np.intp)
    post = np.repeat(np.arange(len(token_lists)), [len(tokens) for tokens in token_lists])
    known = codes >= 0
    codes, post = codes[known], post[known]
    counts = np.bincount(post, minlength=len(token_lists))  # in-vocabulary tokens per post
    # Posts, and their tokens, grouped by that count; in order within a group.
    codes = codes[counts[post].argsort(kind="stable")]
    order = counts.argsort(kind="stable")
    vectors = np.array(list(found.values()))
    x = np.zeros((len(token_lists), table.dimension), dtype=np.float32)
    first_post = first_token = 0
    for k, size in enumerate(np.bincount(counts).tolist()):
        if k and size:  # a post with no in-vocabulary token keeps its zero row
            posts = order[first_post:first_post + size]
            group = codes[first_token:first_token + k * size].reshape(size, k)
            for block in range(0, size, EMBED_BLOCK):
                gathered = vectors.take(group[block:block + EMBED_BLOCK], axis=0)
                x[posts[block:block + EMBED_BLOCK]] = np.add.reduce(gathered, axis=1) / k
        first_post += size
        first_token += k * size
    return x


def pad_and_mask(vectors: Sequence[np.ndarray], max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack tweet vectors into a zero-padded (max_len, dimension) matrix and
    a (max_len,) bool mask of its filled rows, truncating from the leaf end
    (the source-first prefix is kept)."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if len(vectors) == 0:
        raise ValueError("need at least one vector")
    n = min(len(vectors), max_len)
    matrix = np.zeros((max_len, len(vectors[0])))
    matrix[:n] = vectors[:n]
    return matrix, np.arange(max_len) < n
