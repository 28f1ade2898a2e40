"""Conversation corpora: threads, branch decomposition, event splits, synthetic data.

A thread is a source post plus a tree of replies. Threads decompose into
branches (root-to-leaf linear paths) which are the model's training
instances. Corpora are stored as JSON, one thread per object, either as a
directory of ``*.json`` files or a single newline-delimited file.
"""

from __future__ import annotations

import bisect
import json
import math
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from rumourmtl.artifacts import is_file_name, write_json, write_ndjson

STANCE_CLASSES = ("comment", "deny", "query", "support")
DETECTION_CLASSES = ("non-rumour", "rumour")
VERACITY_CLASSES = ("false", "true", "unverified")
#: Each task's classes, alphabetical: the order of model outputs and label codes.
TASK_CLASSES = {
    "stance": STANCE_CLASSES,
    "detection": DETECTION_CLASSES,
    "veracity": VERACITY_CLASSES,
}

#: Branches longer than this are truncated from the leaf end (source kept)
#: when building training instances.
DEFAULT_MAX_BRANCH_LEN = 25


class CorpusError(ValueError):
    """Raised for schema violations and broken thread invariants."""


def _check_label(value: Optional[str], allowed: Sequence[str], what: str, where: str) -> None:
    if value is not None and value not in allowed:
        raise CorpusError(f"{where}: unknown {what} label {value!r} (allowed: {allowed})")


@dataclass(frozen=True)
class Post:
    """A single tweet: the thread source (no parent) or a reply."""

    id: str
    text: str
    parent_id: Optional[str] = None
    stance_label: Optional[str] = None

    def __post_init__(self) -> None:
        _check_label(self.stance_label, STANCE_CLASSES, "stance", f"post {self.id}")

    # The flags read the raw text: preprocessing strips the punctuation that
    # carries the evidence.
    @property
    def has_url(self) -> bool:
        return "http" in self.text

    @property
    def has_hashtag(self) -> bool:
        return "#" in self.text


@dataclass(frozen=True)
class Thread:
    """A source post plus its reply tree, with optional thread-level labels."""

    source: Post
    replies: tuple[Post, ...]
    event: str
    detection_label: Optional[str] = None
    veracity_label: Optional[str] = None

    @property
    def id(self) -> str:
        return self.source.id

    @property
    def posts(self) -> tuple[Post, ...]:
        return (self.source,) + self.replies

    def __post_init__(self) -> None:
        where = f"thread {self.source.id}"
        _check_label(self.detection_label, DETECTION_CLASSES, "detection", where)
        _check_label(self.veracity_label, VERACITY_CLASSES, "veracity", where)
        if self.veracity_label is not None and self.detection_label != "rumour":
            raise CorpusError(f"{where}: veracity label requires detection label 'rumour'")
        if self.source.parent_id is not None:
            raise CorpusError(f"{where}: source post has a parent")
        ids = [p.id for p in self.posts]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise CorpusError(f"{where}: duplicate post ids {dupes}")
        id_set = set(ids)
        for r in self.replies:
            if r.parent_id is None:
                raise CorpusError(f"{where}: reply {r.id} has no parent")
            if r.parent_id not in id_set:
                raise CorpusError(f"{where}: reply {r.id} has orphan parent {r.parent_id!r}")
        # Parent links must reach the source without cycles. A walk stops at
        # a post that an earlier walk passed on its way to the source, so
        # each post is passed once.
        parent = {r.id: r.parent_id for r in self.replies}
        reached = {self.source.id}
        for r in self.replies:
            seen = set()
            node = r.id
            while node not in reached:
                if node in seen:
                    raise CorpusError(f"{where}: cyclic reply chain through post {r.id}")
                seen.add(node)
                node = parent[node]
            reached |= seen


@dataclass(frozen=True)
class Branch:
    """One root-to-leaf path through a thread, as an ordered tuple of post ids."""

    post_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.post_ids)


@dataclass(frozen=True)
class Corpus:
    """An immutable collection of threads."""

    threads: tuple[Thread, ...]

    def __post_init__(self) -> None:
        thread_ids = [t.id for t in self.threads]
        if len(set(thread_ids)) != len(thread_ids):
            dupes = sorted({i for i in thread_ids if thread_ids.count(i) > 1})
            raise CorpusError(f"duplicate thread ids {dupes}")

    @property
    def events(self) -> tuple[str, ...]:
        """Distinct event names, sorted."""
        return tuple(sorted({t.event for t in self.threads}))

    def __len__(self) -> int:
        return len(self.threads)

    def __iter__(self):
        return iter(self.threads)


def decompose_branches(thread: Thread, max_len: Optional[int] = None) -> list[Branch]:
    """Split a thread into linear branches, one per leaf, source first.

    Branches are ordered by leaf post id (ascending) so downstream batching
    is reproducible. With ``max_len`` set, longer branches keep the source
    and drop posts from the leaf end.
    """
    if max_len is not None and max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    parent = {r.id: r.parent_id for r in thread.replies}
    non_leaves = set(parent.values())
    leaves = sorted(p.id for p in thread.posts if p.id not in non_leaves)
    branches = []
    for leaf in leaves:
        path = [leaf]
        while path[-1] != thread.source.id:
            path.append(parent[path[-1]])
        path.reverse()
        if max_len is not None:
            path = path[:max_len]
        branches.append(Branch(tuple(path)))
    return branches


def split_loeo(corpus: Corpus, held_out: str) -> tuple[Corpus, Corpus]:
    """Partition a corpus for one leave-one-event-out fold."""
    if held_out not in corpus.events:
        raise CorpusError(f"unknown event {held_out!r} (have: {corpus.events})")
    test = tuple(t for t in corpus.threads if t.event == held_out)
    train = tuple(t for t in corpus.threads if t.event != held_out)
    if not train:
        raise CorpusError(f"holding out {held_out!r} leaves an empty training set")
    return Corpus(train), Corpus(test)


# ---------------------------------------------------------------------------
# JSON serialization

def _thread_to_obj(thread: Thread) -> dict:
    posts = []
    for p in thread.posts:
        posts.append({
            "id": p.id,
            "text": p.text,
            "parent": p.parent_id,
            "stance": p.stance_label,
        })
    return {
        "event": thread.event,
        "detection": thread.detection_label,
        "veracity": thread.veracity_label,
        "posts": posts,
    }


def _thread_from_obj(obj: dict) -> Thread:
    try:
        raw_posts = obj["posts"]
        event = obj["event"]
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"missing field {exc}") from None
    if not isinstance(raw_posts, list) or not raw_posts:
        raise CorpusError("'posts' must be a non-empty list")
    if not isinstance(event, str):
        raise CorpusError(f"'event' must be a string, got {event!r}")
    if any(unicodedata.category(ch) in ("Cc", "Cs") for ch in event):
        # It names output rows and prediction files, which UTF-8 text cannot hold a surrogate in.
        raise CorpusError(f"'event' must hold no control character or surrogate, got {event!r}")
    posts = []
    for rp in raw_posts:
        try:
            post_id, text, parent = str(rp["id"]), rp["text"], rp.get("parent")
            if not isinstance(text, str):
                raise TypeError(f"'text' must be a string, got {text!r}")
            post = Post(
                id=post_id,
                text=text,
                parent_id=None if parent is None else str(parent),
                stance_label=rp.get("stance"),
            )
        except (KeyError, TypeError) as exc:
            raise CorpusError(f"malformed post entry: {exc}") from None
        posts.append(post)
    sources = [p for p in posts if p.parent_id is None]
    if len(sources) != 1:
        raise CorpusError(f"expected exactly one source post, got {len(sources)}")
    source = sources[0]
    replies = tuple(p for p in posts if p is not source)
    return Thread(
        source=source,
        replies=replies,
        event=event,
        detection_label=obj.get("detection"),
        veracity_label=obj.get("veracity"),
    )


def read_text(path: Path) -> str:
    """The text of ``path``, UTF-8 with any leading byte-order mark
    dropped; a file that cannot be read as text is bad input."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"{path}: cannot read as text: {exc}") from None


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a corpus from a directory of ``*.json`` files or an
    ndjson file (one thread object per line)."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        if not files:
            raise CorpusError(f"{path}: no *.json files found")
        records = ((str(f), read_text(f)) for f in files)
    elif path.is_file():
        records = ((f"{path}:{lineno}", line) for lineno, line
                   in enumerate(read_text(path).splitlines(), start=1) if line.strip())
    else:
        raise CorpusError(f"{path}: no such file or directory")
    threads: list[Thread] = []
    for where, text in records:
        try:
            threads.append(_thread_from_obj(json.loads(text)))
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{where}: parse failure: {exc}") from None
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from None
    return Corpus(tuple(threads))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus. Directory targets get one file per thread, anything
    else becomes a single ndjson file."""
    path = Path(path)
    if path.is_dir() or (not path.suffix and not path.exists()):
        path.mkdir(parents=True, exist_ok=True)
        for t in corpus.threads:
            name = f"{t.id}.json"
            if not is_file_name(name):
                raise CorpusError(f"{path}: thread id {t.id!r} is not a file name")
            write_json(path / name, _thread_to_obj(t))
    else:
        write_ndjson(path, map(_thread_to_obj, corpus.threads))


# ---------------------------------------------------------------------------
# Synthetic corpus generation

#: Most tokens a ``GeneratorSpec``'s corpus may have: about half a gigabyte
#: of posts, at the generator's 50 bytes a token.
MAX_CORPUS_TOKENS = 10 ** 7


@dataclass(frozen=True)
class GeneratorSpec:
    """Configuration for the synthetic corpus generator.

    ``coupling`` in [0, 1] links veracity to reply stances: at 1.0 false
    rumours draw replies biased toward deny/query and true rumours toward
    support; at 0.0 stances are independent of veracity.
    """

    events: int = 3
    threads_per_event: int = 10
    depth_range: tuple[int, int] = (1, 4)
    veracity_priors: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)  # false, true, unverified
    nonrumour_fraction: float = 0.25
    coupling: float = 1.0
    replies_range: tuple[int, int] = (2, 6)
    tokens_per_post: int = 6

    def __post_init__(self) -> None:
        if self.events < 1 or self.threads_per_event < 1:
            raise ValueError("events and threads_per_event must be positive")
        if not (0.0 <= self.coupling <= 1.0):
            raise ValueError(f"coupling must be in [0, 1], got {self.coupling}")
        if not (0.0 <= self.nonrumour_fraction < 1.0):
            raise ValueError("nonrumour_fraction must be in [0, 1)")
        if self.depth_range[0] < 1 or self.depth_range[0] > self.depth_range[1]:
            raise ValueError(f"bad depth_range {self.depth_range}")
        if self.replies_range[0] < 0 or self.replies_range[0] > self.replies_range[1]:
            raise ValueError(f"bad replies_range {self.replies_range}")
        if self.tokens_per_post < 1:
            raise ValueError(f"tokens_per_post must be >= 1, got {self.tokens_per_post}")
        if (not all(math.isfinite(p) for p in self.veracity_priors)
                or abs(sum(self.veracity_priors) - 1.0) > 1e-9 or min(self.veracity_priors) < 0):
            raise ValueError(f"veracity_priors must be a distribution, got {self.veracity_priors}")
        tokens = (self.events * self.threads_per_event * (1 + self.replies_range[1])
                  * self.tokens_per_post)
        if tokens > MAX_CORPUS_TOKENS:
            raise ValueError(f"events * threads_per_event * (1 + max replies) * tokens_per_post "
                             f"is {tokens} tokens, above {MAX_CORPUS_TOKENS}")


# Token pools: each label family gets its own small vocabulary so averaged
# embeddings carry a class signal. Uniform base stance distribution keeps
# stance independent of veracity at coupling 0.
_STANCE_POOLS = {
    "comment": ["meanwhile", "anyway", "watching", "news", "thread"],
    "deny": ["nope", "wrong", "hoax", "debunked", "lies"],
    "query": ["really", "source", "confirm", "sure", "evidence"],
    "support": ["yes", "confirmed", "agree", "exactly", "trusted"],
}
_VERACITY_POOLS = {
    "false": ["fabricated", "baseless", "retracted", "fake", "incorrect"],
    "true": ["verified", "official", "accurate", "happened", "witnessed"],
    "unverified": ["unclear", "developing", "alleged", "rumoured", "unconfirmed"],
}
_DETECTION_POOLS = {
    "rumour": ["breaking", "claims", "reportedly", "spreading", "viral"],
    "non-rumour": ["weather", "sports", "recipe", "schedule", "routine"],
}
_COMMON_POOL = ["the", "a", "it", "people", "today", "city", "just", "still"]

# Stance profile of replies given the thread's veracity, at full coupling.
_COUPLED_STANCE = {
    "false": {"comment": 0.10, "deny": 0.40, "query": 0.40, "support": 0.10},
    "true": {"comment": 0.10, "deny": 0.05, "query": 0.10, "support": 0.75},
    "unverified": {"comment": 0.25, "deny": 0.10, "query": 0.55, "support": 0.10},
    None: {"comment": 0.55, "deny": 0.10, "query": 0.15, "support": 0.20},
}
_BASE_STANCE = {"comment": 0.25, "deny": 0.25, "query": 0.25, "support": 0.25}


def _distribution(dist: dict[str, float]) -> tuple[list[str], np.ndarray]:
    """The names of ``dist`` in sorted order and their normalised probabilities."""
    names = sorted(dist)
    probs = np.array([dist[n] for n in names], dtype=float)
    probs /= probs.sum()
    return names, probs


def _draw(rng: np.random.Generator, names: list[str], probs: np.ndarray) -> str:
    return names[rng.choice(len(names), p=probs)]


def _make_text(rng: np.random.Generator, pools: list[list[str]], n_tokens: int) -> str:
    tokens = []
    for k in range(n_tokens):
        pool = pools[k % len(pools)]
        tokens.append(pool[rng.integers(len(pool))])
    return " ".join(tokens)


def generate_synthetic(spec: GeneratorSpec, seed: int) -> Corpus:
    """Generate a labeled corpus, deterministic for a fixed (spec, seed)."""
    rng = np.random.default_rng(seed)
    veracity_dist = _distribution(dict(zip(VERACITY_CLASSES, spec.veracity_priors)))
    threads: list[Thread] = []
    for e in range(spec.events):
        event = f"event{e:02d}"
        event_pool = [f"{event}tok{i}" for i in range(4)]
        for t in range(spec.threads_per_event):
            tid = f"{event}-t{t:03d}"
            is_rumour = rng.random() >= spec.nonrumour_fraction
            detection = "rumour" if is_rumour else "non-rumour"
            veracity = None
            if is_rumour:
                veracity = _draw(rng, *veracity_dist)
            src_pools = [_DETECTION_POOLS[detection], [_COMMON_POOL[0]], event_pool]
            if veracity is not None:
                src_pools.insert(1, _VERACITY_POOLS[veracity])
            source = Post(
                id=f"{tid}-p000",
                text=_make_text(rng, src_pools, spec.tokens_per_post),
            )
            # Stance distribution for replies: interpolate between the base
            # (veracity-independent) profile and the fully coupled one.
            coupled = _COUPLED_STANCE[veracity]
            stance_dist = _distribution({
                s: (1 - spec.coupling) * _BASE_STANCE[s] + spec.coupling * coupled[s]
                for s in STANCE_CLASSES
            })
            n_replies = int(rng.integers(spec.replies_range[0], spec.replies_range[1] + 1))
            max_depth = int(rng.integers(spec.depth_range[0], spec.depth_range[1] + 1))
            depth = {source.id: 0}
            candidates = [source.id]  # sorted ids of the posts a reply may answer
            replies: list[Post] = []
            for r in range(n_replies):
                parent_id = candidates[rng.integers(len(candidates))]
                stance = _draw(rng, *stance_dist)
                reply = Post(
                    id=f"{tid}-p{r + 1:03d}",
                    text=_make_text(rng, [_STANCE_POOLS[stance], _COMMON_POOL], spec.tokens_per_post),
                    parent_id=parent_id,
                    stance_label=stance,
                )
                replies.append(reply)
                depth[reply.id] = depth[parent_id] + 1
                if depth[reply.id] < max_depth:
                    bisect.insort(candidates, reply.id)
            threads.append(Thread(
                source=source,
                replies=tuple(replies),
                event=event,
                detection_label=detection,
                veracity_label=veracity,
            ))
    return Corpus(tuple(threads))
