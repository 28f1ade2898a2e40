"""Shared corpus fixtures: count-shaped datasets and random reply trees."""

from __future__ import annotations

import numpy as np

from rumourmtl.corpus import Corpus, Post, Thread

# (threads, rumours, non-rumours, true, false, unverified) per event of the
# nine-event benchmark; the five large events come first.
EVENT_COUNTS = {
    "charliehebdo": (2079, 458, 1621, 193, 116, 149),
    "sydneysiege": (1221, 522, 699, 382, 86, 54),
    "ferguson": (1143, 284, 859, 10, 8, 266),
    "ottawashooting": (890, 470, 420, 329, 72, 69),
    "germanwings-crash": (469, 238, 231, 94, 111, 33),
    "putinmissing": (238, 126, 112, 0, 9, 117),
    "prince-toronto": (233, 229, 4, 0, 222, 7),
    "gurlitt": (138, 61, 77, 59, 0, 2),
    "ebola-essien": (14, 14, 0, 0, 14, 0),
}

# Veracity counts (true, false, unverified) of the 28-thread competition
# test split and the 272-thread training split.
RUMOUREVAL_TEST = (8, 12, 8)
RUMOUREVAL_TRAIN = (127, 50, 95)


def bare_thread(thread_id: str, event: str, detection: str | None,
                veracity: str | None, text: str = "placeholder text") -> Thread:
    return Thread(
        source=Post(id=thread_id, text=text),
        replies=(),
        event=event,
        detection_label=detection,
        veracity_label=veracity,
    )


def corpus_from_veracity_counts(counts: tuple[int, int, int], event: str = "ev",
                                prefix: str = "t") -> Corpus:
    """Source-only rumour threads with the given (true, false, unverified) counts."""
    n_true, n_false, n_unverified = counts
    threads = []
    i = 0
    for label, n in (("true", n_true), ("false", n_false), ("unverified", n_unverified)):
        for _ in range(n):
            threads.append(bare_thread(f"{prefix}{i:05d}", event, "rumour", label))
            i += 1
    return Corpus(tuple(threads))


def pheme_shaped_corpus(events: dict[str, tuple] = EVENT_COUNTS) -> Corpus:
    """Source-only corpus replicating the per-event label counts."""
    threads = []
    for event, (n_threads, n_rum, n_non, n_true, n_false, n_unv) in events.items():
        assert n_rum + n_non == n_threads
        assert n_true + n_false + n_unv == n_rum
        i = 0
        for label, n in (("true", n_true), ("false", n_false), ("unverified", n_unv)):
            for _ in range(n):
                threads.append(bare_thread(f"{event}-{i:05d}", event, "rumour", label))
                i += 1
        for _ in range(n_non):
            threads.append(bare_thread(f"{event}-{i:05d}", event, "non-rumour", None))
            i += 1
    return Corpus(tuple(threads))


def random_tree_thread(rng: np.random.Generator, n_posts: int,
                       event: str = "ev", thread_id: str = "rt") -> Thread:
    """Thread whose replies attach uniformly at random to earlier posts."""
    source = Post(id=f"{thread_id}-p000", text="source text")
    ids = [source.id]
    replies = []
    for i in range(1, n_posts):
        parent = ids[rng.integers(len(ids))]
        reply = Post(id=f"{thread_id}-p{i:03d}", text=f"reply {i}",
                     parent_id=parent)
        replies.append(reply)
        ids.append(reply.id)
    return Thread(source=source, replies=tuple(replies), event=event,
                  detection_label="rumour", veracity_label="true")
