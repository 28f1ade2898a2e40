import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import RUMOUREVAL_TEST, corpus_from_veracity_counts, pheme_shaped_corpus, random_tree_thread
import rumourmtl.corpus as corpus_mod
from rumourmtl.corpus import (
    DETECTION_CLASSES,
    STANCE_CLASSES,
    VERACITY_CLASSES,
    Corpus,
    CorpusError,
    GeneratorSpec,
    Post,
    Thread,
    decompose_branches,
    generate_synthetic,
    load_corpus,
    save_corpus,
    split_loeo,
)
from rumourmtl.mtl import HyperParams


def make_thread(parents, event="ev", detection="rumour", veracity="false", stances=None):
    """parents: dict reply-id -> parent-id; source id is 's'."""
    source = Post(id="s", text="source claim")
    replies = tuple(
        Post(id=rid, text=f"reply {rid}", parent_id=pid,
             stance_label=(stances or {}).get(rid))
        for rid, pid in parents.items())
    return Thread(source=source, replies=replies, event=event,
                  detection_label=detection, veracity_label=veracity)


class TestSchemaRoundTrip:
    def test_single_thread_file(self, tmp_path):
        obj = {"event": "ev", "detection": "rumour", "veracity": "false",
               "posts": [
                   {"id": "s", "text": "claim", "parent": None, "stance": None},
                   {"id": "a", "text": "no way", "parent": "s", "stance": "deny"},
                   {"id": "b", "text": "src?", "parent": "s", "stance": "query"},
               ]}
        path = tmp_path / "one.ndjson"
        path.write_text(json.dumps(obj) + "\n")
        corpus = load_corpus(path)
        assert len(corpus) == 1
        thread = corpus.threads[0]
        assert len(thread.posts) == 3
        assert thread.veracity_label == "false"
        assert thread.replies[0].stance_label == "deny"

    def test_round_trip_ndjson(self, tmp_path):
        corpus = generate_synthetic(GeneratorSpec(events=2, threads_per_event=4), seed=5)
        path = tmp_path / "corpus.ndjson"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    def test_round_trip_directory(self, tmp_path):
        corpus = generate_synthetic(GeneratorSpec(events=2, threads_per_event=3), seed=9)
        out = tmp_path / "corpusdir"
        save_corpus(corpus, out)
        loaded = load_corpus(out)
        assert sorted(t.id for t in loaded) == sorted(t.id for t in corpus)
        assert set(loaded.threads) == set(corpus.threads)

    def test_directory_needs_thread_ids_that_are_file_names(self, tmp_path):
        thread = Thread(source=Post(id="sub/../../up", text="x"), replies=(), event="ev")
        with pytest.raises(CorpusError, match="not a file name"):
            save_corpus(Corpus((thread,)), tmp_path / "dir")
        assert not (tmp_path / "up.json").exists() and not (tmp_path / "dir" / "sub").exists()

    def test_url_hashtag_flags_computed_at_ingest(self, tmp_path):
        obj = {"event": "ev", "detection": None, "veracity": None,
               "posts": [{"id": "s", "text": "look http://t.co/x #tag",
                          "parent": None, "stance": None}]}
        path = tmp_path / "c.ndjson"
        path.write_text(json.dumps(obj) + "\n")
        source = load_corpus(path).threads[0].source
        assert source.has_url and source.has_hashtag

    def test_url_hashtag_flags_of_a_built_post(self):
        post = Post("p", "see http://x #t")
        assert post.has_url and post.has_hashtag


class TestLoadErrors:
    def write(self, tmp_path, obj):
        path = tmp_path / "bad.ndjson"
        path.write_text(json.dumps(obj) + "\n")
        return path

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("{not json\n")
        with pytest.raises(CorpusError, match="parse failure"):
            load_corpus(path)

    def test_orphan_parent(self, tmp_path):
        obj = {"event": "ev", "detection": None, "veracity": None,
               "posts": [{"id": "s", "text": "x", "parent": None, "stance": None},
                         {"id": "a", "text": "y", "parent": "missing", "stance": None}]}
        with pytest.raises(CorpusError, match="orphan parent"):
            load_corpus(self.write(tmp_path, obj))

    def test_duplicate_post_id(self, tmp_path):
        obj = {"event": "ev", "detection": None, "veracity": None,
               "posts": [{"id": "s", "text": "x", "parent": None, "stance": None},
                         {"id": "a", "text": "y", "parent": "s", "stance": None},
                         {"id": "a", "text": "z", "parent": "s", "stance": None}]}
        with pytest.raises(CorpusError, match="duplicate post ids"):
            load_corpus(self.write(tmp_path, obj))

    def test_cycle(self, tmp_path):
        obj = {"event": "ev", "detection": None, "veracity": None,
               "posts": [{"id": "s", "text": "x", "parent": None, "stance": None},
                         {"id": "a", "text": "y", "parent": "b", "stance": None},
                         {"id": "b", "text": "z", "parent": "a", "stance": None}]}
        with pytest.raises(CorpusError, match="cyclic"):
            load_corpus(self.write(tmp_path, obj))

    def test_unknown_label(self, tmp_path):
        obj = {"event": "ev", "detection": "rumour", "veracity": "maybe",
               "posts": [{"id": "s", "text": "x", "parent": None, "stance": None}]}
        with pytest.raises(CorpusError, match="unknown veracity label"):
            load_corpus(self.write(tmp_path, obj))

    def test_veracity_requires_rumour(self):
        with pytest.raises(CorpusError, match="requires detection label 'rumour'"):
            make_thread({}, detection="non-rumour", veracity="true")


def _record(posts, event="ev"):
    return json.dumps({"event": event, "posts": posts})


#: A bad corpus record and the message that follows its location.
BAD_RECORDS = {
    "parse failure": ("{not json", "parse failure: Expecting property name enclosed in "
                                   "double quotes: line 1 column 2 (char 1)"),
    "missing field": (json.dumps({"posts": [{"id": "s", "text": "x"}]}),
                      "missing field 'event'"),
    "posts not a list": (_record({"id": "s"}), "'posts' must be a non-empty list"),
    "event not a string": (_record([{"id": "s", "text": "x"}], event=3),
                           "'event' must be a string, got 3"),
    "malformed post": (_record([{"text": "x"}]), "malformed post entry: 'id'"),
    "bad stance label": (_record([{"id": "s", "text": "x", "stance": "maybe"}]),
                         f"post s: unknown stance label 'maybe' (allowed: {STANCE_CLASSES})"),
    "two sources": (_record([{"id": "s", "text": "x"}, {"id": "t", "text": "y"}]),
                    "expected exactly one source post, got 2"),
    "orphan parent": (_record([{"id": "s", "text": "x"},
                               {"id": "a", "text": "y", "parent": "missing"}]),
                      "thread s: reply a has orphan parent 'missing'"),
}


@pytest.mark.parametrize("layout", ["ndjson", "directory"])
@pytest.mark.parametrize("case", BAD_RECORDS)
def test_bad_record_names_its_location_once(case, layout, tmp_path):
    """The second record is bad: the error names its line or its file once."""
    bad, message = BAD_RECORDS[case]
    good = _record([{"id": "g", "text": "x"}])
    if layout == "ndjson":
        path = tmp_path / "corpus.ndjson"
        path.write_text(f"{good}\n{bad}\n", encoding="utf-8")
        where = f"{path}:2"
    else:
        path = tmp_path / "corpus"
        path.mkdir()
        (path / "a.json").write_text(good, encoding="utf-8")
        (path / "b.json").write_text(bad, encoding="utf-8")
        where = str(path / "b.json")
    with pytest.raises(CorpusError) as exc_info:
        load_corpus(path)
    assert str(exc_info.value) == f"{where}: {message}"


#: Any JSON value, nested a little.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


@st.composite
def fuzzed_thread_objs(draw):
    """One to three valid thread objects, then up to two fields (of a thread
    or of a post) replaced by arbitrary JSON values."""
    objs = []
    for i in range(draw(st.integers(1, 3))):
        chain = (("s", None), ("a", "s"), ("b", "a"))[:draw(st.integers(1, 3))]
        veracity = draw(st.sampled_from([None, *VERACITY_CLASSES]))
        detection = "rumour" if veracity else draw(st.sampled_from([None, *DETECTION_CLASSES]))
        objs.append({
            "event": draw(st.sampled_from(["e", "f"])),
            "detection": detection,
            "veracity": veracity,
            "posts": [{"id": f"{i}{pid}", "text": draw(st.text(max_size=8)),
                       "parent": parent and f"{i}{parent}",
                       "stance": draw(st.sampled_from([None, *STANCE_CLASSES]))}
                      for pid, parent in chain],
        })
    fields = [(obj, key) for obj in objs for key in obj]
    fields += [(post, key) for obj in objs for post in obj["posts"] for key in post]
    for target, key in draw(st.lists(st.sampled_from(fields), max_size=2)):
        target[key] = draw(JSON_VALUES)
    return objs


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(fuzzed_thread_objs(), st.booleans())
    def test_loads_or_raises_corpus_error(self, objs, as_directory):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.ndjson"
            if as_directory:
                path.mkdir()
                for i, obj in enumerate(objs):
                    (path / f"{i}.json").write_text(json.dumps(obj))
            else:
                path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
            try:
                corpus = load_corpus(path)
            except CorpusError:
                return
        assert all(isinstance(e, str) for e in corpus.events)
        for thread in corpus.threads:
            assert all(isinstance(p.text, str) for p in thread.posts)
            assert all(isinstance(p.parent_id, str) for p in thread.replies)


class TestVeracityDistributionFixture:
    def test_competition_test_counts(self):
        corpus = corpus_from_veracity_counts(RUMOUREVAL_TEST)
        assert len(corpus) == 28
        counts = {label: sum(1 for t in corpus if t.veracity_label == label)
                  for label in ("true", "false", "unverified")}
        assert counts == {"true": 8, "false": 12, "unverified": 8}


class TestDecomposeBranches:
    def test_example_conversation_three_branches(self):
        # source with replies a (child a1), b (child c), d: leaves a1, c, d
        thread = make_thread({"a": "s", "a1": "a", "b": "s", "c": "b", "d": "s"})
        branches = decompose_branches(thread)
        assert len(branches) == 3
        for branch in branches:
            assert branch.post_ids[0] == "s"

    def test_source_only_thread(self):
        thread = make_thread({})
        branches = decompose_branches(thread)
        assert len(branches) == 1
        assert branches[0].post_ids == ("s",)

    def test_star_thread(self):
        k = 5
        thread = make_thread({f"r{i}": "s" for i in range(k)})
        branches = decompose_branches(thread)
        assert len(branches) == k
        assert all(len(b) == 2 for b in branches)

    def test_branch_order_by_leaf_id(self):
        thread = make_thread({"z": "s", "a": "s"})
        branches = decompose_branches(thread)
        assert [b.post_ids[-1] for b in branches] == ["a", "z"]

    def test_truncation_keeps_source(self):
        thread = make_thread({f"r{i}": ("s" if i == 0 else f"r{i-1}") for i in range(6)})
        branches = decompose_branches(thread, max_len=3)
        assert branches[0].post_ids == ("s", "r0", "r1")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2 ** 31))
    def test_branch_count_equals_leaf_count(self, n_posts, seed):
        thread = random_tree_thread(np.random.default_rng(seed), n_posts)
        branches = decompose_branches(thread)
        non_leaves = {r.parent_id for r in thread.replies}
        leaves = [p for p in thread.posts if p.id not in non_leaves]
        assert len(branches) == len(leaves)
        # union of branch posts is the whole thread
        assert {pid for b in branches for pid in b.post_ids} == {p.id for p in thread.posts}
        # adjacent pairs are parent->child edges
        parent = {r.id: r.parent_id for r in thread.replies}
        for b in branches:
            for up, down in zip(b.post_ids, b.post_ids[1:]):
                assert parent[down] == up


class TestSplitLoeo:
    def test_partition(self):
        corpus = generate_synthetic(GeneratorSpec(events=9, threads_per_event=3), seed=0)
        train, test = split_loeo(corpus, "event04")
        assert len(train.events) == 8
        assert test.events == ("event04",)
        assert len(train) + len(test) == len(corpus)
        assert set(train.threads).isdisjoint(test.threads)

    def test_unknown_event(self):
        corpus = generate_synthetic(GeneratorSpec(events=2, threads_per_event=2), seed=0)
        with pytest.raises(CorpusError, match="unknown event"):
            split_loeo(corpus, "nope")

    def test_single_event_flagged(self):
        corpus = generate_synthetic(GeneratorSpec(events=1, threads_per_event=2), seed=0)
        with pytest.raises(CorpusError, match="empty training set"):
            split_loeo(corpus, "event00")

    def test_benchmark_shaped_counts(self):
        corpus = pheme_shaped_corpus()
        train, test = split_loeo(corpus, "germanwings-crash")
        assert len(test) == 469
        assert len(train) == len(corpus) - 469


class TestGenerator:
    def test_determinism(self, tmp_path):
        spec = GeneratorSpec(events=2, threads_per_event=5)
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        save_corpus(generate_synthetic(spec, 7), a)
        save_corpus(generate_synthetic(spec, 7), b)
        assert a.read_bytes() == b.read_bytes()

    def test_all_labels_populated(self):
        corpus = generate_synthetic(GeneratorSpec(events=2, threads_per_event=10), seed=1)
        assert all(t.detection_label is not None for t in corpus)
        rumours = [t for t in corpus if t.detection_label == "rumour"]
        assert rumours and all(t.veracity_label is not None for t in rumours)
        assert any(p.stance_label is not None for t in corpus for p in t.replies)

    def test_full_coupling_biases_false_threads(self):
        spec = GeneratorSpec(events=1, threads_per_event=150, coupling=1.0,
                             nonrumour_fraction=0.0, veracity_priors=(1.0, 0.0, 0.0))
        corpus = generate_synthetic(spec, 11)
        false_threads = [t for t in corpus if t.veracity_label == "false"]
        assert len(false_threads) >= 100
        counts = {"deny": 0, "query": 0, "support": 0, "comment": 0}
        for t in false_threads:
            for r in t.replies:
                counts[r.stance_label] += 1
        total = sum(counts.values())
        assert (counts["deny"] + counts["query"]) / total > counts["support"] / total

    def test_zero_coupling_independence(self):
        from scipy.stats import chi2_contingency

        spec = GeneratorSpec(events=1, threads_per_event=500, coupling=0.0,
                             nonrumour_fraction=0.0, replies_range=(3, 6))
        corpus = generate_synthetic(spec, 23)
        table = {}
        for t in corpus:
            stances = [r.stance_label for r in t.replies]
            if not stances:
                continue
            majority = max(sorted(set(stances)), key=stances.count)
            table.setdefault(t.veracity_label, {}).setdefault(majority, 0)
            table[t.veracity_label][majority] += 1
        stance_names = sorted({s for row in table.values() for s in row})
        matrix = [[table[v].get(s, 0) for s in stance_names] for v in sorted(table)]
        _, p_value, _, _ = chi2_contingency(matrix)
        assert p_value > 0.01  # independence not rejected

    @pytest.mark.parametrize("spec", [
        GeneratorSpec(),
        GeneratorSpec(events=5, threads_per_event=40, replies_range=(5, 30), depth_range=(2, 10)),
        # Beyond 999 replies, ids no longer sort in the order they were made.
        GeneratorSpec(events=1, threads_per_event=2, replies_range=(1500, 2500),
                      depth_range=(2, 6), tokens_per_post=1),
    ], ids=["default", "paper", "2000-replies"])
    def test_matches_resorting_every_candidate_list(self, spec):
        assert generate_synthetic(spec, 3) == _generate_by_resorting(spec, 3)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            generate_synthetic(GeneratorSpec(coupling=1.5), seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(GeneratorSpec(depth_range=(3, 1)), seed=0)


def _generate_by_resorting(spec: GeneratorSpec, seed: int) -> Corpus:
    """``generate_synthetic`` as it was before it kept its candidate parents
    sorted: every reply sorts the ids of the posts above ``max_depth`` anew."""
    rng = np.random.default_rng(seed)
    threads = []
    for e in range(spec.events):
        event = f"event{e:02d}"
        event_pool = [f"{event}tok{i}" for i in range(4)]
        for t in range(spec.threads_per_event):
            tid = f"{event}-t{t:03d}"
            is_rumour = rng.random() >= spec.nonrumour_fraction
            detection = "rumour" if is_rumour else "non-rumour"
            veracity = None
            if is_rumour:
                veracity = corpus_mod._draw(rng, dict(zip(VERACITY_CLASSES, spec.veracity_priors)))
            src_pools = [corpus_mod._DETECTION_POOLS[detection], [corpus_mod._COMMON_POOL[0]],
                         event_pool]
            if veracity is not None:
                src_pools.insert(1, corpus_mod._VERACITY_POOLS[veracity])
            source = Post(id=f"{tid}-p000",
                          text=corpus_mod._make_text(rng, src_pools, spec.tokens_per_post))
            coupled = corpus_mod._COUPLED_STANCE[veracity]
            stance_dist = {s: (1 - spec.coupling) * corpus_mod._BASE_STANCE[s]
                           + spec.coupling * coupled[s] for s in STANCE_CLASSES}
            n_replies = int(rng.integers(spec.replies_range[0], spec.replies_range[1] + 1))
            max_depth = int(rng.integers(spec.depth_range[0], spec.depth_range[1] + 1))
            depth = {source.id: 0}
            replies = []
            for r in range(n_replies):
                candidates = sorted(pid for pid, d in depth.items() if d < max_depth)
                parent_id = candidates[rng.integers(len(candidates))]
                stance = corpus_mod._draw(rng, stance_dist)
                replies.append(Post(
                    id=f"{tid}-p{r + 1:03d}",
                    text=corpus_mod._make_text(
                        rng, [corpus_mod._STANCE_POOLS[stance], corpus_mod._COMMON_POOL],
                        spec.tokens_per_post),
                    parent_id=parent_id, stance_label=stance))
                depth[replies[-1].id] = depth[parent_id] + 1
            threads.append(Thread(source=source, replies=tuple(replies), event=event,
                                  detection_label=detection, veracity_label=veracity))
    return Corpus(tuple(threads))


@pytest.mark.parametrize("build", [
    lambda: Post("p", "x", stance_label="bogus"),
    lambda: HyperParams(dropout=1.5),
    lambda: GeneratorSpec(coupling=2.0),
], ids=["post stance", "hyperparams dropout", "generator coupling"])
def test_values_check_themselves_when_built(build):
    with pytest.raises(ValueError):
        build()
