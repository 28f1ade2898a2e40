import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumourmtl.text import (
    EmbeddingTable,
    embed_tweet,
    embed_tweets,
    hash_embeddings,
    load_embeddings,
    pad_and_mask,
    preprocess,
)


class TestPreprocess:
    def test_url_and_punctuation(self):
        assert preprocess("Is this TRUE?? http://t.co/x") == [
            "is", "this", "true", "http", "t", "co", "x"]

    def test_digits_removed(self):
        assert preprocess("BREAKING: 2 dead") == ["breaking", "dead"]

    def test_empty(self):
        assert preprocess("") == []

    def test_apostrophe_splits(self):
        assert preprocess("don't") == ["don", "t"]

    @settings(max_examples=300)
    @given(st.text(alphabet=st.one_of(st.sampled_from("\u0130\u00df\u212aksS\u017fzZaA09 _'.-\n"),
                                      st.characters()), max_size=80))
    def test_matches_character_loop(self, text):
        # The character loop that the one regular expression replaced; "İ"
        # lowercases to "i" plus a combining dot, the Kelvin sign to "k".
        chars = [c if "a" <= c <= "z" else " " for c in text.lower()]
        assert preprocess(text) == "".join(chars).split()

    def test_lowercase_forms_of_non_ascii_letters(self):
        assert preprocess("\u0130stanbul Stra\u00dfe \u212aelvin \u017fun") == [
            "i", "stanbul", "stra", "e", "kelvin", "un"]

    @settings(max_examples=100)
    @given(st.text(max_size=80))
    def test_idempotent_on_own_output(self, text):
        tokens = preprocess(text)
        assert preprocess(" ".join(tokens)) == tokens


class TestEmbedTweet:
    def table(self):
        return EmbeddingTable(3, {"hello": np.array([1.0, 2.0, 3.0]),
                                  "world": np.array([3.0, 0.0, -1.0])})

    def test_single_token(self):
        np.testing.assert_array_equal(embed_tweet(["hello"], self.table()),
                                      [1.0, 2.0, 3.0])

    def test_two_token_mean(self):
        np.testing.assert_allclose(embed_tweet(["hello", "world"], self.table()),
                                   [2.0, 1.0, 1.0])

    def test_oov_skipped(self):
        np.testing.assert_allclose(embed_tweet(["hello", "zzz"], self.table()),
                                   [1.0, 2.0, 3.0])

    def test_all_oov_zero_vector(self):
        np.testing.assert_array_equal(embed_tweet(["zzz", "qqq"], self.table()),
                                      np.zeros(3))

    @settings(max_examples=50)
    @given(st.lists(st.sampled_from(["hello", "world", "zzz"]), max_size=6))
    def test_mean_norm_bounded(self, tokens):
        table = self.table()
        out = embed_tweet(tokens, table)
        used = [np.linalg.norm(table.get(t)) for t in tokens if t in table]
        bound = max(used) if used else 0.0
        assert np.linalg.norm(out) <= bound + 1e-12


class TestEmbedTweetMatchesMean:
    @pytest.mark.parametrize("dim", [1, 32, 300])
    def test_bit_identical_to_np_mean(self, dim):
        rng = np.random.default_rng(dim)
        words = [f"w{i}" for i in range(50)]
        table = EmbeddingTable(dim, {w: rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
                                     for w in words})
        token_lists = []
        for n in range(1, 41):
            tokens = list(rng.choice(words, size=n)) + ["oov"] * int(rng.integers(3))
            rng.shuffle(tokens)
            token_lists.append(tokens)
        bulk = embed_tweets(token_lists, table)
        assert bulk.dtype == np.float32 and bulk.shape == (len(token_lists), dim)
        for tokens, row in zip(token_lists, bulk):
            got = embed_tweet(tokens, table)
            want = np.mean([table.get(t) for t in tokens if t in table], axis=0)
            assert got.dtype == want.dtype and got.shape == (dim,)
            assert got.tobytes() == want.tobytes()
            assert row.tobytes() == want.astype(np.float32).tobytes()


class TestEmbeddingFiles:
    def test_load(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("hello 1 2 3\nworld 3 0 -1\n")
        table = load_embeddings(path)
        assert table.dimension == 3 and len(table) == 2

    def test_header_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\nhello 1 2 3\nworld 3 0 -1\n")
        table = load_embeddings(path)
        assert table.dimension == 3 and len(table) == 2

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("hello 1 2 3\nworld 3 0\n")
        with pytest.raises(ValueError, match="expected 3 values"):
            load_embeddings(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("hello 1 x 3\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_embeddings(path)


class TestHashEmbeddings:
    def test_deterministic(self):
        a = hash_embeddings(16, seed=4)
        b = hash_embeddings(16, seed=4)
        np.testing.assert_array_equal(a.get("token"), b.get("token"))

    def test_seed_changes_vectors(self):
        a = hash_embeddings(16, seed=4)
        b = hash_embeddings(16, seed=5)
        assert not np.allclose(a.get("token"), b.get("token"))

    def test_unit_norm(self):
        table = hash_embeddings(32, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            token = "".join(chr(97 + c) for c in rng.integers(0, 26, size=8))
            assert abs(np.linalg.norm(table.get(token)) - 1.0) < 1e-9


class TestPadAndMask:
    def vectors(self, n, dim=4):
        rng = np.random.default_rng(1)
        return [rng.standard_normal(dim) for _ in range(n)]

    def test_padding(self):
        matrix, mask = pad_and_mask(self.vectors(2), 5)
        assert list(mask) == [True, True, False, False, False]
        assert matrix.shape == (5, 4)
        assert np.all(matrix[2:] == 0.0)

    def test_exact_fit(self):
        matrix, mask = pad_and_mask(self.vectors(5), 5)
        assert mask.all() and matrix.shape == (5, 4)

    def test_truncation_keeps_prefix(self):
        vecs = self.vectors(7)
        matrix, mask = pad_and_mask(vecs, 5)
        assert mask.all()
        for i in range(5):
            np.testing.assert_array_equal(matrix[i], vecs[i])

    def test_mask_sum_equals_true_length(self):
        for n in (1, 3, 5, 9):
            _, mask = pad_and_mask(self.vectors(n), 5)
            assert int(mask.sum()) == min(n, 5)

    def test_bad_max_len(self):
        with pytest.raises(ValueError):
            pad_and_mask(self.vectors(2), 0)
