"""Episode sampling, serialization, and result aggregation."""

import hashlib
import io
import json
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special, stats

from episcope import episodes as episodes_mod
from episcope.episodes import (
    ClassSplit,
    DatasetIndex,
    EpisodeResult,
    EpisodeSpec,
    _fisher_yates_steps,
    _t975,
    _take_positions,
    aggregate,
    episode_from_json,
    episode_to_json,
    prior_from_results,
    read_episodes,
    read_results_csv,
    sample_episodes,
    write_episodes,
    write_results_csv,
)
from episcope.seeds import substream_seeds


@pytest.fixture(scope="module")
def benchmark_index():
    """20 classes x 600 examples, the usual test-split shape."""
    return DatasetIndex.from_mapping(
        {f"c{i:02d}": [f"c{i:02d}_e{j:03d}" for j in range(600)] for i in range(20)}
    )


def tiny_index(n_classes=6, size=12):
    return DatasetIndex.from_mapping(
        {f"k{i}": [f"k{i}x{j}" for j in range(size)] for i in range(n_classes)}
    )


class TestIndexValidation:
    def test_duplicate_class_names(self):
        with pytest.raises(ValueError, match="unique"):
            DatasetIndex((("a", ("1",)), ("a", ("2",))))

    def test_empty_class(self):
        with pytest.raises(ValueError, match="no examples"):
            DatasetIndex.from_mapping({"a": []})

    def test_duplicate_ids_within_class(self):
        with pytest.raises(ValueError, match="duplicate"):
            DatasetIndex.from_mapping({"a": ["1", "1"]})

    @pytest.mark.parametrize("ids", ["wxyz", [1, 2], {"x": "y"}])
    def test_class_value_must_be_string_array(self, ids):
        """A string's characters, or non-string IDs, must not become example IDs."""
        with pytest.raises(ValueError, match="class 'b'"):
            DatasetIndex.from_mapping({"a": ["1"], "b": ids})

    @pytest.mark.parametrize(
        ("classes", "message"),
        [
            ((("a", ("x", 2)),), "class 'a' must map to an array of example ID strings"),
            ((("a", ["x", "y"]),), "class 'a' must map to an array of example ID strings"),
            (((1, ("x",)),), "class name 1 is not a string"),
            (((["a"], ("x",)),), re.escape("class name ['a'] is not a string")),
        ],
        ids=["int_id", "list_of_ids", "int_name", "list_name"],
    )
    def test_direct_construction_checks_types(self, classes, message):
        """The sampler copies names and IDs into episodes unchecked, so the index checks them."""
        with pytest.raises(ValueError, match=message):
            DatasetIndex(classes)

    @pytest.mark.parametrize(
        ("mapping", "message"),
        [
            ({"a": ["x"], "b\ud800": ["y"]}, r"class 'b\\ud800': its name holds a lone surrogate"),
            ({"a": ["x", "y\udfff"]}, r"class 'a': example ID 'y\\udfff' holds a lone surrogate"),
            ({"a": ["\ud83d", "\ude00"]}, r"class 'a': example ID '\\ud83d' holds"),
        ],
        ids=["name", "id", "split_pair"],
    )
    def test_lone_surrogate_names_class(self, mapping, message):
        """Text UTF-8 cannot encode is refused before any episode could hold it."""
        with pytest.raises(ValueError, match=message):
            DatasetIndex.from_mapping(mapping)

    def test_load_reads_hand_written_index(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"k0": ["k0x0", "k0x1"], "k1": ["k1x0", "k1x1", "k1x2"]}')
        assert DatasetIndex.load(path) == DatasetIndex(
            (("k0", ("k0x0", "k0x1")), ("k1", ("k1x0", "k1x1", "k1x2")))
        )

    def test_load_rejects_a_repeated_class(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"a": ["1"], "b": ["2"], "a": ["3"]}')
        message = r"index\.json: not a valid JSON file: repeated key 'a'$"
        with pytest.raises(ValueError, match=message):
            DatasetIndex.load(path)


class TestSampling:
    def test_all_queries_uses_full_remainder(self, benchmark_index):
        """5-way 5-shot with the full remainder gives 595 queries per class."""
        episodes = sample_episodes(benchmark_index, 5, 5, None, 10, master_seed=42)
        assert len(episodes) == 10
        for episode in episodes:
            assert len(episode.per_class) == 5
            names = [split.class_name for split in episode.per_class]
            assert len(set(names)) == 5
            for split in episode.per_class:
                assert len(split.support_ids) == 5
                assert len(set(split.support_ids)) == 5
                assert len(split.query_ids) == 595
                assert not set(split.support_ids) & set(split.query_ids)
                class_ids = dict(benchmark_index.classes)[split.class_name]
                assert set(split.support_ids) | set(split.query_ids) == set(class_ids)

    def test_all_queries_remainder_keeps_index_order(self, benchmark_index):
        episode = sample_episodes(benchmark_index, 5, 5, None, 1, master_seed=0)[0]
        for split in episode.per_class:
            class_ids = dict(benchmark_index.classes)[split.class_name]
            expected = [i for i in class_ids if i not in set(split.support_ids)]
            assert list(split.query_ids) == expected

    def test_exhaustive_split_leaves_one_query(self):
        """ways = all classes, shots = size-1: exactly one query remains."""
        index = tiny_index(n_classes=4, size=7)
        episode = sample_episodes(index, 4, 6, None, 1, master_seed=9)[0]
        for split in episode.per_class:
            assert len(split.query_ids) == 1

    def test_integer_queries_sampled_from_remainder(self):
        index = tiny_index(n_classes=6, size=12)
        episodes = sample_episodes(index, 3, 2, 4, 5, master_seed=17)
        for episode in episodes:
            for split in episode.per_class:
                assert len(split.query_ids) == 4
                assert len(set(split.query_ids)) == 4
                assert not set(split.support_ids) & set(split.query_ids)

    def test_deterministic_byte_identical(self, benchmark_index):
        first = sample_episodes(benchmark_index, 5, 5, None, 5, master_seed=7)
        second = sample_episodes(benchmark_index, 5, 5, None, 5, master_seed=7)
        blob1 = "\n".join(episode_to_json(e) for e in first)
        blob2 = "\n".join(episode_to_json(e) for e in second)
        assert blob1 == blob2

    def test_master_seed_moves_class_sets(self):
        """Over 100 seeds, some episode's class set must change."""
        index = tiny_index(n_classes=10, size=4)
        base = sample_episodes(index, 3, 2, 1, 5, master_seed=0)
        base_classes = [tuple(s.class_name for s in e.per_class) for e in base]
        for seed in range(1, 101):
            other = sample_episodes(index, 3, 2, 1, 5, master_seed=seed)
            other_classes = [tuple(s.class_name for s in e.per_class) for e in other]
            assert other_classes != base_classes, f"seed {seed} replayed seed 0"

    def test_insufficient_classes(self):
        with pytest.raises(ValueError, match="5-way"):
            sample_episodes(tiny_index(n_classes=4), 5, 1, 1, 1, master_seed=0)

    def test_insufficient_examples_names_class(self):
        index = DatasetIndex.from_mapping(
            {"big": [f"b{i}" for i in range(30)], "small": ["s0", "s1", "s2"]}
        )
        with pytest.raises(ValueError, match="'small'"):
            sample_episodes(index, 2, 3, 2, 1, master_seed=0)
        with pytest.raises(ValueError, match="'small'"):
            sample_episodes(index, 2, 3, None, 1, master_seed=0)

    def test_parameter_validation(self, benchmark_index):
        with pytest.raises(ValueError, match="ways"):
            sample_episodes(benchmark_index, 0, 5, None, 1, master_seed=0)
        with pytest.raises(ValueError, match="queries_per_class"):
            sample_episodes(benchmark_index, 5, 5, 0, 1, master_seed=0)
        with pytest.raises(ValueError, match="master_seed"):
            sample_episodes(benchmark_index, 5, 5, None, 1, master_seed=-1)


class TestPinnedStream:
    """SHA-256 of the JSONL for fixed seeds: any change to the episode stream fails here.

    A deliberate stream change must update these digests and be recorded as a
    stream-version change.
    """

    @pytest.mark.parametrize(
        ("ways", "shots", "queries", "count", "seed", "digest"),
        [
            (5, 1, None, 40, 2024,
             "d5acda24f2416fadf21528ef3f97509063be50cecc2bc16489feb06a0ebc5e86"),
            (5, 1, 15, 300, 7,
             "3849cf13d1ac29a77afb4cec531160ceb44022379607c6c9565f57a87ee1500e"),
            (20, 5, 40, 30, 99,
             "56b81f455ec7ac0eae30acc676df1cb75139b6711c5b1f4d92b33d252ea1f4a9"),
        ],
        ids=["all_queries", "q15", "every_class_q40_5shot"],
    )
    def test_jsonl_digest(self, benchmark_index, ways, shots, queries, count, seed, digest):
        buf = io.StringIO()
        write_episodes(buf, sample_episodes(benchmark_index, ways, shots, queries, count, seed))
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest

    def test_queries_take_whole_remainder(self):
        """Queries = examples - shots: every remainder position is drawn."""
        buf = io.StringIO()
        write_episodes(buf, sample_episodes(tiny_index(6, 12), 6, 5, 7, 50, 3))
        assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == (
            "17ae4dee8d4c62c6874977951c7d395b1d8b7dbaf964289d8a81f0c36f0f6513"
        )


def reference_episode(index, ways, shots, queries, seed):
    """Episode splits drawn by swapping list entries, with the sampler's uniform block.

    The uniforms come from a fresh Philox keyed by the episode's seed: the ways
    class uniforms, then per chosen class its shots support uniforms and its
    queries query uniforms, one shuffle over the class's positions; step i
    over n items swaps slot i with i + floor(u * (n - i)).
    """
    block = np.random.Generator(np.random.Philox(key=seed)).random(
        ways + ways * (shots + (queries or 0))
    )
    uniforms = iter(block.tolist())

    def shuffled_prefix(items, k):
        items = list(items)
        for i in range(k):
            j = i + math.floor(next(uniforms) * (len(items) - i))
            items[i], items[j] = items[j], items[i]
        return items[:k]

    splits = []
    for pos in shuffled_prefix(range(len(index.classes)), ways):
        name, ids = index.classes[pos]
        taken = shuffled_prefix(range(len(ids)), shots + (queries or 0))
        support = taken[:shots]
        rest = [p for p in range(len(ids)) if p not in support]
        query_pos = rest if queries is None else taken[shots:]
        splits.append(
            ClassSplit(name, tuple(ids[p] for p in support), tuple(ids[p] for p in query_pos))
        )
    return tuple(splits)


def reference_take_positions(steps):
    """Positions one partial Fisher-Yates shuffle with swap targets ``steps`` puts first.

    Step i swaps slot i with slot ``steps[i]`` (>= i); the swaps go to a dict
    of displaced slots, one Python step at a time.
    """
    displaced = {}
    taken = []
    for i, j in enumerate(steps):
        taken.append(displaced.get(j, j))
        displaced[j] = displaced.get(i, i)
    return taken


@st.composite
def swap_targets(draw):
    """A (rows, k) array of swap targets j_i in [i, n - 1], with n drawn per row.

    Small n makes targets repeat and land below k; large n puts them above k.
    Many rows make equal targets meet across row boundaries.
    """
    k, rows = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    sizes = st.integers(k, 2 * k + 2) | st.integers(k, 2**40)
    n = draw(hnp.arrays(np.int64, rows, elements=sizes))
    raw = draw(hnp.arrays(np.int64, (rows, k), elements=st.integers(0, 2**40)))
    i = np.arange(k)
    return i + raw % (n[:, None] - i)


class TestTakePositions:
    @given(swap_targets())
    @settings(max_examples=300, deadline=None)
    def test_batch_matches_per_row_loop(self, steps):
        taken = _take_positions(steps)
        assert taken.shape == steps.shape
        for row, expected in zip(taken.tolist(), steps.tolist()):
            assert row == reference_take_positions(expected)

    @pytest.mark.parametrize(
        "steps",
        [
            [[5, 5, 5, 5], [5, 5, 5, 5]],
            [[2, 6, 6, 3], [2, 6, 6, 3], [2, 6, 6, 3]],
            [[5, 5, 5, 5], [5, 6, 5, 5]],
            [[4, 7, 4, 9], [9, 9, 9, 9]],
            [[1, 3, 2, 3], [4, 7, 4, 9]],
            [[0], [0], [5], [5], [3], [0], [3]],
        ],
        ids=["identical_high_rows", "identical_mixed_rows", "one_high_target_swapped_apart",
             "row_max_is_next_row_min", "low_row_then_high_row", "k1"],
    )
    def test_equal_targets_across_row_boundaries(self, steps):
        """Equal targets of adjacent rows are two rows' slots, not one.

        Identical rows would not notice a shared slot, since they write it alike;
        the next two cases write one row's slot between the other's reads.
        """
        taken = _take_positions(np.array(steps, dtype=np.int64))
        assert taken.tolist() == [reference_take_positions(row) for row in steps]


class TestStream:
    """The episode stream is one uniform block per episode, mapped to Fisher-Yates steps."""

    @pytest.mark.parametrize(
        ("ways", "shots", "queries"), [(5, 1, 15), (5, 5, None), (20, 5, 40), (3, 2, 598)]
    )
    def test_matches_list_reference(self, benchmark_index, ways, shots, queries):
        episodes = sample_episodes(benchmark_index, ways, shots, queries, 40, master_seed=31)
        seeds = substream_seeds(31, 40).tolist()
        for episode in episodes:
            assert episode.seed == seeds[episode.episode_id]
            assert episode.per_class == reference_episode(
                benchmark_index, ways, shots, queries, episode.seed
            )

    def test_uneven_class_sizes_match_reference(self):
        index = DatasetIndex.from_mapping(
            {f"k{i}": [f"k{i}x{j}" for j in range(4 + 5 * i)] for i in range(7)}
        )
        for queries in (None, 1, 2):
            for episode in sample_episodes(index, 4, 2, queries, 60, master_seed=5):
                assert episode.per_class == reference_episode(index, 4, 2, queries, episode.seed)

    def test_short_run_is_a_prefix_of_a_long_one(self, benchmark_index):
        short = sample_episodes(benchmark_index, 5, 1, 15, 10, master_seed=8)
        long = sample_episodes(benchmark_index, 5, 1, 15, 1000, master_seed=8)
        assert [episode_to_json(e) for e in short] == [episode_to_json(e) for e in long[:10]]

    @pytest.mark.parametrize(("ways", "shots", "queries"), [(5, 1, 15), (5, 5, 594)])
    def test_chunk_boundaries_match_reference(self, benchmark_index, ways, shots, queries):
        """Episodes either side of each chunk boundary, and a short run crossing one."""
        per_chunk = episodes_mod._CHUNK_UNIFORMS // (ways + ways * (shots + queries))
        assert per_chunk >= 2
        long = sample_episodes(benchmark_index, ways, shots, queries, 2 * per_chunk + 1, 23)
        for e in (per_chunk - 1, per_chunk, 2 * per_chunk - 1, 2 * per_chunk):
            assert long[e].episode_id == e
            assert long[e].per_class == reference_episode(
                benchmark_index, ways, shots, queries, long[e].seed
            )
        short = sample_episodes(benchmark_index, ways, shots, queries, per_chunk + 2, 23)
        assert [episode_to_json(e) for e in short] == [
            episode_to_json(e) for e in long[:per_chunk + 2]
        ]

    @pytest.mark.parametrize("queries", [None, 3])
    @pytest.mark.parametrize("chunk_uniforms", [1, 50])
    def test_chunk_size_leaves_stream_unchanged(self, monkeypatch, queries, chunk_uniforms):
        """One episode per chunk, or a few, gives the bytes of one chunk for all."""
        index = tiny_index(n_classes=7, size=9)
        whole = sample_episodes(index, 4, 2, queries, 40, master_seed=6)
        monkeypatch.setattr(episodes_mod, "_CHUNK_UNIFORMS", chunk_uniforms)
        assert sample_episodes(index, 4, 2, queries, 40, master_seed=6) == whole

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 2**5, 2**5 + 1, 2**16, 2**16 + 1, 2**30, 2**30 + 1, 2**31 - 1]
    )
    def test_step_map_edges(self, n):
        """The largest uniform below 1 reaches slot n - 1 and no further; u = 0 stays at i."""
        steps = min(n, 5)
        top = _fisher_yates_steps(np.full(steps, np.nextafter(1.0, 0.0)), n)
        assert top.tolist() == [n - 1] * steps
        assert _fisher_yates_steps(np.zeros(steps), n).tolist() == list(range(steps))


def assert_uniform(values, cells, label):
    """Every one of ``cells`` outcomes occurs, and chi-square accepts equal frequencies."""
    counts = Counter(values)
    assert len(counts) == cells, label
    assert stats.chisquare(list(counts.values())).pvalue > 1e-4, (label, counts)


class TestUniformity:
    """Chi-square oracle for the uniform-to-step map, at fixed seeds."""

    def test_four_way_draws_reach_every_class_order(self):
        episodes = sample_episodes(tiny_index(n_classes=4, size=2), 4, 1, 1, 2400, 12)
        orders = [tuple(split.class_name for split in e.per_class) for e in episodes]
        assert_uniform(orders, 24, "class order")

    def test_classes_support_and_queries_are_uniform(self):
        n_classes, size, ways, shots, queries = 6, 8, 3, 2, 3
        episodes = sample_episodes(
            tiny_index(n_classes, size), ways, shots, queries, 20_000, master_seed=2024
        )
        for k in range(ways):
            assert_uniform([e.per_class[k].class_name for e in episodes], n_classes, k)
        first_two = [(e.per_class[0].class_name, e.per_class[1].class_name) for e in episodes]
        assert_uniform(first_two, n_classes * (n_classes - 1), "first two classes")
        splits = [split for e in episodes for split in e.per_class]
        for s in range(shots):
            # IDs are class-specific, so strip the class to pool positions over classes.
            positions = [x.support_ids[s].split("x")[1] for x in splits]
            assert_uniform(positions, size, f"support slot {s}")
        for r in range(queries):
            positions = [x.query_ids[r].split("x")[1] for x in splits]
            assert_uniform(positions, size, f"query slot {r}")


class TestSerialization:
    def test_round_trip_field_exact(self, benchmark_index):
        episodes = sample_episodes(benchmark_index, 5, 5, None, 3, master_seed=13)
        for episode in episodes:
            assert episode_from_json(episode_to_json(episode)) == episode

    @given(st.integers(0, 2**64 - 1), st.integers(1, 5), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_over_random_shapes(self, seed, ways, shots):
        index = tiny_index(n_classes=6, size=10)
        episodes = sample_episodes(index, ways, shots, 2, 2, master_seed=seed)
        for episode in episodes:
            clone = episode_from_json(episode_to_json(episode))
            assert clone == episode
            assert isinstance(clone, EpisodeSpec)

    def test_jsonl_file_round_trip(self, tmp_path, benchmark_index):
        episodes = sample_episodes(benchmark_index, 5, 5, 15, 4, master_seed=3)
        path = tmp_path / "episodes.jsonl"
        write_episodes(path, episodes)
        assert read_episodes(path) == episodes

    def test_path_and_file_object_get_the_same_bytes(self, tmp_path, benchmark_index):
        episodes = sample_episodes(benchmark_index, 5, 1, None, 3, master_seed=11)
        path = tmp_path / "episodes.jsonl"
        write_episodes(path, episodes)
        buf = io.StringIO()
        write_episodes(buf, iter(episodes))
        assert path.read_bytes() == buf.getvalue().encode("utf-8")

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ('{"episode_id": 0}', "missing key 'seed'"),
            ('{"episode_id": 0, "seed": 1, "ways": 1, "shots": 1}', "missing key 'per_class'"),
        ],
    )
    def test_read_missing_key_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=rf"bad\.jsonl: line 1: {message}"):
            read_episodes(path)

    @pytest.mark.parametrize(
        ("line", "message"),
        [
            ("[1]", "expected a JSON object, got an array"),
            ('{"episode_id": 0, "seed": 1, "ways": "1", "shots": 1, "per_class": []}',
             "'ways' must be an integer, got a string"),
            ('{"episode_id": true, "seed": 1, "ways": 1, "shots": 1, "per_class": []}',
             "'episode_id' must be an integer, got a boolean"),
            ('{"episode_id": 0, "seed": 1, "ways": 1, "shots": 1, "per_class": [[]]}',
             "expected a JSON object, got an array"),
            ('{"episode_id": 0, "seed": 1, "ways": 1, "shots": 1, "per_class": '
             '[{"class_name": "a", "support_ids": ["x"], "query_ids": [1]}]}',
             "'query_ids' must be an array of example ID strings"),
        ],
    )
    def test_read_wrong_type_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(episode_to_json(_one_episode()) + "\n\n" + line + "\n")
        with pytest.raises(ValueError, match=rf"bad\.jsonl: line 3: {message}"):
            read_episodes(path)

    def test_read_invalid_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(episode_to_json(_one_episode()) + '\n{"episode_id": 1,\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl: line 2: not valid JSON"):
            read_episodes(path)

    def test_read_non_utf8_names_file(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(episode_to_json(_one_episode()).encode("utf-8") + b"\n\xff\n")
        with pytest.raises(ValueError, match=r"latin1\.jsonl: not a UTF-8 text file: .*0xff"):
            read_episodes(path)

    def test_read_deep_nesting_names_file_and_line(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 200_000 + "\n")
        with pytest.raises(ValueError, match=r"deep\.jsonl: line 1: not valid JSON"):
            read_episodes(path)

    def test_read_invalid_episode_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(episode_to_json(_one_episode()).replace('"ways":1', '"ways":2') + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl: line 1: episode 0: expected 2 classes"):
            read_episodes(path)

    @pytest.mark.parametrize(
        ("fields", "per_class", "message"),
        [
            ('"episode_id":3,"seed":1,"ways":0,"shots":1', "",
             "episode 3: ways must be >= 1, got 0"),
            ('"episode_id":3,"seed":1,"ways":1,"shots":0',
             '{"class_name":"a","support_ids":[],"query_ids":["x"]}',
             "episode 3: shots must be >= 1, got 0"),
            ('"episode_id":-4,"seed":1,"ways":1,"shots":1',
             '{"class_name":"a","support_ids":["s"],"query_ids":["x"]}',
             "episode -4: episode_id must be >= 0, got -4"),
            ('"episode_id":3,"seed":-1,"ways":1,"shots":1',
             '{"class_name":"a","support_ids":["s"],"query_ids":["x"]}',
             "episode 3: seed must be an unsigned 64-bit integer, got -1"),
            (f'"episode_id":3,"seed":{2**64},"ways":1,"shots":1',
             '{"class_name":"a","support_ids":["s"],"query_ids":["x"]}',
             f"episode 3: seed must be an unsigned 64-bit integer, got {2**64}"),
            ('"episode_id":3,"seed":1,"ways":2,"shots":1',
             '{"class_name":"a","support_ids":["s"],"query_ids":["x"]},'
             '{"class_name":"a","support_ids":["t"],"query_ids":["y"]}',
             r"episode 3: class names repeated \['a'\]"),
            ('"episode_id":3,"seed":1,"ways":1,"shots":2',
             '{"class_name":"c","support_ids":["x","x"],"query_ids":["y"]}',
             r"episode 3, class 'c': repeated support IDs \['x'\]"),
            ('"episode_id":3,"seed":1,"ways":1,"shots":2',
             '{"class_name":"c","support_ids":["x","z"],"query_ids":["y","y","y"]}',
             r"episode 3, class 'c': repeated query IDs \['y'\]"),
            ('"episode_id":3,"seed":1,"ways":1,"shots":2',
             '{"class_name":"c","support_ids":["x"],"query_ids":["y"]}',
             "episode 3, class 'c': expected 2 support IDs, got 1"),
            ('"episode_id":3,"seed":1,"seed":2,"ways":1,"shots":1',
             '{"class_name":"a","support_ids":["s"],"query_ids":["x"]}',
             "not valid JSON: repeated key 'seed'"),
        ],
        ids=["ways_0", "shots_0", "negative_id", "seed_negative", "seed_2_64", "repeated_class",
             "repeated_support", "repeated_query", "short_support", "repeated_key"],
    )
    def test_read_out_of_range_episode_names_file_and_line(
        self, tmp_path, fields, per_class, message
    ):
        path = tmp_path / "bad.jsonl"
        line = "{" + fields + ',"per_class":[' + per_class + "]}"
        path.write_text(episode_to_json(_one_episode()) + "\n" + line + "\n")
        with pytest.raises(ValueError, match=rf"bad\.jsonl: line 2: {message}$"):
            read_episodes(path)

    def test_results_csv_round_trip(self, tmp_path):
        results = [EpisodeResult(i, 90 + i, 100) for i in range(5)]
        path = tmp_path / "results.csv"
        write_results_csv(path, results)
        assert path.read_text().splitlines()[0] == "episode_id,correct,total"
        assert read_results_csv(path) == results

    def test_results_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,ok,n\n0,1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_results_csv(path)

    @pytest.mark.parametrize(
        "row",
        # ``int`` would read the last four as 10, 3, 4 and 5: an underscore,
        # Arabic-Indic and fullwidth digits, and a trailing no-break space.
        ["1,4", "1,4,5,6", "1,x,5", "1,4.0,5",
         "0,1_0,75", "2,\u0663,75", "1,\uff14,5", "1,4,5\u00a0"],
    )
    def test_results_csv_rejects_malformed_row(self, tmp_path, row):
        path = tmp_path / "short.csv"
        path.write_text(f"episode_id,correct,total\n0,3,5\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"short\.csv: line 3: expected 3 integer fields"):
            read_results_csv(path)

    def test_results_csv_non_utf8_names_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"episode_id,correct,total\n0,3,5\n1,4,5\xff\n")
        with pytest.raises(ValueError, match=r"latin1\.csv: not a UTF-8 text file: .*0xff"):
            read_results_csv(path)

    def test_results_csv_names_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_text("\ufeffepisode_id,correct,total\n0,3,5\n1,4,5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bom\.csv: Unexpected UTF-8 BOM"):
            read_results_csv(path)

    def test_results_csv_allows_surrounding_spaces(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("episode_id,correct,total\n 0 , 3,5 \n1,\t4\t,5\n")
        assert read_results_csv(path) == [EpisodeResult(0, 3, 5), EpisodeResult(1, 4, 5)]

    def test_results_csv_out_of_range_row_names_line(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("episode_id,correct,total\n0,3,5\n1,7,5\n")
        with pytest.raises(
            ValueError, match=r"range\.csv: line 3: episode 1: correct=7 outside \[0, 5\]"
        ):
            read_results_csv(path)


def reference_json(episode):
    """What ``episode_to_json`` must return: the fields through ``json.dumps``."""
    return json.dumps(episode, default=vars, separators=(",", ":"), ensure_ascii=False)


class TestEncoder:
    """``episode_to_json`` is the ``json.dumps`` reference, and its lines read back exactly."""

    @pytest.mark.parametrize(
        "ids", [(), ("",), ("", "a"), ('"',), ("\\",), ("\x1f",), ("\x7f", "\u2028", "é")]
    )
    def test_id_tuple_edges(self, ids):
        episode = EpisodeSpec(0, 1, 1, 1, (ClassSplit("k", ("s",), ids),))
        assert episode_from_json(episode_to_json(episode)) == episode

    def test_lone_surrogate_fails_the_write_either_way(self, tmp_path):
        episode = EpisodeSpec(0, 1, 1, 1, (ClassSplit("k", ("s\ud800",), ("q",)),))
        # The line exists in memory; only its UTF-8 write fails.
        assert episode_from_json(episode_to_json(episode)) == episode
        with open(tmp_path / "ref.jsonl", "w", encoding="utf-8") as fh:
            with pytest.raises(UnicodeEncodeError) as reference:
                fh.write(reference_json(episode) + "\n")
        with pytest.raises(UnicodeEncodeError) as written:
            write_episodes(tmp_path / "episodes.jsonl", [episode])
        assert str(written.value) == str(reference.value)


# Names and IDs a batch's writer must encode as json.dumps does, "" included.
BATCH_CHARS = '"\\\x00\n\x1f\x7f\u2028é日😀a'


@st.composite
def sampled_batches(draw):
    """A batch over an index of uneven classes whose names and IDs may need escaping.

    The query count is None, an integer, or the smallest class's whole remainder;
    ``_CHUNK_UNIFORMS`` is 1 (one episode per chunk), 50 (a few) or the default.
    """
    text = st.text(st.sampled_from(BATCH_CHARS), max_size=3)
    n_classes = draw(st.integers(1, 5))
    ways, shots = draw(st.integers(1, n_classes)), draw(st.integers(1, 3))
    names = draw(st.lists(text, min_size=n_classes, max_size=n_classes, unique=True))
    index = DatasetIndex.from_mapping({
        name: draw(st.lists(text, min_size=shots + 1, max_size=shots + 6, unique=True))
        for name in names
    })
    whole = min(len(ids) for _, ids in index.classes) - shots
    queries = draw(st.sampled_from([None, whole]) | st.integers(1, whole))
    chunk_uniforms = draw(st.sampled_from([1, 50, episodes_mod._CHUNK_UNIFORMS]))
    count, seed = draw(st.integers(1, 40)), draw(st.integers(0, 2**64 - 1))
    with mock.patch.object(episodes_mod, "_CHUNK_UNIFORMS", chunk_uniforms):
        return sample_episodes(index, ways, shots, queries, count, seed)


def fail_if_built(*_args, **_kwargs):
    raise AssertionError("an episode object was built")


class TestEpisodeBatch:
    """``sample_episodes`` returns positions; the writer formats them without episode objects."""

    @given(sampled_batches())
    @settings(max_examples=300, deadline=None)
    def test_write_matches_per_episode_encoder(self, batch):
        buf = io.StringIO()
        write_episodes(buf, batch)
        assert buf.getvalue() == "".join(episode_to_json(e) + "\n" for e in batch)

    @given(sampled_batches())
    @settings(max_examples=300, deadline=None)
    def test_episodes_match_the_list_reference(self, batch):
        """The writer's positions-to-IDs mapping, against list swaps from the same uniforms."""
        episodes = list(batch)
        assert [e.episode_id for e in episodes] == list(range(len(batch)))
        for episode in episodes:
            assert episode.per_class == reference_episode(
                batch._index, episode.ways, episode.shots, batch._queries, episode.seed
            )

    @pytest.mark.parametrize(
        ("queries", "chunk_uniforms"), [(None, 1), (3, 1), (None, 50), (3, 50)]
    )
    def test_write_builds_no_episode_object(self, monkeypatch, queries, chunk_uniforms):
        index = tiny_index(n_classes=7, size=9)
        monkeypatch.setattr(episodes_mod, "_CHUNK_UNIFORMS", chunk_uniforms)
        batch = sample_episodes(index, 4, 2, queries, 30, master_seed=6)
        expected = "".join(episode_to_json(e) + "\n" for e in batch)
        monkeypatch.setattr(EpisodeSpec, "__init__", fail_if_built)
        monkeypatch.setattr(ClassSplit, "__init__", fail_if_built)
        with pytest.raises(AssertionError, match="built"):
            batch[0]
        buf = io.StringIO()
        write_episodes(buf, batch)
        assert buf.getvalue() == expected

    @pytest.mark.parametrize("queries", [None, 3])
    def test_each_chosen_class_is_encoded_once(self, monkeypatch, queries):
        """Indexing every episode and then writing quotes each class's name and IDs once."""
        index = tiny_index(n_classes=7, size=9)
        batch = sample_episodes(index, 4, 2, queries, 30, master_seed=6)
        calls = Counter()
        encode = episodes_mod.encode_basestring

        def counted(text):
            calls[text] += 1
            return encode(text)

        monkeypatch.setattr(episodes_mod, "encode_basestring", counted)
        episodes = [batch[i] for i in range(len(batch))]
        write_episodes(io.StringIO(), batch)
        chosen = {split.class_name for e in episodes for split in e.per_class}
        assert calls == Counter(
            [*chosen, *(i for name, ids in index.classes if name in chosen for i in ids)]
        )

    @pytest.mark.parametrize("chunk_uniforms", [1, 50, 1 << 17])
    def test_behaves_as_the_episode_list(self, monkeypatch, chunk_uniforms):
        index = tiny_index(n_classes=7, size=9)
        monkeypatch.setattr(episodes_mod, "_CHUNK_UNIFORMS", chunk_uniforms)
        batch = sample_episodes(index, 4, 2, 3, 25, master_seed=6)
        episodes = list(batch)
        assert len(batch) == len(episodes) == 25
        assert all(isinstance(e, EpisodeSpec) for e in episodes)
        assert [e.episode_id for e in episodes] == list(range(25))
        assert [batch[i] for i in range(25)] == episodes
        assert batch[-1] == episodes[-1] and batch[-25] == episodes[0]
        for i in (25, -26):
            with pytest.raises(IndexError):
                batch[i]
        for cut in (slice(None), slice(3, 11), slice(None, None, -4), slice(30, 40)):
            assert batch[cut] == episodes[cut]
        assert batch == episodes and episodes == batch
        assert batch == sample_episodes(index, 4, 2, 3, 25, master_seed=6)
        assert batch != episodes[:-1] and episodes[:-1] != batch
        assert batch != sample_episodes(index, 4, 2, 3, 25, master_seed=7)
        assert batch != tuple(episodes)


def id_strings(episodes):
    return [i for e in episodes for split in e.per_class for i in split.support_ids + split.query_ids]


def plain_decode(line):
    """An episode line read by json.loads alone, each ID a string of its own."""
    obj = json.loads(line)
    return EpisodeSpec(
        **{key: obj[key] for key in ("episode_id", "seed", "ways", "shots")},
        per_class=tuple(
            ClassSplit(split["class_name"], tuple(split["support_ids"]), tuple(split["query_ids"]))
            for split in obj["per_class"]
        ),
    )


def held_bytes(build):
    """Bytes still allocated, by tracemalloc's count, once ``build()`` has returned."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result
    return held


class TestSharedIds:
    """The episodes one decoder call returns hold each distinct example ID once."""

    @pytest.fixture(scope="class")
    def all_queries(self, benchmark_index, tmp_path_factory):
        batch = sample_episodes(benchmark_index, 5, 1, None, 600, master_seed=28)
        path = tmp_path_factory.mktemp("shared") / "all.jsonl"
        write_episodes(path, batch)
        return batch, path

    def test_all_queries_read_is_small(self, all_queries):
        """600 x 5 x 600 IDs held once each: a string per occurrence held ~120 MB."""
        batch, path = all_queries
        assert held_bytes(lambda: read_episodes(path)) < 30e6
        assert held_bytes(lambda: list(batch)) < 30e6

    @pytest.mark.parametrize("decode", ["read", "list", "slice"])
    def test_one_string_per_distinct_id(self, tmp_path, benchmark_index, decode):
        batch = sample_episodes(benchmark_index, 5, 1, 15, 300, master_seed=4)
        path = tmp_path / "q15.jsonl"
        write_episodes(path, batch)
        episodes = {
            "read": lambda: read_episodes(path),
            "list": lambda: list(batch),
            "slice": lambda: batch[3:40],
        }[decode]()
        ids = id_strings(episodes)
        assert len(ids) > len(set(ids))
        assert len({id(i) for i in ids}) == len(set(ids))

    def test_calls_share_nothing(self, benchmark_index):
        batch = sample_episodes(benchmark_index, 5, 1, None, 2, master_seed=4)
        first, again = id_strings(list(batch)), id_strings(list(batch))
        assert first == again
        assert not {id(i) for i in first} & {id(i) for i in again}

    @given(sampled_batches())
    @settings(max_examples=100, deadline=None)
    def test_equals_a_plain_decode(self, batch):
        """Escaped names and IDs, fixed or all queries: json.loads per line agrees."""
        buf = io.StringIO()
        write_episodes(buf, batch)
        lines = buf.getvalue().split("\n")[:-1]
        reference = [plain_decode(line) for line in lines]
        assert [episode_from_json(line) for line in lines] == reference
        assert list(batch) == reference

    @pytest.mark.parametrize("queries", [15, None])
    def test_read_equals_per_line_decode(self, tmp_path, benchmark_index, queries):
        batch = sample_episodes(benchmark_index, 5, 1, queries, 40, master_seed=9)
        path = tmp_path / "episodes.jsonl"
        write_episodes(path, batch)
        lines = path.read_text(encoding="utf-8").splitlines()
        reference = [plain_decode(line) for line in lines]
        assert read_episodes(path) == [episode_from_json(line) for line in lines] == reference

    def test_other_key_orders_are_shared_too(self, tmp_path):
        """A valid line with its keys in another order, or extra keys, is shared too."""
        episode = EpisodeSpec(0, 1, 1, 1, (ClassSplit("k", ("a",), ("b", "c")),))
        reordered = json.dumps({
            "extra": [1], "per_class": [{"query_ids": ["b", "c"], "support_ids": ["a"],
                                         "class_name": "k"}],
            "shots": 1, "ways": 1, "seed": 1, "episode_id": 0,
        })
        path = tmp_path / "reordered.jsonl"
        path.write_text(episode_to_json(episode) + "\n" + reordered + "\n")
        episodes = read_episodes(path)
        assert episodes == [episode, episode]
        assert len({id(i) for i in id_strings(episodes)}) == 3

    @pytest.mark.parametrize(
        ("support", "query", "message"),
        [
            ('["s"]', '["q", 1]', "'query_ids' must be an array of example ID strings"),
            ('[true]', '["q"]', "'support_ids' must be an array of example ID strings"),
            ('["s"]', '[null]', "'query_ids' must be an array of example ID strings"),
            ('[["s"]]', '["q"]', "'support_ids' must be an array of example ID strings"),
            ('["s"]', '[{"a": "q"}]', "'query_ids' must be an array of example ID strings"),
            ('["s"]', '[{"a": ["q"]}]', "'query_ids' must be an array of example ID strings"),
            ('["s"]', '[{"a": 1, "a": 2}]', "not valid JSON: repeated key 'a'"),
            ('["s"]', '["q", 1.5, "r"]', "'query_ids' must be an array of example ID strings"),
        ],
        ids=["int", "true", "null", "list", "object", "object_of_list", "repeated_key",
             "float"],
    )
    def test_non_string_ids_raise_the_class_split_error(self, tmp_path, support, query, message):
        """A non-string ID, hashable or not, raises the usual ValueError, never a TypeError."""
        line = ('{"episode_id":2,"seed":1,"ways":2,"shots":1,"per_class":['
                '{"class_name":"a","support_ids":["t"],"query_ids":["u"]},'
                f'{{"class_name":"b","support_ids":{support},"query_ids":{query}}}]}}')
        with pytest.raises(ValueError) as excinfo:
            episode_from_json(line)
        assert str(excinfo.value) == message
        path = tmp_path / "bad.jsonl"
        path.write_text(episode_to_json(_one_episode()) + "\n" + line + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: {re.escape(message)}$"):
            read_episodes(path)

    def test_first_fault_in_line_order_is_named(self):
        """A bad ID in the first class is named before a missing key in the second."""
        line = ('{"episode_id":2,"seed":1,"ways":2,"shots":1,"per_class":['
                '{"class_name":"a","support_ids":[7],"query_ids":["u"]},'
                '{"class_name":"b","support_ids":["s"]}]}')
        with pytest.raises(ValueError, match="^'support_ids' must be an array of example ID"):
            episode_from_json(line)


class TestEpisodeSpec:
    def test_support_query_overlap_rejected(self):
        split = ClassSplit("k0", ("x3", "x1"), ("x2", "x1", "x3", "x4"))
        with pytest.raises(ValueError) as excinfo:
            EpisodeSpec(episode_id=7, seed=1, ways=1, shots=2, per_class=(split,))
        assert str(excinfo.value) == "episode 7, class 'k0': support/query overlap ['x1', 'x3']"

    @pytest.mark.parametrize(
        ("fields", "message"),
        [
            ({"episode_id": np.int64(3)}, "episode_id must be an integer, got np.int64(3)"),
            ({"seed": np.uint64(5)}, "seed must be an integer, got np.uint64(5)"),
            ({"episode_id": 1.5}, "episode 1.5: episode_id must be an integer, got 1.5"),
            ({"episode_id": "0"}, "episode '0': episode_id must be an integer, got '0'"),
            ({"shots": 1.0}, "shots must be an integer, got 1.0"),
        ],
        ids=["numpy_id", "numpy_seed", "float_id", "str_id", "float_shots"],
    )
    def test_integer_fields_must_be_python_ints(self, fields, message):
        """Each of these was accepted, then failed to write or to read back."""
        split = ClassSplit("k0", ("x1",), ("x2",))
        with pytest.raises(ValueError, match=re.escape(message)):
            EpisodeSpec(**{"episode_id": 7, "seed": 1, "ways": 1, "shots": 1,
                           "per_class": (split,), **fields})

    @pytest.mark.parametrize(
        ("split", "message"),
        [
            (("k0", ("x1",), ("x2", 3)), "'query_ids' must be an array of example ID strings"),
            (("k0", "x1", ("x2",)), "'support_ids' must be an array of example ID strings"),
            ((5, ("x1",), ("x2",)), "class_name must be a string, got 5"),
            (("k0", ["x1"], ("x2",)), "'support_ids' must be a tuple, got a list"),
            (("k0", ("x1",), ["x2"]), "'query_ids' must be a tuple, got a list"),
        ],
        ids=["int_id", "str_as_ids", "int_class_name", "list_support", "list_query"],
    )
    def test_class_split_fields_must_be_strings(self, split, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ClassSplit(*split)

    @pytest.mark.parametrize(
        "per_class", [[ClassSplit("k", ("a",), ("b",))], ("x",)], ids=["list", "str_items"]
    )
    def test_per_class_must_be_a_tuple_of_splits(self, per_class):
        """A list left the spec unhashable and unequal to its read-back copy."""
        message = "^episode 0: per_class must be a tuple of ClassSplit$"
        with pytest.raises(ValueError, match=message):
            EpisodeSpec(0, 1, 1, 1, per_class)


class TestEpisodeResult:
    def test_bounds(self):
        with pytest.raises(ValueError, match="total"):
            EpisodeResult(0, 0, 0)
        with pytest.raises(ValueError, match="outside"):
            EpisodeResult(0, 5, 4)
        assert EpisodeResult(0, 3, 4).accuracy == 0.75

    @pytest.mark.parametrize("key", ["episode_id", "correct", "total"])
    @pytest.mark.parametrize(
        "value", [1.5, 2.0, True, "2", np.int64(2)],
        ids=["float", "whole_float", "bool", "str", "int64"],
    )
    def test_fields_must_be_ints(self, key, value):
        """A float or bool was averaged silently and written as a row the reader refuses."""
        fields = {"episode_id": 0, "correct": 1, "total": 2, key: value}
        message = f"episode {fields['episode_id']!r}: {key} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EpisodeResult(**fields)

    @given(st.lists(
        st.tuples(
            st.integers(-2**70, 2**70),
            st.integers(1, 2**70).flatmap(
                lambda total: st.tuples(st.integers(0, total), st.just(total))
            ),
        ),
        max_size=5,
        unique_by=lambda row: row[0],
    ))
    @settings(max_examples=50, deadline=None)
    def test_every_result_that_constructs_reads_back(self, tmp_path_factory, rows):
        results = [EpisodeResult(i, correct, total) for i, (correct, total) in rows]
        path = tmp_path_factory.mktemp("results") / "results.csv"
        write_results_csv(path, results)
        assert read_results_csv(path) == results

    @pytest.mark.parametrize(
        "rows, name",
        [([(0, 1, 2), (1, 1, 10**5000)], "episode 1"), ([(10**5000, 1, 2)], "result 0")],
        ids=["long_total", "long_id"],
    )
    def test_unwritable_result_leaves_the_file_as_it_was(self, tmp_path, rows, name):
        """A count past Python's 4,300-digit str() limit fails before the file is opened."""
        path = tmp_path / "results.csv"
        write_results_csv(path, [EpisodeResult(7, 3, 4)])
        before = path.read_bytes()
        with pytest.raises(ValueError, match=f"^{name}: too long to write as decimal text: "):
            write_results_csv(path, [EpisodeResult(*row) for row in rows])
        assert path.read_bytes() == before


class TestAggregate:
    def test_two_episode_hand_computation(self):
        """[0.92, 0.94]: std 0.0141, t(0.975, 1)=12.706, half-width 0.127."""
        report = aggregate([EpisodeResult(0, 92, 100), EpisodeResult(1, 94, 100)])
        assert report.mean_acc == pytest.approx(0.93, rel=1e-12)
        assert report.std_acc == pytest.approx(0.014142135623730951, rel=1e-9)
        assert report.ci95_halfwidth == pytest.approx(0.12706204736432095, rel=1e-9)

    def test_identical_accuracies_zero_width(self):
        report = aggregate([EpisodeResult(i, 90, 100) for i in range(3)])
        assert report.mean_acc == pytest.approx(0.9)
        assert report.std_acc == 0.0
        assert report.ci95_halfwidth == 0.0

    def test_120_episodes_with_published_moments(self):
        """Sample moments (0.9313, 0.028) over 120 episodes: ~0.51-point width."""
        results = _synthetic_results(mean=0.9313, std=0.028, count=120)
        report = aggregate(results)
        assert report.mean_acc == pytest.approx(0.9313, abs=1e-5)
        assert report.std_acc == pytest.approx(0.028, abs=1e-5)
        assert report.ci95_halfwidth == pytest.approx(0.005061211719348005, abs=2e-6)
        assert report.formatted() == "93.13 ± 0.51"

    def test_needs_two_results(self):
        with pytest.raises(ValueError, match="at least 2"):
            aggregate([EpisodeResult(0, 9, 10)])

    def test_distinct_ids_required(self):
        with pytest.raises(ValueError, match=r"distinct; repeated: \[0\]$"):
            aggregate([EpisodeResult(0, 9, 10), EpisodeResult(0, 8, 10)])
        results = [EpisodeResult(i, 5, 10) for i in (7, 3, 7, 1, 3, 3)]
        with pytest.raises(ValueError, match=r"repeated: \[3, 7\]$"):
            aggregate(results)

    def test_to_dict_keys_order_and_values(self):
        report = aggregate([EpisodeResult(0, 92, 100), EpisodeResult(1, 94, 100)])
        assert list(asdict(report).items()) == [
            ("episodes", 2),
            ("mean_acc", report.mean_acc),
            ("std_acc", report.std_acc),
            ("ci95_halfwidth", report.ci95_halfwidth),
        ]
        assert asdict(report)["mean_acc"] == pytest.approx(0.93, rel=1e-12)

    def test_halfwidth_uses_t_quantile(self):
        results = [EpisodeResult(i, 80 + i, 100) for i in range(8)]
        report = aggregate(results)
        expected = stats.t.ppf(0.975, 7) * report.std_acc / math.sqrt(8)
        assert report.ci95_halfwidth == pytest.approx(expected, rel=1e-12)


class TestT975:
    DFS = [*range(1, 5000), *np.logspace(4, 12, 60).astype(np.int64).tolist(), 2**31, 2**53]

    def test_matches_stdtrit(self):
        """Series + Newton below df 1000, Cornish-Fisher from there on."""
        got = np.array([_t975(df) for df in self.DFS])
        expected = special.stdtrit(np.array(self.DFS, dtype=float), 0.975)
        gap = np.abs(got - expected) / expected
        assert gap.max() <= 1e-13, self.DFS[int(gap.argmax())]

    def test_decreases_to_the_normal_quantile(self):
        values = [_t975(df) for df in range(1, 3000)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > special.ndtri(0.975)


class TestPriorFromResults:
    def test_matches_aggregate_moments(self):
        prior = prior_from_results([EpisodeResult(0, 92, 100), EpisodeResult(1, 94, 100)])
        assert prior.mean == pytest.approx(0.93, rel=1e-12)
        assert prior.std == pytest.approx(0.014142135623730951, rel=1e-9)

    def test_identical_results_zero_std(self):
        prior = prior_from_results([EpisodeResult(i, 45, 50) for i in range(4)])
        assert prior.std == 0.0


def _one_episode():
    return sample_episodes(tiny_index(), 1, 1, 1, 1, master_seed=0)[0]


def _synthetic_results(mean, std, count, total=10**6, seed=1234):
    """Episode results whose sample moments match (mean, std) to ~1/total.

    The standardized pattern is uniform, so values stay within sqrt(3)
    standard deviations and the accuracies stay inside [0, 1].
    """
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=count)
    u = (u - u.mean()) / u.std(ddof=1)
    corrects = np.rint(total * (mean + std * u)).astype(int)
    return [EpisodeResult(i, int(c), total) for i, c in enumerate(corrects)]
