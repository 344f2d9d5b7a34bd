"""Loaders of outside files either return or raise ValueError/OSError, never anything else.

The CLI maps ValueError and OSError to exit status 1 with a one-line message;
any other exception escaping a loader would reach the user as a traceback.
"""

import json
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from episcope.episodes import DatasetIndex, read_episodes, read_results_csv
from episcope.featureio import MAGIC, load_features

LOADERS = [read_results_csv, DatasetIndex.load, load_features]

DEEP_JSON = b"[" * 200_000
# One field past the csv module's default field_size_limit() of 131072 characters.
HUGE_FIELD = b"episode_id,correct,total\n" + b"1" * 140_000 + b",1,2\n"

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def load_or_reject(load, path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        load(path)
    except (ValueError, OSError):
        pass


def text_bytes(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


fields = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.sampled_from(["", " ", "1.5", "nan", "inf", "-0", "1e3", "0x10", '"4"', "\x00", "٣"]),
    st.text(max_size=4),
)
rows = st.lists(st.lists(fields, max_size=5).map(",".join), max_size=6)
line_ends = st.sampled_from(["\n", "\r\n", "\r"])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=12,
)
index_like = st.dictionaries(
    st.text(max_size=4), st.lists(st.text(max_size=4), max_size=4) | json_values, max_size=4
)


@pytest.mark.parametrize("load", LOADERS, ids=lambda f: f.__qualname__)
@FUZZ
@given(data=st.binary(max_size=400))
@example(data=DEEP_JSON)
@example(data=HUGE_FIELD)
@example(data=b"")
def test_random_bytes(input_path, load, data):
    load_or_reject(load, input_path, data)


@FUZZ
@given(header=st.booleans(), body=rows, end=line_ends)
def test_near_valid_results_csv(input_path, header, body, end):
    lines = (["episode_id,correct,total"] if header else []) + body
    load_or_reject(read_results_csv, input_path, text_bytes(end.join(lines) + end))


@FUZZ
@given(value=index_like | json_values, cut=st.integers(0, 8))
def test_near_valid_index(input_path, value, cut):
    """Valid-looking JSON, whole or with up to 8 trailing characters cut off."""
    text = json.dumps(value)
    load_or_reject(DatasetIndex.load, input_path, text_bytes(text[: len(text) - cut]))


@FUZZ
@given(body=rows, end=line_ends)
def test_near_valid_feature_csv(input_path, body, end):
    load_or_reject(load_features, input_path, text_bytes(end.join(body)))


@FUZZ
@given(n=st.integers(0, 5), d=st.integers(0, 5), extra=st.integers(-8, 8))
def test_near_valid_fsfe(input_path, n, d, extra):
    payload = b"\x00\x00\x80\x3f" * max(0, n * d + extra // 4) + b"\x01" * (extra % 4)
    load_or_reject(load_features, input_path, MAGIC + struct.pack("<II", n, d) + payload)


episode_like = st.fixed_dictionaries(
    {"episode_id": st.integers(0, 3), "seed": st.integers(0, 3), "ways": st.integers(0, 2),
     "shots": st.integers(0, 2)},
    optional={"per_class": st.lists(
        st.fixed_dictionaries(
            {},
            optional={"class_name": json_values, "support_ids": json_values,
                      "query_ids": json_values},
        ) | json_values,
        max_size=2,
    )},
)


@FUZZ
@given(lines=st.lists(episode_like | json_values, max_size=3), cut=st.integers(0, 8))
@example(lines=[], cut=0)
def test_near_valid_episodes(input_path, lines, cut):
    """Episode-shaped JSON Lines, whole or with up to 8 trailing characters cut off."""
    text = "\n".join(json.dumps(line) for line in lines)
    load_or_reject(read_episodes, input_path, text_bytes(text[: len(text) - cut]))
