"""Feature-file formats: CSV and FSFE binary, with auto-detection."""

import io
import struct
import warnings

import numpy as np
import pytest

from episcope.featureio import MAGIC, load_features, save_features_csv, save_features_fsfe


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(7, 5))
    path = tmp_path / "feats.csv"
    save_features_csv(path, x)
    np.testing.assert_allclose(load_features(path), x, rtol=0, atol=0)


EDGE_ROW = np.array([[-0.0, 1e-320, 5e-324, np.finfo(np.float64).max, 1 / 3]])


def test_csv_edge_values_pinned(tmp_path):
    """-0.0, subnormals, the largest double and 1/3 keep their exact text."""
    path = tmp_path / "edge.csv"
    save_features_csv(path, EDGE_ROW)
    assert path.read_text() == (
        "-0,9.9998886718268301e-321,4.9406564584124654e-324,"
        "1.7976931348623157e+308,0.33333333333333331\n"
    )
    np.testing.assert_array_equal(load_features(path), EDGE_ROW)


def test_csv_to_open_text_file(tmp_path):
    path = tmp_path / "edge.csv"
    save_features_csv(path, EDGE_ROW)
    buffer = io.StringIO()
    save_features_csv(buffer, EDGE_ROW)
    assert buffer.getvalue() == path.read_text()


def test_single_row_csv_is_2d(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("1.5,2.5,3.5\n")
    loaded = load_features(path)
    assert loaded.shape == (1, 3)


def test_fsfe_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(9, 4)).astype(np.float32).astype(np.float64)
    path = tmp_path / "feats.fsfe"
    save_features_fsfe(path, x)
    np.testing.assert_array_equal(load_features(path), x)


def test_fsfe_layout(tmp_path):
    path = tmp_path / "feats.fsfe"
    save_features_fsfe(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    n, d = struct.unpack("<II", raw[4:12])
    assert (n, d) == (2, 2)
    values = np.frombuffer(raw[12:], dtype="<f4")
    np.testing.assert_array_equal(values, [1.0, 2.0, 3.0, 4.0])


def test_auto_detection(tmp_path):
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    csv_path = tmp_path / "a.data"
    bin_path = tmp_path / "b.data"
    save_features_csv(csv_path, x)
    save_features_fsfe(bin_path, x)
    np.testing.assert_allclose(load_features(csv_path), x)
    np.testing.assert_allclose(load_features(bin_path), x)


def test_truncated_fsfe_rejected(tmp_path):
    path = tmp_path / "trunc.fsfe"
    path.write_bytes(MAGIC + struct.pack("<II", 3, 2) + b"\x00" * 8)
    with pytest.raises(ValueError, match="payload"):
        load_features(path)


def test_zero_dims_rejected(tmp_path):
    path = tmp_path / "zero.fsfe"
    path.write_bytes(MAGIC + struct.pack("<II", 0, 4))
    with pytest.raises(ValueError, match="positive"):
        load_features(path)


def test_garbage_rejected(tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_text("not,a,number\n")
    with pytest.raises(ValueError, match="CSV"):
        load_features(path)


@pytest.mark.parametrize("text", ["", "\n", "\n\n\n"])
def test_empty_csv_rejected_without_warning(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no feature rows"):
            load_features(path)


def test_non_finite_rejected(tmp_path):
    with pytest.raises(ValueError, match="finite"):
        save_features_csv(tmp_path / "nan.csv", np.array([[np.nan, 1.0]]))


@pytest.mark.parametrize("shape", [(2, 2, 2), (0, 3)])
@pytest.mark.parametrize("save", [save_features_csv, save_features_fsfe])
def test_save_rejects_what_is_not_a_matrix(tmp_path, save, shape):
    path = tmp_path / "feats"
    with pytest.raises(ValueError, match="non-empty 2-D array"):
        save(path, np.zeros(shape))
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_fsfe_names_path_and_row(tmp_path, value):
    x = np.ones((4, 3))
    x[2, 1] = value
    x[3, 0] = np.nan
    path = tmp_path / "bad.fsfe"
    path.write_bytes(MAGIC + struct.pack("<II", 4, 3) + x.astype("<f4").tobytes())
    with pytest.raises(ValueError, match=r"bad\.fsfe: row 3 contains non-finite values"):
        load_features(path)


@pytest.mark.parametrize("field", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_csv_names_path_and_row(tmp_path, field):
    path = tmp_path / "bad.csv"
    path.write_text(f"1,2\n3,4\n5,{field}\n")
    with pytest.raises(ValueError, match=r"bad\.csv: row 3 contains non-finite values"):
        load_features(path)
