"""Artifact I/O: JSON and dataset CSV against one-value-at-a-time oracles."""

import json
import math
import re
import tempfile
import warnings
from fractions import Fraction
from itertools import cycle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_columns, json_text

from elsurvey._decimal import format_rows
from elsurvey.cli import CHUNK, _rows_text, run_command, write_csv, write_dataset_csv, write_json
from elsurvey.data import _read_columns_bulk, load_dataset, make_dataset
from elsurvey.errors import ConfigError, DataError

EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            2.2250738585072014e-308, 0.1, 1.0 / 3.0, 1e22, 123456789.0]


def _random(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) * 10.0 ** rng.integers(-30, 30, size=n)


def _weights(n, seed):
    """Values like the per-unit weights of a fit: all on the exact formatter's path."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 2.0, size=n) / n


# ---------------------------------------------------------------------------
# write_json


JSON_VALUES = {
    "non-finite array": np.array([np.nan, np.inf, -np.inf, 1.5, np.nan]),
    "non-finite scalars": [np.nan, np.inf, -np.inf, np.float64(np.nan)],
    "extremes array": np.array(EXTREMES),
    "extremes list": list(EXTREMES),
    "empty 1-d": np.empty(0),
    "empty 2-d": np.empty((0, 3)),
    "empty rows": np.empty((3, 0)),
    "2-d floats": np.array([[1.0, np.nan], [-0.0, 5e-324]]),
    "float32": np.array([0.1, -2.5, np.inf], dtype=np.float32),
    "int array": np.arange(-3, 4),
    "int 2-d": np.arange(6, dtype=np.int32).reshape(2, 3),
    "bool array": np.array([True, False, True]),
    "numpy scalars": [np.bool_(True), np.bool_(False), np.float64(-0.0), np.float32(0.1),
                      np.int64(-7), np.float64(2.5)],
    "python scalars": [None, True, False, 0, -12, 2.5, "text with \"quotes\" and é"],
    "nested": {"a": [1, (2.5, [np.array([1.0, 2.0])]), {}], "b": (), "c": {"d": {"e": [[], {}]}},
               3: np.array([[True], [False]]), "f": ("x", None)},
    "empty dict": {},
    "empty tuple": (),
    "scalar": 0.30000000000000004,
    "random floats, seed 1": _random(8191, 1),
    "random floats, seed 2": _random(8192, 2),
    "random floats, seed 3": _random(8193, 3),
    "floats, a bool and non-finite values in a dict": {
        "w": np.concatenate([_random(16389, 4), [np.nan, -np.inf]]),
        "theta": np.array([0.5, -1.25]), "converged": np.bool_(True)},
    "weights": _weights(8193, 10),
    "weights with 1e300 and a NaN": np.concatenate([_weights(8192, 11), _weights(4096, 12), [1e300],
                                                    _weights(4095, 13), [np.nan], _weights(9, 14)]),
}


@pytest.mark.parametrize("name", list(JSON_VALUES))
def test_write_json_matches_oracle_bytes(tmp_path, name):
    obj = JSON_VALUES[name]
    path = tmp_path / "out.json"
    write_json(str(path), obj)
    assert path.read_bytes() == (json_text(obj) + "\n").encode()


def test_write_json_floats_reload_bitwise(tmp_path):
    values = np.concatenate([EXTREMES, _random(8195, 5), [np.nan, np.inf, -np.inf]])
    path = tmp_path / "out.json"
    write_json(str(path), {"w": values})
    loaded = json.loads(path.read_text())["w"]
    finite = np.isfinite(values)
    assert [v is None for v in loaded] == list(~finite)
    assert all(isinstance(v, float) for v in loaded if v is not None)  # -0.0 and 123456789.0 too
    back = np.array([v for v in loaded if v is not None], dtype=float)
    np.testing.assert_array_equal(back.view(np.uint64), values[finite].view(np.uint64))


@pytest.mark.parametrize("bad", [{"s": {1, 2}}, [1.0, complex(1, 2)], {"a": np.array(1.5)}, object()])
def test_write_json_rejects_unserializable_values(tmp_path, bad):
    with pytest.raises(ConfigError, match="cannot serialize"):
        write_json(str(tmp_path / "out.json"), bad)
    with pytest.raises(ConfigError, match="cannot serialize"):
        json_text(bad)


# ---------------------------------------------------------------------------
# write_dataset_csv


def _cells_17g(data):
    """The rows of ``data``, each cell as ``format(x, ".17g")``: a dataset CSV's cells one by one."""
    return ([format(x, ".17g") for x in row] for row in zip(*(col.tolist() for col in data.columns.values())))


def test_write_dataset_csv_matches_row_writer_bytes(tmp_path):
    n = 2 * CHUNK + 1
    rng = np.random.default_rng(7)
    special = np.array(EXTREMES + [np.nan, np.inf, -np.inf])
    columns = {"y": rng.integers(0, 2, size=n).astype(float),
               "weird, name": np.resize(special, n),
               "x": _random(n, 8)}
    data = make_dataset(columns, {"response": "y"})
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_dataset_csv(str(fast), data)
    names = list(data.columns)
    write_csv(str(slow), names, _cells_17g(data))
    assert fast.read_bytes() == slow.read_bytes()


def test_write_dataset_csv_exact_path_matches_row_writer_bytes(tmp_path):
    n = 3 * CHUNK + 2
    rng = np.random.default_rng(15)
    w = _weights(n, 16)
    w[CHUNK + 7] = np.inf  # the second chunk takes the per-value path
    columns = {"y": rng.integers(0, 2, size=n).astype(float),
               "x": rng.choice([-1.0, -0.0, 0.0, 1.0], size=n),
               "pi": rng.uniform(0.3, 0.7, size=n), "w": w}
    data = make_dataset(columns, {"response": "y"})
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_dataset_csv(str(fast), data)
    names = list(data.columns)
    write_csv(str(slow), names, _cells_17g(data))
    assert fast.read_bytes() == slow.read_bytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda k: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k),
    min_size=1, max_size=12)))
def test_dataset_csv_reloads_bitwise(rows):
    table = np.array(rows, dtype=float)
    data = make_dataset({f"c{j}": table[:, j] for j in range(table.shape[1])}, {})
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "data.csv")
        write_dataset_csv(path, data)
        back = load_dataset(path, {})
    assert list(back.columns) == list(data.columns)
    for name, col in data.columns.items():
        np.testing.assert_array_equal(back.columns[name].view(np.uint64), col.view(np.uint64))


# ---------------------------------------------------------------------------
# The exact .17g kernel against format(x, ".17g"), one value at a time


def _on_exact_path(x: float) -> bool:
    """The kernel's documented range, decided exactly: 0 and 1e-11 <= |x| < 2**51."""
    return x == 0 or (math.isfinite(x) and Fraction(1, 10**11) <= Fraction(abs(x)) < 2**51)


def _assert_formats_like_oracle(values):
    """The kernel formats ``values`` exactly as ``format`` does, or declines iff one is off its path."""
    values = np.asarray(values)
    floats = values.astype(float).tolist()
    rows = format_rows(values)
    assert (rows is not None) == all(map(_on_exact_path, floats))
    if rows is not None:
        assert _rows_text(rows, "\n").split("\n")[:-1] == [format(x, ".17g") for x in floats]


def _below(j: int) -> float:
    """The largest double below 10**j."""
    x = float(f"1e{j}")
    return math.nextafter(x, 0.0) if Fraction(x) >= Fraction(10) ** j else x


ON_PATH = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(math.nextafter(1e-11, 1.0), 2.0**51, exclude_max=True),
                    st.floats(-(2.0**51), -math.nextafter(1e-11, 1.0), exclude_min=True),
                    st.integers(-(2**51) + 1, 2**51 - 1).map(float))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), ON_PATH, ON_PATH), min_size=1, max_size=80),
       st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=6))
def test_kernel_matches_format_in_chunks_of_mixed_sizes(values, sizes):
    start = 0
    for size in cycle(sizes):
        if start >= len(values):
            break
        _assert_formats_like_oracle(values[start:start + size])
        start += size


@settings(max_examples=200, deadline=None)
@given(st.lists(ON_PATH, min_size=1, max_size=50))
def test_kernel_takes_every_chunk_on_its_path(values):
    assert format_rows(np.array(values)) is not None
    _assert_formats_like_oracle(values)


def _neighbours(x: float, count: int) -> list[float]:
    """``x`` and the ``count`` doubles on either side of it."""
    down, up = [x], [x]
    for _ in range(count):
        down.append(math.nextafter(down[-1], -math.inf))
        up.append(math.nextafter(up[-1], math.inf))
    return down[::-1] + up[1:]


EDGE = math.nextafter(1e-11, 1.0)  # the double 1e-11 itself lies below 10**-11
KERNEL_CHUNKS = {
    # floor(log10|x|) is one off for many of these, and the exact check must mend it
    "powers of ten and neighbours": [y for k in range(-12, 18) for y in _neighbours(float(f"1e{k}"), 4)],
    "ties to even at 1e15": [1e15 + 0.25 * j for j in range(-40, 41)],
    "ties to even at 2**50": [2.0**50 + 0.125 * j for j in range(-40, 41)],
    "trailing zeros and signed zeros": [0.0, -0.0, 1.0, -1.0, 0.5, 10.0, 100.0, 1e14, 120.5, -0.25, 1e-5, 1e-4],
    "notation switches": [1.5e-5, 1.5e-4, 0.001, 123456789012345.6, 1234567890123456.8],
    "inner edges": [EDGE, -EDGE, math.nextafter(2.0**51, 0.0), -math.nextafter(2.0**51, 0.0)],
    "outer edge, small": [EDGE, 1e-11],
    "outer edge, large": [1.0, 2.0**51],
    "subnormal": [0.5, 5e-324],
    "non-finite": [0.5, np.nan, np.inf],
    "float32": np.array([0.1, -2.5, 1e-5, 3.4e10, 0.0], dtype=np.float32),
    "float16": np.array([0.1, -2.5, 65504.0], dtype=np.float16),
    "integers": [0.0, -0.0, 1.0, -1.0, 9.0, 10.0, 99.0, 100.0, 1e15, 2.0**51 - 1, -(2.0**51 - 1)],
    "integers and 2**51": [0.0, -7.0, 10.0, 2.0**51],
    "integers and -2**51": [1.0, -(2.0**51), 0.0],
    "integer float32": np.array([0.0, -0.0, 1.0, -7.0, 2.0**24], dtype=np.float32),
    "integer float16": np.array([0.0, 1.0, -2.0, 2048.0, 65504.0], dtype=np.float16),
    "integers and one 0.5": [0.0, -1.0, 10.0, 0.5, 2.0**51 - 1],
}


@pytest.mark.parametrize("values, width", [
    ([0.0, 1.0, 1.0, 0.0], 2), ([-1.0, 0.0, 1.0], 2), ([-0.0], 2), ([9.0, -10.0], 3),
    ([0.0, 2.0**51 - 1], 17), (np.array([65504.0], dtype=np.float16), 6), ([1.0, 0.5], 23),
])
def test_integer_valued_chunks_take_rows_as_wide_as_their_largest_value(values, width):
    # An integer-valued chunk gets a sign byte and its largest value's digits; any other
    # chunk takes the 17-digit layouts, as wide as -0.00012345678901234567.
    assert format_rows(np.asarray(values)).shape[1] == width


@pytest.mark.parametrize("name", list(KERNEL_CHUNKS))
def test_kernel_matches_format_value_by_value(name):
    values = KERNEL_CHUNKS[name]
    _assert_formats_like_oracle(values)
    for x in values:
        _assert_formats_like_oracle([x])


def test_no_value_on_the_exact_path_rounds_up_to_a_power_of_ten():
    # Rounding to 17 digits carries into an 18th only within half a unit of the
    # 17th digit below a power of ten.  The kernel relies on no double in its
    # range being that close; outside the range some are, 1e-14 for one.
    def carries(j):
        return Fraction(format(_below(j), ".17g")) == Fraction(10) ** j

    assert not any(carries(j) for j in range(-10, 16))
    assert carries(-14) and format_rows(np.array([_below(-14)])) is None
    _assert_formats_like_oracle([_below(j) for j in range(-10, 16)])
# ---------------------------------------------------------------------------
# load_dataset: the bulk parser or its row-by-row fallback, against the oracle

# name -> (file text, whether the bulk parser takes it)
CSV_FILES = {
    "plain": ("y,a,pi\n1,0.1,0.5\n0,0.2,0.25\n", True),
    "no final newline": ("y,pi\n1,0.5\n0,0.25", True),
    "crlf": ("y,pi\r\n1,0.5\r\n0,0.25\r\n", True),
    "cr only": ("y,pi\r1,0.5\r0,0.25\r", False),
    "lone cr": ("y,pi\n1,0.5\r0,0.25\n", False),
    "lone cr and blank line": ("y,pi\n1,0.5\r0,0.25\n\n", False),
    "padded cells": (" y , pi \n  1 ,\t0.5 \n0,  0.25\n", False),
    "blank line in middle": ("y,pi\n1,0.5\n\n0,0.25\n", False),
    "blank line at end": ("y,pi\n1,0.5\n0,0.25\n\n", False),
    "crlf blank line": ("y,pi\r\n1,0.5\r\n\r\n0,0.25\r\n", False),
    "whitespace-only line": ("y,pi\n1,0.5\n   \n0,0.25\n", False),
    "whitespace-only line, one column": ("y\n1\n \t \n0\n", False),
    "non-finite spellings": ("y,a\n1,nan\n0,inf\n1,NaN\n0,-Infinity\n1,-inf\n", False),
    "underscore digits": ("y,a\n1,1_0\n", False),
    "hex": ("y,a\n1,0x1\n", False),
    "sign and bare point": ("y,a\n1,+1\n0,.25\n1,-.5\n", False),
    "exponents": ("y,a\n1,1e5\n0,-2.5E-3\n1,1e400\n0,1e-400\n1,-0\n", False),
    "empty cell": ("y,a\n1,\n", False),
    "non-numeric text": ("y,a\n1,0.5\noops,0.25\n", False),
    "extra field": ("y,a\n1,0.5,7\n", False),
    "short row": ("y,a\n1,0.5\n0\n", False),
    "header only": ("y,a\n", False),
    "header only, no newline": ("y,a", False),
    "empty file": ("", False),
    "blank header line": ("\n1\n", False),
    "duplicate header": ("y,y\n1,0.5\n", False),
    "duplicate after strip": ("y, y\n1,0.5\n", False),
    "quoted numbers": ('y,a\n"1","0.5"\n', False),
    "quoted header": ('"y","a"\n1,0.5\n', False),
    "trailing comma": ("y,a\n1,0.5,\n", False),
    "hash": ("y,a\n1,0.5#c\n", False),
    "single column": ("y\n1\n0\n1\n", True),
    "single row": ("y,a\n1,0.5\n", True),
    "more header names than fields": ("y,a,b\n1,0.5\n0,0.25\n", False),
}


def _load(path):
    """``load_dataset(path, {})`` as columns, or the DataError text; no warning may escape."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return load_dataset(path, {}).columns
        except DataError as exc:
            return str(exc)


def _oracle(path):
    try:
        return csv_columns(path)
    except DataError as exc:
        return str(exc)


def _assert_same(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == np.float64
        np.testing.assert_array_equal(got[name].view(np.uint64), want[name].view(np.uint64))


@pytest.mark.parametrize("name", list(CSV_FILES))
def test_load_dataset_matches_cell_by_cell_oracle(tmp_path, name):
    text, bulk = CSV_FILES[name]
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    _assert_same(_load(str(path)), _oracle(str(path)))
    assert (_read_columns_bulk(str(path)) is not None) == bulk


def test_load_dataset_strips_byte_order_mark(tmp_path):
    # The one intended difference from the oracle: the BOM is not part of 'y'.
    path = tmp_path / "excel.csv"
    for text in ("y,pi\r\n1,0.5\r\n0,0.25\r\n", "y,pi\n1,0.5\n,0.25\n", "y,pi\n1,0.5\n\n"):
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = _oracle(str(path))
        if isinstance(want, str):
            want = want.replace("'\\ufeffy'", "'y'")
        else:
            assert list(want) == ["\ufeffy", "pi"]
            want = {name.lstrip("\ufeff"): col for name, col in want.items()}
        _assert_same(_load(str(path)), want)
    path.write_bytes(b"\xef\xbb\xbfy,pi\r\n1,0.5\r\n0,0.25\r\n")
    data = load_dataset(str(path), {"response": "y", "pi": "pi"})
    np.testing.assert_array_equal(data.y, [1.0, 0.0])


def test_a_file_that_is_not_utf8_exits_1_naming_it(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,a\n1,0.5\n0,\xff25\n1,0.75\n")
    message = f"load_dataset: cannot read {str(path)!r}: 'utf-8' codec can't decode byte 0xff"
    with pytest.raises(DataError, match=re.escape(message)):
        load_dataset(str(path), {})
    config = tmp_path / "fit.json"
    config.write_text(json.dumps({"data": {"path": str(path), "schema": {"response": "y"}},
                                  "model": {"family": "bernoulli-logit", "terms": ["a"]}}))
    assert run_command(["fit", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err


def test_load_dataset_counts_crlf_split_across_scan_chunks(tmp_path):
    # Pad the header so that one CRLF falls across the first 1 MiB boundary.  Most cells
    # are outside the exact kernel's range, so the row parser reads the file.
    body = "".join(f"{k % 2},{v!r}\r\n" for k, v in enumerate(_random(70_000, 9).tolist()))
    boundary = (1 << 20) - 1
    header = "y,a"
    last_cr = body.rindex("\r", 0, boundary - len(header) - 2)
    text = header + " " * (boundary - len(header) - 2 - last_cr) + "\r\n" + body
    assert text[boundary:boundary + 2] == "\r\n"
    path = tmp_path / "big.csv"
    path.write_bytes(text.encode())
    _assert_same(_load(str(path)), _oracle(str(path)))
