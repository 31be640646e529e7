"""The exact CSV kernel: number tokens against ``float``, and files against the row-by-row oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_columns

from elsurvey import data
from elsurvey._decimal import parse_tokens
from elsurvey.cli import write_dataset_csv
from elsurvey.data import _read_columns_bulk, load_dataset, make_dataset
from elsurvey.simulate import CovariateSpec, DesignSpec, draw_sample, gen_population


def _parse(tokens):
    """``parse_tokens`` of ``tokens`` laid out as one comma-separated line."""
    text = ",".join(tokens).encode()
    lengths = np.array([len(t) for t in tokens])
    ends = np.cumsum(lengths + 1) - 1
    return parse_tokens(np.frombuffer(text, np.uint8), ends - lengths, ends)


def _assert_parses_like_float(token, settled=None):
    """The kernel gives ``float(token)`` bit for bit, or declines; ``settled`` says which it must do."""
    got = _parse([token])
    if settled is not None:
        assert (got is not None) == settled, token
    if got is not None:
        assert got.view(np.uint64)[0] == np.float64(float(token)).view(np.uint64), token


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# The writer's exact range (the double 1e-11 lies below 10**-11), where every ``.17g`` string is settled.
WRITER_RANGE = st.floats(math.nextafter(1e-11, 1.0), 2.0**51, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=60, deadline=None)
@given(FINITE, st.integers(1, 17))
def test_repr_and_g_strings_parse_like_float(x, digits):
    for token in (repr(x), format(x, ".17g"), format(x, f".{digits}g"), format(x, f".{digits}e"),
                  "-" + repr(abs(x))):
        _assert_parses_like_float(token)


@settings(max_examples=120, deadline=None)
@given(WRITER_RANGE)
def test_every_17_digit_string_in_the_writers_range_is_settled(x):
    _assert_parses_like_float(format(x, ".17g"), settled=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**15 - 1), st.integers(-25, 25), st.integers(0, 15), st.booleans())
def test_clingers_fast_path_settles_15_digit_tokens(mantissa, exp, point, negative):
    digits = str(mantissa)
    point = min(point, len(digits) - 1)
    body = digits[:len(digits) - point] + ("." + digits[len(digits) - point:] if point else "")
    token = ("-" if negative else "") + body + (f"e{exp}" if exp else "")
    fast = abs(exp - point) <= 22  # the value is mantissa * 10**(exp - point), mantissa < 2**53
    _assert_parses_like_float(token, settled=True if fast else None)


@settings(max_examples=50, deadline=None)
@given(st.integers(-64, 64), st.sampled_from(["", ".0", ".5", ".25", "0"]), st.integers(0, 3))
def test_integers_around_2_to_the_53(offset, tail, zeros):
    _assert_parses_like_float("0" * zeros + str(2**53 + offset) + tail)


@pytest.mark.parametrize("token", [
    # exactly halfway between two doubles: ties go to even, and no double has these 17 digits
    "9007199254740993", "9007199254740995", "4503599627370497.5", "9007199254740993.0",
    "1.00000000000000011102230246251565", "0.30000000000000004", "0.1", "0.7999999999999999",
    # zeros, signs and leading zeros
    "0", "-0", "0.0", "-0.0", "-0e5", "00", "007", "-07", "0001.2500", "0.000001", "-0.000012345678901234567",
    # exponents either side of +-22, in both signs
    "1e22", "1e23", "1e-22", "1e-23", "123456789e-30", "9.999999999999999e22", "4.9e-324", "1.7976931348623157e308",
    "1e+05", "-2.5e-3", "1e0", "1e-0", "1e0000", "1e00005",
])
def test_edge_tokens_parse_like_float(token):
    _assert_parses_like_float(token)


def test_tokens_of_one_length_in_several_layouts():
    # The first token of a length sets the layout the others are first read with.
    tokens = ["1.25", "12.5", "1234", "-1.5", "1e-5", "1e+5", "1e12", "0.50", "-125", "-1e5"]
    for order in (tokens, tokens[::-1], sorted(tokens)):
        want = np.array([float(t) for t in order])
        np.testing.assert_array_equal(_parse(order).view(np.uint64), want.view(np.uint64))
    assert _parse(["1.25", "12.5", "1.2.", "1234"]) is None


@pytest.mark.parametrize("token", [
    "", "-", ".", "1.", ".5", "-.5", "+1", "1e", "1e+", "1e-", "e5", "--1", "1..2", "1.2.3", "1e5.5", "1e5e5",
    " 1", "1 ", "\t1", "nan", "inf", "-inf", "1_0", "0x1", "1E5", "1,5", "1-2", "1+2", "\r", "1\r",
    "1" * 33, "1e123456",
])
def test_malformed_or_unsupported_tokens_decline(token):
    assert _parse([token]) is None


def _float_or_none(token):
    try:
        return float(token)
    except ValueError:
        return None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="0123456789-+.e", min_size=1, max_size=8), min_size=1, max_size=4))
def test_random_tokens_decline_or_parse_like_float(tokens):
    for token in tokens:
        if _float_or_none(token) is None:
            assert _parse([token]) is None
        else:
            _assert_parses_like_float(token)
    got = _parse(tokens)
    if got is not None:
        want = np.array([float(t) for t in tokens])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    else:
        assert any(_parse([t]) is None for t in tokens)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(FINITE.map(repr), WRITER_RANGE.map(lambda x: format(x, ".17g")),
                          st.sampled_from(["0", "1", "-1", "12", "-0", "7"])), min_size=1, max_size=40))
def test_a_mixed_column_parses_like_float_token_by_token(tokens):
    got = _parse(tokens)
    if got is not None:
        want = np.array([float(t) for t in tokens])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    else:
        assert any(_parse([t]) is None for t in tokens)


# ---------------------------------------------------------------------------
# Whole files: the kernel against the row-by-row oracle


def _kernel_columns(path):
    columns = _read_columns_bulk(str(path))
    return None if columns is None else list(columns.values())


def _assert_kernel_matches_oracle(path):
    columns = _kernel_columns(path)
    assert columns is not None, "the kernel declined the file"
    want = csv_columns(str(path))
    assert len(columns) == len(want)
    for got, col in zip(columns, want.values()):
        np.testing.assert_array_equal(got.view(np.uint64), col.view(np.uint64))
    loaded = load_dataset(str(path), {}).columns
    for name, col in want.items():
        np.testing.assert_array_equal(loaded[name].view(np.uint64), col.view(np.uint64))


# One value in each layout of the writer's exact path: fixed, ``0.000ddd`` and ``d.ddde-XX``.
LAYOUTS = np.array([123.25, -0.00012345678901234567, 1.2345678901234567e-07, 0.1, -0.0, 7.0])


def _layout_values(rng, n):
    """``LAYOUTS`` and ``n`` values from 1e-11 to 1e15 in magnitude, some of them integers."""
    scale = 10.0 ** rng.integers(-11, 15, size=n)
    values = rng.uniform(1.0, 10.0, size=n) * scale * rng.choice([-1.0, 1.0], size=n)
    values[::7] = np.round(values[::7])
    values[::11] = rng.integers(-3, 4, size=values[::11].size)
    return np.concatenate([LAYOUTS, values])


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300))
def test_dataset_csv_in_every_writer_layout_round_trips_through_the_kernel(tmp_path_factory, seed, n):
    rng = np.random.default_rng(seed)
    dataset = make_dataset({"a": _layout_values(rng, n), "flag": rng.integers(0, 2, size=n + len(LAYOUTS)) * 1.0,
                            "b": _layout_values(rng, n)[::-1]}, {})
    path = tmp_path_factory.mktemp("layouts") / "data.csv"
    write_dataset_csv(str(path), dataset)
    _assert_kernel_matches_oracle(path)
    for name, col in load_dataset(str(path), {}).columns.items():
        np.testing.assert_array_equal(col.view(np.uint64), dataset.columns[name].view(np.uint64))


@pytest.mark.parametrize("crlf", [True, False])
def test_a_file_of_many_blocks_with_rows_ending_at_every_cut(tmp_path, monkeypatch, crlf):
    end = "\r\n" if crlf else "\n"
    rng = np.random.default_rng(5)
    rows = [f"{k % 3 - 1},{format(x, '.17g')}" for k, x in enumerate(rng.uniform(0.3, 0.7, 12))]
    path = tmp_path / "blocks.csv"
    path.write_bytes(("x,pi" + end + end.join(rows)).encode())  # no final line end
    for block in range(1, 30):  # the cuts fall on and next to every line end
        monkeypatch.setattr(data, "BLOCK", block)
        _assert_kernel_matches_oracle(path)


def test_a_crlf_file_larger_than_one_block_with_a_row_ending_at_the_cut(tmp_path):
    # Each row is 16 bytes, so with blocks of 2**20 bytes every cut falls at a row end.
    rng = np.random.default_rng(6)
    n = 2 * data.BLOCK // 16
    values = rng.integers(1, 10**6, size=n) / 8
    text = "y,w\r\n" + "".join(f"{k % 2},{v:012.3f}\r\n" for k, v in enumerate(values.tolist()))
    assert len(text) - len("y,w\r\n") == 2 * data.BLOCK
    path = tmp_path / "big.csv"
    path.write_bytes(text.encode())
    _assert_kernel_matches_oracle(path)


def test_the_benchmark_sample_is_settled_by_the_kernel_not_by_the_row_parser(tmp_path, monkeypatch):
    # The d67 sample of the fit-csv-256k benchmark, at a smaller N: x in {-1, 0, 1}, 0/1 flags v
    # and y, and 17-digit inclusion probabilities.  A silent fallback would keep every number.
    spec = DesignSpec(
        N=20_000, family="bernoulli-logit", theta0=(-0.9, 0.8, 1.4),
        covariates=(CovariateSpec("x", "choice", ((-1.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3))),
                    CovariateSpec("v", "bernoulli", (0.5,))),
        design={"kind": "poisson", "lo": 0.3, "hi": 0.7, "const": -0.6,
                "coeffs": {"v": 0.55}, "response_coef": 1.0},
        terms=("x", "v"))
    sample = draw_sample(gen_population(spec, 3), spec, 4)
    path = tmp_path / "sample.csv"
    write_dataset_csv(str(path), sample)

    def no_row_parser(*args, **kwargs):
        raise AssertionError("the row parser was called")

    monkeypatch.setattr(data, "_read_columns_by_row", no_row_parser)
    loaded = load_dataset(str(path), {"response": "y", "covariates": ["x"], "design": ["v"], "pi": "pi"})
    assert list(loaded.columns) == list(sample.columns)
    for name, col in sample.columns.items():
        np.testing.assert_array_equal(loaded.columns[name].view(np.uint64), col.view(np.uint64))
