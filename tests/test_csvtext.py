"""The CSV writer against the per-row ``repr`` writer it replaced.

``repr_rows`` is that writer: each chunk of columns through ``tolist``, so
that an int is written as itself and a float in Python's shortest
round-trip form, and each row joined with commas.  Every test asks for the
same bytes from ``csvtext.rows`` or ``cli._write_csv``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import releq
from releq import cli, csvtext


def repr_rows(columns) -> bytes:
    chunk = [np.asarray(column).tolist() for column in columns]
    return "".join(",".join(map(repr, row)) + "\n" for row in zip(*chunk)).encode()


def assert_same_text(columns):
    expected = repr_rows(columns)
    written = csvtext.rows(columns)
    if written != expected:
        pairs = zip(written.split(b"\n"), expected.split(b"\n"))
        mismatches = [(ours, theirs) for ours, theirs in pairs if ours != theirs]
        pytest.fail(f"{len(mismatches)} rows differ from repr, the first {mismatches[:5]}")


def floats_of(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def test_random_bit_patterns():
    bits = np.random.default_rng(20240).integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
    values = floats_of(bits)
    assert_same_text([values])
    assert_same_text(list(values[:60_000].reshape(6, -1)))


def test_powers_of_two_and_ten_and_their_neighbours():
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), [float(f"1e{e}") for e in range(-323, 309)]])
    values = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    assert_same_text([values, -values])


def test_smallest_subnormals():
    bits = np.arange(2**17, dtype=np.uint64)
    assert_same_text([floats_of(bits), floats_of(bits | np.uint64(2**63))])


def test_zeros_infinities_and_nans():
    nans = floats_of([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF])
    assert_same_text([np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans])])


def test_layout_switches_and_three_digit_exponents():
    edges = np.array([1e-4, 1e-5, 1e15, 1e16, 1e-100, 1e100, 1e-99, 1e99, 1.5e-300, 1e308])
    values = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
    assert_same_text([values, -values])


def test_integers_and_decimal_grids():
    k = np.arange(-50_000, 50_000)
    assert_same_text([k.astype(float), k * 0.01, k * 0.001, k])


def test_int64_columns():
    edges = np.array([0, 1, -1, 9, 10, -10, 100, 10**18, 10**18 - 1, -(10**18), 2**63 - 1, -(2**63)], dtype=np.int64)
    assert_same_text([edges, edges * 0.5])
    assert_same_text([np.arange(7), np.linspace(-1.0, 1.0, 7)])


@pytest.mark.parametrize("rows", [0, 1, cli._CSV_CHUNK - 1, cli._CSV_CHUNK, cli._CSV_CHUNK + 1])
def test_the_writer_at_chunk_edges(tmp_path, rows):
    values = floats_of(np.random.default_rng(rows).integers(0, 2**64, size=(3, rows), dtype=np.uint64))
    columns = (np.arange(rows), *values)
    path = tmp_path / "out.csv"
    cli._write_csv(str(path), "m,a,b,c", columns)
    assert path.read_bytes() == b"m,a,b,c\n" + repr_rows(columns)


@given(st.lists(st.floats(), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_any_float_is_written_as_repr(values):
    assert_same_text([np.array(values), np.array(values[::-1])])


def test_the_cli_import_forms_no_table():
    # The tables cost a few milliseconds; a run that writes no CSV, and the
    # import that every run pays, do not form them.
    code = (
        "import releq.cli, releq.csvtext as c; "
        "print([table.cache_info().currsize for table in (c._powers, c._quads, c._templates)])"
    )
    src = str(Path(releq.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[0, 0, 0]"
