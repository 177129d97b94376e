"""Property tests: random documents, text and bytes end in a result or a one-line error.

Every parser either returns or raises its documented error type; the CLI
returns 0 or 1 and never lets an exception escape. Runs are derandomized
and use no example database, so the suite stays deterministic.
"""

import contextlib
import io as stdio
import json
import math
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bevkit.cli import main
from bevkit.errors import FormatError, ParseError
from bevkit.io import (
    _CONFIG,
    _PRIMITIVE,
    _SYNTH_SPEC,
    SynthSpec,
    parse_csv_trajectory,
    parse_kitti_poses,
    parse_synth_spec,
    parse_tum_trajectory,
    read_bvt1,
    write_bvt1,
)

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# Explicit alphabets: hypothesis's default one builds a unicode table on first use, which takes seconds.
CHARS = "0123456789.,-+eE #\t\r\nnaifxé\x00\"\\"
# Numbers near every field's edges, plus JSON values of the wrong kind.
numbers = (
    st.integers(-3, 70)
    | st.sampled_from([1024, 1025, 2**22, 2**22 + 1, 10**400, 1.5, 1e-300, 1e12, 1e308, -1e308])
    | st.floats()
)
scalars = st.none() | st.booleans() | numbers | st.text(CHARS, max_size=3) | st.sampled_from(["straight", "arc", "stop"])
values = (
    scalars
    | st.lists(numbers, max_size=13)
    | st.lists(scalars, max_size=3)
    | st.dictionaries(st.text(CHARS, max_size=2), scalars, max_size=2)
)


def mostly(common, rare):
    """Draw ``common`` about three times in four, else ``rare``."""
    return st.integers(0, 3).flatmap(lambda i: rare if i == 0 else common)


def objects(table):
    """JSON objects over a subset of ``table``'s keys, each value drawn for its field or nested table."""
    fields = {key: mostly(objects(entry) if isinstance(entry, dict) else numbers, values) for key, entry in table.items()}
    return st.fixed_dictionaries({}, optional=fields)


primitive_docs = st.fixed_dictionaries(
    {"kind": st.sampled_from(["straight", "arc", "stop"]), "duration_s": numbers},
    optional={"speed_mps": numbers, "yaw_rate_dps": numbers},
)
config_docs = mostly(objects(_CONFIG), values)
spec_docs = mostly(
    st.builds(
        lambda doc, prims: {**doc, "primitives": prims},
        objects({k: v for k, v in _SYNTH_SPEC.items() if k != "primitives"}),
        st.lists(mostly(primitive_docs, objects(_PRIMITIVE) | values), max_size=3),
    ),
    objects(_SYNTH_SPEC) | values,
)


@pytest.fixture(scope="module")
def drive(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "drive.tum"
    rows = [f"{0.1 * i:.9f} {0.5 * i} {0.01 * i * i} 0 0 0 {0.02 * i} {(1 - 0.0004 * i * i) ** 0.5}" for i in range(6)]
    path.write_text("\n".join(rows) + "\n")
    return path


@settings(FUZZ, max_examples=100)
@given(doc=config_docs)
def test_sample_pairs_never_raises(drive, doc):
    config = drive.with_name("config.json")
    config.write_text(json.dumps(doc))
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sample-pairs", "--traj", str(drive), "--config", str(config),
                     "--out", str(drive.with_name("pairs.csv")), "--draws", "3"])
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("bevkit: error:") and err.getvalue().count("\n") == 1


@FUZZ
@given(doc=spec_docs)
def test_parse_synth_spec_returns_or_raises_parse_error(doc):
    try:
        assert isinstance(parse_synth_spec(json.dumps(doc)), SynthSpec)
    except ParseError:
        pass


tokens = st.sampled_from(["0", "1", "-1", "0.5", "1e400", "nan", "inf", "x", "", "#", ",", "0.7071067811865476"])
# a valid row of each format, the timestamp taken from the row number
ROWS = {
    parse_kitti_poses: "1 0 0 {i} 0 1 0 0 0 0 1 0",
    parse_tum_trajectory: "{i} {i} 0 0 0 0 0 1",
    parse_csv_trajectory: "{i},0,{i},0,0,0.7071067811865476,0,0.7071067811865476",
}


def mutate_rows(template, n, edits):
    """``n`` rows from ``template``, then each (row, field, token) edit applied."""
    sep = "," if "," in template else " "
    rows = [template.format(i=i).split(sep) for i in range(n)]
    for row, col, token in edits:
        if rows:
            fields = rows[row % len(rows)]
            fields[col % len(fields)] = token
    return "\n".join(sep.join(fields) for fields in rows)


random_texts = st.lists(st.lists(tokens, max_size=13).map(" ".join), max_size=4).map("\n".join) | st.text(CHARS, max_size=40)
parser_cases = st.sampled_from(list(ROWS)).flatmap(
    lambda parser: st.tuples(
        st.just(parser),
        mostly(
            st.builds(
                mutate_rows,
                st.just(ROWS[parser]),
                st.integers(1, 4),
                st.lists(st.tuples(st.integers(0, 9), st.integers(0, 13), tokens), max_size=2),
            ),
            random_texts,
        ),
    )
)


@FUZZ
@given(case=parser_cases)
def test_trajectory_parsers_return_or_raise_parse_error(case):
    parser, text = case
    try:
        parser(text)
    except ParseError:
        pass


def bvt1_blob(dims, payload, cut):
    """A BVT1 header for ``dims`` followed by ``payload``, cut to ``cut`` bytes when given."""
    blob = b"BVT1" + struct.pack(f"<{len(dims) + 1}I", len(dims), *dims) + payload
    return blob if cut is None else blob[:cut]


small_dims = st.lists(st.integers(0, 3), max_size=3)
exact_bvt1_blobs = small_dims.flatmap(
    lambda d: st.binary(min_size=4 * math.prod(d), max_size=4 * math.prod(d)).map(lambda p: bvt1_blob(d, p, None))
)
bvt1_blobs = (
    exact_bvt1_blobs
    | st.builds(bvt1_blob, small_dims, st.binary(max_size=40), st.none() | st.integers(0, 40))
    | st.builds(bvt1_blob, st.lists(st.sampled_from([1, 2**16, 2**32 - 1]), max_size=4), st.binary(max_size=8), st.none())
    | st.binary(max_size=40)
)


@FUZZ
@given(data=bvt1_blobs)
def test_read_bvt1_returns_or_raises_format_error(data):
    try:
        arr = read_bvt1(data)
    except FormatError:
        return
    assert write_bvt1(arr) == data
