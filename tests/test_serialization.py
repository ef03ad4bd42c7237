"""Canonical JSON output and strict parsing."""

import json
from numbers import Integral, Real

import numpy as np
import pytest

from statgeom.cli import _csv_text
from statgeom.errors import ParseError, ValidationError
from statgeom.serialize import (
    dumps_canonical,
    load_json,
    parse_complex_matrix,
    parse_real_vector,
    read_matrix_file,
    read_vector_file,
)


def test_canonical_text_is_frozen():
    assert dumps_canonical({"b": 0.5, "a": [1, 2]}) == '{"a": [1, 2], "b": 0.5}\n'
    assert dumps_canonical(0.1) == "0.10000000000000001\n"
    assert dumps_canonical(True) == "true\n"
    assert dumps_canonical(None) == "null\n"
    assert dumps_canonical("x") == '"x"\n'


def test_complex_arrays_become_pairs():
    m = np.array([[1.0 + 2.0j, 3.0]])
    assert dumps_canonical(m) == "[[[1, 2], [3, 0]]]\n"
    assert dumps_canonical(np.complex128(1j)) == "[0, 1]\n"


def test_real_arrays_stay_plain():
    assert dumps_canonical(np.array([1.0, 2.5])) == "[1, 2.5]\n"
    assert dumps_canonical(np.float64(0.25)) == "0.25\n"
    assert dumps_canonical(np.int64(7)) == "7\n"
    assert dumps_canonical(np.bool_(True)) == "true\n"


def test_key_sorting_and_nesting():
    text = dumps_canonical({"z": {"b": 1, "a": 2}, "a": 0})
    assert text == '{"a": 0, "z": {"a": 2, "b": 1}}\n'


def test_non_finite_rejected():
    with pytest.raises(ValidationError):
        dumps_canonical(float("nan"))
    with pytest.raises(ValidationError):
        dumps_canonical({"x": np.inf})


def test_unsupported_type_rejected():
    with pytest.raises(ValidationError):
        dumps_canonical({"x": object()})


def test_serialization_is_deterministic(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert dumps_canonical(m) == dumps_canonical(m.copy())


def test_round_trip_preserves_bytes():
    m = np.array([[0.1 + 0.2j, -3.0], [7e-17, 1.0 - 1.0j]])
    text = dumps_canonical(m)
    back = parse_complex_matrix(json.loads(text))
    assert np.array_equal(back, m)
    assert dumps_canonical(back) == text


def test_parse_real_vector():
    assert np.allclose(parse_real_vector([1, 2.5]), [1.0, 2.5])
    with pytest.raises(ParseError):
        parse_real_vector([])
    with pytest.raises(ParseError):
        parse_real_vector([1.0, True])
    with pytest.raises(ParseError):
        parse_real_vector([1.0, "2"])
    with pytest.raises(ParseError):
        parse_real_vector({"p": 1})


def test_parse_complex_matrix():
    m = parse_complex_matrix([[1, [0, 1]], [2.5, 3]])
    assert m.dtype == complex
    assert m[0, 1] == 1j
    with pytest.raises(ParseError):
        parse_complex_matrix([[1, 2], [3]])  # ragged
    with pytest.raises(ParseError):
        parse_complex_matrix([[True]])
    with pytest.raises(ParseError):
        parse_complex_matrix([[[1, 2, 3]]])  # not a pair
    with pytest.raises(ParseError, match=r"matrix\[1\]: expected a nonempty row"):
        parse_complex_matrix([[1.0], []])
    with pytest.raises(ParseError):
        parse_complex_matrix([])


def test_parse_complex_matrix_names_the_bad_entry():
    expected = "expected a number or [re, im] pair, got"
    cases = [
        ([[1, 2], ["x", 3]], "m[1][0]", "'x'"),
        ([[0.5, 0], [True, 0.5]], "m[1][0]", "True"),
        ([[0.5, [1, 2, 3]], [0, 0.5]], "m[0][1]", "[1, 2, 3]"),
    ]
    for data, where, got in cases:
        with pytest.raises(ParseError) as excinfo:
            parse_complex_matrix(data, where="m")
        assert str(excinfo.value) == f"{where}: {expected} {got}"


def test_file_round_trip(tmp_path):
    vec_file = tmp_path / "v.json"
    vec_file.write_text("[0.25, 0.75]")
    assert np.allclose(read_vector_file(str(vec_file)), [0.25, 0.75])

    mat_file = tmp_path / "m.json"
    mat_file.write_text(dumps_canonical(np.array([[0.5, 0.5j], [-0.5j, 0.5]])))
    m = read_matrix_file(str(mat_file))
    assert m[0, 1] == 0.5j


@pytest.mark.parametrize(
    "m",
    [
        np.array([[-0.0]]),
        np.array([[[-0.0, -0.0], [0.5, 0.0]], [[1.0, -0.0], [-0.0, 2.0]]]).view(complex)[..., 0],
    ],
    ids=["real-1x1", "complex"],
)
def test_file_round_trip_keeps_signed_zeros(tmp_path, m):
    path = tmp_path / "m.json"
    path.write_text(dumps_canonical(m))
    assert read_matrix_file(str(path)).tobytes() == m.astype(complex).tobytes()
    # -0.0 is written as the token -0, which plain json.loads reads as the integer 0
    assert repr(json.loads(path.read_text())[0][0]) in ("0", "[0, 0]")


def test_load_json_errors(tmp_path):
    with pytest.raises(ParseError):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{,}")
    with pytest.raises(ParseError) as excinfo:
        load_json(str(bad))
    assert "line 1" in str(excinfo.value)


def _reference_jsonable(obj):
    """The former ``to_jsonable``, kept as the reference: nested lists of
    Python scalars, complex entries as [re, im], built one entry at a time.
    An unserializable object is passed through, so the encoder reports it
    in walk order."""
    if isinstance(obj, dict):
        return {str(k): _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _reference_complex(obj) if np.iscomplexobj(obj) else obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, Integral):
        return int(obj)
    if isinstance(obj, Real):
        return float(obj)
    return obj


def _reference_complex(arr):
    if arr.ndim == 0:
        z = complex(arr)
        return [z.real, z.imag]
    return [_reference_complex(sub) for sub in arr]


def _reference_dumps(obj) -> str:
    """The former encoder, kept as the reference: format each float of
    ``_reference_jsonable(obj)`` in a recursive walk."""

    def encode(obj) -> str:
        if obj is None:
            return "null"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, str):
            return json.dumps(obj)
        if isinstance(obj, Integral):
            return str(int(obj))
        if isinstance(obj, Real):
            x = float(obj)
            if not np.isfinite(x):
                raise ValidationError(f"cannot serialize non-finite value {x!r}")
            return format(x, ".17g")
        if isinstance(obj, dict):
            items = (
                f"{json.dumps(str(k))}: {encode(v)}"
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
            )
            return "{" + ", ".join(items) + "}"
        if isinstance(obj, (list, tuple)):
            return "[" + ", ".join(encode(v) for v in obj) + "]"
        raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")

    return encode(_reference_jsonable(obj)) + "\n"


_EDGES = np.array([-0.0, 5e-324, 1e308, -1e308, 0.1, 1.0, 1e16, 1e-7])


def _payloads():
    rng = np.random.default_rng(31)
    out = []
    for shape in [(), (5,), (3, 3), (4, 3, 3), (0,), (2, 0)]:
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out += [z, z.real, z.T, z.astype(np.complex64), z.real.astype(np.float32)]
    big = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    stack = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    out += [
        big,
        stack,
        rng.normal(size=7),
        _EDGES,
        _EDGES + 1j * _EDGES[::-1],
        np.float64(-0.0), np.float32(0.1), np.int64(-7), np.uint8(200),
        np.complex128(5e-324 - 1e308j), np.bool_(True), np.bool_(False),
        np.array([True, False]), np.arange(6).reshape(2, 3),
        {
            "b": [1, 2.5, None, True, "x", (3, -0.0)],
            "a": {"z": np.array([[1 + 2j, -0.0j]]), "y": [[], {}, ()]},
            1: "int key",
            "1": "a later equal key wins",
        },
        [np.float16(0.1), 1 + 2j, -1e308, 5e-324, [np.eye(2), {"k": np.ones(2, complex)}]],
    ]
    return out


@pytest.mark.parametrize("index", range(len(_payloads())))
def test_bulk_encoder_matches_the_reference(index):
    obj = _payloads()[index]
    assert dumps_canonical(obj) == _reference_dumps(obj)
    assert json.loads(dumps_canonical(obj)) == _reference_jsonable(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"b": np.array([1.0, np.nan]), "a": np.array([[0.5, 1j * np.inf]])},
        {"b": np.array([np.inf, np.nan]), "a": [1.0, 2.0]},
        {"a": np.array([1 + 1j, complex(np.nan, -np.inf)]), "b": np.array([np.inf])},
        {"a": object(), "b": float("-inf")},
        {"a": float("-inf"), "b": object()},  # the first fault in walk order is reported
        {"a": np.array([object()], dtype=object), "b": np.nan},
    ],
    ids=[
        "nan-and-inf", "inf-before-nan", "complex", "type-first", "inf-before-type",
        "object-array",
    ],
)
def test_non_finite_error_names_the_reference_value(obj):
    with pytest.raises(ValidationError) as expected:
        _reference_dumps(obj)
    with pytest.raises(ValidationError) as got:
        dumps_canonical(obj)
    assert str(got.value) == str(expected.value)


def _edge_seeded(rng, shape):
    """A random complex matrix with the edge values written over some entries."""
    m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    flat = m.view(float).ravel()  # a view: writes reach m
    picks = rng.choice(flat.size, size=min(flat.size, len(_EDGES)), replace=False)
    flat[picks] = _EDGES[: len(picks)]
    return m


def test_round_trip_keeps_the_bytes_of_every_size():
    rng = np.random.default_rng(5)
    for n in range(1, 33):
        m = _edge_seeded(rng, (n, n))
        back = parse_complex_matrix(json.loads(dumps_canonical(m)))
        # -0.0 is written "-0", which JSON reads as the integer 0: only the
        # sign of zero is lost (m + 0.0 clears it and keeps every other bit)
        assert back.tobytes() == (m + 0.0).tobytes(), n


def _reference_parse(data) -> np.ndarray:
    """The former matrix parser, kept as the reference: one complex() per entry."""
    rows = []
    for row in data:
        out = []
        for v in row:
            if isinstance(v, list):
                out.append(complex(float(v[0]), float(v[1])))
            else:
                out.append(complex(float(v), 0.0))
        rows.append(out)
    return np.array(rows, dtype=complex)


@pytest.mark.parametrize(
    "data",
    [
        [[1, [0, 1]], [2.5, 3]],
        [[-0.0, [1, -0.0]], [[0.5, 2], [-0.0, -0.0]]],
        [[[5e-324, 1e308], 7], [0, [-1e308, 0.1]]],
        [[1, 2, 3]],
        [[[1.5, 2.5]], [[-1, 0]], [4]],
    ],
    ids=["ints-and-pairs", "signed-zeros", "extremes", "one-row", "one-column"],
)
def test_mixed_entries_parse_to_the_reference_bytes(data):
    got = parse_complex_matrix(data)
    expected = _reference_parse(data)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_csv_rows_match_per_value_formatting():
    rows = np.array([_EDGES, _EDGES[::-1]])
    header = [f"c{k}%" for k in range(rows.shape[1])]  # a % in a header is literal
    lines = [",".join(header)] + [",".join(format(x, ".17g") for x in row) for row in rows]
    assert _csv_text(header, rows) == "\n".join(lines) + "\n"
    assert _csv_text(["t"], np.empty((0, 1))) == "t\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_csv_rejects_non_finite_values_by_name(bad):
    rows = np.array([[0.5, 1.0], [2.0, bad], [np.nan, 3.0]])
    with pytest.raises(ValidationError) as excinfo:
        _csv_text(["a", "b"], rows)
    assert str(excinfo.value) == f"cannot serialize non-finite value {float(bad)!r}"
