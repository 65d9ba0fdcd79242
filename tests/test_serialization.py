import json

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from opspectra import (
    AtomicTracePovm,
    AutocovarianceSequence,
    DimensionError,
    FirFilter,
    FormatError,
    ProcessSample,
    TransferFunction,
    autocov_from_povm,
    hfpca_report,
    sample_gaussian_measure,
    synthesize_process,
)
from opspectra.serialization import (
    decode_autocov,
    decode_fir,
    decode_operator,
    decode_pairs,
    decode_povm,
    decode_series,
    decode_transfer,
    encode_autocov,
    encode_fir,
    encode_operator,
    encode_pairs,
    encode_povm,
    encode_series,
    encode_transfer,
    read_json,
    write_json,
)
from opspectra.synthetic import (
    make_rng,
    random_complex,
    random_fir,
    random_povm,
    random_transfer,
)
from opspectra.verify import CheckResult, emit_report


def roundtrip(obj):
    return json.loads(json.dumps(obj))


class TestOperatorFormat:
    def test_layout(self):
        op = np.array([[1 + 2j, 3.5], [0, -1j]])
        enc = encode_operator(op)
        assert enc["rows"] == 2 and enc["cols"] == 2
        assert enc["entries"][0] == [1.0, 2.0]
        assert enc["entries"][1] == [3.5, 0.0]

    def test_exact_roundtrip(self):
        rng = make_rng(701)
        op = random_complex(rng, (3, 5))
        np.testing.assert_array_equal(decode_operator(roundtrip(encode_operator(op))), op)

    def test_entry_count_mismatch(self):
        with pytest.raises(DimensionError):
            decode_operator({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


class TestPovmFormat:
    def test_exact_roundtrip(self):
        rng = make_rng(702)
        nu = random_povm(rng, 3, 5)
        back = decode_povm(roundtrip(encode_povm(nu)))
        np.testing.assert_array_equal(back.freqs, nu.freqs)
        np.testing.assert_array_equal(back.weights, nu.weights)


class TestAutocovFormat:
    def test_exact_roundtrip(self):
        rng = make_rng(703)
        gamma = autocov_from_povm(random_povm(rng, 3, 4), 5)
        back = decode_autocov(roundtrip(encode_autocov(gamma)))
        assert back.max_lag == 5
        np.testing.assert_array_equal(back.values, gamma.values)


class TestTransferFormat:
    def test_exact_roundtrip_total(self):
        rng = make_rng(704)
        phi = random_transfer(rng, 3, 2, np.linspace(-2, 2, 4))
        back = decode_transfer(roundtrip(encode_transfer(phi)))
        np.testing.assert_array_equal(back.ops, phi.ops)
        assert back.domains is None

    def test_exact_roundtrip_with_domains(self):
        rng = make_rng(705)
        freqs = np.linspace(-2, 2, 3)
        from opspectra import TransferFunction

        doms = np.stack([np.eye(3, dtype=complex)] * 3)
        phi = TransferFunction(3, 2, freqs, random_complex(rng, (3, 2, 3)), doms)
        back = decode_transfer(roundtrip(encode_transfer(phi)))
        np.testing.assert_array_equal(back.domains, phi.domains)


class TestFirFormat:
    def test_exact_roundtrip(self):
        rng = make_rng(706)
        fir = random_fir(rng, 3, 2, 4)
        back = decode_fir(roundtrip(encode_fir(fir)))
        assert set(back.taps) == set(fir.taps)
        for s in fir.taps:
            np.testing.assert_array_equal(back.taps[s], fir.taps[s])

    def test_repeated_lag_is_refused(self):
        # a second tap at s = 0 would silently replace the first
        taps = [{"s": 0, "op": encode_operator(k * np.eye(2))} for k in (1, 2)]
        with pytest.raises(FormatError, match="lag 0 is given more than once"):
            decode_fir({"taps": taps})


class TestSeriesFormat:
    def test_exact_roundtrip(self):
        rng = make_rng(707)
        nu = random_povm(rng, 2, 3)
        x = synthesize_process(sample_gaussian_measure(nu, 4, seed=60), 6)
        back = decode_series(roundtrip(encode_series(x)))
        assert back.period == 6 and back.n_realizations == 4
        np.testing.assert_array_equal(back.values, x.values)

    def test_record_keeps_the_read_only_decoded_values(self):
        values = decode_pairs(roundtrip(encode_pairs(np.ones((2, 3, 1)))), (2, 3, 1))
        assert not values.flags.writeable
        assert ProcessSample(1, 3, values).values is values


class TestFiles:
    def test_write_read_exact(self, tmp_path):
        rng = make_rng(708)
        nu = random_povm(rng, 3, 4)
        path = tmp_path / "povm.json"
        write_json(encode_povm(nu), path)
        back = decode_povm(read_json(path))
        np.testing.assert_array_equal(back.weights, nu.weights)

    def test_deterministic_bytes(self, tmp_path):
        rng = make_rng(709)
        nu = random_povm(rng, 3, 4)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(encode_povm(nu), a)
        write_json(encode_povm(nu), b)
        assert a.read_bytes() == b.read_bytes()


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


def complex_arrays(shape):
    return arrays(np.complex128, shape, elements=st.builds(complex, FINITE, FINITE))


def stacks(square=False):
    """Shapes ``(n, rows, cols)``, square when asked."""
    dims = st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3))
    return dims.map(lambda s: (s[0], s[1], s[1]) if square else s)


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    bits = [np.ascontiguousarray(v).reshape(-1).view(np.uint64) for v in (a, b)]
    np.testing.assert_array_equal(*bits)


@pytest.fixture(scope="module")
def json_path(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "doc.json"


def through_file(path, doc):
    write_json(doc, path)
    return read_json(path)


class TestBitExactRoundTrip:
    """Every encoder, then the file, then the decoder, reproduces every bit
    (signed zeros, subnormals and the largest finite doubles included).

    Each example writes and reads a file, which can take longer than
    hypothesis' default 200 ms deadline on a loaded host, so the property
    tests run without a deadline."""

    def test_edge_floats(self, json_path):
        edges = np.array([complex(re, im) for re in EDGE_FLOATS for im in EDGE_FLOATS])
        op = edges.reshape(6, 6)
        assert_bits_equal(decode_operator(through_file(json_path, encode_operator(op))), op)
        x = ProcessSample(dim=6, period=3, values=np.stack([op[:3], op[3:]]))
        assert_bits_equal(decode_series(through_file(json_path, encode_series(x))).values, x.values)

    @settings(deadline=None)
    @given(complex_arrays(array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)))
    def test_pairs(self, json_path, a):
        back = decode_pairs(through_file(json_path, encode_pairs(a)), a.shape)
        assert_bits_equal(back, a)

    @settings(deadline=None)
    @given(complex_arrays(array_shapes(min_dims=2, max_dims=2, max_side=4)))
    def test_operator(self, json_path, op):
        assert_bits_equal(decode_operator(through_file(json_path, encode_operator(op))), op)

    @settings(deadline=None)
    @given(complex_arrays(array_shapes(min_dims=3, max_dims=3, max_side=4)))
    def test_series(self, json_path, values):
        x = ProcessSample(dim=values.shape[2], period=values.shape[1], values=values)
        back = decode_series(through_file(json_path, encode_series(x)))
        assert_bits_equal(back.values, values)

    @settings(deadline=None)
    @given(complex_arrays(stacks()))
    def test_fir(self, json_path, ops):
        fir = FirFilter(taps={s - 1: op for s, op in enumerate(ops)})
        back = decode_fir(through_file(json_path, encode_fir(fir)))
        assert set(back.taps) == set(fir.taps)
        for s in fir.taps:
            assert_bits_equal(back.taps[s], fir.taps[s])

    @settings(deadline=None)
    @given(complex_arrays(stacks()), st.booleans())
    def test_transfer(self, json_path, ops, partial):
        n, out_dim, in_dim = ops.shape
        domains = np.stack([np.eye(in_dim, dtype=complex)] * n) if partial else None
        phi = TransferFunction(in_dim, out_dim, np.linspace(-3.0, 3.0, n), ops, domains)
        back = decode_transfer(through_file(json_path, encode_transfer(phi)))
        assert_bits_equal(back.freqs, phi.freqs)
        assert_bits_equal(back.ops, ops)
        if partial:
            assert_bits_equal(back.domains, domains)
        else:
            assert back.domains is None

    @settings(deadline=None)
    @given(complex_arrays(stacks(square=True)))
    def test_autocov(self, json_path, values):
        # lag 0 must be PSD; every other lag is arbitrary
        values[0] = np.eye(values.shape[1])
        g = AutocovarianceSequence(values.shape[1], values.shape[0] - 1, values)
        back = decode_autocov(through_file(json_path, encode_autocov(g)))
        assert_bits_equal(back.values, values)

    @settings(deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 3)),
            elements=st.floats(0.0, 1e300) | st.sampled_from([0.0, 5e-324]),
        ),
        st.floats(-1.0, 1.0),
    )
    def test_povm(self, json_path, diagonals, shift):
        # diagonal weights are PSD at any scale
        n, dim = diagonals.shape
        weights = np.zeros((n, dim, dim), dtype=complex)
        weights[:, np.arange(dim), np.arange(dim)] = diagonals
        nu = AtomicTracePovm(dim, np.linspace(-2.0, 2.0, n) + shift, weights)
        back = decode_povm(through_file(json_path, encode_povm(nu)))
        assert_bits_equal(back.freqs, nu.freqs)
        assert_bits_equal(back.weights, nu.weights)


def _documents() -> dict:
    """One document of every kind the library encodes, edge floats and
    empty lists included."""
    rng = make_rng(710)
    nu = random_povm(rng, 3, 4)
    phi = random_transfer(rng, 3, 2, nu.freqs)
    domains = np.stack([np.diag([1.0, 1.0, 0.0]).astype(complex)] * nu.n_atoms)
    edges = np.array([complex(re, im) for re in EDGE_FLOATS for im in EDGE_FLOATS])
    results = [
        CheckResult("a", "prop a", "pass", 0.0, 1.0, {"x": EDGE_FLOATS, "y": []}),
        CheckResult("b", "prop b", "fail", 5e-324, -0.0),
    ]
    return {
        "measure": encode_povm(nu),
        "autocov": encode_autocov(autocov_from_povm(nu, 3)),
        "transfer": encode_transfer(phi),
        "transfer-domains": encode_transfer(
            TransferFunction(3, 2, nu.freqs, phi.ops, domains)
        ),
        "fir": encode_fir(random_fir(rng, 3, 2, 3)),
        "series": encode_series(ProcessSample(6, 3, edges.reshape(2, 3, 6))),
        "empty-series": encode_series(ProcessSample(2, 3, np.zeros((0, 3, 2)))),
        "operator": encode_operator(edges.reshape(6, 6)),
        "hfpca": hfpca_report(nu, [1, 2, 3, 1]),
        "verify": emit_report(results),
        "empty-verify": emit_report([]),
        "edges": {"": [], "b": {}, "a": EDGE_FLOATS, "c": [[], {}, [EDGE_FLOATS]],
                  "\u00e9\"": None, "t": True, "n": 0},
        "integer-keys": {2: [5e-324], 1: [], 10: {}},
        "scalar": -0.0,
    }


DOCUMENTS = _documents()


class TestCompactWriter:
    def test_exact_text(self, tmp_path):
        for kind, doc in DOCUMENTS.items():
            write_json(doc, tmp_path / "doc.json")
            expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            assert (tmp_path / "doc.json").read_text() == expected, kind

    def test_holds_one_piece_of_the_text(self, tmp_path):
        """Writing a series holds far less than its text: the text is never
        built whole, only one realization's at a time."""
        values = random_complex(make_rng(715), (64, 64, 4))
        doc = encode_series(ProcessSample(4, 64, values))
        path = tmp_path / "s.json"
        peak = traced_peak(write_json, doc, path)
        assert peak < path.stat().st_size / 8

    def test_runs_on_the_c_encoder(self, tmp_path, monkeypatch):
        def pure_python_encoder(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder was used")

        monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
        rng = make_rng(711)
        x = synthesize_process(sample_gaussian_measure(random_povm(rng, 2, 3), 3, seed=61), 5)
        write_json(encode_series(x), tmp_path / "s.json")
        assert_bits_equal(decode_series(read_json(tmp_path / "s.json")).values, x.values)

    def test_reads_indented_files(self, tmp_path):
        """Documents in the earlier ``indent=1`` layout decode unchanged."""
        rng = make_rng(712)
        nu = random_povm(rng, 2, 4)
        phi = random_transfer(rng, 2, 3, nu.freqs)
        x = synthesize_process(sample_gaussian_measure(nu, 3, seed=62), 5)
        path = tmp_path / "old.json"
        for doc, decode, expected in [
            (encode_povm(nu), lambda d: decode_povm(d).weights, nu.weights),
            (encode_transfer(phi), lambda d: decode_transfer(d).ops, phi.ops),
            (encode_series(x), lambda d: decode_series(d).values, x.values),
        ]:
            path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
            assert_bits_equal(decode(read_json(path)), expected)


def _reference_operator(a):
    """The per-entry operator encoding the whole-array codec replaced."""
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in a.ravel()],
    }


class TestSchema:
    """The whole-array codec builds exactly the per-entry nested lists."""

    def test_series(self):
        rng = make_rng(713)
        x = synthesize_process(sample_gaussian_measure(random_povm(rng, 3, 4), 2, seed=63), 5)
        expected = [
            [[[float(z.real), float(z.imag)] for z in x.values[r, t]]
             for t in range(x.period)]
            for r in range(x.n_realizations)
        ]
        assert encode_series(x) == {
            "dim": 3, "period": 5, "realizations": 2, "values": expected,
        }

    def test_stacks(self):
        rng = make_rng(714)
        nu = random_povm(rng, 2, 3)
        gamma = autocov_from_povm(nu, 2)
        doms = np.stack([np.eye(2, dtype=complex)] * 3)
        phi = TransferFunction(2, 3, nu.freqs, random_complex(rng, (3, 3, 2)), doms)
        assert encode_operator(phi.ops[0]) == _reference_operator(phi.ops[0])
        assert encode_povm(nu) == {
            "dim": 2,
            "atoms": [{"freq": float(f), "weight": _reference_operator(w)}
                      for f, w in zip(nu.freqs, nu.weights)],
        }
        assert encode_autocov(gamma) == {
            "dim": 2, "max_lag": 2,
            "values": [_reference_operator(v) for v in gamma.values],
        }
        assert encode_transfer(phi) == {
            "in_dim": 2, "out_dim": 3,
            "freqs": [float(f) for f in nu.freqs],
            "ops": [_reference_operator(op) for op in phi.ops],
            "domains": [_reference_operator(d) for d in doms],
        }


class TestDeclaredCounts:
    """Arrays that do not match their declared counts raise FormatError."""

    @pytest.mark.parametrize(
        "pairs",
        [[[1.0, 0.0]], [[1.0, 0.0]] * 3, [[1.0, 0.0], [1.0]], [[1.0, 0.0], [1.0, 0.0, 0.0]],
         [1.0, 0.0], [[1.0, 0.0], "x"]],
        ids=["short", "long", "ragged", "triple", "flat", "text"],
    )
    def test_pairs(self, pairs):
        with pytest.raises(FormatError):
            decode_pairs(pairs, (2,))

    def test_series_counts(self):
        doc = {"dim": 1, "period": 2, "realizations": 1,
               "values": [[[[1.0, 0.0]], [[2.0, 0.0]]]]}
        assert decode_series(doc).values.shape == (1, 2, 1)
        for bad in [{"realizations": 2}, {"period": 3}, {"dim": 2},
                    {"values": [[[[1.0, 0.0]]]]}, {"values": [[[1.0], [[2.0, 0.0]]]]},
                    {"dim": 1.9}, {"period": 2.0}, {"realizations": True},
                    {"realizations": -1}]:
            with pytest.raises(FormatError):
                decode_series(doc | bad)

    def test_every_decoder_reads_integer_counts(self):
        rng = make_rng(716)
        nu = random_povm(rng, 2, 3)
        op = encode_operator(np.eye(2))
        transfer = encode_transfer(random_transfer(rng, 2, 2, nu.freqs))
        cases = [
            (decode_operator, op, "rows"),
            (decode_operator, op, "cols"),
            (decode_povm, encode_povm(nu), "dim"),
            (decode_autocov, encode_autocov(autocov_from_povm(nu, 2)), "max_lag"),
            (decode_transfer, transfer, "in_dim"),
            (decode_transfer, transfer, "out_dim"),
        ]
        for decode, doc, key in cases:
            with pytest.raises(FormatError, match=key):
                decode(doc | {key: float(doc[key]) + 0.5})
        doc = {"taps": [{"s": -1.5, "op": op}]}
        with pytest.raises(FormatError, match="'s'"):
            decode_fir(doc)
        # FIR lags are signed
        assert set(decode_fir({"taps": [{"s": -1, "op": op}]}).taps) == {-1}

    def test_empty_measure_reaches_the_constructor(self):
        with pytest.raises(DimensionError, match="at least one atom") as info:
            decode_povm({"dim": 2, "atoms": []})
        assert not isinstance(info.value, FormatError)

    def test_stack_counts(self):
        rng = make_rng(715)
        nu = random_povm(rng, 2, 3)
        doc = encode_povm(nu)
        doc["atoms"][1]["weight"]["rows"] = 3
        with pytest.raises(FormatError):
            decode_povm(doc)
        doc = encode_autocov(autocov_from_povm(nu, 2))
        with pytest.raises(FormatError):
            decode_autocov(doc | {"max_lag": 3})
        doc = encode_transfer(random_transfer(rng, 2, 2, nu.freqs))
        with pytest.raises(FormatError):
            decode_transfer(doc | {"freqs": doc["freqs"][:2]})


class TestNumbers:
    """Frequencies and ``[re, im]`` entries are JSON numbers: a string, a
    boolean, ``null``, a nested list or an integer beyond the float range
    is refused, not converted."""

    def test_measure_frequency(self):
        doc = encode_povm(AtomicTracePovm(1, [0.5], [[[1.0]]]))
        atom = doc["atoms"][0]
        assert decode_povm(doc | {"atoms": [atom | {"freq": 0}]}).freqs == [0.0]
        for bad in ["0.5", True, [0.5], None, 10**400]:
            with pytest.raises(FormatError, match="'freq'"):
                decode_povm(doc | {"atoms": [atom | {"freq": bad}]})

    def test_transfer_frequencies_are_a_flat_list(self):
        phi = TransferFunction(1, 1, [-0.5, 0.5], np.ones((2, 1, 1)))
        doc = encode_transfer(phi)
        for bad in [[[-0.5, 0.5]], [[-0.5], [0.5]], ["-0.5", 0.5], [False, 0.5], 0.5,
                    [-0.5, 10**400]]:
            with pytest.raises(FormatError, match="'freqs'"):
                decode_transfer(doc | {"freqs": bad})

    def test_entries(self):
        # integers are numbers; numpy infers no numeric type for the others
        op = decode_operator({"rows": 1, "cols": 1, "entries": [[1, -2]]})
        assert op.dtype == np.complex128 and op[0, 0] == 1 - 2j
        for bad in [[["1", False]], [[None, 0.0]], [[True, False]], [["1", "0"]]]:
            with pytest.raises(FormatError, match="JSON numbers"):
                decode_operator({"rows": 1, "cols": 1, "entries": bad})
