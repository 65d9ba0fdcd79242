"""JSON encodings of every value the command line reads or writes.

Complex numbers are serialised as two-element arrays ``[re, im]``
everywhere; floats keep full precision (shortest round-trip decimal), so a
write followed by a read reproduces every value exactly.  Whole arrays
cross the boundary in one step: :func:`encode_pairs` turns a complex array
of any shape into nested lists ending in ``[re, im]``, and
:func:`decode_pairs` reads them back with one ``np.array`` and a shape
check against the counts the document declares.  A document whose arrays
do not match those counts raises :class:`~opspectra.errors.FormatError`,
and so does a count that is not a JSON integer.

Files are written compactly (sorted keys, no insignificant whitespace):
any ``indent`` makes :mod:`json` fall back from its C encoder to the
pure-Python one, which dominated the time of every command that writes a
series.  Any JSON layout is accepted on read.

Memory.  The encoders return nested lists of Python floats, about 76
bytes per float, and :func:`read_json` holds a file's whole text and
then its nested lists; both are the peak of a command that reads or
writes a series.  :func:`write_json` adds little to them: it writes one
member of the document (one item of a list member) at a time, so the
whole text and its encoded bytes never exist.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bochner import AutocovarianceSequence
from .errors import DimensionError, FormatError
from .povm import AtomicTracePovm
from .random_measure import ProcessSample
from .transfer import FirFilter, TransferFunction

__all__ = [
    "decode_autocov",
    "decode_fir",
    "decode_operator",
    "decode_pairs",
    "decode_povm",
    "decode_series",
    "decode_transfer",
    "encode_autocov",
    "encode_fir",
    "encode_operator",
    "encode_pairs",
    "encode_povm",
    "encode_series",
    "encode_transfer",
    "read_json",
    "write_json",
]


def encode_pairs(a) -> list:
    """A complex array of any shape as nested lists ending in ``[re, im]``."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def decode_pairs(pairs, shape) -> np.ndarray:
    """Inverse of :func:`encode_pairs` for an array of the given shape.

    A read-only view of a fresh array, which a record keeps without a copy;
    short, long or ragged nesting, and entries that are not all JSON
    numbers (strings, ``null``, or booleans only), raise :class:`FormatError`.
    """
    shape = tuple(shape)
    try:
        arr = np.array(pairs, order="C")
        if arr.dtype.kind not in "iuf":
            raise TypeError(f"entries must be JSON numbers, got {arr.dtype}")
    except (TypeError, ValueError) as exc:
        raise FormatError(f"expected {shape} [re, im] pairs: {exc}") from exc
    arr = arr.astype(np.float64, copy=False)
    if arr.size == 0 and 0 in shape:
        # an empty list carries no inner axes to compare
        arr = arr.reshape(shape + (2,))
    if arr.shape != shape + (2,):
        raise FormatError(
            f"expected {shape} [re, im] pairs, got an array of shape {arr.shape}"
        )
    arr.flags.writeable = False
    # a view, bit-exact with signed zeros, where re + 1j * im is not
    return arr.view(np.complex128).reshape(shape)


def _integer(obj, key: str, signed: bool = False) -> int:
    """``obj[key]`` as declared: an integer that is not a boolean, and
    non-negative unless ``signed``; anything else raises
    :class:`FormatError` instead of being truncated."""
    value = obj[key]
    if type(value) is not int or (value < 0 and not signed):
        kind = "an integer" if signed else "a non-negative integer"
        raise FormatError(f"{key!r} must be {kind}, got {value!r}")
    return value


def _floats(values, key: str) -> np.ndarray:
    """``values``, a flat list of JSON numbers (``int`` or ``float``, not a
    boolean), as floats; anything else, or an integer beyond the float
    range, raises :class:`FormatError`."""
    if type(values) is not list or any(type(v) not in (int, float) for v in values):
        raise FormatError(f"{key!r} values must be JSON numbers in a flat list")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError as exc:
        raise FormatError(f"{key!r} values must be within the float range") from exc


def _encode_stack(stack) -> list:
    """One operator document per matrix of an ``(n, rows, cols)`` stack."""
    n, rows, cols = stack.shape
    entries = encode_pairs(np.reshape(stack, (n, rows * cols)))
    return [{"rows": rows, "cols": cols, "entries": e} for e in entries]


def _decode_stack(objs, shape) -> np.ndarray:
    """Inverse of :func:`_encode_stack`; ``shape`` is the declared
    ``(n, rows, cols)`` and every document must match it."""
    n, rows, cols = shape
    for obj in objs:
        if (_integer(obj, "rows"), _integer(obj, "cols")) != (rows, cols):
            raise FormatError(
                f"expected {rows}x{cols} operators,"
                f" got {obj['rows']}x{obj['cols']}"
            )
    flat = decode_pairs([obj["entries"] for obj in objs], (n, rows * cols))
    return flat.reshape(shape)


def encode_operator(a) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError("operators are 2-d")
    return _encode_stack(a[None])[0]


def decode_operator(obj) -> np.ndarray:
    rows, cols = _integer(obj, "rows"), _integer(obj, "cols")
    return _decode_stack([obj], (1, rows, cols))[0]


def encode_povm(nu: AtomicTracePovm) -> dict:
    return {
        "dim": nu.dim,
        "atoms": [
            {"freq": f, "weight": w}
            for f, w in zip(nu.freqs.tolist(), _encode_stack(nu.weights))
        ],
    }


def decode_povm(obj) -> AtomicTracePovm:
    dim = _integer(obj, "dim")
    atoms = obj["atoms"]
    freqs = _floats([a["freq"] for a in atoms], "freq")
    weights = _decode_stack([a["weight"] for a in atoms], (len(atoms), dim, dim))
    return AtomicTracePovm(dim=dim, freqs=freqs, weights=weights)


def encode_autocov(g: AutocovarianceSequence) -> dict:
    return {"dim": g.dim, "max_lag": g.max_lag, "values": _encode_stack(g.values)}


def decode_autocov(obj) -> AutocovarianceSequence:
    dim, max_lag = _integer(obj, "dim"), _integer(obj, "max_lag")
    values = _decode_stack(obj["values"], (max_lag + 1, dim, dim))
    return AutocovarianceSequence(dim=dim, max_lag=max_lag, values=values)


def encode_transfer(phi: TransferFunction) -> dict:
    out = {
        "in_dim": phi.in_dim,
        "out_dim": phi.out_dim,
        "freqs": phi.freqs.tolist(),
        "ops": _encode_stack(phi.ops),
    }
    if phi.domains is not None:
        out["domains"] = _encode_stack(phi.domains)
    return out


def decode_transfer(obj) -> TransferFunction:
    in_dim, out_dim = _integer(obj, "in_dim"), _integer(obj, "out_dim")
    freqs = _floats(obj["freqs"], "freqs")
    n = freqs.size
    domains = obj.get("domains")
    if domains is not None:
        domains = _decode_stack(domains, (n, in_dim, in_dim))
    return TransferFunction(
        in_dim=in_dim,
        out_dim=out_dim,
        freqs=freqs,
        ops=_decode_stack(obj["ops"], (n, out_dim, in_dim)),
        domains=domains,
    )


def encode_fir(fir: FirFilter) -> dict:
    return {
        "taps": [
            {"s": int(s), "op": encode_operator(op)}
            for s, op in sorted(fir.taps.items())
        ]
    }


def decode_fir(obj) -> FirFilter:
    taps = {}
    for t in obj["taps"]:
        s = _integer(t, "s", signed=True)
        if s in taps:
            raise FormatError(f"FIR lag {s} is given more than once")
        taps[s] = decode_operator(t["op"])
    return FirFilter(taps=taps)


def encode_series(x: ProcessSample) -> dict:
    return {
        "dim": x.dim,
        "period": x.period,
        "realizations": x.n_realizations,
        "values": encode_pairs(x.values),
    }


def decode_series(obj) -> ProcessSample:
    shape = tuple(_integer(obj, k) for k in ("realizations", "period", "dim"))
    values = decode_pairs(obj["values"], shape)
    return ProcessSample(dim=shape[2], period=shape[1], values=values)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _items(value):
    """``_dumps(value)`` in consecutive pieces: one per item of a list,
    else the whole text."""
    if not isinstance(value, list):
        yield _dumps(value)
        return
    yield "["
    for i, item in enumerate(value):
        yield ("," if i else "") + _dumps(item)
    yield "]"


def _pieces(obj):
    """``_dumps(obj)`` in consecutive pieces: one per member of an object,
    in key order, each list member item by item.  An object with a key
    that is not a string is one piece, because :mod:`json` converts and
    sorts such keys its own way."""
    if not (isinstance(obj, dict) and all(type(key) is str for key in obj)):
        yield from _items(obj)
        return
    yield "{"
    for i, key in enumerate(sorted(obj)):
        yield ("," if i else "") + _dumps(key) + ":"
        yield from _items(obj[key])
    yield "}"


def write_json(obj, path) -> None:
    """Deterministic compact JSON dump: sorted keys, full-precision floats,
    no insignificant whitespace, one trailing newline.

    The file receives the text piece by piece: one member of the document,
    or one item where the document or a member is a list (a realization
    of a series, an atom of a measure, a row of a report).  Held while
    writing: ``obj`` itself, and one piece's text with the encoder's
    working set for it.  Never held: the whole text, or its encoded bytes.
    The bytes are those of one ``json.dumps`` of the whole document.  A
    write that fails partway leaves a truncated document in the file,
    which every JSON reader rejects; ``path`` is written in place (it may
    be a device or a pipe), never through a temporary file.

    Compact separators keep :mod:`json` on its C encoder; any ``indent``
    forces the pure-Python encoder, several times slower on large series.
    """
    with Path(path).open("w") as fh:
        for piece in _pieces(obj):
            fh.write(piece)
        fh.write("\n")


def read_json(path):
    return json.loads(Path(path).read_text())
