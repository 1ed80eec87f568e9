"""The Hypothesis strategy of byte edits that the text-reader tests apply
to a well-formed file: each edited file must load or raise DataError."""

from hypothesis import strategies as st

#: what a byte edit writes: line breaks, whitespace, separators, a sign, an
#: exponent, a quote, digits, a non-ASCII byte, a run past int64, the JSON
#: escape of NUL and a run of brackets that, repeated, nests past the JSON
#: parser's limit of 1000
EDIT_PIECES = [b"\r", b" ", b"\n", b"\x0b", b"\x0c", b",", b"-", b".", b"e", b'"', b"0", b"9",
               b"\xff", b"1" * 25, b"\\u0000", b"[" * 500]
#: (kind, offset from the end, piece, repeats); counting from the end makes
#: the last row's line break as likely a target as the first byte
byte_edits = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 400),
              st.sampled_from(EDIT_PIECES), st.integers(1, 3)),
    min_size=1, max_size=3,
)


def apply_byte_edits(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, back, piece, repeats in edits:
        pos = max(len(out) - back, 0)
        out[pos : pos + repeats * (kind != "insert")] = b"" if kind == "delete" else piece * repeats
    return bytes(out)
