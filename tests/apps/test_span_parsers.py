"""Every span parser equals its oracle, row for row.

``parse_chunk`` scans the chunk as one ``uint8`` vector and gathers spans;
the generators it replaced (``_emit`` / ``_emit_pairs`` / ``_extract_url``,
``bytes.split`` for Word Count) are what ``reference()`` still runs.  The
batch a parser returns must be, element for element and in the same order,
the batch the list path (``from_pairs`` / ``from_numeric``) builds from the
oracle's emission: keys, lengths, values and their dtypes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import (
    ALL_APPS,
    DnaAssembly,
    GeoLocation,
    InvertedIndex,
    Netflix,
    PageViewCount,
    PatentCitation,
    WordCount,
)
from repro.apps.dna_assembly import _BASE_CODE
from repro.apps.pvc import _extract_url
from repro.core.records import BatchCache, RecordBatch

DNA = DnaAssembly(read_len=8, k=4, step=2)


def netflix(window: int) -> Netflix:
    """Netflix pairing each rater with the next ``window`` raters."""
    app = Netflix()
    app.pair_window = window
    return app


# ----------------------------------------------------------------------
# the oracle's emission through the list path
# ----------------------------------------------------------------------
def oracle_batch(app, chunk: bytes) -> RecordBatch:
    if isinstance(app, WordCount):
        words = chunk.split()
        return RecordBatch.from_numeric(words, np.ones(len(words), dtype=np.int64))
    if isinstance(app, PageViewCount):
        urls = [
            url for url in map(_extract_url, chunk.split(b"\n")) if url is not None
        ]
        return RecordBatch.from_numeric(urls, np.ones(len(urls), dtype=np.int64))
    if isinstance(app, Netflix):
        pairs = list(app._emit_pairs(chunk.split(b"\n")))
        return RecordBatch.from_numeric(
            [key for key, _ in pairs],
            np.array([value for _, value in pairs], dtype=np.float64),
        )
    if isinstance(app, DnaAssembly):
        return _dna_oracle(app, chunk)
    return RecordBatch.from_pairs(list(app._emit(chunk)))


def _dna_oracle(app: DnaAssembly, chunk: bytes) -> RecordBatch:
    """``reference()``'s loop, emitting in the parser's order: every read's
    first k-mer, then every read's second one, ..."""
    reads = [line for line in chunk.split(b"\n") if len(line) == app.read_len]
    keys, masks = [], []
    for s in app._kmer_starts():
        for read in reads:
            mask = 0
            if s > 0:
                mask |= 1 << int(_BASE_CODE[read[s - 1]])
            if s + app.k < len(read):
                mask |= 16 << int(_BASE_CODE[read[s + app.k]])
            keys.append(read[s : s + app.k])
            masks.append(mask)
    return RecordBatch.from_numeric(keys, np.array(masks, dtype=np.uint64))


def assert_same_batch(got: RecordBatch, want: RecordBatch) -> None:
    for name in ("keys", "key_lens", "numeric_values", "values", "val_lens"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert a is not None, name
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def check(app, chunk: bytes) -> RecordBatch:
    got = app.parse_chunk(chunk)
    assert_same_batch(got, oracle_batch(app, chunk))
    return got


# ----------------------------------------------------------------------
# property: chunks drawn from each app's own alphabet
# ----------------------------------------------------------------------
#: bytes every alphabet carries: the other whitespace, NUL, high bytes
NOISE = [b"\r", b"\t", b"\x0b", b"\x0c", b"\x00", b"\xff", b"\xb2", b"x"]


def chunks(*tokens: bytes):
    """Concatenations of ``tokens`` and noise, newline-heavy, ending with
    and without a newline."""
    token = st.sampled_from(list(tokens) + NOISE + [b"\n", b"\n"])
    return st.builds(
        lambda parts, tail: b"".join(parts) + tail,
        st.lists(token, max_size=40),
        st.sampled_from([b"", b"\n"]),
    )


ALPHABETS = [
    (WordCount(), chunks(b" ", b"  ", b"w", b"word")),
    (PageViewCount(), chunks(b'"GET ', b'"GET', b"GET ", b'"', b" ", b"/a", b"u")),
    (PatentCitation(), chunks(b" ", b"  ", b"5", b"41", b"7")),
    (GeoLocation(), chunks(b"\t", b"\t\t", b"12", b"1.5,2", b" ")),
    (
        Netflix(),
        chunks(b",", b",", b"1", b"01", b"7", b"30", b"0", b"+", b" ", b"_",
               b"1234567890123456789", b"1,2,3\n", b"1,3,5\n", b"1,4,1\n"),
    ),
    (netflix(3), chunks(b"1,", b"2,", b"9,", b"4\n", b"1\n", b"0", b",")),
    (
        InvertedIndex(),
        chunks(b"--FILE:", b"--", b"-", b'href="', b'href=', b'"', b'""',
               b"p.html", b"http://a/", b"<a ", b">"),
    ),
    (DNA, chunks(b"ACGTACGT", b"ACGT", b"TTGACCAG", b"A", b"N", b"GGGGGGGG\n")),
]


@pytest.mark.parametrize(
    "app, strategy", ALPHABETS, ids=[f"{a.name}-{i}" for i, (a, _) in enumerate(ALPHABETS)]
)
def test_parser_equals_oracle_on_its_alphabet(app, strategy):
    @settings(max_examples=300, deadline=None)
    @given(strategy)
    def run(chunk):
        check(app, chunk)

    run()


@pytest.mark.parametrize("cls", ALL_APPS, ids=lambda c: c.name)
@pytest.mark.parametrize("seed", [0, 7])
def test_parser_equals_oracle_on_generated_input(cls, seed):
    app = cls()
    data = app.generate_input(40_000, seed=seed)
    for chunk in [data, data.rstrip(b"\n"), data[13:7001], *app.partition(data, 9_000)]:
        check(app, chunk)


# ----------------------------------------------------------------------
# fixed adversarial cases
# ----------------------------------------------------------------------
def keys_of(batch):
    return [batch.key_bytes(i) for i in range(len(batch))]


def pairs_of(batch):
    return [(batch.key_bytes(i), batch.value_bytes(i)) for i in range(len(batch))]


DOC = b"--FILE:p.html--\n"


@pytest.mark.parametrize(
    "chunk, want",
    [
        # the second href= sits inside the first one's value: the regex
        # consumed its quote as the closing one
        (DOC + b'href="abchref="xyz"', [(b"abchref=", b"p.html")]),
        (DOC + b'href="a"href="b"href="c"', [(b"a", b"p.html"), (b"b", b"p.html"), (b"c", b"p.html")]),
        (DOC + b'href="ahref="bhref="c"', [(b"ahref=", b"p.html"), (b"c", b"p.html")]),
        (DOC + b'href="ahref="bhref="chref="d"', [(b"ahref=", b"p.html"), (b"chref=", b"p.html")]),
        (DOC + b'href=""', []),
        (DOC + b'href=""href="x"', [(b"x", b"p.html")]),
        # an unclosed quote does not run into the next document ...
        (DOC + b'href="abc\n--FILE:q.html--\n"href="z"', [(b"z", b"q.html")]),
        # ... even when that document opens on a candidate
        (DOC + b'href="abc\n--FILE:q--href="z"', [(b"z", b"q")]),
        # a link before the path terminator belongs to the path
        (b'--FILE:href="a"--href="b"', [(b"b", b'href="a"')]),
        # a document without "--" is skipped, its neighbours are not
        (DOC + b'href="a"--FILE:broken href="b"\n' + DOC + b'href="c"',
         [(b"a", b"p.html"), (b"c", b"p.html")]),
        # text before the first marker is a document like any other
        (b'pre--href="a"' + DOC, [(b"a", b"pre")]),
        (b"--FILE:--href=\"a\"", [(b"a", b"")]),
        (b'href="a"', []),
        (b'"', []),
    ],
)
def test_inverted_index_adversarial(chunk, want):
    assert pairs_of(check(InvertedIndex(), chunk)) == want


@pytest.mark.parametrize(
    "chunk, want",
    [
        (b'a "GET /one x "GET /two y\n', [b"/one"]),  # first request wins
        (b'a "GET /nospace\nb "GET /u v\n', [b"/u"]),  # no later space on its line
        (b'a "GET /end', []),
        (b'a "GET  x\n', [b""]),  # an empty URL is a URL
        (b'"GET ', []),
        (b'"GET', []),
    ],
)
def test_pvc_adversarial(chunk, want):
    assert keys_of(check(PageViewCount(), chunk)) == want


@pytest.mark.parametrize(
    "chunk, want",
    [
        (b"1\t2\t3\n", [(b"2\t3", b"1")]),  # the cell keeps later tabs
        (b"1\t\n", []),  # tab at end of line: no cell
        (b"\tcell\n", [(b"cell", b"")]),
        (b"1\n\t\n2\tc", [(b"c", b"2")]),
    ],
)
def test_geo_adversarial(chunk, want):
    assert pairs_of(check(GeoLocation(), chunk)) == want


@pytest.mark.parametrize(
    "chunk, want",
    [
        (b" 5\n", [(b"5", b"")]),  # leading space: an empty citing field
        (b"5 \n", [(b"", b"5")]),
        (b"5  4\n", []),  # two spaces are three fields
        (b"5 4 3\n6 7", [(b"7", b"6")]),
        (b" \n", [(b"", b"")]),
    ],
)
def test_patent_adversarial(chunk, want):
    assert pairs_of(check(PatentCitation(), chunk)) == want


def test_netflix_movie_ids_compare_bytewise():
    # b"1" and b"01" are different movies; users 07 and 7 the same user
    batch = check(Netflix(), b"1,07,3\n01,8,3\n01,7,5\n")
    assert keys_of(batch) == [b"7&8"]
    assert batch.numeric_values.tolist() == [0.5]


def test_netflix_group_longer_than_window():
    lines = b"".join(b"9,%d,%d\n" % (u, u % 5 + 1) for u in range(10, 0, -1))
    batch = check(netflix(3), lines)
    assert len(batch) == 9 + 8 + 7
    assert keys_of(batch)[:4] == [b"9&10", b"8&10", b"7&10", b"8&9"]


def test_netflix_malformed_line_does_not_cut_its_group():
    batch = check(netflix(1), b"5,1,1\n5,x,1\n5,2\n\n5,3,5\n6,4,1\n")
    assert keys_of(batch) == [b"1&3"]
    assert batch.numeric_values.tolist() == [0.0]


@pytest.mark.parametrize(
    "field", [b"x", b" 7 ", b"+5", b"1_0", b"", b"-1", b"1.0", b"\xb2", b"1" * 19]
)
def test_netflix_skips_lines_with_a_non_numeric_field(field):
    """Fails at the parent: ``int()`` raised on some of these and accepted
    the rest; now user and stars are 1-18 ASCII digits or the line is
    skipped, in the parser and the oracle alike."""
    nf = Netflix()
    for line in (b"1,%s,4\n" % field, b"1,9,%s\n" % field):
        chunk = b"1,2,3\n" + line + b"1,5,5\n"
        assert keys_of(check(nf, chunk)) == [b"2&5"]
        assert nf.reference(chunk) == {b"2&5": 0.5}


def test_netflix_longest_numbers():
    big = b"9" * 18
    batch = check(Netflix(), b"1,%s,%s\n1,0,000\n" % (big, big))
    assert keys_of(batch) == [b"0&" + big]


# ----------------------------------------------------------------------
# DNA framing: by newline positions, not by arithmetic
# ----------------------------------------------------------------------
def test_dna_keeps_unterminated_full_read():
    """Fails at the parent, which took ``len(chunk) // (read_len + 1)``
    reads and lost the last one."""
    dna = DnaAssembly()
    data = dna.generate_input(2000).rstrip(b"\n")
    batch = check(dna, data)
    table = {}
    for key, mask in zip(keys_of(batch), batch.numeric_values.tolist()):
        table[key] = table.get(key, 0) | mask
    assert table == dna.reference(data)
    assert len(batch) == (data.count(b"\n") + 1) * len(dna._kmer_starts())


def test_dna_skips_ragged_lines():
    """Fails at the parent: one short line mis-framed every read after it,
    and ``reference()`` raised ``IndexError`` on it."""
    chunk = b"ACGTACGT\nACG\nTTGACCAG\nACGTACGTA\n\nGGGGCCCC"
    batch = check(DNA, chunk)
    assert len(batch) == 3 * len(DNA._kmer_starts())
    assert set(keys_of(batch)) == set(DNA.reference(chunk))
    assert b"ACGT" in DNA.reference(chunk) and b"GGCC" in DNA.reference(chunk)


# ----------------------------------------------------------------------
# the default path makes no per-record bytes on the input side
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", ALL_APPS, ids=lambda c: c.name)
def test_input_side_makes_no_per_record_bytes(cls, monkeypatch):
    app = cls()
    data = app.generate_input(30_000, seed=3)
    want = app.reference(data)

    def banned(*args, **kwargs):
        raise AssertionError("per-record bytes on the default input path")

    monkeypatch.setattr(BatchCache, "key_bytes_list", banned)
    monkeypatch.setattr(BatchCache, "value_bytes_list", banned)
    monkeypatch.setattr(RecordBatch, "from_pairs", banned)
    monkeypatch.setattr(RecordBatch, "from_numeric", banned)
    # few bucket groups, so that the table fits the scaled-down heap and
    # the run is one iteration
    outcome = app.run_gpu(data, scale=1024, chunk_bytes=8_000, n_buckets=1 << 10)
    assert outcome.iterations == 1
    got = outcome.output()
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, list):
            assert sorted(got[key]) == sorted(value)
        elif isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-9)
        else:
            assert got[key] == value
