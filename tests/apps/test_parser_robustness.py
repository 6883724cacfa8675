"""Application parsers under malformed / degenerate input.

Real-world logs are dirty; a parser that throws on a truncated line would
take the whole pipeline down.  Policy: skip unparseable records, never
raise, and empty inputs yield empty batches.
"""

import numpy as np
import pytest

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
from tests.apps.test_span_parsers import netflix


@pytest.mark.parametrize("cls", ALL_APPS, ids=lambda c: c.name)
def test_empty_chunk_yields_empty_batch(cls):
    batch = cls().parse_chunk(b"")
    assert len(batch) == 0


@pytest.mark.parametrize("cls", ALL_APPS, ids=lambda c: c.name)
def test_whitespace_only_chunk(cls):
    batch = cls().parse_chunk(b"\n\n\n")
    assert len(batch) == 0


def test_pvc_skips_lines_without_request():
    batch = PageViewCount().parse_chunk(
        b'garbage line\n'
        b'10.0.0.1 - - "GET http://a.com/x HTTP/1.1" 200 17\n'
        b'truncated "GET\n'
    )
    assert len(batch) == 1
    assert batch.key_bytes(0) == b"http://a.com/x"


def test_wordcount_handles_arbitrary_bytes():
    batch = WordCount().parse_chunk(b"\x00\x01 w\xffrd   another\n\tmore")
    assert len(batch) == 4  # whitespace-delimited tokens, bytes included


def test_dna_ignores_trailing_partial_read():
    dna = DnaAssembly(read_len=8, k=4, step=4)
    chunk = b"ACGTACGT\nACGTAC"  # second read truncated
    batch = dna.parse_chunk(chunk)
    # Only the complete read contributes k-mers.
    assert len(batch) == len(list(dna._kmer_starts()))


def test_inverted_index_doc_without_links():
    ii = InvertedIndex()
    chunk = b"--FILE:empty.html--\n<html><body>no links</body></html>\n"
    assert len(ii.parse_chunk(chunk)) == 0


def test_inverted_index_marker_without_path_terminator():
    ii = InvertedIndex()
    chunk = b"--FILE:broken.html\n<a href=\"http://x/\">x</a>\n"
    # No '--' terminator: the document is skipped, not crashed on.
    batch = ii.parse_chunk(chunk)
    assert len(batch) == 0


def test_netflix_single_rater_movie_emits_no_pairs():
    nf = Netflix()
    batch = nf.parse_chunk(b"0,5,3\n1,6,4\n")  # two movies, one rater each
    assert len(batch) == 0


def test_netflix_pairs_scale_with_window():
    lines = b"".join(b"0,%d,3\n" % u for u in range(6))
    w1 = netflix(1).parse_chunk(lines)
    w3 = netflix(3).parse_chunk(lines)
    assert len(w1) == 5
    assert len(w3) == 3 * 6 - (3 + 2 + 1)  # windowed pairs


def test_geolocation_skips_lines_without_tab():
    geo = GeoLocation()
    batch = geo.parse_chunk(b"no-tab-here\n42\t1.5,2.5\n")
    assert len(batch) == 1
    assert batch.key_bytes(0) == b"1.5,2.5"


def test_patent_citation_two_fields():
    pc = PatentCitation()
    batch = pc.parse_chunk(b"5000001 4000001\n")
    assert batch.key_bytes(0) == b"4000001"
    assert batch.value_bytes(0) == b"5000001"


@pytest.mark.parametrize("cls", ALL_APPS, ids=lambda c: c.name)
def test_parse_then_reference_consistency_on_tiny_input(cls):
    """Each app's parse and reference agree even on minimal inputs."""
    app = cls()
    data = app.generate_input(3_000, seed=5)
    batch = app.parse_chunk(data)
    ref = app.reference(data)
    if batch.numeric_values is not None:
        total_ref = len(ref)
        keys = {batch.key_bytes(i) for i in range(len(batch))}
        assert keys == set(ref)
    else:
        n_vals = sum(len(v) for v in ref.values())
        assert len(batch) == n_vals
