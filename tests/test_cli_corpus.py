"""Every case of the CLI byte-identity corpus, run in-process through `cli.run`.

The process-only cases are skipped here; `tests/cli_corpus.py --processes` runs them.
"""

from __future__ import annotations

import json

import pytest

from cobweb import cli

from cli_corpus import CASES, CORPUS, in_process, in_process_records, two_passes

ALL_RECORDS = json.loads(CORPUS.read_text())
RECORDS = in_process_records(ALL_RECORDS)


def test_corpus_file_holds_every_case():
    assert [r["argv"] for r in ALL_RECORDS] == CASES


@pytest.mark.parametrize("want", RECORDS, ids=lambda r: " ".join(r["argv"]) or "<no argv>")
def test_case_is_byte_identical(monkeypatch, want):
    monkeypatch.setenv("COLUMNS", "80")
    assert in_process(want["argv"]) == want


def test_every_case_twice_in_one_process(monkeypatch):
    # From fresh parsers, then in reverse order on the parsers the first pass built.
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    assert [in_process(want["argv"]) for want in two_passes(RECORDS)] == two_passes(RECORDS)
