"""Every case of the CLI byte-identity corpus, run in-process through `cli.run`."""

from __future__ import annotations

import json

import pytest

from cobweb import cli

from cli_corpus import CASES, CORPUS, in_process, two_passes

RECORDS = json.loads(CORPUS.read_text())


def test_corpus_file_holds_every_case():
    assert [r["argv"] for r in RECORDS] == CASES


@pytest.mark.parametrize("want", RECORDS, ids=lambda r: " ".join(r["argv"]) or "<no argv>")
def test_case_is_byte_identical(monkeypatch, want):
    monkeypatch.setenv("COLUMNS", "80")
    assert in_process(want["argv"]) == want


def test_every_case_twice_in_one_process(monkeypatch):
    # From fresh parsers, then in reverse order on the parsers the first pass built.
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    assert [in_process(want["argv"]) for want in two_passes(RECORDS)] == two_passes(RECORDS)
