"""Every case of the CLI byte-identity corpus, run in-process through `cli.run`."""

from __future__ import annotations

import json

import pytest

from cli_corpus import CASES, CORPUS, in_process

RECORDS = json.loads(CORPUS.read_text())


def test_corpus_file_holds_every_case():
    assert [r["argv"] for r in RECORDS] == CASES


@pytest.mark.parametrize("want", RECORDS, ids=lambda r: " ".join(r["argv"]) or "<no argv>")
def test_case_is_byte_identical(monkeypatch, want):
    monkeypatch.setenv("COLUMNS", "80")
    assert in_process(want["argv"]) == want
