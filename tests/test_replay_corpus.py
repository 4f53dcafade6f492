"""Journals recorded by earlier versions replay bit-identically today.

Every ``tests/corpus/*.jsonl`` is replayed from its recorded corpus spec
under both in-loop and engine semantics; any moved display, solver seed or
final state hash fails.  See ``tests/corpus/README.md`` for provenance.
"""

from pathlib import Path

import pytest

from repro.serve.replay import (
    ReplayVariant,
    load_journal,
    pool_from_corpus_spec,
    replay_journal,
)

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.jsonl"))


def test_corpus_is_present():
    assert CORPUS


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
@pytest.mark.parametrize("engine_semantics", [False, True], ids=["in-loop", "engine"])
def test_journal_replays_bit_identically(path, engine_semantics):
    journal = load_journal(path)
    pool = pool_from_corpus_spec(journal.corpus_spec)
    variant = ReplayVariant("corpus", engine_semantics=engine_semantics)
    report = replay_journal(journal, pool, variant)
    assert report.ok and report.state_verified, report.to_dict()
    assert report.solves_committed > 0
    assert report.disjointness_violations == 0
