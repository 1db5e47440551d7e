"""Every report of tests/report_corpus.py matches the digest recorded for it."""

from report_corpus import DIGESTS, digests, mismatches, recorded


def test_the_corpus_reports_match_their_recorded_digests():
    then = recorded()
    assert len(then) == 124
    assert not mismatches(digests(), then), f"re-record {DIGESTS.name} with --write if meant"


def test_mismatches_names_a_moved_a_missing_and_an_extra_report():
    then = {"a": "1", "b": "2", "c": "3"}
    assert mismatches({"a": "1", "b": "9", "d": "4"}, then) == ["b", "c", "d"]
    assert mismatches(dict(then), then) == []
