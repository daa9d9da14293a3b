"""The figures pinned at this tree's physics against tests/recorded.json.

Every figure of tests/recorded.py is compared with the file at the
tolerance it is registered with, and recording the tree as it stands
rewrites the file byte for byte.  Both read one computation of the
figures per session.
"""
import pytest

import recorded


@pytest.fixture(scope="session")
def figures():
    return recorded.compute()


@pytest.fixture(scope="session")
def record():
    return recorded.load()


@pytest.mark.parametrize("name", sorted(recorded.FIGURES))
def test_figure_matches_the_record(name, figures, record):
    figure = recorded.FIGURES[name]
    assert figures[name] == pytest.approx(record[name], rel=figure.rel,
                                          abs=figure.abs)


def test_recording_an_unchanged_tree_rewrites_the_file(figures):
    assert recorded.dumps(figures) == recorded.RECORD_PATH.read_text()
