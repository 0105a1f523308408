"""The mutation runner's own verdicts, on a throwaway project with one function and one test."""

import pytest

from mutants import CATALOG, EQUIVALENT, ROOT, Mutant, run

SOURCE = "def double(x):\n    return 2 * x\n"
TEST = "from toy import double\n\n\ndef test_double():\n    assert double(3) == 6\n"
TESTS = ("tests/test_toy.py",)


@pytest.fixture
def project(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "toy.py").write_text(SOURCE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_toy.py").write_text(TEST)
    return tmp_path


@pytest.mark.parametrize(
    "new, timeout, status, verdict",
    [
        pytest.param("x + x", 60, 1, "SURVIVED", id="survivor"),
        pytest.param("", 60, 0, "killed", id="deletion"),
        # `iter(int, 1)` yields zeros forever, so `min` never returns; it holds no memory.
        pytest.param("min(iter(int, 1))", 5, 0, "killed (timeout)", id="timeout"),
    ],
)
def test_verdict_and_exit_status(project, new, timeout, status, verdict):
    lines = []
    assert run(project, [Mutant("toy.py", "2 * x", new, TESTS)], [], timeout, report=lines.append) == status
    assert [line[: len(verdict)] for line in lines] == [verdict]
    assert (project / "src" / "toy.py").read_text() == SOURCE


def test_stale_entry_fails_and_the_rest_still_run(project):
    lines = []
    catalog = [Mutant("toy.py", "4 * x", "5 * x", TESTS), Mutant("toy.py", "2 * x", "3 * x", TESTS)]
    assert run(project, catalog, [], timeout=60, report=lines.append) == 1
    assert [line.split()[0] for line in lines] == ["STALE", "killed"]


def test_equivalent_mutant_is_listed_not_run(project):
    lines = []
    equivalent = [(Mutant("toy.py", "2 * x", "x + x", TESTS), "the same value")]
    assert run(project, [], equivalent, timeout=60, report=lines.append) == 0
    assert len(lines) == 1 and lines[0].startswith("skipped") and lines[0].endswith("(equivalent: the same value)")


def test_tests_that_fail_unmutated_fail_the_run(project):
    (project / "tests" / "test_toy.py").write_text(TEST.replace("== 6", "== 7"))
    lines = []
    assert run(project, [Mutant("toy.py", "2 * x", "3 * x", TESTS)], [], timeout=60, report=lines.append) == 1
    assert len(lines) == 1 and lines[0].startswith("FAILED")


def test_every_catalog_entry_names_text_that_occurs_once_in_its_file():
    # The catalog run reports a stale entry only after it has copied the tree; this finds one at once.
    stale = []
    for m in CATALOG + [m for m, _ in EQUIVALENT]:
        if (count := (ROOT / "src" / m.file).read_text(encoding="utf-8").count(m.old)) != 1:
            stale.append((m.file, m.old, count))
    assert stale == []
