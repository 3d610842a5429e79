"""The README's library quick start runs as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples():
    # Fence lines are dropped first: a closing fence right after the last
    # expected output would otherwise be read as part of that output.
    text = "".join(
        line for line in README.read_text(encoding="utf-8").splitlines(keepends=True)
        if not line.lstrip().startswith("```")
    )
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md", str(README), 0)
    assert test.examples, "the README has no >>> examples"
    runner = doctest.DocTestRunner()
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} README examples failed"
