"""Byte-for-byte CLI output, pinned against tests/cli_golden.json.

Every case runs ``cyclicnum.cli.main`` in-process and compares stdout,
stderr and the exit code with the stored reference exactly, so a change
to the report code that moves one space shows up here.  ``{s3}``-style
arguments name group files written by the fixture; ``{out}`` names the
file an ``--out`` case writes, whose text is compared too.

To rebuild the reference at a commit whose output is the intended one:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from cyclicnum.cli import _build_parser, main

GOLDEN = Path(__file__).with_name("cli_golden.json")

GROUP_FILES = {
    "s3": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
    "z6": {"degree": 6, "generators": [[1, 2, 3, 4, 5, 0]]},
}
WITNESS_FILES = {"w21": 21, "w38": 38, "w54": 54, "w114": 114, "w128": 128}

ARGVS = (
    [["check", n] for n in ("1", "4", "15", "20", "21", "999985999949")]
    + [["verify", n] for n in ("6", "12", "18", "100")]
    + [["analyze", "{%s}" % name] for name in ("s3", "z6", "w21", "w38", "w54", "w114", "w128")]
    + [["enumerate", n] for n in ("1", "4", "6", "8")]
)
CASES = (
    [argv + flags for argv in ARGVS for flags in ([], ["--json"])]
    + [["verify", "12", "--json", "--out", "{out}"], ["check", "0"], ["verify", "15"]]
)


def write_group_files(directory: Path) -> dict[str, str]:
    paths = {}
    for name, data in GROUP_FILES.items():
        paths[name] = str(directory / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(data))
    for name, n in WITNESS_FILES.items():
        paths[name] = str(directory / f"{name}.json")
        if main(["witness", str(n), "--out", paths[name]]) != 0:
            raise RuntimeError(f"cannot write the order-{n} witness")
    return paths


def run_case(argv: list[str], paths: dict[str, str], capture) -> dict:
    """Run one case; ``capture()`` returns the (stdout, stderr) written so far."""
    capture()
    rc = main([arg.format(**paths) for arg in argv])
    out, err = capture()
    result = {"argv": argv, "exit": rc, "stdout": out}
    if err:
        result["stderr"] = err
    if "{out}" in argv:
        result["out"] = Path(paths["out"]).read_text(encoding="utf-8")
    return result


@pytest.fixture(scope="module")
def golden():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_reference_covers_every_case(golden):
    assert sorted(golden) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_is_byte_identical(argv, golden, capsys, tmp_path):
    paths = write_group_files(tmp_path)
    paths["out"] = str(tmp_path / "report.out")

    def capture():
        captured = capsys.readouterr()
        return captured.out, captured.err

    assert run_case(argv, paths, capture) == golden[tuple(argv)]


def test_one_parser_serves_a_usage_error_and_the_requests_after_it(golden, capsys):
    def capture():
        captured = capsys.readouterr()
        return captured.out, captured.err

    assert _build_parser() is _build_parser()
    capture()
    assert main(["check"]) == 2
    out, err = capture()
    assert out == "" and "required: N" in err
    for argv in (["check", "15"], ["verify", "12", "--json"], ["enumerate", "4"]):
        assert run_case(argv, {}, capture) == golden[tuple(argv)]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_group_files(Path(tmp))
        paths["out"] = str(Path(tmp) / "report.out")
        out, err = io.StringIO(), io.StringIO()

        def capture():
            texts = out.getvalue(), err.getvalue()
            for buf in (out, err):
                buf.seek(0)
                buf.truncate()
            return texts

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cases = [run_case(argv, paths, capture) for argv in CASES]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
