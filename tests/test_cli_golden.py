"""Golden CLI output: sha256 of [exit code, stdout, stderr] per invocation.

Covers every seed subcommand (with its --oracle / --strict-21 variants) in
each output format at four seeds; at (1000, 7) the table, cone and apery
JSON, the table as text and as CSV, and the cone as CSV; and two refusals.  The digests live in ``golden_cli.json``;
rewrite them with ``PYTHONPATH=src python tests/test_cli_golden.py`` only
when an output is meant to change.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from apsum.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

SEEDS = [(11, 2), (21, 1), (23, 1), (137, 4)]
VARIANTS = [
    ["info"],
    ["info", "--m", "6"],
    ["apery"],
    ["apery", "--oracle"],
    ["frobenius"],
    ["frobenius", "--oracle"],
    ["pf"],
    ["pf", "--oracle"],
    ["order"],
    ["ideal", "list"],
    ["ideal", "list", "--strict-21"],
    ["ideal", "verify"],
    ["table"],
    ["cone"],
    ["hilbert"],
]


def _cases() -> list[list[str]]:
    cases = []
    for a, d in SEEDS:
        for variant in VARIANTS:
            extra = ["--value", str(9 * a + 12 * d)] if variant == ["order"] else []  # 2*(2a+d) + (5a+10d)
            for fmt in ("json", "csv", "table"):
                cases.append(variant + ["--a", str(a), "--d", str(d)] + extra + ["--format", fmt])
    cases.append(["table", "--a", "1000", "--d", "7"])
    cases.append(["cone", "--a", "1000", "--d", "7"])
    cases.append(["apery", "--a", "1000", "--d", "7"])
    cases.append(["table", "--a", "1000", "--d", "7", "--format", "table"])
    cases.append(["table", "--a", "1000", "--d", "7", "--format", "csv"])
    cases.append(["cone", "--a", "1000", "--d", "7", "--format", "csv"])
    cases.append(["info", "--a", "12", "--d", "2"])  # not coprime: exit 3
    cases.append(["pf", "--a", "10", "--d", "3"])  # below the minimality threshold: exit 3
    return cases


CASES = _cases()


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = json.dumps([code, out.getvalue(), err.getvalue()], separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert digest(argv) == golden[" ".join(argv)]


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({" ".join(argv): digest(argv) for argv in CASES}, indent=1) + "\n")
