"""Byte-exact CLI output on the built-in scenario.

Each case runs one CLI invocation and compares what it prints, and for the
`--out` cases what it writes, with the files under `tests/golden/`, byte for
byte. Monte Carlo output is left out: its digits follow numpy's multinomial
stream, which numpy does not promise to keep stable across releases;
`test_monte_carlo.py` and `test_delay.py` cover it statistically.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from emrcache.cli import main

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("table", "csv", "json")
SUBCOMMANDS = {
    "allocate": [],
    "delay": [],
    "compare": [],
    "share": [],
    "sweep": ["--max-gb", "200"],
    "dvs-size": [],
    "calibrate": [],
    "report": [],
}

# name -> argv; stdout goes to golden/<name>.txt
PRINT_CASES = {f"{cmd}-{fmt}": [cmd, *extra, "--format", fmt]
               for cmd, extra in SUBCOMMANDS.items() for fmt in FORMATS}
PRINT_CASES.update({f"{cmd}-omission-{fmt}": [cmd, "--mode", "omission", "--format", fmt]
                    for cmd in ("allocate", "compare", "report") for fmt in FORMATS})

# name -> argv run from an empty directory; golden/<name>/ holds stdout.txt,
# stderr.txt and the artifacts under out/
OUT_CASES = {f"{cmd}-out": [cmd, *extra, "--out", "out"] for cmd, extra in SUBCOMMANDS.items()}


def run_cli(argv) -> tuple:
    """(exit code, stdout bytes, stderr bytes) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def capture(name: str, workdir: Path) -> dict:
    """Relative golden path -> bytes for one case; `workdir` is the empty cwd."""
    if name in PRINT_CASES:
        code, out, _ = run_cli(PRINT_CASES[name])
        assert code == 0
        return {f"{name}.txt": out}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code, out, err = run_cli(OUT_CASES[name])
    finally:
        os.chdir(cwd)
    assert code == 0
    files = {f"{name}/stdout.txt": out, f"{name}/stderr.txt": err}
    for path in sorted((workdir / "out").iterdir()):
        files[f"{name}/out/{path.name}"] = path.read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(PRINT_CASES) + sorted(OUT_CASES))
def test_cli_output_matches_golden(name, tmp_path):
    got = capture(name, tmp_path)
    if name in OUT_CASES:
        expected_names = {f"{name}/{p.relative_to(GOLDEN / name).as_posix()}"
                          for p in (GOLDEN / name).rglob("*") if p.is_file()}
        assert sorted(got) == sorted(expected_names)
    for rel, data in got.items():
        assert data == (GOLDEN / rel).read_bytes(), rel
