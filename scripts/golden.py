#!/usr/bin/env python3
"""Rewrite the golden reports under ``tests/golden``.

Each golden file is the standard output of one ``ntglab`` command, run in
process with ``tests/golden`` as the working directory, so that the regress
cases read ``regress.csv`` by the relative path their reports embed.
``manifest.json`` records the facts of the machine that wrote them: the
Python, numpy and scipy versions, the architecture and the CPU flags.
``tests/test_golden.py`` reruns every command and compares the bytes.

Run after a change that is meant to move a report, and say in the change
log which numbers moved and why:

    PYTHONPATH=src python3 scripts/golden.py
"""

import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
_REGRESS = ["regress", "--csv", "regress.csv", "--response", "y", "--intercept"]
CASES = {
    "verify_seed7.json": ["verify", "--seed", "7"],
    "risk_diff_p1_m2_kappa0.5.json": ["risk-diff", "--seed", "0", "--p", "1", "--m", "2",
                                      "--kappa", "0.5"],
    "risk_diff_p1_m5_kappa1.json": ["risk-diff", "--seed", "0", "--p", "1", "--m", "5",
                                    "--kappa", "1"],
    "risk_diff_p2_m2_kappa1.json": ["risk-diff", "--seed", "0", "--p", "2", "--m", "2",
                                    "--kappa", "1"],
    "risk_diff_p2_m5_kappa0.25.json": ["risk-diff", "--seed", "0", "--p", "2", "--m", "5",
                                       "--kappa", "0.25"],
    "blyth_p2_m3.csv": ["blyth", "--p", "2", "--m", "3"],
    "regress_coef1.txt": [*_REGRESS, "--coef-count", "1"],
    "regress_coef1.json": [*_REGRESS, "--coef-count", "1", "--json"],
    "regress_coef2.txt": [*_REGRESS, "--coef-count", "2"],
    "regress_coef2.json": [*_REGRESS, "--coef-count", "2", "--json"],
}


def facts() -> dict:
    """The versions and CPU flags a report's last digits may depend on."""
    import numpy
    import scipy

    flags = []
    with contextlib.suppress(OSError):  # no /proc/cpuinfo off Linux
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = next((sorted(set(line.split(":", 1)[1].split())) for line in fh
                          if line.startswith("flags")), [])
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpu_flags": flags,
    }


def render(argv: list) -> tuple[int, str]:
    """Exit code and standard output of ``ntglab argv``, run in GOLDEN."""
    from ntglab import cli

    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(GOLDEN)  # contextlib.chdir needs Python 3.11
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def main() -> None:
    for name, argv in CASES.items():
        code, text = render(argv)
        if code != 0:
            sys.exit(f"ntglab {' '.join(argv)} exited {code}")
        (GOLDEN / name).write_bytes(text.encode("utf-8"))
        print(f"wrote {name}")
    (GOLDEN / "manifest.json").write_text(
        json.dumps(facts(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote manifest.json")


if __name__ == "__main__":
    main()
