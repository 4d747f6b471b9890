"""Smoke tests: each experiment script's main() runs at a tiny size."""

import ast
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from ntglab import specfun

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *argv])
    module.main()
    return capsys.readouterr().out.splitlines()


def test_risk_difference_study(monkeypatch, capsys):
    lines = _run(
        "risk_difference_study",
        ["--n", "2000", "--dims", "1", "--dofs", "2", "--kappas", "0.25", "1"],
        monkeypatch, capsys,
    )
    assert lines[0].split() == ["p", "m", "kappa", "closed", "mc", "se", "z"]
    rows = [line.split() for line in lines[1:]]
    # One row per cell: the pivotal estimate reads no eps.
    assert [row[:3] for row in rows] == [["1", "2", "0.250"], ["1", "2", "1.000"]]
    assert all(math.isfinite(float(row[6])) for row in rows)


def test_blyth_scaling_sweep(monkeypatch, capsys):
    lines = _run(
        "blyth_scaling_sweep", ["--dims", "1", "--halvings", "2"], monkeypatch, capsys
    )
    table = [line.split() for line in lines if line and line[0] == " "]
    assert table[0] == ["kappa", "K", "delta", "K*delta", "ratio"]
    assert [float(row[0]) for row in table[1:]] == [0.4, 0.2]
    assert len(table[2]) == 5


def _table(lines):
    name, _, literal = "\n".join(lines).partition(" = ")
    assert name == "_TEMME_C"
    return ast.literal_eval(literal)


def test_temme_coefficients(monkeypatch, capsys):
    rows = _table(_run("temme_coefficients", ["--terms", "3", "--degree", "2"],
                       monkeypatch, capsys))
    # Known values (Temme 1979; DiDonato & Morris 1986).
    assert rows[0] == pytest.approx([-1 / 3, 1 / 12, -2 / 135], rel=1e-15)
    assert rows[1][0] == pytest.approx(-1 / 540, rel=1e-15)
    assert rows[2][0] == pytest.approx(25 / 6048, rel=1e-15)
    # specfun's table is the script's output: its leading block at low
    # order, all of it at the table's own order.
    assert tuple(row[:3] for row in specfun._TEMME_C[:3]) == rows
    terms, degree = len(specfun._TEMME_C), len(specfun._TEMME_C[0]) - 1
    full = _run("temme_coefficients", ["--terms", str(terms), "--degree", str(degree)],
                monkeypatch, capsys)
    assert _table(full) == specfun._TEMME_C


def test_specfun_layer_bench(monkeypatch, capsys):
    out = json.loads("\n".join(_run(
        "specfun_layer_bench", ["--seconds", "0.001", "--sizes", "4"], monkeypatch, capsys)))
    assert set(out["scalar_us_per_call"]) == {
        "series", "continued_fraction", "temme", "small_shape", "recurrence"}
    figures = [v for branch in out["scalar_us_per_call"].values() for v in branch.values()]
    for key in ("array_us_per_element", "array_peak_bytes_per_element"):
        assert set(out[key]) == {"series", "continued_fraction"}
        for side in out[key].values():
            assert set(side) == {"a=1.5,n=4", "a=10.5,n=4"}
            figures += side.values()
    assert all(math.isfinite(v) and v > 0.0 for v in figures)


def test_mc_layer_bench(monkeypatch, capsys):
    out = json.loads("\n".join(_run(
        "mc_layer_bench", ["--seconds", "0.001", "--n", "2000"], monkeypatch, capsys)))
    assert out["n"] == 2000
    assert set(out["draws_per_s"]) == {
        "p=1,m=2,kappa=0.5", "p=1,m=5,kappa=1", "p=2,m=2,kappa=1", "p=2,m=5,kappa=0.25"}
    for cell in out["draws_per_s"].values():
        assert set(cell) == {"workers=1", "default"}
        assert all(math.isfinite(v) and v > 0 for v in cell.values())
    assert set(out["minor_faults_per_estimate"]) == set(out["draws_per_s"])
    for cell in out["minor_faults_per_estimate"].values():
        assert set(cell) == {"workers=1", "default"}
        assert all(isinstance(v, int) and v >= 0 for v in cell.values())
