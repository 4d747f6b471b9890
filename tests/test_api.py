"""The public surface: each module's ``__all__`` resolves, no public name is
exported by two modules, every public name is reached from outside the
tests, ``numint`` is the integration engine only, holds the one
quadrature rule and lends no private name to another module, every
parameter is read, the affinity mask is the one worker control, no
module imports scipy, no module keeps mutable data at module level, and
the dataclasses that hold arrays keep read-only copies and compare by
identity."""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

MODULES = ("specfun", "ntg", "blyth", "numint", "risk", "regress", "verify", "cli")
_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "ntglab"


def _module(name):
    return importlib.import_module(f"ntglab.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = _module(name)
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


def test_no_name_exported_twice():
    owners = {}
    for name in MODULES:
        for attr in _module(name).__all__:
            owners.setdefault(attr, []).append(name)
    assert {attr: mods for attr, mods in owners.items() if len(mods) > 1} == {}


def _references(path):
    # Names loaded and attributes read in the file, except a module-level
    # def's or class's references to its own name.
    found = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names.discard(getattr(top, "name", None))
        found |= names
    return found


def test_every_public_name_is_reached():
    # A public name that nothing in src/, scripts/ or perfbench/ refers to
    # serves only the tests, which keep their own oracles.  Re-exports in
    # __init__.py are not uses.
    reached = set()
    for tree in ("src", "scripts", "perfbench"):
        for path in sorted((_ROOT / tree).rglob("*.py")):
            if path.name != "__init__.py":
                reached |= _references(path)
    unreached = [f"{name}.{attr}" for name in MODULES for attr in _module(name).__all__
                 if attr not in reached]
    assert not unreached, f"public names that only the tests reach: {unreached}"


def test_numint_is_the_engine_only():
    numint = _module("numint")
    assert set(numint.__all__) == {
        "EstimateWithError", "QuadratureError", "gauss_legendre", "mc_estimate",
    }
    from_specfun = {
        attr for attr, obj in vars(numint).items()
        if getattr(obj, "__module__", None) == "ntglab.specfun"
    }
    assert from_specfun == {"Tolerance"}


def test_no_module_imports_numint_internals():
    # numint's callers reach it through its public names; a sampler gets
    # its chunk's workspace as an argument, not through a private accessor.
    private = []
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "numint.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "numint":
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_")]
    assert private == []


def _functions():
    # (node, "file:line name", parameter names) of every def and lambda in
    # src/ntglab, nested ones and methods included; self and cls are left
    # out.
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                name = getattr(node, "name", "<lambda>")
                yield node, f"{path.name}:{node.lineno} {name}", [
                    p for p in params if p not in ("self", "cls")]


def _is_guard(node):
    # An ``if ...: raise`` statement: it only rejects arguments.
    return (isinstance(node, ast.If) and not node.orelse
            and all(isinstance(stmt, ast.Raise) for stmt in node.body))


def _reads(node):
    # Names loaded in node, except those in ``if ...: raise`` guards.
    if _is_guard(node):
        return set()
    read = {node.id} if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else set()
    for child in ast.iter_child_nodes(node):
        read |= _reads(child)
    return read


def test_every_parameter_is_read():
    # A parameter the body never reads, or reads only to reject it, is a
    # setting that changes nothing.  One is allowed:
    # - posterior_risk's inner_grid sized the midpoint grid its radial rule
    #   replaced; it stays only because the benchmark's frozen call sites
    #   still pass it.  So does specfun.Tolerance.max_iter, a field that
    #   nothing in src/ reads since numint's rule has its own cap.
    unread = []
    for node, where, params in _functions():
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set().union(*map(_reads, body))
        unread += [f"{where}({p})" for p in params if p not in read]
    assert [u.split(" ", 1)[1] for u in unread] == ["posterior_risk(inner_grid)"], unread


def test_no_function_takes_workers():
    # Monte Carlo runs on every core of the process's affinity mask, which
    # is the one worker control: no function, mc_estimate included, takes a
    # worker count.
    assert [where for _, where, params in _functions() if "workers" in params] == []


def test_cli_starts_without_scipy():
    # No ntglab module imports scipy, and nothing that ntglab imports does.
    code = ("import json, sys, ntglab.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(_ROOT / "src")})
    loaded = json.loads(out.stdout)
    assert not loaded, f"import ntglab.cli loads {len(loaded)} scipy modules: {loaded[:5]}, ..."


def test_no_module_imports_scipy():
    # scipy serves the tests and the benchmark as an oracle, never ntglab.
    imports = []
    for path in sorted(_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append((path.name, node.module))
    assert [(f, m) for f, m in imports if m.split(".")[0] == "scipy"] == []


def test_one_quadrature_rule():
    # numint builds the one Gauss-Legendre rule; no other module builds nodes.
    lines = [f"{path.name}:{i}" for path in sorted(_SRC.glob("*.py"))
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "leggauss" in line]
    assert len(lines) == 1 and lines[0].startswith("numint.py:"), lines


_MUTABLE = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _module_level(node):
    # The statements and expressions of a module outside its functions and
    # classes.
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child
            yield from _module_level(child)


def test_no_module_level_mutable_data():
    # State lives on the object that owns it (a posterior on its
    # observation, a Gamma on its distribution), never in a module-level
    # list, dict or set that every caller shares; __all__ is the exception.
    found = []
    for path in sorted(_SRC.glob("*.py")):
        for node in _module_level(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, _MUTABLE):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [ast.unparse(t) for t in targets]
                if names != ["__all__"]:
                    found.append(f"{path.name}:{node.lineno} {' '.join(names)}")
    assert found == []


def _array_value_types():
    # The dataclasses defined in src/ntglab with a field annotated
    # np.ndarray, each with the names of those fields.
    found = {}
    for name in MODULES:
        mod = _module(name)
        for obj in vars(mod).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == mod.__name__):
                arrays = [f.name for f in dataclasses.fields(obj)
                          if f.type in ("np.ndarray", np.ndarray)]
                if arrays:
                    found[obj] = arrays
    return found


def test_array_value_types_compare_by_identity():
    # A generated == compares the arrays inside a tuple and takes the truth
    # value of an array, and a generated hash hashes an array: both raise.
    found = _array_value_types()
    assert {cls.__name__ for cls in found} >= {
        "NtGParams", "LocationScale", "Observation", "RegressionData", "OlsFit",
        "StandardRegion"}
    assert [cls.__qualname__ for cls in found
            if cls.__eq__ is not object.__eq__ or cls.__hash__ is not object.__hash__] == []


def _value_type_args():
    # Keyword arguments that build each array value type at p = 2 from
    # arrays the caller owns.
    S = np.array([[2.0, 0.5], [0.5, 1.0]])
    v = np.array([1.0, -2.0])
    return {
        "NtGParams": dict(p=2, mu0=v, kappa0=1.0, alpha0=1.0, beta0=1.0, eps0=0.0),
        "LocationScale": dict(mu=v, lam=1.0),
        "Observation": dict(x=v, s=1.0),
        "RegressionData": dict(Z=np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]),
                               y=np.array([0.0, 1.0, 3.0])),
        "OlsFit": dict(beta_hat=v, sigma2_hat=1.0, S_p=S, m=3),
        "StandardRegion": dict(center=v, shape=S, threshold=1.0, level=0.95),
    }


@pytest.mark.parametrize("cls, field", [
    (cls, field) for cls, arrays in _array_value_types().items() for field in arrays],
    ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_array_value_type_keeps_a_frozen_copy(cls, field):
    kwargs = _value_type_args()[cls.__name__]
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == a and a != b and len({a, b}) == 2
    kept = getattr(a, field)
    first = (0,) * kept.ndim
    assert kept.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        kept[first] = 99.0
    kwargs[field][first] = 99.0
    assert getattr(a, field)[first] != 99.0 and getattr(b, field)[first] != 99.0
