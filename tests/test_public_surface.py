"""No dead exports: every public name is used by the program or the bench.

A name counts as public when it is listed in a submodule's ``__all__`` or
re-exported by ``smartsolve/__init__.py``.  It must appear, as a whole
word, in some file under ``src/smartsolve/`` or ``perfbench/`` other than
the module that defines it and the two package ``__init__`` files.  A
name kept public on purpose goes in ``ALLOWED`` with its reason, and only
for as long as nothing else uses it.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import smartsolve

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "smartsolve"
INITS = {SRC / "__init__.py", SRC / "presets" / "__init__.py"}

ALLOWED = {
    "inconsistency": "acceptance criterion 4 measures read inconsistency with it",
    "trigger_prob": "acceptance criterion 7 checks the trigger probabilities with it",
    "RatePlan": "the argument type of stepsize.linear_bound",
    "ZeroFunction": "the g = 0 entry of the prox catalogue that preset callers build with",
    "super_saga_compressed": "the equivalence oracle for the super-saga preset",
    "RunResult": "the type engine.run returns",
    "Trace": "the type of RunResult.trace",
    "SmartState": "the type engine.init_state and engine.step return",
    "AsyncResult": "the type asyncexec.run_async returns",
    "RateFit": "the type diagnostics.fit_rate returns",
    "EnvelopeReport": "the type diagnostics.envelope_test returns",
}


def _modules():
    yield smartsolve
    for info in pkgutil.walk_packages(smartsolve.__path__, "smartsolve."):
        yield importlib.import_module(info.name)


def _public_names():
    """(name, defining file) for every exported name."""
    out = set()
    for module in _modules():
        names = getattr(module, "__all__", None)
        if names is None and module is smartsolve:
            names = [n for n in vars(module) if not n.startswith("_")
                     and not inspect.ismodule(getattr(module, n))]
        for name in names or ():
            obj = getattr(module, name)
            home = inspect.getmodule(obj) if callable(obj) else None
            out.add((name, Path(inspect.getfile(home or module)).resolve()))
    return sorted(out)


def _sources():
    files = list(SRC.rglob("*.py")) + list((ROOT / "perfbench").rglob("*.py"))
    return {f.resolve(): f.read_text() for f in files}


def test_every_public_name_is_used_or_allowed():
    sources = _sources()
    unused = set()
    for name, home in _public_names():
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        if not any(pattern.search(text) for path, text in sources.items()
                   if path != home and path not in INITS):
            unused.add(name)
    dead = sorted(unused - set(ALLOWED))
    assert not dead, f"public names no program or bench file uses: {dead}"
    # a name the program starts to use, or that stops being public, leaves ALLOWED
    stale = sorted(set(ALLOWED) - unused)
    assert not stale, f"ALLOWED names that are used or no longer public: {stale}"
