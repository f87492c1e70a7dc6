"""Tooling: no module in src/, tests/, demos/ or tools/ imports a name at
module level that it never reads. Package ``__init__.py`` files and names
listed in a module's ``__all__`` are re-exports and are exempt. No private
module-level function or class of the package goes unread in src/: tests
alone do not keep one alive. Only system.py (ChannelModel) and specfun.py
evaluate or draw the Gamma law in float64. And neither a fresh `import pamq.cli`
nor an integer-m `sep` and a one-worker `simulate` load the modules that only
designs, the quadrature, the mpmath floor or a process pool use."""
import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(
    path for top in ("src", "tests", "demos", "tools") for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by the module-level imports of source and never loaded."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names if a.name != "*")
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        f"{name} (line {line})" for name, line in imported.items()
        if name not in loaded and name not in exported
    )


def test_scanner_finds_unused_and_spares_used_and_exported():
    source = "import os\nimport a.b\nfrom x import y, z as w\n__all__ = ['y']\nprint(a)\n"
    assert unused_imports(source) == ["os (line 1)", "w (line 3)"]


def test_no_unused_module_imports():
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text()) for path in FILES}
    assert {name: unused for name, unused in found.items() if unused} == {}


def unread_privates(sources):
    """Module-level _private functions and classes, defined in any of the sources (a
    mapping of name to text), that no source reads by name or attribute."""
    defined, read = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        defined += [(node.name, name, node.lineno) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{fn} ({name} line {line})" for fn, name, line in defined if fn not in read)


def test_scanner_finds_unread_privates():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\ndef public(): pass\n"
                "def __dunder__(): pass\n",
        "b.py": "from a import _used\nimport a\nx = a._Viaattr\nclass _Viaattr: pass\n"
                "def f(): return _used()\n",
    }
    assert unread_privates(sources) == ["_Gone (a.py line 3)", "_dead (a.py line 2)"]


def test_no_unread_private_code():
    package = sorted((ROOT / "src").rglob("*.py"))
    assert unread_privates({str(p.relative_to(ROOT)): p.read_text() for p in package}) == []


# modules only some runs use, each loaded on first use: scipy.stats by none (pamq
# draws its start schedule in NumPy), scipy.optimize by a design, scipy.integrate
# by the quadrature, mpmath by optimal_floor_log2, multiprocessing by a pool
LAZY = ("scipy.stats", "scipy.optimize", "scipy.integrate", "mpmath", "multiprocessing")


def lazy_modules_loaded(code):
    """The LAZY modules (or their submodules) loaded after a fresh interpreter runs code."""
    code += ("\nimport sys\n"
             f"print(sorted(m for m in {LAZY!r} if any(n == m or n.startswith(m + '.') "
             "for n in sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.splitlines()[-1]


def test_cold_import_leaves_out_scipy_stats():
    # scipy.stats took 0.46-0.61 s of a cold `import pamq.cli`, and the other LAZY
    # modules about 0.4 s more, on a 2-CPU x86-64 host
    assert lazy_modules_loaded("import pamq, pamq.cli") == "[]"


def test_sep_and_one_worker_simulate_leave_out_lazy_modules():
    code = ("import contextlib, io, pamq.cli\n"
            "system = ['--m', '2', '--bits', '3', '--mod', '4', '--constellation', '1,3',\n"
            "          '--q', '0.8,1.6,2.4', '--snr-db', '0:10:30']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert pamq.cli.main(['sep'] + system) == 0\n"
            "    assert pamq.cli.main(['simulate'] + system + ['--trials', '1000',\n"
            "                                                  '--threads', '1']) == 0")
    assert lazy_modules_loaded(code) == "[]"


GAMMA_LAW = {"gammainc", "gammaincc", "gammaln", "standard_gamma"}


def gamma_law_calls(source):
    """Calls in source of a Gamma-law routine by name, plain or as an attribute; an
    mpmath call, a high-precision reference, is not one."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Attribute):
            if isinstance(fn.value, ast.Name) and fn.value.id == "mpmath":
                continue
            name = fn.attr
        else:
            name = getattr(fn, "id", None)
        if name in GAMMA_LAW:
            found.append(f"{name} (line {node.lineno})")
    return found


def test_scanner_finds_gamma_law_calls():
    source = ("special.gammaincc(1, 2)\nmpmath.gammainc(1, 0, 2)\nrng.standard_gamma(2)\n"
              "gammaln(3)\nspecial.erfc(1)\n")
    assert gamma_law_calls(source) == ["gammaincc (line 1)", "standard_gamma (line 3)",
                                       "gammaln (line 4)"]


def test_gamma_law_has_one_owner():
    owners = {"system.py", "specfun.py"}
    found = {p.name: gamma_law_calls(p.read_text())
             for p in (ROOT / "src" / "pamq").glob("*.py") if p.name not in owners}
    assert {name: calls for name, calls in found.items() if calls} == {}
