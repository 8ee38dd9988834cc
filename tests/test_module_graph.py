"""Which module imports which, and what compiling each one costs.

The oracles stay independent of production: src/cpwalls/oracles.py imports
the standard library, NumPy (inside _image_pass only), cpwalls.errors, and
from profiles only the package's input rule (_check_domain, _finite,
_inside). No production constant or formula (PI_LO, SERIES_LEADING, Form,
WALL_TABLE, the profiles module itself) reaches it, so a wrong constant
moves the closed forms and not their oracles. No table-path module
imports the oracles or the verification suite; the CLI imports the suite
inside _cmd_verify only.

A verify run compiles two modules that no table command compiles,
verification.py and oracles.py. The compile() peak of each, under
tracemalloc on CPython 3.11, stays within 5% of its own pinned peak in
COMPILE_PEAK_KIB, taken when the oracles were first compiled apart from
the check table and verify's child peak RSS fell to about that of a
table command. The bound is each module's own, not that of the largest
table module: a table module that shrinks does not make verify cost
more memory. New oracles go in oracles.py, next to the others; a suite
that outgrows its bound re-pins COMPILE_PEAK_KIB on purpose, with the
verify RSS it costs.

Every CLI process compiles cli.py and analysis.py, whatever its command.
Their compile() peaks are pinned the same way, in CLI_COMPILE_PEAK_KIB,
taken when each table column was first described once, in
analysis._COLUMNS: cli.py fell from 1247 to 1179 KiB then, and
analysis.py, which took the column table, rose from 1212 to 1310 KiB.
"""

import ast
import pathlib
import sys
import tracemalloc

import pytest

import cpwalls

PACKAGE = pathlib.Path(cpwalls.__file__).resolve().parent
ORACLE_RULE = {"_check_domain", "_finite", "_inside"}
PRODUCTION_NAMES = {"profiles", "PI_LO", "SERIES_LEADING", "Form", "WALL_TABLE"}
TABLE_MODULES = ("profiles", "correlators", "potentials", "analysis", "cli")
# every module a table command compiles: the package, less the two of verify
TABLE_COMPILED = ("__init__", "__main__", "analysis", "cli", "correlators",
                  "errors", "potentials", "profiles", "units")
# compile() tracemalloc peak, in KiB, of each module only verify compiles
# (cli.py, the largest table module then, peaked at 1380 KiB)
COMPILE_PEAK_KIB = {"verification": 1372, "oracles": 598}
# compile() tracemalloc peak, in KiB, of the two modules every CLI process compiles
CLI_COMPILE_PEAK_KIB = {"cli": 1179, "analysis": 1310}
COMPILE_PEAK_RATIO = 1.05


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _imports(tree: ast.AST, scope: str = ""):
    """(function it sits in or "", module, level, names) of every import."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports(node, node.name)
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield scope, alias.name, 0, ()
        elif isinstance(node, ast.ImportFrom):
            yield scope, node.module or "", node.level, tuple(a.name for a in node.names)
        yield from _imports(node, scope)


def test_the_oracles_import_only_the_stdlib_numpy_errors_and_the_input_rule():
    seen = set()
    for scope, module, level, names in _imports(_tree("oracles")):
        if level:
            assert level == 1, module
            seen.add(module)
            if module == "profiles":
                assert set(names) <= ORACLE_RULE, names
            else:
                assert module == "errors", (module, names)
        elif module == "numpy":
            assert scope == "_image_pass", scope
        else:
            assert module.partition(".")[0] in sys.stdlib_module_names, module
    assert seen == {"errors", "profiles"}


def test_no_production_constant_or_formula_reaches_the_oracles():
    tree = _tree("oracles")
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.asname or a.name for n in ast.walk(tree)
              if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}
    assert not names & PRODUCTION_NAMES


def test_no_table_path_module_imports_the_oracles_or_the_suite():
    for table_module in TABLE_MODULES:
        for scope, module, level, names in _imports(_tree(table_module)):
            targets = {module.rpartition(".")[2], *names}
            if "verification" in targets and (table_module, scope) == ("cli", "_cmd_verify"):
                continue
            assert not targets & {"oracles", "verification"}, (table_module, scope, module)


def _compile_peak(module: str) -> int:
    """Peak traced bytes of compile() on the module's source, min of 3."""
    source = (PACKAGE / f"{module}.py").read_bytes()
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            compile(source, module, "exec", dont_inherit=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="compile() peaks are those of CPython 3.11")
def test_verify_compiles_its_two_modules_within_their_pinned_peaks():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(
        (*TABLE_COMPILED, *COMPILE_PEAK_KIB))
    for module, kib in COMPILE_PEAK_KIB.items():
        assert _compile_peak(module) <= COMPILE_PEAK_RATIO * kib * 1024, module


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="compile() peaks are those of CPython 3.11")
def test_every_cli_process_compiles_cli_and_analysis_within_their_pinned_peaks():
    assert set(CLI_COMPILE_PEAK_KIB) <= set(TABLE_COMPILED)
    for module, kib in CLI_COMPILE_PEAK_KIB.items():
        assert _compile_peak(module) <= COMPILE_PEAK_RATIO * kib * 1024, module
