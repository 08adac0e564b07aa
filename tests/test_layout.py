"""Source layout: each top-level function of the package has one home,
the package imports only the standard library, has no floating point and
does not import dataclasses, only perm.py reads the multiplication table,
no module reads another object's private attributes, the names the
benchmark's tracer wraps exist and are wrapped in a CLI process,
importing the CLI loads no process pool and executes none of
acceptance, burnside, cache, species and spectrum, each verb executes
only the modules it uses and none loads hashlib, no module is larger
than the AST budget, and the README's library example runs."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "fbr"
TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"
README = Path(__file__).parent.parent / "README.md"

# ast.walk nodes the largest module may have; see test_largest_module_ast_budget
AST_BUDGET = 4608


def test_no_function_defined_in_two_modules():
    homes = defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes[node.name].append(path.stem)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


# CPython's built-in SHA-256, which each version lists under its own name
# only: _sha2 on 3.12+, _sha256 on 3.10 and 3.11 (fbr/cache.py tries both)
BUILTIN_SHA256 = {"_sha2", "_sha256"}


def non_stdlib_imports(source):
    """Absolute imports of a module source outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names
                  and n not in BUILTIN_SHA256]
    return found


def test_imports_only_the_standard_library():
    # the runtime is pure standard library (README); relative imports
    # stay inside the package
    found = {path.stem: non_stdlib_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {stem: names for stem, names in found.items() if names} == {}
    source = (SRC / "ring.py").read_text()
    assert non_stdlib_imports(source + "\nimport numpy\n") == ["numpy"]
    assert non_stdlib_imports(source + "\nfrom numpy import linalg\n") == ["numpy"]
    # only the two names of the built-in SHA-256 are let through
    assert non_stdlib_imports(source + "\nfrom _sha9 import sha256\n") == ["_sha9"]
    assert non_stdlib_imports(source + "\nimport _sha2, _sha256\n") == []


def test_no_float_literal_or_name():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                    or isinstance(node, ast.Name) and node.id == "float"):
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []


def test_no_dataclasses_import():
    # records are NamedTuples: importing dataclasses costs every process
    # about 10 ms of start-up (it loads inspect, ast, dis and tokenize)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(n and n.split(".")[0] == "dataclasses" for n in names):
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []


def test_only_perm_reads_the_multiplication_table():
    # other modules multiply and conjugate through FiniteGroup, so the
    # code that reads the table (FiniteGroup.rows) has one home
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "perm":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "rows":
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []


def test_no_private_attribute_of_another_object():
    # a module reads and writes underscore attributes of self or cls only,
    # so each memo has one home (dunders such as object.__new__ are public)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not (node.attr.startswith("__") and node.attr.endswith("__"))
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                found.append(f"{path.stem}:{node.lineno} {ast.unparse(node)}")
    assert found == []


def test_tracer_targets_exist():
    # the traced benchmark run wraps these names and fails on a missing one
    spec = importlib.util.spec_from_file_location("fbr_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t for ts in tracer.SPANS.values() for t in ts]
    targets += list(tracer.COUNTED.values()) + list(tracer.AFTER)
    targets.append("perm:FiniteGroup.closure")
    missing = []
    for target in targets:
        modname, _, attr = target.partition(":")
        module = importlib.import_module(f"fbr.{modname}")
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(target)
    assert missing == []
    # the tracer counts a product as a structure constant miss unless a
    # fourth argument (the reverse flag it was written for) is true;
    # multiply_basis takes none, so every traced product is a miss
    from fbr.ring import FiberedBurnsideRing
    params = list(inspect.signature(FiberedBurnsideRing.multiply_basis).parameters)
    assert params == ["self", "i", "j"]


def _python(code, *args):
    """stdout of `python -c code args` with the package on the path and
    no FBR_CACHE_DIR, so a verb uses the cache only when told to."""
    env = {k: v for k, v in os.environ.items() if k != "FBR_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


# Runs `fbr <args>` in process (with no args, only parses `verify-all`),
# then prints how far each module got: a module the CLI registers lazily
# stays a LazyLoader module until its first attribute access, so its
# type is read, not its attributes.
LOADED = """
import contextlib, io, json, sys, types
import fbr.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert fbr.cli.main(sys.argv[1:]) == 0
else:
    assert fbr.cli._parser().parse_args(["verify-all"]).seed is None
names = ["fbr.acceptance", "fbr.burnside", "fbr.cache", "fbr.species",
         "fbr.spectrum", "hashlib", "_hashlib"]
print(json.dumps({n: "absent" if n not in sys.modules else
                  "executed" if type(sys.modules[n]) is types.ModuleType else "lazy"
                  for n in names}))
"""


def _loaded(*args):
    return json.loads(_python(LOADED, *args))


def test_cli_import_loads_no_process_pool(tmp_path):
    # verify-all imports its pool inside run_all: multiprocessing and
    # concurrent.futures would add ~20 ms to the start of every fbr process
    loaded = _python("import sys, fbr.cli; print(sorted(m for m in sys.modules"
                     " if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    assert loaded == "[]\n"
    # without a bytecode cache every executed module is compiled, and
    # hashlib maps OpenSSL: each verb executes only what it uses, and the
    # cache digests with the built-in SHA-256, so no verb loads hashlib
    ring = ["--group", "S3", "--fiber", "2"]
    assert _loaded() == {
        "fbr.acceptance": "lazy", "fbr.burnside": "absent", "fbr.cache": "lazy",
        "fbr.species": "lazy", "fbr.spectrum": "lazy",
        "hashlib": "absent", "_hashlib": "absent"}
    basis = _loaded("basis", *ring)
    assert (basis["fbr.cache"], basis["hashlib"], basis["_hashlib"]) == (
        "lazy", "absent", "absent")
    cached = _loaded("basis", *ring, "--cache-dir", str(tmp_path))
    assert (cached["fbr.cache"], cached["hashlib"], cached["_hashlib"]) == (
        "executed", "absent", "absent")
    verify = _loaded("verify-all", "--group", "C2", "--fiber", "2")
    assert verify["fbr.acceptance"] == verify["fbr.burnside"] == "executed"
    assert (verify["fbr.cache"], verify["hashlib"], verify["_hashlib"]) == (
        "lazy", "absent", "absent")
    species = _loaded("species", *ring)
    assert (species["fbr.species"], species["fbr.spectrum"]) == ("executed", "lazy")
    assert species["fbr.acceptance"] == species["fbr.cache"] == "lazy"


def test_tracer_wraps_the_lazily_loaded_modules():
    # the tracer wraps the fbr modules in sys.modules when it is
    # installed; the CLI's lazily registered ones are among them and
    # are executed by the tracer's scan, so their spans are recorded
    traced = _python(f"""
import contextlib, importlib.util, io, json, sys
import fbr.cli
spec = importlib.util.spec_from_file_location("fbr_bench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tr = tracer.Tracer()
tracer.install(tr)
unwrapped = []
for target in [t for ts in tracer.SPANS.values() for t in ts]:
    modname, _, attr = target.partition(":")
    if modname in ("acceptance", "cache", "species", "spectrum"):
        owner = sys.modules["fbr." + modname]
        cls_name, _, meth = attr.rpartition(".")
        fn = vars(getattr(owner, cls_name))[meth] if cls_name else getattr(owner, attr)
        if not hasattr(fn, "__wrapped__"):
            unwrapped.append(target)
with contextlib.redirect_stdout(io.StringIO()):
    code = fbr.cli.main(["species", "--group", "S3", "--fiber", "2"])
print(json.dumps([code, unwrapped, tr.calls["species.table"],
                  fbr.cli.sp is sys.modules["fbr.species"]]))
""")
    code, unwrapped, table_calls, same = json.loads(traced)
    assert (code, unwrapped, same) == (0, [], True)
    assert table_calls >= 1


def test_largest_module_ast_budget():
    # Without a bytecode cache, importing fbr.cli reaches its peak RSS
    # (VmHWM) while it compiles the largest module, perm.py.  Padding
    # perm.py with 1,177 nodes raised the VmHWM of that import by 0.37 MB
    # (20 alternating launches), the same padding in species.py by 0.04
    # MB, and every fbr process pays it.  A change that needs more nodes
    # re-measures that VmHWM and raises the budget with it.
    sizes = {path.stem: sum(1 for _ in ast.walk(ast.parse(path.read_text())))
             for path in sorted(SRC.glob("*.py"))}
    over = {stem: n for stem, n in sizes.items() if n > AST_BUDGET}
    assert over == {}, (
        f"over the budget of {AST_BUDGET} ast.walk nodes: {over}; the largest module "
        "sets the VmHWM of `import fbr.cli` (+1,177 nodes in perm.py: +0.37 MB)")


def test_readme_library_example_runs():
    # the documented API cannot drift from the package
    text = README.read_text()
    start = text.index("```python\n", text.index("\n## Library\n")) + len("```python\n")
    code = text[start:text.index("```", start)]
    assert "build_ring" in code
    exec(compile(code, "README.md", "exec"), {})
