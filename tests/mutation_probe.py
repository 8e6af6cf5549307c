"""Mutation probe: make one small change to a module, run the killer
tests, and record whether some test failed (the mutant is killed) or
none did (it survived).  Standard library only; the mutants are read with
`ast` and written to a copy of the module's package in a temporary
directory, so the module itself is never changed.

Operators, one site each:

- `compare`: swap a comparison operator (`<` and `<=`, `>` and `>=`, `==`
  and `!=`, `is` and `is not`, `in` and `not in`);
- `boolop`: swap `and` and `or`;
- `not`: drop a `not`;
- `int`: add 1 to an int literal.

The sites are listed in source order per module, and `--sample` of them
are drawn with `--seed`.  One JSON line per mutant goes to stdout:
module, line, column, operator, the source line, the change, the outcome
(killed, survived or timeout) and the seconds the tests took.  Each test
run may take five times the unmutated run (at least `MIN_TIMEOUT_S`) and
`MEMORY_MB` of address space, so a mutant that loops or grows without end
is stopped.

    python tests/mutation_probe.py src/protolab/netsim.py --sample 40 --seed 7 --tests tests/test_netsim.py

Run it from the root of the checkout, where pytest finds its settings.
pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path


COMPARE_SWAPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Is: "is",
    ast.IsNot: "is not",
    ast.In: "in",
    ast.NotIn: "not in",
    ast.And: "and",
    ast.Or: "or",
}
MIN_TIMEOUT_S = 60.0
MEMORY_MB = 2048


def sites(tree: ast.Module) -> list[tuple[int, int, str, int, int]]:
    """(line, column, operator, node, index) per mutation site, in source
    order: `node` is the site's position in `ast.walk` order (two nodes
    may start at one column), `index` picks the operator of a chained
    comparison."""
    found = []
    for n, node in enumerate(ast.walk(tree)):
        at = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
        if isinstance(node, ast.Compare):
            found += [(*at, "compare", n, i) for i, op in enumerate(node.ops) if type(op) in COMPARE_SWAPS]
        elif isinstance(node, ast.BoolOp):
            found.append((*at, "boolop", n, 0))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((*at, "not", n, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((*at, "int", n, 0))
    return sorted(found)


def mutate(tree: ast.Module, site: tuple[int, int, str, int, int]) -> str:
    """Apply one site's operator to the tree (a fresh parse of the source
    the site was listed on); returns what it changed."""
    _, _, operator, n, i = site
    target = next(node for k, node in enumerate(ast.walk(tree)) if k == n)
    if operator == "compare":
        old = type(target.ops[i])
        target.ops[i] = COMPARE_SWAPS[old]()
        return f"{SYMBOLS[old]} -> {SYMBOLS[COMPARE_SWAPS[old]]}"
    if operator == "boolop":
        old = type(target.op)
        target.op = ast.Or() if old is ast.And else ast.And()
        return f"{SYMBOLS[old]} -> {SYMBOLS[type(target.op)]}"
    replacement = target.operand if operator == "not" else ast.Constant(target.value + 1)
    for parent in ast.walk(tree):  # put the replacement where the target was
        for name, value in ast.iter_fields(parent):
            if value is target:
                setattr(parent, name, replacement)
            elif isinstance(value, list) and any(item is target for item in value):
                value[:] = [replacement if item is target else item for item in value]
    return "drop not" if operator == "not" else f"{target.value} -> {target.value + 1}"


def package_root(module: Path) -> Path:
    """The directory that holds the module's top-level package (what goes on `sys.path`)."""
    root = module.resolve().parent
    while (root / "__init__.py").exists():
        root = root.parent
    return root


def run_tests(path_root: Path, tests: list[str], timeout: float | None) -> tuple[str, float]:
    """Run the killer tests with `path_root` first on `sys.path`: the
    outcome (passed, failed or timeout) and the seconds taken."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(path_root), *filter(None, [os.environ.get("PYTHONPATH")])]), "PYTHONDONTWRITEBYTECODE": "1"}
    limit = MEMORY_MB * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout, preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("passed" if done.returncode == 0 else "failed"), time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=Path, help="module files to mutate")
    parser.add_argument("--sample", type=int, required=True, help="mutants drawn over all the modules' sites")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tests", nargs="+", required=True, help="the killer tests, as pytest takes them")
    args = parser.parse_args(argv)

    sources = {module: module.read_text() for module in args.modules}
    all_sites = [(module, site) for module, text in sources.items() for site in sites(ast.parse(text))]
    drawn = random.Random(args.seed).sample(all_sites, min(args.sample, len(all_sites)))
    with tempfile.TemporaryDirectory() as scratch:
        copies = {}
        for module in args.modules:
            root = package_root(module)
            top = module.resolve().relative_to(root).parts[0]
            target = Path(scratch) / top
            if not target.exists():
                shutil.copytree(root / top, target, ignore=shutil.ignore_patterns("__pycache__"))
            copies[module] = Path(scratch) / module.resolve().relative_to(root)
        outcome, seconds = run_tests(Path(scratch), args.tests, None)
        if outcome != "passed":
            print(f"the killer tests do not pass on the unmutated modules ({outcome})", file=sys.stderr)
            return 2
        timeout = max(MIN_TIMEOUT_S, 5 * seconds)
        for module, site in drawn:
            tree = ast.parse(sources[module])
            change = mutate(tree, site)
            copies[module].write_text(ast.unparse(ast.fix_missing_locations(tree)))
            outcome, seconds = run_tests(Path(scratch), args.tests, timeout)
            copies[module].write_text(sources[module])
            line, column, operator, _, _ = site
            record = {
                "module": str(module),
                "line": line,
                "column": column,
                "operator": operator,
                "source": sources[module].splitlines()[line - 1].strip(),
                "change": change,
                "outcome": {"passed": "survived", "failed": "killed"}.get(outcome, outcome),
                "seconds": round(seconds, 2),
            }
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
