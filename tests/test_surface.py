"""Every public top-level name of the package is reached from a root.

The roots are `cli.main` (and through it the command table), the names the
benchmark under bench/ refers to, and the names in KEPT.  A name is reached
when a reached name (or a root) refers to it: by name in its own module,
through a `from ... import`, as `module.name`, or in the benchmark tracer's
table of wrapped functions.  So a chain of names that only refer to each
other is not reached.  Tests do not count.  The names in KEPT have no caller
yet; each waits for the ROADMAP item named beside it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latticelab"
BENCH = ROOT / "bench"

KEPT = {
    "smallness.margulis_short_subgroup": "item 12: a CLI subcommand for the Margulis lemma",
    "chabauty.sup_formula_check": "item 12: the sup formula under `mahler`",
    "hyperbolic.sequence_contraction_witness": "item 12: the contraction witness under `zassenhaus`",
    "smallness.nilpotency_class": "item 12: a CLI caller for nilpotency detection",
    "lattice_lab.covolume_h2": "item 13: covolumes of Dirichlet domains",
    "lattice_lab.covolume_h2_exact": "item 14: exact areas of triangle-group domains",
    "lattice_lab.genus_area_exact": "item 9: the areas of the genus-g decks",
}


def _modules():
    return {f.stem: ast.parse(f.read_text()) for f in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree):
    """Top-level name -> defining node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    out[t.id] = node
    return out


def _imports(tree, modules):
    """(local name -> module, local name -> (module, name)) of a file's
    imports from the package."""
    mods, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if node.level == 0:
            if source != "latticelab" and not source.startswith("latticelab."):
                continue
            source = source[len("latticelab."):] if "." in source else ""
        for alias in node.names:
            local = alias.asname or alias.name
            if not source and alias.name in modules:
                mods[local] = alias.name
            elif source in modules:
                names[local] = (source, alias.name)
    return mods, names


def _references(tree, imports, own, modules):
    """(module, name) pairs the ast `tree` (a file or one definition) refers
    to; `imports` is its file's `_imports` and `own` its module name (or None)."""
    mods, names = imports
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in names:
                out.add(names[node.id])
            elif own is not None:
                out.add((own, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in mods):
            out.add((mods[node.value.id], node.attr))
        elif isinstance(node, ast.Dict):
            # The tracer's table: module name -> ["function", "Class.method"].
            for k, v in zip(node.keys, node.values):
                if (isinstance(k, ast.Constant) and k.value in modules
                        and isinstance(v, ast.List)):
                    out |= {(k.value, e.value.split(".")[0]) for e in v.elts
                            if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return out


def _resolve(ref, definitions, imports):
    """Follow a re-export (`smallness.frobenius_to_identity`) to its definition."""
    mod, name = ref
    for _ in range(len(definitions)):
        if name in definitions[mod]:
            return mod, name
        if name not in imports[mod][1]:
            return ref
        mod, name = imports[mod][1][name]
    return ref


def unreached_public_names(roots):
    """Public top-level names that no chain of references from the
    (module, name) pairs in `roots` reaches."""
    modules = _modules()
    definitions = {m: _definitions(t) for m, t in modules.items()}
    imports = {m: _imports(t, modules) for m, t in modules.items()}
    reached, todo = set(), list(roots)
    while todo:
        mod, name = _resolve(todo.pop(), definitions, imports)
        if (mod, name) in reached or name not in definitions[mod]:
            continue
        reached.add((mod, name))
        todo += _references(definitions[mod][name], imports[mod], mod, modules)
    return sorted("%s.%s" % (mod, name) for mod in modules for name in definitions[mod]
                  if not name.startswith("_") and (mod, name) not in reached)


def live_roots():
    """`cli.main`, which reaches the command table, and what bench/ refers to."""
    modules = _modules()
    roots = {("cli", "main")}
    for f in sorted(BENCH.glob("*.py")):
        if not f.name.startswith("test_"):
            tree = ast.parse(f.read_text())
            roots |= _references(tree, _imports(tree, modules), None, modules)
    return roots


def test_every_public_name_has_a_caller_or_waits_for_an_item():
    live, kept = live_roots(), {tuple(name.split(".")) for name in KEPT}
    assert unreached_public_names(live | kept) == []
    # A KEPT name that gains a live caller leaves KEPT.
    assert set(KEPT) <= set(unreached_public_names(live))
