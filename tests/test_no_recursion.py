"""No function of the package calls itself, directly or through others, so
no input can raise RecursionError: every deep walk keeps an explicit stack.

The call graph is read from the source and over-approximates the calls:

- a name that denotes a package function is an edge wherever it is used,
  called or passed on, and one that denotes a package class reaches the
  class's ``__init__`` and ``__post_init__``;
- ``self.name`` and ``cls.name`` reach every method and property called
  ``name`` of every package class, and so does a call ``obj.name(...)``
  unless ``name`` is also a method of ``str`` or a built-in container, as
  in ``frozenset(...).union(...)``; ``obj.name`` read but not called is
  taken for a field, as in ``step.result``;
- ``super().name`` reaches ``name`` on the package classes the class
  derives from.
"""

import ast
from collections import defaultdict
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import splicelab

PACKAGE = Path(splicelab.__file__).parent
BUILTIN_METHODS = {name for t in (str, list, tuple, dict, set, frozenset) for name in dir(t)}


class _Defs(ast.NodeVisitor):
    """One module's functions and classes by qualified name.

    For each function: its node, the scopes its bare names resolve in
    (enclosing functions and the module, not class bodies) and the class
    it is a method of.  For each class: its methods and its base names."""

    def __init__(self, module: str):
        self.functions: dict[str, tuple[ast.AST, list[dict], str | None]] = {}
        self.methods: dict[str, dict[str, str]] = {}
        self.bases: dict[str, list[str]] = {}
        self.module_scope: dict[str, str] = {}
        # (qualified name, names defined in it, the class it is, if one)
        self.stack = [(module, self.module_scope, None)]

    def visit_ClassDef(self, node):
        outer, scope, _ = self.stack[-1]
        qual = scope[node.name] = f"{outer}.{node.name}"
        self.methods[qual] = {}
        self.bases[qual] = [b.id for b in node.bases if isinstance(b, ast.Name)]
        self.stack.append((qual, {}, qual))
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node):
        outer, scope, owner = self.stack[-1]
        qual = f"{outer}.{node.name}"
        if owner is None:
            scope[node.name] = qual
        else:
            self.methods[owner][node.name] = qual
        scopes = [s for _, s, cls in self.stack if cls is None]
        self.functions[qual] = (node, scopes, owner)
        self.stack.append((qual, {}, None))
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def _imports(tree: ast.Module) -> dict[str, str]:
    """Local name -> the package module or qualified name it imports."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = f"{node.module}.{alias.name}" if node.module else alias.name
                out[alias.asname or alias.name] = target
    return out


def call_graph() -> dict[str, set[str]]:
    """Each package function -> the package functions it may call."""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = _Defs(path.stem)
        defs.visit(tree)
        modules[path.stem] = (defs, _imports(tree))
    classes: dict[str, dict[str, str]] = {}
    parents: dict[str, list[str]] = {}
    by_name: dict[str, set[str]] = defaultdict(set)  # method name -> methods
    functions = {}
    for defs, imports in modules.values():
        names = {**imports, **defs.module_scope}
        for cls, members in defs.methods.items():
            classes[cls] = members
            parents[cls] = [names[b] for b in defs.bases[cls] if b in names]
            for method, qual in members.items():
                by_name[method].add(qual)
        for qual, (node, scopes, owner) in defs.functions.items():
            functions[qual] = (node, scopes, owner, imports)

    def targets(qual: str) -> set[str]:
        if qual in classes:
            members = classes[qual]
            return {members[m] for m in ("__init__", "__post_init__") if m in members}
        return {qual} if qual in functions else set()

    def inherited(cls: str, name: str) -> set[str]:
        found, todo = set(), list(parents.get(cls, ()))
        while todo:
            base = todo.pop()
            if name in classes.get(base, {}):
                found.add(classes[base][name])
            todo.extend(parents.get(base, ()))
        return found

    graph: dict[str, set[str]] = {}
    for qual, (node, scopes, owner, imports) in functions.items():
        edges = graph[qual] = set()
        body = node.body + node.args.defaults + [d for d in node.args.kw_defaults if d]
        called = set()  # the callees of the calls met so far
        for sub in (n for stmt in body for n in ast.walk(stmt)):
            if isinstance(sub, ast.Call):
                called.add(sub.func)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                found = next((s[sub.id] for s in reversed(scopes) if sub.id in s), None)
                edges |= targets(found or imports.get(sub.id, ""))
            elif isinstance(sub, ast.Attribute):
                base = sub.value
                if isinstance(base, ast.Name) and imports.get(base.id) in modules:
                    edges |= targets(f"{imports[base.id]}.{sub.attr}")
                elif (
                    isinstance(base, ast.Call)
                    and isinstance(base.func, ast.Name)
                    and base.func.id == "super"
                ):
                    edges |= inherited(owner, sub.attr)
                elif isinstance(base, ast.Name) and base.id in ("self", "cls"):
                    edges |= by_name[sub.attr]
                elif sub in called and sub.attr not in BUILTIN_METHODS:
                    edges |= by_name[sub.attr]
    return graph


def test_call_graph_sees_calls():
    graph = call_graph()
    assert "transform._unemitted" in graph["transform.normalize_sequence"]
    assert "closure._undo_rules" in graph["closure._Tables.__init__"]
    assert "grammar.enumerate_cfg" in graph["core.InitialSet.enumerate"]
    assert "decider._RuleImages.image" in graph["decider._RuleImages.union"]


def test_no_function_reaches_itself():
    graph = call_graph()
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as err:
        raise AssertionError(f"call cycle: {' -> '.join(err.args[1])}") from None
