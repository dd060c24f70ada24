"""Whole-project call graph for the cross-function rule (FLOW003).

The graph is purely lexical (no imports are executed) and deliberately
over-approximates where it cannot resolve a call precisely:

* plain names resolve through the enclosing scopes — local defs first,
  then module-level defs, then the module's import table (re-exports
  through package ``__init__`` modules are followed one hop at a time,
  so ``repro.seed.seed_hits`` lands on ``repro.seed.dsoft.seed_hits``);
* ``self.method()`` / ``cls.method()`` resolve within the enclosing
  class (then by name union across its lexical bases);
* other attribute calls — the dynamic-dispatch case — resolve to
  *every* known method of that name across the analyzed tree.  The
  union is conservative: a flow through any candidate is reported;
* calls whose target stays outside the tree (``time.time``,
  ``numpy.zeros``, …) have no edge.

Functions are identified by qualified name: ``repro.mod.func``,
``repro.mod.Class.method``, ``repro.mod.outer.<locals>.inner``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: Qualified names of project functions this call may land on.
    targets: Tuple[str, ...] = ()


@dataclass
class FunctionNode:
    """One function/method definition in the analyzed tree."""

    qualname: str  # repro.mod.Class.method / repro.mod.outer.<locals>.inner
    modname: str
    path: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    class_name: Optional[str] = None
    #: Positional parameter names (for argument-flow tracking).
    params: Tuple[str, ...] = ()
    calls: List[CallSite] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class CallGraph:
    """Functions, their call sites, and the resolved edge sets."""

    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    #: method name -> qualnames of every class method with that name.
    methods_by_name: Dict[str, List[str]] = field(default_factory=dict)
    #: class qualname -> lexical base-class names (unresolved strings).
    class_bases: Dict[str, List[str]] = field(default_factory=dict)
    #: Definition tables filled once while collecting, so resolution is
    #: a dict lookup rather than a scan of every function per call:
    #: modname -> {name: qualname} of its module-level functions, and
    #: class qualname -> {name: qualname} of its methods.
    module_defs: Dict[str, Dict[str, str]] = field(default_factory=dict)
    class_methods: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def callees(self, qualname: str) -> Iterator[Tuple[str, CallSite]]:
        """(callee qualname, call site) pairs for one function."""
        function = self.functions.get(qualname)
        if function is None:
            return
        for site in function.calls:
            for target in site.targets:
                yield target, site


def _positional_params(args: ast.arguments) -> Tuple[str, ...]:
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    return tuple(names)


class _Collector(ast.NodeVisitor):
    """First pass: register every function definition of one module."""

    def __init__(self, module, graph: CallGraph) -> None:
        self.module = module
        self.graph = graph
        self._stack: List[str] = []  # qualname components under the module
        self._class: List[Optional[str]] = [None]

    def _register(self, node, name: str) -> None:
        parts = [self.module.modname] + self._stack + [name]
        qualname = ".".join(parts)
        function = FunctionNode(
            qualname=qualname,
            modname=self.module.modname,
            path=self.module.path,
            name=name,
            node=node,
            class_name=self._class[-1],
            params=_positional_params(node.args)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else (),
        )
        self.graph.functions[qualname] = function
        owner = ".".join(parts[:-1])
        if function.class_name is not None:
            self.graph.methods_by_name.setdefault(name, []).append(qualname)
            self.graph.class_methods.setdefault(owner, {})[name] = qualname
        elif not self._stack:
            self.graph.module_defs.setdefault(owner, {})[name] = qualname

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        class_qual = ".".join(
            [self.module.modname] + self._stack + [node.name]
        )
        bases = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                bases.append(base.attr)
        self.graph.class_bases[class_qual] = bases
        self._stack.append(node.name)
        self._class.append(node.name)
        self.generic_visit(node)
        self._class.pop()
        self._stack.pop()

    def _visit_function(self, node) -> None:
        self._register(node, node.name)
        self._stack.append(node.name)
        self._stack.append("<locals>")
        self._class.append(None)
        self.generic_visit(node)
        self._class.pop()
        self._stack.pop()
        self._stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


class _Resolver:
    """Second pass: resolve every call of every registered function."""

    #: Re-export hops followed through package ``__init__`` tables.
    _MAX_HOPS = 8

    def __init__(self, graph: CallGraph, modules) -> None:
        self.graph = graph
        self.modules = {m.modname: m for m in modules}

    def resolve_dotted(self, dotted: str) -> Tuple[str, ...]:
        """Resolve a dotted origin to project functions (else ``()``).

        Follows ``__init__`` re-exports: when ``repro.seed.seed_hits``
        is not a definition but ``repro.seed.__init__`` imports
        ``seed_hits`` from ``repro.seed.dsoft``, resolution hops there.
        """
        seen: Set[str] = set()
        current = dotted
        for _ in range(self._MAX_HOPS):
            if current in seen:
                break
            seen.add(current)
            if current in self.graph.functions:
                return (current,)
            head, _, tail = current.rpartition(".")
            if not head:
                break
            # Class attribute: repro.mod.Class.method.
            if head in self.graph.class_bases:
                methods = self.graph.class_methods.get(head, {})
                if tail in methods:
                    return (methods[tail],)
                break
            # Module attribute: look at the module (or its __init__).
            owner = None
            if head in self.modules:
                owner = head
            elif f"{head}.__init__" in self.modules:
                owner = f"{head}.__init__"
            if owner is None:
                break
            origin = self.modules[owner].aliases.get(tail)
            if origin is None:
                break
            current = origin
        return ()

    def _lookup_name(
        self, function: FunctionNode, name: str
    ) -> Tuple[str, ...]:
        """Resolve a bare called name from inside ``function``."""
        # Sibling nested defs / own nested defs, innermost scope first.
        scope = function.qualname
        while True:
            candidate = f"{scope}.<locals>.{name}"
            if candidate in self.graph.functions:
                return (candidate,)
            if ".<locals>." not in scope:
                break
            scope = scope.rsplit(".<locals>.", 1)[0]
        defs = self.graph.module_defs.get(function.modname, {})
        if name in defs:
            return (defs[name],)
        origin = self.modules[function.modname].aliases.get(name)
        if origin is not None:
            return self.resolve_dotted(origin)
        return ()

    def _lookup_attribute(
        self, function: FunctionNode, call: ast.Call
    ) -> Tuple[str, ...]:
        func = call.func
        assert isinstance(func, ast.Attribute)
        parts: List[str] = [func.attr]
        base = func.value
        while isinstance(base, ast.Attribute):
            parts.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name):
            parts.append(base.id)
            parts.reverse()
            head, rest = parts[0], parts[1:]
            if head in ("self", "cls") and function.class_name is not None:
                class_qual = f"{function.modname}.{function.class_name}"
                methods = self.graph.class_methods.get(class_qual, {})
                if rest[0] in methods and len(rest) == 1:
                    return (methods[rest[0]],)
                # Inherited (or dynamically attached): fall through to
                # the name-union below.
            else:
                origin = self.modules[function.modname].aliases.get(head)
                if origin is not None:
                    targets = self.resolve_dotted(".".join([origin] + rest))
                    if targets or _is_external_root(origin, self.modules):
                        return targets
        # Dynamic dispatch: union over every known method of that name.
        return tuple(self.graph.methods_by_name.get(func.attr, ()))

    def resolve_function(self, function: FunctionNode) -> None:
        if function.node is None or isinstance(function.node, ast.Lambda):
            body = [function.node.body] if function.node else []
        else:
            body = function.node.body
        for node in own_calls(body):
            site = CallSite(node=node)
            func = node.func
            if isinstance(func, ast.Name):
                site.targets = self._lookup_name(function, func.id)
            elif isinstance(func, ast.Attribute):
                site.targets = self._lookup_attribute(function, node)
            function.calls.append(site)


def _is_external_root(origin: str, analyzed) -> bool:
    """Whether a dotted origin's root module lies outside the tree."""
    root = origin.split(".")[0]
    return not any(
        name == root or name.startswith(root + ".") for name in analyzed
    )


def own_calls(body) -> Iterator[ast.Call]:
    """Call nodes in ``body``, excluding nested function/class bodies."""
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue  # nested scopes own their calls
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def build_call_graph(modules) -> CallGraph:
    """Build the resolved call graph of already-parsed modules."""
    graph = CallGraph()
    parsed = [m for m in modules if m.tree is not None]
    for module in parsed:
        _Collector(module, graph).visit(module.tree)
    resolver = _Resolver(graph, parsed)
    for function in graph.functions.values():
        resolver.resolve_function(function)
    return graph
