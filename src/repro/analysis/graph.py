"""Project graph: one parse of the tree into linkable per-file summaries.

The v2 engine analyzes each file exactly once into a :class:`ModuleSummary`
-- imports, classes, per-function call sites (with unit dataflow facts),
taint sources, the per-file rule findings, and the inline-suppression map.
Summaries are plain dicts end to end, so the incremental cache can
round-trip them through JSON, and everything whole-program (taint
fixed-point, cross-module unit checks, CTMS001) runs over summaries
without touching an AST again.

Call targets are recorded *symbolically* (``["self", "meth"]``,
``["attr", "a.b", "fn"]``) and resolved at link time by
:class:`ProjectGraph`, so a summary stays valid no matter how the rest of
the tree changes -- the property the content-hash cache rests on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Optional

from repro.analysis import dataflow
from repro.analysis.checkers import def_anchor_line
from repro.analysis.engine import scan_module, suppressed_rules_by_line
from repro.analysis.findings import Finding
from repro.analysis.rules import (
    GLOBAL_RANDOM_FUNCTIONS,
    OS_NONDETERMINISM_FUNCTIONS,
    SANCTIONED_HOME_SUFFIXES,
    TAINT_SOURCE_RULES,
    WALL_CLOCK_TIME_FUNCTIONS,
)

#: Per-file rule -> taint-source kind (the whole-program pass reuses the
#: battle-tested per-file detectors as its source oracle).
_RULE_TO_SOURCE_KIND = {
    "CTMS103": "wall-clock",
    "CTMS101": "global-random",
    "CTMS102": "unseeded-random",
    "CTMS104": "unordered-sched",
}


def module_name(path: str) -> tuple[str, bool]:
    """(dotted module name, is_package) for a source path.

    Anchored at the last ``repro`` path component when present
    (``src/repro/sim/engine.py`` -> ``repro.sim.engine``); otherwise the
    file stem, which the graph's suffix matching still resolves.
    """
    parts = list(PurePosixPath(path.replace("\\", "/")).parts)
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    anchor = None
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            anchor = i
            break
    if anchor is None:
        return stem, stem == "__init__"
    dotted = parts[anchor:-1] + ([] if stem == "__init__" else [stem])
    return ".".join(dotted), stem == "__init__"


@dataclass
class FunctionSummary:
    """Everything whole-program analysis needs to know about one function."""

    qualname: str
    line: int
    end_line: int
    params: list[str] = field(default_factory=list)
    is_method: bool = False
    returns_dim: Optional[str] = None
    calls: list[dataflow.CallRecord] = field(default_factory=list)
    #: Direct nondeterminism sources: {"kind", "line", "suppressed"}.
    sources: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "end_line": self.end_line,
            "params": self.params,
            "is_method": self.is_method,
            "returns_dim": self.returns_dim,
            "calls": [c.to_dict() for c in self.calls],
            "sources": self.sources,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionSummary":
        return cls(
            qualname=d["qualname"],
            line=d["line"],
            end_line=d["end_line"],
            params=d["params"],
            is_method=d["is_method"],
            returns_dim=d["returns_dim"],
            calls=[dataflow.CallRecord.from_dict(c) for c in d["calls"]],
            sources=d["sources"],
        )


@dataclass
class ModuleSummary:
    """The serializable whole-file analysis product."""

    path: str
    module: str
    is_package: bool = False
    imports: dict[str, str] = field(default_factory=dict)
    symbol_imports: dict[str, list] = field(default_factory=dict)
    classes: dict[str, dict] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    raw: list[Finding] = field(default_factory=list)
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @property
    def is_boundary(self) -> bool:
        """Sanctioned homes never taint and are never tainted."""
        posix = self.path.replace("\\", "/")
        return any(posix.endswith(s) for s in SANCTIONED_HOME_SUFFIXES)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "module": self.module,
            "is_package": self.is_package,
            "imports": self.imports,
            "symbol_imports": self.symbol_imports,
            "classes": self.classes,
            "functions": {q: f.to_dict() for q, f in self.functions.items()},
            "raw": [f.as_dict() for f in self.raw],
            "suppressions": {
                str(line): sorted(rules)
                for line, rules in self.suppressions.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModuleSummary":
        return cls(
            path=d["path"],
            module=d["module"],
            is_package=d["is_package"],
            imports=d["imports"],
            symbol_imports=d["symbol_imports"],
            classes=d["classes"],
            functions={
                q: FunctionSummary.from_dict(f) for q, f in d["functions"].items()
            },
            raw=[Finding(**f) for f in d["raw"]],
            suppressions={
                int(line): set(rules)
                for line, rules in d["suppressions"].items()
            },
        )


# ----------------------------------------------------------------------
# summarization (the only phase that sees an AST)
# ----------------------------------------------------------------------
def summarize_module(source: str, path: str) -> ModuleSummary:
    """Parse one file and distill everything later phases need."""
    tree = ast.parse(source, filename=path)
    dotted, is_package = module_name(path)
    summary = ModuleSummary(path=path, module=dotted, is_package=is_package)
    # The one full traversal: per-file rules, plus the import and
    # call/attribute nodes the import maps and source scan below read.
    scan = scan_module(tree, path)
    summary.raw = scan.findings
    summary.suppressions = suppressed_rules_by_line(source)
    _collect_imports(scan.imports, summary)

    module_body: list[ast.stmt] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _add_function(summary, node, prefix="")
        elif isinstance(node, ast.ClassDef):
            _add_class(summary, node)
        else:
            module_body.append(node)
    _add_body(summary, "<module>", None, module_body, line=1, end_line=0)

    _attach_sources(summary, scan.refs)
    return summary


def _collect_imports(
    imports: list[ast.Import | ast.ImportFrom], summary: ModuleSummary
) -> None:
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    summary.imports[alias.asname] = alias.name
                else:
                    # `import a.b.c` binds `a`; dotted access is resolved
                    # against the full name, so record both spellings.
                    summary.imports.setdefault(
                        alias.name.split(".")[0], alias.name.split(".")[0]
                    )
                    summary.imports[alias.name] = alias.name
        else:
            target = _absolute_import(summary, node)
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                summary.symbol_imports[local] = [target, alias.name]


def _absolute_import(
    summary: ModuleSummary, node: ast.ImportFrom
) -> Optional[str]:
    if node.level == 0:
        return node.module
    parts = summary.module.split(".")
    if not summary.is_package:
        parts = parts[:-1]
    drop = node.level - 1
    if drop:
        parts = parts[: -drop or None]
    if node.module:
        parts = parts + node.module.split(".")
    return ".".join(parts) if parts else None


def _add_class(summary: ModuleSummary, node: ast.ClassDef) -> None:
    bases = [
        b for b in (dataflow.dotted_name(base) for base in node.bases) if b
    ]
    methods = []
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(item.name)
            _add_function(summary, item, prefix=f"{node.name}.")
    summary.classes[node.name] = {"bases": bases, "methods": methods}


def _add_function(
    summary: ModuleSummary,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    prefix: str,
) -> None:
    _add_body(
        summary,
        f"{prefix}{node.name}",
        node.args,
        node.body,
        line=def_anchor_line(node),
        end_line=getattr(node, "end_lineno", node.lineno),
        returns_float=(
            isinstance(node.returns, ast.Name) and node.returns.id == "float"
        ),
    )


def _add_body(
    summary: ModuleSummary,
    qualname: str,
    args: Optional[ast.arguments],
    body: list[ast.stmt],
    *,
    line: int,
    end_line: int,
    returns_float: bool = False,
) -> None:
    analyzed = dataflow.analyze_function(
        qualname, args, body, summary.path, returns_float=returns_float
    )
    summary.raw.extend(analyzed.findings)
    summary.functions[qualname] = FunctionSummary(
        qualname=qualname,
        line=line,
        end_line=end_line,
        params=analyzed.params,
        is_method=analyzed.is_method,
        returns_dim=analyzed.returns_dim,
        calls=analyzed.calls,
    )


def _attach_sources(
    summary: ModuleSummary, refs: list[ast.Call | ast.Attribute]
) -> None:
    """Seed taint sources from per-file findings plus the v2-only detectors.

    ``refs`` is every call and attribute node of the module, in
    ``ast.walk`` order.
    """

    def cleansed(line: int, kind: str) -> bool:
        disabled = summary.suppressions.get(line, set())
        return (
            "all" in disabled
            or "CTMS111" in disabled
            or TAINT_SOURCE_RULES.get(kind, "") in disabled
        )

    def add(kind: str, line: int) -> None:
        fn = _enclosing_function(summary, line)
        fn.sources.append(
            {"kind": kind, "line": line, "suppressed": cleansed(line, kind)}
        )

    # 1) The per-file rules double as source detectors.
    for finding in summary.raw:
        kind = _RULE_TO_SOURCE_KIND.get(finding.rule)
        if kind is not None:
            add(kind, finding.line)

    # 2) os.urandom / os.getenv / os.environ -- no per-file rule exists.
    os_aliases = {a for a, m in summary.imports.items() if m == "os"}
    for node in refs:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in os_aliases
            and node.func.attr in OS_NONDETERMINISM_FUNCTIONS
        ):
            kind = "env-read" if node.func.attr == "getenv" else "os-entropy"
            add(kind, node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "environ"
            and isinstance(node.value, ast.Name)
            and node.value.id in os_aliases
        ):
            add("env-read", node.lineno)

    # 3) Bare calls to wall-clock / global-RNG / os names pulled in via
    #    `from x import y` (the import line is flagged per-file; the *call*
    #    is what taints the enclosing function).
    impure_symbols: dict[str, str] = {}
    for local, (mod, name) in summary.symbol_imports.items():
        if mod == "time" and name in WALL_CLOCK_TIME_FUNCTIONS:
            impure_symbols[local] = "wall-clock"
        elif mod == "random" and name in GLOBAL_RANDOM_FUNCTIONS:
            impure_symbols[local] = "global-random"
        elif mod == "os" and name in OS_NONDETERMINISM_FUNCTIONS:
            impure_symbols[local] = (
                "env-read" if name == "getenv" else "os-entropy"
            )
    if impure_symbols:
        for fn in summary.functions.values():
            for record in fn.calls:
                if (
                    record.ref
                    and record.ref[0] == "name"
                    and record.ref[1] in impure_symbols
                ):
                    kind = impure_symbols[record.ref[1]]
                    fn.sources.append(
                        {
                            "kind": kind,
                            "line": record.line,
                            "suppressed": cleansed(record.line, kind),
                        }
                    )
    for fn in summary.functions.values():
        fn.sources.sort(key=lambda s: (s["line"], s["kind"]))


def _enclosing_function(summary: ModuleSummary, line: int) -> FunctionSummary:
    """The innermost function whose span contains ``line`` (else <module>)."""
    best = summary.functions["<module>"]
    best_span = None
    for fn in summary.functions.values():
        if fn.qualname == "<module>":
            continue
        # The span starts at the def anchor; decorators sit above it but
        # belong to the function for attribution purposes.
        if fn.line <= line <= fn.end_line:
            span = fn.end_line - fn.line
            if best_span is None or span < best_span:
                best, best_span = fn, span
    return best


# ----------------------------------------------------------------------
# the linked graph
# ----------------------------------------------------------------------
class ProjectGraph:
    """All module summaries, linked: resolve symbolic call refs to ids.

    A function id is ``"<module dotted name>:<qualname>"``.
    """

    def __init__(self, modules: list[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {m.path: m for m in modules}
        self.by_name: dict[str, ModuleSummary] = {m.module: m for m in modules}
        #: dotted name -> its suffix match (None when absent or ambiguous).
        self._by_suffix: dict[str, Optional[ModuleSummary]] = {}
        self.functions: dict[str, tuple[ModuleSummary, FunctionSummary]] = {}
        for m in modules:
            for qualname, fn in m.functions.items():
                self.functions[f"{m.module}:{qualname}"] = (m, fn)

    # ------------------------------------------------------------------
    def display(self, fid: str) -> str:
        return fid

    def fid(self, module: ModuleSummary, qualname: str) -> str:
        return f"{module.module}:{qualname}"

    def resolve_module(self, dotted: Optional[str]) -> Optional[ModuleSummary]:
        if not dotted:
            return None
        hit = self.by_name.get(dotted)
        if hit is not None:
            return hit
        # Suffix match lets fixture trees without the repo's exact layout
        # (and `src.repro.x` spellings) still link -- but only when unique.
        # Most misses are external modules (`os`, `ast`) asked about again
        # and again, so each name's scan runs once per graph.
        if dotted not in self._by_suffix:
            matches = [
                m
                for name, m in self.by_name.items()
                if dotted.endswith(f".{name}") or name.endswith(f".{dotted}")
            ]
            self._by_suffix[dotted] = matches[0] if len(matches) == 1 else None
        return self._by_suffix[dotted]

    # ------------------------------------------------------------------
    def resolve(
        self,
        module: ModuleSummary,
        caller_qualname: str,
        ref: Optional[list],
    ) -> Optional[str]:
        """Function id a symbolic call ref denotes, or None (external)."""
        if not ref:
            return None
        kind = ref[0]
        if kind == "name":
            return self._resolve_name(module, ref[1])
        if kind == "self":
            cls = caller_qualname.split(".")[0] if "." in caller_qualname else None
            return self._resolve_method(module, cls, ref[1], set())
        if kind == "attr":
            return self._resolve_attr(module, ref[1], ref[2])
        return None

    def _function_in(
        self, module: ModuleSummary, name: str
    ) -> Optional[str]:
        if name in module.functions:
            return self.fid(module, name)
        if name in module.classes:
            init = f"{name}.__init__"
            if init in module.functions:
                return self.fid(module, init)
        return None

    def _resolve_name(self, module: ModuleSummary, name: str) -> Optional[str]:
        local = self._function_in(module, name)
        if local is not None:
            return local
        if name in module.symbol_imports:
            target_mod, symbol = module.symbol_imports[name]
            target = self.resolve_module(target_mod)
            if target is not None:
                return self._function_in(target, symbol)
        return None

    def _resolve_attr(
        self, module: ModuleSummary, base: str, attr: str
    ) -> Optional[str]:
        if "." not in base:
            if base in module.imports:
                target = self.resolve_module(module.imports[base])
                if target is not None:
                    return self._function_in(target, attr)
            if base in module.symbol_imports:
                target_mod, symbol = module.symbol_imports[base]
                target = self.resolve_module(target_mod)
                if target is not None:
                    # `from m import Cls; Cls.method(...)`
                    hit = self._function_in(target, f"{symbol}.{attr}")
                    if hit is not None:
                        return hit
                # `from pkg import mod; mod.fn(...)`
                target = self.resolve_module(f"{target_mod}.{symbol}")
                if target is not None:
                    return self._function_in(target, attr)
            if base in module.classes:
                return self._function_in(module, f"{base}.{attr}")
            return None
        # Dotted base: a full module path, or an alias-rooted one.
        target = self.resolve_module(base)
        if target is None:
            root, rest = base.split(".", 1)
            if root in module.imports:
                target = self.resolve_module(f"{module.imports[root]}.{rest}")
        if target is not None:
            return self._function_in(target, attr)
        return None

    def _resolve_method(
        self,
        module: ModuleSummary,
        cls: Optional[str],
        meth: str,
        visited: set[tuple[str, str]],
    ) -> Optional[str]:
        if cls is None or (module.path, cls) in visited:
            return None
        visited.add((module.path, cls))
        if f"{cls}.{meth}" in module.functions:
            return self.fid(module, f"{cls}.{meth}")
        info = module.classes.get(cls)
        if info is None:
            return None
        for base in info["bases"]:
            base_module, base_cls = self._resolve_class(module, base)
            if base_cls is None:
                continue
            hit = self._resolve_method(base_module, base_cls, meth, visited)
            if hit is not None:
                return hit
        return None

    def _resolve_class(
        self, module: ModuleSummary, dotted: str
    ) -> tuple[ModuleSummary, Optional[str]]:
        if "." not in dotted:
            if dotted in module.classes:
                return module, dotted
            if dotted in module.symbol_imports:
                target_mod, symbol = module.symbol_imports[dotted]
                target = self.resolve_module(target_mod)
                if target is not None and symbol in target.classes:
                    return target, symbol
            return module, None
        base, cls = dotted.rsplit(".", 1)
        target = self.resolve_module(module.imports.get(base, base))
        if target is not None and cls in target.classes:
            return target, cls
        return module, None

    # ------------------------------------------------------------------
    def edges(self):
        """Every resolved call edge: (caller_fid, callee_fid, line)."""
        for module in self.modules.values():
            for qualname, fn in module.functions.items():
                caller = self.fid(module, qualname)
                for record in fn.calls:
                    callee = self.resolve(module, qualname, record.ref)
                    if callee is not None:
                        yield caller, callee, record.line


__all__ = [
    "FunctionSummary",
    "ModuleSummary",
    "ProjectGraph",
    "module_name",
    "summarize_module",
]
