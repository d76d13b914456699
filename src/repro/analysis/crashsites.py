"""CS001: device-visible mutations must be reachable only through
the fault injector's crash-site registration.

The crash-consistency sweep (docs/FAULTS.md) enumerates numbered sites
by replaying the workload; a mutation primitive that executes on a path
with no ``faults.site(...)`` / ``faults.point(...)`` upstream is
invisible to the sweep — the oracle can never schedule a crash there,
so torn/lost-write bugs on that path are silently untested.

The rule runs on the shared :class:`repro.analysis.project.ProjectIndex`
call graph, restricted to the device stack (``repro.ssd``, ``repro.ftl``,
``repro.nand``, ``repro.cluster``):

* A function is *directly guarded* (G0) when its body calls
  ``*.faults.site(...)`` or ``*.faults.point(...)``, or when it is a
  nested ``def`` passed by name as the apply-callback to a ``site()``
  call in its enclosing function.
* Guardedness then propagates by a greatest fixed point: start with
  every function assumed guarded, and demote a function when it is not
  in G0, not exempt, and either has no in-stack callers at all or has at
  least one unguarded caller.  (Universal quantification over callers is
  what catches a primitive reachable from an unregistered entry path
  even when the same helper is also called from a guarded one.)
* Calls are resolved by bare name (the final attribute), so the
  analysis is conservative and method-receiver-agnostic — except where
  the index recorded a receiver-type hint (``x = ClassName(...);
  x.m()``): that edge targets only ``ClassName``'s own method, so a
  guarded driver of one class no longer poisons every same-named method
  in the stack.
* ``# repro: allow[CS001]`` on the ``def`` header (decorators and
  multi-line signatures included) exempts the whole function and treats
  it as guarded for propagation — recovery code is the intended use,
  since sweeps disarm the injector before recovery.

**CS001** flags each unguarded mutation call site, and its message
names *how* the site is reached: a minimal unguarded call chain from an
entry function (an unguarded function nobody in the stack calls) down
to the mutation, whose entry is what you have to guard to fix it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.project import FunctionInfo, ProjectIndex

#: Module prefixes that constitute the simulated device stack.  The
#: serving layer (repro.cluster) sits at the host->device boundary but
#: drives the same device mutations, so it is swept for unregistered
#: mutation paths too.
STACK_PREFIXES = (
    "repro.ssd",
    "repro.ftl",
    "repro.nand",
    "repro.cluster",
    # the device-DRAM cache tier sits between firmware and the FTL and
    # issues the same mutation primitives (write-back, trim forwarding)
    "repro.devcache",
)

#: Bare names of device-visible mutation primitives.
MUTATION_PRIMITIVES = {
    "write_page",
    "program_page",
    "erase_block",
    "consume",
    "insert",
    "remove_page",
    "replace",
    "byte_write",
    "block_write",
    "trim",
    "commit",
}

RULE = "CS001"


def _stack_contexts(index: ProjectIndex) -> List[FunctionInfo]:
    out: List[FunctionInfo] = []
    for mod in index.modules:
        if any(
            mod.name == p or mod.name.startswith(p + ".")
            for p in STACK_PREFIXES
        ):
            out.extend(index.functions_by_module[mod.name])
    return out


class _Graph:
    """Caller edges over the stack subset, with receiver-hint routing."""

    def __init__(self, index: ProjectIndex,
                 contexts: List[FunctionInfo]) -> None:
        self.index = index
        self.contexts = contexts
        self.pos = {id(c): i for i, c in enumerate(contexts)}
        # name -> caller indices for untargeted calls; (class, name) ->
        # caller indices for receiver-hinted calls that resolve to a
        # known method.
        self.by_name: Dict[str, Set[int]] = {}
        self.by_class: Dict[Tuple[str, str], Set[int]] = {}
        self.ctxs_named: Dict[str, List[int]] = {}
        for i, ctx in enumerate(contexts):
            self.ctxs_named.setdefault(ctx.name, []).append(i)
            for call in ctx.calls:
                if call.recv_class is not None \
                        and index.has_method(call.recv_class, call.name):
                    self.by_class.setdefault(
                        (call.recv_class, call.name), set()
                    ).add(i)
                else:
                    self.by_name.setdefault(call.name, set()).add(i)

    def callers_of(self, ctx: FunctionInfo) -> Set[int]:
        """Contexts calling ``ctx``, never ``ctx`` itself: a delegating
        ``MSSD.recover()`` calls ``self.firmware.recover()``, which
        resolves by name back to itself, and a self-edge would keep a
        path nobody else calls guarded by optimism alone."""
        found = set(self.by_name.get(ctx.name, ()))
        if ctx.class_name is not None:
            found |= self.by_class.get((ctx.class_name, ctx.name), set())
        found.discard(self.pos[id(ctx)])
        return found

    def callees_of(self, i: int) -> Set[int]:
        """Indices a call from context ``i`` may land on (stack only)."""
        out: Set[int] = set()
        for call in self.contexts[i].calls:
            targeted = call.recv_class is not None \
                and self.index.has_method(call.recv_class, call.name)
            for j in self.ctxs_named.get(call.name, ()):
                ctx = self.contexts[j]
                if targeted and ctx.class_name != call.recv_class:
                    continue
                out.add(j)
        return out


def _fixed_point(graph: _Graph) -> List[bool]:
    """Greatest fixed point: optimistically everything is guarded, then
    demote until stable.  Demotion is monotone, so this terminates."""
    contexts = graph.contexts
    guarded = [True] * len(contexts)
    changed = True
    while changed:
        changed = False
        for i, ctx in enumerate(contexts):
            if not guarded[i] or ctx.guarded0 or ctx.is_exempt(RULE):
                continue
            callers = graph.callers_of(ctx)
            if not callers or any(not guarded[j] for j in callers):
                guarded[i] = False
                changed = True
    return guarded


def _entry_chains(graph: _Graph, guarded: List[bool]) -> Dict[int, List[int]]:
    """Minimal unguarded chain (entry -> ... -> ctx) per unguarded
    context, by multi-source BFS from the entry set (unguarded contexts
    with no in-stack callers).  Contexts only reachable through cycles
    fall back to a chain of just themselves.  (An exempt context is
    never demoted, so "unguarded" already excludes it.)"""
    contexts = graph.contexts
    entries = [
        i for i, ctx in enumerate(contexts)
        if not guarded[i] and not graph.callers_of(ctx)
    ]
    parent: Dict[int, Optional[int]] = {i: None for i in entries}
    frontier = list(entries)
    while frontier:
        nxt: List[int] = []
        for i in frontier:
            for j in sorted(graph.callees_of(i)):
                if guarded[j] or j in parent:
                    continue
                parent[j] = i
                nxt.append(j)
        frontier = nxt

    chains: Dict[int, List[int]] = {}
    for i in range(len(contexts)):
        if guarded[i]:
            continue
        if i in parent:
            chain = [i]
            while parent[chain[0]] is not None:
                chain.insert(0, parent[chain[0]])
            chains[i] = chain
        else:
            chains[i] = [i]
    return chains


def check_crash_sites(index: ProjectIndex) -> List[Finding]:
    """CS001 over the device stack, each finding naming its chain."""
    contexts = _stack_contexts(index)
    graph = _Graph(index, contexts)
    guarded = _fixed_point(graph)
    chains = _entry_chains(graph, guarded)

    out: List[Finding] = []
    for i, ctx in enumerate(contexts):
        if guarded[i]:
            continue
        chain = [contexts[j].qualname for j in chains[i]]
        rendered = " -> ".join(f"{q}()" for q in chain)
        for call in ctx.calls:
            if not call.is_method or call.name not in MUTATION_PRIMITIVES:
                continue
            out.append(Finding(
                RULE, ctx.module.display, call.line, call.col,
                f"device mutation .{call.name}() reachable via "
                f"{rendered} without a crash-site registration; register "
                f"one (faults.site()/faults.point()) on the entry "
                f"function {chain[0]}() or mark the def with "
                "`# repro: allow[CS001]`",
            ))
    return out
