"""The project-internal import graph over a ProjectModel.

:class:`ImportGraph` holds the package's module dependencies, with
Tarjan SCC cycle detection and a deterministic topological order
(cycles collapse to one component; members stay sorted).  The one
analysis run reports its cycles as notes, so the lazy-import
workarounds in the codebase stay deliberate.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from .project import ProjectModel

__all__ = ["ImportGraph"]


class ImportGraph:
    """Project-internal import dependencies."""

    def __init__(self, model: ProjectModel) -> None:
        self.model = model
        self.edges: Dict[str, Set[str]] = {
            name: {dep for dep in module.imports if dep in model.modules}
            for name, module in model.modules.items()
        }

    def imports_of(self, module: str) -> Tuple[str, ...]:
        return tuple(sorted(self.edges.get(module, ())))

    def importers_of(self, module: str) -> Tuple[str, ...]:
        return tuple(
            sorted(src for src, deps in self.edges.items() if module in deps)
        )

    # ------------------------------------------------------------------
    def sccs(self) -> List[Tuple[str, ...]]:
        """Strongly connected components (Tarjan), deterministically.

        Components are returned in reverse topological order (a
        component appears before any component it imports from), each
        with members sorted.
        """
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        out: List[Tuple[str, ...]] = []
        counter = iter(range(len(self.edges) * 2 + 1))

        # Iterative Tarjan: (node, child-iterator) frames.
        def strongconnect(root: str) -> None:
            frames: List[Tuple[str, Iterator[str]]] = [
                (root, iter(sorted(self.edges.get(root, ()))))
            ]
            index[root] = lowlink[root] = next(counter)
            stack.append(root)
            on_stack.add(root)
            while frames:
                node, children = frames[-1]
                advanced = False
                for child in children:
                    if child not in index:
                        index[child] = lowlink[child] = next(counter)
                        stack.append(child)
                        on_stack.add(child)
                        frames.append((child, iter(sorted(self.edges.get(child, ())))))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    out.append(tuple(sorted(component)))

        for name in sorted(self.edges):
            if name not in index:
                strongconnect(name)
        return out

    def cycles(self) -> List[Tuple[str, ...]]:
        """Import cycles: every SCC with more than one member (or a
        self-import), sorted for stable reporting."""
        found = [
            scc
            for scc in self.sccs()
            if len(scc) > 1 or scc[0] in self.edges.get(scc[0], ())
        ]
        return sorted(found)

    def topo_order(self) -> List[str]:
        """Modules in dependency-first order (cycle members adjacent)."""
        return [name for scc in self.sccs() for name in scc]
