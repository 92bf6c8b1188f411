"""Minor embedding of problem graphs into hardware topologies.

"Just like superconducting gate-model quantum computers, superconducting
quantum annealers also suffer from limited connectivity.  It means that we
have to find a graph minor embedding, combining several physical qubits into
a logical qubit.  Finding an embedding is NP-hard in itself, so probabilistic
heuristics are normally used." (Section 4.2)

:class:`MinorEmbedder` implements a greedy chain-growth heuristic in the
spirit of minorminer: logical variables are placed one by one (highest
degree first) as connected chains of physical qubits, each new chain grown
along shortest free paths towards the chains of its already-placed
neighbours.  The embedding capacity experiment (E9) uses it to measure how
many TSP cities fit on a Chimera-connected annealer versus a fully connected
digital annealer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np


@dataclass
class EmbeddingResult:
    """A (possibly failed) minor embedding."""

    success: bool
    chains: dict[int, list[int]] = field(default_factory=dict)
    num_physical_qubits_used: int = 0
    max_chain_length: int = 0
    failure_reason: str = ""


class MinorEmbedder:
    """Greedy chain-growth minor-embedding heuristic."""

    def __init__(
        self,
        hardware_graph: nx.Graph,
        seed: int | None = None,
        tries: int = 3,
        rng: np.random.Generator | None = None,
    ):
        if hardware_graph.number_of_nodes() == 0:
            raise ValueError("hardware graph is empty")
        self.hardware = hardware_graph
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.tries = max(1, tries)

    # ------------------------------------------------------------------ #
    def embed(self, problem_graph: nx.Graph) -> EmbeddingResult:
        """Try to embed ``problem_graph``; returns the best attempt."""
        if problem_graph.number_of_nodes() > self.hardware.number_of_nodes():
            return EmbeddingResult(
                success=False,
                failure_reason="more logical variables than physical qubits",
            )
        best: EmbeddingResult | None = None
        for attempt in range(self.tries):
            result = self._embed_once(problem_graph, attempt)
            if result.success:
                if best is None or result.num_physical_qubits_used < best.num_physical_qubits_used:
                    best = result
            elif best is None:
                best = result
        assert best is not None
        return best

    def verify(self, problem_graph: nx.Graph, result: EmbeddingResult) -> bool:
        """Check chain connectivity, disjointness and edge coverage."""
        if not result.success:
            return False
        seen: set[int] = set()
        for chain in result.chains.values():
            if not chain:
                return False
            if seen & set(chain):
                return False
            seen.update(chain)
            if len(chain) > 1 and not nx.is_connected(self.hardware.subgraph(chain)):
                return False
        for u, v in problem_graph.edges():
            chain_u, chain_v = result.chains[u], result.chains[v]
            if not any(self.hardware.has_edge(a, b) for a in chain_u for b in chain_v):
                return False
        return True

    # ------------------------------------------------------------------ #
    def _embed_once(self, problem_graph: nx.Graph, attempt: int) -> EmbeddingResult:
        order = sorted(
            problem_graph.nodes,
            key=lambda n: (-problem_graph.degree(n), self.rng.random()),
        )
        chains: dict[int, list[int]] = {}
        used: set[int] = set()

        for logical in order:
            placed_neighbours = [n for n in problem_graph.neighbors(logical) if n in chains]
            if not placed_neighbours:
                seed_qubit = self._best_free_seed(used)
                if seed_qubit is None:
                    return EmbeddingResult(success=False, failure_reason="no free qubits left")
                chains[logical] = [seed_qubit]
                used.add(seed_qubit)
                continue
            chain = self._grow_chain(placed_neighbours, chains, used)
            if chain is None:
                return EmbeddingResult(
                    success=False,
                    chains=chains,
                    failure_reason=f"could not route logical variable {logical}",
                )
            chains[logical] = chain
            used.update(chain)

        total = sum(len(c) for c in chains.values())
        return EmbeddingResult(
            success=True,
            chains=chains,
            num_physical_qubits_used=total,
            max_chain_length=max(len(c) for c in chains.values()),
        )

    def _best_free_seed(self, used: set[int]) -> int | None:
        free = [q for q in self.hardware.nodes if q not in used]
        if not free:
            return None
        return max(
            free,
            key=lambda q: sum(1 for n in self.hardware.neighbors(q) if n not in used),
        )

    def _grow_chain(
        self,
        placed_neighbours: list[int],
        chains: dict[int, list[int]],
        used: set[int],
    ) -> list[int] | None:
        """Grow a new chain adjacent to every placed neighbour chain.

        Runs a BFS over free qubits from each neighbour chain's frontier; the
        chain root is the free qubit minimising the total distance, and the
        chain is the union of the BFS paths from the root back to each
        frontier.
        """
        distance_maps: list[dict[int, tuple[int, int | None]]] = []
        for neighbour in placed_neighbours:
            frontier = chains[neighbour]
            distances = self._bfs_from_chain(frontier, used)
            if not distances:
                return None
            distance_maps.append(distances)

        candidates: dict[int, int] = {}
        for qubit in self.hardware.nodes:
            if qubit in used:
                continue
            total = 0
            feasible = True
            for distances in distance_maps:
                if qubit not in distances:
                    feasible = False
                    break
                total += distances[qubit][0]
            if feasible:
                candidates[qubit] = total
        if not candidates:
            return None
        root = min(candidates, key=lambda q: (candidates[q], q))

        chain: set[int] = {root}
        for distances in distance_maps:
            node = root
            while True:
                _, parent = distances[node]
                if parent is None or parent in used:
                    break
                chain.add(parent)
                node = parent
        return sorted(chain)

    def _bfs_from_chain(
        self, chain: list[int], used: set[int]
    ) -> dict[int, tuple[int, int | None]]:
        """BFS over free qubits starting from the neighbours of a chain.

        Returns ``{qubit: (distance, parent)}`` where parent leads back
        towards the chain (parent of a frontier qubit is None).
        """
        from collections import deque

        distances: dict[int, tuple[int, int | None]] = {}
        queue: deque[int] = deque()
        for member in chain:
            for neighbour in self.hardware.neighbors(member):
                if neighbour in used or neighbour in distances:
                    continue
                distances[neighbour] = (1, None)
                queue.append(neighbour)
        while queue:
            current = queue.popleft()
            current_distance, _ = distances[current]
            for neighbour in self.hardware.neighbors(current):
                if neighbour in used or neighbour in distances:
                    continue
                distances[neighbour] = (current_distance + 1, current)
                queue.append(neighbour)
        return distances


def chimera_clique_embedding(chimera, num_variables: int) -> EmbeddingResult:
    """Deterministic clique (complete-graph) embedding for Chimera graphs.

    The standard "triangle" construction: variable ``v = t*b + a`` (block b,
    in-shore index a) is represented by an L-shaped chain — the right-shore
    qubits of row ``b`` from column ``b`` rightwards plus the left-shore
    qubits of column ``b`` from row ``0`` down to ``b`` — giving chains of
    length ``m + 1`` and a K_{t*m} clique minor on C(m, m, t).  This is the
    construction behind the D-Wave capacity figures quoted in the paper
    (about 9 TSP cities on a 2000Q).
    """
    from repro.annealing.chimera import ChimeraGraph

    if not isinstance(chimera, ChimeraGraph):
        raise TypeError("chimera_clique_embedding requires a ChimeraGraph")
    m = min(chimera.rows, chimera.cols)
    t = chimera.shore_size
    capacity = t * m
    if num_variables > capacity:
        return EmbeddingResult(
            success=False,
            failure_reason=(
                f"clique embedding capacity is K_{capacity} on C({m},{m},{t}), "
                f"requested K_{num_variables}"
            ),
        )
    chains: dict[int, list[int]] = {}
    for variable in range(num_variables):
        block, index = divmod(variable, t)
        chain = [
            chimera.linear_index(block, col, 1, index) for col in range(block, m)
        ]
        chain.extend(
            chimera.linear_index(row, block, 0, index) for row in range(0, block + 1)
        )
        chains[variable] = sorted(set(chain))
    total = sum(len(c) for c in chains.values())
    return EmbeddingResult(
        success=True,
        chains=chains,
        num_physical_qubits_used=total,
        max_chain_length=max(len(c) for c in chains.values()),
    )


def embedding_capacity(
    hardware_graph: nx.Graph,
    problem_for_size,
    sizes: list[int],
    seed: int | None = None,
) -> dict[int, bool]:
    """Feasibility sweep: which problem sizes embed into the hardware graph.

    ``problem_for_size(size)`` must return the logical interaction graph for
    that size (e.g. the TSP QUBO graph for ``size`` cities).
    """
    embedder = MinorEmbedder(hardware_graph, seed=seed, tries=2)
    feasibility: dict[int, bool] = {}
    for size in sizes:
        problem = problem_for_size(size)
        result = embedder.embed(problem)
        feasibility[size] = result.success and embedder.verify(problem, result)
    return feasibility
