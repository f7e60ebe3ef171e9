"""NUMA topology: which node owns each CPU and each NIC receive queue.

The mapping is the block layout real machines use (and the one MSI-X
affinity scripts set up): with ``C`` CPUs over ``N`` nodes, CPUs
``[0, C/N)`` sit on node 0, the next block on node 1, and so on.  Receive
queue *i*'s MSI-X vector targets CPU *i* in the mq rig, so queues follow
the same block map — queue and servicing CPU always agree on a node, which
is exactly what makes *application* placement (the socket's CPU) the
variable that decides local vs remote line fetches.
"""

from __future__ import annotations


class NumaTopology:
    """Static node→CPU / node→RX-queue block mapping."""

    def __init__(self, nodes: int = 1, cpus: int = 1, queues: int | None = None):
        if nodes < 1:
            raise ValueError(f"NumaTopology needs >= 1 node, got {nodes}")
        if cpus < 1:
            raise ValueError(f"NumaTopology needs >= 1 CPU, got {cpus}")
        self.nodes = nodes
        self.n_cpus = cpus
        self.n_queues = queues if queues is not None else cpus
        if self.n_queues < 1:
            raise ValueError(f"NumaTopology needs >= 1 queue, got {self.n_queues}")

    # ------------------------------------------------------------------
    def _node_of(self, index: int, count: int) -> int:
        # Block mapping; with more nodes than CPUs the trailing nodes are
        # simply empty (a UP rig on a 2-node config runs entirely on node 0).
        return min(index * self.nodes // count, self.nodes - 1)

    def node_of_cpu(self, cpu_index: int) -> int:
        return self._node_of(cpu_index % self.n_cpus, self.n_cpus)

    def node_of_queue(self, queue_index: int) -> int:
        return self._node_of(queue_index % self.n_queues, self.n_queues)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NumaTopology(nodes={self.nodes}, cpus={self.n_cpus}, "
            f"queues={self.n_queues})"
        )
