"""Fluid-simulation network: topology arrays + connections + incidence maps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from scipy import sparse

from repro.errors import ConfigurationError
from repro.fluidsim.adapters import FluidAlgorithm, create_fluid_algorithm
from repro.topology.base import DcTopology, PathSpec
from repro.units import DEFAULT_PACKET_BYTES


@dataclass(frozen=True)
class ComputeArrays:
    """The per-link/per-subflow constants of the step loop in one dtype.

    :meth:`FluidNetwork.compute_arrays` hands these to the engine so a
    float32 simulation reads half-width copies of the invariant arrays
    (and CSR data vectors for the raw matvec kernel) instead of paying
    an upcast on every operation.
    """

    base_rtt: np.ndarray
    capacity: np.ndarray
    inv_capacity: np.ndarray
    buffer_bits: np.ndarray
    routing_data: np.ndarray
    routing_t_data: np.ndarray


@dataclass(frozen=True)
class RoutingPlan:
    """CSR-derived gather/scatter index arrays for the engine fast path.

    The routing matrix of a fat-tree-style fabric is overwhelmingly
    sparse (k=8: ~0.8% dense), and all structural nonzeros are exactly
    1.0, so both hot products of the step loop reduce to gathers plus
    segmented sums::

        y = R  @ x   ->  y[l] = sum of x[s] over s on link l
        z = R.T @ v  ->  z[s] = sum of v[l] over l on subflow s

    The engine evaluates them with ``np.take`` into a preallocated
    buffer followed by ``np.bincount`` over these precomputed index
    arrays. ``bincount`` is the one segmented reduction in numpy that
    accumulates *sequentially in input order* — the same order scipy's
    CSR matvec uses — so the kernel results are bit-identical to the
    ``R @ x`` reference (``np.add.reduceat`` is not: it reduces large
    segments pairwise and rounds differently).
    """

    n_links: int
    n_subflows: int
    nnz: int
    #: nnz / (links * subflows); drives the auto sparse/dense choice.
    density: float
    #: True when every stored value is exactly 1.0 (a path never
    #: repeats a link). The unit-weight kernels are only valid then.
    unit_weights: bool
    #: Link index of every nonzero, link-major (CSR row order of R).
    link_of_nnz: np.ndarray
    #: Subflow to gather from, aligned with :attr:`link_of_nnz`.
    sub_gather: np.ndarray
    #: Subflow index of every nonzero, subflow-major (CSR rows of R.T).
    sub_of_nnz: np.ndarray
    #: Link to gather from, aligned with :attr:`sub_of_nnz`.
    link_gather: np.ndarray

    @classmethod
    def from_routing(cls, routing: sparse.csr_matrix,
                     routing_t: sparse.csr_matrix) -> "RoutingPlan":
        """Build the plan from the finalized routing matrix pair."""
        for m in (routing, routing_t):
            if not m.has_sorted_indices:  # pragma: no cover - csr is canonical
                m.sort_indices()
        n_links, n_subflows = routing.shape
        nnz = int(routing.nnz)
        cells = n_links * n_subflows
        return cls(
            n_links=n_links,
            n_subflows=n_subflows,
            nnz=nnz,
            density=nnz / cells if cells else 0.0,
            unit_weights=bool(np.all(routing.data == 1.0)),
            link_of_nnz=np.repeat(np.arange(n_links, dtype=np.intp),
                                  np.diff(routing.indptr)),
            sub_gather=routing.indices.astype(np.intp),
            sub_of_nnz=np.repeat(np.arange(n_subflows, dtype=np.intp),
                                 np.diff(routing_t.indptr)),
            link_gather=routing_t.indices.astype(np.intp),
        )


@dataclass
class Cohort:
    """All subflows sharing one algorithm instance (users contiguous)."""

    algorithm: FluidAlgorithm
    #: Global subflow indices of this cohort, in storage order.
    ids: np.ndarray
    #: Offsets of each user's block within ``ids`` (for reduceat).
    user_starts: np.ndarray
    #: User index (within the cohort) of each subflow.
    user_of: np.ndarray


@dataclass
class FluidConnection:
    """One (multipath) connection in the fluid simulator."""

    index: int
    src: str
    dst: str
    algorithm_name: str
    paths: List[PathSpec]
    #: Global subflow indices, filled at finalize().
    subflow_ids: List[int] = field(default_factory=list)

    @property
    def n_subflows(self) -> int:
        return len(self.paths)


class FluidNetwork:
    """Builds the arrays the engine integrates.

    Construct from a :class:`~repro.topology.base.DcTopology`, add
    connections (subflows = paths), then ``finalize()``.
    """

    def __init__(
        self,
        topology: DcTopology,
        *,
        buffer_packets: int = 100,
        packet_bytes: int = DEFAULT_PACKET_BYTES,
        path_seed: Optional[int] = 0,
    ):
        self.topology = topology
        #: RNG for ECMP-style random path selection. Real datacenters hash
        #: flows onto random equal-cost paths; always taking the first
        #: enumerated path would concentrate every single-subflow flow onto
        #: the same core links.
        self._path_rng = np.random.default_rng(path_seed)
        self.packet_bytes = packet_bytes
        self.packet_bits = packet_bytes * 8
        n_links = topology.n_links
        self.capacity = np.array([l.capacity_bps for l in topology.links])
        self.link_delay = np.array([l.delay_s for l in topology.links])
        self.is_swsw = np.array([l.is_switch_to_switch for l in topology.links])
        self.buffer_bits = np.full(n_links, buffer_packets * self.packet_bits, dtype=float)
        self.connections: List[FluidConnection] = []
        self._finalized = False

        # Filled by finalize():
        self.routing: Optional[sparse.csr_matrix] = None  # links x subflows
        self.routing_t: Optional[sparse.csr_matrix] = None
        self.routing_plan: Optional[RoutingPlan] = None
        self.base_rtt: Optional[np.ndarray] = None
        self.switch_hops: Optional[np.ndarray] = None
        self.subflow_conn: Optional[np.ndarray] = None
        self.cohorts: List[Cohort] = []
        self.host_incidence: Optional[sparse.csr_matrix] = None
        self.host_subflow_count: Optional[np.ndarray] = None
        self.switch_egress: Dict[str, List[int]] = {}
        #: Per-dtype copies of the hot step-loop constants, built lazily
        #: by :meth:`compute_arrays`.
        self._compute_cache: Dict[np.dtype, "ComputeArrays"] = {}

    # ---------------------------------------------------------------- build

    def add_connection(
        self,
        src: str,
        dst: str,
        algorithm: str,
        *,
        n_subflows: int,
        algorithm_kwargs: Optional[dict] = None,
        path_pool: int = 64,
    ) -> FluidConnection:
        """Add a connection using up to ``n_subflows`` distinct paths,
        sampled ECMP-style from up to ``path_pool`` enumerated paths.

        The draw reads only the candidate count, then builds just the
        chosen paths (the topology's sequence may be lazy).
        """
        if self._finalized:
            raise ConfigurationError("network already finalized")
        if n_subflows < 1:
            raise ConfigurationError(f"n_subflows must be >= 1, got {n_subflows}")
        if path_pool < 1:
            raise ConfigurationError(f"path_pool must be >= 1, got {path_pool}")
        candidates = self.topology.paths(src, dst, max(n_subflows, path_pool))
        if not candidates:
            raise ConfigurationError(f"no path between {src} and {dst}")
        if len(candidates) > n_subflows:
            chosen = self._path_rng.choice(len(candidates), size=n_subflows, replace=False)
            paths = [candidates[i] for i in sorted(chosen.tolist())]
        else:
            paths = list(candidates)
        conn = FluidConnection(
            index=len(self.connections),
            src=src,
            dst=dst,
            algorithm_name=algorithm,
            paths=paths,
        )
        conn._algorithm_kwargs = dict(algorithm_kwargs or {})  # type: ignore[attr-defined]
        self.connections.append(conn)
        return conn

    def finalize(self) -> None:
        """Freeze the connection set and build all arrays."""
        if self._finalized:
            raise ConfigurationError("network already finalized")
        self._finalized = True
        links = self.topology.links
        host_ids = {h: i for i, h in enumerate(self.topology.hosts)}

        # Assign subflow ids grouped by algorithm cohort, users contiguous.
        by_algo: Dict[str, List[FluidConnection]] = {}
        algo_kwargs: Dict[str, dict] = {}
        for conn in self.connections:
            by_algo.setdefault(conn.algorithm_name, []).append(conn)
            algo_kwargs.setdefault(
                conn.algorithm_name, getattr(conn, "_algorithm_kwargs", {})
            )

        rows: List[int] = []  # link index
        cols: List[int] = []  # subflow index
        base_rtt: List[float] = []
        switch_hops: List[float] = []
        subflow_conn: List[int] = []
        host_rows: List[int] = []
        host_cols: List[int] = []
        endpoint_count = np.zeros(len(self.topology.hosts))
        self.cohorts = []
        next_id = 0
        for algo_name, conns in by_algo.items():
            ids: List[int] = []
            user_starts: List[int] = []
            for conn in conns:
                user_starts.append(len(ids))
                for path in conn.paths:
                    sid = next_id
                    next_id += 1
                    ids.append(sid)
                    conn.subflow_ids.append(sid)
                    subflow_conn.append(conn.index)
                    for li in path.link_indices:
                        rows.append(li)
                        cols.append(sid)
                    base_rtt.append(path.base_rtt(links))
                    switch_hops.append(path.switch_hops(links))
                    # Host incidence: sender, receiver, and any relays all
                    # burn throughput-proportional CPU for this subflow's
                    # traffic; only the endpoints hold subflow socket state
                    # (the per-subflow overhead of Fig. 1).
                    touched = {conn.src, conn.dst, *path.relay_hosts}
                    for h in touched:
                        host_rows.append(host_ids[h])
                        host_cols.append(sid)
                    endpoint_count[host_ids[conn.src]] += 1
                    endpoint_count[host_ids[conn.dst]] += 1
            ids_arr = np.array(ids, dtype=np.int64)
            user_of = np.zeros(len(ids), dtype=np.int64)
            for u, start in enumerate(user_starts):
                end = user_starts[u + 1] if u + 1 < len(user_starts) else len(ids)
                user_of[start:end] = u
            algorithm = create_fluid_algorithm(algo_name, **algo_kwargs[algo_name])
            self.cohorts.append(
                Cohort(algorithm, ids_arr, np.array(user_starts, dtype=np.int64), user_of)
            )

        n_subflows = next_id
        data = np.ones(len(rows))
        self.routing = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(links), n_subflows)
        )
        self.routing_t = self.routing.T.tocsr()
        self.routing_plan = RoutingPlan.from_routing(self.routing, self.routing_t)
        self.base_rtt = np.array(base_rtt)
        self.switch_hops = np.array(switch_hops)
        self.subflow_conn = np.array(subflow_conn, dtype=np.int64)
        self.host_incidence = sparse.csr_matrix(
            (np.ones(len(host_rows)), (host_rows, host_cols)),
            shape=(len(self.topology.hosts), n_subflows),
        )
        self.host_subflow_count = np.asarray(
            self.host_incidence.sum(axis=1)
        ).ravel()
        #: Subflows for which each host keeps socket state (src/dst only).
        self.host_endpoint_count = endpoint_count
        # Switch egress ports for the switch-energy model.
        self.switch_egress = {s: [] for s in self.topology.switches}
        for li, spec in enumerate(links):
            if spec.src in self.switch_egress:
                self.switch_egress[spec.src].append(li)

    @property
    def n_subflows(self) -> int:
        """Total subflow count (after finalize)."""
        if self.base_rtt is None:
            raise ConfigurationError("finalize() the network first")
        return len(self.base_rtt)

    @property
    def n_links(self) -> int:
        return len(self.capacity)

    def compute_arrays(self, dtype) -> "ComputeArrays":
        """The step-loop constants in ``dtype``, cached per dtype.

        ``float64`` returns views of the canonical arrays (no copies);
        ``float32`` materializes half-width copies once so every
        simulation sharing this network reuses them.  Requires
        :meth:`finalize`.
        """
        if self.base_rtt is None:
            raise ConfigurationError("finalize() the network first")
        dtype = np.dtype(dtype)
        cached = self._compute_cache.get(dtype)
        if cached is None:
            if dtype == self.base_rtt.dtype:
                cached = ComputeArrays(
                    base_rtt=self.base_rtt,
                    capacity=self.capacity,
                    inv_capacity=1.0 / self.capacity,
                    buffer_bits=self.buffer_bits,
                    routing_data=self.routing.data,
                    routing_t_data=self.routing_t.data,
                )
            else:
                cached = ComputeArrays(
                    base_rtt=self.base_rtt.astype(dtype),
                    capacity=self.capacity.astype(dtype),
                    inv_capacity=(1.0 / self.capacity).astype(dtype),
                    buffer_bits=self.buffer_bits.astype(dtype),
                    routing_data=self.routing.data.astype(dtype),
                    routing_t_data=self.routing_t.data.astype(dtype),
                )
            self._compute_cache[dtype] = cached
        return cached


def permutation_network(
    topology: DcTopology,
    algorithm: str,
    *,
    n_subflows: int,
    seed: int,
    path_pool: int = 64,
    algorithm_kwargs: Optional[dict] = None,
) -> FluidNetwork:
    """The workload of the paper's Figs. 10 and 12-16, finalized: every
    host of ``topology`` sends one long-lived ``algorithm`` connection to
    a distinct random other host.

    ``seed`` draws both the host pairing and the ECMP path choice, the
    only randomness a fluid scenario has before stepping.
    """
    # Lazy: no fluidsim module imports the workloads package at load time.
    from repro.workloads.permutation import random_permutation_pairs

    net = FluidNetwork(topology, path_seed=seed)
    for src, dst in random_permutation_pairs(topology.hosts,
                                             np.random.default_rng(seed)):
        net.add_connection(src, dst, algorithm, n_subflows=n_subflows,
                           algorithm_kwargs=algorithm_kwargs,
                           path_pool=path_pool)
    net.finalize()
    return net
