"""Tree strategy searches: the table route and the locality of compiled templates.

The structured-cheat search of the Algorithm 5 and Theorem 32 trees compiles
each chunk of strategies into :class:`~repro.engine.jobs.StrategyBatch`
objects: the honest job of every verification tree is the template, and
every strategy is a choice of state-table rows for the template's proof
rows.  These tests pin that route, on transfer-matrix complex128, to the
bits of the per-proof route (a protocol subclass with ``strategy_batch =
None``) over the lattice the benchmark and the report search, and check
that every compiled template tests only registers a node holds or receives
over one of its network edges.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.soundness import fingerprint_strategy_soundness
from repro.comm.one_way import FingerprintEqualityOneWay
from repro.comm.problems import EqualityProblem, ForAllPairsProblem
from repro.engine import (
    Engine,
    MockDeviceTransferMatrixBackend,
    TransferMatrixBackend,
)
from repro.experiments.topologies import build_topology, default_soundness_topologies
from repro.experiments.tree_soundness import network_zoo
from repro.network.topology import star_network
from repro.protocols.base import ProductProof, unit_proof_state
from repro.protocols.equality import EqualityTreeProtocol
from repro.protocols.from_one_way import OneWayToTreeProtocol
from repro.quantum.channels import KrausChannel, NoiseModel, depolarizing_channel
from repro.quantum.fingerprint import ExactCodeFingerprint

TREE_FINGERPRINTS = ExactCodeFingerprint(2, rng=5)
ONE_WAY = FingerprintEqualityOneWay(ExactCodeFingerprint(2, rng=6))


def _no_instance(num_terminals):
    return tuple(["11"] * (num_terminals - 1) + ["01"])


class _PerProofTreeProtocol(EqualityTreeProtocol):
    """Algorithm 5 without a batch compiler: searches go proof by proof."""

    strategy_batch = None


class _PerProofOneWayProtocol(OneWayToTreeProtocol):
    """Theorem 32 without a batch compiler: searches go proof by proof."""

    strategy_batch = None


def _isometry_channel(dim, seed):
    """A generic CPTP map: the blocks of a random isometry ``C^d -> C^(2d)``."""
    rng = np.random.default_rng(seed)
    gaussian = rng.standard_normal((2 * dim, dim)) + 1j * rng.standard_normal((2 * dim, dim))
    isometry, _ = np.linalg.qr(gaussian)
    return KrausChannel("generic", tuple(isometry.reshape(2, dim, dim)))


DIM = TREE_FINGERPRINTS.dim
NOISE = {
    "depolarizing": NoiseModel.uniform_link(depolarizing_channel(0.15, DIM), readout_error=0.02),
    "generic": NoiseModel(
        link=_isometry_channel(DIM, 1), node=_isometry_channel(DIM, 2), readout_error=0.05
    ),
}


def _tree(network, per_proof=False):
    protocol_type = _PerProofTreeProtocol if per_proof else EqualityTreeProtocol
    return protocol_type(network, TREE_FINGERPRINTS)


def _one_way(network, per_proof=False):
    protocol_type = _PerProofOneWayProtocol if per_proof else OneWayToTreeProtocol
    problem = ForAllPairsProblem(EqualityProblem(2), network.num_terminals)
    return protocol_type(problem, network, ONE_WAY)


#: The benchmark's and the report's search lattice: (label, protocol factory
#: taking ``per_proof``, noise model or None).  The tree and one-way zoos at
#: t = 3 and 4, the six default topologies, and two noisy Algorithm 5
#: searches (a named family, and generic channels on every link and node).
LATTICE = (
    [
        (f"{family}-{name}-t{t}", lambda per_proof, f=factory, n=network: f(n, per_proof), None)
        for t in (3, 4)
        for name, network in network_zoo(t)
        for family, factory in (("tree", _tree), ("one-way", _one_way))
    ]
    + [
        (
            f"topology-{descriptor}",
            lambda per_proof, d=descriptor: _tree(build_topology(d, 3), per_proof),
            None,
        )
        for descriptor in default_soundness_topologies()
    ]
    + [
        (
            f"noisy-{channel}",
            lambda per_proof, n=network: _tree(n, per_proof),
            NOISE[channel],
        )
        for channel, network in (
            ("depolarizing", network_zoo(3)[0][1]),
            ("generic", network_zoo(4)[2][1]),
        )
    ]
)


class _RecordingEngine(Engine):
    """A transfer-matrix complex128 engine keeping every value a search scores."""

    def __init__(self, backend=None):
        super().__init__(backend=backend or TransferMatrixBackend(dtype="complex128"))
        self.chunks = []
        self.values = []

    def strategy_probabilities(self, batches):
        values = super().strategy_probabilities(batches)
        self.chunks.append(batches)
        self.values.append(values)
        return values

    def evaluate_programs(self, programs):
        values = super().evaluate_programs(programs)
        self.values.append(values)
        return values


def _search(factory, noise, engine, per_proof=False, batch_size=256):
    protocol = factory(per_proof).use_engine(engine)
    if noise is not None:
        protocol = protocol.with_noise(noise)
    inputs = _no_instance(protocol.network.num_terminals)
    return fingerprint_strategy_soundness(protocol, inputs, batch_size=batch_size)


@pytest.mark.parametrize("label, factory, noise", LATTICE, ids=[point[0] for point in LATTICE])
class TestTreeStrategyTableRoute:
    """Every tree strategy value equals its job's and the per-proof route's, bit for bit."""

    def test_every_strategy_value_equals_its_job_bit_for_bit(self, label, factory, noise):
        engine = _RecordingEngine()
        _search(factory, noise, engine)
        backend = engine.backend
        protocol = factory(False)
        trees = getattr(protocol, "trees", {0: None})  # one batch per tree
        # random-graph-9-s2 has no proof registers: nothing to tabulate.
        assert bool(engine.chunks) == bool(protocol.proof_registers())
        for batches in engine.chunks:
            assert len(batches) == len(trees)
            for batch in batches:
                assert batch.template.is_noisy == (noise is not None)
                table = backend.strategy_probabilities(batch)
                jobs = backend.tree_probabilities(batch.jobs())
                np.testing.assert_array_equal(table.view(np.uint64), jobs.view(np.uint64))

    def test_strategy_values_equal_the_per_proof_route(self, label, factory, noise):
        table, per_proof = _RecordingEngine(), _RecordingEngine()
        _search(factory, noise, table)
        _search(factory, noise, per_proof, per_proof=True)
        assert not per_proof.chunks
        fast, reference = np.concatenate(table.values), np.concatenate(per_proof.values)
        assert len(fast) == len(reference) > 1
        np.testing.assert_array_equal(fast.view(np.uint64), reference.view(np.uint64))

    def test_search_equals_the_per_proof_search(self, label, factory, noise):
        engine = Engine(backend=TransferMatrixBackend(dtype="complex128"))
        fast = _search(factory, noise, engine)
        reference = _search(factory, noise, engine, per_proof=True)
        assert fast.best_strategy == reference.best_strategy
        assert fast.best_acceptance.hex() == reference.best_acceptance.hex()
        assert fast.num_assignments == reference.num_assignments
        assert fast.best_proof.register_names == reference.best_proof.register_names
        for name in fast.best_proof.register_names:
            np.testing.assert_array_equal(
                fast.best_proof.state(name), reference.best_proof.state(name)
            )


@pytest.mark.parametrize(
    "family, noise",
    [(_tree, None), (_one_way, None), (_tree, NOISE["generic"])],
    ids=["tree", "one-way", "tree-generic"],
)
def test_strategy_batch_rows_are_the_proofs_registers(family, noise):
    """Per-register random rows score like the product proofs that hold them.

    The searches give every register of a node the same state, which would
    hide a row map that swaps registers within a node; here every register
    draws its own table row.
    """
    protocol = family(network_zoo(4)[2][1])  # random-8
    if noise is not None:
        protocol = protocol.with_noise(noise)
    engine = Engine(backend=TransferMatrixBackend(dtype="complex128"))
    protocol.use_engine(engine)
    inputs = _no_instance(4)
    rng = np.random.default_rng(3)
    candidates = ExactCodeFingerprint(2, rng=9)
    states = [candidates.state(x) for x in ("00", "01", "10", "11")]
    # Table rows normalised as ProductProof normalises the states it is given
    # (not idempotent in the last bit), so both routes see one vector.
    table = np.stack([unit_proof_state(state, "candidate") for state in states])
    registers = protocol.proof_registers()
    rows = rng.integers(0, len(table), size=(6, len(registers)))
    proofs = [
        ProductProof({register.name: states[row] for register, row in zip(registers, strategy)})
        for strategy in rows
    ]
    values = engine.strategy_probabilities(protocol.strategy_batch(inputs, table, rows))
    reference = protocol.acceptance_probabilities([inputs] * len(proofs), proofs=proofs)
    np.testing.assert_array_equal(values.view(np.uint64), reference.view(np.uint64))


class TestTreeStrategyTransfers:
    """On the mock device a search moves each tree's row stack once per chunk."""

    @staticmethod
    def _mock_search(factory, batch_size):
        backend = MockDeviceTransferMatrixBackend()
        result = _search(factory, None, Engine(backend=backend), batch_size=batch_size)
        chunks = -(-(result.num_assignments + 1) // batch_size)
        return backend.xp, chunks, result.num_assignments + 1

    @pytest.mark.parametrize("family", [_tree, _one_way], ids=["tree", "one-way"])
    def test_transfers_are_per_chunk_not_per_strategy(self, family):
        network = network_zoo(4)[2][1]  # random-8

        def factory(per_proof):
            return family(network, per_proof)

        small, small_chunks, count = self._mock_search(factory, batch_size=4)
        whole, whole_chunks, _ = self._mock_search(factory, batch_size=256)
        assert whole_chunks == 1 and small_chunks == -(-count // 4) > 2
        protocol = factory(False)
        templates = protocol.strategy_batch(
            _no_instance(4), np.eye(DIM)[:1], np.zeros((0, len(protocol.proof_registers())), int)
        )
        # One stack per verification tree and chunk, whatever the chunk size.
        assert whole.to_device_transfers == len(templates)
        assert small.to_device_transfers == small_chunks * len(templates)
        assert small.to_host_transfers == small_chunks * whole.to_host_transfers
        # Each stack holds its strategies' rows, moved once.
        rows = sum(batch.template.factors[0].shape[0] for batch in templates)
        assert whole.bytes_to_device == count * rows * DIM * np.dtype(np.complex128).itemsize
        assert small.bytes_to_device == whole.bytes_to_device


class _UndescribableOneWay(FingerprintEqualityOneWay):
    """Fingerprint equality whose leaf measurement has no engine description."""

    @property
    def cache_token(self):
        return ("undescribable",) + tuple(super().cache_token)

    def accept_measurement_spec(self, y):
        return None


class TestNonCompilingInstancesKeepThePerProofRoute:
    """``strategy_batch`` returns ``None`` exactly where the program does not compile."""

    @staticmethod
    def _check(protocol, per_proof, inputs):
        assert protocol.acceptance_program(inputs) is None
        registers = protocol.proof_registers()
        assert protocol.strategy_batch(inputs, np.eye(DIM)[:1], np.zeros((1, len(registers)), int)) is None
        fast = fingerprint_strategy_soundness(protocol, inputs)
        reference = fingerprint_strategy_soundness(per_proof, inputs)
        assert fast.best_strategy == reference.best_strategy
        assert fast.best_acceptance.hex() == reference.best_acceptance.hex()

    def test_oversized_fan_out(self):
        network = star_network(6)
        protocol = EqualityTreeProtocol(network, TREE_FINGERPRINTS, root="centre")
        assert protocol._max_test_arity == 7  # past MAX_PERM_TEST_ARITY
        self._check(
            protocol,
            _PerProofTreeProtocol(network, TREE_FINGERPRINTS, root="centre"),
            _no_instance(6),
        )

    def test_undescribable_leaf_measurement(self):
        network = network_zoo(3)[0][1]
        problem = ForAllPairsProblem(EqualityProblem(2), 3)
        self._check(
            OneWayToTreeProtocol(problem, network, _UndescribableOneWay(ONE_WAY.fingerprints)),
            _PerProofOneWayProtocol(problem, network, _UndescribableOneWay(ONE_WAY.fingerprints)),
            _no_instance(3),
        )


def _templates(protocol, inputs):
    """``(tree, compile order, job, row map)`` of every verification tree."""
    if isinstance(protocol, EqualityTreeProtocol):
        honest = TREE_FINGERPRINTS.state(inputs[0])
        job, rows = protocol._compile_tree_job(inputs, lambda node, slot: honest)
        return [(protocol.tree, protocol._compile_order, job, rows)]
    templates = []
    for index, tree in protocol.trees.items():
        honest = tuple(protocol.one_way.message_factors(inputs[index]))
        job, rows = protocol._compile_tree_job(
            index, inputs, lambda node, slot, register=honest: register
        )
        templates.append((tree, protocol._orders[index], job, rows))
    return templates


AUDITED = [
    (f"{family}-{name}-t{t}", factory, network)
    for t in (3, 4)
    for name, network in network_zoo(t)
    for family, factory in (("tree", _tree), ("one-way", _one_way))
] + [
    (f"{family}-topology-{descriptor}", factory, build_topology(descriptor, 3))
    for descriptor in default_soundness_topologies()
    for family, factory in (("tree", _tree), ("one-way", _one_way))
]


@pytest.mark.parametrize("label, factory, network", AUDITED, ids=[point[0] for point in AUDITED])
def test_templates_test_only_local_registers(label, factory, network):
    """Locality audit: a node tests only what it holds or receives over one edge.

    Every proof row of a template node belongs to a register the protocol
    delivers to that tree node's physical node, every proof register fills
    exactly one row, and every parent-child pair of the template is one
    physical node (a terminal and its shadow leaf) or a network edge.
    """
    protocol = factory(network)
    registers = {register.name: register for register in protocol.proof_registers()}
    filled = []
    for tree, order, job, row_registers in _templates(protocol, _no_instance(network.num_terminals)):
        physical = [tree.shadow_of.get(node, node) for node in order]
        assert len(physical) == job.num_nodes
        for index, slots in enumerate(job.slots):
            for row in slots:
                for name in row_registers.get(row, ()):
                    assert registers[name].node == physical[index]
                    filled.append(name)
        for child in range(1, job.num_nodes):
            parent = job.parents[child]
            if physical[child] == physical[parent]:
                assert order[child] in tree.shadow_of
            else:
                assert physical[parent] in network.neighbors(physical[child])
    assert sorted(filled) == sorted(registers)


def test_tree_searches_load_no_masked_arrays():
    """The report's tree searches stay off ``numpy.ma`` (``np.unique`` imports it).

    A cold report never loads ``numpy.ma``; pulling it in costs every cold
    report its import time and about 1.3 MB of peak RSS.
    """
    script = (
        "import sys\n"
        "from repro.experiments.topologies import topology_soundness_sweep\n"
        "from repro.experiments.tree_soundness import (\n"
        "    one_way_tree_soundness_sweep, tree_soundness_sweep)\n"
        "tree_soundness_sweep(); one_way_tree_soundness_sweep(); topology_soundness_sweep()\n"
        "assert 'numpy.ma' not in sys.modules, 'a tree search imported numpy.ma'\n"
    )
    import repro

    source_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
