"""Noise sweeps on ``with_noise`` siblings: bits, compile count and one-terminal guards.

The noise sweeps build one clean protocol and evaluate its ``with_noise``
sibling per strength; every sibling attaches its annotation to the clean
honest template the engine caches per layout and inputs.  These tests pin
that route to the old one (one protocol constructed per noise model, all
programs in one ``evaluate_programs`` call) bit for bit, pin the compile
count of a sweep and the density rows its channels are applied to, and
hold siblings to constructor-built protocols on random noise models and
product proofs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    MEAS_DENSE,
    MEAS_PROJECTOR,
    NODE_FIXED,
    TEST_FANOUT,
    TEST_MEASURE,
    TEST_PERM,
    MeasurementSpec,
    TreeJob,
    TreeJobBuilder,
    TreeNoise,
    TreeProgram,
    kernels,
)
from repro.engine.core import Engine, set_default_engine
from repro.exceptions import DimensionMismatchError, ProtocolError
from repro.experiments.noise_robustness import (
    path_noise_sweep,
    relay_noise_sweep,
    tree_noise_sweep,
)
from repro.experiments.topologies import topology_noise_sweep, topology_soundness_sweep
from repro.experiments.tree_soundness import one_way_tree_soundness_sweep, tree_soundness_sweep
from repro.network.topology import binary_tree_network, path_network, star_network
from repro.protocols.base import ProductProof, annotated_program
from repro.protocols.equality import EqualityPathProtocol, EqualityTreeProtocol
from repro.protocols.relay import RelayEqualityProtocol
from repro.quantum.channels import CHANNEL_FAMILIES, NoiseModel, dephasing_channel
from repro.quantum.fingerprint import ExactCodeFingerprint
from repro.quantum.random_states import haar_random_state
from repro.utils.bitstrings import int_to_bits

STRENGTHS = [float(strength) for strength in np.linspace(0.0, 0.5, 64)]
READOUT = 0.03


@pytest.fixture
def fresh_engine():
    engine = Engine()
    set_default_engine(engine)
    yield engine
    set_default_engine(None)


def _path(noise=None):
    return EqualityPathProtocol.on_path(3, 4, ExactCodeFingerprint(3, rng=7), noise=noise)


def _tree(noise=None):
    return EqualityTreeProtocol(star_network(3), ExactCodeFingerprint(3, rng=7), noise=noise)


def _relay(noise=None):
    return RelayEqualityProtocol.on_path(
        2,
        4,
        relay_spacing=2,
        segment_repetitions=2,
        fingerprints=ExactCodeFingerprint(2, rng=7),
        noise=noise,
    )


#: Each sweep with the constructor of the protocol it evaluates and its instances.
SWEEPS = {
    "path": (path_noise_sweep, _path, ("111", "111"), ("111", "011")),
    "tree": (tree_noise_sweep, _tree, ("111",) * 3, ("111", "111", "011")),
    "relay": (relay_noise_sweep, _relay, ("11", "11"), ("11", "01")),
}


def _constructor_values(factory, models, yes, no):
    """The constructor route: one protocol per model, one engine call for all."""
    engine = Engine()
    programs = []
    for model in models:
        protocol = factory(model).use_engine(engine)
        programs += [protocol.acceptance_program(yes), protocol.acceptance_program(no)]
    return [value.hex() for value in engine.evaluate_programs(programs)]


def _sibling_values(factory, models, yes, no):
    """The sweep route: one clean base, one ``with_noise`` sibling per model."""
    engine = Engine()
    base = factory().use_engine(engine)
    programs = []
    for model in models:
        sibling = base.with_noise(model)
        programs += [sibling.acceptance_program(yes), sibling.acceptance_program(no)]
    return [value.hex() for value in engine.evaluate_programs(programs)]


class TestSweepPins:
    @pytest.mark.parametrize("family", sorted(CHANNEL_FAMILIES))
    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_sweep_rows_match_the_constructor_route_bitwise(self, kind, family, fresh_engine):
        sweep, factory, yes, no = SWEEPS[kind]
        rows = sweep(channel=family, strengths=STRENGTHS, readout_error=READOUT)
        dim = factory().fingerprints.dim
        models = [
            NoiseModel.uniform_link(CHANNEL_FAMILIES[family](strength, dim), READOUT)
            for strength in STRENGTHS
        ]
        swept = [
            row.values[column].hex() for row in rows for column in ("completeness", "no_accept")
        ]
        assert swept == _constructor_values(factory, models, yes, no)

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_node_channel_models_match_the_constructor_route_bitwise(self, kind):
        _, factory, yes, no = SWEEPS[kind]
        dim = factory().fingerprints.dim
        models = [
            NoiseModel(
                link=CHANNEL_FAMILIES["depolarizing"](strength, dim),
                node=dephasing_channel(0.1, dim),
                readout_error=READOUT,
            )
            for strength in STRENGTHS
        ]
        assert _sibling_values(factory, models, yes, no) == _constructor_values(
            factory, models, yes, no
        )

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_a_sweep_compiles_each_instance_once(self, kind, fresh_engine):
        sweep = SWEEPS[kind][0]
        sweep(strengths=STRENGTHS, readout_error=READOUT)
        stats = fresh_engine.cache.stats()
        assert (stats.misses, stats.evictions) == (2, 0)

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_a_sweep_builds_each_distinct_density_once(self, kind, fresh_engine, monkeypatch):
        # Two instances and 64 strengths hold a few states and 64 channels:
        # one density per distinct (state, channel) form, not one per job.
        rows = []
        apply_grid = kernels.apply_channel_grid

        def counting(grid, densities):
            rows.append(densities.shape[0] * densities.shape[1])
            return apply_grid(grid, densities)

        monkeypatch.setattr(kernels, "apply_channel_grid", counting)
        SWEEPS[kind][0](strengths=STRENGTHS, readout_error=READOUT)
        assert 0 < sum(rows) <= 3 * len(STRENGTHS) + 8

    def test_a_tree_sweep_validates_each_template_structure_once(self, fresh_engine, monkeypatch):
        # Two instances compile two templates; attaching 64 strengths to
        # them checks each annotation, never the unchanged tree again.
        validated = []
        validate = TreeJob._validate

        def counting(job):
            validated.append(job)
            validate(job)

        monkeypatch.setattr(TreeJob, "_validate", counting)
        rows = tree_noise_sweep(strengths=STRENGTHS, readout_error=READOUT)
        assert len(rows) == len(STRENGTHS)
        assert len(validated) == 2

    def test_a_malformed_annotation_is_rejected_when_attached(self):
        protocol = _tree().use_engine(Engine())
        program = protocol.acceptance_program(("111",) * 3)
        job = program.jobs[0]
        channel = CHANNEL_FAMILIES["depolarizing"](0.1, protocol.fingerprints.dim)
        nodes = (None,) * job.num_nodes
        # Channel counts and dimensions.
        with pytest.raises(ProtocolError, match="up-link channels"):
            annotated_program(program, (TreeNoise(nodes[1:], nodes, READOUT),))
        with pytest.raises(ProtocolError, match="node channels"):
            annotated_program(program, (TreeNoise(nodes, nodes[1:] + (channel,) * 2),))
        with pytest.raises(DimensionMismatchError, match="dimension"):
            small = CHANNEL_FAMILIES["depolarizing"](0.1, 2)
            annotated_program(program, (TreeNoise((small,) + nodes[1:], nodes),))
        # The annotation checks that read the structure still run: a dense
        # measuring node takes no preparation noise, and neither a fan-out
        # job nor a many-factor job takes any noise.
        ket = np.array([1.0, 0.0])
        readout_only = (TreeNoise((None, None), (None, None), 0.1),)
        dense = TreeJobBuilder()
        root = dense.add_node(
            -1, NODE_FIXED, test=TEST_MEASURE, measurement=MeasurementSpec(MEAS_DENSE, operator=np.eye(2))
        )
        dense.add_node(root, NODE_FIXED, registers=(ket,))
        noisy_root = TreeNoise((None, None), (dephasing_channel(0.1, 2), None))
        with pytest.raises(ProtocolError, match="dense/diagonal measuring node"):
            annotated_program(TreeProgram.single(dense.build()), (noisy_root,))
        fanout = TreeJobBuilder()
        root = fanout.add_node(-1, NODE_FIXED, registers=(ket,), test=TEST_FANOUT)
        fanout.add_node(root, NODE_FIXED, measurement=MeasurementSpec(MEAS_PROJECTOR, targets=(ket,)))
        with pytest.raises(ProtocolError, match="up-forwarding"):
            annotated_program(TreeProgram.single(fanout.build()), readout_only)
        factors = TreeJobBuilder(num_factors=2)
        root = factors.add_node(-1, NODE_FIXED, registers=((ket, ket),), test=TEST_PERM)
        factors.add_node(root, NODE_FIXED, registers=((ket, ket),))
        with pytest.raises(ProtocolError, match="single-factor"):
            annotated_program(TreeProgram.single(factors.build()), readout_only)
        # A well-formed annotation attaches to the template's own arrays.
        noise = TreeNoise((channel,) * job.num_nodes, nodes, READOUT)
        attached = annotated_program(program, (noise,)).jobs[0]
        assert attached.noise is noise and attached.is_noisy and not job.is_noisy
        assert attached.factors is job.factors and attached.slots is job.slots
        assert attached.signature == job.signature[:-1] + (True,)

    @pytest.mark.parametrize("kind", sorted(SWEEPS))
    def test_a_clean_protocol_returns_the_cached_template(self, kind):
        _, factory, yes, _ = SWEEPS[kind]
        protocol = factory().use_engine(Engine())
        template = protocol.acceptance_program(yes)
        assert protocol.acceptance_program(yes) is template
        assert protocol.with_noise(None).acceptance_program(yes) is template
        noisy = protocol.with_noise(NoiseModel.depolarizing(0.1, protocol.fingerprints.dim))
        assert noisy.acceptance_program(yes) is not template
        assert protocol.acceptance_program(yes) is template


#: Protocols whose honest templates differ in one layout parameter each.
LAYOUT_NEIGHBOURS = {
    "path-length": lambda: [
        EqualityPathProtocol.on_path(2, r, ExactCodeFingerprint(2, rng=7)) for r in (3, 4)
    ],
    "fingerprints": lambda: [
        EqualityPathProtocol.on_path(2, 3, ExactCodeFingerprint(2, rng=seed)) for seed in (7, 8)
    ],
    "tree-shape": lambda: [
        EqualityTreeProtocol(network, ExactCodeFingerprint(2, rng=7))
        for network in (star_network(3), binary_tree_network(2, num_terminals=3))
    ],
    "tree-root": lambda: [
        EqualityTreeProtocol(star_network(3), ExactCodeFingerprint(2, rng=7), root=root)
        for root in star_network(3).terminals
    ],
    "relay-spacing": lambda: [
        RelayEqualityProtocol.on_path(2, 4, relay_spacing=spacing, segment_repetitions=2)
        for spacing in (1, 2)
    ],
    "relay-repetitions": lambda: [
        RelayEqualityProtocol.on_path(2, 4, relay_spacing=2, segment_repetitions=repetitions)
        for repetitions in (1, 2)
    ],
}


@pytest.mark.parametrize("name", sorted(LAYOUT_NEIGHBOURS))
def test_layouts_sharing_an_engine_keep_their_templates_apart(name):
    protocols = LAYOUT_NEIGHBOURS[name]()
    inputs = ("11",) * (protocols[0].problem.num_inputs - 1) + ("01",)
    alone = [
        protocol.use_engine(Engine()).acceptance_probability(inputs).hex()
        for protocol in protocols
    ]
    shared = Engine()
    together = [
        protocol.use_engine(shared).acceptance_probability(inputs).hex()
        for protocol in protocols
    ]
    assert together == alone
    assert shared.cache.stats().misses == len(protocols)


FINGERPRINTS = ExactCodeFingerprint(2, rng=7)
DIM = FINGERPRINTS.dim
NETWORKS = {
    "path-r2": path_network(2),
    "path-r3": path_network(3),
    "path-r4": path_network(4),
    "star-3": star_network(3),
    "binary-depth2": binary_tree_network(2, num_terminals=3),
}


def _build(name, noise):
    """The differential's protocol ``name`` under ``noise``, from its constructor."""
    if name == "relay":
        return RelayEqualityProtocol.on_path(
            2, 4, relay_spacing=2, segment_repetitions=2, fingerprints=FINGERPRINTS, noise=noise
        )
    family = EqualityPathProtocol if name.startswith("path") else EqualityTreeProtocol
    return family(NETWORKS[name], FINGERPRINTS, noise=noise)


optional_family = st.one_of(st.none(), st.sampled_from(sorted(CHANNEL_FAMILIES)))
unit_floats = st.floats(0.0, 1.0)


@st.composite
def noise_models(draw):
    link, node = draw(optional_family), draw(optional_family)
    link_strength, node_strength = draw(unit_floats), draw(unit_floats)
    return NoiseModel(
        link=None if link is None else CHANNEL_FAMILIES[link](link_strength, DIM),
        node=None if node is None else CHANNEL_FAMILIES[node](node_strength, DIM),
        readout_error=draw(st.floats(0.0, 0.1)),
    )


def _values(protocol, inputs, proofs):
    values = [protocol.acceptance_probability(inputs, proof).hex() for proof in proofs]
    if isinstance(protocol, RelayEqualityProtocol):
        values.append(
            protocol.estimate_acceptance_sampling(inputs, proofs[-1], shots=8, rng=3).hex()
        )
    return values


class TestSiblingDifferential:
    @pytest.mark.parametrize("name", sorted([*NETWORKS, "relay"]))
    @given(
        model=noise_models(),
        seed=st.integers(0, 2**16),
        codes=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_siblings_match_constructor_built_protocols(self, name, model, seed, codes):
        base = _build(name, None).use_engine(Engine())
        inputs = tuple(int_to_bits(code, 2) for code in codes[: base.problem.num_inputs])
        rng = np.random.default_rng(seed)
        random_proof = ProductProof(
            {
                register.name: haar_random_state(register.dim, rng)
                for register in base.proof_registers()
            }
        )
        proofs = (None, random_proof)

        sibling = base.with_noise(model)
        built = _build(name, model).use_engine(Engine())
        noisy = _values(built, inputs, proofs)
        assert _values(sibling, inputs, proofs) == noisy
        clean = _values(_build(name, None).use_engine(Engine()), inputs, proofs)
        assert _values(sibling.with_noise(None), inputs, proofs) == clean

        # A shared engine keeps each protocol's own values, in both call orders.
        for order in ((False, True), (True, False)):
            shared = Engine()
            first = base.with_noise(None).use_engine(shared)
            second = first.with_noise(model)
            seen = {}
            for is_noisy in order:
                seen[is_noisy] = _values(second if is_noisy else first, inputs, proofs)
            assert seen == {False: clean, True: noisy}


ONE_TERMINAL_SWEEPS = [
    tree_noise_sweep,
    topology_noise_sweep,
    topology_soundness_sweep,
    tree_soundness_sweep,
    one_way_tree_soundness_sweep,
]


@pytest.mark.parametrize("sweep", ONE_TERMINAL_SWEEPS, ids=lambda sweep: sweep.__name__)
def test_one_terminal_sweeps_are_rejected_before_any_work(sweep, fresh_engine):
    # One input always equals itself: there is no no-instance to sweep.
    with pytest.raises(ProtocolError, match="at least two terminals"):
        sweep(num_terminals=1)
    stats = fresh_engine.cache.stats()
    assert (stats.hits, stats.misses) == (0, 0)
