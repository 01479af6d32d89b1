"""Property-based tests (hypothesis) for the Kraus-channel layer.

These pin the structural invariants the noisy engine path relies on —
composition stays CPTP, the superoperator is the vectorized channel and
preserves trace, every family's closed-form batched action (alone and in a
mixed channel grid, in both dtypes) is the definitional Kraus sum,
``NoiseModel`` lookups resolve overrides before defaults
symmetrically in the edge orientation, and the Heisenberg-picture
conjugation :func:`~repro.quantum.channels.apply_channels_adjoint` is the
exact adjoint of channel application — on randomly generated channels and
states rather than hand-picked examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import parity_tolerance
from repro.quantum.channels import (
    CHANNEL_FAMILIES,
    NoiseModel,
    amplitude_damping_channel,
    apply_channel_grid,
    apply_channels_adjoint,
    bit_flip_channel,
    channel_family,
    dephasing_channel,
    depolarizing_channel,
    flip_probability,
)
from repro.quantum.random_states import haar_random_state, random_density_matrix

MAX_EXAMPLES = 25

_FAMILIES = tuple(CHANNEL_FAMILIES.values())

channel_builders = st.sampled_from(_FAMILIES)
strengths = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)
dims = st.sampled_from([2, 3, 4])


def _completeness_defect(channel) -> float:
    stacked = np.stack(channel.kraus)
    gram = np.einsum("kji,kjl->il", stacked.conj(), stacked)
    return float(np.max(np.abs(gram - np.eye(channel.dim))))


class TestCompositionCompleteness:
    @given(
        first=channel_builders,
        second=channel_builders,
        p=strengths,
        q=strengths,
        dim=dims,
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_composition_is_trace_preserving(self, first, second, p, q, dim):
        # `then` multiplies out the Kraus products; the composite must still
        # satisfy sum_k K_k^dagger K_k = I (construction re-asserts it, and we
        # re-measure the defect independently here).
        composed = first(p, dim).then(second(q, dim))
        assert _completeness_defect(composed) < 1e-9

    @given(first=channel_builders, second=channel_builders, p=strengths, q=strengths, dim=dims, seed=st.integers(0, 10**6))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_composition_acts_as_sequential_application(self, first, second, p, q, dim, seed):
        a, b = first(p, dim), second(q, dim)
        rho = random_density_matrix(dim, rng=seed)
        np.testing.assert_allclose(
            a.then(b).apply(rho), b.apply(a.apply(rho)), atol=1e-10
        )


class TestSuperoperator:
    @given(builder=channel_builders, p=strengths, dim=dims, seed=st.integers(0, 10**6))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_superoperator_matches_apply_and_preserves_trace(self, builder, p, dim, seed):
        channel = builder(p, dim)
        rho = random_density_matrix(dim, rng=seed)
        via_super = (channel.superoperator() @ rho.reshape(-1)).reshape(dim, dim)
        np.testing.assert_allclose(via_super, channel.apply(rho), atol=1e-10)
        assert abs(np.trace(via_super).real - 1.0) < 1e-9

    @given(builder=channel_builders, p=strengths, dim=dims)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_superoperator_fixes_vectorized_identity_row(self, builder, p, dim):
        # Trace preservation in superoperator form: the adjoint of the
        # vectorized identity (the "trace functional") is a fixed point.
        superop = builder(p, dim).superoperator()
        identity = np.eye(dim).reshape(-1)
        np.testing.assert_allclose(identity @ superop, identity, atol=1e-9)


class TestClosedForms:
    """The closed-form batched actions against the definitional Kraus sum."""

    @given(
        builder=channel_builders,
        p=strengths,
        dim=st.integers(1, 5),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_batched_actions_match_the_kraus_sum(self, builder, p, dim, seed):
        rng = np.random.default_rng(seed)
        channel = builder(p, dim)
        stack = np.stack([random_density_matrix(dim, rng=rng) for _ in range(3)])
        batched = channel.apply_batch(stack)
        for row in range(3):
            np.testing.assert_allclose(batched[row], channel.apply(stack[row]), atol=1e-10)

        # One grid mixing every family, random strengths, a composed
        # (superoperator) channel and noiseless entries; one grid where the
        # drawn family covers every row at per-row strengths.
        options = [build(rng.uniform(), dim) for build in _FAMILIES]
        options += [channel.then(options[0]), None]
        mixed = [[channel] + [options[i] for i in rng.integers(0, len(options), 3)]]
        mixed += [[options[i] for i in rng.integers(0, len(options), 4)] for _ in range(2)]
        uniform = [[builder(rng.uniform(), dim) for _ in range(4)] for _ in range(3)]
        densities = np.stack(
            [[random_density_matrix(dim, rng=rng) for _ in range(4)] for _ in range(3)]
        )
        for grid in (mixed, uniform):
            expected = [
                [rho if c is None else c.apply(rho) for c, rho in zip(row, rows)]
                for row, rows in zip(grid, densities)
            ]
            for dtype in (np.complex64, np.complex128):
                output = apply_channel_grid(grid, densities.astype(dtype))
                assert output.dtype == dtype
                np.testing.assert_allclose(output, expected, atol=parity_tolerance(dtype))


class TestNoiseModelPrecedence:
    @given(p=st.floats(0.0, 0.9, allow_nan=False), q=st.floats(0.0, 0.9, allow_nan=False), dim=dims)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_link_override_beats_default_and_is_symmetric(self, p, q, dim):
        default = depolarizing_channel(p, dim)
        override = dephasing_channel(q, dim)
        model = NoiseModel(link=default, links={("u", "v"): override})
        assert model.link_channel("u", "v") is override
        # Symmetric lookup: the reversed orientation resolves the same edge.
        assert model.link_channel("v", "u") is override
        assert model.link_channel("u", "w") is default

    @given(p=st.floats(0.0, 0.9, allow_nan=False), q=st.floats(0.0, 0.9, allow_nan=False), dim=dims)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_node_override_beats_default(self, p, q, dim):
        default = amplitude_damping_channel(p, dim)
        override = bit_flip_channel(q, dim)
        model = NoiseModel(node=default, nodes={"v1": override})
        assert model.node_channel("v1") is override
        assert model.node_channel("v2") is default

    @given(name=st.sampled_from(["depolarizing", "dephasing", "amplitude-damping"]), p=strengths, dim=dims)
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_uniform_family_constructors_agree(self, name, p, dim):
        channel = channel_family(name)(p, dim)
        model = NoiseModel.uniform_link(channel)
        assert model.link_channel(0, 1).key == channel.key
        assert model.node_channel(0) is None
        assert not model.is_trivial

    @given(p=st.floats(0.0, 1.0, allow_nan=False), e=st.floats(0.0, 0.5, allow_nan=False))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_flip_probability_is_the_binary_symmetric_channel(self, p, e):
        flipped = flip_probability(p, e)
        assert abs(flipped - ((1 - e) * p + e * (1 - p))) < 1e-12
        assert 0.0 - 1e-12 <= flipped <= 1.0 + 1e-12


class TestAdjointConjugation:
    @given(
        builder_a=channel_builders,
        builder_b=channel_builders,
        p=strengths,
        q=strengths,
        seed=st.integers(0, 10**6),
        dim_a=st.sampled_from([2, 3]),
        dim_b=st.sampled_from([2, 3]),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_adjoint_reproduces_schrodinger_picture(
        self, builder_a, builder_b, p, q, seed, dim_a, dim_b
    ):
        # tr(E . (C_a (x) C_b)(rho)) == tr(apply_channels_adjoint(E) . rho)
        # for an entangled joint state rho.
        channel_a, channel_b = builder_a(p, dim_a), builder_b(q, dim_b)
        total = dim_a * dim_b
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
        effect = (raw + raw.conj().T) / 2
        rho = random_density_matrix(total, rng=seed + 1)
        tensor = rho.reshape(dim_a, dim_b, dim_a, dim_b)
        stack_a = np.stack(channel_a.kraus)
        stack_b = np.stack(channel_b.kraus)
        evolved = np.einsum(
            "kac,lbd,cdef,kge,lhf->abgh",
            stack_a,
            stack_b,
            tensor,
            stack_a.conj(),
            stack_b.conj(),
            optimize=True,
        ).reshape(total, total)
        lhs = np.trace(effect @ evolved)
        conjugated = apply_channels_adjoint(effect, [dim_a, dim_b], [channel_a, channel_b])
        rhs = np.trace(conjugated @ rho)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @given(builder=channel_builders, p=strengths, dim=dims, seed=st.integers(0, 10**6))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_adjoint_is_unital(self, builder, p, dim, seed):
        # C^+(I) = I (trace preservation in the Heisenberg picture), and
        # identity factors pass through untouched.
        channel = builder(p, dim)
        conjugated = apply_channels_adjoint(np.eye(dim * 2), [dim, 2], [channel, None])
        np.testing.assert_allclose(conjugated, np.eye(dim * 2), atol=1e-9)
        state = haar_random_state(dim, rng=seed)
        effect = np.outer(state, state.conj())
        untouched = apply_channels_adjoint(effect, [dim], [None])
        np.testing.assert_allclose(untouched, effect, atol=1e-12)
