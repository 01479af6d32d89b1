"""Tests of the Kraus-channel module: CPTP structure, actions, noise models."""

import numpy as np
import pytest

from repro.exceptions import ChannelError, DimensionMismatchError
from repro.quantum.channels import (
    CHANNEL_FAMILIES,
    KrausChannel,
    NoiseModel,
    amplitude_damping_channel,
    apply_channels,
    bit_flip_channel,
    channel_family,
    dephasing_channel,
    depolarizing_channel,
    flip_probability,
    identity_channel,
    phase_flip_channel,
)
from repro.quantum.random_states import haar_random_state, random_density_matrix


def _random_rho(dim, seed=0):
    return random_density_matrix(dim, rng=seed)


ALL_BUILDERS = list(CHANNEL_FAMILIES.values())


def _superoperator_is_identity(channel) -> bool:
    """The definition of an identity channel: its Kraus-built superoperator is I."""
    stack = np.stack(channel.kraus)
    dim = channel.dim
    superoperator = np.einsum("kac,kbd->abcd", stack, stack.conj()).reshape(dim**2, dim**2)
    return bool(np.allclose(superoperator, np.eye(dim**2), rtol=0.0, atol=1e-12))


#: Every family x dimension x strength (1e-9: a weak channel is not the
#: identity), plus generic channels that are, or are not, the identity.
IDENTITY_CASES = [
    pytest.param(lambda b=build, p=strength, d=dim: b(p, d), id=f"{name}-d{dim}-p{strength:g}")
    for name, build in CHANNEL_FAMILIES.items()
    for dim in (1, 2, 3, 5)
    for strength in (0.0, 1e-9, 0.3, 1.0)
] + [
    pytest.param(lambda: identity_channel(3), id="identity-d3"),
    pytest.param(
        lambda: dephasing_channel(0.3, 3).then(amplitude_damping_channel(0.2, 3)),
        id="composed-noisy",
    ),
    pytest.param(
        lambda: depolarizing_channel(0.0, 3).then(bit_flip_channel(0.0, 3)),
        id="composed-noiseless",
    ),
    pytest.param(
        lambda: KrausChannel("split", (np.sqrt(0.5) * np.eye(3), np.sqrt(0.5) * np.eye(3))),
        id="split-identity",
    ),
    pytest.param(lambda: KrausChannel("phase", (np.exp(0.7j) * np.eye(3),)), id="global-phase"),
    pytest.param(
        lambda: KrausChannel("weak-phase", (np.diag(np.exp([0.0, 1e-9j, 0.0])),)),
        id="weak-relative-phase",
    ),
]


class TestKrausStructure:
    @pytest.mark.parametrize("build", ALL_BUILDERS)
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_completeness_holds_for_every_family(self, build, dim):
        channel = build(0.3, dim)
        total = sum(K.conj().T @ K for K in channel.kraus)
        np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    @pytest.mark.parametrize("strength", [0.0, 0.25, 1.0])
    def test_trace_preserved_on_random_states(self, build, strength):
        channel = build(strength, 4)
        rho = _random_rho(4, seed=3)
        out = channel.apply(rho)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        # Output stays a density matrix: Hermitian, PSD.
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(out).min() > -1e-12

    def test_non_trace_preserving_kraus_rejected(self):
        with pytest.raises(ChannelError):
            KrausChannel("broken", (0.5 * np.eye(2),))

    def test_wrong_shape_kraus_rejected(self):
        with pytest.raises(DimensionMismatchError):
            KrausChannel("broken", (np.ones((2, 3)),))

    def test_strength_out_of_range_rejected(self):
        with pytest.raises(ChannelError):
            depolarizing_channel(1.5, 2)

    def test_superoperator_matches_kraus_action(self):
        for build in ALL_BUILDERS:
            channel = build(0.4, 3)
            rho = _random_rho(3, seed=9)
            via_superop = (channel.superoperator() @ rho.reshape(-1)).reshape(3, 3)
            np.testing.assert_allclose(via_superop, channel.apply(rho), atol=1e-12)

    def test_composition_matches_sequential_application(self):
        first = amplitude_damping_channel(0.3, 2)
        second = dephasing_channel(0.5, 2)
        rho = _random_rho(2, seed=1)
        composed = first.then(second)
        np.testing.assert_allclose(
            composed.apply(rho), second.apply(first.apply(rho)), atol=1e-12
        )

    @pytest.mark.parametrize("make", IDENTITY_CASES)
    def test_identity_detection(self, make):
        """``is_identity`` agrees with the superoperator definition, case by case."""
        channel = make()
        assert channel.is_identity == _superoperator_is_identity(channel)

    def test_apply_to_state(self):
        psi = haar_random_state(4, rng=2)
        channel = dephasing_channel(0.2, 4)
        np.testing.assert_allclose(
            channel.apply_to_state(psi),
            channel.apply(np.outer(psi, psi.conj())),
            atol=1e-12,
        )

    def test_apply_batch_matches_scalar_apply(self):
        densities = np.stack([_random_rho(3, seed=s) for s in (1, 2, 3)])
        for build in ALL_BUILDERS:
            channel = build(0.35, 3)
            batched = channel.apply_batch(densities)
            for row in range(3):
                np.testing.assert_allclose(
                    batched[row], channel.apply(densities[row]), atol=1e-12
                )

    def test_depolarizing_lazy_kraus_matches_closed_form(self):
        """The on-demand Weyl Kraus stack realizes exactly the closed-form map."""
        channel = depolarizing_channel(0.3, 4)
        assert "kraus" not in channel.__dict__  # not materialized yet
        rho = _random_rho(4, seed=12)
        closed_form = channel.apply_batch(rho[None])[0]
        via_kraus = sum(K @ rho @ K.conj().T for K in channel.kraus)
        np.testing.assert_allclose(via_kraus, closed_form, atol=1e-12)
        np.testing.assert_allclose(channel.apply(rho), closed_form, atol=1e-12)
        assert channel.num_kraus == 16
        assert channel.dim == 4

    def test_channels_pickle_round_trip(self):
        """Channels and noise models cross process-pool boundaries intact."""
        import pickle

        rho = _random_rho(3, seed=4)
        for build in ALL_BUILDERS:
            channel = build(0.2, 3)
            clone = pickle.loads(pickle.dumps(channel))
            np.testing.assert_allclose(clone.apply(rho), channel.apply(rho), atol=1e-12)
        model = NoiseModel.depolarizing(0.2, 3, readout_error=0.05)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.key == model.key


class TestChannelActions:
    def test_depolarizing_closed_form(self):
        rho = _random_rho(4, seed=5)
        for p in (0.0, 0.3, 1.0):
            expected = (1 - p) * rho + p * np.eye(4) / 4
            np.testing.assert_allclose(
                depolarizing_channel(p, 4).apply(rho), expected, atol=1e-12
            )

    def test_dephasing_closed_form(self):
        rho = _random_rho(3, seed=6)
        expected = 0.6 * rho + 0.4 * np.diag(np.diag(rho))
        np.testing.assert_allclose(
            dephasing_channel(0.4, 3).apply(rho), expected, atol=1e-12
        )

    def test_amplitude_damping_relaxes_excited_level(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[2, 2] = 1.0
        out = amplitude_damping_channel(0.25, 3).apply(rho)
        assert abs(out[0, 0].real - 0.25) < 1e-12
        assert abs(out[2, 2].real - 0.75) < 1e-12

    def test_bit_flip_full_strength_shifts_basis(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        out = bit_flip_channel(1.0, 3).apply(rho)
        np.testing.assert_allclose(out, np.diag([0.0, 1.0, 0.0]), atol=1e-12)

    def test_phase_flip_preserves_populations(self):
        rho = _random_rho(2, seed=7)
        out = phase_flip_channel(0.7, 2).apply(rho)
        np.testing.assert_allclose(np.diag(out), np.diag(rho), atol=1e-12)

    def test_flip_probability_extremes(self):
        assert flip_probability(1.0, 0.0) == 1.0
        assert abs(flip_probability(1.0, 0.2) - 0.8) < 1e-12
        values = flip_probability(np.array([0.0, 1.0]), np.array([0.1, 0.1]))
        np.testing.assert_allclose(values, [0.1, 0.9])

    def test_apply_channels_grouped(self):
        rng = np.random.default_rng(8)
        densities = np.stack([_random_rho(3, seed=int(s)) for s in rng.integers(0, 99, 5)])
        shared = depolarizing_channel(0.3, 3)
        channels = [None, shared, shared, dephasing_channel(0.2, 3), None]
        out = apply_channels(channels, densities)
        for row, channel in enumerate(channels):
            expected = densities[row] if channel is None else channel.apply(densities[row])
            np.testing.assert_allclose(out[row], expected, atol=1e-12)

    def test_apply_channels_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_channels([depolarizing_channel(0.1, 2)], np.zeros((1, 3, 3)))


class TestNoiseModel:
    def test_trivial_model(self):
        assert NoiseModel().is_trivial
        assert not NoiseModel.depolarizing(0.0, 2).is_trivial  # structural check
        assert not NoiseModel(readout_error=0.1).is_trivial

    def test_link_and_node_lookup_with_overrides(self):
        default = depolarizing_channel(0.1, 2)
        special = dephasing_channel(0.5, 2)
        model = NoiseModel(
            link=default,
            node=default,
            links={("a", "b"): special},
            nodes={"c": special},
        )
        assert model.link_channel("a", "b") is special
        assert model.link_channel("b", "a") is special  # symmetric lookup
        assert model.link_channel("x", "y") is default
        assert model.node_channel("c") is special
        assert model.node_channel("z") is default

    def test_readout_error_validation(self):
        with pytest.raises(ChannelError):
            NoiseModel(readout_error=1.5)

    def test_key_is_hashable_and_value_sensitive(self):
        a = NoiseModel.depolarizing(0.1, 2)
        b = NoiseModel.depolarizing(0.2, 2)
        assert hash(a.key) != hash(b.key) or a.key != b.key
        assert a.key == NoiseModel.depolarizing(0.1, 2).key

    def test_channel_family_lookup(self):
        assert channel_family("depolarizing")(0.2, 2).name == "depolarizing"
        with pytest.raises(ChannelError):
            channel_family("cosmic-rays")
