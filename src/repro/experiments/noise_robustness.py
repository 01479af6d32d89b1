"""Noise-robustness sweeps: protocol acceptance versus channel strength.

The completeness/soundness figures regenerated elsewhere in the harness
assume perfect preparation, transmission and measurement.  These sweeps ask
how the dQMA protocols degrade on noisy hardware: for a grid of channel
strengths, each protocol family is instantiated with a uniform
:class:`~repro.quantum.channels.NoiseModel` on its links and evaluated on a
yes-instance (the completeness) and a no-instance (the honest-prover
acceptance on unequal inputs), reporting the *decision gap* between the two
— the margin a verifier retains for telling the cases apart.

Each sweep builds one clean protocol and takes its ``with_noise`` sibling
per strength: siblings share the layout, and their honest programs share one
clean template per instance in the engine cache, so a point costs one noise
mapping and one annotated copy of the template, not a protocol build and a
compile.  All points are evaluated through **one** batched engine call (noisy
jobs group by structure, not by channel strength), so a 256-point sweep costs
a handful of stacked density contractions — the workload benchmarked in
``benchmarks/bench_engine.py`` and ``perfbench/``.

Three protocol families are registered as runner scenarios
(``noise-robustness-path`` / ``-tree`` / ``-relay``), plus a channel-family
comparison at fixed strength (``noise-channels``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.core import default_engine
from repro.exceptions import ProtocolError
from repro.experiments.records import ExperimentRow
from repro.experiments.tree_soundness import no_instance
from repro.network.topology import star_network
from repro.protocols.equality import EqualityPathProtocol, EqualityTreeProtocol
from repro.protocols.relay import RelayEqualityProtocol
from repro.quantum.channels import NoiseModel, channel_family
from repro.quantum.fingerprint import ExactCodeFingerprint

#: Channel strengths of the default sweeps (small grids keep CI fast; the
#: benchmark harness sweeps 256 points through the same code path).
DEFAULT_STRENGTHS = tuple(np.linspace(0.0, 0.5, 6))

#: Channel families compared by the ``noise-channels`` scenario.
DEFAULT_CHANNEL_NAMES = (
    "depolarizing",
    "dephasing",
    "amplitude-damping",
    "bit-flip",
    "phase-flip",
)


#: The protocol families the noise sweeps evaluate through ``with_noise``.
NoiseCapable = Union[EqualityPathProtocol, EqualityTreeProtocol, RelayEqualityProtocol]


def default_noise_strengths() -> List[float]:
    """The default strength grid of the noise-robustness sweeps."""
    return [float(strength) for strength in DEFAULT_STRENGTHS]


def default_channel_names() -> List[str]:
    """The default channel-family grid of the channel comparison."""
    return list(DEFAULT_CHANNEL_NAMES)


def honest_grid(
    base: NoiseCapable,
    models: Sequence[Optional[NoiseModel]],
    instances: Sequence[Sequence[str]],
) -> Tuple[List[NoiseCapable], np.ndarray]:
    """Every noise model's sibling and its honest acceptance on every instance.

    Model ``i`` evaluates ``base.with_noise(models[i])``, so the grid
    compiles each instance once: the engine caches the clean honest
    template, and each sibling attaches its annotation to it.  All programs
    (every model, every instance) are handed to the engine in a single
    ``evaluate_programs`` batch, on the process-wide default engine, so pool
    workers evaluating many chunks of a sweep share its templates instead of
    compiling them per chunk.  Returns the siblings, in model order, and a
    ``(len(models), len(instances))`` array of acceptances; the noise sweeps
    format the array as rows, and the noisy soundness sweeps also score
    their compiled strategy search on each sibling.
    """
    engine = default_engine()
    base.use_engine(engine)
    siblings = []
    programs = []
    for model in models:
        protocol = base.with_noise(model)
        siblings.append(protocol)
        for inputs in instances:
            program = protocol.acceptance_program(inputs)
            if program is None:
                raise ProtocolError(
                    f"{type(protocol).__name__} instance does not compile to an "
                    "engine program (beyond the enumeration limits?); noisy "
                    "sweeps need engine-compilable instances"
                )
            programs.append(program)
    values = engine.evaluate_programs(programs)
    return siblings, values.reshape(len(models), len(instances))


def _sweep_rows(
    experiment: str,
    base: NoiseCapable,
    channel: str,
    strengths: Sequence[float],
    readout_error: float,
    yes_inputs: Sequence[str],
    no_inputs: Sequence[str],
) -> List[ExperimentRow]:
    """Completeness and no-instance acceptance under a uniform link model per strength."""
    build = channel_family(channel)
    dim = base.fingerprints.dim
    models = [NoiseModel.uniform_link(build(strength, dim), readout_error) for strength in strengths]
    _, values = honest_grid(base, models, (yes_inputs, no_inputs))
    rows = []
    for strength, (completeness, no_accept) in zip(strengths, values.tolist()):
        rows.append(
            ExperimentRow(
                experiment,
                f"strength {strength:.3f}",
                {
                    "noise": float(strength),
                    "completeness": completeness,
                    "no_accept": no_accept,
                    "gap": completeness - no_accept,
                },
            )
        )
    return rows


def path_noise_sweep(
    input_length: int = 3,
    path_length: int = 4,
    channel: str = "depolarizing",
    strengths: Sequence[float] = DEFAULT_STRENGTHS,
    readout_error: float = 0.0,
) -> List[ExperimentRow]:
    """Algorithm 3 equality on a path under uniform link noise."""
    base = EqualityPathProtocol.on_path(
        input_length, path_length, ExactCodeFingerprint(input_length, rng=7)
    )
    yes = "1" * input_length
    no = "0" + "1" * (input_length - 1)
    return _sweep_rows(
        "noise-path", base, channel, strengths, readout_error, (yes, yes), (yes, no)
    )


def tree_noise_sweep(
    input_length: int = 3,
    num_terminals: int = 3,
    channel: str = "depolarizing",
    strengths: Sequence[float] = DEFAULT_STRENGTHS,
    readout_error: float = 0.0,
) -> List[ExperimentRow]:
    """Algorithm 5 equality on a star network under uniform link noise."""
    no_inputs = no_instance(input_length, num_terminals)
    yes_inputs = ("1" * input_length,) * num_terminals
    base = EqualityTreeProtocol(
        star_network(num_terminals), ExactCodeFingerprint(input_length, rng=7)
    )
    return _sweep_rows(
        "noise-tree", base, channel, strengths, readout_error, yes_inputs, no_inputs
    )


def relay_noise_sweep(
    input_length: int = 2,
    path_length: int = 4,
    segment_repetitions: int = 2,
    channel: str = "depolarizing",
    strengths: Sequence[float] = DEFAULT_STRENGTHS,
    readout_error: float = 0.0,
) -> List[ExperimentRow]:
    """Algorithm 6 relay equality under uniform link noise on its fingerprint legs."""
    base = RelayEqualityProtocol.on_path(
        input_length,
        path_length,
        relay_spacing=2,
        segment_repetitions=segment_repetitions,
        fingerprints=ExactCodeFingerprint(input_length, rng=7),
    )
    yes = "1" * input_length
    no = "0" + "1" * (input_length - 1)
    return _sweep_rows(
        "noise-relay", base, channel, strengths, readout_error, (yes, yes), (yes, no)
    )


def channel_comparison(
    input_length: int = 3,
    path_length: int = 4,
    strength: float = 0.2,
    channels: Optional[Sequence[str]] = None,
) -> List[ExperimentRow]:
    """Every channel family at one fixed strength, on the path protocol."""
    if channels is None:
        channels = default_channel_names()
    rows = []
    for name in channels:
        sweep = path_noise_sweep(
            input_length,
            path_length,
            channel=name,
            strengths=(strength,),
        )
        values = dict(sweep[0].values)
        rows.append(ExperimentRow("noise-channels", name, values))
    return rows
