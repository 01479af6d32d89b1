"""The symmetrized SWAP-test chain shared by the path protocols.

Algorithm 3 (equality), Algorithm 7 (greater-than, for each index value) and
Algorithm 10 (QMA one-way conversion) all reduce to the same verification
pattern on a path ``v_0, ..., v_r``:

* the left end holds a fixed pure state ``|psi_L>`` (a fingerprint, or the
  state Alice forwards in the QMA protocol),
* every intermediate node ``v_j`` (``j = 1..r-1``) holds two proof registers
  ``(a_j, b_j)`` which it *symmetrizes* (swaps with probability 1/2), keeping
  the first for its own SWAP test and forwarding the second to the right,
* node ``v_j`` SWAP-tests the state forwarded by ``v_{j-1}`` against its kept
  register,
* the right end applies a two-outcome measurement with accept element ``M`` to
  the state forwarded by ``v_{r-1}``.

For product proofs the joint acceptance probability factorises over the
symmetrization pattern into a product of nearest-neighbour terms, so it can be
computed exactly with a transfer-matrix contraction in ``O(r)`` SWAP-test
evaluations — this is what :func:`chain_acceptance_probability_factored`
does, with :func:`chain_acceptance_probability` its one-factor case.

For entangled proofs, :func:`chain_acceptance_operator` constructs the exact
acceptance operator on the proof space (feasible for small register dimension
and path length); its largest eigenvalue is the optimal cheating probability,
realising the supremum in the soundness definition.  Given a
:class:`~repro.engine.jobs.ChainNoise` annotation it builds the operator of
the noisy chain instead; without one it is the clean chain.

:func:`chain_acceptance_sweep` applies the same operator without building
it — a left-to-right sweep with bond dimension 2 over the symmetrization
pattern — and :func:`lanczos_top_eigenvalue` finds its largest eigenvalue, so
:func:`optimal_sweep_acceptance` reaches proof spaces far beyond the dense
builder's guard.  The dense operator stays as the reference the sweep is
tested against and as the input of the seesaw adversary.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.exceptions import DimensionMismatchError, ProtocolError
from repro.quantum.swap_test import swap_test_projector

# Proof dimension N = d^(2m) up to which the exact optimum diagonalises the
# dense operator; above it Lanczos on the sweep is faster.  Build plus
# eigensolve at d = 2 on a 2-core x86-64 box (numpy 2.4, OpenBLAS): N = 64
# dense 3.1 ms vs Lanczos 5.2 ms, N = 256 dense 69 ms vs Lanczos 10.3 ms.
DENSE_OPTIMUM_MAX_DIM = 64
# Largest proof dimension the Lanczos optimum accepts: at N = 2^18 (path
# length 10 at d = 2) its Krylov basis reaches 63 vectors, about 0.27 GB.
SWEEP_MAX_DIM = 2**18
_LANCZOS_TOLERANCE = 1e-12
_LANCZOS_SEED = 17
_LANCZOS_BLOCK = 16  # Krylov basis rows allocated at a time


def _as_ket(state: np.ndarray) -> np.ndarray:
    vec = np.asarray(state, dtype=np.complex128).reshape(-1)
    return vec


def swap_accept_with_operator(state: np.ndarray, operator: np.ndarray) -> float:
    """``<state| M |state>`` for a (sub)normalized ket and an accept operator."""
    vec = _as_ket(state)
    value = float(np.real(np.vdot(vec, operator @ vec)))
    return min(max(value, 0.0), 1.0)


def right_end_swap_operator(own_state: np.ndarray) -> np.ndarray:
    """Accept operator of a right end that SWAP-tests against its own fixed state.

    The SWAP test between an incoming state ``rho`` and the fixed pure state
    ``|phi>`` accepts with probability ``tr(((I + |phi><phi|)/2) rho)``, so the
    right end's behaviour is captured by the operator ``(I + |phi><phi|) / 2``.
    """
    phi = _as_ket(own_state)
    dim = phi.size
    return (np.eye(dim, dtype=np.complex128) + np.outer(phi, np.conj(phi))) / 2.0


def chain_acceptance_probability(
    left_state: np.ndarray,
    node_pairs: Sequence[Tuple[np.ndarray, np.ndarray]],
    right_accept_operator: np.ndarray,
) -> float:
    """Exact acceptance probability of the symmetrized chain on a product proof.

    The one-factor case of :func:`chain_acceptance_probability_factored`.

    Parameters
    ----------
    left_state:
        The pure state prepared by the left end ``v_0``.
    node_pairs:
        For each intermediate node ``v_j`` the pair ``(a_j, b_j)`` of proof
        states in its two registers, in register order (``a_j`` is kept when
        the node does not swap).
    right_accept_operator:
        The right end's POVM accept element on the forwarded register.
    """
    left = _as_ket(left_state)
    pairs = [(_as_ket(a), _as_ket(b)) for a, b in node_pairs]
    operator = np.asarray(right_accept_operator, dtype=np.complex128)
    for a, b in pairs:
        if a.size != left.size or b.size != left.size:
            raise DimensionMismatchError("all chain registers must share one dimension")
    if operator.shape != (left.size, left.size):
        raise DimensionMismatchError("right accept operator has the wrong dimension")
    return chain_acceptance_probability_factored(
        [left],
        [([a], [b]) for a, b in pairs],
        lambda factors: swap_accept_with_operator(factors[0], operator),
    )


def chain_acceptance_probability_factored(
    left_factors: Sequence[np.ndarray],
    node_pairs: Sequence[Tuple[Sequence[np.ndarray], Sequence[np.ndarray]]],
    right_accept_from_factors,
) -> float:
    """Chain acceptance when every register is a tensor product of factors.

    Used by the protocols built on one-way protocols with many-factor messages
    (e.g. the Hamming sketch protocol), where materialising the full message
    state is infeasible.  SWAP tests between product states factorise:
    ``P = 1/2 + (1/2) prod_i |<a_i|b_i>|^2``.  The right end's acceptance is
    computed by the supplied callable ``right_accept_from_factors(factors)``.

    The probability is a transfer-matrix contraction over the symmetrization
    pattern: ``weights[s]`` is the joint weight of all patterns whose latest
    bit is ``s`` (``s = 0``: the node kept ``a``, forwards ``b``), times the
    product of SWAP-test acceptance probabilities so far.
    """
    left = [_as_ket(f) for f in left_factors]
    pairs = [([_as_ket(f) for f in a], [_as_ket(f) for f in b]) for a, b in node_pairs]

    def swap_product(first: Sequence[np.ndarray], second: Sequence[np.ndarray]) -> float:
        if len(first) != len(second):
            raise DimensionMismatchError("factor counts differ between chain registers")
        overlap_sq = 1.0
        for f, g in zip(first, second):
            overlap_sq *= float(abs(np.vdot(f, g)) ** 2)
        return 0.5 + 0.5 * overlap_sq

    if not pairs:
        # Path of length 1: the left end's state goes straight to the right end.
        return float(min(max(right_accept_from_factors(left), 0.0), 1.0))

    first_a, first_b = pairs[0]
    weights = np.array([0.5 * swap_product(left, first_a), 0.5 * swap_product(left, first_b)])
    forwarded = [first_b, first_a]
    for a, b in pairs[1:]:
        new_weights = np.zeros(2)
        for previous in range(2):
            incoming = forwarded[previous]
            new_weights[0] += weights[previous] * 0.5 * swap_product(incoming, a)
            new_weights[1] += weights[previous] * 0.5 * swap_product(incoming, b)
        weights = new_weights
        forwarded = [b, a]
    probability = 0.0
    for previous in range(2):
        probability += weights[previous] * float(right_accept_from_factors(forwarded[previous]))
    return float(min(max(probability, 0.0), 1.0))


def _compose_channels(first, second):
    """``second`` after ``first`` where either may be ``None`` (identity)."""
    if first is None:
        return second
    if second is None:
        return first
    return first.then(second)


def _checked_chain(left_state, register_dim, num_intermediate, right_accept_operator, noise):
    """The argument checks both operator forms share: ``(left, dim, right operator)``."""
    left = _as_ket(left_state)
    dim = int(register_dim)
    if left.size != dim:
        raise DimensionMismatchError("left state dimension must equal the register dimension")
    operator = np.asarray(right_accept_operator, dtype=np.complex128)
    if operator.shape != (dim, dim):
        raise DimensionMismatchError("right accept operator has the wrong dimension")
    if num_intermediate < 0:
        raise ProtocolError("number of intermediate nodes must be non-negative")
    if noise is not None:
        noise.validate(num_intermediate, dim)
        if noise.right_channel is not None:
            raise ProtocolError(
                "fold the right end's preparation channel into the accept element "
                "before building the noisy acceptance operator"
            )
    return left, dim, operator


def _accept_elements(dim: int, operator: np.ndarray, noise):
    """The SWAP-test and right accept elements, readout-flipped under ``noise``."""
    swap_projector = swap_test_projector(dim)
    if noise is not None:
        error = noise.readout_error
        eye_pair = np.eye(dim * dim, dtype=np.complex128)
        eye_single = np.eye(dim, dtype=np.complex128)
        swap_projector = (1.0 - 2.0 * error) * swap_projector + error * eye_pair
        operator = (1.0 - 2.0 * error) * operator + error * eye_single
    return swap_projector, operator


def _register_channels(noise, num_intermediate: int):
    """Channel chains ``(left, kept, forwarded)`` of the registers (``None``: identity).

    The left register crosses edge 0 after its preparation; node ``j``'s
    delivery channel hits both of its registers, and the forwarded one
    additionally crosses edge ``j + 1``.
    """
    if noise is None:
        return None, [None] * num_intermediate, [None] * num_intermediate
    left = _compose_channels(noise.left_channel, noise.edge_channels[0])
    kept = list(noise.node_channels)
    forwarded = [
        _compose_channels(channel, noise.edge_channels[index + 1])
        for index, channel in enumerate(kept)
    ]
    return left, kept, forwarded


def chain_acceptance_operator(
    left_state: np.ndarray,
    register_dim: int,
    num_intermediate: int,
    right_accept_operator: np.ndarray,
    noise=None,
) -> np.ndarray:
    """The exact acceptance operator of the chain on the proof space.

    The proof space is the tensor product of the ``2 * num_intermediate``
    registers ``(a_1, b_1, ..., a_{r-1}, b_{r-1})`` in that order, each of
    dimension ``register_dim``.  The returned Hermitian operator ``E``
    satisfies ``P[all accept | proof rho] = tr(E rho)`` for *any* proof,
    entangled or not; its largest eigenvalue is the optimal cheating
    probability.

    The construction follows the protocol literally: the acceptance projector
    for the no-swap pattern is a tensor product of SWAP-test projectors on the
    interleaved pairs, and the symmetrization step is the uniform mixture over
    the ``2^{r-1}`` swap patterns.  Memory grows as
    ``register_dim^(2 * num_intermediate + 1)``, so this is intended for the
    small instances used in the soundness experiments; it is the reference
    :func:`chain_acceptance_sweep` is tested against.

    With a :class:`~repro.engine.jobs.ChainNoise` annotation ``noise`` the
    operator is that of the *noisy* chain: every register passes its
    channels before the tests and every test outcome is flipped with the
    annotation's readout error.  Per symmetrization pattern the pattern
    projector becomes a tensor product of *flipped* accept elements
    (``(1-2e) P + e I`` per SWAP test, likewise for the right measurement),
    conjugated by the adjoint of each register's channel chain — the
    Heisenberg picture of the engine's density-matrix evaluation, so
    ``tr(E rho)`` matches the scalar Kraus-sum reference on every product
    proof while remaining valid for entangled ones.  ``right_accept_operator``
    is then the right end's accept element *after* reference preparation:
    fold any ``right_channel`` into it before calling (the operator acts on
    the incoming register, so preparation noise of the reference state
    cannot be applied here).
    """
    from repro.quantum.channels import apply_channels_adjoint

    left, dim, operator = _checked_chain(
        left_state, register_dim, num_intermediate, right_accept_operator, noise
    )
    if num_intermediate == 0 and noise is None:
        # No proof registers; acceptance is a scalar.
        return np.array([[swap_accept_with_operator(left, operator)]], dtype=np.complex128)

    total_registers = 2 * num_intermediate + 1  # left register + proof registers
    total_dim = dim**total_registers
    if total_dim > 4096:
        raise ProtocolError(
            f"chain acceptance operator would have dimension {total_dim}; "
            "restrict to smaller instances (the memory and time costs grow as "
            "the cube of this dimension)"
        )
    swap_projector, operator = _accept_elements(dim, operator, noise)

    # Accept projector for the identity (no-swap) pattern: SWAP-test projectors
    # on the interleaved pairs (L, a_1), (b_1, a_2), ..., (b_{r-2}, a_{r-1})
    # and the right end operator on b_{r-1}.  In the register order
    # (L, a_1, b_1, a_2, b_2, ..., a_{r-1}, b_{r-1}) these blocks are adjacent
    # and non-overlapping, so the projector is a plain Kronecker product.
    accept_base = np.array([[1.0 + 0.0j]])
    for _ in range(num_intermediate):
        accept_base = np.kron(accept_base, swap_projector)
    accept_base = np.kron(accept_base, operator)

    # Symmetrization pattern unitaries are a SWAP (or identity) on each pair
    # (a_j, b_j), so U^+ A U permutes the tensor axes of A: the pattern's
    # swapped pairs exchange their row axes and their column axes.
    dims = [dim] * total_registers
    accept_tensor = accept_base.reshape(dims * 2)
    left_chain, kept, forwarded = _register_channels(noise, num_intermediate)
    full = np.zeros((total_dim, total_dim), dtype=np.complex128)
    for pattern in iter_product((0, 1), repeat=num_intermediate):
        axes = [0]
        channels = [left_chain]
        for index, bit in enumerate(pattern):
            a_axis, b_axis = 1 + 2 * index, 2 + 2 * index
            # Physical order (a_j, b_j): the pattern keeps slot 0 when its bit
            # is 0 and forwards slot 1, and vice versa.
            if bit:
                axes += [b_axis, a_axis]
                channels += [forwarded[index], kept[index]]
            else:
                axes += [a_axis, b_axis]
                channels += [kept[index], forwarded[index]]
        axes += [total_registers + axis for axis in axes]
        conjugated = accept_tensor.transpose(axes).reshape(total_dim, total_dim)
        if noise is not None:
            conjugated = apply_channels_adjoint(conjugated, dims, channels)
        full += conjugated
    full /= 2**num_intermediate

    # Contract the fixed left register with |psi_L>.
    proof_dim = dim ** (2 * num_intermediate)
    tensor = full.reshape(dim, proof_dim, dim, proof_dim)
    return np.einsum("i,ijbk,b->jk", np.conj(left), tensor, left)


def _block_map(operator: np.ndarray, inner: int) -> Callable[[np.ndarray], np.ndarray]:
    """``rows -> image``: ``operator`` applied to one register block of every row.

    The block is the one followed by ``inner`` entries of the row.
    """
    size = operator.shape[0]
    if size * inner <= 64:
        # Narrow blocks: one product with the operator on (block, trailing entries).
        joint = np.kron(operator, np.eye(inner)).T
        return lambda rows: (rows.reshape(-1, size * inner) @ joint).reshape(rows.shape)
    return lambda rows: np.matmul(operator, rows.reshape(-1, size, inner)).reshape(rows.shape)


def chain_acceptance_sweep(
    left_state: np.ndarray,
    register_dim: int,
    num_intermediate: int,
    right_accept_operator: np.ndarray,
    noise=None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Matrix-free ``v -> E v`` for the operator of :func:`chain_acceptance_operator`.

    Takes the same arguments and runs the same checks.  With ``B`` the
    accept element of the no-swap pattern and ``U_s`` the swaps of pattern
    ``s``, ``E = 2^-m sum_s U_s B U_s``.  ``B`` is a product of terms on
    adjacent registers — the first node's kept register ``a_1``, each pair
    ``(b_{j-1}, a_j)``, the last forwarded register ``b_m`` — and the swap of
    node ``j`` touches only the terms of nodes ``j`` and ``j + 1``.  So
    ``E v`` is a left-to-right sweep with bond dimension 2 over the pattern
    bits: two partial vectors, indexed by the latest bit, each summed over
    the earlier ones.  Every node applies one precomputed ``d^2 x d^2`` term
    — the (readout-flipped) SWAP-test element conjugated by the adjoint
    channels of its two registers — and the first one is contracted with
    ``|psi_L>`` on the left register.  A product costs ``O(m d^(2m+2))``
    and never forms a ``d^(4m)`` matrix.
    """
    from repro.quantum.channels import apply_channels_adjoint

    left, dim, operator = _checked_chain(
        left_state, register_dim, num_intermediate, right_accept_operator, noise
    )
    swap_element, right_element = _accept_elements(dim, operator, noise)
    left_chain, kept, forwarded = _register_channels(noise, num_intermediate)
    if num_intermediate == 0:
        # No proof registers: E is the scalar <psi_L| C^+(M) |psi_L>.
        element = apply_channels_adjoint(right_element, [dim], [left_chain])
        value = np.vdot(left, element @ left)
        return lambda vector: value * np.asarray(vector, dtype=np.complex128)

    pair = [dim, dim]
    registers = 2 * num_intermediate
    first = apply_channels_adjoint(swap_element, pair, [left_chain, kept[0]])
    first = np.einsum("x,xiyj,y->ij", left.conj(), first.reshape((dim,) * 4), left)
    first_map = _block_map(first, dim ** (registers - 1))
    term_maps = [
        _block_map(
            apply_channels_adjoint(swap_element, pair, [forwarded[node - 1], kept[node]]),
            dim ** (registers - 2 * node - 1),
        )
        for node in range(1, num_intermediate)
    ]
    right_map = _block_map(apply_channels_adjoint(right_element, [dim], [forwarded[-1]]), 1)
    scale = 0.5**num_intermediate

    def split(rows: np.ndarray, node: int) -> np.ndarray:
        """View of ``rows`` with node ``node``'s registers ``(a, b)`` as axes -3, -2."""
        inner = dim ** (registers - 2 * node - 2)
        return rows.reshape(rows.shape[:-1] + (-1, dim, dim, inner))

    def branch(rows: np.ndarray, node: int) -> np.ndarray:
        """``[rows, rows with node's pair swapped]``: the node's bit as a new leading axis."""
        stacked = np.empty((2,) + rows.shape, dtype=np.complex128)
        stacked[0] = rows
        split(stacked[1], node)[...] = split(rows, node).swapaxes(-3, -2)
        return stacked

    def merge(images: np.ndarray, node: int) -> np.ndarray:
        """Sum over the node's bit (axis -2), swapping its pair back where the bit is 1."""
        bits = split(images.swapaxes(0, -2), node)
        return (bits[0] + bits[1].swapaxes(-3, -2)).reshape(images.shape[:-2] + (-1,))

    def matvec(vector: np.ndarray) -> np.ndarray:
        # Row s of ``partial`` sums the patterns whose latest bit is s; that
        # node's swap is applied on the input side and still pending on the
        # output side, where the next node's term acts first.
        partial = first_map(branch(np.asarray(vector, dtype=np.complex128).reshape(-1), 0))
        for node, term_map in enumerate(term_maps, start=1):
            partial = merge(term_map(branch(partial, node)), node - 1)
        return scale * merge(right_map(partial), num_intermediate - 1)

    return matvec


def lanczos_top_eigenvalue(matvec: Callable[[np.ndarray], np.ndarray], dim: int) -> float:
    """Largest eigenvalue of the Hermitian operator behind ``matvec`` (Lanczos).

    Starts from a fixed seeded vector, so repeated calls return identical
    floats, and keeps the whole Krylov basis for full reorthogonalisation
    (``O(k dim)`` memory after ``k`` steps).  Stops once the top Ritz pair's
    residual ``|beta_k s_k|`` is at most 1e-12 — which bounds the eigenvalue
    error of a Hermitian operator — or the basis spans the space.
    """
    if dim < 1:
        raise ProtocolError("Lanczos needs a positive dimension")
    rng = np.random.default_rng(_LANCZOS_SEED)
    vector = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vector /= np.linalg.norm(vector)
    blocks: List[np.ndarray] = []
    alphas: List[float] = []
    betas: List[float] = []
    for step in range(dim):
        row = step % _LANCZOS_BLOCK
        if row == 0:
            blocks.append(np.empty((min(_LANCZOS_BLOCK, dim - step), dim), dtype=np.complex128))
        blocks[-1][row] = vector
        image = matvec(vector)
        alphas.append(float(np.vdot(vector, image).real))
        basis = blocks[:-1] + [blocks[-1][: row + 1]]
        for _ in range(2):  # classical Gram-Schmidt twice keeps the basis orthonormal
            for block in basis:
                image -= (block @ image.conj()).conj() @ block
        beta = float(np.linalg.norm(image))
        tridiagonal = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz, vectors = np.linalg.eigh(tridiagonal)
        if beta * abs(vectors[-1, -1]) <= _LANCZOS_TOLERANCE or step + 1 == dim:
            return float(ritz[-1])
        betas.append(beta)
        vector = image / beta
    raise AssertionError("unreachable: the basis spans the space by step dim")


def optimal_entangled_acceptance(acceptance_operator: np.ndarray) -> float:
    """Largest eigenvalue of an acceptance operator: the optimal cheating probability."""
    operator = np.asarray(acceptance_operator, dtype=np.complex128)
    hermitian = (operator + operator.conj().T) / 2
    eigenvalues = np.linalg.eigvalsh(hermitian)
    return float(min(max(eigenvalues[-1].real, 0.0), 1.0))


def optimal_sweep_acceptance(
    left_state: np.ndarray,
    register_dim: int,
    num_intermediate: int,
    right_accept_operator: np.ndarray,
    noise=None,
) -> float:
    """:func:`optimal_entangled_acceptance` of the chain, without building its operator.

    Lanczos on :func:`chain_acceptance_sweep`; proof spaces beyond
    :data:`SWEEP_MAX_DIM` raise :class:`~repro.exceptions.ProtocolError`.
    """
    matvec = chain_acceptance_sweep(
        left_state, register_dim, num_intermediate, right_accept_operator, noise=noise
    )
    proof_dim = int(register_dim) ** (2 * num_intermediate)
    if proof_dim > SWEEP_MAX_DIM:
        raise ProtocolError(
            f"the chain's proof space has dimension {proof_dim}; the Lanczos "
            f"basis is capped at dimension {SWEEP_MAX_DIM}"
        )
    value = lanczos_top_eigenvalue(matvec, proof_dim)
    return float(min(max(value, 0.0), 1.0))
