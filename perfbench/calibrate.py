"""Fixed reference work that the benchmark's timings are divided by.

The host this benchmark was sized on drifts in speed by 20-40% for spells of
seconds to minutes, and the library and this work slow down together.  So
every timing is divided by calibration timings taken in the same run, and
scaled by the calibration's nominal seconds.  The result reads as seconds at
the speed where the calibration takes its nominal time.

One calibration is ``python perfbench/calibrate.py``: a fresh interpreter
that imports numpy and networkx (the library's own heavy imports) and runs
``ROUNDS`` rounds of fixed work.  Each cold report and set-up probe is
divided by the calibration run next to it; library operations are divided
by the median calibration of the whole run.  The work never touches
``repro``, so no change to the library moves it, and changing this file
changes every metric.
"""

from __future__ import annotations

import numpy as np

#: Rounds of fixed work per calibration.
ROUNDS = 12

#: Median calibration seconds on the 2-core reference box (see RATIONALE.md).
NOMINAL_S = 0.5


def work(rounds: int) -> float:
    """Interpreter, small-array, batched-matrix and eigensolver work, like the library's mix."""
    rng = np.random.default_rng(12345)
    mats = rng.standard_normal((64, 24, 24))
    herm = mats + mats.transpose(0, 2, 1)
    states = rng.standard_normal((256, 8, 8)) + 1j * rng.standard_normal((256, 8, 8))
    blocks = rng.standard_normal((256, 16, 16)) + 1j * rng.standard_normal((256, 16, 16))
    total = 0.0
    for _ in range(rounds):
        counts: dict = {}
        for i in range(20000):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + i
        total += len(counts)
        for k in range(200):
            total += float(np.einsum("ij,jk->ik", herm[k % 64], herm[(k + 1) % 64]).trace())
        total += float(np.linalg.eigvalsh(herm).sum())
        total += float(np.abs(np.einsum("bij,bkj->bik", states, states.conj())).sum())
        gram = blocks @ blocks.conj().transpose(0, 2, 1)
        total += float(np.abs(np.einsum("bij,bjk->bik", blocks, gram)).sum())
    return total


if __name__ == "__main__":
    import networkx  # noqa: F401  (its import is part of the cold form)

    work(ROUNDS)
