"""One benchmark cell in its own process: `qdl` with the given arguments.

    python3 perfbench/cell.py [--spans PATH --cell ID] -- <qdl arguments>

Imports qdlattice from the checkout's `src/`, then runs the CLI entry point
between two runs of the reference kernel below. The last line of standard
output is a JSON object with the monotonic clock when the first kernel run
starts (`reference_start`), the mean time of the two kernel runs
(`reference_s`), the clock just before and just after the experiment
(`start`, `end`) and the process's peak RSS; the exit code is the CLI's. With `--spans`, every layer is wrapped (see
spans.py) and the spans are written to PATH after the experiment.
"""

import json
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qdlattice import cli  # noqa: E402  (needs the path set above)


def _dedup(rows: np.ndarray, amps: np.ndarray) -> np.ndarray:
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1]))).ravel()
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    acc = np.zeros(len(uniq), dtype=np.complex128)
    np.add.at(acc, inverse, amps)
    return rows[first][np.abs(acc) >= 1e-12]


def reference_s() -> float:
    """Seconds taken by a fixed mix of the kinds of work qdlattice does: dict
    updates in the interpreter, and SparseState.from_terms-like row
    deduplication (np.unique on void keys, np.add.at) on many small arrays
    and a few large ones. It uses no qdlattice code, so no change to the
    package moves it; run in the cell's own process just before and just
    after the experiment, it measures the speed the host gives that cell."""
    rng = np.random.default_rng(0)
    rows = rng.integers(0, 4, size=(20000, 16), dtype=np.uint8)
    amps = rng.standard_normal(20000) + 1j * rng.standard_normal(20000)
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(400000):
        key = (i * 7919) % 20011
        table[key] = table.get(key, 0) + i
    for _ in range(6):
        for i in range(0, 19800, 66):
            _dedup(rows[i : i + 200], amps[i : i + 200])
    for _ in range(6):
        _dedup(rows, amps)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, qdl_args = argv[:split], argv[split + 1 :]
    recorder = None
    if opts:
        sys.path.insert(0, HERE)
        from spans import Recorder

        recorder = Recorder(opts[opts.index("--cell") + 1])
        recorder.install()
    reference_start = time.monotonic()
    reference = reference_s()
    start = time.monotonic()
    code = cli.main(qdl_args)
    end = time.monotonic()
    reference = (reference + reference_s()) / 2
    if recorder is not None:
        recorder.dump(opts[opts.index("--spans") + 1])
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timing = {"reference_start": reference_start, "reference_s": reference, "start": start, "end": end}
    print(json.dumps({**timing, "maxrss_mb": maxrss_mb}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
