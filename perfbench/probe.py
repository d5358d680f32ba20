"""Machine-speed probe: a fixed kernel timed next to every measurement.

The 2-core box the benchmark was defined on is shared, and its speed
drifts by up to 2x over minutes, which moves the median release time of a
run by more than any bound worth having. Each timed call therefore runs
between two probes, and its wall time is rescaled by
REFERENCE_S / (mean of the two probe times): the result is the call's
time in seconds on a machine where the probe takes REFERENCE_S.

The probe mixes the kinds of work the workloads do: float parsing, many
tiny numpy calls each with a Philox set-up, matrix-vector products,
bulk Philox words through cos. It uses no
dpsketch code, so a change to the library does not move it. It runs in a
child process (``Prober``), so it adds nothing to the memory high-water
mark of the process that runs the releases.
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Probe time on the reference box (2-core Intel Xeon, Python 3.11.7,
# numpy 2.4.6, OpenBLAS with 2 threads) at its quietest: 40 probes in a
# row took 0.059 s at least and 0.064 s in the median.
REFERENCE_S = 0.060


def probe() -> float:
    """Seconds the fixed kernel takes now."""
    rng = np.random.default_rng(12345)
    texts = [repr(x) for x in rng.standard_normal(20000).tolist()]
    rows = rng.standard_normal((200, 1000))
    tall = rng.standard_normal((1000, 101))
    acc = np.zeros((74, 50))
    t0 = time.perf_counter()
    [float(s) for s in texts]
    for k in range(800):
        gen = np.random.Philox(key=k)
        gen.advance(19 * k)
        u = (gen.random_raw(76) >> np.uint64(11)).astype(np.float64) * 2.0**-53 + 2.0**-54
        acc += np.outer(np.sqrt(-2.0 * np.log(u))[:74], rows[k % 200, :50])
    for row in rows:
        row @ tall
    words = np.random.Philox(key=7).random_raw(400000)
    np.cos((words >> np.uint64(11)).astype(np.float64))
    return time.perf_counter() - t0


def rescaled(seconds: list[float], probes: list[float]) -> list[float]:
    """Each time at reference speed; ``probes`` has one more entry, the
    probes before and after each timed call."""
    return [t * 2.0 * REFERENCE_S / (probes[i] + probes[i + 1]) for i, t in enumerate(seconds)]


class Prober:
    """Runs ``probe`` in a child process, one probe per call, and waits for it."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe process ended with {self._proc.wait()}")
        return float(line)

    def __enter__(self) -> "Prober":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait()


if __name__ == "__main__":
    # One probe per line on stdin; ends when stdin closes.
    for _ in sys.stdin:
        print(probe(), flush=True)
