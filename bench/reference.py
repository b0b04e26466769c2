"""A fixed piece of work, timed in a helper process that never imports the
library.

The machine this benchmark is run on changes speed by up to 1.8x, for
seconds to tens of seconds at a time, as a fixed loop shows. The benchmark
therefore runs the work before and after each operation and set-up (and
between the jobs of a grid pass), and multiplies each time it measures by
REFERENCE_MS over the median reference time from the sample just before it to
the one just after. The same code then reads about the same however fast the
machine was while it ran, while a change to the library moves it as before.
The work imitates the library's hot paths and touches none of its code:
mostly interpreted graph bookkeeping, as in betweenness, then small numpy
layer ops and one batched product, as in the graph convolutions.

The work runs in its own interpreter, so nothing the library does to the
benchmark's process (threads left running, GC settings, a grown heap) can
change the reference and cancel out of the scaled figures.

Run as a script, it answers each line on standard input with the duration of
one run of the work, in ms, and exits at the end of its input.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

# Nominal duration of one run of the work.
REFERENCE_MS = 25.0


def _work(x, w) -> float:
    import numpy as np

    acc = 0.0
    for k in range(300):
        adj = [[] for _ in range(10)]
        for i in range(9):
            adj[i].append(i + 1)
            adj[i + 1].append(i)
        for _ in range(6):
            seen = {0: 0}
            queue = [0]
            for v in queue:
                for u in adj[v]:
                    if u not in seen:
                        seen[u] = seen[v] + 1
                        queue.append(u)
            acc += sum(seen.values())
        h = x[k % 64] @ w
        acc += float(np.where(h > 0, h, 0.01 * h).sum())
        if k % 10 == 0:
            acc += float(np.einsum("bni,bno->io", x, x @ w)[0, 0])
    return acc


def _serve() -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    x, w = rng.random((64, 10, 30)), rng.random((30, 30))
    print("ready", flush=True)
    for _ in sys.stdin:
        t0 = time.perf_counter()
        _work(x, w)
        print((time.perf_counter() - t0) * 1e3, flush=True)


class Reference:
    """Client of the helper process; ``close()`` stops it and waits."""

    def __init__(self):
        self.ms: list[float] = []
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the reference helper did not start")

    def sample(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.ms.append(float(self._proc.stdout.readline()))

    def bracket(self) -> int:
        """Open a bracket around some work: returns the index of the sample
        just before it, taking one if there is none yet."""
        if not self.ms:
            self.sample()
        return len(self.ms) - 1

    def factor(self, bracket: int) -> float:
        """Close the bracket with a new sample; returns the factor that maps
        the times of the work inside it to reference speed."""
        self.sample()
        return REFERENCE_MS / statistics.median(self.ms[bracket:])

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    _serve()
