"""Set-up time in a fresh interpreter: import dwdm_qkd.cli, then build the
workload's inputs. The interpreter's own start is not counted.

Like the operation times (see speed.py), the set-up time is scaled to a
reference speed, here by a piece of work timed just before and just after
it. That work uses builtins only, so that nothing the program imports is
loaded before the timed part.

Usage: python3 bench/probe.py WORKLOAD SEED WORKDIR
Prints one JSON line: {"import_s": ..., "setup_s": ...}.
"""
import os
import sys
import time

REFERENCE_S = 300e-6  # the work's typical time on the reference host (bench/README.md)


def reference_time() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 2000):
        x = i * 1e-3
        acc += (x * x + 1.0) / (x + 0.5) - x**0.5
    return time.perf_counter() - start


refs = [reference_time() for _ in range(5)]
start = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import dwdm_qkd.cli  # noqa: E402,F401

imported = time.perf_counter()
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
done = time.perf_counter()
refs += [reference_time() for _ in range(5)]
scale = REFERENCE_S / sorted(refs)[len(refs) // 2]
print('{"import_s": %r, "setup_s": %r}' % ((imported - start) * scale, (done - start) * scale))
