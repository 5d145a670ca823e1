#!/usr/bin/env python3
"""Compare the gmpy2 and pure-Python rational backends.

Runs the same exact workloads in subprocesses with BINRAM_BACKEND set, so
each measurement uses a cleanly initialized backend, and prints a small
table of wall-clock times and speedups.  A backend that cannot be imported
(gmpy2 is optional) is skipped with a printed note.

Usage: python benchmarks/bench_backends.py [--n-max N] [--repeat R]
"""

import argparse
import os
import subprocess
import sys
import textwrap

WORKLOADS = {
    "tail-sign scan": """
        from binram.exactcore import p_diff_signs
        for n in range(2, {n_max} + 1):
            p_diff_signs(n)
    """,
    "z-sign scan": """
        from binram.exactcore import z_diff_signs
        for n in range(2, {n_max} + 1):
            z_diff_signs(n)
    """,
    "z evaluation": """
        from binram.exactcore import BinomialSpec, ramanujan_z
        for n in range(2, {n_max} + 1):
            for b in range(1, n):
                ramanujan_z(BinomialSpec(b, n))
    """,
    "kernel integrals": """
        from binram.exactcore import BinomialSpec
        from binram.kernel import integrate_g_delta
        for n in range(2, {n_max} + 1):
            for b in range(1, n):
                integrate_g_delta(BinomialSpec(b, n))
    """,
}


BACKENDS = ("gmpy2", "fractions")


def backend_env(backend: str) -> dict:
    return dict(os.environ, BINRAM_BACKEND=backend)


def importable(backend: str) -> bool:
    proc = subprocess.run([sys.executable, "-c", "import binram.backend"],
                          capture_output=True, env=backend_env(backend))
    return proc.returncode == 0


def run_once(backend: str, body: str) -> float:
    script = textwrap.dedent(
        f"""
        import time
        t0 = time.perf_counter()
        {textwrap.indent(textwrap.dedent(body), "        ").strip()}
        print(time.perf_counter() - t0)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=backend_env(backend),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{backend} workload failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=120)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    backends = [b for b in BACKENDS if importable(b)]
    for skipped in sorted(set(BACKENDS) - set(backends)):
        print(f"note: backend {skipped} cannot be imported here; skipped")
    print(f"n_max = {args.n_max}, best of {args.repeat}\n")
    print(f"{'workload':<20}" + "".join(f"{b + ' (s)':>16}" for b in backends)
          + (f"{'speedup':>9}" if len(backends) == 2 else ""))
    for name, template in WORKLOADS.items():
        body = template.format(n_max=args.n_max)
        times = {b: min(run_once(b, body) for _ in range(args.repeat)) for b in backends}
        line = f"{name:<20}" + "".join(f"{times[b]:>16.3f}" for b in backends)
        if len(backends) == 2:
            line += f"{times['fractions'] / times['gmpy2']:>8.1f}x"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
