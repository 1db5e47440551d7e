"""Seeded micro-benchmarks of the per-element kernels on one (h, k) space.

    python3 bench/kernels.py --h H --k K --seed S --result R.json

Times ``Field.mul`` of GF(q) and ``smul``, ``normalize``, ``pair_line_key``
and ``reduce`` of H_inf = PG(2k-1, q), plus ``BruckBosePlane.base_of`` on
the canonical plane, as nanoseconds per call (median over repetitions of a
fixed batch, loop overhead included).  The scalar tables are built first,
as the A4 scan and the exhaustive spectrum do; whether H_inf is small enough
to get them is part of the record.  Runs in its own interpreter so the
package's caches start cold, as in a case process.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time

CALLS = 20_000
REPS = 7


def _ns_per_call(fn, inputs) -> float:
    samples = []
    for _ in range(REPS + 1):  # the first pass only warms up
        t = time.perf_counter_ns()
        for args in inputs:
            fn(*args)
        samples.append((time.perf_counter_ns() - t) / len(inputs))
    return statistics.median(samples[1:])


def measure(h: int, k: int, seed: int) -> dict:
    from hoval import build_plane, maps_for, tower_create

    maps = maps_for(tower_create(h, k))
    hinf = maps.hinf
    field = hinf.field
    q = field.q
    rng = random.Random(seed)

    t = time.perf_counter()
    tables = hinf.ensure_tables()
    ensure_s = time.perf_counter() - t

    def vector() -> int:
        return rng.randrange(1, 1 << hinf.bits)

    def point() -> int:
        return hinf.normalize(vector())

    def distinct_points():
        a = point()
        b = point()
        while b == a:
            b = point()
        return a, b

    scalars = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(CALLS)]
    smul_in = [(rng.randrange(2, q), vector()) for _ in range(CALLS)]
    norm_in = [(vector(),) for _ in range(CALLS)]
    pair_in = [distinct_points() for _ in range(CALLS)]
    reduce_in = [(vector(), hinf.pair_line_key(*distinct_points()))
                 for _ in range(CALLS)]

    plane = build_plane(maps)
    n_el = len(plane.spread.elements)
    amb_bits = maps.ambient.bits - maps.ambient.h
    base_in = [(rng.randrange(n_el), 1 | (rng.getrandbits(amb_bits) << h))
               for _ in range(CALLS)]

    return {
        "gf2.mul_ns": _ns_per_call(field.mul, scalars),
        "projective.smul_ns": _ns_per_call(hinf.smul, smul_in),
        "projective.normalize_ns": _ns_per_call(hinf.normalize, norm_in),
        "projective.pair_line_key_ns": _ns_per_call(hinf.pair_line_key, pair_in),
        "projective.reduce_ns": _ns_per_call(hinf.reduce, reduce_in),
        "bruckbose.base_of_ns": _ns_per_call(plane.base_of, base_in),
        "projective.smul_tables": int(tables),
        "projective.ensure_tables_s": ensure_s,
    }


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()
    with open(args.result, "w", encoding="ascii") as f:
        json.dump(measure(args.h, args.k, args.seed), f)


if __name__ == "__main__":
    main()
