"""Seeded inputs for the benchmark, built with the benchmark's own arithmetic.

Nothing here imports `hasseweil`: generating inputs must not warm the
program's module-level caches.
"""

from __future__ import annotations

import random

DISC_LIMIT = 2 * 10**4
SCAN_STEPS = 256  # t = k / 32 for k = 1..256, so t runs over (0, 8]
SCAN_DENOM = 32


def invariants(a1: int, a2: int, a3: int, a4: int, a6: int) -> tuple[int, int, int]:
    """(c4, c6, discriminant) of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, c6, disc


def eligible_curves() -> list[tuple[int, int, int, int, int]]:
    """Nonsingular small models with |disc| <= DISC_LIMIT, one per (c4, c6).

    Coefficients: a1, a3 in {0, 1}, a2 in {-1, 0, 1}, |a4|, |a6| <= 30.
    The list order is fixed, so the same seed always draws the same curves.
    """
    seen: set[tuple[int, int]] = set()
    out = []
    for a1 in (0, 1):
        for a3 in (0, 1):
            for a2 in (-1, 0, 1):
                for a4 in range(-30, 31):
                    for a6 in range(-30, 31):
                        c4, c6, disc = invariants(a1, a2, a3, a4, a6)
                        if disc == 0 or abs(disc) > DISC_LIMIT or (c4, c6) in seen:
                            continue
                        seen.add((c4, c6))
                        out.append((a1, a2, a3, a4, a6))
    return out


def catalog_order(name: str = "") -> list[tuple[int, int, int, int, int]]:
    """The eligible curves in one fixed shuffle; references cover a prefix.

    `table` uses the unnamed shuffle; `euler` names its own, so its catalog
    is drawn independently of `table`'s.
    """
    curves = eligible_curves()
    random.Random("hasseweil-catalog" + (f":{name}" if name else "")).shuffle(curves)
    return curves


def stream(name: str, seed: int, population: list) -> list:
    """The population in the order seed `seed` draws it for workload `name`.

    Workloads draw from separate streams, so two workloads with the same
    seed do not share inputs by accident.
    """
    order = list(population)
    random.Random(f"{name}:{seed}").shuffle(order)
    return order


def stratified(name: str, seed: int, population: list, key, bands: int):
    """Draw the population so that every prefix spreads evenly over `key`.

    The population, sorted by `key`, is cut into `bands` equal bands; the
    seed shuffles each band, and draws visit the bands low, high, next
    lowest, next highest, ...  A run that stops after a few draws then sees
    about the same mix of `key` whatever the seed.
    """
    ordered = sorted(population, key=key)
    size = len(ordered) // bands
    shuffled = [stream(f"{name}.{i}", seed, ordered[i * size:(i + 1) * size])
                for i in range(bands)]
    visit = [i // 2 if i % 2 == 0 else bands - 1 - i // 2 for i in range(bands)]
    for draw in range(size):
        for band in visit:
            yield shuffled[band][draw]


def scan_points(seed: int):
    """Grid indices k (t = k / SCAN_DENOM), stratified over t."""
    return stratified("scan", seed, list(range(1, SCAN_STEPS + 1)), lambda k: k, 8)
