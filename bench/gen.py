"""Seeded stream of small skewgb problem files for the mixed-batch workload.

The shapes follow acceptance criterion 4 of the test suite (random
weighted-homogeneous difference polynomials, s-homogeneous skew elements,
homogeneous free polynomials), written out as CLI problem text so that the
program receives only the generated input.  Left-mode items reuse the skew
shape: ``left_gbasis`` does not terminate on some non-s-homogeneous inputs
at small bounds (see bench/README.md), so left items stay s-homogeneous.

This module does not import skewgb; like-term cancellation is done here so
every generator written out is nonzero.
"""

from __future__ import annotations

import random

NAMES = ("x", "y", "z", "w")
# Modes rotate instance by instance, so every stretch of five instances has
# one of each and the mix does not depend on the seed.
MODES = ("sigma", "skew", "left", "free", "free2")


def _coeff(rng: random.Random) -> int:
    c = 0
    while not c:
        c = rng.randint(-5, 5)
    return c


def _render(terms: dict, render_mono) -> str:
    out = []
    for mono in sorted(terms, reverse=True):
        c = terms[mono]
        body = render_mono(mono)
        mag = abs(c)
        if body == "1":
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        if not out:
            out.append(("-" if c < 0 else "") + text)
        else:
            out.append(("- " if c < 0 else "+ ") + text)
    return " ".join(out)


def _combine(pairs) -> dict:
    acc: dict = {}
    for mono, c in pairs:
        acc[mono] = acc.get(mono, 0) + c
    return {m: c for m, c in acc.items() if c}


def _placed(mono) -> str:
    if not mono:
        return "1"
    return "*".join(f"{NAMES[letter]}({place})" for letter, place in mono)


def _word(word) -> str:
    return "*".join(NAMES[letter] for letter in word) if word else "1"


def _weighted_poly(rng, letters, max_weight, max_deg, terms, fixed):
    """Every monomial has a variable at the same place w (one weight)."""
    w = rng.randint(0, max_weight)
    while True:
        pairs = []
        for _ in range(rng.randint(1, terms)):
            deg = fixed if fixed is not None else rng.randint(1, max_deg)
            vars_ = [(rng.randrange(letters), w)]
            vars_ += [
                (rng.randrange(letters), rng.randint(0, w))
                for _ in range(deg - 1)
            ]
            pairs.append((tuple(sorted(vars_, reverse=True)), _coeff(rng)))
        poly = _combine(pairs)
        if poly:
            return _render(poly, _placed)


def _skew_homogeneous(rng, letters, max_place, max_deg, terms, max_sdeg, fixed):
    while True:
        pairs = []
        for _ in range(rng.randint(1, terms)):
            deg = fixed if fixed is not None else rng.randint(0, max_deg)
            vars_ = [
                (rng.randrange(letters), rng.randint(0, max_place))
                for _ in range(deg)
            ]
            pairs.append((tuple(sorted(vars_, reverse=True)), _coeff(rng)))
        poly = _combine(pairs)
        if poly:
            break
    k = rng.randint(0, max_sdeg)
    body = _render(poly, _placed)
    if k == 0:
        return body
    return f"({body})*" + ("s" if k == 1 else f"s^{k}")


def _free_homogeneous(rng, letters, max_deg, terms):
    d = rng.randint(1, max_deg)
    while True:
        pairs = [
            (tuple(rng.randrange(letters) for _ in range(d)), _coeff(rng))
            for _ in range(rng.randint(1, terms))
        ]
        poly = _combine(pairs)
        if poly:
            return _render(poly, _word)


def instance(rng: random.Random, mode: str) -> str:
    """One problem file in ``mode``, drawn from ``rng``."""
    if mode == "sigma":
        n, d = rng.randint(1, 2), rng.randint(3, 4)
        ordering = rng.choice(("lex", "deglex"))
        fixed = rng.randint(1, 2) if ordering == "lex" else None
        letters = rng.randint(1, 3)
        gens = [
            _weighted_poly(rng, letters, 3, 2, 2, fixed) for _ in range(n)
        ]
    elif mode in ("skew", "left"):
        n, d = rng.randint(1, 2), 3
        ordering = rng.choice(("lex", "deglex"))
        # Lex quadrics are left out: skew_gbasis runs for minutes on some
        # (see bench/README.md, Known gaps).
        fixed = 1 if ordering == "lex" else None
        letters = rng.randint(1, 3)
        gens = [
            _skew_homogeneous(rng, letters, 1, 2, 2, 2, fixed)
            for _ in range(n)
        ]
    else:
        n, d = rng.randint(1, 3), rng.randint(3, 4)
        ordering = "lex"
        letters = rng.randint(2, 3)
        gens = [_free_homogeneous(rng, letters, 3, 3) for _ in range(n)]
    header = [f"mode: {mode}", f"degree_bound: {d}", f"ordering: {ordering}"]
    return "\n".join(header) + "\n\n" + "\n".join(gens) + "\n"


def stream(seed: int):
    """Endless deterministic sequence of (mode, problem text)."""
    rng = random.Random(seed)
    i = 0
    while True:
        mode = MODES[i % len(MODES)]
        yield mode, instance(rng, mode)
        i += 1
