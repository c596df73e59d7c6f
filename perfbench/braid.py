"""Closed braid words as PD text: the input generator of the braid workload.

A word is a sequence of non-zero integers on ``strands`` strands: ``+i`` is
the generator sigma_i (the left strand passes under the right one), ``-i``
its inverse.  The closure of the word is drawn as a PD code in the
KnotTheory convention read by ``unknotforge.codec``: one ``X[a,b,c,d]`` row
per crossing, starting at the incoming under-strand and going round the
crossing counterclockwise, with edges numbered 1..2n along the knot.
"""

from __future__ import annotations

import random


def closes_to_knot(word, strands: int) -> bool:
    """Is the closure one component, i.e. is the word's permutation a
    single ``strands``-cycle?"""
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    p, length = perm[0], 1
    while p != 0:
        p, length = perm[p], length + 1
    return length == strands


def braid_pd(word, strands: int) -> str:
    """PD text of the closure of ``word``, one crossing per letter."""
    if not word or not all(1 <= abs(g) < strands for g in word):
        raise ValueError(f"letters must be +-1..{strands - 1}")
    if not closes_to_knot(word, strands):
        raise ValueError("the closure is a link, not a knot")
    label = list(range(strands))     # edge entering the braid at each position
    fresh = strands
    rows = []
    succ = {}                        # edge -> next edge along the knot
    for g in word:
        i = abs(g) - 1
        a, b = label[i], label[i + 1]          # incoming: left, right
        c, d = fresh, fresh + 1                # outgoing: left, right
        fresh += 2
        succ[a] = d
        succ[b] = c
        rows.append((a, c, d, b) if g > 0 else (b, a, c, d))
        label[i], label[i + 1] = c, d
    # closing the braid glues the bottom edge at each position to the top one
    glue = {top: bottom for top, bottom in enumerate(label)}
    rows = [tuple(glue.get(e, e) for e in row) for row in rows]
    succ = {glue.get(e, e): glue.get(f, f) for e, f in succ.items()}
    number = {}
    e = rows[0][0]
    while e not in number:
        number[e] = len(number) + 1
        e = succ[e]
    return " ".join("X[" + ",".join(str(number[e]) for e in row) + "]"
                    for row in rows) + "\n"


def torus_word(k: int):
    """(sigma1 sigma2)^k on three strands: the (3, k) torus knot when 3
    does not divide k."""
    return [1, 2] * k


def random_knot_word(rng: random.Random, strands: int, length: int):
    """A uniform random word whose closure is a knot; link closures are
    redrawn.  A ``strands``-cycle has the parity of ``strands - 1``
    transpositions, so no word of the other length parity closes to a
    knot."""
    if (length - strands + 1) % 2:
        raise ValueError(f"no {length}-letter word on {strands} strands closes "
                         "to a knot")
    while True:
        word = [rng.choice((1, -1)) * (1 + rng.randrange(strands - 1))
                for _ in range(length)]
        if closes_to_knot(word, strands):
            return word
