"""Seeded inputs: SQL text over ``R0..Rn(id, ref0, ref1, cat, part, val)``
and the open-loop arrival schedule.

The benchmark writes SQL text itself; the program under test receives
only that text (or its parse).  Same seed, same bytes.
"""

from __future__ import annotations

import math
import random

_HUB_KEYS = ("ref0", "ref1", "id")


def _finish(select_from: str, conds: list[str], grouped: bool) -> str:
    sql = select_from
    if conds:
        sql += " WHERE " + " AND ".join(conds)
    if grouped:
        sql += " GROUP BY r0.part"
    return sql


def _head(relations: int, offset: int, grouped: bool) -> str:
    columns = "r0.part, SUM(r0.val) AS total" if grouped else "*"
    tables = ", ".join(f"R{i + offset} r{i}" for i in range(relations))
    return f"SELECT {columns} FROM {tables}"


def chain_sql(
    relations: int, offset: int = 0, cat: int | None = None,
    grouped: bool = False,
) -> str:
    """``R[offset] - R[offset+1] - ...`` along ``rX.ref0 = rY.id``."""
    conds = [f"r{i}.ref0 = r{i + 1}.id" for i in range(relations - 1)]
    if cat is not None:
        conds.append(f"r0.cat = {cat}")
    return _finish(_head(relations, offset, grouped), conds, grouped)


def star_sql(
    relations: int, offset: int = 0, cat: int | None = None,
    grouped: bool = False,
) -> str:
    """Hub ``R[offset]`` joined to ``relations - 1`` satellites on its
    ``ref0``/``ref1``/``id`` columns in turn."""
    conds = [
        f"r0.{_HUB_KEYS[(i - 1) % len(_HUB_KEYS)]} = r{i}.id"
        for i in range(1, relations)
    ]
    if cat is not None:
        conds.append(f"r0.cat = {cat}")
    return _finish(_head(relations, offset, grouped), conds, grouped)


def deck(
    sizes: dict, seed: int, stream: str = "measured", count: int | None = None,
) -> list[str]:
    """*count* queries (default ``sizes["inputs"]``) for one workload.

    Slot *i* has shape ``shapes[i % len(shapes)]``, the next relation
    offset that shape has not used yet, a ``r0.cat = c`` selection on 7
    slots in 10 and a grouped ``SUM`` on 1 in 4 — so every seed draws
    the same mix, exactly.  The seed picks each constant (from
    ``sizes["cats"]`` values, default 10) and, unless ``sizes["shuffled"]``
    is off, the order.  *stream* separates decks drawn from one seed
    (measured sessions vs warm-up)."""
    shapes = sizes["shapes"]
    world_relations = sizes["world"]["n_relations"]
    cats = sizes.get("cats", 10)
    rng = random.Random(f"{seed}/{stream}")
    out = []
    for i in range(sizes["inputs"] if count is None else count):
        kind, relations = shapes[i % len(shapes)]
        offset = (i // len(shapes)) % (world_relations - relations + 1)
        cat = rng.randrange(cats)
        make = chain_sql if kind == "chain" else star_sql
        out.append(
            make(
                relations,
                offset,
                cat if (7 * i) % 10 < 7 else None,
                grouped=i % 4 == 3,
            )
        )
    if sizes.get("shuffled", True):
        rng.shuffle(out)
    return out


def arrival_schedule(count: int, rate: float) -> list[float]:
    """Due times (seconds from the start of the pass) of *count*
    arrivals at *rate*/s — the same for every seed.

    The gaps are the *count* quantile midpoints of the exponential
    distribution, so the pass offers a Poisson-shaped mix of short and
    long gaps and exactly ``count / rate`` seconds of load.  They are
    ordered once, in blocks of four that take one gap from each quarter
    of the distribution, so bursts occur but none is long enough to
    decide the tail of a pass this short by itself.  Where the bursts
    fall is part of the frozen workload: a pass has too few arrivals to
    average over that, and a schedule drawn per seed moved the 90th
    percentile by 60 % between seeds."""
    rng = random.Random("arrivals")
    gaps = [
        -math.log(1.0 - (i + 0.5) / count) / rate for i in range(count)
    ]
    blocks = count // 4
    quarters = [gaps[k * blocks:(k + 1) * blocks] for k in range(4)]
    for quarter in quarters:
        rng.shuffle(quarter)
    ordered = []
    for block in zip(*quarters):
        block = list(block)
        rng.shuffle(block)
        ordered.extend(block)
    rest = gaps[4 * blocks:]
    rng.shuffle(rest)
    due, now = [], 0.0
    for gap in ordered + rest:
        now += gap
        due.append(now)
    return due
