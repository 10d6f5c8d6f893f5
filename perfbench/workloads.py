"""Seeded inputs and command lines for the four benchmark workloads.

Every generator draws from one numpy PCG64 stream seeded by the benchmark's
``--seed``, so the same seed writes byte-identical files. The program under
test only ever sees these files. ``scale`` shrinks every size for the smoke
test; the benchmark itself always runs at scale 1.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Inputs:
    """What one workload generated: the CLI arguments, the output files to
    check, input statistics, and (label_exec only) the constructed labels."""

    argv: list[str]
    outputs: list[str]
    stats: dict[str, int]
    n_items: int  # records, or pairs for label_exec: the records_per_s numerator
    expected_labels: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Path, Path, int, float], Inputs]


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, salt]))


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def skewed_sizes(rng: np.random.Generator, n_records: int, n_schemas: int, sigma: float) -> np.ndarray:
    """Log-normal schema sizes rescaled to sum to exactly n_records, each >= 1."""
    raw = rng.lognormal(0.0, sigma, n_schemas)
    sizes = np.maximum(1, np.floor(raw / raw.sum() * n_records)).astype(int)
    # hand out (or take back) the rounding remainder one record at a time
    order = np.argsort(-raw, kind="stable")
    i = 0
    while sizes.sum() != n_records:
        j = order[i % n_schemas]
        if sizes.sum() < n_records:
            sizes[j] += 1
        elif sizes[j] > 1:
            sizes[j] -= 1
        i += 1
    return sizes


def token_probs(rng: np.random.Generator, n_tokens: int) -> np.ndarray:
    """Per-token probabilities shaped like decoder output: mostly near 1 with
    a tail of uncertain tokens, six decimals, never 0."""
    p = 1.0 - rng.beta(0.35, 9.0, n_tokens)
    return np.maximum(np.round(p, 6), 1e-6)


def _records_file(path: Path, rng: np.random.Generator, sizes: np.ndarray,
                  token_range: tuple[int, int], full: bool) -> dict[str, int]:
    """Write one JSONL record per entry of the shuffled schema assignment.

    Labels are Bernoulli draws at a monotone function of the geometric-mean
    token probability, so calibration has signal to find. ``full`` adds every
    optional field plus one unknown field that the loader must carry along.
    """
    schema_of = np.repeat(np.arange(len(sizes)), sizes)
    rng.shuffle(schema_of)
    n = len(schema_of)
    lengths = rng.integers(token_range[0], token_range[1] + 1, n)
    n_tokens = 0
    with path.open("w", encoding="utf-8") as fh:
        for i in range(n):
            probs = token_probs(rng, int(lengths[i]))
            n_tokens += len(probs)
            geo = float(np.exp(np.mean(np.log(probs))))
            label = int(rng.random() < 0.05 + 0.9 * geo**8)
            obj: dict = {
                "id": f"r{i:06d}",
                "schema_id": f"s{int(schema_of[i]):04d}",
                "label": label,
                "token_probs": probs.tolist(),
            }
            if full:
                p_true, p_false = np.round(rng.uniform(0.01, 1.0, 2), 4).tolist()
                obj["question"] = f"question {i} about schema {int(schema_of[i])}"
                obj["self_check_bool"] = {"p_true": p_true, "p_false": p_false}
                obj["verbalized_prob"] = round(float(rng.random()), 3)
                obj["alternatives"] = [
                    {"score": round(float(s), 4), "equivalent": bool(e)}
                    for s, e in zip(rng.random(int(rng.integers(1, 5))), rng.random(4) < 0.3)
                ]
                obj["difficulty"] = ("easy", "medium", "hard")[int(rng.integers(3))]
            fh.write(json.dumps(obj) + "\n")
    return {"records": n, "tokens": n_tokens, "schemas": int(np.count_nonzero(sizes))}


def build_score_long(inp: Path, out: Path, seed: int, scale: float) -> Inputs:
    rng = _rng(seed, 1)
    n = _scaled(8_000, scale, 20)
    data = inp / "records.jsonl"
    stats = _records_file(data, rng, skewed_sizes(rng, n, 100, 1.0), (20, 200), full=True)
    scored = out / "scored.jsonl"
    return Inputs(
        argv=["score", "--input", str(data), "--out", str(scored), "--method", "prod"],
        outputs=[str(scored)],
        stats=stats,
        n_items=n,
    )


def build_cv_compare(inp: Path, out: Path, seed: int, scale: float) -> Inputs:
    rng = _rng(seed, 2)
    n = _scaled(4_000, scale, 60)
    data = inp / "records.jsonl"
    stats = _records_file(data, rng, skewed_sizes(rng, n, _scaled(200, scale, 10), 1.2),
                          (1, 8), full=False)
    return Inputs(
        argv=["evaluate", "--input", str(data), "--method", "prod", "--binning", "uniform",
              "--k", "5", "--seed", str(seed), "--out-dir", str(out), "--compare"],
        outputs=[str(out / f) for f in ("report.csv", "report.json", "thresholds.csv", "compare.csv")],
        stats=stats,
        n_items=n,
    )


def build_schema_level(inp: Path, out: Path, seed: int, scale: float) -> Inputs:
    rng = _rng(seed, 3)
    n = _scaled(20_000, scale, 200)
    n_schemas = _scaled(1_000, scale, 10)
    data = inp / "records.jsonl"
    sizes = skewed_sizes(rng, n, n_schemas, 1.0)
    stats = _records_file(data, rng, sizes, (1, 8), full=False)
    stats["schemas_min10"] = int(np.sum(sizes >= 10))
    return Inputs(
        argv=["evaluate", "--input", str(data), "--scope", "schema_level", "--binning",
              "monotonic", "--seed", str(seed), "--out-dir", str(out)],
        outputs=[str(out / f) for f in ("schemas.csv", "thresholds.csv")],
        stats=stats,
        n_items=n,
    )


# --- label_exec: SQLite files and gold/predicted pairs with known labels ---

PERM_COLS = 5  # same-fingerprint columns in the permutation worst case: 5! = 120 candidates


def _build_db(path: Path, rng: np.random.Generator, n_items: int, n_orders: int,
              n_perm: int) -> dict:
    """Write one database and return the facts the pair templates draw from."""
    path.parent.mkdir(parents=True, exist_ok=True)
    cats = [f"cat{j}" for j in range(12)]
    items = [
        (i, cats[int(rng.integers(len(cats)))], round(float(rng.uniform(1, 500)), 2),
         int(rng.integers(1, 60)), int(rng.integers(0, 25)))
        for i in range(1, n_items + 1)
    ]
    orders = [
        (i, int(rng.integers(1, n_items + 1)), round(float(rng.uniform(0, 900)), 2),
         int(rng.integers(0, 100)), ("north", "south", "east", "west")[int(rng.integers(4))])
        for i in range(1, n_orders + 1)
    ]
    # perm_a: every column is a permutation of 0..n_perm-1, and row 0 is all
    # zeros. perm_b reshuffles each column independently and has no constant
    # row, so the column multisets agree but no column order matches.
    cols_a = [rng.permutation(np.arange(1, n_perm)) for _ in range(PERM_COLS)]
    perm_a = [(0,) * PERM_COLS] + [tuple(int(c[r]) for c in cols_a) for r in range(n_perm - 1)]
    while True:
        cols_b = [rng.permutation(n_perm) for _ in range(PERM_COLS)]
        perm_b = [tuple(int(c[r]) for c in cols_b) for r in range(n_perm)]
        if not any(len(set(row)) == 1 for row in perm_b):
            break
    perm_cols = ", ".join(f"c{j} INTEGER" for j in range(PERM_COLS))
    marks = ", ".join("?" * PERM_COLS)
    with sqlite3.connect(path) as conn:
        conn.execute("CREATE TABLE items (id INTEGER PRIMARY KEY, cat TEXT, price REAL, "
                     "qty INTEGER, grp INTEGER)")
        conn.execute("CREATE TABLE orders (id INTEGER PRIMARY KEY, item_id INTEGER, "
                     "amount REAL, day INTEGER, region TEXT)")
        conn.execute(f"CREATE TABLE perm_a ({perm_cols})")
        conn.execute(f"CREATE TABLE perm_b ({perm_cols})")
        conn.executemany("INSERT INTO items VALUES (?, ?, ?, ?, ?)", items)
        conn.executemany("INSERT INTO orders VALUES (?, ?, ?, ?, ?)", orders)
        conn.executemany(f"INSERT INTO perm_a VALUES ({marks})", perm_a)
        conn.executemany(f"INSERT INTO perm_b VALUES ({marks})", perm_b)
    conn.close()
    return {
        "qtys": sorted({row[3] for row in items}),
        "days": sorted({row[3] for row in orders}),
    }


def _pair_templates(facts: dict, rng: np.random.Generator) -> list[tuple[str, str, str, int]]:
    """(kind, gold, pred, label) for every template, labels known from the
    query semantics alone."""
    q = int(rng.choice(facts["qtys"][1:-1]))
    d1, d2 = (int(x) for x in rng.choice(facts["days"], 2, replace=False))
    base = f"SELECT id, cat, price FROM items WHERE qty > {q}"
    join = ("SELECT o.id, i.cat, o.amount FROM orders o JOIN items i ON o.item_id = i.id "
            "WHERE o.day = {d}")
    cols = ", ".join(f"c{j}" for j in range(PERM_COLS))
    return [
        ("same", base, base, 1),
        ("column_order", base, f"SELECT price, id, cat FROM items WHERE qty > {q}", 1),
        ("row_order", base + " ORDER BY id", base + " ORDER BY price DESC, id", 1),
        # qty = q exists, so >= returns strictly more rows than >
        ("off_by_one", base, f"SELECT id, cat, price FROM items WHERE qty >= {q}", 0),
        ("pred_error", base, f"SELECT id, cat, price FROM items WHERE qtty > {q}", 0),
        ("group_by", "SELECT grp, COUNT(*), SUM(qty) FROM items GROUP BY grp",
         "SELECT SUM(qty), grp, COUNT(id) FROM items GROUP BY grp ORDER BY grp DESC", 1),
        # there are more items than groups and qty >= 1, so some group has SUM > MAX
        ("group_by_wrong", "SELECT grp, COUNT(*), SUM(qty) FROM items GROUP BY grp",
         "SELECT grp, COUNT(*), MAX(qty) FROM items GROUP BY grp", 0),
        ("join", join.format(d=d1),
         "SELECT i.cat, o.amount, o.id FROM items i JOIN orders o ON i.id = o.item_id "
         f"WHERE o.day = {d1}", 1),
        # order ids are unique and both days have orders, so the id sets differ
        ("join_wrong", join.format(d=d1), join.format(d=d2), 0),
        ("permutation", f"SELECT {cols} FROM perm_a", f"SELECT {cols} FROM perm_b", 0),
    ]


# Percent of pairs per template. Counts are fixed rather than drawn, so the
# mix, and with it the work, does not change with the seed.
PAIR_SHARES = {
    "same": 16, "column_order": 14, "row_order": 10, "off_by_one": 14, "pred_error": 10,
    "group_by": 8, "group_by_wrong": 6, "join": 10, "join_wrong": 10, "permutation": 2,
}


def build_label_exec(inp: Path, out: Path, seed: int, scale: float) -> Inputs:
    rng = _rng(seed, 4)
    n_pairs = _scaled(200, scale, 30)
    n_items, n_orders, n_perm = _scaled(2_000, scale, 40), _scaled(8_000, scale, 80), 100
    db_root = inp / "dbs"
    schemas = ["shop", "depot", "market"]
    facts = {s: _build_db(db_root / s / f"{s}.sqlite", rng, n_items, n_orders, n_perm)
             for s in schemas}
    kind_counts = {k: n_pairs * share // 100 for k, share in PAIR_SHARES.items()}
    kind_counts["same"] += n_pairs - sum(kind_counts.values())
    kinds = [k for k, n in kind_counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    pairs_path = inp / "pairs.jsonl"
    expected: dict[str, int] = {}
    with pairs_path.open("w", encoding="utf-8") as fh:
        for i, kind in enumerate(kinds):
            schema = schemas[int(rng.integers(len(schemas)))]
            templates = {t[0]: t for t in _pair_templates(facts[schema], rng)}
            _, gold, pred, label = templates[kind]
            pid = f"p{i:05d}"
            expected[pid] = label
            probs = token_probs(rng, int(rng.integers(5, 40)))
            fh.write(json.dumps({"id": pid, "schema_id": schema, "gold_sql": gold,
                                 "pred_sql": pred, "question": f"pair {i} ({kind})",
                                 "token_probs": probs.tolist()}) + "\n")
    labeled = out / "labeled.jsonl"
    stats = {"pairs": n_pairs, "schemas": len(schemas), "expected_matches": sum(expected.values())}
    stats.update({f"kind_{k}": v for k, v in kind_counts.items()})
    return Inputs(
        argv=["label", "--pairs", str(pairs_path), "--db-root", str(db_root), "--out", str(labeled)],
        outputs=[str(labeled)],
        stats=stats,
        n_items=n_pairs,
        expected_labels=expected,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("score_long", "long token lists with every optional field: JSONL load and "
                 "pooled scoring do the work; no calibration runs", build_score_long),
        Workload("cv_compare", "schema-disjoint 5-fold evaluation of all four pooling methods: "
                 "per-record calibrator apply, fold loops and uniform-bin ECE dominate",
                 build_cv_compare),
        Workload("schema_level", "per-schema calibration over ~1,000 skewed schemas: thousands of "
                 "small fits and monotonic partitions, where per-call overhead shows",
                 build_schema_level),
        Workload("label_exec", "execution-match labeling on SQLite files: the only workload that "
                 "reaches execmatch and records.write_dataset", build_label_exec),
    )
}
