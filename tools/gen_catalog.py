"""Regenerate the bundled witness catalog (src/edlkit/data/witnesses/*.json).

Coefficients are kept exactly as published (4 decimals, overall 1/2^n scale
applied here); the subset family is computed from the term supports. Run from
the repository root after any transcription fix:

    python3 tools/gen_catalog.py
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from edlkit.measure import parse_operator  # noqa: E402
from edlkit.witness import ObservableExpr, Witness, support  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "edlkit" / "data" / "witnesses"

# (state, id, alpha, p_noise, [(coefficient, [factor strings])]); the identity
# term (always +1) is implied. Coefficients are pre-division by 2^n.
CATALOG = [
    ("W3", 1, -0.0285, 0.1859, [
        (-0.1748, ["Z1", "Z3"]),
        (-0.415, ["Z2"]),
        (-0.3426, ["X1X2", "Y1Y2", "X2X3", "Y2Y3"]),
        (+0.0898, ["Z1Z2", "Z2Z3"]),
    ]),
    ("W3", 2, -0.0546, 0.3039, [
        (-0.2516, ["Z1", "Z2", "Z3"]),
        (-0.2377, ["X1X2", "Y1Y2", "X2X3", "Y2Y3", "X1X3", "Y1Y3"]),
        (+0.2342, ["Z1Z2", "Z2Z3", "Z1Z3"]),
    ]),
    ("W4", 1, -0.0047, 0.0696, [
        (-0.2515, ["Z2", "Z3"]),
        (-0.1341, ["Z1", "Z4"]),
        (-0.2176, ["X1X2", "Y1Y2", "X3X4", "Y3Y4"]),
        (-0.2542, ["X2X3", "Y2Y3"]),
        (-0.0052, ["Z1Z2", "Z3Z4"]),
        (-0.0885, ["Z2Z3"]),
    ]),
    ("W4", 2, -0.0070, 0.1001, [
        (-0.4166, ["Z2"]),
        (-0.1428, ["Z1"]),
        (-0.1782, ["Z3", "Z4"]),
        (-0.2788, ["X1X2", "Y1Y2"]),
        (-0.0104, ["Z1Z2"]),
        (-0.1561, ["X2X3", "Y2Y3", "X2X4", "Y2Y4"]),
        (+0.0429, ["Z2Z3", "Z2Z4"]),
        (-0.0623, ["X3X4", "Y3Y4"]),
        (+0.061, ["Z3Z4"]),
    ]),
    ("W4", 3, -0.0090, 0.1261, [
        (-0.2626, ["Z1", "Z2", "Z3", "Z4"]),
        (-0.1548, ["X1X2", "Y1Y2", "X2X3", "Y2Y3", "X3X4", "Y3Y4", "X1X4", "Y1Y4"]),
        (+0.078, ["Z1Z2", "Z2Z3", "Z3Z4", "Z1Z4"]),
    ]),
    ("W4", 4, -0.0095, 0.1319, [
        (-0.303, ["Z2", "Z4"]),
        (-0.219, ["Z1", "Z3"]),
        (-0.1634, ["X1X2", "Y1Y2", "X2X3", "Y2Y3", "X3X4", "Y3Y4", "X1X4", "Y1Y4"]),
        (+0.0503, ["Z1Z2", "Z2Z3", "Z3Z4", "Z1Z4"]),
        (+0.0238, ["X2X4", "Y2Y4"]),
        (+0.1544, ["Z2Z4"]),
    ]),
    ("W4", 5, -0.0114, 0.1541, [
        (-0.2801, ["Z1", "Z2", "Z3", "Z4"]),
        (-0.1037, ["X1X2", "Y1Y2", "X2X3", "Y2Y3", "X3X4", "Y3Y4",
                   "X1X4", "Y1Y4", "X1X3", "Y1Y3", "X2X4", "Y2Y4"]),
        (+0.0919, ["Z1Z2", "Z2Z3", "Z3Z4", "Z1Z4", "Z1Z3", "Z2Z4"]),
    ]),
    ("D4", 1, -0.0065, 0.0946, [
        (-0.13, ["X1X2", "Y1Y2", "X3X4", "Y3Y4"]),
        (-0.5659, ["X2X3", "Y2Y3"]),
        (+0.1838, ["Z1Z2", "Z3Z4"]),
        (-0.3579, ["Z2Z3"]),
    ]),
    ("D4", 2, -0.0093, 0.1293, [
        (-0.2711, ["X1X2", "Y1Y2", "X1X3", "Y1Y3", "X1X4", "Y1Y4"]),
        (+0.0641, ["Z1Z2", "Z1Z3", "Z1Z4"]),
    ]),
    ("D4", 3, -0.0117, 0.1577, [
        (-0.216, ["X1X2", "Y1Y2", "X2X3", "Y2Y3", "X3X4", "Y3Y4", "X1X4", "Y1Y4"]),
        (+0.0266, ["Z1Z2", "Z2Z3", "Z3Z4", "Z1Z4"]),
    ]),
    ("D4", 4, -0.0199, 0.2413, [
        (-0.1287, ["X1X2", "Y1Y2", "X2X3", "Y2Y3", "X3X4", "Y3Y4", "X1X4", "Y1Y4"]),
        (+0.2403, ["Z1Z2", "Z2Z3", "Z3Z4", "Z1Z4"]),
        (-0.1551, ["X2X4", "Y2Y4"]),
        (+0.3132, ["Z2Z4"]),
    ]),
    ("D4", 5, -0.0285, 0.3131, [
        (-0.1228, ["X1X2", "Y1Y2", "X2X3", "Y2Y3", "X3X4", "Y3Y4",
                   "X1X4", "Y1Y4", "X1X3", "Y1Y3", "X2X4", "Y2Y4"]),
        (+0.2368, ["Z1Z2", "Z2Z3", "Z3Z4", "Z1Z4", "Z1Z3", "Z2Z4"]),
    ]),
    ("C4", 1, -0.0156, 0.2, [
        (-0.25, ["X1X2Z4", "Z3Z4", "Z1X3X4"]),
        (+0.25, ["Y1Y2Z4", "Z1Y3Y4"]),
    ]),
    ("C4", 2, -0.0312, 1 / 3, [
        (-0.25, ["X1X2Z4", "Z1Z2", "Z3Z4", "Z1X3X4"]),
        (+0.25, ["Y1Y2Z4", "Z1Y3Y4"]),
    ]),
    ("C4", 3, -0.0417, 0.4, [
        (+0.1153, ["Z1Z2"]),
        (-0.218, ["Z3Z4"]),
        (+0.2243, ["Z1Y3Y4", "Z2Y3Y4"]),
        (-0.2243, ["Z1X3X4", "Z2X3X4"]),
        (+0.3333, ["Y1Y2Z4"]),
        (-0.3333, ["X1X2Z4"]),
    ]),
    ("C4", 4, -0.0625, 0.5, [
        (+0.0942, ["Z1Z2", "Z3Z4"]),
        (+0.2736, ["Y1Y2Z3", "Y1Y2Z4", "Z1Y3Y4", "Z2Y3Y4"]),
        (-0.2736, ["X1X2Z3", "X1X2Z4", "Z1X3X4", "Z2X3X4"]),
    ]),
]


def build(state: str, num: int, alpha: float, p: float, rows) -> Witness:
    n = int(state[-1])
    terms = {"I" * n: 1.0 / 2**n}
    for coeff, factors in rows:
        for f in factors:
            (word,) = parse_operator(f, n).expr().terms
            assert word not in terms, (state, num, word)
            terms[word] = coeff / 2**n
    expr = ObservableExpr(n, terms)
    return Witness(
        expr=expr,
        family=support(expr),
        label=f"{state}-{num}",
        alpha=alpha,
        p_noise=p,
    )


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for state, num, alpha, p, rows in CATALOG:
        w = build(state, num, alpha, p, rows)
        path = OUT / f"{w.label}.json"
        w.save(path)
        fam = ",".join("".join(map(str, sorted(s))) for s in w.family)
        print(f"wrote {path.name}: {len(w.expr)} terms, family {{{fam}}}")


if __name__ == "__main__":
    main()
