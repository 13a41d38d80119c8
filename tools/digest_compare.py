"""Compare two solver digests (``tools/solver_digest.py``) by value.

    python3 tools/digest_compare.py old.txt new.txt

Lines are matched by their label, the text before the first ": ". For each
label one line is printed: "identical" when the two lines are byte-identical,
else what differs:

- synth and edl lines: the step delta, |delta alpha| and |delta gap|, and
  whether the certificate hash and the reduced sizes changed;
- margins lines: the largest |delta| over every (achieved, bound) margin
  (an infinite bound on one side only counts as inf), and the sizes;
- verify lines: whether the verdict (None or a certificate) changed, and
  whether the certificate hash did;
- count lines (Newton steps and systems): the delta of each count;
- any other line (the sweep-sim operations): "differs".

A label found in one digest only is printed as "only in old" or "only in
new". The summary at the end gives the largest |delta alpha| and |delta
margin|, the lines whose step counts or verdicts differ, and how many lines
of each kind are not byte-identical.
"""

from __future__ import annotations

import sys


def read(path: str) -> dict[str, str]:
    """Label -> rest of the line, in file order."""
    lines = {}
    with open(path) as f:
        for line in f:
            label, _, rest = line.rstrip("\n").partition(": ")
            lines[label] = rest
    return lines


def number(text: str) -> float:
    return float(text.removeprefix("np.float64(").removesuffix(")"))


def delta(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b)


def fields(rest: str) -> dict[str, str]:
    """The key=value tokens of a line."""
    return dict(tok.split("=", 1) for tok in rest.split() if "=" in tok)


def margins(rest: str) -> dict[str, tuple[float, float]]:
    pairs = {}
    for tok in rest.split():
        if ":" in tok:
            part, values = tok.split(":", 1)
            achieved, bound = values.split(",")
            pairs[part] = (number(achieved), number(bound))
    return pairs


def sizes(rest: str) -> str:
    keys = ("coords", "blocks", "orbits")
    return " ".join(tok for tok in rest.split() if tok.split("=")[0] in keys)


def counts(rest: str) -> dict[str, int]:
    """The "name N" pairs of a count line."""
    out = {}
    for item in rest.split(", "):
        name, _, value = item.rpartition(" ")
        out[name] = int(value)
    return out


def compare(label: str, old: str, new: str, summary: dict) -> str:
    kind = label.split()[0]
    if kind in ("synth", "edl"):
        a, b = fields(old), fields(new)
        steps = int(b["steps"]) - int(a["steps"])
        d_alpha = delta(float(a["alpha"]), float(b["alpha"]))
        summary["alpha"] = max(summary["alpha"], d_alpha)
        if steps:
            summary["steps"].append(label)
        return (f"steps {steps:+d}, |d alpha| {d_alpha:.3g}, "
                f"|d gap| {delta(float(a['gap']), float(b['gap'])):.3g}, "
                f"cert {'same' if a['cert'] == b['cert'] else 'differs'}, "
                f"sizes {'same' if sizes(old) == sizes(new) else 'differ'}")
    if kind == "margins":
        a, b = margins(old), margins(new)
        if a.keys() != b.keys():
            summary["steps"].append(label)
            return "bipartitions differ"
        d_margin = max(delta(x, y) for part in a for x, y in zip(a[part], b[part]))
        summary["margin"] = max(summary["margin"], d_margin)
        same = sizes(old) == sizes(new)
        return f"|d margin| {d_margin:.3g}, sizes {'same' if same else 'differ'}"
    if kind == "verify":
        if (old == "None") != (new == "None"):
            summary["verdicts"].append(label)
            return f"VERDICT {old[:12]} -> {new[:12]}"
        return "verdict same, certificate hash differs"
    if label.endswith(("newton steps", "newton systems")):
        a, b = counts(old), counts(new)
        if a.keys() != b.keys():
            return "differs"
        return ", ".join(f"{name} {b[name] - a[name]:+d}" for name in a)
    return "differs"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = read(argv[1]), read(argv[2])
    summary = {"alpha": 0.0, "margin": 0.0, "steps": [], "verdicts": []}
    changed: dict[str, int] = {}
    for label in list(old) + [label for label in new if label not in old]:
        if label not in new or label not in old:
            print(f"{label}: only in {'old' if label in old else 'new'}")
            continue
        if old[label] == new[label]:
            print(f"{label}: identical")
            continue
        kind = label.split()[0]
        changed[kind] = changed.get(kind, 0) + 1
        print(f"{label}: {compare(label, old[label], new[label], summary)}")
    print(f"largest |d alpha| {summary['alpha']:.3g}, largest |d margin| {summary['margin']:.3g}")
    print(f"step counts differ: {', '.join(summary['steps']) or 'none'}")
    print(f"verdicts differ: {', '.join(summary['verdicts']) or 'none'}")
    print("lines not byte-identical: "
          + (", ".join(f"{kind} {n}" for kind, n in changed.items()) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
