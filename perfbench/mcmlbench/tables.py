"""Rendered-table normalisation, masking and the correctness tally.

The drivers render monospace tables: a title line, a header line, a line
of dashes, then one line per row, with columns at least two spaces apart.
:func:`normalise` turns such a text into one ``|``-joined line per row, so
that column widths (which move when one cell grows) do not matter, and
replaces the cells of masked columns with ``*``.  ``Time[s]`` is always
masked: Tables 3, 5, 6, 7 and 8 print elapsed seconds, which differ from
run to run while every other cell must not.
"""

from __future__ import annotations

import hashlib
import re

TIME_COLUMN = "Time[s]"
_COLUMN_GAP = re.compile(r"\s{2,}")

#: Columns whose values depend on ``--seed``, per artifact.  With them
#: masked as well, every seed must reproduce the seed-0 reference: the
#: row set, the exact counts and the closed forms do not depend on it.
SEEDED_COLUMNS = {
    "table1": ("Est-SymBr(approx)", "Est-NoSymBr(approx)"),
    "table2": ("Accuracy", "Precision", "Recall", "F1-score"),
    **{
        f"table{n}": (
            "Acc(Test)", "Prec(Test)", "Rec(Test)", "F1(Test)",
            "Acc(phi)", "Prec(phi)", "Rec(phi)", "F1(phi)",
        )
        for n in (3, 5, 6, 7)
    },
    "table8": ("TT", "TF", "FT", "FF", "Diff[%]"),
    "table9": ("Traditional Precision", "MCML Precision"),
}


def _cells(line: str) -> list[str]:
    return _COLUMN_GAP.split(line.strip())


def normalise(text: str, masked: tuple[str, ...] = ()) -> str:
    """``text`` with column padding removed and masked columns starred.

    Lines outside a table (titles, free text) are kept verbatim.  A table
    whose rows do not split into as many cells as its header is kept
    verbatim too, so a malformed rendering can never compare equal to a
    well-formed one.
    """
    lines = text.splitlines()
    out: list[str] = []
    index = 0
    while index < len(lines):
        line = lines[index]
        is_header = (
            index + 1 < len(lines)
            and lines[index + 1].strip()
            and set(lines[index + 1].strip()) == {"-"}
        )
        if not is_header:
            out.append(line.rstrip())
            index += 1
            continue
        header = _cells(line)
        hide = {i for i, name in enumerate(header) if name == TIME_COLUMN or name in masked}
        end = index + 2
        while end < len(lines) and lines[end].strip():
            end += 1
        rows = [_cells(row) for row in lines[index + 2:end]]
        if any(len(row) != len(header) for row in rows):
            out.extend(row.rstrip() for row in lines[index:end])
        else:
            out.append("|".join(header))
            for row in rows:
                out.append("|".join("*" if i in hide else cell for i, cell in enumerate(row)))
        index = end
    return "\n".join(out)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def column(text: str, name: str) -> list[str]:
    """The cells of column ``name`` in the (single) table of ``text``."""
    lines = text.splitlines()
    for index in range(len(lines) - 1):
        if lines[index + 1].strip() and set(lines[index + 1].strip()) == {"-"}:
            header = _cells(lines[index])
            if name not in header:
                continue
            position = header.index(name)
            return [
                _cells(row)[position]
                for row in lines[index + 2:]
                if row.strip()
            ]
    raise KeyError(name)


def table1_invariant(text: str) -> bool:
    """Table 1's live exact count equals the closed form on every row."""
    return column(text, "Valid-NoSymBr(exact)") == column(text, "ClosedForm-NoSymBr")


def check_render(artifact: str, seed: int, text: str, reference: dict) -> list[str]:
    """Reasons ``text`` is wrong, empty when it is right.

    ``reference`` holds ``texts`` (the masked seed-0 renderings) and
    ``digests`` (seed → artifact → digest of the masked rendering).  A
    pinned seed must match its digest exactly.  Any seed must match the
    seed-0 text once its seeded columns are masked too.
    """
    problems = []
    pinned = reference.get("digests", {}).get(str(seed), {}).get(artifact)
    if pinned is not None and digest(normalise(text)) != pinned:
        problems.append(f"{artifact}: differs from the pinned seed-{seed} reference")
    base = reference.get("texts", {}).get(artifact)
    if base is None:
        problems.append(f"{artifact}: no seed-0 reference text")
    else:
        seeded = SEEDED_COLUMNS.get(artifact, ())
        if normalise(text, seeded) != normalise(base, seeded):
            problems.append(f"{artifact}: seed-independent cells differ from the reference")
    if artifact == "table1" and not table1_invariant(text):
        problems.append("table1: exact counts differ from the closed forms")
    return problems


def assemble(texts: list[str]) -> str:
    """One table from renderings of the same table over disjoint row sets.

    Each text is a title line, a header line, a line of dashes and rows.
    The result keeps the first text's three head lines and every text's
    rows, in order; the parts' column padding differs, which
    :func:`normalise` ignores.  Parts whose title or header differ from
    the first's raise ``ValueError``.
    """
    head = texts[0].splitlines()[:3]
    rows = []
    for text in texts:
        lines = text.splitlines()
        if lines[0] != head[0] or _cells(lines[1]) != _cells(head[1]):
            raise ValueError("the parts have different titles or headers")
        rows.extend(line for line in lines[3:] if line.strip())
    return "\n".join(head + rows)


def whole_texts(renders) -> dict[str, str | None]:
    """Each artifact's first complete rendering, from a run's renders.

    A render with a ``unit`` (a property name) holds that property's rows
    only; the first successful rendering of every unit, in the order the
    units first appear, is assembled into the whole table.  ``None`` when
    a unit never rendered without raising, or the parts do not assemble.
    """
    parts: dict[str, dict] = {}
    for render in renders:
        by_unit = parts.setdefault(render["artifact"], {})
        if by_unit.get(render.get("unit")) is None:
            by_unit[render.get("unit")] = None if render.get("error") else render["text"]
    out: dict[str, str | None] = {}
    for artifact, by_unit in parts.items():
        texts = list(by_unit.values())
        if None in texts:
            out[artifact] = None
        elif list(by_unit) == [None]:
            out[artifact] = texts[0]
        else:
            try:
                out[artifact] = assemble(texts)
            except (ValueError, IndexError):
                out[artifact] = None
    return out


def tally(renders, seed: int, reference: dict) -> dict:
    """Count failed renderings.

    ``renders`` is a list of ``{"artifact", "unit", "text", "error"}``
    records, every rendering of one benchmark run; ``unit`` is ``None``
    for a rendering over all properties, or the one property it covers.
    Each artifact's first complete rendering (assembled from its units'
    first renderings) is checked with :func:`check_render`; when that
    fails, every rendering of the artifact fails.  A rendering also fails
    when it raised (``error`` set), or when its masked text differs from
    the run's first rendering of the same artifact and unit (a fixed seed
    must render identically every time).
    """
    problems: list[str] = []
    bad: set[str] = set()
    whole = whole_texts(renders)
    for artifact, text in whole.items():
        if text is None:
            bad.add(artifact)
            problems.append(f"{artifact}: no complete rendering to check")
            continue
        found = check_render(artifact, seed, text, reference)
        if found:
            bad.add(artifact)
            problems.extend(found)
    first: dict[tuple, str] = {}
    failed = mismatches = 0
    for render in renders:
        artifact = render["artifact"]
        if render.get("error"):
            failed += 1
            problems.append(f"{artifact}: raised {render['error']}")
            continue
        masked = normalise(render["text"])
        key = (artifact, render.get("unit"))
        first.setdefault(key, masked)
        if artifact in bad or masked != first[key]:
            if masked != first[key]:
                problems.append(f"{artifact}: differs from an earlier rendering in this run")
            failed += 1
            mismatches += 1
    attempted = len(renders)
    return {
        "attempted": attempted,
        "failed": failed,
        "table_mismatches": mismatches,
        "failed_ops_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
        "digests": {
            artifact: digest(normalise(text)) for artifact, text in whole.items() if text is not None
        },
    }
