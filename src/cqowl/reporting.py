"""CSV and Markdown table emission.

Every analysis emits plain files so results stay diffable; no timestamps
go into data files (run metadata lives in a separate manifest written by
the CLI).
"""
from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Iterable, Sequence

from .records import Factory, Record


class Table(Record):
    name: str
    columns: list[str]
    rows: list[list[str]] = Factory(list)

    @classmethod
    def of(cls, name: str, columns: list[str], rows: Iterable[Sequence]) -> Table:
        """The table of ``rows``, each value made a cell and each row's width checked."""
        width = len(columns)
        cells = []
        for row in rows:
            if len(row) != width:
                raise ValueError(f"table {name}: expected {width} values, got {len(row)}")
            cells.append([_cell(v) for v in row])
        return cls(name, columns, cells)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_markdown(self) -> str:
        # a '|' inside a cell would start a new column, a line ending (CR LF,
        # CR or LF) a new row
        cells = [[c.replace("|", "\\|").replace("\r\n", " ").replace("\r", " ")
                  .replace("\n", " ") for c in row]
                 for row in [self.columns, *self.rows]]
        widths = [max(map(len, column)) for column in zip(*cells)]
        def line(row):
            return "| " + " | ".join(
                c.ljust(w) for c, w in zip(row, widths)
            ) + " |"
        out = [line(cells[0]),
               "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
        out.extend(line(r) for r in cells[1:])
        return "\n".join(out) + "\n"

    def write(self, out_dir: Path, formats: Sequence[str]) -> list[Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for fmt in formats:
            target = out_dir / f"{self.name}.{fmt}"
            write_text(target, FORMATS[fmt](self))
            written.append(target)
        return written


# report format -> renderer of ``<name>.<format>``; the one list of the formats
FORMATS = {"csv": Table.to_csv, "md": Table.to_markdown}


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, frozenset) or isinstance(value, set):
        return ", ".join(sorted(value))
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def write_jsonl(path: Path, records: Iterable[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # one encoder for the file: json.dumps with options builds one per record
    lines = list(map(json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode, records))
    write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def write_text(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 to a new file at ``path``.

    An old file there is unlinked, not truncated: rewriting a truncated file
    made the filesystem flush its old blocks first (on ext4, reruns of
    ``report`` into the same ``--out`` took seconds instead of a tenth of
    one), and a hard link or symlink at ``path`` keeps what it pointed to.
    """
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8")
