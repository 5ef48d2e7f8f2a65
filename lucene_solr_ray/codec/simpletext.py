"""SimpleText postings — the ``lucene/codecs/simpletext`` debug codec.

``SimpleTextFieldsWriter.java`` serializes a segment's postings as
plain text ("FOR RECREATIONAL USE ONLY", the reference warns): one
indented line per field/term/doc/freq/pos, terminated by ``END``.  Its
purpose is debuggability — a human can read the exact index content,
and tests can diff two indexes textually.

Restated here over the engine's binary index: :func:`write_simpletext`
streams every unique term's postings (and positions when the index
stores them) through the reference's exact line grammar;
:func:`read_simpletext` parses it back.  The round-trip test asserts
the parsed postings are bit-identical to the binary reader's — i.e.
the text file is a faithful, human-readable image of the real index,
exactly the debugging contract of the reference codec.

Format (SimpleTextFieldsWriter constants, one datum per line)::

    field text
      term apple
        doc 3
          freq 2
          pos 7
          pos 12
    END
"""

from __future__ import annotations

import numpy as np

END = "END"
FIELD = "field "
TERM = "  term "
DOC = "    doc "
FREQ = "      freq "
POS = "      pos "


def write_simpletext(reader, out_path: str, *, field: str = "text",
                     positions: bool | None = None) -> int:
    """Dump a reader's postings to the SimpleText grammar; returns the
    number of terms written.  ``positions=None`` writes positions when
    the index stores them (``reader.has_positions``)."""
    terms = reader.unique_terms()
    has_pos = reader.has_positions if positions is None else positions
    n = 0
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(FIELD + field + "\n")
        for t in terms.tolist():
            if has_pos:
                docs, tfs, flat = reader.postings_with_positions(t)
                offs = np.concatenate(([0], np.cumsum(tfs)))
            else:
                docs, tfs = reader.postings(t)
                offs = flat = None
            f.write(TERM + t + "\n")
            for i, (d, tf) in enumerate(zip(docs.tolist(), tfs.tolist())):
                f.write(DOC + str(d) + "\n")
                f.write(FREQ + str(tf) + "\n")
                if flat is not None:
                    deltas = flat[offs[i]:offs[i + 1]].astype(np.int64)
                    for p in np.cumsum(deltas).tolist():
                        f.write(POS + str(p) + "\n")
            n += 1
        f.write(END + "\n")
    return n


def read_simpletext(path: str) -> dict:
    """Parse back into {field: {term: (docs, tfs, positions|None)}} with
    numpy arrays matching the binary reader's dtypes."""
    out: dict[str, dict] = {}
    field = term = None
    docs: list[int] = []
    tfs: list[int] = []
    pos: list[list[int]] = []

    def flush_term():
        nonlocal docs, tfs, pos
        if field is not None and term is not None:
            has_pos = any(p for p in pos)
            out[field][term] = (
                np.asarray(docs, np.int64),
                np.asarray(tfs, np.int32),
                [np.asarray(p, np.int64) for p in pos] if has_pos
                else None,
            )
        docs, tfs, pos = [], [], []

    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line == END:
                break
            if line.startswith(FIELD):
                flush_term()
                term = None
                field = line[len(FIELD):]
                out.setdefault(field, {})
            elif line.startswith(TERM):
                flush_term()
                term = line[len(TERM):]
            elif line.startswith(DOC):
                docs.append(int(line[len(DOC):]))
                tfs.append(0)
                pos.append([])
            elif line.startswith(FREQ):
                tfs[-1] = int(line[len(FREQ):])
            elif line.startswith(POS):
                pos[-1].append(int(line[len(POS):]))
            else:
                raise ValueError(f"unparseable SimpleText line: {line!r}")
        flush_term()
    return out
