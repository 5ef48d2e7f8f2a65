"""Seeded benchmark inputs: corpus Parquet, query streams, upsert batches.

Everything here is a pure function of the workload seed (and, for query
streams, of the index built from the seeded corpus), so one seed always
gives one set of inputs. The program under test only ever receives these
generated files, query strings and tables.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# plan_partitions slices a corpus file on Parquet row groups; 1,000 rows
# is also the generator's deterministic chunk size
ROW_GROUP_ROWS = 1000

# Query shapes; "or" shapes are the ones block-max pruning applies to.
# The mix is an assumption, not a measured log: free text parses to OR in
# the classic query parser, so OR shapes get 65% of queries, split between
# a head+torso pair, a lone tail term and a head+tail pair; the required
# (+a +b) and excluded (+a -b) shapes share the rest.
CLASSES = ("or_head", "tail", "and", "not", "head_tail")
OR_CLASSES = ("or_head", "tail", "head_tail")
CLASS_WEIGHTS = np.array([0.30, 0.20, 0.20, 0.15, 0.15])

# Zipf exponent of the serve stream's query popularity. An assumption:
# query-term popularity is Zipf-skewed (the streaming top-k term-query
# literature assumes so), and an exponent just above 1 puts a few queries
# far ahead of the rest. serve reports the repeat share it produces.
ZIPF_S = 1.1

# identifiers and numbers: no query-syntax characters
_PLAIN_TERM = re.compile(r"^[a-z0-9][a-z0-9_.]*[a-z0-9]$")


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per named input stream of one seed."""
    tag = int.from_bytes(stream.encode()[:8].ljust(8, b"\0"), "little")
    return np.random.default_rng([seed, tag])


# The document population is fixed: the workload seed orders it and draws
# the queries and upserts, so a run's cost depends on the seed only through
# what the seed is meant to vary. generate_table's vocabulary changes with
# its own seed, which would move every metric by several percent per seed.
CORPUS_SEED = 7
SPARE_DOCS = 500         # documents upserts take their content from


def write_corpus(path: str, num_docs: int,
                 seed: int) -> tuple[pa.Table, pa.Table]:
    """Generate the corpus driver-side, in a seeded order, and write it
    as one Parquet file in 1,000-row row groups. Returns the corpus and
    the spare documents of the same population, also in seeded order."""
    from lucene_solr_ray.sources.codegen import generate_table

    docs = generate_table(num_docs + SPARE_DOCS, seed=CORPUS_SEED)
    rng = rng_for(seed, "corpus")
    corpus = docs.slice(0, num_docs).take(rng.permutation(num_docs))
    spare = docs.slice(num_docs).take(rng.permutation(SPARE_DOCS))
    pq.write_table(corpus, path, row_group_size=ROW_GROUP_ROWS)
    return corpus, spare


def content_bytes(tbl: pa.Table) -> int:
    """UTF-8 bytes of the text field."""
    return int(pc.sum(pc.binary_length(tbl["content"])).as_py())


def term_bands(reader, num_docs: int, analyzer) -> dict[str, np.ndarray]:
    """Split the index's term dictionary into document-frequency bands.

    head: df >= 2% of docs; torso: 0.1%..2% (at least 3 docs); tail: df 2
    up to torso. Only identifier and number terms that the analyzer maps
    back to themselves are kept, so every query string parses to exactly
    the terms drawn.
    """
    terms = reader.unique_terms()
    plain = [t for t in terms.tolist() if _PLAIN_TERM.match(t)]
    toks, doc_idx, _ = analyzer.tokens_batch(plain)
    counts = np.bincount(doc_idx, minlength=len(plain))
    first = np.searchsorted(doc_idx, np.arange(len(plain)))
    keep = [t for i, t in enumerate(plain)
            if counts[i] == 1 and toks[first[i]] == t]
    dfs = reader.doc_freqs(keep)
    df = np.array([dfs[t] for t in keep], np.int64)
    keep = np.array(keep, dtype=object)
    head_lo = max(10, num_docs // 50)
    torso_lo = max(3, num_docs // 1000)
    bands = {
        "head": keep[df >= head_lo],
        "torso": keep[(df >= torso_lo) & (df < head_lo)],
        "tail": keep[(df >= 2) & (df < torso_lo)],
    }
    for name, arr in bands.items():
        if arr.size < 8:
            raise RuntimeError(f"term band {name!r} has only {arr.size} "
                               "terms; the corpus is too small")
    return bands


class QueryGen:
    """Query strings by shape, drawn from df bands."""

    def __init__(self, bands: dict[str, np.ndarray],
                 rng: np.random.Generator):
        self.b = bands
        self.rng = rng

    def _pick(self, band: str) -> str:
        arr = self.b[band]
        return arr[int(self.rng.integers(arr.size))]

    def make(self, cls: str) -> str:
        p = self._pick
        if cls == "or_head":
            return f"{p('head')} {p('torso')}"
        if cls == "tail":
            return p("tail")
        if cls == "and":
            return f"+{p('head')} +{p('torso')}"
        if cls == "not":
            return f"+{p('head')} -{p('head')}"
        if cls == "head_tail":
            return f"{p('head')} {p('tail')}"
        raise ValueError(cls)

    def unique(self, n: int, classes=CLASSES, weights=None,
               seen: set | None = None) -> list[tuple[str, str]]:
        """``n`` (class, text) pairs, no text repeated (nor in ``seen``)."""
        seen = set() if seen is None else seen
        w = CLASS_WEIGHTS if weights is None else weights
        w = np.asarray(w, np.float64) / np.sum(w)
        out = []
        tries = 0
        while len(out) < n:
            tries += 1
            if tries > 50 * n + 1000:
                raise RuntimeError("query space exhausted")
            cls = classes[int(self.rng.choice(len(classes), p=w))]
            text = self.make(cls)
            if text in seen:
                continue
            seen.add(text)
            out.append((cls, text))
        return out


def zipf_stream(pool_size: int, n: int,
                rng: np.random.Generator) -> np.ndarray:
    """Indices into a query pool, rank r drawn with weight r**-ZIPF_S."""
    p = np.arange(1, pool_size + 1, dtype=np.float64) ** -ZIPF_S
    return rng.choice(pool_size, size=n, p=p / p.sum())


class UpsertGen:
    """Upsert batches keyed by ``path``: half rewrite files already in
    the index, half add new files (an assumption that gives the delete
    path and the append path equal work). Every version of a file carries
    the marker term ``nrtp<file id>``, so a marker query must return
    exactly the file's live version."""

    def __init__(self, corpus: pa.Table, spare: pa.Table, seed: int,
                 batch_docs: int):
        self.rng = rng_for(seed, "upserts")
        self.batch_docs = batch_docs
        self.pool = spare
        self._corpus_paths = corpus["path"].to_pylist()
        self._pool_next = 0
        self.reset()

    def reset(self) -> None:
        """Back to the corpus as first indexed, before any upsert; the
        random stream and the content pool go on where they were."""
        self.paths = list(self._corpus_paths)  # file id -> path
        # file id -> live doc id; the corpus is one file, so doc id = row
        self.live = {i: i for i in range(len(self.paths))}
        self.max_doc = len(self.paths)

    @staticmethod
    def marker(fid: int) -> str:
        return f"nrtp{fid}"

    def next_batch(self) -> tuple[pa.Table, list[int], list[int]]:
        """(table, file ids in row order, replaced doc ids)."""
        n_old = self.batch_docs // 2
        ids = self.rng.choice(len(self.paths), size=n_old, replace=False)
        fids = [int(i) for i in ids]
        for _ in range(self.batch_docs - n_old):
            fids.append(len(self.paths))
            self.paths.append(f"src/nrt/file{len(self.paths)}.py")
        rows = (np.arange(self._pool_next, self._pool_next + len(fids))
                % self.pool.num_rows)
        self._pool_next += len(fids)
        base = self.pool.take(pa.array(rows))
        content = [f"{c}\n# {self.marker(f)}"
                   for c, f in zip(base["content"].to_pylist(), fids)]
        tbl = pa.table({
            "repo": base["repo"],
            "path": pa.array([self.paths[f] for f in fids], pa.string()),
            "commit": base["commit"],
            "lang": base["lang"],
            "content": pa.array(content, pa.string()),
        })
        replaced = [self.live[f] for f in fids if f in self.live]
        return tbl, fids, replaced

    def published(self, fids: list[int]) -> list[int]:
        """Record a publish; returns the new doc id of each row."""
        new_ids = list(range(self.max_doc, self.max_doc + len(fids)))
        for f, d in zip(fids, new_ids):
            self.live[f] = d
        self.max_doc += len(fids)
        return new_ids
