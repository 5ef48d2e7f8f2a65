"""CLI entry point — the ``ray job submit`` surface.

    ray job submit -- python -m lucene_solr_ray build --input /data/corpus \
        --out /data/index --positions
    python -m lucene_solr_ray merge --index /data/index
    python -m lucene_solr_ray search --index /data/index -q "hashKey +return" -k 10
    python -m lucene_solr_ray gen-corpus --out /tmp/corpus --docs 50000

Owns the Ray session (guarded init; the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="lucene_solr_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build a SPIMI index from parquet")
    b.add_argument("--input", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--text-field", default="content")
    b.add_argument("--analyzer", default="standard")
    b.add_argument("--rows-per-partition", type=int, default=20_000)
    b.add_argument("--positions", action="store_true")
    b.add_argument("--no-merge", action="store_true")

    m = sub.add_parser("merge", help="merge segments into the global index")
    m.add_argument("--index", required=True)
    m.add_argument("--hot-df-threshold", type=int, default=100_000)
    m.add_argument("--salt-group-size", type=int, default=64)

    s = sub.add_parser("search", help="run a query")
    s.add_argument("--index", required=True)
    s.add_argument("-q", "--query", required=True)
    s.add_argument("-k", type=int, default=10)
    s.add_argument("--prune", action="store_true")
    s.add_argument("--shards", type=int, default=0,
                   help="doc-sharded distributed search with N shards")

    c = sub.add_parser("check", help="CheckIndex-style validation")
    c.add_argument("--exorcise", action="store_true",
                   help="quarantine corrupt partitions (LOSES their docs)")
    c.add_argument("--index", required=True)
    c.add_argument("--sample-terms", type=int, default=2000)

    g = sub.add_parser("gen-corpus", help="deterministic synthetic corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--docs", type=int, default=50_000)
    g.add_argument("--seed", type=int, default=42)

    r = sub.add_parser("replicate",
                       help="sync an index to a replica dir by generation")
    r.add_argument("--master", required=True)
    r.add_argument("--replica", required=True)

    u = sub.add_parser("update",
                       help="keyed upsert: delete-then-add from a parquet "
                            "file of changed docs")
    u.add_argument("--index", required=True)
    u.add_argument("--docs", required=True, help="parquet of new/changed rows")
    u.add_argument("--key", required=True, help="unique key column")

    cu = sub.add_parser("curate",
                        help="training-data curation funnel: quality -> "
                             "exact dedup -> near-dup -> tokens -> "
                             "bucketed parquet")
    cu.add_argument("--input", required=True,
                    help="dir containing documents*.parquet")
    cu.add_argument("--out", required=True)
    cu.add_argument("--min-tokens", type=int, default=20)
    cu.add_argument("--jaccard", type=float, default=0.5)

    sp = sub.add_parser("split", help="SPLITSHARD: split an index into "
                                      "N children (shared segments + "
                                      "complementary live-docs)")
    sp.add_argument("--index", required=True)
    sp.add_argument("--out", required=True, nargs="+",
                    help="two or more child dirs")

    bk = sub.add_parser("backup", help="point-in-time snapshot")
    bk.add_argument("--index", required=True)
    bk.add_argument("--to", required=True, help="backup root dir")

    rs = sub.add_parser("restore", help="restore a snapshot")
    rs.add_argument("--snapshot", required=True)
    rs.add_argument("--out", required=True)

    li = sub.add_parser("info", help="Luke-style index introspection")
    li.add_argument("--index", required=True)

    bl = sub.add_parser("bloom", help="build the bloom term-filter "
                                      "sidecar (lucene/codecs/bloom)")
    bl.add_argument("--index", required=True)

    ap = sub.add_parser("autoprefix", help="build the auto-prefix terms "
                                           "sidecar (codecs/autoprefix)")
    ap.add_argument("--index", required=True)
    ap.add_argument("--min-terms", type=int, default=25)
    ap.add_argument("--max-len", type=int, default=3)

    dt = sub.add_parser("dump-simpletext",
                        help="human-readable postings dump "
                             "(codecs/simpletext grammar)")
    dt.add_argument("--index", required=True)
    dt.add_argument("--out", required=True)

    se = sub.add_parser("select", help="Solr-shaped /select request "
                                       "(params as a JSON object)")
    se.add_argument("--index", required=True)
    se.add_argument("--params", required=True,
                    help='e.g. \'{"q": "fast query", "rows": 5}\'')

    args = p.parse_args(argv)

    if args.cmd == "build":
        _ray_session()
        from .index import build_index, merge_index

        man = build_index(
            args.input, args.out, text_field=args.text_field,
            analyzer=args.analyzer,
            rows_per_partition=args.rows_per_partition,
            store_positions=args.positions,
        )
        out = {"max_doc": man.max_doc, "partitions": man.num_partitions,
               "sum_ttf": man.sum_total_term_freq}
        if not args.no_merge:
            merge_index(args.out)
            out["merged"] = True
        print(json.dumps(out))
    elif args.cmd == "curate":
        _ray_session()
        from .pipelines.curation import run_curation

        r = run_curation(args.input, args.out,
                         min_tokens=args.min_tokens,
                         jaccard_threshold=args.jaccard)
        print(json.dumps(r))
    elif args.cmd == "merge":
        _ray_session()
        from .index import merge_index

        merge_index(args.index, hot_df_threshold=args.hot_df_threshold,
                    salt_group_size=args.salt_group_size)
        print(json.dumps({"merged": True}))
    elif args.cmd == "search":
        _ray_session()
        from .analysis import get_analyzer
        from .index import IndexManifest
        from .search import IndexSearcher, parse_query, search_sharded

        man = IndexManifest.load(args.index)
        q = parse_query(args.query, man.resolve_analyzer())
        if args.shards:
            t = search_sharded(args.index, [q], k=args.k,
                               num_shards=args.shards)
        else:
            t = IndexSearcher(args.index).search(q, k=args.k,
                                                 prune=args.prune)
        for row in t.to_pylist():
            print(json.dumps(row))
    elif args.cmd == "split":
        from .index.split import split_index

        print(json.dumps(split_index(args.index, list(args.out))))
    elif args.cmd == "backup":
        from .state.replication import backup_index

        print(json.dumps({"snapshot": backup_index(args.index, args.to)}))
    elif args.cmd == "restore":
        from .state.replication import restore_index

        print(json.dumps({"index": restore_index(args.snapshot,
                                                 args.out)}))
    elif args.cmd == "info":
        from .index.check import index_info

        print(json.dumps(index_info(args.index)))
    elif args.cmd == "bloom":
        from .codec.bloom import ensure_bloom
        from .search.readers import MergedReader

        fs = ensure_bloom(args.index, MergedReader(args.index))
        print(json.dumps({
            "written": fs is not None,
            "bloom_size": fs.bloom_size if fs else None,
            "saturation": round(fs.saturation(), 4) if fs else None,
        }))
    elif args.cmd == "autoprefix":
        _ray_session()
        from .index import build_autoprefix

        n = build_autoprefix(args.index, min_terms=args.min_terms,
                             max_len=args.max_len)
        print(json.dumps({"stored_prefixes": n}))
    elif args.cmd == "dump-simpletext":
        from .codec.simpletext import write_simpletext
        from .search.readers import MergedReader

        n = write_simpletext(MergedReader(args.index), args.out)
        print(json.dumps({"out": args.out, "terms": n}))
    elif args.cmd == "select":
        from .search import IndexSearcher
        from .search.select import solr_select

        print(json.dumps(solr_select(IndexSearcher(args.index),
                                     json.loads(args.params))))
    elif args.cmd == "check":
        if args.exorcise:
            from .index import exorcise_index

            print(json.dumps(exorcise_index(
                args.index, sample_terms=args.sample_terms)))
        else:
            from .index import check_index

            rep = check_index(args.index, sample_terms=args.sample_terms,
                              strict=False)
            print(json.dumps(rep))
    elif args.cmd == "gen-corpus":
        _ray_session()
        from .sources import write_corpus

        write_corpus(args.out, args.docs, seed=args.seed)
        print(json.dumps({"out": args.out, "docs": args.docs}))
    elif args.cmd == "replicate":
        from .state.replication import replicate

        print(json.dumps(replicate(args.master, args.replica)))
    elif args.cmd == "update":
        import pyarrow.parquet as pq

        from .index.updates import update_documents

        print(json.dumps(update_documents(
            args.index, pq.read_table(args.docs), args.key)))
    import ray

    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
