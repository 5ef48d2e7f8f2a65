from . import bm25
from .extras import (
    highlight,
    more_like_this,
    rescore,
    spellcheck,
    suggest_prefix,
    term_vector,
)
from .query import (
    BooleanQuery,
    BoostingQuery,
    BoostQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    DocValuesRangeQuery,
    DocValuesTermsQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    FieldedQuery,
    PhraseQuery,
    PrefixQuery,
    Query,
    RegexpQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    parse_query,
)
from .distributed import (
    SearcherActor,
    ServingPool,
    ShardedServingPool,
    search_by_field_sharded,
    search_sharded,
)
from .memoryindex import MemoryIndex
from .queryparser import ClassicQueryParser
from .simpleparser import simple_parse
from .surround import surround_query, surround_search
from .termautomaton import (
    TermAutomatonQuery,
    score_term_automaton,
    search_term_automaton,
    token_stream_to_query,
)
from .xmlparser import parse_xml_query
from .similarities import ClassicSimilarity, LMDirichletSimilarity
from .multifield import MultiFieldSearcher
from .searcher import IndexSearcher, SearcherManager
from .topk import merge_shard_topk, top_k

__all__ = [
    "simple_parse",
    "surround_query",
    "surround_search",
    "TermAutomatonQuery",
    "score_term_automaton",
    "search_term_automaton",
    "token_stream_to_query",
    "parse_xml_query",
    "BooleanQuery", "BoostingQuery", "BoostQuery", "ConstantScoreQuery",
    "DisjunctionMaxQuery", "DocValuesRangeQuery", "DocValuesTermsQuery",
    "FieldedQuery", "FuzzyQuery", "IndexSearcher",
    "MultiFieldSearcher", "SearcherManager",
    "MatchAllDocsQuery", "PhraseQuery", "PrefixQuery", "Query", "RegexpQuery",
    "TermQuery", "TermRangeQuery", "WildcardQuery", "bm25",
    "highlight", "merge_shard_topk", "more_like_this", "parse_query",
    "rescore", "search_sharded", "SearcherActor",
    "spellcheck", "suggest_prefix", "term_vector", "top_k",
    "ServingPool", "ShardedServingPool", "search_by_field_sharded",
    "MemoryIndex", "ClassicQueryParser", "ClassicSimilarity",
    "LMDirichletSimilarity",
]
