"""Bloom-filtered term lookups — the ``lucene/codecs/bloom`` module.

The reference's ``BloomFilteringPostingsFormat``
(``lucene/codecs/.../bloom/BloomFilteringPostingsFormat.java``) records,
per segment and field, a "FuzzySet": a single-hash bloom filter over every
indexed term, consulted by ``seekExact`` before touching the terms
dictionary.  ``contains()`` answers NO (term definitely absent — skip the
dict probe entirely) or MAYBE (fall through to the real lookup).  The win
is on *misses*: primary-key lookups, fuzzy/spellcheck vocabularies probing
thousands of generated variants, cross-segment ``seekExact`` fan-out — at
10^9-term shards a NO from a few cache-resident bitset words replaces a
block decode.

Faithful semantics restated here (same math, numpy storage):

- ``FuzzySet`` (``bloom/FuzzySet.java``): bitset sizes are all-ones
  numbers (2^k - 1) so the hash->bit projection is a single AND
  (``mayContainValue``, FuzzySet.java:283-292), and ``downsize`` can fold
  a big trained set into a smaller one by re-masking set bit indexes
  (FuzzySet.java:253-283).  One hash function, not k.
- Hashing is MurmurHash2 with seed ``0x9747b28c`` over the term's UTF-8
  bytes (``bloom/MurmurHash2.java:41-78,91-99``), Java int arithmetic
  (signed-byte tail mixing included); a negative hash is negated before
  masking (FuzzySet.java:156-161).
- Sizing: train at the nearest all-ones size whose estimated capacity at
  10% saturation covers the expected unique-value count
  (``DefaultBloomFilterFactory.java:29-31`` sizes on maxDoc assuming a
  primary key; a text field sizes on its unique-term count — same
  ``getNearestSetSize`` machinery, FuzzySet.java:121-134), then
  ``downsize(0.10)`` on flush and *skip persisting* any filter still
  >90% saturated (``DefaultBloomFilterFactory.isSaturated``,
  ``BloomFilteringPostingsFormat`` close path).

The sidecar is one small ``bloom.blm`` per index directory (version,
bloom_size, bitset words — the FuzzySet serialize layout,
FuzzySet.java:164-199), built once from the term dictionary's unique
terms and attached to readers via ``MergedReader.attach_bloom``; every
``_term_rows`` miss then short-circuits without bisecting the dict.
"""

from __future__ import annotations

import os
import struct

import numpy as np

_M = np.uint32(0x5BD1E995)
_SEED = 0x9747B28C
_VERSION = 1


# --------------------------------------------------------------------------
# MurmurHash2 (bloom/MurmurHash2.java) — scalar + length-grouped vectorized
# --------------------------------------------------------------------------

def murmur2_hash32(data: bytes, seed: int = _SEED) -> int:
    """Java-faithful MurmurHash2 ``hash(byte[], seed, 0, len)`` -> signed
    int32.  Body words are little-endian uint32; the <4-byte tail mixes
    SIGNED bytes (Java bytes sign-extend before the shift/xor)."""
    n = len(data)
    h = np.uint32((seed ^ n) & 0xFFFFFFFF)
    m = _M
    with np.errstate(over="ignore"):
        n4 = n >> 2
        if n4:
            k = np.frombuffer(data, np.uint8, n4 * 4).view("<u4").copy()
            k *= m
            k ^= k >> np.uint32(24)
            k *= m
            for kv in k:
                h = h * m
                h ^= kv
        left = n - (n4 << 2)
        if left:
            tail = np.frombuffer(data, np.uint8)[n4 * 4:].astype(np.int8)
            if left >= 3:
                h ^= np.uint32(np.int32(tail[-3]) << 16 & 0xFFFFFFFF)
            if left >= 2:
                h ^= np.uint32(np.int32(tail[-2]) << 8 & 0xFFFFFFFF)
            h ^= np.uint32(np.int32(tail[-1]) & 0xFFFFFFFF)
            h = h * m
        h ^= h >> np.uint32(13)
        h = h * m
        h ^= h >> np.uint32(15)
    return int(np.int32(h))


def murmur2_hash32_batch(terms) -> np.ndarray:
    """Vectorized murmur2 over a sequence of byte strings.

    Terms are grouped by byte length so each group hashes as one
    fixed-width uint8 matrix (word loop runs len//4 times over the whole
    group) — no per-term Python hashing in the build path."""
    terms = [t.encode("utf-8") if isinstance(t, str) else bytes(t)
             for t in terms]
    out = np.empty(len(terms), np.int32)
    if not terms:
        return out
    lens = np.fromiter((len(t) for t in terms), np.int64, len(terms))
    m = _M
    with np.errstate(over="ignore"):
        for ln in np.unique(lens):
            idx = np.nonzero(lens == ln)[0]
            ln = int(ln)
            buf = np.frombuffer(b"".join(terms[i] for i in idx), np.uint8)
            mat = buf.reshape(len(idx), ln) if ln else \
                np.empty((len(idx), 0), np.uint8)
            h = np.full(len(idx), (_SEED ^ ln) & 0xFFFFFFFF, np.uint32)
            n4 = ln >> 2
            if n4:
                words = np.ascontiguousarray(
                    mat[:, :n4 * 4]).view("<u4")
                for w in range(n4):
                    k = words[:, w].copy()
                    k *= m
                    k ^= k >> np.uint32(24)
                    k *= m
                    h *= m
                    h ^= k
            left = ln - (n4 << 2)
            if left:
                tail = mat[:, n4 * 4:].astype(np.int8).astype(np.int32)
                if left >= 3:
                    h ^= (tail[:, -3] << 16).astype(np.uint32)
                if left >= 2:
                    h ^= (tail[:, -2] << 8).astype(np.uint32)
                h ^= tail[:, -1].astype(np.uint32)
                h *= m
            h ^= h >> np.uint32(13)
            h *= m
            h ^= h >> np.uint32(15)
            out[idx] = h.view(np.int32)
    return out


def _positive(h: np.ndarray | int):
    """Java's ``if (hash < 0) hash = hash * -1`` in int32 (note
    Integer.MIN_VALUE negates to itself), FuzzySet.java:156-159."""
    a = np.asarray(h, np.int32)
    with np.errstate(over="ignore"):
        pos = np.where(a < 0, (-a.astype(np.int64)).astype(np.int32), a)
    return pos.astype(np.int64) & 0xFFFFFFFF


# --------------------------------------------------------------------------
# FuzzySet (bloom/FuzzySet.java)
# --------------------------------------------------------------------------

_USABLE_SIZES = [(1 << (i + 2)) - 1 for i in range(30)]  # 3,7,15,...


def estimated_unique_values(set_size: int, bits_set: int) -> int:
    """FuzzySet.getEstimatedNumberUniqueValuesAllowingForCollisions."""
    saturation = bits_set / set_size
    return int(set_size * -np.log(1 - saturation)) if saturation < 1 else \
        1 << 62


def nearest_set_size(max_values: int, saturation: float) -> int:
    """Smallest all-ones size whose estimated capacity at the target
    saturation exceeds ``max_values`` (FuzzySet.getNearestSetSize/2)."""
    for size in _USABLE_SIZES:
        cap = estimated_unique_values(size, int(size * saturation))
        if cap > max_values:
            return size
    return _USABLE_SIZES[-1]


class FuzzySet:
    """NO / MAYBE membership over term bytes (one murmur2 hash, all-ones
    mask projection)."""

    def __init__(self, bloom_size: int,
                 words: np.ndarray | None = None):
        assert (bloom_size & (bloom_size + 1)) == 0, "size must be 2^k-1"
        self.bloom_size = bloom_size
        nwords = (bloom_size + 1 + 63) // 64
        self.words = words if words is not None else \
            np.zeros(nwords, np.uint64)

    # -- construction ------------------------------------------------------
    @classmethod
    def create_based_on_quality(cls, max_unique_values: int,
                                saturation: float = 0.10) -> "FuzzySet":
        return cls(nearest_set_size(max_unique_values, saturation))

    def add_values(self, terms) -> None:
        pos = _positive(murmur2_hash32_batch(terms)) & self.bloom_size
        np.bitwise_or.at(self.words, pos >> 6,
                         np.uint64(1) << (pos & 63).astype(np.uint64))

    # -- membership --------------------------------------------------------
    def contains(self, term: str | bytes) -> bool:
        """True = MAYBE, False = definitely NOT in this index."""
        b = term.encode("utf-8") if isinstance(term, str) else term
        pos = int(_positive(murmur2_hash32(b)) & self.bloom_size)
        return bool((int(self.words[pos >> 6]) >> (pos & 63)) & 1)

    def contains_batch(self, terms) -> np.ndarray:
        pos = _positive(murmur2_hash32_batch(terms)) & self.bloom_size
        return ((self.words[pos >> 6] >>
                 (pos & 63).astype(np.uint64)) & np.uint64(1)).astype(bool)

    # -- sizing ------------------------------------------------------------
    def bit_count(self) -> int:
        return int(np.unpackbits(self.words.view(np.uint8)).sum())

    def saturation(self) -> float:
        return self.bit_count() / self.bloom_size

    def downsize(self, target_max_saturation: float = 0.10):
        """Fold into the smallest all-ones size that keeps saturation
        under target by re-masking set bit indexes (FuzzySet.downsize);
        None if already over-saturated at every smaller size."""
        bits_set = self.bit_count()
        right = self.bloom_size
        for size in _USABLE_SIZES:
            if bits_set / size <= target_max_saturation:
                right = size
                break
        if right >= self.bloom_size:
            return None
        small = FuzzySet(right)
        set_idx = np.nonzero(
            np.unpackbits(self.words.view(np.uint8), bitorder="little"))[0]
        down = set_idx & right
        np.bitwise_or.at(small.words, down >> 6,
                         np.uint64(1) << (down & 63).astype(np.uint64))
        return small

    # -- serialization (FuzzySet.serialize layout) --------------------------
    def to_bytes(self) -> bytes:
        return struct.pack("<iii", _VERSION, self.bloom_size,
                           len(self.words)) + self.words.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "FuzzySet":
        version, bloom_size, nwords = struct.unpack_from("<iii", data)
        if version != _VERSION:
            raise ValueError(f"unknown FuzzySet version {version}")
        words = np.frombuffer(data, np.uint64, nwords, 12).copy()
        return cls(bloom_size, words)


# --------------------------------------------------------------------------
# index-directory sidecar
# --------------------------------------------------------------------------

def bloom_path(index_dir: str) -> str:
    return os.path.join(index_dir, "bloom.blm")


def build_bloom(terms, n_unique: int | None = None,
                saturation: float = 0.10) -> FuzzySet | None:
    """Train at quality size, then downsize(0.10); None (don't persist)
    if the downsized-or-original set is >90% saturated — the
    BloomFilteringPostingsFormat flush policy."""
    terms = list(terms)
    fs = FuzzySet.create_based_on_quality(n_unique or len(terms),
                                          saturation)
    fs.add_values(terms)
    smaller = fs.downsize(saturation)
    if smaller is not None:
        fs = smaller
    return None if fs.saturation() > 0.9 else fs


def _index_max_doc(index_dir: str) -> int | None:
    try:
        import json

        with open(os.path.join(index_dir, "manifest.json")) as f:
            return int(json.load(f).get("max_doc", -1))
    except (OSError, ValueError):
        return None


def _persist(index_dir: str, fs: FuzzySet) -> str:
    import json

    path = bloom_path(index_dir)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(fs.to_bytes())
    os.replace(tmp, path)
    with open(path + ".meta", "w") as f:
        json.dump({"max_doc": _index_max_doc(index_dir)}, f)
    return path


def write_bloom(index_dir: str, terms) -> str | None:
    """Build the sidecar from an index's unique terms; returns the path
    (or None when the saturated-skip policy applied)."""
    fs = build_bloom(terms)
    return _persist(index_dir, fs) if fs is not None else None


def read_bloom(index_dir: str) -> FuzzySet | None:
    """Load the sidecar; None when absent OR stale — a filter trained
    before an NRT append/update lacks the new segments' terms, and a
    bloom false NEGATIVE is a wrong answer, so the meta's max_doc must
    match the live manifest (deletes don't add terms and stay safe)."""
    import json

    path = bloom_path(index_dir)
    if not os.path.exists(path):
        return None
    meta_path = path + ".meta"
    if os.path.exists(meta_path):
        try:
            with open(meta_path) as f:
                trained = json.load(f).get("max_doc")
        except (OSError, ValueError):
            trained = None
        if trained is not None and trained != _index_max_doc(index_dir):
            return None  # stale: index grew since training
    with open(path, "rb") as f:
        return FuzzySet.from_bytes(f.read())


def ensure_bloom(index_dir: str, reader) -> FuzzySet | None:
    """Load the sidecar (or build+persist it from the reader's unique
    terms) and attach it to the reader.  Returns the attached set."""
    fs = read_bloom(index_dir)
    if fs is None:
        fs = build_bloom(reader.unique_terms())
        if fs is not None:
            _persist(index_dir, fs)
    if fs is not None:
        reader.attach_bloom(fs)
    return fs
