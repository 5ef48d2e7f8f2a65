"""Levenshtein automaton — sublinear fuzzy-term expansion.

The reference compiles the query term into a Levenshtein DFA
(``lucene/core/.../util/automaton/LevenshteinAutomata.java``, the
Schulz–Mihov construction) and INTERSECTS it with the BlockTree terms
dictionary (``FuzzyQuery.java:66-76`` rewrites to an automaton query;
``IntersectTermsEnum`` leapfrogs DFA and dict) so a fuzzy query never
scans the vocabulary.

This module plays the same role with the classic public formulation
(e.g. Schulz & Mihov 2002; the widely-published "DP-row as DFA state"
variant): the automaton state is the capped Levenshtein DP row, and the
dictionary intersection is the standard leapfrog between

  * ``next_valid(s)`` — the lexicographically smallest string ``>= s``
    the automaton accepts, and
  * ``searchsorted`` — the smallest dictionary term ``>=`` that string
    (a bisect of the reader's sorted term array, ``O(log V)``),

so the number of dictionary probes is ``O(matches + automaton boundary
crossings)``, independent of vocabulary size — the complexity class the
reference gets from ``IntersectTermsEnum``, vs the pruned linear scan
this repo used before.

Semantics match :func:`searcher._levenshtein_within` exactly: plain
Levenshtein (insert/delete/substitute), no transpositions (the
reference defaults ``transpositions=true``; documented difference).
Distance cap follows ``LevenshteinAutomata.MAXIMUM_SUPPORTED_DISTANCE=2``
in spirit but any small k works — states stay O(|term|) either way.
"""

from __future__ import annotations

import numpy as np
from bisect import bisect_left as _bisect_left, bisect_right as _bisect_right

_MAX_CP = 0x10FFFF


class OrderedDFA:
    """Base for DFAs that support lexicographic-minimum traversal.

    Subclasses provide ``start() -> state``, ``step(state, c) -> state``,
    ``is_accept(state)``, ``is_live(state)`` and
    ``_next_edge(state, after) -> char|None`` (smallest char strictly
    greater than ``after`` — or smallest of all when ``after`` is None —
    whose transition stays live). :meth:`next_valid` then drives the
    dictionary leapfrog for any such automaton (fuzzy, regexp, ...).
    """

    def start(self):
        raise NotImplementedError

    def step(self, state, c: str):
        raise NotImplementedError

    def is_accept(self, state) -> bool:
        raise NotImplementedError

    def is_live(self, state) -> bool:
        raise NotImplementedError

    def _next_edge(self, state, after: str | None,
                   remaining: int | None = None) -> str | None:
        raise NotImplementedError

    #: optional bound on explored path length — REQUIRED when the
    #: automaton's language is infinite (regexp with ``*``/``+``): the
    #: language then has no lexicographic minimum ("a*b" accepts
    #: ab > aab > aaab > ...) and the DFS would descend forever. Set it
    #: to the dictionary's max term length: longer strings can't be
    #: dict terms, so truncating the language there never skips a match.
    max_path_len: int | None = None

    def min_dist(self, state) -> int:
        """Lower bound on chars still needed to reach an accept state.

        Used to make the length cap a LIVENESS property instead of a
        depth check: a state whose min-distance-to-accept exceeds the
        remaining budget is dead NOW, so the DFS never enters a subtree
        that can only fail by truncation. Without this (the default 0),
        a live-but-too-deep subtree fails at the depth check and the
        parent's sibling retry rescans the alphabet one region at a
        time — on wide intervals (``.``) that is ~1.1M probes per level.
        Subclasses with ``max_path_len`` set should override.
        """
        return 0

    def _edge_ok(self, child, remaining: int | None) -> bool:
        if not self.is_live(child):
            return False
        return remaining is None or self.min_dist(child) <= remaining

    def accepts(self, s: str) -> bool:
        st = self.start()
        for c in s:
            st = self.step(st, c)
            if not self.is_live(st):
                return False
        return self.is_accept(st)

    def next_valid(self, s: str) -> str | None:
        """Lexicographically smallest accepted string ``>= s``."""
        mpl = self.max_path_len
        state = self.start()
        if not self._edge_ok(state, mpl):
            # e.g. the pattern's minimum match length already exceeds
            # the dictionary's longest term: nothing to find
            return None
        # walk s, recording (path-so-far, state-before-char, char-taken)
        stack: list[tuple[str, object, str | None]] = []
        i = 0
        n = len(s)
        while i < n:
            stack.append((s[:i], state, s[i]))
            state = self.step(state, s[i])
            i += 1
            if not self._edge_ok(state, None if mpl is None else mpl - i):
                break
        else:
            if self.is_accept(state):
                return s
            stack.append((s, state, None))
        # DFS, smallest-edge-first: each frame retries the next sibling
        # edge (> the char previously taken from that state), so the
        # first accepted state reached is the lexicographic minimum > s.
        # _next_edge only yields BUDGET-VIABLE children (live AND
        # min_dist <= chars left under max_path_len), and a viable child
        # by definition has an accepting path within budget — so after
        # the initial walk of ``s``, the first viable sibling found
        # descends straight to an accept with zero backtracking.
        while stack:
            path, st, took = stack.pop()
            rem = None if mpl is None else mpl - len(path) - 1
            if rem is not None and rem < 0:
                continue  # even a 1-char edge would exceed the cap
            c = self._next_edge(st, took, rem)
            if c is None:
                continue
            stack.append((path, st, c))  # siblings > c stay reachable
            st2 = self.step(st, c)
            if self.is_accept(st2):
                return path + c
            stack.append((path + c, st2, None))
        return None


class LevenshteinDFA(OrderedDFA):
    """Accepts strings within ``k`` plain-Levenshtein edits of ``term``.

    State = tuple of the DP row, each cell capped at ``k+1`` (cells past
    the cap can never recover, so capping keeps the state space finite —
    the standard construction).
    """

    __slots__ = ("term", "k", "_chars", "_charset", "_other", "_trans")

    def __init__(self, term: str, k: int):
        self.term = term
        self.k = k
        self._chars = sorted(set(term))
        self._charset = set(term)
        # lazy transition memo: the capped-DP-row state space is small
        # (O(|term|) cells, each in 0..k+1) and revisited constantly by
        # the dictionary leapfrog, so each (state, char-class) row is
        # computed once per DFA
        self._trans: dict[tuple, dict[str, tuple]] = {}
        # a character guaranteed not in the term: transitions on ANY
        # char outside the term are identical, so one probe char covers
        # the whole "other" alphabet class
        other = "\0"
        while other in term:
            other = chr(ord(other) + 1)
        self._other = other

    # -- core DFA ------------------------------------------------------
    def start(self) -> tuple:
        cap = self.k + 1
        return tuple(min(i, cap) for i in range(len(self.term) + 1))

    def step(self, state: tuple, c: str) -> tuple:
        if c not in self._charset:
            c = self._other  # all non-term chars transition identically
        d = self._trans.get(state)
        if d is None:
            d = self._trans[state] = {}
        r = d.get(c)
        if r is None:
            r = d[c] = self._step_raw(state, c)
        return r

    def _step_raw(self, state: tuple, c: str) -> tuple:
        cap = self.k + 1
        term = self.term
        prev0 = state[0]
        row = [min(prev0 + 1, cap)]
        for j in range(1, len(state)):
            cost = 0 if term[j - 1] == c else 1
            v = state[j - 1] + cost          # substitute / match
            v2 = state[j] + 1                # insert (extra input char)
            if v2 < v:
                v = v2
            v3 = row[j - 1] + 1              # delete (skip term char)
            if v3 < v:
                v = v3
            row.append(v if v < cap else cap)
        return tuple(row)

    def is_accept(self, state: tuple) -> bool:
        return state[-1] <= self.k

    def is_live(self, state: tuple) -> bool:
        k = self.k
        return any(v <= k for v in state)

    def min_dist(self, state: tuple) -> int:
        """Fewest chars to acceptance: from live cell ``j`` (cost v),
        appending ``term[j+e:]`` takes ``L-j-e`` chars at final cost
        ``v+e`` — minimized at ``e = k - v`` trailing deletions."""
        k = self.k
        L = len(self.term)
        best = None
        for j, v in enumerate(state):
            if v <= k:
                d = L - j - (k - v)
                if d < 0:
                    d = 0
                if best is None or d < best:
                    best = d
                    if best == 0:
                        break
        return best if best is not None else L + k + 1

    # -- lexicographic traversal ----------------------------------------
    def _next_edge(self, state: tuple, after: str | None,
                   remaining: int | None = None) -> str | None:
        """Smallest char strictly greater than ``after`` (or smallest of
        all when ``after`` is None) whose transition stays viable."""
        lo = "\0" if after is None else (
            None if ord(after) >= _MAX_CP else chr(ord(after) + 1))
        if lo is None:
            return None
        best = None
        for qc in self._chars:
            if qc >= lo and self._edge_ok(self.step(state, qc), remaining):
                best = qc
                break
        if self._edge_ok(self.step(state, self._other), remaining):
            # smallest NON-term char >= lo (all non-term chars transition
            # identically; at most |distinct term chars| skips)
            c: str | None = lo
            while c is not None and c in self._chars:
                c = chr(ord(c) + 1) if ord(c) < _MAX_CP else None
            if c is not None and (best is None or c < best):
                best = c
        return best

class DamerauLevenshteinDFA(LevenshteinDFA):
    """Accepts strings within ``k`` OSA (optimal string alignment)
    edits of ``term`` — insert/delete/substitute/adjacent-transpose.

    The reference's ``FuzzyQuery`` defaults ``transpositions=true``
    (``LevenshteinAutomata.java`` builds the transposition-aware
    parametric tables); this is the same language via the DP-row state
    construction extended for OSA: the state carries the PREVIOUS row
    and the previously-consumed char (both needed by the transposition
    cell ``prev_row[j-2] + 1`` when ``term[j-1] == prev_char`` and
    ``term[j-2] == c``), each row capped at ``k+1``. The previous char
    is class-collapsed exactly like transition chars (all non-term
    chars behave identically in both ``term[j-1]==c`` tests), so the
    state space stays finite and :meth:`_next_edge`'s two-class probe
    carries over unchanged.

    State = ``(prev_row | None, cur_row, prev_char | None)``.
    """

    def start(self) -> tuple:
        cap = self.k + 1
        return (None, tuple(min(i, cap) for i in range(len(self.term) + 1)),
                None)

    def _step_raw(self, state: tuple, c: str) -> tuple:
        cap = self.k + 1
        term = self.term
        prev_row, cur, prev_char = state
        row = [min(cur[0] + 1, cap)]
        for j in range(1, len(cur)):
            cost = 0 if term[j - 1] == c else 1
            v = cur[j - 1] + cost            # substitute / match
            v2 = cur[j] + 1                  # insert (extra input char)
            if v2 < v:
                v = v2
            v3 = row[j - 1] + 1              # delete (skip term char)
            if v3 < v:
                v = v3
            if (j >= 2 and prev_row is not None
                    and term[j - 1] == prev_char and term[j - 2] == c):
                v4 = prev_row[j - 2] + 1     # adjacent transposition
                if v4 < v:
                    v = v4
            row.append(v if v < cap else cap)
        return (cur, tuple(row), c)

    def is_accept(self, state: tuple) -> bool:
        return state[1][-1] <= self.k

    def is_live(self, state: tuple) -> bool:
        # dead stays dead under transposition too: cur[j] <= prev[j]+1
        # from the insert edge, so prev_row[j-2]+1 >= cur[j-2] — a
        # fully-capped cur row can't be revived by the prev row
        k = self.k
        return any(v <= k for v in state[1])

    def min_dist(self, state: tuple) -> int:
        # transpositions consume 2 input chars to cover 2 term chars —
        # the same rate as matches — so the plain-row bound holds
        return super().min_dist(state[1])


def osa_within(a: str, b: str, k: int) -> bool:
    """Brute-force OSA distance check (the DFA's test oracle)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return False
    prev2: list[int] | None = None
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if (i >= 2 and j >= 2 and a[i - 1] == b[j - 2]
                    and a[i - 2] == b[j - 1]):
                v = min(v, prev2[j - 2] + 1)
            cur[j] = v
        prev2, prev = prev, cur
    return prev[lb] <= k


class _SortedArrayView:
    """Adapter giving a sorted numpy str array the term-dict probe API."""

    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray):
        self.arr = arr

    def __len__(self) -> int:
        return int(self.arr.size)

    def __getitem__(self, i: int) -> str:
        return str(self.arr[i])

    def searchsorted(self, term: str, side: str = "left") -> int:
        # NOT np.searchsorted: a needle longer than the array's fixed
        # unicode itemsize makes numpy upcast the ENTIRE array per call
        # (O(V)); bisect does O(log V) scalar compares instead
        fn = _bisect_right if side == "right" else _bisect_left
        return fn(self.arr, term)


def intersect_sorted(dfa: LevenshteinDFA,
                     terms: np.ndarray) -> tuple[list[str], int]:
    """Leapfrog the DFA against a sorted numpy term array (duplicates
    allowed; each matching term is returned once).

    Returns ``(matching terms, dictionary probes)`` — probes is the
    sublinearity measure (each probe is one bisect + one lookup).
    """
    terms = _SortedArrayView(terms)
    out: list[str] = []
    probes = 0
    n = len(terms)
    first = dfa.next_valid("")
    if first is None or n == 0:
        return out, probes
    i = terms.searchsorted(first, "left")
    # leapfrog by dictionary INDEX after a match (sidesteps successor-
    # string construction, which numpy's NUL-padded unicode compare
    # cannot represent) and by automaton skip otherwise
    while i < n:
        t = terms[i]
        probes += 1
        m = dfa.next_valid(t)  # smallest accepted string >= t
        if m is None:
            break
        if m == t:
            if not out or out[-1] != t:  # dict rows may hold duplicates
                out.append(t)
            i += 1
        else:
            i = terms.searchsorted(m, "left")
    return out, probes
