"""Light analyzer chains, batch 2: Greek, Romanian, Catalan.

Same contract as :mod:`.light` (the reference's per-language packages
under ``lucene/analysis/common/src/java/org/apache/lucene/analysis/``):
StandardTokenizer + language-specific lowercase/normalize + stop list +
a LIGHT stemmer. The Greek lowercase fold is the exact
``el/GreekLowerCaseFilter.java`` mapping (final sigma + tonos/dialytika
removal); the stemmers are conservative light variants in the
Dolamic-Savoy style (longest case-ending strip with a minimum-stem
guard) — inflection families collapse to one stem, but these are NOT
the full Ntais (el) / Snowball (ro, ca) algorithms, which carry long
exception tables.
"""

from __future__ import annotations

from .analyzers import Analyzer, register_analyzer
from .snowball import StemmingAnalyzer

# ---------------------------------------------------------------------------
# Greek (el/GreekAnalyzer.java + GreekLowerCaseFilter.java)
# ---------------------------------------------------------------------------

_EL_FOLD = {
    "ά": "α", "έ": "ε", "ή": "η", "ί": "ι", "ό": "ο", "ύ": "υ",
    "ώ": "ω", "ϊ": "ι", "ϋ": "υ", "ΐ": "ι", "ΰ": "υ", "ς": "σ",
}


def greek_lowercase(word: str) -> str:
    """GreekLowerCaseFilter: lowercase, strip tonos/dialytika from
    vowels, normalize final sigma."""
    return "".join(_EL_FOLD.get(c, c) for c in word.lower())


# longest-match case endings (nominal declension surface), stem >= 3
_EL_SUFFIXES = tuple(sorted(
    ["ματων", "ματοσ", "ματα", "ιων", "ικοσ", "ικη", "ικο", "ουσ",
     "εων", "ουν", "εισ", "ων", "ου", "οσ", "οι", "ησ", "ασ", "εσ",
     "αι", "ια", "ιο", "η", "α", "ο", "ι", "ε"],
    key=len, reverse=True))

GREEK_STOP_WORDS = frozenset(greek_lowercase(w) for w in """
ο η το οι τα του τησ των τον την και κι κ ειμαι εισαι ειναι ειμαστε
ειστε στο στον στη στην μα αλλα απο για προσ με σε ωσ παρα αντι κατα
μετα θα να δε δεν μη μην επι ενω εαν αν τοτε που πωσ ποιοσ ποια ποιο
ποιοι ποιεσ ποιων ποιουσ αυτοσ αυτη αυτο αυτοι αυτων αυτουσ αυτεσ
αυτα εκεινοσ εκεινη εκεινο εκεινοι εκεινεσ εκεινα εκεινων εκεινουσ
οπωσ ομωσ ισωσ οσο οτι
""".split())


def greek_light_stem(word: str) -> str:
    w = greek_lowercase(word)
    for suf in _EL_SUFFIXES:
        if w.endswith(suf) and len(w) - len(suf) >= 3:
            return w[: -len(suf)]
    return w


# ---------------------------------------------------------------------------
# Romanian (ro/RomanianAnalyzer.java; light variant)
# ---------------------------------------------------------------------------

# definite articles + plural/case endings, longest first, stem >= 3
_RO_SUFFIXES = tuple(sorted(
    ["urilor", "iilor", "ariile", "aua", "ele", "elor", "ilor", "iile",
     "ului", "ul", "uri", "ile", "lor", "ii", "ea", "le", "ia",
     "ua", "e", "i", "a"],
    key=len, reverse=True))

ROMANIAN_STOP_WORDS = frozenset("""
acea aceasta această aceea acei aceia acel acela acele acelea acest
acesta aceste acestea acestei acestia acestui acum ai aia aibă am ar
are as asa aş aşa au avea avem aveţi azi ca că căci când care cărei
căror cărui cat ce cel ceva chiar cînd cine cineva cît cîte cîţi cîtva
cu da dă dacă dar de deci deja din dintr doar două după ei el ele eram
este eşti eu fi fie fiecare fii fim fiţi iar ieri îi îl îmi împotriva
în înainte înaintea încât încît între întrucât întrucît îţi la lângă
le li lîngă lor lui mă mâine mea mei mele mereu meu mi mine mult multă
mulţi ne nicăieri nici nimeni nişte noastră noastre noi noştri nostru
nu ori oricând oricare oricât orice oricînd oricine oricît oricum
oriunde până pe pentru peste pînă poate pot prea prima primul prin
printr sa să săi sale sau său se şi sînt sîntem sînteţi spre sub sunt
suntem sunteţi şti te ţi ţie tine toată toate tot toţi totuşi tu un
una unde undeva unei unele uneori unor vă vi voastră voastre voi
voştri vostru vouă vreo vreun
""".split())


def romanian_light_stem(word: str) -> str:
    w = word
    for suf in _RO_SUFFIXES:
        if w.endswith(suf) and len(w) - len(suf) >= 3:
            return w[: -len(suf)]
    return w


# ---------------------------------------------------------------------------
# Catalan (ca/CatalanAnalyzer.java: elision + stop + stemmer; light)
# ---------------------------------------------------------------------------

_CA_ELISION = frozenset(["d", "l", "m", "n", "s", "t"])

CATALAN_STOP_WORDS = frozenset("""
a abans ací ah així això al als altre altra altres amb ambdós ambdues
apenes aquell aquella aquelles aquells aquest aquesta aquestes aquests
aquí baix cada cadascú cadascuna cadascunes cadascuns com contra
d'un d'una d'unes d'uns dalt de del dels des després dins dintre
donat doncs durant e eh el els em en encara ens entre érem eren éreu
es és esta està estàvem estaven estàveu esteu et etc ets fins fora
gairebé ha han has havia he hem heu hi ho i igual iguals ja l'hi la
les li li'n llavors m'he ma mal malgrat mateix mateixa mateixes
mateixos me mentre més meu meus meva meves mode molt molta moltes
molts mon mons n'he n'hi ne ni no nogensmenys només nosaltres nostra
nostre nostres o oh oi on pas pel pels per però perquè poc poca
poques pocs pel·lícula potser propi qual quals quan quant que què
quelcom qui quin quina quines quins s'ha s'han sa semblant semblants
ses seu seus seva seves si sobre sobretot sóc solament sols son són
sons sota sou t'ha t'han t'he ta tal també tampoc tan tant tanta
tantes teu teus teva teves ton tons tot tota totes tots un una unes
uns us va vaig vam van vas veu vosaltres vostra vostre vostres
""".split())

# plural/derivational endings, longest first, stem >= 3
_CA_SUFFIXES = tuple(sorted(
    ["aments", "ament", "ques", "nces", "ncia", "istes", "ista",
     "cions", "cio", "ció", "ns", "es", "s", "a", "o"],
    key=len, reverse=True))


def catalan_elide(token: str) -> str:
    for apo in ("'", "’"):
        if apo in token:
            head, _, rest = token.partition(apo)
            if head in _CA_ELISION and rest:
                return rest
    return token


def catalan_light_stem(word: str) -> str:
    w = catalan_elide(word)
    for suf in _CA_SUFFIXES:
        if w.endswith(suf) and len(w) - len(suf) >= 3:
            return w[: -len(suf)]
    return w


class _ElisionStemmingAnalyzer(StemmingAnalyzer):
    """StemmingAnalyzer with a language-specific elision set applied
    before the stop/stem steps (ElisionFilter position in the chain)."""

    def __init__(self, name, stop_words, stem_fn, elide_fn, **kw):
        super().__init__(name, stop_words, stem_fn, **kw)
        self._elide = elide_fn

    def _one(self, t: str) -> str | None:
        t = self._elide(t)
        if t in self.stop_words:
            return None
        if t in self.stem_exclusions:
            return t
        return self.stem_fn(t)


def greek_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("greek", GREEK_STOP_WORDS,
                            greek_light_stem, **kw)


def romanian_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("romanian", ROMANIAN_STOP_WORDS,
                            romanian_light_stem, **kw)


def catalan_analyzer(**kw) -> _ElisionStemmingAnalyzer:
    return _ElisionStemmingAnalyzer(
        "catalan", CATALAN_STOP_WORDS, catalan_light_stem,
        catalan_elide, **kw)


register_analyzer("greek", greek_analyzer())
register_analyzer("romanian", romanian_analyzer())
register_analyzer("catalan", catalan_analyzer())


# ---------------------------------------------------------------------------
# Irish (ga/IrishAnalyzer.java + IrishLowerCaseFilter.java)
# ---------------------------------------------------------------------------

_GA_VOWELS_UPPER = frozenset("AEIOUÁÉÍÓÚ")
_GA_ELISION = frozenset(["d", "m", "b"])

IRISH_STOP_WORDS = frozenset("""
a ach ag agus an aon ar arna as b' ba beirt bhur caoga ceathair
ceathrar chomh chto chuig chun cois cead cuig cuigear d' daichead dar
de deich deichniur den dha do don dtir duirt faoi faoin faoina faoinar
fara fiche gach gan go gur haon hocht i iad idir in ina ins inar is le
leis lena lenar m' mar mo na nach naoi naonur ni nior no nocha ocht
ochtar os roimh sa seacht seachtar seachto sean se seisear siad sibh
sinn sna se sean tar thar thu triur tri trocha tu um ar ais me sise
tusa
""".split())


def irish_lowercase(word: str) -> str:
    """IrishLowerCaseFilter: a lowercase 'n'/'t' prefixed to an
    UPPERCASE letter marks eclipsis / t-prothesis (nAthair, tSaol);
    lowercasing inserts the hyphen the orthography uses elsewhere
    (n-athair, t-saol) so the prefix never fuses into the headword."""
    if (len(word) > 1 and word[0] in ("n", "t")
            and word[1].isupper()):
        return word[0] + "-" + word[1:].lower()
    return word.lower()


def irish_elide(token: str) -> str:
    for apo in ("'", "’"):
        if apo in token:
            head, _, rest = token.partition(apo)
            if head.lower() in _GA_ELISION and rest:
                return rest
    return token


class IrishAnalyzer(StemmingAnalyzer):
    """Tokenize -> IrishLowerCase -> elision (d'/m'/b') -> stop. The
    reference adds a Snowball Irish stemmer; this chain carries the
    language-specific casing/elision surface (the filter classes) and
    leaves stems identity — documented light variant."""

    def __init__(self, **kw):
        super().__init__("irish", IRISH_STOP_WORDS, lambda t: t, **kw)

    def _one(self, t: str) -> str | None:
        t = irish_elide(t)
        if t in self.stop_words:
            return None
        return t

    def tokens_with_positions(self, text: str):
        # Irish casing must see the ORIGINAL case, so tokenize raw and
        # lowercase per token with the Irish rule
        from .tokenizer import tokenize_with_positions

        toks, pos = tokenize_with_positions(text)
        out_t, out_p = [], []
        for raw, p in zip(toks, pos):
            t = self._one(irish_lowercase(raw))
            if t is not None:
                out_t.append(t)
                out_p.append(p)
        return out_t, out_p

    # raw-case tokens: no vocabulary map over the lowercased base stream
    tokens_batch = Analyzer.tokens_batch
    tokens_batch_factorized = Analyzer.tokens_batch_factorized


# ---------------------------------------------------------------------------
# Galician (gl/GalicianMinimalStemFilter: plural reduction only)
# ---------------------------------------------------------------------------

GALICIAN_STOP_WORDS = frozenset("""
a aínda alí aquel aquela aquelas aqueles aquilo aquí ao aos as así á ben
cando che co coa comigo con connosco contigo convosco coas cos cun cuns
cunha cunhas da dalgunha dalgunhas dalgún dalgúns das de del dela delas
deles desde deste do dos dun duns dunha dunhas e el ela elas eles en era
eran esa esas ese eses esta estar estaba está están este estes estiven
estou eu é facer foi foron fun había hai iso isto la las lle lles lo los
mais me meu meus min miña miñas moi na nas neste nin no non nos nosa
nosas noso nosos nós nun nunha nuns nunhas o os ou ó ós para pero pode
pois pola polas polo polos por que se senón ser seu seus sexa sida sobre
súa súas tamén tan te ten teñen teño ter teu teus ti tido tiña tiven túa
túas un unha unhas uns vos vosa vosas voso vosos vós
""".split())


def galician_minimal_stem(word: str) -> str:
    """Minimal (plural-only) reduction — the GalicianMinimalStemFilter
    shape: '-ns' plurals restore '-n' (cancións -> canción); other
    plain '-s' plurals drop the s (homes -> home); minimum stem 3."""
    if len(word) > 3 and word.endswith("ns"):
        return word[:-1]
    if len(word) > 3 and word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def galician_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("galician", GALICIAN_STOP_WORDS,
                            galician_minimal_stem, **kw)


# ---------------------------------------------------------------------------
# Sorani Kurdish (ckb/SoraniNormalizationFilter + light stem)
# ---------------------------------------------------------------------------

_CKB_MAP = {
    "ي": "ی",   # Arabic yeh -> Farsi yeh
    "ى": "ی",   # alef maksura -> Farsi yeh
    "ك": "ک",   # Arabic kaf -> keheh
    "ـ": "",          # tatweel removed
    "‌": "",          # ZWNJ removed
    "ه‌": "ە",  # heh+ZWNJ -> ae
}
_CKB_DIACRITICS = frozenset("ًٌٍَُِّْ")


def sorani_normalize(word: str) -> str:
    """SoraniNormalizationFilter: unify yeh/kaf variants, map final
    heh+ZWNJ to ae, strip tatweel/ZWNJ and Arabic diacritics."""
    w = word.replace("ه‌", "ە")
    out = []
    for c in w:
        m = _CKB_MAP.get(c)
        if m is not None:
            out.append(m)
        elif c not in _CKB_DIACRITICS:
            out.append(c)
    return "".join(out)


# definite/plural/indefinite endings, longest first (light subset of
# SoraniStemmer's suffix table), stem >= 3
_CKB_SUFFIXES = tuple(sorted(
    ["ەکان", "ەکە",
     "ان", "ێک", "ەکانی",
     "یان", "ەوە"],
    key=len, reverse=True))


def sorani_stem(word: str) -> str:
    w = sorani_normalize(word)
    for suf in _CKB_SUFFIXES:
        if w.endswith(suf) and len(w) - len(suf) >= 3:
            return w[: -len(suf)]
    return w


def sorani_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("sorani", frozenset(), sorani_stem, **kw)


register_analyzer("irish", IrishAnalyzer())
register_analyzer("galician", galician_analyzer())
register_analyzer("sorani", sorani_analyzer())
