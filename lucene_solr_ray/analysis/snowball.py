"""Snowball stemmers + non-English analyzer families.

The reference ships ~40 language packages under
``lucene/analysis/common/src/java/org/apache/lucene/analysis/`` — the
Snowball family via ``snowball/SnowballFilter.java:44`` (generated from
the published Snowball algorithms), plus per-language analyzers
(``de/GermanAnalyzer.java``, ``fr/FrenchAnalyzer.java``,
``es/SpanishAnalyzer.java``) that compose tokenizer + stop list +
(elision for French) + stemmer. Everything here is implemented from the
PUBLIC algorithm descriptions (M.F. Porter's Snowball site; J. Savoy's
light/minimal French stemming papers) — no generated code.

- :func:`german_stem` — the Snowball German algorithm (prelude ß->ss and
  consonant-u/y marking, R1/R2 with the 3-letter R1 floor, three suffix
  steps, umlaut-removing postlude).
- :func:`spanish_stem` — the Snowball Spanish algorithm (RV/R1/R2,
  attached-pronoun step 0, standard suffixes, verb suffixes, residual
  step, acute-accent postlude).
- :func:`russian_stem` — the Snowball Russian algorithm (RV-scoped
  perfective-gerund / reflexive / adjectival / verb / noun groups,
  derivational ость in R2, tidy-up step).
- :func:`french_minimal_stem` — Savoy's minimal French stemmer (plural +
  feminine + final-e normalization; the shape of
  ``fr/FrenchMinimalStemFilter.java``); Italian/Portuguese light
  stemmers alongside.
- :class:`StemmingAnalyzer` — StandardAnalyzer chain + language stop
  list + optional elision + stem function, a
  :class:`~.analyzers.VocabMapAnalyzer` (stem cost scales with the
  batch VOCABULARY, not the token stream).
"""

from __future__ import annotations

from .analyzers import StandardAnalyzer, VocabMapAnalyzer, register_analyzer

# ---------------------------------------------------------------------------
# German (Snowball)
# ---------------------------------------------------------------------------

_DE_V = frozenset("aeiouyäöü")
_DE_S_END = frozenset("bdfghklmnrt")
_DE_ST_END = frozenset("bdfghklmnt")


def _r1_r2(word: str, vowels: frozenset) -> tuple[int, int]:
    """Standard R1/R2: region after the first non-vowel following a
    vowel (R2 = same definition applied inside R1)."""
    n = len(word)

    def after(start: int) -> int:
        for i in range(start, n - 1):
            if word[i] in vowels and word[i + 1] not in vowels:
                return i + 2
        return n

    r1 = after(0)
    return r1, after(r1)


def german_stem(word: str) -> str:
    if len(word) < 2:
        return word
    w = word.replace("ß", "ss")
    # prelude: u/y between vowels are consonants (upper-case marks them)
    ch = list(w)
    for i in range(1, len(ch) - 1):
        if ch[i] in "uy" and ch[i - 1] in _DE_V and ch[i + 1] in _DE_V:
            ch[i] = ch[i].upper()
    w = "".join(ch)
    r1, r2 = _r1_r2(w, _DE_V)
    r1 = max(r1, 3)  # region before R1 must hold >= 3 letters

    # step 1: em ern er | e en es | s (after valid s-ending)
    for suf in ("ern", "em", "er", "en", "es", "e", "s"):
        if w.endswith(suf):
            if suf == "s":
                if len(w) < 2 or w[-2] not in _DE_S_END:
                    break
            if len(w) - len(suf) >= r1:
                w = w[: -len(suf)]
                if suf in ("e", "en", "es") and w.endswith("niss"):
                    w = w[:-1]
            break

    # step 2: en er est | st (after valid st-ending with >= 3 before)
    for suf in ("est", "en", "er", "st"):
        if w.endswith(suf):
            if suf == "st":
                if len(w) < 6 or w[-3] not in _DE_ST_END:
                    break
            if len(w) - len(suf) >= r1:
                w = w[: -len(suf)]
            break

    # step 3: d-suffixes (R2)
    for suf in ("isch", "lich", "heit", "keit", "end", "ung", "ig", "ik"):
        if not w.endswith(suf):
            continue
        start = len(w) - len(suf)
        if suf in ("end", "ung"):
            if start >= r2:
                w = w[:start]
                if w.endswith("ig") and len(w) - 2 >= r2 \
                        and not w.endswith("eig"):
                    w = w[:-2]
        elif suf in ("ig", "ik", "isch"):
            if start >= r2 and not (start >= 1 and w[start - 1] == "e"):
                w = w[:start]
        elif suf in ("lich", "heit"):
            if start >= r2:
                w = w[:start]
                for pre in ("er", "en"):
                    if w.endswith(pre) and len(w) - 2 >= r1:
                        w = w[:-2]
                        break
        elif suf == "keit":
            if start >= r2:
                w = w[:start]
                for pre, plen in (("lich", 4), ("ig", 2)):
                    if w.endswith(pre) and len(w) - plen >= r2:
                        w = w[: -plen]
                        break
        break

    # postlude: unmark consonant U/Y, strip umlauts
    return (w.replace("U", "u").replace("Y", "y")
            .replace("ä", "a").replace("ö", "o").replace("ü", "u"))


# ---------------------------------------------------------------------------
# Spanish (Snowball)
# ---------------------------------------------------------------------------

_ES_V = frozenset("aeiouáéíóúü")

_ES_PRON = ("selas", "selos", "sela", "selo", "las", "les", "los", "nos",
            "me", "se", "la", "le", "lo")
_ES_PRE_A = ("iéndo", "ándo", "ár", "ér", "ír")
_ES_PRE_B = ("iendo", "ando", "ar", "er", "ir")

_ES_STEP1 = [
    # (suffixes sorted longest-first within the group, region, action)
    (("amientos", "imientos", "amiento", "imiento", "anzas", "icos",
      "icas", "ismos", "ables", "ibles", "istas", "anza", "icos",
      "osos", "osas", "ico", "ica", "ismo", "able", "ible", "ista",
      "oso", "osa"), "r2", "del"),
    (("adoras", "adores", "aciones", "ancias", "adora", "ación", "antes",
      "ancia", "ador", "ante"), "r2", "del_ic"),
    (("logías", "logía"), "r2", "log"),
    (("uciones", "ución"), "r2", "u"),
    (("encias", "encia"), "r2", "ente"),
    (("amente",), "r1", "amente"),
    (("mente",), "r2", "mente"),
    (("idades", "idad"), "r2", "idad"),
    (("ivas", "ivos", "iva", "ivo"), "r2", "iv"),
]

_ES_2A = ("yeron", "yendo", "yamos", "yais", "yan", "yen", "yas", "yes",
          "ya", "ye", "yo", "yó")

_ES_2B_GU = ("emos", "éis", "en", "es")
_ES_2B = (
    "aríamos", "eríamos", "iríamos", "iéramos", "iésemos", "aríais",
    "aseis", "eríais", "iríais", "ieseis", "asteis", "isteis", "ábamos",
    "áramos", "ásemos", "arían", "arías", "aréis", "erían", "erías",
    "eréis", "irían", "irías", "iréis", "ieran", "iesen", "ieron",
    "iendo", "ieras", "ieses", "abais", "arais", "íamos", "emos", "arán",
    "arás", "aría", "erán", "erás", "ería", "irán", "irás", "iría",
    "iera", "iese", "aste", "iste", "aban", "aran", "asen", "aron",
    "ando", "abas", "adas", "idas", "aras", "ases", "íais", "ados",
    "idos", "amos", "imos", "ará", "aré", "erá", "eré", "irá", "iré",
    "aba", "ada", "ida", "ara", "ase", "ían", "ado", "ido", "ías",
    "áis", "ía", "ad", "ed", "id", "an", "ió", "ar", "er", "ir", "as",
    "ís", "ó", "a" if False else "", "e" if False else "",
)
_ES_2B = tuple(s for s in _ES_2B if s)

_ES_3_DEL = ("os", "a", "o", "á", "í", "ó")


def _es_rv(w: str) -> int:
    n = len(w)
    if n < 3:
        return n
    if w[1] not in _ES_V:
        # consonant second letter: after the next following vowel
        for i in range(2, n):
            if w[i] in _ES_V:
                return i + 1
        return n
    if w[0] in _ES_V and w[1] in _ES_V:
        # two vowels: after the next consonant
        for i in range(2, n):
            if w[i] not in _ES_V:
                return i + 1
        return n
    return 3  # consonant-vowel: after the third letter


def _strip_acutes(w: str) -> str:
    return (w.replace("á", "a").replace("é", "e").replace("í", "i")
            .replace("ó", "o").replace("ú", "u"))


def spanish_stem(word: str) -> str:
    w = word
    if len(w) < 3:
        return _strip_acutes(w)
    rv = _es_rv(w)
    r1, r2 = _r1_r2(w, _ES_V)

    # step 0: attached pronoun (longest pronoun whose preceding verb
    # group lies in RV; group (a) additionally loses its acute accent)
    for p in _ES_PRON:
        if not w.endswith(p):
            continue
        base = w[: -len(p)]
        for pre in _ES_PRE_A:
            if base.endswith(pre) and len(base) - len(pre) >= rv:
                w = base[: -len(pre)] + _strip_acutes(pre)
                break
        else:
            for pre in _ES_PRE_B:
                if base.endswith(pre) and len(base) - len(pre) >= rv:
                    w = base
                    break
            else:
                if base.endswith("yendo") and len(base) >= 6 \
                        and base[-6] == "u" and len(base) - 5 >= rv:
                    w = base
        break
    rv = _es_rv(w)
    r1, r2 = _r1_r2(w, _ES_V)

    # step 1: standard suffix removal (longest match across all groups)
    best = None
    for sufs, region, action in _ES_STEP1:
        for s in sufs:
            if w.endswith(s) and (best is None or len(s) > len(best[0])):
                best = (s, region, action)
    removed = False
    if best is not None:
        s, region, action = best
        start = len(w) - len(s)
        bound = r1 if region == "r1" else r2
        if start >= bound:
            if action == "del":
                w = w[:start]
            elif action == "del_ic":
                w = w[:start]
                if w.endswith("ic") and len(w) - 2 >= r2:
                    w = w[:-2]
            elif action == "log":
                w = w[:start] + "log"
            elif action == "u":
                w = w[:start] + "u"
            elif action == "ente":
                w = w[:start] + "ente"
            elif action == "amente":
                w = w[:start]
                if w.endswith("iv") and len(w) - 2 >= r2:
                    w = w[:-2]
                    if w.endswith("at") and len(w) - 2 >= r2:
                        w = w[:-2]
                else:
                    for pre in ("os", "ic", "ad"):
                        if w.endswith(pre) and len(w) - 2 >= r2:
                            w = w[:-2]
                            break
            elif action == "mente":
                w = w[:start]
                for pre in ("ante", "able", "ible"):
                    if w.endswith(pre) and len(w) - 4 >= r2:
                        w = w[:-4]
                        break
            elif action == "idad":
                w = w[:start]
                for pre, n in (("abil", 4), ("ic", 2), ("iv", 2)):
                    if w.endswith(pre) and len(w) - n >= r2:
                        w = w[: -n]
                        break
            elif action == "iv":
                w = w[:start]
                if w.endswith("at") and len(w) - 2 >= r2:
                    w = w[:-2]
            removed = True

    if not removed:
        # step 2a: verb suffixes beginning y (preceded by u)
        done2a = False
        for s in sorted(_ES_2A, key=len, reverse=True):
            if w.endswith(s) and len(w) - len(s) >= rv \
                    and len(w) - len(s) >= 1 \
                    and w[len(w) - len(s) - 1] == "u":
                w = w[: -len(s)]
                done2a = True
                break
        if not done2a:
            # step 2b: other verb suffixes
            cands = sorted(set(_ES_2B) | set(_ES_2B_GU),
                           key=len, reverse=True)
            for s in cands:
                if w.endswith(s) and len(w) - len(s) >= rv:
                    w = w[: -len(s)]
                    if s in _ES_2B_GU and w.endswith("gu"):
                        w = w[:-1]
                    break

    # step 3: residual suffix
    rv = _es_rv(w)
    for s in _ES_3_DEL:
        if w.endswith(s) and len(w) - len(s) >= rv:
            w = w[: -len(s)]
            break
    else:
        for s in ("e", "é"):
            if w.endswith(s) and len(w) - 1 >= rv:
                w = w[:-1]
                if w.endswith("gu") and len(w) - 1 >= rv:
                    w = w[:-1]
                break

    return _strip_acutes(w)


# ---------------------------------------------------------------------------
# French (Savoy minimal stemmer + elision)
# ---------------------------------------------------------------------------

def french_minimal_stem(word: str) -> str:
    """Savoy's minimal French stemmer (plural/feminine normalization —
    the ``fr/FrenchMinimalStemFilter.java`` shape): chevaux->cheval,
    final x/s/r/e/é stripped, doubled final letter undoubled."""
    w = word
    if len(w) < 6:
        return w
    if w[-1] == "x":
        if w.endswith("aux"):
            return w[:-2] + "l"
        w = w[:-1]
    if w and w[-1] == "s":
        w = w[:-1]
    if w and w[-1] == "r":
        w = w[:-1]
    if w and w[-1] == "e":
        w = w[:-1]
    if w and w[-1] == "é":
        w = w[:-1]
    if len(w) >= 2 and w[-1] == w[-2]:
        w = w[:-1]
    return w


_FR_ELISION = frozenset(
    ["l", "m", "t", "qu", "n", "s", "j", "d", "c", "jusqu", "quoiqu",
     "lorsqu", "puisqu",
     # Italian articles/prepositions share the same filter
     "un", "dell", "nell", "sull", "all", "dall", "quest", "senz"])


def elide(token: str) -> str:
    """ElisionFilter (``util/ElisionFilter.java``): strip a French
    article/particle before an apostrophe (l'avion -> avion)."""
    for apo in ("'", "’"):
        if apo in token:
            head, _, rest = token.partition(apo)
            if head in _FR_ELISION and rest:
                return rest
    return token


# ---------------------------------------------------------------------------
# Russian (Snowball)
# ---------------------------------------------------------------------------

_RU_V = frozenset("аеиоуыэюя")

_RU_PGERUND_1 = ("вшись", "вши", "в")            # preceded by а/я
_RU_PGERUND_2 = ("ившись", "ывшись", "ивши", "ывши", "ив", "ыв")
_RU_ADJECTIVE = (
    "ими", "ыми", "его", "ого", "ему", "ому", "ее", "ие", "ые", "ое",
    "ей", "ий", "ый", "ой", "ем", "им", "ым", "ом", "их", "ых", "ую",
    "юю", "ая", "яя", "ою", "ею",
)
_RU_PARTICIPLE_1 = ("ем", "нн", "вш", "ющ", "щ")  # preceded by а/я
_RU_PARTICIPLE_2 = ("ивш", "ывш", "ующ")
_RU_VERB_1 = (                                    # preceded by а/я
    "ешь", "нно", "ете", "йте", "ла", "на", "ли", "ем", "ло", "но",
    "ет", "ют", "ны", "ть", "й", "л", "н",
)
_RU_VERB_2 = (
    "ейте", "уйте", "ила", "ыла", "ена", "ите", "или", "ыли", "ило",
    "ыло", "ено", "ует", "уют", "ены", "ить", "ыть", "ишь", "ей", "уй",
    "ил", "ыл", "им", "ым", "ен", "ят", "ит", "ыт", "ую", "ю",
)
_RU_NOUN = (
    "иями", "ями", "ами", "ией", "иям", "ием", "иях", "ев", "ов", "ие",
    "ье", "еи", "ии", "ей", "ой", "ий", "ям", "ем", "ам", "ом", "ах",
    "ях", "ию", "ью", "ия", "ья", "и", "е", "а", "о", "у", "ы", "ь",
    "ю", "я", "й",
)


def _ru_longest(w: str, rv: int, sufs: tuple,
                need_ajya: bool = False) -> str | None:
    """Longest suffix of ``w`` from ``sufs`` lying in RV (and, for the
    а/я groups, preceded by а or я with that letter also in RV)."""
    best = None
    for s in sufs:
        if len(s) > len(best or "") and w.endswith(s) \
                and len(w) - len(s) >= rv:
            if need_ajya:
                i = len(w) - len(s) - 1
                if i < rv or i < 0 or w[i] not in "ая":
                    continue
            best = s
    return best


def russian_stem(word: str) -> str:
    """Snowball Russian (the published algorithm): RV-scoped suffix
    groups — perfective gerund, reflexive, adjectival (adjective +
    optional participle), verb, noun — then final-и removal, the
    derivational ость/ост in R2, and the tidy-up step."""
    w = word.replace("ё", "е")
    n = len(w)
    rv = n
    for i in range(n):
        if w[i] in _RU_V:
            rv = i + 1
            break
    r1, r2 = _r1_r2(w, _RU_V)

    # step 1: perfective gerund, else [reflexive] + adjectival|verb|noun
    s = _ru_longest(w, rv, _RU_PGERUND_2)
    s2 = _ru_longest(w, rv, _RU_PGERUND_1, need_ajya=True)
    if s2 and (not s or len(s2) >= len(s)):
        s = s2
    if s:
        w = w[: -len(s)]
    else:
        for refl in ("ся", "сь"):
            if w.endswith(refl) and len(w) - 2 >= rv:
                w = w[:-2]
                break
        adj = _ru_longest(w, rv, _RU_ADJECTIVE)
        if adj:
            w = w[: -len(adj)]
            p = _ru_longest(w, rv, _RU_PARTICIPLE_2)
            p2 = _ru_longest(w, rv, _RU_PARTICIPLE_1, need_ajya=True)
            if p2 and (not p or len(p2) >= len(p)):
                p = p2
            if p:
                w = w[: -len(p)]
        else:
            v = _ru_longest(w, rv, _RU_VERB_2)
            v2 = _ru_longest(w, rv, _RU_VERB_1, need_ajya=True)
            if v2 and (not v or len(v2) >= len(v)):
                v = v2
            if v:
                w = w[: -len(v)]
            else:
                nn = _ru_longest(w, rv, _RU_NOUN)
                if nn:
                    w = w[: -len(nn)]

    # step 2: final и
    if w.endswith("и") and len(w) - 1 >= rv:
        w = w[:-1]
    # step 3: derivational (R2)
    for s3 in ("ость", "ост"):
        if w.endswith(s3) and len(w) - len(s3) >= r2:
            w = w[: -len(s3)]
            break
    # step 4: tidy up
    if w.endswith("нн") and len(w) - 1 >= rv:
        w = w[:-1]
    else:
        sup = _ru_longest(w, rv, ("ейше", "ейш"))
        if sup:
            w = w[: -len(sup)]
            if w.endswith("нн") and len(w) - 1 >= rv:
                w = w[:-1]
    if w.endswith("ь") and len(w) - 1 >= rv:
        w = w[:-1]
    return w


RUSSIAN_STOP_WORDS = frozenset("""
и в во не что он на я с со как а то все она так его но да ты к у же
вы за бы по только ее мне было вот от меня еще нет о из ему теперь
когда даже ну вдруг ли если уже или ни быть был него до вас нибудь
опять уж вам ведь там потом себя ничего ей может они тут где есть
надо ней для мы тебя их чем была сам чтоб без будто чего раз тоже
себе под будет ж тогда кто этот того потому этого какой совсем ним
здесь этом один почти мой тем чтобы нее сейчас были куда зачем всех
никогда можно при наконец два об другой хоть после над больше тот
через эти нас про всего них какая много разве три эту моя впрочем
хорошо свою этой перед иногда лучше чуть том нельзя такой им более
всегда конечно всю между это
""".split())


# ---------------------------------------------------------------------------
# Italian / Portuguese light stemmers (the "light" family of Savoy's
# stemming papers — the it/ItalianLightStemmer.java and
# pt/PortugueseMinimalStemmer.java shapes; plural/gender normalization
# only, formulated independently)
# ---------------------------------------------------------------------------

_IT_DIA = str.maketrans("àèéìíòóùú", "aeeiioouu")


def italian_light_stem(word: str) -> str:
    """Diacritic fold + final-vowel (plural/gender) removal + final
    undoubling: libro/libri -> libr, gatto/gatti -> gat."""
    w = word.translate(_IT_DIA)
    if len(w) < 4:
        return w
    if w[-1] in "aeio":
        w = w[:-1]
    if len(w) >= 2 and w[-1] == w[-2]:
        w = w[:-1]
    return w


def portuguese_minimal_stem(word: str) -> str:
    """Plural-only reduction (the RSLP plural step shape):
    corações -> coração, animais -> animal, livros -> livro."""
    w = word
    if len(w) < 4 or not w.endswith("s"):
        return w
    if w.endswith(("ões", "ães")):
        return w[:-3] + "ão"
    if w.endswith("ais"):
        return w[:-3] + "al"
    if w.endswith(("éis", "eis")):
        return w[:-3] + "el"
    if w.endswith("óis"):
        return w[:-3] + "ol"
    if w.endswith("ns"):
        return w[:-2] + "m"
    if w.endswith("les") and len(w) >= 5:
        return w[:-2]
    if w.endswith("res") and len(w) >= 5:
        return w[:-2]
    if not w.endswith("ss"):
        return w[:-1]
    return w


# ---------------------------------------------------------------------------
# Stop lists (standard Snowball lists, practical high-frequency subsets)
# ---------------------------------------------------------------------------

GERMAN_STOP_WORDS = frozenset("""
aber alle allem allen aller alles als also am an ander andere anderem
anderen anderer anderes auch auf aus bei bin bis bist da damit dann das
dass dein deine dem den der des dessen dich die dies diese diesem diesen
dieser dieses dir doch dort du durch ein eine einem einen einer eines
einig einige er es etwas euer eure für gegen gewesen hab habe haben hat
hatte hatten hier hin hinter ich ihm ihn ihnen ihr ihre im in indem ins
ist ja jede jedem jeden jeder jedes jene jenem jenen jener jenes jetzt
kann kein keine keinem keinen keiner keines können könnte machen man
mein meine mich mir mit muss musste nach nicht nichts noch nun nur ob
oder ohne sehr sein seine sich sie sind so soll sollte sondern sonst
um und uns unser unter viel vom von vor war waren warst was weg weil
weiter welche welchem welchen welcher welches wenn werde werden wie
wieder will wir wird wirst wo wollen wollte während würde würden zu
zum zur zwar zwischen
""".split())

FRENCH_STOP_WORDS = frozenset("""
au aux avec ce ces dans de des du elle en et eux il ils je la le les
leur lui ma mais me même mes moi mon ne nos notre nous on ou où par pas
pour qu que qui sa se ses son sur ta te tes toi ton tu un une vos votre
vous c d j l à m n s t y été étée étées étés étant suis es est sommes
êtes sont serai seras sera serons serez seront serais serait serions
seriez seraient étais était étions étiez étaient fus fut fûmes fûtes
furent sois soit soyons soyez soient fusse fusses fût ai as avons avez
ont aurai auras aura aurons aurez auront avais avait avions aviez
avaient eut eûmes eûtes eurent aie aies ait ayons ayez aient eusse
eusses eût ceci cela celà cet cette ici leurs quel quels quelle quelles
sans soi
""".split())

SPANISH_STOP_WORDS = frozenset("""
a al algo algunas algunos ante antes como con contra cual cuando de del
desde donde durante e el ella ellas ellos en entre era erais eran eras
eres es esa esas ese eso esos esta estaba estado estamos estan estar
estas este esto estos fue fueron fui fuimos ha habia han has hasta hay
la las le les lo los mas me mi mis mucho muchos muy más mí nada ni no
nos nosotras nosotros nuestra nuestras nuestro nuestros o os otra otras
otro otros para pero poco por porque que quien quienes qué se sea sean
segun ser si sido siendo sin sobre sois somos son soy su sus sí también
tanto te tenemos tengo tiene tienen todo todos tu tus tú un una uno
unos vosotras vosotros vuestra vuestras vuestro vuestros y ya yo él
ésta éstas éste éstos
""".split())


# ---------------------------------------------------------------------------
# Analyzer
# ---------------------------------------------------------------------------

class StemmingAnalyzer(VocabMapAnalyzer):
    """StandardTokenizer + lowercase + (elision) + language stop list +
    stem function — the per-language analyzer shape
    (``de/GermanAnalyzer.java:121-133`` createComponents)."""

    def __init__(self, name: str, stop_words, stem_fn,
                 use_elision: bool = False,
                 stem_exclusions: frozenset | set = frozenset()):
        self.name = name
        self.base = StandardAnalyzer(stop_words=frozenset())
        self.stop_words = frozenset(stop_words)
        self.stem_fn = stem_fn
        self.use_elision = use_elision
        self.stem_exclusions = frozenset(stem_exclusions)

    def _one(self, t: str) -> str | None:
        if self.use_elision:
            t = elide(t)
        if t in self.stop_words:
            return None
        if t in self.stem_exclusions:
            return t
        return self.stem_fn(t)


def german_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("german", GERMAN_STOP_WORDS, german_stem, **kw)


def french_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("french", FRENCH_STOP_WORDS,
                            french_minimal_stem, use_elision=True, **kw)


def spanish_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("spanish", SPANISH_STOP_WORDS, spanish_stem,
                            **kw)


ITALIAN_STOP_WORDS = frozenset("""
a ad al alla alle agli allo ai anche che chi ci come con da dal dalla
de dei del della delle dello di e ed era erano essere fra gli ha hanno
ho i il in io la le lei li lo loro lui ma mi ne nei nel nella no noi
non o per più quella quelle quelli quello questa queste questi questo
se sei si sia siamo sono su sua sue sui sul sulla suo tra tu tua tue
tuo un una uno vi voi è
""".split())

PORTUGUESE_STOP_WORDS = frozenset("""
a ao aos aquela aquelas aquele aqueles as até com como da das de dela
delas dele deles depois do dos e ela elas ele eles em entre era eram
essa essas esse esses esta estas este estes eu foi foram isso isto já
lhe lhes mais mas me mesmo meu meus minha minhas muito na nas nem no
nos nossa nossas nosso nossos num numa o os ou para pela pelas pelo
pelos por qual quando que quem se sem ser seu seus só sua suas também
te tem tu tua tuas um uma você vocês
""".split())


def italian_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("italian", ITALIAN_STOP_WORDS,
                            italian_light_stem, use_elision=True, **kw)


def portuguese_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("portuguese", PORTUGUESE_STOP_WORDS,
                            portuguese_minimal_stem, **kw)


def russian_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("russian", RUSSIAN_STOP_WORDS, russian_stem,
                            **kw)


register_analyzer("german", german_analyzer())
register_analyzer("french", french_analyzer())
register_analyzer("spanish", spanish_analyzer())
register_analyzer("italian", italian_analyzer())
register_analyzer("portuguese", portuguese_analyzer())
register_analyzer("russian", russian_analyzer())


# ---------------------------------------------------------------------------
# Scandinavian Snowball stemmers (published algorithms; reference chains
# sv/SwedishAnalyzer.java, no/NorwegianAnalyzer.java, da/DanishAnalyzer.java
# each = StandardTokenizer + lowercase + stop + SnowballFilter)
# ---------------------------------------------------------------------------

_SV_V = frozenset("aeiouyäåö")
_SV_S_END = frozenset("bcdfghjklmnoprtvy")
_SV_STEP1 = tuple(sorted(
    """a arna erna heterna orna ad e ade ande arne are aste en anden aren
    heten ern ar er heter or as arnas ernas ornas es ades andes ens arens
    hetens erns at andet het ast""".split(),
    key=len, reverse=True))
_SV_STEP3 = tuple(sorted(("lig", "ig", "els", "löst", "fullt"),
                         key=len, reverse=True))


def swedish_stem(word: str) -> str:
    w = word
    r1, _ = _r1_r2(w, _SV_V)
    r1 = max(r1, 3)
    # step 1: longest suffix in R1 (list -> delete; s after valid s-end)
    for suf in _SV_STEP1 + ("s",):
        if w.endswith(suf) and len(w) - len(suf) >= r1:
            if suf == "s":
                if len(w) >= 2 and w[-2] in _SV_S_END:
                    w = w[:-1]
            else:
                w = w[: -len(suf)]
            break
    # step 2: shorten dd gd nn dt gt kt tt in R1 by one
    for suf in ("dd", "gd", "nn", "dt", "gt", "kt", "tt"):
        if w.endswith(suf) and len(w) - 2 >= r1:
            w = w[:-1]
            break
    # step 3: lig ig els delete; löst->lös fullt->full (in R1)
    for suf in _SV_STEP3:
        if w.endswith(suf) and len(w) - len(suf) >= r1:
            if suf in ("löst", "fullt"):
                w = w[:-1]
            else:
                w = w[: -len(suf)]
            break
    return w


_NO_V = frozenset("aeiouyæåø")
_NO_S_END = frozenset("bcdfghjlmnoprtvyz")
_NO_STEP1 = tuple(sorted(
    """a e ede ande ende ane ene hetene en heten ar er heter as es edes
    endes enes hetenes ens hetens ers ets et het ast""".split(),
    key=len, reverse=True))
_NO_STEP3 = tuple(sorted(
    ("leg", "eleg", "ig", "eig", "lig", "elig", "els", "lov", "elov",
     "slov", "hetslov"), key=len, reverse=True))


def norwegian_stem(word: str) -> str:
    w = word
    r1, _ = _r1_r2(w, _NO_V)
    r1 = max(r1, 3)
    # step 1: longest in R1 among (list -> delete | erte/ert -> er |
    # s after valid s-ending, where k counts if not preceded by a vowel)
    for suf in tuple(sorted(_NO_STEP1 + ("erte", "ert", "s"),
                            key=len, reverse=True)):
        if w.endswith(suf) and len(w) - len(suf) >= r1:
            if suf in ("erte", "ert"):
                w = w[: -len(suf)] + "er"
            elif suf == "s":
                prev = w[-2] if len(w) >= 2 else ""
                ok = prev in _NO_S_END or (
                    prev == "k" and (len(w) < 3 or w[-3] not in _NO_V))
                if ok:
                    w = w[:-1]
            else:
                w = w[: -len(suf)]
            break
    # step 2: dt vt in R1 -> drop the t
    for suf in ("dt", "vt"):
        if w.endswith(suf) and len(w) - 2 >= r1:
            w = w[:-1]
            break
    # step 3: delete in R1
    for suf in _NO_STEP3:
        if w.endswith(suf) and len(w) - len(suf) >= r1:
            w = w[: -len(suf)]
            break
    return w


_DA_V = frozenset("aeiouyæåø")
_DA_S_END = frozenset("abcdfghjklmnoprtvyzå")
_DA_STEP1 = tuple(sorted(
    """hed ethed ered e erede ende erende ene erne ere en heden eren er
    heder erer heds es endes erendes enes ernes eres ens hedens erens
    ers ets erets et eret""".split(),
    key=len, reverse=True))


def danish_stem(word: str) -> str:
    w = word
    r1, _ = _r1_r2(w, _DA_V)
    r1 = max(r1, 3)

    def step2(s: str) -> str:
        for suf in ("gd", "dt", "gt", "kt"):
            if s.endswith(suf) and len(s) - 2 >= r1:
                return s[:-1]
        return s

    # step 1: longest in R1 (list -> delete; s after valid s-ending)
    for suf in _DA_STEP1 + ("s",):
        if w.endswith(suf) and len(w) - len(suf) >= r1:
            if suf == "s":
                if len(w) >= 2 and w[-2] in _DA_S_END:
                    w = w[:-1]
            else:
                w = w[: -len(suf)]
            break
    w = step2(w)
    # step 3: igst -> drop st; then ig lig elig els in R1 -> delete and
    # redo step 2; løst -> løs
    if w.endswith("igst"):
        w = w[:-2]
    for suf in ("elig", "lig", "els", "ig"):
        if w.endswith(suf) and len(w) - len(suf) >= r1:
            w = step2(w[: -len(suf)])
            break
    else:
        if w.endswith("løst") and len(w) - 4 >= r1:
            w = w[:-1]
    # step 4 (undouble): final double consonant in R1 -> single
    if (len(w) >= 2 and w[-1] == w[-2] and w[-1] not in _DA_V
            and len(w) - 1 >= r1):
        w = w[:-1]
    return w


# ---------------------------------------------------------------------------
# Dutch Snowball stemmer (published algorithm; reference chain
# nl/DutchAnalyzer.java = StandardTokenizer + lowercase + stop +
# SnowballFilter(Dutch))
# ---------------------------------------------------------------------------

_NL_V = frozenset("aeiouyè")
_NL_ACCENTS = str.maketrans("äëïöüáéíóú", "aeiouaeiou")


def dutch_stem(word: str) -> str:
    w = word.translate(_NL_ACCENTS)
    ch = list(w)
    n = len(ch)
    # prelude: initial y / y after vowel -> Y; i between vowels -> I
    for i in range(n):
        if ch[i] == "y" and (i == 0 or ch[i - 1] in _NL_V):
            ch[i] = "Y"
        elif (ch[i] == "i" and 0 < i < n - 1 and ch[i - 1] in _NL_V
              and ch[i + 1] in _NL_V):
            ch[i] = "I"
    w = "".join(ch)
    r1, r2 = _r1_r2(w, _NL_V)
    r1 = max(r1, 3)

    def undouble(s: str) -> str:
        for d in ("kk", "dd", "tt"):
            if s.endswith(d):
                return s[:-1]
        return s

    def del_en(s: str) -> str:
        # delete en/ene in R1 after a valid en-ending (non-vowel, not
        # gem), then undouble
        for suf in ("ene", "en"):
            if s.endswith(suf):
                start = len(s) - len(suf)
                if (start >= r1 and start >= 1
                        and s[start - 1] not in _NL_V
                        and not s.endswith("gem" + suf)):
                    return undouble(s[:start])
                break
        return s

    e_found = False
    # step 1: longest of heden | ene en | se s
    for suf in ("heden", "ene", "en", "se", "s"):
        if not w.endswith(suf):
            continue
        start = len(w) - len(suf)
        if suf == "heden":
            if start >= r1:
                w = w[:start] + "heid"
        elif suf in ("ene", "en"):
            w = del_en(w)
        else:  # se / s
            s_at = len(w) - 1
            prev = w[s_at - len(suf)] if s_at - len(suf) + 1 >= 1 else ""
            if start >= r1 and prev and prev not in _NL_V and prev != "j":
                w = w[:start]
        break
    # step 2: e in R1 after non-vowel -> delete, undouble
    if w.endswith("e") and len(w) - 1 >= r1 \
            and len(w) >= 2 and w[-2] not in _NL_V:
        w = undouble(w[:-1])
        e_found = True
    # step 3a: heid in R2 not after c -> delete, then the en-rule again
    if (w.endswith("heid") and len(w) - 4 >= r2
            and (len(w) < 5 or w[-5] != "c")):
        w = del_en(w[:-4])
    # step 3b: d-suffixes, longest first
    for suf in ("lijk", "baar", "end", "ing", "bar", "ig"):
        if not w.endswith(suf):
            continue
        start = len(w) - len(suf)
        if suf in ("end", "ing"):
            if start >= r2:
                w = w[:start]
                if (w.endswith("ig") and len(w) - 2 >= r2
                        and not w.endswith("eig")):
                    w = w[:-2]
                else:
                    w = undouble(w)
        elif suf == "ig":
            if start >= r2 and not w.endswith("eig"):
                w = w[:start]
        elif suf == "lijk":
            if start >= r2:
                w = w[:start]
                if w.endswith("e") and len(w) - 1 >= r1 \
                        and len(w) >= 2 and w[-2] not in _NL_V:
                    w = undouble(w[:-1])
        elif suf == "baar":
            if start >= r2:
                w = w[:start]
        elif suf == "bar":
            if start >= r2 and e_found:
                w = w[:start]
        break
    # step 4: undouble vowel — C(aa|ee|oo|uu)D with D a non-vowel != I
    if (len(w) >= 4 and w[-4] not in _NL_V
            and w[-3] == w[-2] and w[-3] in "aeou"
            and w[-1] not in _NL_V and w[-1] != "I"):
        w = w[:-3] + w[-2:]
    return w.replace("Y", "y").replace("I", "i")


SWEDISH_STOP_WORDS = frozenset("""
och det att i en jag hon som han på den med var sig för så till är men
ett om hade de av icke mig du henne då sin nu har inte hans honom skulle
hennes där min man ej vid kunde något från ut när efter upp vi dem vara
vad över än dig kan sina här ha mot alla under någon eller allt mycket
sedan ju denna själv detta åt utan varit hur ingen mitt ni bli blev oss
din dessa några deras blir mina samma vilken er sådan vår blivit dess
inom mellan sådant varför varje vilka ditt vem vilket sådana vart dina
vars vårt våra ert era vilkas
""".split())

NORWEGIAN_STOP_WORDS = frozenset("""
og i jeg det at en et den til er som på de med han av ikke ikkje der så
var meg seg men ett har om vi min mitt ha hadde hun nå over da ved fra
du ut sin dem oss opp man kan hans hvor eller hva skal selv sjøl her
alle vil bli ble blei blitt kunne inn når være kom noen noe ville dere
som deres kun ja etter ned skulle denne for deg si sine sitt mot å meget
hvorfor dette disse uten hvordan ingen din ditt blir samme hvilken
hvilke sånn inni mellom vår hver hvem hvis både bare enn fordi før
mange også slik vært
""".split())

DANISH_STOP_WORDS = frozenset("""
og i jeg det at en den til er som på de med han af ikke der var mig sig
men et har om vi min havde ham hun nu over da fra du ud sin dem os op
man hans hvor eller hvad skal selv her alle vil blev kunne ind når være
dog noget ville jo deres efter ned skulle denne end dette mit også under
have dig anden hende mine alt meget sit sine vor mod disse hvis din
nogle hos blive mange ad bliver hendes været thi jer sådan
""".split())

DUTCH_STOP_WORDS = frozenset("""
de en van ik te dat die in een hij het niet zijn is was op aan met als
voor had er maar om hem dan zou of wat mijn men dit zo door over ze zich
bij ook tot je mij uit der daar haar naar heb hoe heeft hebben deze u
want nog zal me zij nu ge geen omdat iets worden toch al waren veel meer
doen toen moet ben zonder kan hun dus alles onder ja eens hier wie werd
altijd doch wordt wezen kunnen ons zelf tegen na reeds wil kon niets uw
iemand geweest andere
""".split())


def swedish_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("swedish", SWEDISH_STOP_WORDS, swedish_stem,
                            **kw)


def norwegian_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("norwegian", NORWEGIAN_STOP_WORDS,
                            norwegian_stem, **kw)


def danish_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("danish", DANISH_STOP_WORDS, danish_stem,
                            **kw)


def dutch_analyzer(**kw) -> StemmingAnalyzer:
    return StemmingAnalyzer("dutch", DUTCH_STOP_WORDS, dutch_stem, **kw)


register_analyzer("swedish", swedish_analyzer())
register_analyzer("norwegian", norwegian_analyzer())
register_analyzer("danish", danish_analyzer())
register_analyzer("dutch", dutch_analyzer())
