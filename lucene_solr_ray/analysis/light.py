"""Light stemmers + normalizers for non-Latin scripts (public published
algorithms; reference chains under ``lucene/analysis/common/src/java/org/
apache/lucene/analysis/``):

- Arabic: ``ar/ArabicNormalizer.java`` + ``ar/ArabicStemmer.java`` —
  Larkey/Ballesteros/Connell "light-10" stemming: orthographic
  normalization, one definite-article/conjunction prefix strip, then
  plural/feminine suffix strips.
- Persian: ``fa/PersianNormalizer.java`` — orthographic unification
  (Arabic kaf/yeh forms -> Farsi forms, heh variants); the reference
  chain deliberately has NO stemmer, only normalization + stop words.
- Czech: ``cz/CzechStemmer.java`` — light stemmer (Dolamic & Savoy):
  case-ending removal, possessive removal, final palatalization fold.
- Hindi: ``hi/HindiNormalizer.java`` + ``hi/HindiStemmer.java`` — light
  stemmer (Ramanathan & Rao): nukta/matraa normalization + one
  longest-suffix strip.

These are restatements of the published algorithm descriptions, not
ports of the Java sources; tests pin the documented behaviors.
"""

from __future__ import annotations

from .analyzers import (
    Analyzer,
    StandardAnalyzer,
    VocabMapAnalyzer,
    register_analyzer,
)

# ---------------------------------------------------------------------------
# Arabic
# ---------------------------------------------------------------------------

# tatweel + harakat (fathatan..sukun) + superscript alef are removed
_AR_DELETE = {0x0640, *range(0x064B, 0x0653), 0x0670}
_AR_MAP = {
    0x0622: "ا", 0x0623: "ا", 0x0625: "ا",  # hamza->alef
    0x0649: "ي",                                      # dotless->yeh
    0x0629: "ه",                                      # teh marbuta->heh
}
_AR_PREFIXES = ("ال", "وال",
                "بال", "كال",
                "فال", "لل", "و")
_AR_SUFFIXES = ("ها", "ان", "ات",
                "ون", "ين", "يه",
                "ية", "ه", "ة", "ي")


def arabic_normalize(word: str) -> str:
    out = []
    for ch in word:
        o = ord(ch)
        if o in _AR_DELETE:
            continue
        out.append(_AR_MAP.get(o, ch))
    return "".join(out)


def arabic_stem(word: str) -> str:
    """Light-10: strip ONE article/conjunction prefix (keeping >= 2
    chars; the bare waw needs >= 3 remaining), then strip each suffix
    in list order while >= 2 chars remain."""
    w = arabic_normalize(word)
    for p in sorted(_AR_PREFIXES, key=len, reverse=True):
        keep = 3 if p == "و" else 2
        if w.startswith(p) and len(w) - len(p) >= keep:
            w = w[len(p):]
            break
    for s in _AR_SUFFIXES:
        if w.endswith(s) and len(w) - len(s) >= 2:
            w = w[: -len(s)]
    return w


ARABIC_STOP_WORDS = frozenset("""
من في على و ان الى هذا هذه ذلك تلك التي الذي كان كانت لم لن ما لا هو هي
هم عن مع او أو اذا إذا ثم بعد قبل عند كل بين حتى قد لقد كما فيه منها منه
ليس ولا وما وهو وهي نحن انت أنت انا أنا
""".split())

# ---------------------------------------------------------------------------
# Persian
# ---------------------------------------------------------------------------

_FA_MAP = {
    0x0643: "ک",   # arabic kaf -> farsi keheh
    0x064A: "ی",   # arabic yeh -> farsi yeh
    0x0649: "ی",   # dotless yeh -> farsi yeh
    0x06AA: "ک",   # swash kaf -> keheh
    0x0629: "ه",   # teh marbuta -> heh
    0x06C0: "ه",   # heh+hamza -> heh
    0x06CD: "ی",   # yeh with tail -> yeh
}
_FA_DELETE = {0x0640, *range(0x064B, 0x0653), 0x200C}  # +ZWNJ


def persian_normalize(word: str) -> str:
    out = []
    for ch in word:
        o = ord(ch)
        if o in _FA_DELETE:
            continue
        out.append(_FA_MAP.get(o, ch))
    return "".join(out)


PERSIAN_STOP_WORDS = frozenset("""
و در به از که این را با است برای آن یک خود تا بر ها من ما او هم نیز یا
اما اگر هر چه بود شد شده باشد های كه
""".split())

# ---------------------------------------------------------------------------
# Czech
# ---------------------------------------------------------------------------

_CS_CASE = tuple(sorted(
    """atech ětem etem atům ech ich ích ého ěmi emi ému ěte ete ěti eti
    iho ího ími imu ách ata aty ých ama ami ové ovi ými em es ém ím ům
    at ám os us ým mi ou a e i o u y á é í ý ě""".split(),
    key=len, reverse=True))
_CS_POSS = ("ov", "in", "ův")
_CS_PALATAL = [
    ("čt", "ck"), ("št", "sk"),
    ("c", "k"), ("č", "k"), ("z", "h"), ("ž", "h"),
]


def czech_stem(word: str) -> str:
    """Dolamic-Savoy light stemmer: drop the longest case ending while
    keeping >= 3 chars, drop a possessive suffix, fold the palatalized
    final consonant back."""
    w = word
    for suf in _CS_CASE:
        if w.endswith(suf) and len(w) - len(suf) >= 3:
            w = w[: -len(suf)]
            break
    for suf in _CS_POSS:
        if w.endswith(suf) and len(w) - len(suf) >= 3:
            w = w[: -len(suf)]
            break
    for pal, base in _CS_PALATAL:
        if w.endswith(pal):
            w = w[: -len(pal)] + base
            break
    return w


CZECH_STOP_WORDS = frozenset("""
a aby ale ani az až bez bude budem budes by byl byla byli bylo být co což
či další dnes do ho i jak jake jaké je jeho jej jejich jen jenž ještě ji
jako jsem jsme jsou jsi k kam kde kdo když ke která které který kteří ku
ma má mezi mi mít mně mnou muze může my na nad nam nám nas nás ne nebo
nejsou není nez než ni nic nove nové novy nový o od ode on ona oni ono
pak po pod podle pokud pouze prave právě pred před pres přes pri při pro
proc proč proto protoze protože prvni první s se si sve své svych svých
svym svým svymi svými ta tak take také takze takže tato te té tedy ten
tento teto této tim tím timto tímto to tohle toho tomto tomu tu tuto ty
tyto u uz už v vam vám vas vás ve vice více vsak však z za zde ze že
""".split())

# ---------------------------------------------------------------------------
# Hindi
# ---------------------------------------------------------------------------

# nukta decompositions fold to the base consonant; candrabindu->anusvara
_HI_MAP = {
    0x0929: "न", 0x0931: "र", 0x0934: "ळ",
    0x0958: "क", 0x0959: "ख", 0x095A: "ग",
    0x095B: "ज", 0x095C: "ड", 0x095D: "ढ",
    0x095E: "फ", 0x095F: "य",
    0x0901: "ं",                       # candrabindu -> anusvara
    0x0945: "े", 0x0949: "ो",     # candra e/o -> e/o
}
_HI_DELETE = {0x093C, 0x094D}               # nukta, virama

_HI_SUFFIXES = tuple(sorted(
    """ो े ू ु ी ि ा कर ाओ िए ाई ाए ने नी ना ते ीं ती ता ाँ ां ों ें
    ाकर ाइए ाईं ाया ेगी ेगा ोगी ोगे ाने ाना ाते ाती ाता तीं ाओं ाएं
    ुओं ुएं ुआं""".split(),
    key=len, reverse=True))


def hindi_normalize(word: str) -> str:
    out = []
    for ch in word:
        o = ord(ch)
        if o in _HI_DELETE:
            continue
        out.append(_HI_MAP.get(o, ch))
    return "".join(out)


def hindi_stem(word: str) -> str:
    """Ramanathan-Rao light stemmer: one longest matraa/suffix strip,
    keeping at least one more char than the suffix length."""
    w = hindi_normalize(word)
    for suf in _HI_SUFFIXES:
        if w.endswith(suf) and len(w) > len(suf) + 1:
            return w[: -len(suf)]
    return w


HINDI_STOP_WORDS = frozenset("""
के का एक में की है यह और से हैं को पर इस होता कि जो कर मे गया करने किया
लिये अपने ने बनी नहीं तो ही या एवं दिया हो इसका था द्वारा हुआ तक साथ
करना वाले बाद लिए आप कुछ सकते किसी ये इसके सबसे इसमें थे दो होने वह वे
करते बहुत कहा वर्ग कई करें होती अपनी उनके थी यदि हुई जा ना इसे कहते जब
होते कोई हुए व जैसे सभी करता उनकी तरह उस आदि इसकी
""".split())


# ---------------------------------------------------------------------------
# Finnish (light stemmer, Savoy CLEF-2003; reference chain
# fi/FinnishAnalyzer.java uses Snowball, fi/FinnishLightStemmer.java is
# the published light alternative restated here)
# ---------------------------------------------------------------------------

_FI_V = frozenset("aeiouy")
_FI_FOLD = str.maketrans("äåö", "aao")


def _fi_step1(w: str) -> str:
    if len(w) > 8:
        if w.endswith("kin"):
            return _fi_step1(w[:-3])  # clitics stack: talossakinko...
        if w.endswith("ko"):
            return _fi_step1(w[:-2])
    if len(w) > 11:
        if w.endswith("dellinen"):
            return w[:-8]
        if w.endswith("dellisuus"):
            return w[:-9]
    return w


def _fi_step2(w: str) -> str:
    if len(w) > 5:
        if w.endswith(("lla", "tse", "sti")):
            return w[:-3]
        if w.endswith("ni"):
            return w[:-2]
        if w.endswith("aa"):
            return w[:-1]
    return w


def _fi_step3(w: str) -> str:
    if len(w) > 8:
        if w.endswith("nnen"):
            return w[:-4] + "s"
        if w.endswith("ntena"):
            return w[:-5] + "s"
        if w.endswith("tten"):
            return w[:-4]
        if w.endswith("eiden"):
            return w[:-5]
    if len(w) > 6:
        if w.endswith(("neen", "niin", "seen", "teen", "inen")):
            return w[:-4]
        if w[-3] == "h" and w[-2] in _FI_V and w[-1] == "n":
            return w[:-3]
        if w.endswith("den"):
            return w[:-3] + "s"
        if w.endswith("ksen"):
            return w[:-4] + "s"
        if w.endswith(("ssa", "sta", "lla", "lta", "tta", "ksi", "lle")):
            return w[:-3]
    if len(w) > 5:
        if w.endswith(("na", "ne")):
            return w[:-2]
        if w.endswith("nei"):
            return w[:-3]
    if len(w) > 4:
        if w.endswith(("ja", "ta")):
            return w[:-2]
        if w[-1] == "a":
            return w[:-1]
        if w[-1] == "n":
            return w[:-2] if w[-2] in _FI_V else w[:-1]
    return w


def finnish_light_stem(word: str) -> str:
    """Savoy's CLEF-2003 Finnish light stemmer: fold ä/å/ö, strip
    clitics, case endings, then normalize final vowels and degeminate
    k/p/t (``fi/FinnishLightStemmer.java`` documents the same steps)."""
    if len(word) < 4:
        return word
    w = word.translate(_FI_FOLD)
    w = _fi_step3(_fi_step2(_fi_step1(w)))
    # norm1: hde -> ksi rewrite (in place), then final-letter strips
    if len(w) > 5 and w.endswith("hde"):
        w = w[:-3] + "ksi"
    if len(w) > 4 and w.endswith(("ei", "at")):
        w = w[:-2]
    elif len(w) > 3 and w[-1] in "tsjeai":
        w = w[:-1]
    # norm2: long-word final e/o/u, then final i, then degeminate kpt
    if len(w) > 8 and w[-1] in "eou":
        w = w[:-1]
    if len(w) > 4:
        if w[-1] == "i":
            w = w[:-1]
        if len(w) > 4:
            out = [w[0]]
            for ch in w[1:]:
                if ch == out[-1] and ch in "kpt":
                    continue
                out.append(ch)
            w = "".join(out)
    return w


FINNISH_STOP_WORDS = frozenset("""
olla olen olet on olemme olette ovat ole oli olisi olisit olisin
olisimme olisitte olisivat olit olin olimme olitte olivat ollut olleet
en et ei emme ette eivät minä minun minut minua minussa minusta minuun
minulla minulta minulle sinä sinun sinut sinua hän hänen häntä se sen
sitä me meidän meidät te teidän he heidän tämä tämän tätä nämä näiden
joka jonka mikä mitä ja jos koska kuin mutta niin sekä sillä tai vaan
vai vaikka kanssa mukaan noin poikki yli kun nyt itse
""".split())

# ---------------------------------------------------------------------------
# Hungarian (light stemmer, Savoy UniNE "Light Stemming Approaches for
# the French, Portuguese, German and Hungarian Languages"; reference
# hu/HungarianAnalyzer.java + hu/HungarianLightStemmer.java)
# ---------------------------------------------------------------------------

_HU_V = frozenset("aeiouy")
_HU_FOLD = {ord(a): b for a, b in zip("áëéíóőõöúűũûü",
                                      "aeeioooouuuuu")}


def _hu_case(w: str) -> str:
    if len(w) > 6 and w.endswith("kent"):
        return w[:-4]
    if len(w) > 5:
        if w.endswith(("nak", "nek", "val", "vel", "ert", "rol", "ban",
                       "ben", "bol", "nal", "nel", "hoz", "hez", "tol")):
            return w[:-3]
        if w.endswith(("al", "el")) and w[-3] not in _HU_V \
                and w[-3] == w[-4]:
            return w[:-3]
    if len(w) > 4:
        if w.endswith(("at", "et", "ot", "va", "ve", "ra", "re", "ba",
                       "be", "ul", "ig")):
            return w[:-2]
        if w.endswith(("on", "en")) and w[-3] not in _HU_V:
            return w[:-2]
        if w[-1] in "tn":
            return w[:-1]
        if w[-1] in "ae" and w[-2] == w[-3] and w[-2] not in _HU_V:
            return w[:-2]
    return w


def _hu_possessive(w: str) -> str:
    if len(w) > 6:
        if w[-5] not in _HU_V and w.endswith(("atok", "otok", "etek")):
            return w[:-4]
        if w.endswith(("itek", "itok")):
            return w[:-4]
    if len(w) > 5:
        if w[-4] not in _HU_V and w.endswith(("unk", "tok", "tek")):
            return w[:-3]
        if w[-4] in _HU_V and w.endswith("juk"):
            return w[:-3]
        if w.endswith("ink"):
            return w[:-3]
    if len(w) > 4:
        if w[-3] not in _HU_V and w.endswith(
                ("am", "em", "om", "ad", "ed", "od", "uk")):
            return w[:-2]
        if w[-3] in _HU_V and w.endswith(("nk", "ja", "je")):
            return w[:-2]
        if w.endswith(("im", "id", "ik")):
            return w[:-2]
    if len(w) > 3:
        if w[-1] in "ae" and w[-2] not in _HU_V:
            return w[:-1]
        if w[-1] in "md" and w[-2] in _HU_V:
            return w[:-1]
        if w[-1] == "i":
            return w[:-1]
    return w


def hungarian_light_stem(word: str) -> str:
    """Savoy UniNE Hungarian light stemmer: fold accents, strip case
    then possessive then plural endings, drop a trailing a/e/i/o
    (``hu/HungarianLightStemmer.java`` documents the same steps)."""
    w = word.translate(_HU_FOLD)
    w = _hu_possessive(_hu_case(w))
    if len(w) > 3 and w[-1] == "k":
        w = w[:-2] if (w[-2] in "aoe" and len(w) > 4) else w[:-1]
    if len(w) > 3 and w[-1] in "aeio":
        w = w[:-1]
    return w


HUNGARIAN_STOP_WORDS = frozenset("""
a az egy és vagy hogy nem is de ha már csak meg mint el volt lesz van
vannak lehet minden ez azt ezt ami aki amely ahol mikor akkor így úgy
még majd itt ott őt ők mi ti én te ő be ki le fel át rá se sem pedig
mert ezért tehát illetve például saját volt
""".split())

# ---------------------------------------------------------------------------
# Bulgarian (BulStem, Nakov 2003; reference bg/BulgarianAnalyzer.java +
# bg/BulgarianStemmer.java)
# ---------------------------------------------------------------------------


def _bg_article(w: str) -> str:
    if len(w) > 6 and w.endswith("ият"):
        return w[:-3]
    if len(w) > 5 and w.endswith(("ът", "то", "те", "та", "ия")):
        return w[:-2]
    if len(w) > 4 and w.endswith("ят"):
        return w[:-2]
    return w


def _bg_plural(w: str) -> str:
    if len(w) > 6:
        if w.endswith("овци"):
            return w[:-3]
        if w.endswith("ове"):
            return w[:-3]
        if w.endswith("еве"):
            return w[:-3] + "й"
    if len(w) > 5:
        if w.endswith("ища"):
            return w[:-3]
        if w.endswith("та"):
            return w[:-2]
        if w.endswith("ци"):
            return w[:-2] + "к"
        if w.endswith("зи"):
            return w[:-2] + "г"
        if w[-3] == "е" and w[-1] == "и":
            return w[:-3] + "я" + w[-2]
    if len(w) > 4:
        if w.endswith("си"):
            return w[:-2] + "х"
        if w.endswith("и"):
            return w[:-1]
    return w


def bulgarian_stem(word: str) -> str:
    """BulStem light stemmer: strip the definite article and plural
    endings, final-vowel cleanup, ен->н and ъN->N folds
    (``bg/BulgarianStemmer.java`` documents the same steps)."""
    w = word
    if len(w) < 4:
        return w
    if len(w) > 5 and w.endswith("ища"):
        return w[:-3]
    w = _bg_plural(_bg_article(w))
    if len(w) > 3:
        if w.endswith("я"):
            w = w[:-1]
        if len(w) > 3 and w[-1] in "аое":
            w = w[:-1]
    if len(w) > 4 and w.endswith("ен"):
        w = w[:-2] + "н"
    if len(w) > 5 and w[-2] == "ъ":
        w = w[:-2] + w[-1]
    return w


BULGARIAN_STOP_WORDS = frozenset("""
а аз ако але без беше би бил била били било благодаря близо бъдат бъде
в вас ваш ваша вероятно вече взема ви вие винаги все всеки всички всичко
всяка във въпреки върху г ги главен главна главно глас го д да дали до
докато докога дори досега доста е едва един ето за зад заедно заради
засега затова защо защото и из или им има имат иска й каза как каква
какво както какъв като кога когато което които кой който колко която
къде където към ли м ме между мен ми мнозина мога могат може моля
момента му н на над назад най направи напред например нас не него нея
ни ние никой нито но нужда нужно няма обаче около освен особено от
отгоре отново още пак по повече повечето под поне поради после почти
прави пред преди през при пък първо с са само се сега си скоро след
сме според сред срещу сте съм със също т тази така такива такъв там
твой те тези ти то това тогава този той толкова точно трябва тук тъй
тя тях у харесва ч че често чрез ще щом я
""".split())

# ---------------------------------------------------------------------------
# Latvian (light stemmer; reference lv/LatvianStemmer.java restates the
# same published approach: strip the longest primary inflectional
# suffix — case/number for nouns, +gender/definitiveness for
# adjectives — keeping >= 3 chars and >= 1 vowel; un-palatalize when a
# declension II/V/VI suffix came off)
# ---------------------------------------------------------------------------

_LV_V = frozenset("aeiouāīēū")
# (suffix, vowel-count-required-beyond, palatalizes)
_LV_AFFIXES = (
    ("ajiem", 3, False), ("ajai", 3, False),
    ("ajam", 2, False), ("ajām", 2, False),
    ("ajos", 2, False), ("ajās", 2, False),
    ("iem", 2, True), ("ajā", 2, False),
    ("ais", 2, False), ("ai", 2, False),
    ("ei", 2, False), ("ām", 1, False),
    ("am", 1, False), ("ēm", 1, False),
    ("īm", 1, False), ("im", 1, False),
    ("um", 1, False), ("us", 1, True),
    ("as", 1, False), ("ās", 1, False),
    ("es", 1, False), ("os", 1, True),
    ("ij", 1, False), ("īs", 1, False),
    ("ēs", 1, False), ("is", 1, False),
    ("ie", 1, False), ("u", 1, True),
    ("a", 1, True), ("i", 1, True),
    ("e", 1, False), ("ā", 1, False),
    ("ē", 1, False), ("ī", 1, False),
    ("ū", 1, False), ("o", 1, False),
    ("s", 0, False), ("š", 0, False),
)
_LV_UNPAL = (
    ("šņ", "sn"), ("žņ", "zn"), ("šļ", "sl"),
    ("žļ", "zl"), ("ļņ", "ln"), ("ļļ", "ll"),
)


def _lv_unpalatalize(w: str, removed: str) -> str:
    if removed == "u":
        # gen.pl.-only folds
        if w.endswith("kš"):
            return w[:-2] + "kst"
        if w.endswith("ņņ"):
            return w[:-2] + "nn"
    if w.endswith(("pj", "bj", "mj", "vj")):  # labial consonant + j
        return w[:-1]
    for pal, base in _LV_UNPAL:
        if w.endswith(pal):
            return w[:-2] + base
    if w and w[-1] in "čļņ":
        return w[:-1] + {"č": "c", "ļ": "l", "ņ": "n"}[w[-1]]
    return w


def latvian_stem(word: str) -> str:
    n_vowels = sum(c in _LV_V for c in word)
    for suf, vc, pal in _LV_AFFIXES:
        if (n_vowels > vc and len(word) >= len(suf) + 3
                and word.endswith(suf)):
            w = word[: -len(suf)]
            return _lv_unpalatalize(w, suf[0]) if pal else w
    return word


LATVIAN_STOP_WORDS = frozenset("""
aiz ap ar apakš ārpus augšpus bez caur dēļ gar iekš iz kopš labad lejpus
līdz no otrpus pa par pār pēc pie pirms pret priekš starp šaipus uz viņpus
virs virspus zem apakšpus un bet jo ja ka lai tomēr tikko turpretī arī
kaut gan tādēļ tā ne tikvien vien kā ir te vai kamēr ar diezin droši
diemžēl nebūt ik it taču nu pat tiklab iekšpus nedz tik nevis turpretim
jeb iekam iekām iekāms kolīdz līdzko tiklīdz jebšu tālab tāpēc nekā
itin jā jau jel nē nezin tad tikai vis tak iekams vien būt biju biji
bija bijām bijāt esmu esi esam esat būšu būsi būs būsim būsiet tikt
tiku tiki tika tikām tikāt tieku tiec tiek tiekam tiekat tikšu tiks
tiksim tiksiet tapt tapi tapāt topat tapšu tapsi taps tapsim tapsiet
kļūt kļuvu kļuvi kļuva kļuvām kļuvāt kļūstu kļūsti kļūst kļūstam
kļūstat kļūšu kļūsi kļūs kļūsim kļūsiet varēt varēju varējām varēšu
varēsim var varēji varējāt varēsi varēsiet varat varēja varēs
""".split())


def latvian_analyzer(**kw) -> Analyzer:
    from .snowball import StemmingAnalyzer

    return StemmingAnalyzer("latvian", LATVIAN_STOP_WORDS, latvian_stem,
                            **kw)


# ---------------------------------------------------------------------------
# Indonesian (confix-stripping stemmer, Tala 2003 "A Study of Stemming
# Effects on Information Retrieval in Bahasa Indonesia"; reference
# id/IndonesianAnalyzer.java + id/IndonesianStemmer.java)
# ---------------------------------------------------------------------------

_ID_V = frozenset("aeiou")


def indonesian_stem(word: str, derivational: bool = True) -> str:
    """Confix-stripping: particles and possessive pronouns come off when
    the word keeps > 2 syllables; derivational prefixes strip in two
    orders with sound-change substitutions (meny-/peny- -> s, pen- ->
    t), and suffixes are blocked by the removed-prefix combinations the
    morphology disallows (e.g. ke- ... -kan never co-occur)."""
    w = word
    syl = sum(c in _ID_V for c in w)
    removed: set[str] = set()

    def particle(w):
        nonlocal syl
        if w.endswith(("kah", "lah", "pun")):
            syl -= 1
            return w[:-3]
        return w

    def possessive(w):
        nonlocal syl
        if w.endswith(("ku", "mu")):
            syl -= 1
            return w[:-2]
        if w.endswith("nya"):
            syl -= 1
            return w[:-3]
        return w

    def first_prefix(w):
        nonlocal syl
        rules = [
            ("meng", "MENG", 4, None),
            ("meny", "MENG", 3, "s"),   # meny+V -> s+V
            ("men", "MENG", 3, None),
            ("mem", "MENG", 3, None),
            ("me", "MENG", 2, None),
            ("peng", "PENG", 4, None),
            ("peny", "PENG", 3, "s"),   # peny+V -> s+V
            ("peny", "PENG", 4, None),
            ("pen", "PENG", 2, "t"),    # pen+V -> t+V
            ("pen", "PENG", 3, None),
            ("pem", "PENG", 3, None),
            ("di", "DI", 2, None),
            ("ter", "TER", 3, None),
            ("ke", "KE", 2, None),
        ]
        for pre, flag, ndel, subst in rules:
            if not w.startswith(pre):
                continue
            if subst is not None:
                # sound-change rules only apply before a vowel:
                # meny+V -> s+V, peny+V -> s+V, pen+V -> t+V
                if len(w) <= len(pre) or w[len(pre)] not in _ID_V:
                    continue
                removed.add(flag)
                syl -= 1
                return subst + w[len(pre):]
            removed.add(flag)
            syl -= 1
            return w[ndel:]
        return w

    def second_prefix(w):
        nonlocal syl
        if w.startswith("ber") or w == "belajar":
            removed.add("BER")
            syl -= 1
            return w[3:]
        if (w.startswith("be") and len(w) > 4 and w[2] not in _ID_V
                and w[3] == "e" and w[4] == "r"):
            removed.add("BER")
            syl -= 1
            return w[2:]
        if w.startswith("per") or w == "pelajar":
            syl -= 1
            return w[3:]
        if w.startswith("pe"):
            removed.add("PE")
            syl -= 1
            return w[2:]
        return w

    def suffix(w):
        nonlocal syl
        if w.endswith("kan") and not removed & {"KE", "PENG", "PE"}:
            syl -= 1
            return w[:-3]
        if w.endswith("an") and not removed & {"DI", "MENG", "TER"}:
            syl -= 1
            return w[:-2]
        if (w.endswith("i") and not w.endswith("si")
                and not removed & {"BER", "KE", "PENG"}):
            syl -= 1
            return w[:-1]
        return w

    if syl > 2:
        w = particle(w)
    if syl > 2:
        w = possessive(w)
    if not derivational:
        return w
    old = w
    if syl > 2:
        w = first_prefix(w)
    if w != old:  # a first-order rule fired -> suffix, then 2nd order
        old = w
        if syl > 2:
            w = suffix(w)
        if w != old and syl > 2:
            w = second_prefix(w)
    else:
        if syl > 2:
            w = second_prefix(w)
        if syl > 2:
            w = suffix(w)
    return w


INDONESIAN_STOP_WORDS = frozenset("""
ada adalah adanya adapun agak agaknya agar akan akankah akhirnya aku
akulah amat amatlah anda andalah antar antara antaranya apa apaan apabila
apakah apalagi apatah atau ataukah ataupun bagai bagaikan bagaimana
bagaimanakah bagaimanapun bagi bahkan bahwa bahwasanya banyak beberapa
begini beginian beginikah beginilah begitu begitukah begitulah begitupun
belum belumlah berapa berapakah berapalah berapapun bila bilakah bisa
bisakah boleh bolehkah buat bukan bukankah bukanlah bukannya dahulu dalam
dan dapat dari daripada dekat demi demikian dengan depan di dia dialah
dini diri dirinya engkau hanya hanyalah harus haruslah harusnya hendak
ia ialah ingin inginkah ini inikah inilah itu itukah itulah jangan
jangankan janganlah jika jikalau juga justru kala kalau kalaulah kami
kamilah kamu kamulah kan kapan kapankah kapanpun karena ke kecil kemudian
kenapa kepada kepadanya ketika kini kita kitalah kok lagi lagian lah lain
lainnya lalu lama lamanya lebih maka makanya makin malah malahan mampu
mana manakala manalagi masih masihkah masing mau maupun melainkan melalui
memang mengapa mereka merekalah meski meskipun mungkin mungkinkah nanti
nantinya nyaris oleh olehnya pada padahal padanya paling pantas para per
percuma pernah pula pun rasa rasanya saat saatnya saja sajalah saling
sama sambil sampai sana sangat sangatlah saya sayalah se sebab sebabnya
sebagai sebagaimana sebagainya sebaliknya sebanyak sebegini sebegitu
sebelum sebelumnya sebenarnya seberapa sebetulnya sebisanya sebuah sedang
sedangkan sedikit sedikitnya segala segalanya segera seharusnya sehingga
sejak sejenak sekali sekalian sekalipun sekarang sekecil seketika sekiranya
sekitar sekitarnya sela selagi selain selaku selalu selama selamanya
seluruh seluruhnya semacam semakin semasih semaunya sementara sempat
semua semuanya semula sendiri sendirinya seolah seorang sepanjang sepantasnya
seperti sepertinya sering seringnya serta serupa sesaat sesama sesegera
sesekali seseorang sesuatu sesuatunya sesudah sesudahnya setelah setempat
setengah seterusnya setiap setiba setibanya setidaknya sewaktu siapa
siapakah siapapun sini sinilah suatu sudah sudahkah sudahlah supaya tadi
tadinya tak tanpa tapi telah tentang tentu tentulah tentunya terdiri
terhadap terhadapnya tetapi tiap tiba tidak tidakkah tidaklah toh waduh
wah wahai walau walaupun yaitu yakni yang
""".split())

# ---------------------------------------------------------------------------
# Turkish (reference tr/TurkishAnalyzer.java = StandardTokenizer ->
# ApostropheFilter -> TurkishLowerCaseFilter -> StopFilter -> Snowball;
# here: apostrophe strip + Turkish-aware case fold + stop words. The
# Snowball Turkish stemmer is out of scope; the chain is registered
# without stemming, like the reference's Persian chain.)
# ---------------------------------------------------------------------------

_TR_APOSTROPHES = "'’ʼ"
# Turkish casing: dotted capital İ -> i, dotless capital I -> ı
_TR_CASE = {0x130: "i", 0x49: "ı"}


def turkish_fold(token: str) -> str | None:
    """ApostropheFilter (``tr/ApostropheFilter.java`` — keep the part
    before the first apostrophe: Türkiye'nin -> türkiye) + Turkish
    lowercase (``tr/TurkishLowerCaseFilter.java`` İ->i, I->ı)."""
    for ap in _TR_APOSTROPHES:
        i = token.find(ap)
        if i >= 0:
            token = token[:i]
    return token.translate(_TR_CASE).lower()


TURKISH_STOP_WORDS = frozenset("""
acaba altı ama ancak arada aslında ayrıca bana bazı belki ben benden
beni benim beri beş bile bin bir biri birkaç birkez birçok birşey biz
bizden bize bizi bizim bu buna bunda bundan bunlar bunları bunların
bunu bunun burada böyle böylece da daha dahi de defa değil diye diğer
doksan dokuz dolayı dört edecek eden ederek edilecek ediliyor edilmesi
ediyor elli en etmesi etti ettiği gibi göre halen hangi hatta hem henüz
hep hepsi her herhangi herkesin hiç iki ile ilgili ise itibaren itibariyle
için işte kadar karşın kez ki kim kimden kime kimi kimse kırk milyar
milyon mu mü mı nasıl ne neden nedenle nerde nerede nereye niye niçin
o olan olarak oldu olduklarını olduğu olduğunu olmadı olmadığı olmak
olması olmayan olmaz olsa olsun olup olur olursa oluyor on ona ondan
onlar onlardan onları onların onu onun otuz oysa pek rağmen sadece
sanki sekiz seksen sen senden seni senin siz sizden sizi sizin tarafından
trilyon tüm var vardı ve veya ya yani yapacak yapılan yapılması yapıyor
yapmak yaptı yaptığı yaptığını yapılan yedi yerine yetmiş yine yirmi
yoksa yüz zaten çok çünkü öyle üzere üç şey şeyden şeyi şeyler şu şuna
şunda şundan şunları şunu
""".split())


class TurkishAnalyzer(VocabMapAnalyzer):
    """Apostrophe strip + Turkish case fold BEFORE the stop filter
    (apostrophe/case both affect stop matching: O'nun -> o)."""

    name = "turkish"

    def __init__(self):
        self.base = StandardAnalyzer(stop_words=frozenset())

    def _one(self, t: str) -> str | None:
        t = turkish_fold(t)
        if not t or t in TURKISH_STOP_WORDS:
            return None
        return t


# ---------------------------------------------------------------------------
# Analyzer registration (StemmingAnalyzer shape from snowball.py)
# ---------------------------------------------------------------------------

def _make(name, stop, stem_fn):
    from .snowball import StemmingAnalyzer

    return StemmingAnalyzer(name, stop, stem_fn)


def arabic_analyzer(**kw) -> Analyzer:
    from .snowball import StemmingAnalyzer

    return StemmingAnalyzer("arabic", ARABIC_STOP_WORDS, arabic_stem, **kw)


def persian_analyzer(**kw) -> Analyzer:
    from .snowball import StemmingAnalyzer

    return StemmingAnalyzer("persian", PERSIAN_STOP_WORDS,
                            persian_normalize, **kw)


def czech_analyzer(**kw) -> Analyzer:
    from .snowball import StemmingAnalyzer

    return StemmingAnalyzer("czech", CZECH_STOP_WORDS, czech_stem, **kw)


def hindi_analyzer(**kw) -> Analyzer:
    from .snowball import StemmingAnalyzer

    return StemmingAnalyzer("hindi", HINDI_STOP_WORDS, hindi_stem, **kw)


def finnish_analyzer(**kw) -> Analyzer:
    from .snowball import StemmingAnalyzer

    return StemmingAnalyzer("finnish", FINNISH_STOP_WORDS,
                            finnish_light_stem, **kw)


def hungarian_analyzer(**kw) -> Analyzer:
    from .snowball import StemmingAnalyzer

    return StemmingAnalyzer("hungarian", HUNGARIAN_STOP_WORDS,
                            hungarian_light_stem, **kw)


def bulgarian_analyzer(**kw) -> Analyzer:
    from .snowball import StemmingAnalyzer

    return StemmingAnalyzer("bulgarian", BULGARIAN_STOP_WORDS,
                            bulgarian_stem, **kw)


def indonesian_analyzer(**kw) -> Analyzer:
    from .snowball import StemmingAnalyzer

    return StemmingAnalyzer("indonesian", INDONESIAN_STOP_WORDS,
                            indonesian_stem, **kw)


register_analyzer("arabic", arabic_analyzer())
register_analyzer("persian", persian_analyzer())
register_analyzer("czech", czech_analyzer())
register_analyzer("hindi", hindi_analyzer())
register_analyzer("finnish", finnish_analyzer())
register_analyzer("hungarian", hungarian_analyzer())
register_analyzer("bulgarian", bulgarian_analyzer())
register_analyzer("indonesian", indonesian_analyzer())
register_analyzer("latvian", latvian_analyzer())
register_analyzer("turkish", TurkishAnalyzer())
