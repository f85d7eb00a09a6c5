"""Word-break goldens over the SHIPPED frequency dictionaries — the
reference's own test vectors run against the same public resource files
it loads (`analysis/wordbreak/WordBreakTokenizerTest.java:20-160`,
`JapaneseTokenizerTest.java:13-45`; dictionaries from
`src/main/resources/cs221_frequency_dictionary_{en,jp}.txt`)."""

from __future__ import annotations

import pytest

from mini_search_engine_ray.functions.analyzers import make_analyzer
from mini_search_engine_ray.functions.tokenizers import (
    UnbreakableTextError,
    WordBreakTokenizer,
    default_dict_path,
)


@pytest.fixture(scope="module")
def en():
    return WordBreakTokenizer.default("en")


@pytest.fixture(scope="module")
def jp():
    return WordBreakTokenizer.default("jp")


# (input, expected) — WordBreakTokenizerTest.java
EN_CASES = [
    ("catdog", ["cat", "dog"]),                      # testCanBreak
    ("你好我是一个人", ["你好", "我", "是", "一个", "人"]),  # testChinese
    ("さようなら友達", ["さようなら", "友達"]),         # testJapanese
    ("catdogcatdog", ["cat", "dog", "cat", "dog"]),  # testDuplication
    ("CATDOG", ["cat", "dog"]),                      # testUppercaseString
    ("       catdog     ", ["cat", "dog"]),          # testNotTrimString
    ("", []),                                        # testEmptyString
    (None, []),
    ("mecatdog", ["cat", "dog"]),                    # testContainStopWord
    ("something", ["something"]),                    # testProbCompare
]


@pytest.mark.parametrize("text,expected", EN_CASES)
def test_reference_golden_en(en, text, expected):
    assert en.tokenize(text) == expected


@pytest.mark.parametrize("text", ["xzy", "!@#$$"])
def test_unbreakable_raises(en, text):
    # testCanNotBreak / testInvalidCharacter (reference RuntimeException)
    with pytest.raises(UnbreakableTextError):
        en.tokenize(text)


JP_CASES = [
    ("さようなら友達", ["さようなら", "友達"]),
    ("ジンボはリンゴを食べる", ["ジン", "ボ", "は", "リンゴ", "を", "食べる"]),
    ("あなたを愛しています", ["あなた", "を", "愛し", "て", "い", "ます"]),
]


@pytest.mark.parametrize("text,expected", JP_CASES)
def test_reference_golden_jp(jp, text, expected):
    assert jp.tokenize(text) == expected


def test_long_text_goldens(en):
    """The reference's 20-second-timeout long tests (~900 chars,
    `WordBreakTokenizerTest.java` longTest1/longTest2)."""
    t1 = (
        "tosherlockholmessheisalwaysthewomanihaveseldomheardhimmentionherunderanyothernameinhiseyessheeclipsesandpredominatesthewholeofhersexitwasnotthathefeltanyemotionakintoloveforireneadlerallemotionsandthatoneparticularlywereabhorrenttohiscoldprecisebutadmirablybalancedmindhewasitakeitthemostperfectreasoningandobservingmachinethattheworldhasseenbutasaloverhewouldhaveplacedhimselfinafalsepositionheneverspokeofthesofterpassionssavewithagibeandasneertheywereadmirablethingsfortheobserverexcellentfordrawingtheveilfrommenmotivesandactionsbutforthetrainedreasonertoadmitsuchintrusionsintohisowndelicateandfinelyadjustedtemperamentwastointroduceadistractingfactorwhichmightthrowadoubtuponallhismentalresultsgritinasensitiveinstrumentoracrackinoneofhisownhighpowerlenseswouldnotbemoredisturbingthanastrongemotioninanaturesuchashisandyettherewasbutonewomantohimandthatwomanwasthelateireneadlerofdubiousandquestionablememory"
    )
    e1 = "sherlock holmes always woman seldom heard mention name eyes eclipses predominates whole sex felt emotion akin love irene adler emotions one particularly abhorrent cold precise admirably balanced mind take perfect reasoning observing machine world seen lover would placed false position never spoke softer passions save gibe sneer admirable things observer excellent drawing veil men motives actions trained reasoner admit intrusions delicate finely adjusted temperament introduce distracting factor might throw doubt upon mental results grit sensitive instrument crack one high power lenses would disturbing strong emotion nature yet one woman woman late irene adler dubious questionable memory"
    assert en.tokenize(t1) == e1.split(" ")

    t2 = (
        "ihadseenlittleofholmeslatelymymarriagehaddriftedusawayfromeachothermyowncompletehappinessandthehomecentredinterestswhichriseuparoundthemanwhofirstfindshimselfmasterofhisownestablishmentweresufficienttoabsorballmyattentionwhileholmeswholoathedeveryformofsocietywithhiswholesoulremainedinourlodgingsinbakerstreetburiedamonghisoldbooksandalternatingfromweektoweekbetweencocaineandambitionthedrowsinessofthedrugandthefierceenergyofhisownkeennaturehewasstillaseverdeeplyattractedbythestudyofcrimeandoccupiedhisimmensefacultiesandextraordinarypowersofobservationinfollowingoutthosecluesandclearingupthosemysterieswhichhadbeenabandonedashopelessbytheofficialpolicefromtimetotimeiheardsomevagueaccountofhisdoingsofhissummonstoodessainthecaseofthemurderofhisclearingupofthesingulartragedyoftheatkinsonbrothersattrincomaleeandfinallyofthemissionwhichhehadaccomplishedsodelicatelyandsuccessfullyforthereigningfamilyofhollandbeyondthesesignsofhisactivityhoweverwhichimerelysharedwithallthereadersofthedailypressiknewlittleofmyformerfriendandcompanion"
    )
    e2 = "seen little holmes lately marriage drifted us away complete happiness home centred interests rise around man first finds master establishment sufficient absorb attention holmes loathed every form society whole soul remained lodgings baker street buried among old books alternating week week cocaine ambition drowsiness drug fierce energy keen nature still ever deeply attracted study crime occupied immense faculties extraordinary powers observation following clues clearing mysteries abandoned hopeless official police time time heard vague account doings summons odessa case murder clearing singular tragedy atkinson brothers trincomalee finally mission accomplished delicately successfully reigning family holland beyond signs activity however merely shared readers daily press knew little former friend companion"
    assert en.tokenize(t2) == e2.split(" ")


def test_analyzer_registry_defaults():
    """`wordbreak` / `japanese` analyzers are usable without a
    hand-injected dictionary."""
    wb = make_analyzer("wordbreak_nostem")
    assert wb.analyze("catdog") == ["cat", "dog"]
    ja = make_analyzer("japanese")
    assert ja.analyze("さようなら友達") == ["さようなら", "友達"]
    # stemming composition: wordbreak + Porter
    wbs = make_analyzer("wordbreak")
    assert wbs.analyze("computerscience") == ["comput", "scienc"]


def test_dict_paths_exist():
    import os

    assert os.path.exists(default_dict_path("en"))
    assert os.path.exists(default_dict_path("jp"))


def test_task_kernel_cache_keeps_dictionaries_apart(tmp_path, monkeypatch):
    """Phase-A tasks share one cached kernel per worker process
    (`tokenize_explode_task`): two dictionary files tokenized in one
    process give their own terms, a repeat batch reuses the kernel, and
    a dictionary rewritten in place is loaded anew."""
    import pyarrow as pa

    from mini_search_engine_ray.stages import ingest

    monkeypatch.setattr(ingest, "_TE_CACHE", {})
    batch = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                      "content": pa.array(["hotdog", "dogfish"])})

    def terms(path):
        out = ingest.tokenize_explode_task(
            batch, analyzer="wordbreak_nostem", num_buckets=1, salt=1,
            positional=False, wordbreak_dict_path=str(path))
        return sorted(out["vocab"].combine_chunks().flatten().to_pylist())

    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("hot 100\ndog 100\nfish 100\n")
    b.write_text("hotdog 100\ndogfish 100\n")
    assert terms(a) == ["dog", "fish", "hot"]
    assert terms(b) == ["dogfish", "hotdog"]
    assert terms(a) == ["dog", "fish", "hot"]
    assert len(ingest._TE_CACHE) == 2
    a.write_text("hotdog 100\ndog 100\nfish 100\nextra 1\n")
    assert terms(a) == ["dog", "fish", "hotdog"]


def test_rebuild_with_another_dictionary(ray_session, tmp_path, monkeypatch):
    """The dictionary is part of a dictionary analyzer's build
    fingerprint: rebuilding into the same directory with another
    dictionary rebuilds (its meta and terms are the new dictionary's),
    while a repeat with the same dictionary is skipped as complete."""
    import pyarrow as pa
    import ray.data as rd

    from mini_search_engine_ray.pipelines import build
    from mini_search_engine_ray.state.searcher import IndexSearcher

    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("hot 100\ndog 100\n")
    b.write_text("hotdog 100\n")
    corpus = pa.table({"doc_id": pa.array([0], pa.int64()),
                       "content": pa.array(["hotdog"], pa.large_string())})
    idx = str(tmp_path / "idx")

    def run(path):
        return build.build_index(
            rd.from_arrow(corpus), idx, analyzer="wordbreak_nostem",
            num_buckets=1, n_docs=1, write_docstore=False,
            wordbreak_dict_path=str(path))

    run(a)
    assert IndexSearcher(idx).df("hot") == 1
    meta = run(b)
    assert meta["wordbreak_dict_path"] == str(b)
    assert meta["shards_skipped"] == 0
    s = IndexSearcher(idx)
    assert (s.df("hotdog"), s.df("hot")) == (1, 0)

    def fail(*args, **kwargs):
        raise AssertionError("a completed build was redone")

    monkeypatch.setattr(build, "write_exchange", fail)
    again = run(b)
    assert (again["shards_skipped"], again["fingerprint"]) == (1, meta["fingerprint"])
