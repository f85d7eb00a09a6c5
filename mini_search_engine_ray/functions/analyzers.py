"""Analyzer composition: tokenizer + stemmer -> analyzed token stream.

Mirrors the reference's plugin surface (`analysis/Analyzer.java`,
`analysis/ComposableAnalyzer.java:21-23`): an Analyzer is any object
with `analyze(text) -> list[str]`. The analyzed token stream defines
positions, term frequencies and doc lengths everywhere downstream.
"""

from __future__ import annotations

from typing import Callable, Protocol

from .porter import PorterStemmer
from .tokenizers import code_tokenize, naive_tokenize, punctuation_tokenize


class Analyzer(Protocol):
    def analyze(self, text: str | None) -> list[str]: ...


class ComposableAnalyzer:
    """tokenize -> stem each token (the reference's canonical analyzer)."""

    def __init__(
        self,
        tokenize: Callable[[str | None], list[str]] = punctuation_tokenize,
        stemmer: PorterStemmer | None = None,
    ) -> None:
        self.tokenize = tokenize
        self.stemmer = stemmer or PorterStemmer()

    def analyze(self, text: str | None) -> list[str]:
        stem = self.stemmer.stem
        return [stem(t) for t in self.tokenize(text)]


class NaiveAnalyzer:
    """lowercase + whitespace split, no stemming (debug analyzer)."""

    def analyze(self, text: str | None) -> list[str]:
        return naive_tokenize(text)


class PunctuationAnalyzer:
    """Punctuation tokenizer only (no stemming) — the SQL-oracle-friendly
    configuration used by the driver-checked queries."""

    def analyze(self, text: str | None) -> list[str]:
        return punctuation_tokenize(text)


class CodeAnalyzer:
    """Code-aware splitting (identifiers, camelCase/snake_case) + Porter
    stemming — the north-rule flagship analyzer for source-code corpora."""

    def __init__(self, stem: bool = True) -> None:
        self.stemmer = PorterStemmer() if stem else None

    def analyze(self, text: str | None) -> list[str]:
        toks = code_tokenize(text)
        if self.stemmer is None:
            return toks
        s = self.stemmer.stem
        return [s(t) for t in toks]


class WordBreakAnalyzer:
    """DP word-break tokenizer + Porter stemming (the reference's
    word-break analyzer composition; `analysis/WordBreakTokenizer.java`
    + `JapaneseTokenizer.java` are the same DP with a different
    dictionary). The 82k-entry dictionary loads ONCE per instance —
    i.e. once per Ray worker process, which caches its tokenize kernel
    (`stages/ingest.tokenize_explode_task`; SURVEY §2 ST1). With no
    `dict_path` the shipped public dictionary is used (`resources/
    cs221_frequency_dictionary_en.txt`, reference parity out of the
    box); `lang="jp"` selects the Japanese dictionary."""

    def __init__(self, dict_path: str | None = None, *, stem: bool = True, lang: str = "en") -> None:
        from .tokenizers import WordBreakTokenizer

        if dict_path is not None:
            self.tokenizer = WordBreakTokenizer.from_file(dict_path)
        else:
            self.tokenizer = WordBreakTokenizer.default(lang)
        self.stemmer = PorterStemmer() if stem else None

    def analyze(self, text: str | None) -> list[str]:
        toks = self.tokenizer.tokenize(text)
        if self.stemmer is None:
            return toks
        s = self.stemmer.stem
        return [s(t) for t in toks]


_REGISTRY: dict[str, Callable[..., Analyzer]] = {
    "composable": ComposableAnalyzer,
    "naive": NaiveAnalyzer,
    "punctuation": PunctuationAnalyzer,
    "code": CodeAnalyzer,
    "code_nostem": lambda: CodeAnalyzer(stem=False),
    "wordbreak": WordBreakAnalyzer,          # dict_path= optional (ships en dict)
    "wordbreak_nostem": lambda dict_path=None: WordBreakAnalyzer(dict_path, stem=False),
    # reference JapaneseTokenizer == WordBreakTokenizer + jp dictionary,
    # used bare (no stemming) in its tests
    "japanese": lambda dict_path=None: WordBreakAnalyzer(dict_path, stem=False, lang="jp"),
}


def is_dictionary_analyzer(name: str) -> bool:
    """True for the analyzers built from a frequency dictionary
    (word-break / japanese), which take `dict_path=`."""
    return name.startswith("wordbreak") or name == "japanese"


def make_analyzer(name: str, **kwargs) -> Analyzer:
    """Build an analyzer by registry name (analyzers are constructed
    inside Ray workers from their name so no heavy state is pickled).
    Word-break analyzers take `dict_path=` (the frequency dictionary
    file, `word freq` lines)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown analyzer {name!r}; one of {sorted(_REGISTRY)}") from None
    return factory(**kwargs)
