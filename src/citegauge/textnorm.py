"""Text and author-name normalization shared by the parsing and feature stages."""

from __future__ import annotations

import re
import unicodedata

_TOKEN_RE = re.compile(r"[^\W_]{2,}", re.UNICODE)
_LETTERS_RE = re.compile(r"[^\W\d_]+", re.UNICODE)

# Surname particles kept attached to the family name ("van der Berg" -> one unit).
_PARTICLES = frozenset(
    "van von der den de del della di da dos du la le ter ten bin ibn al".split()
)


def fold(text: str) -> str:
    """Lowercase and strip diacritics (NFKD decomposition, combining marks removed)."""
    if text.isascii():
        return text.lower()  # ASCII has no decompositions and no combining marks
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(c for c in decomposed if not unicodedata.combining(c)).lower()


def tokenize(text: str) -> list[str]:
    """Split text into lowercase terms.

    Tokens are maximal alphanumeric runs; runs shorter than 2 characters and
    pure numbers are dropped. No stop-word removal, no stemming.
    """
    return [tok for tok in _TOKEN_RE.findall(text.lower()) if not tok.isdigit()]


def _split_surname_given(name: str) -> tuple[str, str]:
    """Split a folded raw name into (surname part, given part). Either may be ''."""
    cleaned = name.replace(".", " ").strip()
    if "," in cleaned:
        surname, _, given = cleaned.partition(",")
        return surname.strip(), given.strip()
    words = cleaned.split()
    if not words:
        return "", ""
    if len(words) == 1:
        return words[0], ""
    if len(words[-1]) == 1:
        # "smith j" style: trailing initial, surname leads
        return " ".join(words[:-1]), words[-1]
    # given-first order: surname is the last word plus any particle run before it
    split_at = len(words) - 1
    while split_at > 1 and words[split_at - 1] in _PARTICLES:
        split_at -= 1
    return " ".join(words[split_at:]), " ".join(words[:split_at])


def normalize_author(name: str) -> str:
    """Reduce a raw author name to a canonical "surname first-initial" label.

    Diacritics are folded and the given name collapses to its first initial;
    a name with no detectable given part reduces to the surname alone.
    Returns '' for blank input.
    """
    surname, given = _split_surname_given(fold(name))
    initials = _LETTERS_RE.findall(given)
    if surname and initials:
        return f"{surname} {initials[0][0]}"
    return surname


def surname_key(name: str) -> str:
    """Folded last word of the family name, for matching against bibliography tokens."""
    surname, _ = _split_surname_given(fold(name))
    words = surname.split()
    return words[-1] if words else ""
