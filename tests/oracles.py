"""Independent reference implementations used to cross-check the package.

These deliberately avoid the package's own code paths (plain loops, Counter,
unicodedata) so a shared bug cannot hide.
"""

import math
import re
import unicodedata
from collections import Counter
from fractions import Fraction

import scipy.special

from citegauge.features import tokenize


def oracle_tfidf_vector(docs, text):
    """tf-idf vector of text over docs: Counter-based, no shared code paths."""
    n = len(docs)
    df = Counter()
    for doc in docs:
        df.update(set(tokenize(doc)))
    out = {}
    for term, tf in Counter(tokenize(text)).items():
        if term in df:
            out[term] = tf * (math.log((1 + n) / (1 + df[term])) + 1.0)
    return out


def oracle_cosine(a, b):
    dot = sum(v * b[k] for k, v in a.items() if k in b)
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def oracle_author_jaccard(a, b):
    """Name normalization for given-first fixture names, independent path."""

    def label(name):
        folded = "".join(
            c
            for c in unicodedata.normalize("NFKD", name.lower())
            if not unicodedata.combining(c)
        )
        parts = folded.replace(".", " ").split()
        return f"{parts[-1]} {parts[0][0]}" if len(parts) > 1 else parts[0]

    sa = {label(x) for x in a}
    sb = {label(x) for x in b}
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def brute_force_best_split(X, y):
    """Exhaustive split enumeration: all features, all midpoints between
    consecutive distinct sorted values; ties to lowest feature then threshold.
    A midpoint that is not below the upper value (adjacent floats) or not
    above the lower one (an overflow to -inf) falls back to the lower value.
    Gains are exact rationals, so equal gains tie and only a positive gain
    splits."""

    def gini(labels):
        if not labels:
            return Fraction(0)
        p1 = Fraction(sum(labels), len(labels))
        return 1 - (p1**2 + (1 - p1) ** 2)

    n = len(y)
    parent = gini(y)
    best = None  # (gain, feature, threshold)
    for feature in range(len(X[0])):
        values = sorted({row[feature] for row in X})
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            if not lo <= threshold < hi:
                threshold = lo
            left = [label for row, label in zip(X, y) if row[feature] <= threshold]
            right = [label for row, label in zip(X, y) if row[feature] > threshold]
            gain = parent - (len(left) * gini(left) + len(right) * gini(right)) / n
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, feature, threshold)
    return best


def choose(rng, k, n):
    """k distinct indices out of range(n), sorted ascending: the first k steps
    of a Fisher-Yates shuffle driven by the SplitMix64 stream ``rng``. The
    scalar reference for the features a forest node scores."""
    pool = list(range(n))
    for i in range(k):
        j = i + rng.randbelow(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:k])


# The narrative author-year regex the package used before its year-anchored
# scan. It tries a name match at every word boundary, so it takes quadratic
# time on long runs of name-like text: keep its inputs short.
_NAME = r"[^\W\d_][\w'’\-]+"
_NARRATIVE_RE = re.compile(
    rf"\b({_NAME})(?:\s*(?:,|\s)\s*(?:and|&)\s+({_NAME}))?"
    rf"(?:,?\s+et\s+al\.?)?"
    rf"\s*\(\s*((?:1[89]|20)\d{{2}})[a-z]?\s*\)",
    re.DOTALL,
)


def oracle_narrative_markers(text):
    """(offset, marker, name1, name2, year) of every narrative marker, by regex."""
    return [
        (m.start(), m.group(0), m.group(1), m.group(2), m.group(3))
        for m in _NARRATIVE_RE.finditer(text)
    ]


# The parenthetical-segment pattern the package used before the gap before
# "and" was made unambiguous: "\s*(?:,|\s)\s*" splits a whitespace run in
# many ways, so it takes quadratic time on long runs. Keep its inputs short.
_PAREN_SEG_RE = re.compile(
    rf"^(?:(?:see|cf|e\.g|i\.e)\.?,?\s+)?"
    rf"({_NAME})(?:\s*(?:,|\s)\s*(?:and|&)\s+({_NAME}))?"
    rf"(?:,?\s+et\s+al\.?)?"
    rf",?\s+((?:1[89]|20)\d{{2}})[a-z]?$",
    re.DOTALL,
)


def oracle_paren_segment(segment):
    """(span, groups) of a parenthetical author-year segment's match, or None."""
    match = _PAREN_SEG_RE.match(segment)
    return (match.span(), match.groups()) if match else None


# The reference-heading pattern the package used before its search started at
# a literal "\n": anchored at "^", with a tail "[ \t]*:?[ \t]*" that splits a
# run of spaces in many ways, so it takes quadratic time on long runs.
_HEADING_RE = re.compile(
    r"^[ \t]*(?:References|REFERENCES|Bibliography|BIBLIOGRAPHY)[ \t]*:?[ \t]*\r?$",
    re.MULTILINE,
)


def oracle_reference_split(body):
    """(main text, reference block) around the last heading line, or None."""
    headings = list(_HEADING_RE.finditer(body))
    if not headings:
        return None
    return body[: headings[-1].start()], body[headings[-1].end() :]


_YEAR_RE = re.compile(r"(?<!\d)(1[89]\d{2}|20\d{2}|2100)(?!\d)")


def oracle_author_segment(text):
    """Author prefix of a bibliography entry: before the year, else before the
    first period not ending a one-letter word. Re-splits the prefix per period."""
    year = _YEAR_RE.search(text)
    if year:
        return text[: year.start()]
    for match in re.finditer(r"\.", text):
        before = text[: match.start()].rstrip()
        last_word = before.split()[-1] if before.split() else ""
        if len(last_word) == 1 and last_word.isalpha():
            continue
        return text[: match.start()]
    return ""


def oracle_fold(text):
    """Lowercase with diacritics stripped, by NFKD decomposition for every input."""
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(c for c in decomposed if not unicodedata.combining(c)).lower()


def oracle_link_author_year(entries, name1, name2, year, et_al):
    """Entry an author-year marker links to, by a scan of every entry.

    Same-year entries whose first surname folds to name1 win; failing those,
    entries with name1 anywhere among their surnames. name2, when given,
    narrows the candidates if any of them has it. Then the candidates with as
    many surnames as the marker implies (et_al: three or more; else one, or two
    with name2) win, if there are any. The lowest index wins.
    """

    def surnames(entry):
        return [oracle_fold(t) for t in entry.surname_tokens]

    first = oracle_fold(name1)
    same_year = [e for e in entries if e.year == year]
    candidates = [e for e in same_year if surnames(e)[:1] == [first]] or [
        e for e in same_year if first in surnames(e)
    ]
    if name2:
        narrowed = [e for e in candidates if oracle_fold(name2) in surnames(e)]
        candidates = narrowed or candidates
    wanted = range(3, 10**6) if et_al else [2 if name2 else 1]
    fitting = [e for e in candidates if len(surnames(e)) in wanted]
    candidates = fitting or candidates
    return min(candidates, key=lambda e: e.index) if candidates else None


def oracle_entry_scores(entries, title, authors):
    """f1's match score of every bibliography entry, by entry index: 0.7 x the
    share of the cited title's terms among the entry's terms + 0.3 x the share
    of the cited authors' folded last words among the entry's folded surnames
    and terms. Authors are given-name-first. Every entry is scored; the float
    expression is the package's, so equal scores compare equal."""
    title_terms = set(tokenize(title))
    surnames = {oracle_fold(name.split()[-1]) for name in authors}
    scores = {}
    for entry in entries:
        terms = set(tokenize(entry.raw))
        keys = {oracle_fold(t) for t in entry.surname_tokens} | {oracle_fold(t) for t in terms}
        title_share = len(title_terms & terms) / len(title_terms) if title_terms else 0.0
        surname_share = len(surnames & keys) / len(surnames) if surnames else 0.0
        scores[entry.index] = 0.7 * title_share + 0.3 * surname_share
    return scores


def oracle_direct_count(entries, marker_counts, title, authors):
    """(count, best score, matched entry indices) of f1's rule over every
    entry: the entries with the best score match if it reaches 0.5, and the
    count sums their markers; else nothing matches and the count is 0. With no
    entry the best score is 0.0."""
    scores = oracle_entry_scores(entries, title, authors)
    best = max(scores.values(), default=0.0)
    if best < 0.5:
        return 0, best, []
    matched = sorted(index for index, score in scores.items() if score == best)
    return sum(marker_counts[index] for index in matched), best, matched


def _t_sq(r, dof):
    return r * r * dof / (1.0 - r * r)


def oracle_pearson_p(r, dof):
    """Two-tailed p of Pearson r on dof degrees of freedom, from scipy.

    p = I_x(dof/2, 1/2) with x = dof/(dof+t^2). Below x = 0.5 scipy's betainc
    takes x; above it, betaincc takes the complement y = t^2/(dof+t^2), formed
    directly, as 1 - I_y(1/2, dof/2), so neither tail loses digits to 1 - x.
    """
    t_sq = _t_sq(r, dof)
    x, y = dof / (dof + t_sq), t_sq / (dof + t_sq)
    if x < 0.5:
        return float(scipy.special.betainc(dof / 2, 0.5, x))
    return float(scipy.special.betaincc(0.5, dof / 2, y))


def oracle_pearson_p_closed_form(r, dof):
    """The same p without scipy, in closed form for dof 1 and 2 only:
    (2/pi) atan(1/|t|), and 1 - |t|/sqrt(2+t^2) rewritten as
    2/(s (s+|t|)) with s = sqrt(2+t^2), which does not cancel as p -> 1."""
    t = math.sqrt(_t_sq(r, dof))
    if dof == 1:
        return 2.0 / math.pi * math.atan2(1.0, t)
    if dof == 2:
        s = math.sqrt(2.0 + t * t)
        return 2.0 / (s * (s + t))
    raise ValueError(f"no closed form for dof {dof}")
