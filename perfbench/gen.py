"""Seeded synthetic corpus generator for the citegauge benchmark.

Writes, into an output directory:

- ``corpus/``    one JSON document per paper, in citegauge's corpus layout;
- ``pairs.tsv``  the labelled citing/cited pairs, with a header row;
- ``planted.json``  per pair, the number of in-text markers planted for the
  cited paper, plus the generation settings.

``planted.json`` sits outside ``corpus/`` on purpose: citegauge loads every
``*.json`` file in the corpus directory and would report it as a malformed
paper.

The generator never filters the marker collisions that arise naturally (two
bibliography entries sharing a surname and year, a filler word such as "and"
just before a narrative marker), so the share of pairs whose f1 equals the
planted count measures the parser on realistic noise, not on clean input.

The two classes draw f1, f4 and f9 from overlapping distributions; with
separable features the forest would grow shallow trees and the classifier
stage would be unrealistically cheap.

Run ``python3 perfbench/gen.py --help`` for the knobs. Same seed and knobs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import shutil
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

_SYLLABLES = (
    "ka ro mi ta ne su lo va pe ri da gu ho fi ze bo la me ti na so ku ve "
    "ra di po ly sa re mo ni ga te lu ca fo be"
).split()
_FUNCTION_WORDS = "the of and a to in is for on with as by that we this are from".split()
_GIVEN = (
    "Ada Ben Carla Dmitri Elena Farid Greta Hiro Ines Jonas Kamala Lars Mei Nadia "
    "Omar Priya Quentin Rosa Sven Tomas Uma Viktor Wen Xavier Yara Zoltan"
).split()
_VENUES = (
    "Proceedings of the Annual Meeting",
    "Journal of Computational Studies",
    "Transactions on Information Systems",
    "Workshop on Scholarly Data",
    "International Conference on Learning",
)
_YEARS = range(1995, 2017)
# The reference dataset's split: 69 influential pairs of 465.
POSITIVE_SHARE = 69 / 465


@dataclass(frozen=True)
class GenConfig:
    """Generation knobs. ``pairs = citing * pairs_per_citing``."""

    citing: int = 155
    pairs_per_citing: int = 3
    cited_pool: int = 200
    body_words: int = 6000
    bib_size: int = 30
    keyed: bool = True  # "[n]"-keyed bibliography, else an author-year list
    # Marker-style mix: shares of numeric and parenthetical markers; the rest
    # are narrative. Numeric markers need a keyed bibliography.
    numeric_share: float = 0.8
    parenthetical_share: float = 0.1
    filler_markers: int = 84  # markers per citing paper for non-target entries
    overlap: float = 0.6  # 0 = separable classes, 1 = identical distributions

    @property
    def pairs(self) -> int:
        return self.citing * self.pairs_per_citing


def _poisson(rng: random.Random, mean: float) -> int:
    limit, k, p = math.exp(-mean), 0, rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


class _Names:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.words = self._coin(2000, 2, 4, lower=True) + _FUNCTION_WORDS * 40
        # Zipf-like surname frequencies: a few very common surnames make
        # same-surname, same-year bibliography entries occur as in real data.
        self.surnames = self._coin(500, 2, 4, lower=False)
        self.surname_weights = list(itertools.accumulate(1.0 / (i + 10) for i in range(500)))

    def _coin(self, count: int, lo: int, hi: int, lower: bool) -> list[str]:
        seen: set[str] = set()
        out = []
        while len(out) < count:
            word = "".join(self.rng.choice(_SYLLABLES) for _ in range(self.rng.randint(lo, hi)))
            if word in seen or word in _FUNCTION_WORDS:
                continue
            seen.add(word)
            out.append(word if lower else word.capitalize())
        return out

    def author(self) -> str:
        surname = self.rng.choices(self.surnames, cum_weights=self.surname_weights)[0]
        return f"{self.rng.choice(_GIVEN)} {surname}"

    def title(self) -> str:
        return " ".join(self.rng.sample(self.words[:2000], self.rng.randint(5, 9))).capitalize()


def _bib_authors(authors: list[str]) -> str:
    parts = []
    for name in authors:
        given, surname = name.split(" ", 1)
        parts.append(f"{surname}, {given[0]}.")
    return ", ".join(parts)


def _marker_names(authors: list[str]) -> str:
    surnames = [a.split(" ", 1)[1] for a in authors]
    if len(surnames) == 1:
        return surnames[0]
    if len(surnames) == 2:
        return f"{surnames[0]} and {surnames[1]}"
    return f"{surnames[0]} et al."


class Generator:
    def __init__(self, config: GenConfig, seed: int):
        self.config = config
        self.rng = random.Random(seed)
        self.names = _Names(self.rng)
        self.topics = [self.rng.sample(self.names.words[:2000], 60) for _ in range(8)]

    def _abstract(self, topic: int) -> str:
        rng, words = self.rng, []
        for _ in range(rng.randint(60, 110)):
            pool = self.topics[topic] if rng.random() < 0.5 else self.names.words
            words.append(rng.choice(pool))
        return " ".join(words).capitalize() + "."

    def _paper(self, paper_id: str, topic: int, authors: list[str]) -> dict:
        return {
            "id": paper_id,
            "title": self.names.title(),
            "authors": authors,
            "abstract": self._abstract(topic),
            "body": "",
            "references": None,
        }

    def _marker(self, entry: dict, style: str, companion: dict | None = None) -> str:
        """One in-text marker for ``entry``; a ``companion`` entry may share it."""
        if companion is not None and self.rng.random() >= 0.2:
            companion = None
        if style == "numeric":
            if companion is None:
                return f"[{entry['key']}]"
            return f"[{entry['key']}, {companion['key']}]"
        names = _marker_names(entry["authors"])
        if style == "narrative":
            return f"{names} ({entry['year']})"
        if companion is None:
            return f"({names}, {entry['year']})"
        return f"({names}, {entry['year']}; {_marker_names(companion['authors'])}, {companion['year']})"

    def _style(self) -> str:
        c, roll = self.config, self.rng.random()
        if roll < c.numeric_share:
            return "numeric"
        if roll < c.numeric_share + c.parenthetical_share:
            return "parenthetical"
        return "narrative"

    def _body(self, markers: list[str]) -> str:
        rng, words = self.rng, self.names.words
        sentences, remaining = [], self.config.body_words
        while remaining > 0:
            length = rng.randint(8, 20)
            remaining -= length
            sentences.append([rng.choice(words) for _ in range(length)])
        for marker in markers:
            sentence = rng.choice(sentences)
            sentence.insert(rng.randint(1, len(sentence)), marker)
        text = []
        for i, sentence in enumerate(sentences):
            first = sentence[0]
            text.append(" ".join([first[0].upper() + first[1:]] + sentence[1:]) + ".")
            if i % 9 == 8:
                text.append("\n\n")
        return " ".join(text).replace(" \n\n ", "\n\n")

    def _targets(
        self, cited: list[tuple[dict, int]], topic: int, labels: list[int]
    ) -> list[tuple[dict, int]]:
        """The cited papers of one citing paper, one per label.

        The classes overlap: positives are more often on-topic (f9), more often
        share an author (f4) and carry more markers (f1), but every range is
        shared with the negatives.
        """
        c, rng = self.config, self.rng
        on_topic = (0.3, 0.3 + 0.6 * (1.0 - c.overlap))
        targets, chosen = [], set()
        for label in labels:
            while True:
                paper, paper_topic = rng.choice(cited)
                if paper["id"] in chosen:
                    continue
                if (paper_topic == topic) == (rng.random() < on_topic[label]):
                    break
            chosen.add(paper["id"])
            targets.append((paper, label))
        return targets

    def _citing_paper(self, citing_id: str, cited: list[tuple[dict, int]], labels: list[int]):
        """One citing paper and, per target, the number of markers planted."""
        c, rng = self.config, self.rng
        sep = 1.0 - c.overlap
        mean_f1 = (1.2, 1.2 + 5.0 * sep)
        shared_author = (0.1, 0.1 + 0.6 * sep)

        topic = rng.randrange(len(self.topics))
        targets = self._targets(cited, topic, labels)
        authors = [self.names.author() for _ in range(rng.randint(1, 3))]
        for paper, label in targets:
            if rng.random() < shared_author[label]:
                authors.append(rng.choice(paper["authors"]))

        # Bibliography: the targets at random positions among filler entries.
        entries = [{"authors": p["authors"], "title": p["title"], "target": n}
                   for n, (p, _) in enumerate(targets)]
        while len(entries) < c.bib_size:
            entries.append({"authors": [self.names.author() for _ in range(rng.randint(1, 4))],
                            "title": self.names.title(), "target": None})
        rng.shuffle(entries)
        for key, entry in enumerate(entries, start=1):
            entry["key"] = key
            entry["year"] = rng.choice(_YEARS)
        fillers = [e for e in entries if e["target"] is None]

        markers, counts = [], [0] * len(targets)
        for entry in entries:
            if entry["target"] is not None:
                k = _poisson(rng, mean_f1[targets[entry["target"]][1]])
                counts[entry["target"]] = k
                markers += [self._marker(entry, self._style(), rng.choice(fillers)) for _ in range(k)]
        for _ in range(c.filler_markers):
            markers.append(self._marker(rng.choice(fillers), self._style()))

        lines = []
        for entry in entries:
            text = (f"{_bib_authors(entry['authors'])} {entry['year']}. "
                    f"{entry['title']}. {rng.choice(_VENUES)}.")
            lines.append(f"[{entry['key']}] {text}" if c.keyed else text)

        paper = self._paper(citing_id, topic, authors)
        paper["body"] = self._body(markers) + "\n\nReferences\n" + "\n".join(lines) + "\n"
        return paper, [(p["id"], label, k) for (p, label), k in zip(targets, counts)]

    def generate(self, out: Path) -> None:
        c, rng = self.config, self.rng
        if not 1 <= c.pairs_per_citing < min(c.bib_size, c.cited_pool + 1):
            raise ValueError("need 1 <= pairs_per_citing < bib_size and <= cited_pool")
        corpus_dir = out / "corpus"
        corpus_dir.mkdir(parents=True)

        cited = []
        for i in range(c.cited_pool):
            topic = rng.randrange(len(self.topics))
            authors = [self.names.author() for _ in range(rng.choice((1, 2, 2, 3, 3, 4)))]
            paper = self._paper(f"R{i:05d}", topic, authors)
            paper["body"] = " ".join(rng.choice(self.names.words) for _ in range(80)) + "."
            cited.append((paper, topic))
            (corpus_dir / f"{paper['id']}.json").write_text(json.dumps(paper), encoding="utf-8")

        # An exact positive count, as in a labelled dataset: forest size and
        # CV time follow the minority class, so a binomial count would make
        # them vary from seed to seed.
        positives = round(c.pairs * POSITIVE_SHARE)
        labels = [1] * positives + [0] * (c.pairs - positives)
        rng.shuffle(labels)

        rows, planted = ["citing_id\tcited_id\tlabel\n"], []
        for i in range(c.citing):
            own = labels[i * c.pairs_per_citing:(i + 1) * c.pairs_per_citing]
            paper, pairs = self._citing_paper(f"C{i:05d}", cited, own)
            (corpus_dir / f"{paper['id']}.json").write_text(json.dumps(paper), encoding="utf-8")
            for cited_id, label, k in pairs:
                rows.append(f"{paper['id']}\t{cited_id}\t{label}\n")
                planted.append([paper["id"], cited_id, k])
        (out / "pairs.tsv").write_text("".join(rows), encoding="utf-8")
        (out / "planted.json").write_text(
            json.dumps({"config": asdict(c), "f1": planted}), encoding="utf-8"
        )


def generate(config: GenConfig, seed: int, out: str | Path) -> Path:
    """Write a fresh dataset for ``config`` and ``seed`` into ``out``.

    An earlier dataset in ``out`` is replaced; any other non-empty directory
    is refused rather than deleted.
    """
    out = Path(out)
    if out.exists():
        if any(out.iterdir()) and not (out / "corpus").is_dir():
            raise ValueError(f"{out} is not empty and holds no generated dataset")
        shutil.rmtree(out)
    Generator(config, seed).generate(out)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, metavar="DIR")
    kinds = {"int": int, "float": float, "bool": lambda text: text.lower() in ("1", "true")}
    for f in fields(GenConfig):
        kind = kinds[f.type]
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=kind, default=f.default)
    args = parser.parse_args(argv)
    config = GenConfig(**{f.name: getattr(args, f.name) for f in fields(GenConfig)})
    generate(config, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
