"""Synthetic corpus used across the test suite.

Ten citing documents cover the marker styles the parser must handle (numeric
keys, comma lists, inclusive ranges, line-broken markers, parenthetical and
narrative author-year forms, explicit reference lists, reference-block-only
mentions, and a missing bibliography). Expected direct-citation counts against
the target paper were enumerated by hand from the bodies below.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from citegauge.corpus import PaperRecord

TARGET_ID = "p-target"
AUX_ID = "p-aux"

_TARGET_TITLE = "Adaptive Convolution Networks for Robust Image Restoration"
_AUX_TITLE = "Graph Sparsification by Effective Resistances in Streaming Settings"

_BIB_FILLER_1 = "[1] Quist, R. 2011. Sparse coding with overcomplete dictionaries."
_BIB_TARGET = (
    "[2] Marchetti, E., Novak, T., Bauer, I. 2019. "
    "Adaptive Convolution Networks for Robust Image Restoration."
)
_BIB_FILLER_3 = "[3] Okafor, C., Brandt, L. 2015. Stochastic gradient descent revisited."
_BIB_AUX = (
    "[4] Haddad, N., Lindgren, V. 2020. "
    "Graph Sparsification by Effective Resistances in Streaming Settings."
)

_STANDARD_BIB = f"References\n{_BIB_FILLER_1}\n{_BIB_TARGET}\n{_BIB_FILLER_3}\n"


def target_paper() -> PaperRecord:
    return PaperRecord(
        id=TARGET_ID,
        title=_TARGET_TITLE,
        authors=["Elena Marchetti", "Tomas Novak", "Ingrid Bauer"],
        abstract=(
            "We introduce adaptive convolution networks that restore degraded "
            "images. The adaptive kernels adjust to local structure, making "
            "restoration robust to noise and blur."
        ),
        body="Adaptive convolution networks are described here.",
    )


def aux_paper() -> PaperRecord:
    return PaperRecord(
        id=AUX_ID,
        title=_AUX_TITLE,
        authors=["Noor Haddad", "Victor Lindgren"],
        abstract=(
            "Graph sparsification keeps a small subgraph that preserves cut "
            "values. We compute effective resistances in one streaming pass."
        ),
        body="Graph sparsification in streams is described here.",
    )


def _citing(paper_id, title, authors, abstract, main, bib=_STANDARD_BIB, references=None):
    body = main if bib is None else f"{main}\n\n{bib}"
    return PaperRecord(
        id=paper_id,
        title=title,
        authors=authors,
        abstract=abstract,
        body=body,
        references=references,
    )


def citing_papers() -> list[PaperRecord]:
    return [
        # numeric marker repeated: [2] x3 -> 3
        _citing(
            "c01",
            "Sparse Priors for Adaptive Image Restoration",
            ["Elena Marchetti", "Priya Raman"],
            "Adaptive convolution networks improve restoration of noisy images. "
            "We add sparse priors and keep restoration robust.",
            "Adaptive filtering has a long history [1]. The method of [2] set a "
            "strong baseline for restoration. We extend [2] with sparse priors "
            "and compare against [2] and [3].",
        ),
        # comma lists: [1,2] and [2, 3] each contain key 2 -> 2; [9] is unresolved
        _citing(
            "c02",
            "Revisiting Convolutional Baselines",
            ["Daniel Reyes"],
            "Convolution networks for image restoration are compared under a "
            "common protocol with adaptive kernels.",
            "Prior work [1,2] studied sparse models. Recent advances [2, 3] "
            "refine them. A forthcoming result [9] extends this further.",
        ),
        # inclusive range [1-3] plus a single [2] -> 2
        _citing(
            "c03",
            "A Survey of Learned Restoration",
            ["Mei Chen", "Lukas Vogel"],
            "We survey learned restoration methods, including adaptive "
            "convolution networks applied to robust image recovery.",
            "Convolutional approaches [1-3] dominate the field. We follow [2] "
            "closely in our experiments.",
        ),
        # line-broken marker [2,\n3] -> 1
        _citing(
            "c04",
            "Saturation Effects in Deep Denoisers",
            ["Sofia Lindqvist"],
            "Denoising performance saturates as depth grows in convolutional "
            "models of natural images.",
            "As shown in [2,\n3], performance saturates beyond ten layers. "
            "Dictionary methods [1] behave differently.",
        ),
        # parenthetical author-year x2 -> 2; bibliography has no numeric keys
        _citing(
            "c05",
            "Adaptivity under Heavy Noise",
            ["Omar Farouk", "Jana Krol"],
            "Adaptive convolution improves image restoration under heavy noise "
            "and strong blur in networks.",
            "Restoration quality improves with adaptivity (Marchetti et al., "
            "2019). This mirrors earlier findings (Quist, 2011). The effect "
            "strengthens under noise (Marchetti et al., 2019).",
            bib=(
                "References\n"
                "Quist, R. 2011. Sparse coding with overcomplete dictionaries.\n"
                "Marchetti, E., Novak, T., Bauer, I. 2019. Adaptive Convolution "
                "Networks for Robust Image Restoration.\n"
                "Okafor, C., Brandt, L. 2015. Stochastic gradient descent revisited.\n"
            ),
        ),
        # narrative author-year x2 -> 2 vs target; [4] -> 1 vs aux
        _citing(
            "c06",
            "Failure Modes of Adaptive Kernels",
            ["Greta Olsen", "Henry Adeyemi"],
            "We analyze when adaptive convolution kernels fail to restore "
            "images and relate robustness to network sparsity.",
            "Marchetti et al. (2019) demonstrate robustness under blur. Our "
            "streaming construction builds on [4]. Marchetti and Novak (2019) "
            "analyze the remaining failure modes.",
            bib=f"References\n{_BIB_FILLER_1}\n{_BIB_TARGET}\n{_BIB_FILLER_3}\n{_BIB_AUX}\n",
        ),
        # mixed numeric + parenthetical -> 2
        _citing(
            "c07",
            "Low-Light Restoration with Adaptive Kernels",
            ["Ravi Kular", "Beatriz Sol"],
            "Adaptive kernels help restoration in low light, keeping "
            "convolution networks robust to sensor noise.",
            "The baseline [2] remains strong. Adaptive kernels help in low "
            "light (Marchetti et al., 2019). See also [1] for dictionaries.",
        ),
        # marker appears inside the reference block only -> 0
        _citing(
            "c08",
            "Classical Filters Reconsidered",
            ["Paul Nguyen"],
            "Classical linear filters are surveyed without reference to "
            "learned approaches.",
            "Generic methods abound. We survey classical filters and their "
            "frequency responses.",
            bib=(
                "References\n"
                f"{_BIB_FILLER_1}\n"
                f"{_BIB_TARGET}\n"
                "[3] Okafor, C., Brandt, L. 2015. Stochastic gradient descent "
                "revisited; builds on [2].\n"
            ),
        ),
        # no bibliography at all, and no abstract -> unparseable, count 0
        _citing(
            "c09",
            "An Essay on Measurement Practice",
            ["Ines Duarte"],
            None,
            "An essay on measurement practice. No references are given here.",
            bib=None,
        ),
        # explicit reference list, no heading in body: [2] x3 -> 3
        _citing(
            "c10",
            "Learned Priors for Spatially Adaptive Restoration",
            ["Ingrid Bauer", "Mikael Sund"],
            "Learned priors make adaptive convolution networks restore images "
            "robustly across spatially varying blur.",
            "We refine [2] using learned priors. The kernels of [2] adapt "
            "spatially. Our loss follows [2]. Dictionaries [1] remain useful.",
            bib=None,
            references=[_BIB_FILLER_1, _BIB_TARGET],
        ),
    ]


# hand-enumerated direct-citation counts against the target paper
EXPECTED_TARGET_COUNTS = {
    "c01": 3,
    "c02": 2,
    "c03": 2,
    "c04": 1,
    "c05": 2,
    "c06": 2,
    "c07": 2,
    "c08": 0,
    "c09": 0,
    "c10": 3,
}

# hand-enumerated counts against the auxiliary paper (only c06 lists it)
EXPECTED_AUX_COUNTS = {
    "c01": 0,
    "c04": 0,
    "c06": 1,
    "c09": 0,
}

# (citing_id, cited_id, label); labels follow count >= 2 against the target
PAIR_ROWS = [
    ("c01", TARGET_ID, 1),
    ("c02", TARGET_ID, 1),
    ("c03", TARGET_ID, 1),
    ("c04", TARGET_ID, 0),
    ("c05", TARGET_ID, 1),
    ("c06", TARGET_ID, 1),
    ("c07", TARGET_ID, 1),
    ("c08", TARGET_ID, 0),
    ("c09", TARGET_ID, 0),
    ("c10", TARGET_ID, 1),
    ("c01", AUX_ID, 0),
    ("c04", AUX_ID, 0),
    ("c06", AUX_ID, 0),
    ("c09", AUX_ID, 0),
]

# raw label counts, and counts after dropping the abstract-less c09 pairs
EXPECTED_STATS = {
    "total_pairs": 14,
    "incidental_count": 7,
    "influential_count": 7,
    "filtered_pairs": 12,
    "positive_after_filter": 7,
}


def all_papers() -> list[PaperRecord]:
    return [target_paper(), aux_paper()] + citing_papers()


def write_dataset(root: Path, include_malformed: bool = False) -> tuple[Path, Path]:
    """Write the corpus directory and pairs TSV under root; returns their paths."""
    corpus_dir = root / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for record in all_papers():
        (corpus_dir / f"{record.id}.json").write_text(
            json.dumps(asdict(record), ensure_ascii=False, indent=2),
            encoding="utf-8",
        )
    if include_malformed:
        (corpus_dir / "broken.json").write_text("{not json", encoding="utf-8")

    pairs_file = root / "pairs.tsv"
    lines = ["citing_id\tcited_id\tlabel"]
    lines += [f"{citing}\t{cited}\t{label}" for citing, cited, label in PAIR_ROWS]
    pairs_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return corpus_dir, pairs_file
