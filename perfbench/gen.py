"""Seeded synthetic thesis catalog in the etdgraph record format.

`generate(seed, knobs)` returns the record text and the entity counts a
correct ingest must produce. The same seed and knobs always give the
same bytes. The catalog exercises what the analytics depend on:

- university -> school -> faculty trees (`depth` levels, `fanout` wide);
- faculties renamed mid-history (`changed-to`, successor subdivision);
- persons who study at one university and later hold professorships
  elsewhere, some at two universities at once (cooperation, mobility,
  overlapping affiliations that mobility skips);
- time-scoped genders and ungendered persons (`gender_of` ranking);
- works with advisors, committees and, for a share, a second grantor in
  another school or university (interdisciplinary works);
- birth places drawn from a Zipf-skewed distribution, so a few place
  entities are mentioned by many persons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

RENAME_YEAR = 1995
GENDERS = ("female", "male", "nonbinary")
GENDER_WEIGHTS = (0.47, 0.47, 0.06)
UNGENDERED_SHARE = 0.04
PROFESSOR_SHARE = 0.35
CROSS_SHARE = 0.2  # professors holding a second chair elsewhere
MULTI_GRANTOR_SHARE = 0.12


@dataclass(frozen=True)
class Knobs:
    universities: int = 10
    depth: int = 2  # subdivision levels below a university
    fanout: int = 3  # subdivisions per body per level
    persons: int = 1000
    works_per_person: float = 1.0
    committee_density: float = 1.5  # mean committee members per work
    rename_share: float = 0.15  # share of faculties renamed at RENAME_YEAR
    scoped_gender_share: float = 0.06
    places: int = 300
    place_skew: float = 1.1  # Zipf exponent of birth places


@dataclass
class Catalog:
    text: str
    records: int
    counts: dict[str, int]  # `stats` entity names -> expected count
    universities: list[str]
    persons: list[str]
    works: list[str]
    bodies: list[str]
    places: list[str]
    genders: list[str]
    # (person, faculty id as written, start, end): student-of and
    # professor-at statements, end 9999 for an open professorship
    studies: list[tuple[str, str, int, int]]
    chairs: list[tuple[str, str, int, int]]
    advisors: list[str]  # persons who advise at least one work
    committee_grantors: list[str]  # faculties that granted a work with a committee
    school_of: dict[str, str]  # faculty id -> its school


class _Faculty:
    def __init__(self, local_id: str, university: int, school: str, renamed_to: str | None):
        self.local_id = local_id
        self.university = university
        self.school = school
        self.renamed_to = renamed_to

    def at(self, year: int) -> str:
        if self.renamed_to is not None and year >= RENAME_YEAR:
            return self.renamed_to
        return self.local_id


def _zipf_weights(n: int, skew: float) -> list[float]:
    return [1.0 / rank ** skew for rank in range(1, n + 1)]


def _split(total: int, weights) -> list[int]:
    """`total` split in proportion to `weights`, largest remainders first."""
    exact = [total * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _quota(rng: random.Random, n: int, share: float) -> list[bool]:
    """n flags of which exactly round(n * share) are set, in seeded order."""
    k = round(n * share)
    flags = [True] * k + [False] * (n - k)
    rng.shuffle(flags)
    return flags


def generate(seed: int, knobs: Knobs = Knobs()) -> Catalog:
    rng = random.Random(seed)
    out: list[str] = []
    bodies: list[str] = []
    faculties: list[_Faculty] = []

    def record(lines: list[str]):
        out.append("\n".join(lines) + "\n")

    # -- corporate bodies ----------------------------------------------------
    renames = iter(_quota(rng, knobs.universities * knobs.fanout ** knobs.depth,
                          knobs.rename_share))
    for u in range(knobs.universities):
        uid = f"u{u}"
        record([f"id {uid}", "type body", f"name University {u}",
                "body-kind university", f"established {1900 + rng.randrange(80)}"])
        bodies.append(uid)
        level = [uid]
        for d in range(knobs.depth):
            leaf_level = d == knobs.depth - 1
            nxt = []
            for parent in level:
                for k in range(knobs.fanout):
                    bid = f"{parent}{'f' if leaf_level else 's'}{k}"
                    kind = "faculty" if leaf_level else "school"
                    since = 1940 + rng.randrange(30)
                    renamed = leaf_level and next(renames)
                    lines = [f"id {bid}", "type body", f"name {kind.title()} {bid}",
                             f"body-kind {kind}", f"established {since}"]
                    if renamed:
                        lines.append(f"subdivision-of {parent}@{since}..{RENAME_YEAR - 1}")
                        lines.append(f"changed-to {bid}r@{RENAME_YEAR}")
                    else:
                        lines.append(f"subdivision-of {parent}@{since}..")
                    record(lines)
                    bodies.append(bid)
                    if renamed:
                        record([f"id {bid}r", "type body",
                                f"name {kind.title()} {bid} (renamed)",
                                f"name {kind.title()} {bid} New@2005..",
                                f"body-kind {kind}",
                                f"subdivision-of {parent}@{RENAME_YEAR}.."])
                        bodies.append(f"{bid}r")
                    nxt.append(bid)
                    if leaf_level:
                        faculties.append(_Faculty(bid, u, parent, f"{bid}r" if renamed else None))
            level = nxt

    by_university: dict[int, list[_Faculty]] = {}
    for f in faculties:
        by_university.setdefault(f.university, []).append(f)

    def other_university(u: int) -> int:
        if knobs.universities == 1:
            return u
        v = rng.randrange(knobs.universities - 1)
        return v if v < u else v + 1

    # -- persons ---------------------------------------------------------------
    # Shares are exact quotas, not coin flips, and study periods start
    # evenly over 1965..2009, so the cost of each report and query varies
    # little from seed to seed; the seed decides who gets what.
    n = knobs.persons
    gender_kinds = [None] * round(n * UNGENDERED_SHARE) + ["scoped"] * round(
        n * knobs.scoped_gender_share)
    for g, k in zip(GENDERS, _split(n - len(gender_kinds), GENDER_WEIGHTS)):
        gender_kinds += [g] * k
    rng.shuffle(gender_kinds)
    starts = [1965 + (k * 45) // n for k in range(n)]
    rng.shuffle(starts)
    births = []
    for rank, k in enumerate(_split(round(n * 0.9), _zipf_weights(knobs.places, knobs.place_skew))):
        births += [f"pl{rank}"] * k
    births += [None] * (n - len(births))
    rng.shuffle(births)
    married = _quota(rng, n, 0.05)
    professor = _quota(rng, n, PROFESSOR_SHARE)
    n_prof = sum(professor)
    stays = iter(_quota(rng, n_prof, 0.3))
    open_ended = iter(_quota(rng, n_prof, 0.5))
    cross = iter(_quota(rng, n_prof, CROSS_SHARE))

    genders_used: set[str] = set()
    persons: list[str] = []
    studies: list[tuple[str, _Faculty, int, int]] = []  # person, faculty, start, end
    chairs: list[tuple[str, _Faculty, int, int]] = []  # professorships, end 9999 if open

    for i in range(n):
        pid = f"p{i}"
        persons.append(pid)
        lines = [f"id {pid}", "type person", f"name Person {i}"]
        if married[i]:
            lines.append(f"name Person {i} Married@{1990 + rng.randrange(25)}..")
        if gender_kinds[i] == "scoped":
            first, second = rng.sample(GENDERS[:2], 2)
            switch = 1980 + rng.randrange(35)
            lines.append(f"gender {first}@..{switch - 1}")
            lines.append(f"gender {second}@{switch}..")
            genders_used.update((first, second))
        elif gender_kinds[i] is not None:
            lines.append(f"gender {gender_kinds[i]}")
            genders_used.add(gender_kinds[i])

        uni = rng.randrange(knobs.universities)
        fac = rng.choice(by_university[uni])
        start = starts[i]
        end = start + 2 + rng.randrange(5)
        lines.append(f"student-of {fac.at(start)}@{start}..{end}")
        studies.append((pid, fac, start, end))

        if professor[i]:
            # most move to another university after a gap; some stay
            home = uni if next(stays) else other_university(uni)
            chair = rng.choice(by_university[home])
            c_start = end + 1 + rng.randrange(4)
            c_end = 9999 if next(open_ended) else c_start + 3 + rng.randrange(15)
            span = f"{c_start}.." if c_end == 9999 else f"{c_start}..{c_end}"
            lines.append(f"professor-at {chair.at(c_start)}@{span}")
            chairs.append((pid, chair, c_start, c_end))
            if next(cross):
                second = rng.choice(by_university[other_university(home)])
                s_start = c_start + rng.randrange(5)
                s_end = s_start + 2 + rng.randrange(6)
                lines.append(f"professor-at {second.at(s_start)}@{s_start}..{s_end}")
                chairs.append((pid, second, s_start, s_end))

        if births[i] is not None:
            lines.append(f"birth-place {births[i]}")
        record(lines)

    # -- works -----------------------------------------------------------------
    chairs_by_university: dict[int, list[tuple[str, _Faculty, int, int]]] = {}
    for c in chairs:
        chairs_by_university.setdefault(c[1].university, []).append(c)

    def pick_professor(university: int, year: int, exclude: str) -> str | None:
        pool = chairs_by_university.get(university) or chairs
        for _ in range(8):
            pid, _, s, e = rng.choice(pool)
            if pid != exclude and s <= year <= e:
                return pid
        pid = rng.choice(pool)[0]
        return pid if pid != exclude else None

    works: list[str] = []
    advising: set[str] = set()
    committee_grantors: set[str] = set()
    n_works = round(n * knobs.works_per_person) if chairs else 0
    phd = _quota(rng, n_works, 0.45)
    second_advisor = _quota(rng, n_works, 0.2)
    extra_member = _quota(rng, n_works, knobs.committee_density % 1)
    # second grantors spread evenly over time
    by_start = sorted(range(n_works), key=lambda w: studies[w % n][2])
    multi = set(by_start[::round(1 / MULTI_GRANTOR_SHARE)])
    for w in range(n_works):
        pid, fac, start, end = studies[w % n]
        wid = f"w{w}"
        works.append(wid)
        kind = "phd" if phd[w] else "master"
        lines = [f"id {wid}", "type work", f"title Thesis {w} of {pid}",
                 f"work-kind {kind}", f"dissertant {pid}", f"study {start}..{end}"]
        advisors = {pick_professor(fac.university, end, pid)}
        if second_advisor[w]:
            advisors.add(pick_professor(fac.university, end, pid))
        for a in sorted(x for x in advisors if x):
            lines.append(f"advisor {a}")
            advising.add(a)
        members = set()
        for _ in range(int(knobs.committee_density) + extra_member[w]):
            uni = fac.university if rng.random() < 0.6 else other_university(fac.university)
            members.add(pick_professor(uni, end, pid))
        for m in sorted(x for x in members - advisors if x):
            lines.append(f"committee {m}")
            committee_grantors.add(fac.at(start))
        lines.append(f"grantor {fac.at(start)}")
        if w in multi:
            uni = fac.university if rng.random() < 0.6 else other_university(fac.university)
            other = rng.choice(by_university[uni])
            if other is not fac:
                lines.append(f"grantor {other.at(start)}")
        record(lines)

    text = "\n".join(out)
    counts = {
        "persons": len(persons),
        "bodies": len(bodies),
        "works": len(works),
        "places": len({b for b in births if b is not None}),
        "genders": len(genders_used),
        "external": 0,
    }
    return Catalog(
        text=text,
        records=len(out),
        counts=counts,
        universities=[f"u{u}" for u in range(knobs.universities)],
        persons=persons,
        works=works,
        bodies=bodies,
        places=sorted({b for b in births if b is not None}),
        genders=sorted(genders_used),
        studies=[(p, f.at(s), s, e) for p, f, s, e in studies],
        chairs=[(p, f.at(s), s, e) for p, f, s, e in chairs],
        advisors=[p for p in persons if p in advising],
        committee_grantors=sorted(committee_grantors),
        school_of={i: f.school for f in faculties for i in (f.local_id, f.renamed_to) if i},
    )
