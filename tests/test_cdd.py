import re

import pytest
from hypothesis import example, given

from teride.cdd import (
    CONST,
    INTERVAL,
    AttrConstraint,
    CddRule,
    detect_cdds,
    rules_from_text,
    rules_to_text,
    satisfies_determinants,
)
from teride.errors import ConfigError, DeterminantMissing, NoRulesFound
from teride.metric import DistanceFn
from teride.model import Repository

from .conftest import make_tuple, mutated_file, ts

RULE_FILE = [
    "DEP=0 | 1:CONST:a+b | 2:INT:0.0,0.25 -> [0.0,0.5]",
    "DEP=1 | 0:INT:0.1,0.3 -> [0.25,0.75]",
    "DEP=2 | 0:CONST:x | 1:INT:0.0,1.0 -> [0.0,1.0]",
    "DEP=2 | 0:CONST:y -> [0.5,1.0]",
]


def rule_is_valid(rule: CddRule, repo: Repository, dist: DistanceFn) -> bool:
    """Brute-force validity check over all repository sample pairs."""
    n = len(repo.samples)
    for i in range(n):
        for k in range(i, n):
            s1, s2 = repo.samples[i], repo.samples[k]
            if satisfies_determinants(rule, s1, s2, dist):
                if not rule.dep_admits(dist(s1.attrs[rule.dependent], s2.attrs[rule.dependent])):
                    return False
    return True


def cdd1():
    """{A: a1, B: [0, 0.1]} -> C within [0, 0.1]."""
    return CddRule(
        determinants=(
            AttrConstraint(attr=0, kind=CONST, value=ts("a1")),
            AttrConstraint(attr=1, kind=INTERVAL, lo=0.0, hi=0.1),
        ),
        dependent=2,
        dep_lo=0.0,
        dep_hi=0.1,
    )


def cdd2():
    """{A: a1, B: [0.15, 0.2]} -> C within [0, 0.2]."""
    return CddRule(
        determinants=(
            AttrConstraint(attr=0, kind=CONST, value=ts("a1")),
            AttrConstraint(attr=1, kind=INTERVAL, lo=0.15, hi=0.2),
        ),
        dependent=2,
        dep_lo=0.0,
        dep_hi=0.2,
    )


class TestConstraints:
    def test_interval_admits_with_relaxed_lower_bound(self):
        c = AttrConstraint(attr=0, kind=INTERVAL, lo=0.2, hi=0.4)
        assert c.admits(0.2) and c.admits(0.4)
        assert not c.admits(0.19) and not c.admits(0.41)

    def test_hash_is_the_generated_one(self):
        for c in (
            AttrConstraint(attr=1, kind=CONST, value=ts("a+b")),
            AttrConstraint(attr=0, kind=INTERVAL, lo=0.0, hi=0.1),
            AttrConstraint(attr=0, kind=INTERVAL, lo=0.3, hi=1 - 5e-10),
        ):
            assert hash(c) == hash((c.attr, c.kind, c.value, c.lo, c.hi))
            twin = AttrConstraint(attr=c.attr, kind=c.kind, value=c.value, lo=c.lo, hi=c.hi)
            assert twin == c and hash(twin) == hash(c) and len({c, twin}) == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            AttrConstraint(attr=0, kind=CONST, value=None)
        with pytest.raises(ConfigError):
            AttrConstraint(attr=0, kind=INTERVAL, lo=0.5, hi=0.2)
        with pytest.raises(ConfigError):
            AttrConstraint(attr=0, kind="weird")


class TestRule:
    def test_dependent_cannot_be_determinant(self):
        with pytest.raises(ConfigError):
            CddRule(
                determinants=(AttrConstraint(attr=2, kind=CONST, value=ts("a")),),
                dependent=2,
                dep_lo=0.0,
                dep_hi=0.1,
            )

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (float("nan"), float("nan")),
            (0.0, float("nan")),
            (-5.0, 7.0),
            (0.0, float("inf")),
            (-1e-8, 0.1),
            (0.5, 1.0 + 1e-8),
            (0.5, 0.2),
        ],
        ids=["nan", "nan-hi", "outside", "infinite", "below-tol", "above-tol", "out-of-order"],
    )
    def test_dependent_interval_outside_the_unit_interval_rejected(self, lo, hi):
        interval = (AttrConstraint(attr=0, kind=INTERVAL, lo=0.0, hi=0.1),)
        with pytest.raises(ConfigError):
            CddRule(determinants=interval, dependent=1, dep_lo=lo, dep_hi=hi)
        # the endpoints' 1e-9 tolerance is that of the determinant intervals
        assert CddRule(determinants=interval, dependent=1, dep_lo=-5e-10, dep_hi=1.0 + 5e-10)

    def test_applicable_to(self):
        rule = cdd1()
        missing_c = make_tuple("r", 0, 1, ts("a1"), ts("0.3"), None)
        assert rule.applicable_to(missing_c)
        complete = make_tuple("r", 0, 1, ts("a1"), ts("0.3"), ts("0.1"))
        assert not rule.applicable_to(complete)
        missing_det = make_tuple("r", 0, 1, None, ts("0.3"), None)
        assert not rule.applicable_to(missing_det)


class TestSatisfies:
    def test_reference_samples(self, numeric_repo, absdiff):
        r = make_tuple("r", 0, 1, ts("a1"), ts("0.3"), None)
        s1, s2, s3, s4 = numeric_repo.samples
        assert satisfies_determinants(cdd1(), r, s1, absdiff)
        assert satisfies_determinants(cdd1(), r, s2, absdiff)
        assert not satisfies_determinants(cdd1(), r, s3, absdiff)
        assert not satisfies_determinants(cdd1(), r, s4, absdiff)
        # the open lower bound admits only the sample at distance 0.2
        assert not satisfies_determinants(cdd2(), r, s1, absdiff)
        assert satisfies_determinants(cdd2(), r, s3, absdiff)

    def test_missing_determinant_raises(self, numeric_repo, absdiff):
        r = make_tuple("r", 0, 1, None, ts("0.3"), None)
        with pytest.raises(DeterminantMissing):
            satisfies_determinants(cdd1(), r, numeric_repo.samples[0], absdiff)


class TestDetection:
    def test_reference_rule_is_mined(self, numeric_repo, absdiff):
        rules = detect_cdds(numeric_repo, absdiff, min_support=3)
        target = cdd1()
        found = [
            r
            for r in rules
            if r.dependent == 2
            and any(c.kind == CONST and c.value == ts("a1") for c in r.determinants)
            and any(
                c.kind == INTERVAL and c.lo == 0.0 and c.hi == pytest.approx(0.1)
                for c in r.determinants
            )
        ]
        assert found, "expected the {A: a1, B: [0, 0.1]} -> C rule"
        for r in found:
            assert r.dep_lo >= target.dep_lo - 1e-9
            assert r.dep_hi <= target.dep_hi + 1e-9

    def test_all_mined_rules_hold_on_repository(self, numeric_repo, absdiff):
        for rule in detect_cdds(numeric_repo, absdiff):
            assert rule_is_valid(rule, numeric_repo, absdiff)

    def test_mined_rules_hold_on_text_repository(self):
        from .conftest import make_workload

        repo, _ = make_workload(seed=7, length=12, repo_size=24)
        dist = DistanceFn()
        rules = detect_cdds(repo, dist)
        for rule in rules:
            assert rule_is_valid(rule, repo, dist)
        # dedup: one rule per determinant-structure signature
        sigs = [
            (
                rule.dependent,
                tuple(
                    (c.attr, c.kind, c.value, round(c.lo, 9), round(c.hi, 9))
                    for c in sorted(rule.determinants, key=lambda c: c.attr)
                ),
            )
            for rule in rules
        ]
        assert len(sigs) == len(set(sigs))

    @pytest.mark.parametrize("kind", [DistanceFn.JACCARD, DistanceFn.ABSDIFF])
    def test_equal_determinants_are_one_object(self, kind, numeric_repo):
        from .conftest import make_workload

        if kind == DistanceFn.JACCARD:
            repo, _ = make_workload(seed=7, length=12, repo_size=24)
        else:
            repo = numeric_repo
        rules = detect_cdds(repo, DistanceFn(kind))
        ids_of: dict = {}  # determinant -> the ids of the objects equal to it
        for rule in rules:
            for c in rule.determinants:
                ids_of.setdefault(c, set()).add(id(c))
        assert all(len(ids) == 1 for ids in ids_of.values())
        # some determinant is named by more than one rule
        assert len(ids_of) < sum(len(rule.determinants) for rule in rules)

    def test_interval_width_threshold_enforced(self, numeric_repo, absdiff):
        for rule in detect_cdds(numeric_repo, absdiff, max_interval_width=0.3):
            assert rule.dep_hi - rule.dep_lo <= 0.3 + 1e-9

    def test_support_threshold(self, numeric_repo, absdiff):
        with pytest.raises(ConfigError):
            detect_cdds(numeric_repo, absdiff, min_support=1)

    def test_determinant_count_validation(self, numeric_repo, absdiff):
        with pytest.raises(ConfigError, match="max_determinants must be >= 1"):
            detect_cdds(numeric_repo, absdiff, max_determinants=0)

    def test_no_rules_raises(self, absdiff):
        repo = Repository(
            [
                make_tuple("x1", -1, 0, ts("0.0"), ts("0.0")),
                make_tuple("x2", -1, 0, ts("0.5"), ts("1.0")),
            ]
        )
        with pytest.raises(NoRulesFound):
            detect_cdds(repo, absdiff, min_support=3, max_interval_width=0.05)


class TestSerialization:
    def test_roundtrip(self, numeric_repo, absdiff):
        rules = detect_cdds(numeric_repo, absdiff)
        text = rules_to_text(rules)
        back = rules_from_text(text)
        assert back == rules

    def test_bad_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            rules_from_text("not a rule\n")

    @pytest.mark.parametrize("payload", ["", "a++b", "a+", "+a"])
    def test_empty_token_in_a_constant_rejected(self, payload):
        assert rules_from_text("DEP=0 | 1:CONST:a+b -> [0.0,0.1]\n")[0].determinants[0].value == ts(
            "a", "b"
        )
        with pytest.raises(ConfigError, match="line 1"):
            rules_from_text(f"DEP=0 | 1:CONST:{payload} -> [0.0,0.1]\n")

    @pytest.mark.parametrize("interval", ["[nan,nan]", "[-5,7]", "[0.0,inf]"])
    def test_dependent_interval_outside_the_unit_interval_reports_line(self, interval):
        with pytest.raises(ConfigError, match="line 2"):
            rules_from_text(f"DEP=0 | 1:INT:0.0,0.1 -> [0.0,0.1]\nDEP=0 | 1:INT:0.0,0.1 -> {interval}\n")

    def test_rules_naming_one_field_share_its_constraint(self):
        text = "DEP=0 | 1:INT:0.0,0.1 | 2:CONST:a -> [0.0,0.1]\nDEP=3 | 2:CONST:a -> [0.0,0.2]\n"
        first, second = rules_from_text(text)
        assert first.determinants[1] is second.determinants[0]
        assert rules_to_text([first, second]) == text

    def test_a_bad_field_names_the_first_line_that_holds_it(self):
        good = "DEP=0 | 1:CONST:a -> [0.0,0.1]\n"
        bad = "DEP=0 | 1:INT:0.3,0.1 -> [0.0,0.1]\n"
        with pytest.raises(ConfigError, match="^rule file line 2: bad constraint interval"):
            rules_from_text(good + bad + bad.replace("DEP=0", "DEP=2"))

    def test_every_interval_is_closed_so_every_rule_serializes(self):
        rules = [cdd1(), cdd2()]
        assert rules_from_text(rules_to_text(rules)) == rules

    @pytest.mark.parametrize(
        "again",
        [
            "DEP=0 | 1:INT:0.0,0.1 | 2:CONST:a -> [0.0,0.1]",
            "DEP=0 | 2:CONST:a | 1:INT:0.0,0.1 -> [0.0,0.1]",
            "DEP=0 | 1:INT:0.00,0.10 | 2:CONST:a -> [0.0,0.1]",
        ],
        ids=["same-text", "reordered", "same-floats"],
    )
    def test_a_rule_read_twice_names_both_lines(self, again):
        first = "DEP=0 | 1:INT:0.0,0.1 | 2:CONST:a -> [0.0,0.1]\n"
        other = "DEP=0 | 1:INT:0.0,0.1 | 2:CONST:b -> [0.0,0.1]\n"
        assert len(rules_from_text(first + other)) == 2
        with pytest.raises(ConfigError, match="line 3: the rule of line 1 again"):
            rules_from_text(first + other + again + "\n")

    @given(mutated_file(RULE_FILE, r" \| | -> "))
    # determinants out of attribute order, and a token ending in a space, first
    # in the file but last once sorted
    @example(("DEP=0 | 2:INT:0.0,0.25 | 1:CONST:a+b -> [0.0,0.5]\n", 1))
    @example(("DEP=0 | 1:CONST:z +b -> [0.0,0.5]\n", 1))
    def test_a_mutated_file_reads_back_or_names_its_line(self, mutated):
        text, lineno = mutated
        try:
            rules = rules_from_text(text)
        except ConfigError as exc:
            # every rule-file error names the line read, and a repeated rule also the line it repeats
            m = re.match(r"rule file line (\d+): (?:the rule of line (\d+) again$)?", str(exc))
            assert m and str(lineno) in m.groups(), str(exc)
            return
        assert rules_from_text(rules_to_text(rules)) == rules
