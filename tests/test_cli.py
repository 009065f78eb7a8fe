import os
import subprocess
import sys
from pathlib import Path

import pytest

import etdgraph
from etdgraph import analytics, reason
from etdgraph.cli import main
from etdgraph.fixture import fixture_text
from etdgraph.graphio import import_quads
from etdgraph.vocab import EntityKind


@pytest.fixture
def store_path(tmp_path):
    source = tmp_path / "network.etd"
    source.write_text(fixture_text(), encoding="utf-8")
    out = tmp_path / "network.tnq"
    code = main([
        "ingest", str(source), "--out", str(out), "--batch-date", "none",
    ])
    assert code == 0
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_reports_counts(self, tmp_path, capsys):
        source = tmp_path / "n.etd"
        source.write_text(fixture_text(), encoding="utf-8")
        out = tmp_path / "n.tnq"
        code, stdout, _ = run(capsys, [
            "ingest", str(source), "--out", str(out), "--batch-date", "none",
        ])
        assert code == 0
        assert "records\t12" in stdout
        assert out.exists()

    def test_effect_counts_add_up_to_triples(self, tmp_path, capsys):
        source = tmp_path / "n.etd"
        source.write_text(fixture_text(), encoding="utf-8")
        code, stdout, _ = run(capsys, [
            "ingest", str(source), "--out", str(tmp_path / "n.tnq"), "--batch-date", "none",
        ])
        assert code == 0
        lines = stdout.splitlines()
        counts = dict(line.split("\t") for line in lines[1:5])
        assert list(counts) == ["triples", "inserted", "coalesced", "duplicate"]
        assert int(counts["triples"]) > 0
        assert sum(int(counts[k]) for k in ("inserted", "coalesced", "duplicate")) == int(
            counts["triples"]
        )

    def test_batch_date_recorded_but_not_exported(self, tmp_path, capsys):
        source = tmp_path / "n.etd"
        source.write_text(fixture_text(), encoding="utf-8")
        out_a = tmp_path / "a.tnq"
        out_b = tmp_path / "b.tnq"
        run(capsys, ["ingest", str(source), "--out", str(out_a), "--batch-date", "2013-01-01"])
        run(capsys, ["ingest", str(source), "--out", str(out_b), "--batch-date", "none"])
        assert out_a.read_text() == out_b.read_text()

    def test_bad_record_exits_2(self, tmp_path, capsys):
        source = tmp_path / "bad.etd"
        source.write_text("id p\ntype person\nname P\nfavourite-colour teal\n")
        code, _, stderr = run(capsys, [
            "ingest", str(source), "--out", str(tmp_path / "x.tnq"),
        ])
        assert code == 2
        assert "favourite-colour" in stderr

    def test_dangling_reference_exits_2_and_writes_nothing(self, tmp_path, capsys):
        source = tmp_path / "bad.etd"
        source.write_text(
            "id p\ntype person\nname P\nstudent-of nowhere@1990..\n"
        )
        out = tmp_path / "x.tnq"
        code, _, stderr = run(capsys, ["ingest", str(source), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_same_as_with_an_excluded_character_exits_2(self, tmp_path, capsys):
        source = tmp_path / "bad.etd"
        source.write_text("id p\ntype person\nname P\nsame-as http://viaf.example.org/a>b\n")
        out = tmp_path / "x.tnq"
        code, _, stderr = run(capsys, ["ingest", str(source), "--out", str(out)])
        assert code == 2
        assert "not allowed in an IRI" in stderr
        assert not out.exists()

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code, _, stderr = run(capsys, [
            "ingest", str(tmp_path / "missing.etd"), "--out", str(tmp_path / "x.tnq"),
        ])
        assert code == 3


class TestQuery:
    def test_result_table(self, store_path, capsys):
        code, stdout, _ = run(capsys, [
            "query", "--store", str(store_path),
            "SELECT ?w WHERE { ?w etd:advisedBy person/pC . }",
        ])
        assert code == 0
        assert stdout.splitlines() == ["?w", "http://example.org/etd/work/phd1"]

    def test_malformed_query_exits_2(self, store_path, capsys):
        code, stdout, stderr = run(capsys, [
            "query", "--store", str(store_path), "SELECT ?x WHERE { }",
        ])
        assert code == 2
        assert stdout == ""
        assert "error" in stderr

    def test_usage_error_exits_1(self, capsys):
        code, _, stderr = run(capsys, ["query"])
        assert code == 1


class TestReport:
    def test_mobility_window(self, store_path, capsys):
        code, stdout, _ = run(capsys, [
            "report", "mobility", "--store", str(store_path),
            "--during", "2000..2010",
        ])
        assert code == 0
        pa_rows = [l for l in stdout.splitlines() if "person/pA" in l]
        assert len(pa_rows) == 1
        assert pa_rows[0].endswith("\t6")
        assert "student" in pa_rows[0] and "professor" in pa_rows[0]

    def test_mobility_derives_each_person_once(self, store_path, capsys, monkeypatch):
        people = []
        real = reason.derive_mobility

        def counting(store, person, *rest):
            people.append(person)
            return real(store, person, *rest)

        # analytics holds its own reference to derive_mobility
        monkeypatch.setattr(reason, "derive_mobility", counting)
        monkeypatch.setattr(analytics, "derive_mobility", counting)
        code, _, _ = run(capsys, ["report", "mobility", "--store", str(store_path)])
        assert code == 0
        with open(store_path, encoding="utf-8") as fh:
            persons = import_quads(fh.read()).entities_of_kind(EntityKind.PERSON)
        assert people == persons

    def test_mobility_counts_skipped_boundaries_on_one_line(self, tmp_path):
        source = tmp_path / "overlap.etd"
        source.write_text(
            "id u1\ntype body\nname U1\nbody-kind university\n\n"
            "id u2\ntype body\nname U2\nbody-kind university\n\n"
            "id p\ntype person\nname P\nprofessor-at u1@1990..2000\nprofessor-at u2@1995..\n",
            encoding="utf-8",
        )
        out = tmp_path / "overlap.tnq"
        assert main(["ingest", str(source), "--out", str(out), "--batch-date", "none"]) == 0
        # a fresh interpreter: pytest's log capture would hide stray lines
        src = str(Path(etdgraph.__file__).resolve().parent.parent)
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(
            [sys.executable, "-m", "etdgraph.cli", "report", "mobility", "--store", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[1:] == []  # header only
        assert proc.stderr.splitlines() == [
            "warning: skipped 1 mobility boundaries with open-ended or overlapping affiliations"
        ]

    def test_gender_tally(self, store_path, capsys):
        code, stdout, _ = run(capsys, [
            "report", "gender", "--store", str(store_path),
            "--scope", "body/ux", "--role", "advisor", "--at", "1998",
            "--subdivisions",
        ])
        assert code == 0
        assert "gender/female\t2" in stdout

    def test_supervision_share(self, store_path, capsys):
        code, stdout, _ = run(capsys, [
            "report", "supervision", "--store", str(store_path),
            "--during", "1990..2010", "--kind", "phd",
        ])
        assert code == 0
        assert "gender/female\t1\t0.5000" in stdout
        assert "gender/male\t1\t0.5000" in stdout

    def test_matrix(self, store_path, capsys):
        code, stdout, _ = run(capsys, [
            "report", "matrix", "--store", str(store_path),
            "--during", "1990..2005",
        ])
        assert code == 0
        assert "gender/female\thttp://example.org/etd/gender/male\t2" in stdout.replace(
            "http://example.org/etd/", "", 1
        )

    def test_structure(self, store_path, capsys):
        code, stdout, _ = run(capsys, [
            "report", "structure", "--store", str(store_path), "--scope", "body/ux",
        ])
        assert code == 0
        established = [l for l in stdout.splitlines()
                       if "established" in l and "facB" in l]
        assert established and established[0].startswith("1963\t")

    def test_interdisciplinary_and_cooperation_empty(self, store_path, capsys):
        code, stdout, _ = run(capsys, [
            "report", "interdisciplinary", "--store", str(store_path),
            "--during", "1990..2020",
        ])
        assert code == 0 and "count\t0" in stdout
        code, stdout, _ = run(capsys, [
            "report", "cooperation", "--store", str(store_path),
            "--during", "1990..2020",
        ])
        assert code == 0
        assert stdout.splitlines() == ["institution-a\tinstitution-b\tshared-works"]


class TestExport:
    def test_tnq_matches_library(self, store_path, capsys):
        code, stdout, _ = run(capsys, [
            "export", "--store", str(store_path), "--format", "tnq",
        ])
        assert code == 0
        assert stdout == store_path.read_text()

    def test_dot(self, store_path, capsys):
        code, stdout, _ = run(capsys, [
            "export", "--store", str(store_path), "--format", "dot",
            "--focus", "person/pA", "--radius", "1",
        ])
        assert code == 0
        assert stdout.startswith("digraph etd {")


class TestDescribeAndStats:
    def test_describe(self, store_path, capsys):
        code, stdout, _ = run(capsys, [
            "describe", "--store", str(store_path), "person/pA",
        ])
        assert code == 0
        assert "hasGender" in stdout and "gender/male" in stdout

    def test_describe_missing_exits_2(self, store_path, capsys):
        code, _, stderr = run(capsys, [
            "describe", "--store", str(store_path), "person/ghost",
        ])
        assert code == 2

    def test_describe_lone_surrogate_exits_2(self, store_path, capsys):
        # an undecodable command-line byte reaches argv as a lone surrogate
        code, _, stderr = run(capsys, [
            "describe", "--store", str(store_path), "person/\udcff",
        ])
        assert code == 2
        assert stderr.startswith("error: ")

    def test_stats_census(self, store_path, capsys):
        code, stdout, _ = run(capsys, ["stats", "--store", str(store_path)])
        assert code == 0
        lines = stdout.splitlines()
        assert "persons\t4" in lines
        assert "bodies\t5" in lines
        assert "works\t3" in lines
        assert "places\t0" in lines

    def test_stats_on_malformed_metadata_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tnq"
        bad.write_text(
            "<http://a.org/c> <http://example.org/etd/vocab#source> <http://x.org/y> .\n",
            encoding="utf-8",
        )
        code, _, stderr = run(capsys, ["stats", "--store", str(bad)])
        assert code == 2
        assert stderr == "error: line 1: source must be a literal\n"


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, store_path, capsys):
        argvs = [
            ["stats", "--store", str(store_path)],
            ["query", "--store", str(store_path),
             "SELECT ?p WHERE { ?p etd:isProfessorAt body/uy @2009 . }"],
            ["report", "mobility", "--store", str(store_path), "--during", "2000..2010"],
            ["export", "--store", str(store_path), "--format", "dot"],
        ]
        for argv in argvs:
            _, first, _ = run(capsys, argv)
            _, second, _ = run(capsys, argv)
            assert first == second


class TestEnvironment:
    def test_base_iri_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ETD_BASE_IRI", "http://catalog.example.edu/kb")
        source = tmp_path / "n.etd"
        source.write_text(fixture_text(), encoding="utf-8")
        out = tmp_path / "n.tnq"
        code, _, _ = run(capsys, [
            "ingest", str(source), "--out", str(out), "--batch-date", "none",
        ])
        assert code == 0
        assert "<http://catalog.example.edu/kb/person/pA>" in out.read_text()

    def test_describe_accepts_full_iri(self, store_path, capsys):
        code, stdout, _ = run(capsys, [
            "describe", "--store", str(store_path),
            "http://example.org/etd/person/pA",
        ])
        assert code == 0 and "hasGender" in stdout
