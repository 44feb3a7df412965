import hashlib
import json

import numpy as np
import pytest

from tlonemax import cli, markov
from tlonemax.cli import EXIT_OK, EXIT_USAGE, EXIT_VERDICT_FAIL, main

ESTIMATE_HEADER = ("algo,n,w,trials,budget,seed,successes,event1,event2,event3,"
                   "undecided,p_success,ci_low,ci_high,mean_gen")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def without_volatile(payload: str) -> dict:
    doc = json.loads(payload)
    doc.pop("timestamp", None)
    if isinstance(doc.get("result"), dict):
        doc["result"].pop("wall_time_s", None)
    return doc


class TestEstimate:
    def test_json_document_and_roundtrip(self, capsys):
        code, out, _ = run(capsys, "estimate", "--algo", "ea", "--n", "12", "--w", "0",
                           "--trials", "50", "--seed", "3")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["command"] == "estimate" and doc["tool"] == "tlonemax"
        assert json.loads(json.dumps(doc)) == doc
        assert doc["result"]["successes"] == 50

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "estimate", "--algo", "rls", "--n", "10", "--w", "2",
                           "--trials", "80", "--seed", "1", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == ESTIMATE_HEADER
        assert len(lines) == 2 and '"' not in out

    def test_byte_identical_given_seed(self, capsys):
        args = ("estimate", "--algo", "rls", "--n", "10", "--w", "-3",
                "--trials", "60", "--seed", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert without_volatile(out1) == without_volatile(out2)
        _, csv1, _ = run(capsys, *args, "--format", "csv")
        _, csv2, _ = run(capsys, *args, "--format", "csv")
        assert csv1 == csv2

    def test_missing_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--algo", "rls", "--w", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "--n" in capsys.readouterr().err

    def test_mu_flag_misuse(self, capsys):
        code, _, err = run(capsys, "estimate", "--algo", "rls", "--n", "8", "--w", "1",
                           "--mu", "4")
        assert code == EXIT_USAGE and err.strip()
        code, _, err = run(capsys, "estimate", "--algo", "mu-ea", "--n", "8", "--w", "-8",
                           "--trials", "5")
        assert code == EXIT_USAGE and "--mu" in err

    def test_mu_ea_runs(self, capsys):
        code, out, _ = run(capsys, "estimate", "--algo", "mu-ea", "--mu", "4", "--n", "8",
                           "--w", "-8", "--trials", "10", "--budget", "4000", "--seed", "2")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["result"]["trials"] == 10


class TestExact:
    def test_csv_schema_and_closed_form(self, capsys):
        code, out, _ = run(capsys, "exact", "--algo", "rls", "--n", "20", "--w", "3",
                           "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "algo,n,w,p_opt,p_event1,p_event2,p_event3"
        fields = lines[1].split(",")
        assert abs(float(fields[3]) - (1 - 0.275)) <= 1e-10

    def test_json_with_per_state_and_hitting(self, capsys):
        code, out, _ = run(capsys, "exact", "--algo", "ea", "--n", "6", "--w", "-6",
                           "--per-state", "--hitting-times")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["result"]["per_state"]) == 24
        assert doc["result"]["hitting"]["overall_conditional_generations"] > 0
        assert json.loads(json.dumps(doc)) == doc  # NaN-free strict JSON

    @pytest.mark.parametrize("algo", ["rls", "ea"])
    def test_hitting_times_reuse_the_absorption_solve(self, capsys, monkeypatch, algo):
        # --hitting-times solves for absorption once and reports the
        # probabilities of that one solve, bit-equal to those of the plain
        # --per-state run
        n, kind = 12, cli._parse_kind(algo, None)
        solve, calls = markov._solve_absorption, []

        def counted(*args):
            calls.append(args[-1])
            return solve(*args)

        monkeypatch.setattr(markov, "_solve_absorption", counted)
        for w in (-n, -1, 2):
            argv = ["exact", "--algo", algo, "--n", str(n), "--w", str(w), "--per-state"]
            _, plain, _ = run(capsys, *argv)
            calls.clear()
            code, both, _ = run(capsys, *argv, "--hitting-times")
            assert code == EXIT_OK and len(calls) == 1, (w, calls)
            plain, both = json.loads(plain)["result"], json.loads(both)["result"]
            for key in ("overall", "p_optimum", "p_failure"):
                assert both[key] == plain[key], (w, key)
            for a, b in zip(plain["per_state"], both["per_state"], strict=True):
                assert {k: v for k, v in b.items() if k.startswith("p_")} == \
                    {k: v for k, v in a.items() if k.startswith("p_")}, (w, a)
            hit = markov.conditional_hitting_time(kind, w, n)
            assert np.array_equal(hit.absorption.per_state,
                                  markov.absorption_probabilities(kind, w, n).per_state), w

    def test_mu_ea_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--algo", "mu-ea", "--n", "8", "--w", "2"])
        assert exc.value.code == EXIT_USAGE

    def test_per_state_requires_json(self, capsys):
        code, _, err = run(capsys, "exact", "--algo", "ea", "--n", "6", "--w", "1",
                           "--per-state", "--format", "csv")
        assert code == EXIT_USAGE and err.strip()

    def test_probability_one_example(self, capsys):
        code, out, _ = run(capsys, "exact", "--algo", "ea", "--n", "10", "--w", "0")
        doc = json.loads(out)
        assert abs(doc["result"]["p_optimum"] - 1) <= 1e-10


class TestVerifyCmd:
    def test_all_pass_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "all", "--n", "8",
                           "--samples", "2000")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert all(rep["passed"] for rep in doc["result"])
        assert len(doc["result"]) == 3

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "facts", "--n", "6",
                           "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "lemma,n,passed,worst_margin"

    def test_selection_refuses_zero_samples(self, capsys):
        code, out, err = run(capsys, "verify", "--lemma", "selection", "--n", "8",
                             "--samples", "0")
        assert code == EXIT_USAGE and out == ""
        assert "samples must be >= 1, got 0" in err

    def test_selection_uses_samples(self, capsys):
        code, out, _ = run(capsys, "verify", "--lemma", "selection", "--n", "8",
                           "--samples", "500")
        assert code == EXIT_OK
        assert json.loads(out)["result"][0]["grid"]["sampled_triples"] == 500


class TestScaling:
    def test_csv_rows_per_n(self, capsys):
        code, out, _ = run(capsys, "scaling", "--algo", "ea", "--w", "1",
                           "--ns", "8,12,16", "--trials", "10", "--seed", "3")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,mean_success_generations,std,successes"
        assert len(lines) == 4
        assert [int(l.split(",")[0]) for l in lines[1:]] == [8, 12, 16]

    def test_negative_w_usage_error(self, capsys):
        code, _, err = run(capsys, "scaling", "--algo", "ea", "--w", "-1",
                           "--ns", "8", "--trials", "5")
        assert code == EXIT_USAGE and err.strip()


class TestTrace:
    def test_output_pinned(self, capsys):
        # sha256 of the trace output per kind over five (n, w) and two seeds.
        # The rls digest was recorded from the step-by-step trial loop; the ea
        # digest from the same command run on the scalar-gap flip-field loop
        # (reference_trial in tests/test_algorithms.py) in place of run_trial
        pinned = {"rls": "d694f08849dd0e8e1233e4c312918d19f3ad59024326aa0ffb8f9b3e99a6eb2a",
                  "ea": "8dde73b865ed2c0545ea229b4c4d702730c8ed6de41a2f400ce5fca3d76cc027"}
        for algo in ("rls", "ea"):
            h = hashlib.sha256()
            for n, w in ((8, -2), (10, -10), (12, 3), (20, 1), (6, 0)):
                for seed in (0, 4):
                    code, out, _ = run(capsys, "trace", "--algo", algo, "--n", str(n),
                                       "--w", str(w), "--seed", str(seed))
                    assert code == EXIT_OK
                    h.update(out.encode())
            assert h.hexdigest() == pinned[algo], algo

    def test_terminates_with_outcome_line(self, capsys):
        code, out, _ = run(capsys, "trace", "--algo", "rls", "--n", "6", "--w", "-6",
                           "--seed", "1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "g,t,prev_first,current,fitness,accepted,event"
        assert lines[-1].startswith("outcome,")
        assert ("stagnated" in lines[-1]) or ("optimum" in lines[-1])

    def test_replay_is_deterministic(self, capsys):
        args = ("trace", "--algo", "ea", "--n", "8", "--w", "-2", "--seed", "4",
                "--budget", "500")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("argv", [("--n", "4", "--w", str(10**20)),
                                      ("--n", "1", "--w", "2"),
                                      ("--n", "6", "--w", "2", "--budget", "0")],
                             ids=["w-too-large", "n-too-small", "budget-zero"])
    def test_refusal_prints_nothing(self, capsys, argv):
        code, out, err = run(capsys, "trace", "--algo", "rls", *argv)
        assert code == EXIT_USAGE and out == "" and err.startswith("error: ")


class TestReproduce:
    @pytest.mark.parametrize("theorem", [4, 5, 7, 8, 9])
    def test_fast_presets_pass(self, capsys, theorem):
        code, out, _ = run(capsys, "reproduce", "--theorem", str(theorem))
        assert code == EXIT_OK
        assert out.strip().endswith("PASS")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--theorem", "8", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["result"]["verdict"] == "PASS"

    def test_excluded_value_fails(self, capsys, monkeypatch):
        # p_optimum is 1 at w = 0, outside these bounds
        monkeypatch.setitem(cli.CLAIMS, 8, [("rls", 10, 0, "p_optimum", 0.0, 0.5)])
        code, out, _ = run(capsys, "reproduce", "--theorem", "8")
        assert code == EXIT_VERDICT_FAIL
        assert out.strip().endswith("theorem 8: FAIL")
        code, out, _ = run(capsys, "reproduce", "--theorem", "8", "--format", "json")
        assert code == EXIT_VERDICT_FAIL
        result = json.loads(out)["result"]
        assert result["verdict"] == "FAIL" and result["records"][0]["ok"] is False

    def test_record_shape(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--theorem", "7", "--format", "json")
        assert code == EXIT_OK
        records = json.loads(out)["result"]["records"]
        assert len(records) == 9
        for rec in records:
            assert set(rec) == {"algo", "n", "w", "p_failure", "low", "high", "ok"}
            assert rec["algo"] == "rls" and rec["ok"] is True
            assert abs(rec["p_failure"] - (0.25 + 0.5 / rec["n"])) <= 1e-10

    def test_unknown_theorem_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--theorem", "6"])
        assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv, seed", [
    (["estimate", "--algo", "ea", "--n", "8", "--w", "0", "--trials", "5"], "-1"),
    (["scaling", "--algo", "rls", "--w", "1", "--ns", "8", "--trials", "5"], "-5"),
    (["trace", "--algo", "rls", "--n", "6", "--w", "2"], "-1"),
    (["verify", "--lemma", "ranks", "--n", "8", "--samples", "10"], "-1"),
    (["verify", "--lemma", "selection", "--n", "8", "--samples", "10"], "-1"),
], ids=["estimate", "scaling", "trace", "verify-ranks", "verify-selection"])
def test_negative_seed_names_the_value(capsys, argv, seed):
    code, out, err = run(capsys, *argv, "--seed", seed)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: seed must be >= 0, got {seed}\n"


@pytest.mark.parametrize("argv", [
    ["estimate", "--algo", "rls", "--n", "8", "--w", "0", "--trials", "3"],
    ["scaling", "--algo", "rls", "--w", "0", "--ns", "8", "--trials", "3"],
], ids=["estimate", "scaling"])
def test_workers_option_is_gone(capsys, argv):
    # trials always run in one process; the old option is a usage error
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", "2"])
    assert exc.value.code == EXIT_USAGE
    assert "--workers" in capsys.readouterr().err
