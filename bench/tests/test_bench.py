"""Tests of the benchmark's generators, oracles and tracer.

    python3 -m unittest discover -s bench/tests

Small inputs throughout: the program runs in process through click's test
runner, and each oracle must accept its real output and reject the same
output with one value altered.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import solve  # noqa: E402
import tracer  # noqa: E402
from click.testing import CliRunner  # noqa: E402

from cbrchain import cli  # noqa: E402


def cli_output(*args: str) -> str:
    result = CliRunner().invoke(cli.cli, [*args, "--format", "machine"])
    assert result.exit_code == 0, result.output
    return result.stdout


def bump(text: str, path: list) -> str:
    """The JSON ``text`` with the fraction at ``path`` increased by 1/7."""
    doc = json.loads(text)
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = str(Fraction(owner[path[-1]]) + Fraction(1, 7))
    return json.dumps(doc)


class GeneratorTests(unittest.TestCase):
    def test_walks_are_deterministic_per_seed(self):
        self.assertEqual(gen.walks(5, n=300), gen.walks(5, n=300))
        self.assertNotEqual(gen.walks(5, n=300)[0], gen.walks(6, n=300)[0])

    def test_walks_mix_separators_comments_and_censoring(self):
        text, tally = gen.walks(5, n=1000)
        self.assertEqual(tally["walks"] - tally["absorbed"], 10 * gen.WALK_CENSORED_PER_100)
        self.assertIn("#", text)
        self.assertIn(",", text)
        self.assertIn("\t", text)

    def test_library_is_deterministic_per_seed(self):
        self.assertEqual(gen.library(3, episodes=4, cases_per_episode=20),
                         gen.library(3, episodes=4, cases_per_episode=20))
        self.assertNotEqual(gen.library(3, episodes=4, cases_per_episode=20),
                            gen.library(4, episodes=4, cases_per_episode=20))

    def test_library_shares_cases_and_uses_every_source(self):
        doc = gen.library(3, episodes=4, cases_per_episode=20)
        entries = []

        def visit(episode):
            entries.extend(episode.get("cases", []))
            for sub in episode.get("sub_episodes", []):
                visit(sub)

        for episode in doc["episodes"]:
            visit(episode)
        ids = [case["id"] for case in entries]
        self.assertEqual(len(set(ids)), 80)
        self.assertGreater(len(ids), 80)
        self.assertEqual({k for case in entries for k in case} - {"id"},
                         {"t", "params", "trajectory"})

    def test_chains_are_deterministic_per_seed(self):
        for kind in ("dense", "sparse"):
            self.assertEqual(gen.chain(2, kind, transient=6), gen.chain(2, kind, transient=6))
            self.assertNotEqual(gen.chain(2, kind, transient=6),
                                gen.chain(3, kind, transient=6))

    def test_sparse_chain_has_four_successors_per_transient_row(self):
        doc = gen.chain(2, "sparse", transient=30)
        for row in doc["rows"]:
            positive = sum(1 for v in row if v != "0")
            self.assertIn(positive, (1, 4))


class OracleTests(unittest.TestCase):
    def assert_rejects(self, check, text):
        with self.assertRaises(oracles.Mismatch):
            check(text)

    def test_simulate(self):
        p31, p33 = Fraction(1, 3), Fraction(1, 3)
        text = cli_output("cbr-simulate", "--p31", "1/3", "--p33", "1/3",
                          "--samples", "2000", "--seed", "9")
        oracles.check_simulate(text, p31, p33, 2000)
        doc = json.loads(text)
        doc["report"]["censored_count"] += 1
        self.assert_rejects(lambda t: oracles.check_simulate(t, p31, p33, 2000),
                            json.dumps(doc))
        doc = json.loads(text)
        doc["report"]["empirical_mean_steps"] += 10 * doc["report"]["standard_error"]
        self.assert_rejects(lambda t: oracles.check_simulate(t, p31, p33, 2000),
                            json.dumps(doc))

    def test_runner_checks_first_output_then_identity(self):
        seen = []

        def check(text):
            seen.append(text)
            if text != "good":
                raise oracles.Mismatch("bad")

        job = run.Job("j", "j_s", check, ["j"])
        runner = run.Runner(Path(tempfile.gettempdir()))
        self.assertTrue(runner.check(job, "good"))
        self.assertTrue(runner.check(job, "good"))
        self.assertFalse(runner.check(job, "bad"))
        self.assertEqual(seen, ["good"])
        self.assertEqual(len(runner.errors), 1)

    def test_analyze(self):
        p31, p33 = Fraction(1, 3), Fraction(1, 3)
        text = cli_output("cbr-analyze", "--p31", "1/3", "--p33", "1/3")
        oracles.check_cbr_analyze(text, p31, p33)
        self.assert_rejects(lambda t: oracles.check_cbr_analyze(t, p31, p33),
                            bump(text, ["fundamental", "matrix", 1, 0]))
        text = cli_output("chain-analyze", "--p31", "1/3", "--p33", "1/3")
        oracles.check_chain_analyze(text, p31, p33)
        self.assert_rejects(lambda t: oracles.check_chain_analyze(t, p31, p33),
                            bump(text, ["expected_absorption_steps", "R1"]))

    def test_evolve(self):
        p31, p33 = Fraction(2, 7), Fraction(3, 11)
        text = cli_output("cbr-evolve", "--p31", "2/7", "--p33", "3/11", "--phases", "12")
        oracles.check_evolve(text, p31, p33, 12)
        self.assert_rejects(lambda t: oracles.check_evolve(t, p31, p33, 12),
                            bump(text, ["distributions", 9, "probs", "R3"]))

    def test_estimate(self):
        text, tally = gen.walks(4, n=500)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "walks.txt")
            path.write_text(text)
            out = cli_output("estimate", "--trajectories", str(path))
        oracles.check_estimate(out, tally)
        self.assert_rejects(lambda t: oracles.check_estimate(t, tally),
                            bump(out, ["params", "p33"]))

    def test_library(self):
        doc = gen.library(4, episodes=3, cases_per_episode=20)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "library.json")
            path.write_text(gen.dumps(doc))
            out = cli_output("library-efficiency", "--library", str(path))
        oracles.check_library(out, doc)
        case_id = next(iter(json.loads(out)["episodes"][1]["cases"]))
        self.assert_rejects(lambda t: oracles.check_library(t, doc),
                            bump(out, ["episodes", 1, "cases", case_id]))
        self.assert_rejects(lambda t: oracles.check_library(t, doc),
                            bump(out, ["system_efficiency"]))

    def test_solve(self):
        for kind in ("dense", "sparse"):
            doc = gen.chain(7, kind, transient=6)
            text = solve.to_json(solve.analyse(doc))
            oracles.check_solve(text, doc)
            self.assert_rejects(lambda t: oracles.check_solve(t, doc), bump(text, ["N", 2, 3]))
            self.assert_rejects(lambda t: oracles.check_solve(t, doc), bump(text, ["B", 0, 0]))


class TracerTests(unittest.TestCase):
    def bindings(self):
        """Every attribute of the package's modules, the command callbacks too."""
        found = {}
        for name, module in sorted(sys.modules.items()):
            if name == "cbrchain" or name.startswith("cbrchain."):
                for attr, value in vars(module).items():
                    found[(name, attr)] = value
        for name, command in cli.cli.commands.items():
            found[("callback", name)] = command.callback
        return found

    def test_wrappers_are_removed_and_outputs_unchanged(self):
        from cbrchain import cbr, markov, simulate

        job = run.Job("cbr-simulate", "simulate_s", lambda t: None,
                      ["cbr-simulate", "--p31", "1/3", "--p33", "1/3", "--samples", "300",
                       "--phases", "4", "--format", "machine"])
        before = self.bindings()
        plain, error = run.run_in_process(job)
        self.assertIsNone(error)
        tr = tracer.Tracer()
        with tr.installed():
            self.assertIsNot(markov.validate_stochastic, before[("cbrchain.markov",
                                                                 "validate_stochastic")])
            self.assertIsNot(cbr.validate_stochastic, before[("cbrchain.cbr",
                                                              "validate_stochastic")])
            self.assertIsNot(simulate.random, before[("cbrchain.simulate", "random")])
            traced, error = run.run_in_process(job)
        self.assertIsNone(error)
        self.assertEqual(traced, plain)
        after = self.bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertEqual(tr.calls("simulate.Random"), 300)
        self.assertEqual(tr.calls("simulate.derive_trajectory_seed"), 300)
        self.assertEqual(tr.calls("cli.cbr-simulate"), 1)
        self.assertTrue(any(span[1] == "simulate.run_simulation" for span in tr.spans))

    def test_times_nest(self):
        doc = gen.chain(1, "dense", transient=8)
        tr = tracer.Tracer()
        with tr.installed():
            solve.analyse(doc)
        self.assertEqual(tr.calls("markov.invert_matrix"), 1)
        self.assertLessEqual(tr.inclusive("markov.invert_matrix"),
                             tr.inclusive("markov.fundamental_matrix"))
        self.assertLessEqual(tr.inclusive("markov.fundamental_matrix"),
                             tr.layer_inclusive("markov"))


if __name__ == "__main__":
    unittest.main()
