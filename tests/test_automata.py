"""DFA construction by formula progression, word generation, soundness."""

import hashlib

import numpy as np
import pytest

import gtl.automata
from gtl.cli import main
from gtl.errors import OutOfScopeError, UsageError
from gtl.automata import extract_aps, label_word, minimize, to_dfa
from gtl.formula import Not, parse, print_formula
from gtl.graph import GraphTemporalTrajectory, LabeledGraph
from gtl.semantics import sat

from conftest import random_formula, random_trajectory


def single_node(values):
    g = LabeledGraph(["a"], [])
    return GraphTemporalTrajectory(g, [list(map(float, values))],
                                   np.zeros((0, len(values))))


class TestExtractAps:
    def test_atoms_and_exists(self):
        f = parse("G (x <= 1 -> F[<=2] E 2 via (y <= 1) : x >= 2)")
        aps = extract_aps(f)
        assert [print_formula(a) for a in aps] == \
            ["x <= 1", "E 2 via (y <= 1) : x >= 2"]

    def test_duplicates_collapse(self):
        f = parse("x <= 1 & (x <= 1 | x >= 2)")
        assert len(extract_aps(f)) == 2

    def test_temporal_inside_exists_rejected(self):
        with pytest.raises(OutOfScopeError):
            extract_aps(parse("E 1 via (y <= 1) : F x >= 1"))


class TestLabelWord:
    def test_bitmask_letters(self, path3):
        aps = [parse("x <= 0.4"), parse("x >= 0.6")]
        word = label_word(path3, "a", aps)
        # a: x = 0.1, 0.9, 0.4 -> {ap0}, {ap1}, {ap0}
        assert word == [0b01, 0b10, 0b01]
        assert len(label_word(path3, "b", aps)) == path3.L


class TestToDfa:
    def test_single_atom_three_states(self):
        dfa, aps = to_dfa(parse("x <= 1"))
        assert dfa.n_states == 3
        assert dfa.run_word([1, 0, 0])
        assert not dfa.run_word([0, 1, 1])

    def test_bounded_eventually_enumeration(self):
        dfa, aps = to_dfa(parse("F[<=1] x >= 1"))
        for w in [[0, 0], [0, 1], [1, 0], [1, 1]]:
            assert dfa.run_word(w) == (w[0] == 1 or w[1] == 1)

    def test_response_formula_state_count(self):
        dfa, _ = to_dfa(parse("G (x <= 0 -> F[<=1] x >= 1)"))
        assert dfa.n_states <= 4

    def test_empty_acceptance_constants(self):
        dfa, _ = to_dfa(parse("FALSE"))
        assert not dfa.run_word([0, 0])
        dfa, _ = to_dfa(parse("TRUE"))
        assert dfa.run_word([0, 0])

    def test_accepting_word_trace(self):
        dfa, _ = to_dfa(parse("F[<=1] x >= 1"))
        q = dfa.initial
        q = dfa.step(q, 0)
        q = dfa.step(q, 1)
        assert dfa.accepting[q]

    def test_requires_ground_formula(self):
        with pytest.raises(UsageError):
            to_dfa(parse("x <= ?c"))

    def test_transitions_total(self):
        dfa, aps = to_dfa(parse("x <= 0 U F[<=2] x >= 1"))
        assert dfa.transitions.shape == (dfa.n_states, 2 ** len(aps))
        assert (dfa.transitions >= 0).all()
        assert (dfa.transitions < dfa.n_states).all()


class TestSoundness:
    def _check(self, traj, f, v):
        dfa, aps = to_dfa(f)
        word = label_word(traj, v, aps)
        assert dfa.run_word(word) == sat(traj, f, v, 1), str(f)
        ndfa, naps = to_dfa(Not(f))
        nword = label_word(traj, v, naps)
        assert ndfa.run_word(nword) == (not sat(traj, f, v, 1)), str(f)

    def test_response_exhaustive_two_nodes(self):
        # all 2-node boolean patterns over L=3 for the response formula
        g = LabeledGraph(["a", "b"], [("e1", "a", "b")])
        f = parse("G (x <= 0 -> F[<=1] x >= 1)")
        for bits in range(2 ** 6):
            vals = [(bits >> i) & 1 for i in range(6)]
            t = GraphTemporalTrajectory(
                g, [vals[:3], vals[3:]], [[1.0, 1.0, 1.0]])
            self._check(t, f, "a")

    def test_random_differential(self, six_node):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = random_formula(rng, depth=3)
            v = str(rng.choice(six_node.graph.nodes))
            self._check(six_node, f, v)

    def test_random_trajectories_differential(self):
        rng = np.random.default_rng(5)
        g = LabeledGraph.complete(["a", "b", "c"])
        for _ in range(100):
            traj = random_trajectory(rng, g, L=4)
            f = random_formula(rng, depth=3)
            self._check(traj, f, "a")


class TestMinimize:
    def test_language_preserved(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            f = random_formula(rng, depth=3, allow_exists=False)
            dfa, aps = to_dfa(f)
            small = minimize(dfa)
            assert small.n_states <= dfa.n_states
            for _ in range(20):
                w = [int(x) for x in
                     rng.integers(0, 2 ** len(aps), size=4)]
                assert dfa.run_word(w) == small.run_word(w)

    def test_to_dot(self):
        dfa, _ = to_dfa(parse("F x >= 1"))
        dot = dfa.to_dot()
        assert dot.startswith("digraph") and "->" in dot


def c2_formulas(n):
    """The first n formulas of the C2 acceptance corpus: the same seed and
    the same draws, trajectories included."""
    rng = np.random.default_rng(2026)
    g = LabeledGraph.complete(["a", "b", "c"])
    for _ in range(n):
        f = random_formula(rng, depth=3)
        for _ in range(10):
            random_trajectory(rng, g, L=4)
        yield f


class _Forgetful(dict):
    """A memo that never stores, so every progression step is recomputed."""

    def __setitem__(self, key, value):
        pass


class TestProgressionMemo:
    def test_memo_changes_no_automaton(self, monkeypatch):
        formulas = [g for f in c2_formulas(50) for g in (f, Not(f))]
        built = [to_dfa(f) for f in formulas]
        init = gtl.automata._Progression.__init__

        def forgetful_init(self, ap_bits):
            init(self, ap_bits)
            self.memo = _Forgetful()

        monkeypatch.setattr(gtl.automata._Progression, "__init__", forgetful_init)
        for f, (dfa, aps) in zip(formulas, built):
            ref, ref_aps = to_dfa(f)
            assert aps == ref_aps, str(f)
            assert np.array_equal(dfa.transitions, ref.transitions), str(f)
            assert np.array_equal(dfa.accepting, ref.accepting), str(f)
            assert dfa.initial == ref.initial, str(f)

    def test_memo_dropped_with_the_call(self, monkeypatch):
        made = []
        init = gtl.automata._Progression.__init__

        def recording_init(self, ap_bits):
            init(self, ap_bits)
            made.append(self)

        monkeypatch.setattr(gtl.automata._Progression, "__init__", recording_init)
        to_dfa(parse("G (x <= 0 -> F[<=2] x >= 1)"))
        to_dfa(parse("G (x <= 0 -> F[<=2] x >= 1)"))
        assert len(made) == 2 and made[0].memo is not made[1].memo


def c2_corpus_sha256():
    """sha256 over the DOT text and the atomic predicates of to_dfa(f)
    and to_dfa(Not(f)) for the 250 C2 formulas."""
    h = hashlib.sha256()
    for f in c2_formulas(250):
        for g in (f, Not(f)):
            dfa, aps = to_dfa(g)
            h.update(dfa.to_dot().encode() + b"\n")
            h.update("".join(f"{ap}\n" for ap in aps).encode())
    return h.hexdigest()


# recorded while progression still dropped syntactically implied literals
C2_CORPUS_SHA256 = "cb09a1a7df2c763063fd4a3a89c8725c76bbba8ecd7b9a0b6c260c4b628f60e8"


def test_c2_corpus_automata_unchanged():
    assert c2_corpus_sha256() == C2_CORPUS_SHA256


# sha256 of `gtl dfa --dot` output for the ten built-in shapes at
# i1=2, i2=8, i3=3, N=2, d=1.5, c=0.11, a=0.125 (type-II shapes: their body),
# recorded before progression was memoized
BUILTIN_DOT_SHA256 = {
    "G[>=2][<=8] E 2 via (y <= 1.5) : x <= 0.11":
        "0708f70f90a7db3ef5f4f275ba82527daefe9854294564bd4bd239ebf4662883",
    "F[>=2][<=8] E 2 via (y <= 1.5) : x <= 0.11":
        "f3361edc65ea42a2a8c3f9cfce26931715031e5d1df8de3541a69e85d728f2d3",
    "G[>=2][<=8] F[<=3] E 2 via (y <= 1.5) : x <= 0.11":
        "678621591040a85733d84812ba4348dd417a38862d0ad9fecd663ee3d55a78a8",
    "F[>=2][<=8] G[<=3] E 2 via (y <= 1.5) : x <= 0.11":
        "b5936005f0d0ca1abfa9a9e794734ea6257014d19d6c8003c5d9c2216fb97b4f",
    "G (x >= 0.125 -> G[<=3] E 2 via (y <= 1.5) : x <= 0.11)":
        "468ef8c8dbc8df298e501533fe4cfd35cab58d663c6be52c3c6033c21bf39c88",
    "G (x >= 0.125 -> F[<=3] E 2 via (y <= 1.5) : x <= 0.11)":
        "fb1fd56510c5e8c9a7d697b7278678d44eed37a510b52b587fc81fafc3ed5cca",
    "G[>=2][<=8] x <= 0.11":
        "335a34d4121072d6d2557d56829b1ac9373c79fd5871b7f24a39a71209fbd43a",
    "F[>=2][<=8] x <= 0.11":
        "ef0b8ebf4c1d891a54b90a39c7e48d861bef36411fe96f09c2ae0419626f0fa3",
    "G[>=2][<=8] F[<=3] x <= 0.11":
        "206702ccd7d8a08e8b40911835367c7a748159d6d94a04ac9f7640b62ff82122",
    "F[>=2][<=8] G[<=3] x <= 0.11":
        "b0143e4f4c46749da865f3010afbe55922a4514219130fd679017ef4b5e8c765",
}


@pytest.mark.parametrize("text", sorted(BUILTIN_DOT_SHA256))
def test_builtin_shape_dot_unchanged(text, tmp_path):
    dot = tmp_path / "dfa.dot"
    assert main(["dfa", "--formula", text, "--dot", str(dot),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == BUILTIN_DOT_SHA256[text]
