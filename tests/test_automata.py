"""DFA construction from the backward monitor and its determinized
reverse, word labelling, soundness, and a differential against formula
progression, the construction it replaced."""

import hashlib

import numpy as np
import pytest

from gtl import automata
from gtl.cli import main
from gtl.errors import InputError, OutOfScopeError, UsageError
from gtl.automata import Dfa, extract_aps, label_word, to_dfa
from gtl.formula import (
    Always, And, Atom, Bound, Eventually, Exists, FalseF, Not, Or, TrueF, Until,
    _children, desugar, parse, print_formula,
)
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

    def test_compared_by_identity(self):
        # field-wise == would compare the transition arrays and raise
        dfa, twin = to_dfa(parse("F x <= 1"))[0], to_dfa(parse("F x <= 1"))[0]
        assert dfa == dfa and dfa != twin
        assert dfa in [twin, dfa] and twin not in [dfa]

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

    def test_long_bound_is_minimal_and_exact(self):
        # one state per step of the bound, plus the start, the hit and the miss
        dfa, aps = to_dfa(parse("F[<=2000] x <= 1"))
        assert dfa.n_states == 2003 and dfa.n_letters == 2
        for hit in (0, 1, 1000, 2000):
            word = [0] * 2100
            word[hit] = 1
            assert dfa.run_word(word), hit
        for hit in (2001, 2099):
            word = [0] * 2100
            word[hit] = 1
            assert not dfa.run_word(word), hit
        assert dfa.run_word([1]) and not dfa.run_word([]) and not dfa.run_word([0] * 2001)

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


class TestStateCaps:
    def test_monitor_cap_is_exact(self, monkeypatch):
        # the monitor counts both distances, past the DFA cap; the DFA only
        # the time and which atom came first
        f = parse("F[<=100] x <= 1 & F[<=100] x >= 3")
        assert to_dfa(f)[0].n_states == 303
        monkeypatch.setattr(automata, "MAX_MONITOR_STATES", 102 ** 2)
        assert to_dfa(f)[0].n_states == 303
        monkeypatch.setattr(automata, "MAX_MONITOR_STATES", 102 ** 2 - 1)
        with pytest.raises(InputError, match="^automaton passes 10403 monitor states; the "
                                             "formula's largest time bound is 100$"):
            to_dfa(f)

    def test_monitor_cap_refuses_sibling_bounds_that_progression_builds(self):
        # a known loss: 402^2 monitor states pass the cap, the DFA has 1,203
        f = parse("F[<=400] x <= 1 & F[<=400] x >= 3")
        with pytest.raises(InputError, match="^automaton passes 100000 monitor states"):
            to_dfa(f)
        assert progression_dfa(f)[0].n_states == 1203

    def test_dfa_cap(self):
        with pytest.raises(InputError, match="^automaton passes 10000 states; the "
                                             "formula's largest time bound is 10001$"):
            to_dfa(parse("F[<=10001] x <= 1"))


class TestMinimize:
    def test_language_preserved(self):
        # to_dfa is minimal by construction: minimizing merges nothing
        rng = np.random.default_rng(9)
        for _ in range(40):
            f = random_formula(rng, depth=3, allow_exists=False)
            dfa, aps = to_dfa(f)
            small = minimize(dfa)
            assert small.n_states == dfa.n_states, str(f)
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


# ---------------------------------------------------------------------------
# reference: formula progression over residual DNFs, then minimization.
# to_dfa built its automata this way before it read formulas backward; the
# minimal DFA is unique and both number states breadth first, so the two
# must agree exactly.

TRUE_DNF = frozenset({frozenset()})
FALSE_DNF = frozenset()


def _absorb(clauses):
    """The clauses of a set that no other clause strictly contains."""
    return frozenset([c for c in clauses if not any(c2 < c for c2 in clauses)])


def or_dnf(*dnfs):
    clauses = set()
    for d in dnfs:
        clauses |= d
    if frozenset() in clauses:
        return TRUE_DNF
    return _absorb(clauses)


def and_dnf(a, b):
    clauses = {c1 | c2 for c1 in a for c2 in b}
    if frozenset() in clauses:
        return TRUE_DNF
    return _absorb(clauses)


def _lit(f):
    return frozenset({frozenset({(f, True)})})


class _Progression:
    """Formula progression over one alphabet, memoized for one
    progression_dfa call.

    The residuals of one automaton keep meeting the same obligations under
    the same letters, so _prog results are kept per (formula, letter) and
    conjunction and negation results per argument.
    """

    def __init__(self, ap_bits):
        self.ap_bits = ap_bits
        self.memo = {}

    def and_(self, a, b):
        key = ("and", a, b)
        d = self.memo.get(key)
        if d is None:
            d = self.memo[key] = and_dnf(a, b)
        return d

    def negate(self, d):
        key = ("not", d)
        acc = self.memo.get(key)
        if acc is not None:
            return acc
        acc = TRUE_DNF
        for clause in d:
            neg = frozenset(frozenset({(f, not s)}) for f, s in clause)
            if not neg:  # negation of TRUE clause
                acc = FALSE_DNF
                break
            acc = self.and_(acc, neg)
            if acc == FALSE_DNF:
                break
        self.memo[key] = acc
        return acc

    def prog(self, f, letter):
        """DNF of next-step obligations given that f must hold now and the
        current letter is `letter`."""
        key = (f, letter)
        d = self.memo.get(key)
        if d is None:
            d = self.memo[key] = self._prog(f, letter)
        return d

    def _prog(self, f, letter):
        if isinstance(f, TrueF):
            return TRUE_DNF
        if isinstance(f, FalseF):
            return FALSE_DNF
        if isinstance(f, (Atom, Exists)):
            return TRUE_DNF if letter & (1 << self.ap_bits[f]) else FALSE_DNF
        if isinstance(f, Not):
            return self.negate(self.prog(f.sub, letter))
        if isinstance(f, And):
            return self.and_(self.prog(f.left, letter), self.prog(f.right, letter))
        if isinstance(f, Or):
            return or_dnf(self.prog(f.left, letter), self.prog(f.right, letter))
        if isinstance(f, (Eventually, Always, Until)):
            # F b is TRUE U b; G b joins "now" and "later" with and_, not or
            *left, right = kids = _children(f)
            pa = self.prog(left[0], letter) if left else None

            def guard(d):
                return d if pa is None else self.and_(pa, d)

            lo, hi = _bound_parts(f.bound)
            if lo >= 1:
                return guard(_lit(type(f)(*kids, bound=_dec_lo(f.bound))))
            now = guard(self.prog(right, letter))
            if hi == 0:
                return now
            later = guard(_lit(type(f)(*kids, bound=_dec_hi(f.bound))))
            return self.and_(now, later) if isinstance(f, Always) else or_dnf(now, later)
        raise TypeError(f"not a formula node: {f!r}")

    def state(self, state, letter):
        """The residual DNF after reading `letter` in `state`."""
        out = FALSE_DNF
        for clause in state:
            acc = TRUE_DNF
            for f, s in clause:
                d = self.prog(f, letter)
                acc = self.and_(acc, d if s else self.negate(d))
                if acc == FALSE_DNF:
                    break
            out = or_dnf(out, acc)
            if out == TRUE_DNF:
                break
        return out


def _bound_parts(b):
    if b is None:
        return 0, float("inf")
    lo = b.lo if b.lo is not None else 0
    hi = b.hi if b.hi is not None else float("inf")
    return lo, hi


def _dec_lo(bound):
    lo = bound.lo - 1
    return Bound(lo if lo > 0 else None, bound.hi)


def _dec_hi(bound):
    if bound is None or bound.hi is None:
        return bound
    return Bound(bound.lo, bound.hi - 1)


def _empty(f):
    """Truth of an obligation on the empty suffix past the trace end."""
    if isinstance(f, TrueF):
        return True
    if isinstance(f, (FalseF, Atom, Exists, Until, Eventually)):
        return False
    if isinstance(f, Always):
        return True
    if isinstance(f, Not):
        return not _empty(f.sub)
    if isinstance(f, And):
        return _empty(f.left) and _empty(f.right)
    if isinstance(f, Or):
        return _empty(f.left) or _empty(f.right)
    raise TypeError(f"not a formula node: {f!r}")


def _empty_state(state):
    return any(all(_empty(f) == s for f, s in clause) for clause in state)


def progression_dfa(f):
    """The DFA of f by progression of residual DNFs, then minimized."""
    f = desugar(f)
    aps = extract_aps(f)
    prog = _Progression({ap: i for i, ap in enumerate(aps)})
    n_letters = 1 << len(aps)
    init = _lit(f)
    states = {init: 0}
    order = [init]
    trans = []
    for s in order:
        row = []
        for letter in range(n_letters):
            t = prog.state(s, letter)
            if t not in states:
                states[t] = len(order)
                order.append(t)
            row.append(states[t])
        trans.append(row)
    transitions = np.array(trans, dtype=np.int64).reshape(len(order), n_letters)
    accepting = np.array([_empty_state(s) for s in order], dtype=bool)
    dfa = Dfa(aps=aps, transitions=transitions, accepting=accepting, initial=0)
    return minimize(dfa), aps


def minimize(dfa: Dfa) -> Dfa:
    """Partition-refinement minimization over reachable states."""
    rows = dfa.transitions.tolist()
    # reachable states only
    reach = {dfa.initial}
    stack = [dfa.initial]
    while stack:
        for t in rows[stack.pop()]:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    reach = sorted(reach)
    remap = {q: i for i, q in enumerate(reach)}
    trans = [[remap[t] for t in rows[q]] for q in reach]
    acc = dfa.accepting[reach]

    block = [1 if a else 0 for a in acc]
    while True:
        sig = {}
        new_block = [sig.setdefault((block[q], tuple([block[t] for t in row])), len(sig))
                     for q, row in enumerate(trans)]
        if new_block == block:
            break
        block = new_block
    k = max(block) + 1
    new_trans = np.zeros((k, dfa.n_letters), dtype=np.int64)
    new_acc = np.zeros(k, dtype=bool)
    for q, row in enumerate(trans):
        new_acc[block[q]] = acc[q]
        new_trans[block[q]] = [block[t] for t in row]
    return Dfa(aps=dfa.aps, transitions=new_trans, accepting=new_acc,
               initial=block[remap[dfa.initial]])


def bound_grid():
    """F, G and U under every small bound, each around an inner F[<=h]."""
    inner = [Eventually(Atom(">=", 1), Bound(None, h)) for h in (0, 2, 5)]
    bounds = ([None] + [Bound(None, h) for h in range(6)]
              + [Bound(lo, None) for lo in range(1, 5)])
    for b in bounds:
        for g in inner:
            yield Eventually(g, b)
            yield Always(g, b)
            yield Until(Atom("<=", 0), g, b)


def deep_formulas(n):
    """n random formulas of depth 1 to 4, in turn."""
    rng = np.random.default_rng(11)
    return [random_formula(rng, depth=1 + i % 4) for i in range(n)]


def sibling_formulas():
    """Bounded operators side by side: the monitor counts each one's
    distance apart, so it has up to the product of their bounds as states
    while the DFA grows with their sum."""
    return [parse(text) for text in (
        "F[<=100] x <= 1 & F[<=100] x >= 3",
        "F[<=10] x <= 1 & F[<=10] x >= 3 & F[<=10] x <= 2 & F[<=10] x >= 4",
        "F[<=60] x <= 1 & G[<=60] x <= 2",
        "F[<=40] x <= 1 | G[<=40] x >= 3",
        "F[<=20] x <= 1 & F[<=20] x >= 3 & G[<=30] x <= 2",
        "(x <= 2 U[<=25] x >= 3) & F[<=50] x <= 1",
        "F[<=6] (F[<=6] x <= 1 & G[<=6] x <= 2)",
        "G[<=30] (x >= 3 | F[<=4] x <= 1 & F[<=4] x <= 0)",
    )]


def assert_same_dfa(f):
    dfa, aps = to_dfa(f)
    ref, ref_aps = progression_dfa(f)
    assert aps == ref_aps, str(f)
    assert np.array_equal(dfa.transitions, ref.transitions), str(f)
    assert np.array_equal(dfa.accepting, ref.accepting), str(f)
    assert dfa.initial == ref.initial, str(f)


class TestProgressionDifferential:
    def test_c2_corpus(self):
        for f in c2_formulas(250):
            assert_same_dfa(f)
            assert_same_dfa(Not(f))

    def test_deep_random_formulas(self):
        for f in deep_formulas(200):
            assert_same_dfa(f)
            assert_same_dfa(Not(f))

    def test_sibling_bounds(self):
        for f in sibling_formulas():
            assert_same_dfa(f)
            assert_same_dfa(Not(f))

    def test_bound_grid(self):
        for f in bound_grid():
            assert_same_dfa(f)
            assert_same_dfa(Not(f))


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
