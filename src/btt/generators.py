"""Instance constructions: integrality-gap cliques, the six-node
bad-cycle example, vertex-cover reductions, hexagram gadgets, the
2CNF-deletion hardness reduction and seeded random instances.

The hexagram gadget is a 12-node unit: an inner 6-cycle whose edges each
close an outward triangle (a *tooth*) through a tip node (a *crown*).
Crowns alternate even/odd parity around the cycle; the three even teeth
are pairwise vertex-disjoint, as are the three odd teeth, and the only
9-edge covers of a hexagram's bad triangles are exactly the even-teeth
and odd-teeth edge sets.  The hardness reduction hangs clause nodes off
crowns (odd crown for a negated literal, even for a plain one) so that
cover cost encodes the number of deleted 2CNF clauses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapacityError, InputError, VerificationError
from .graphs import (COMPLETE_NODE_BOUND, EdgeCover, NEGATIVE, POSITIVE,
                     SignedGraph, complete_graph)
from .rng import make_rng

GADGET_SCHEMA = "btt.gadget-map/1"


def gen_integrality_gap(n: int) -> SignedGraph:
    """All-negative clique of size n plus a positive apex (node id n).

    Complete on n+1 nodes.  The fractional cover optimum is n/2 (one half
    on every apex edge), the integral optimum n-1, giving a 2(n-1)/n gap.
    """
    if n < 2:
        raise InputError(f"clique size must be at least 2, got {n}")

    def sign(u, v):
        return POSITIVE if v == n else NEGATIVE

    return complete_graph(n + 1, sign)


def gen_figure2() -> SignedGraph:
    """Complete 6-node graph whose negative edges form one 4-cycle.

    Nodes a..f are 0..5; the negative cycle is b-c-d-e-b.  Removing the
    optimal cover {ac, ae, bf, df} leaves a chordless cycle with a single
    negative edge, so cover removal alone does not destroy all bad cycles;
    the all-negative-edges cover (also optimal, cost 4) does.
    """
    neg = {(1, 2), (2, 3), (3, 4), (1, 4)}

    def sign(u, v):
        return NEGATIVE if (u, v) in neg else POSITIVE

    return complete_graph(6, sign)


def gen_vc_reduction(n: int, edges: list[tuple[int, int]]) -> SignedGraph:
    """Signed graph whose minimum bad-triangle cover equals the minimum
    vertex cover of the given unsigned graph.

    Original edges become negative; a new apex (node id n) connects to
    every original node positively.  Not complete: non-adjacent original
    pairs carry no edge.  Every bad triangle is apex + one original edge.
    """
    tuples = []
    seen = set()
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise InputError(f"bad unsigned edge ({u},{v}) for n={n}")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise InputError(f"duplicate unsigned edge {pair}")
        seen.add(pair)
        tuples.append((pair[0], pair[1], NEGATIVE))
    for v in range(n):
        tuples.append((v, n, POSITIVE))
    return SignedGraph(n + 1, tuples, complete=False)


# -- hexagram gadgets --------------------------------------------------------


@dataclass(frozen=True)
class HexagramMap:
    """Node ids of one hexagram: six inner-cycle nodes and six crowns.

    ``crowns[i]`` is the tip of tooth i+1 (teeth and crowns are 1-indexed
    in parity talk: crown k is even when k is even).  Tooth k spans inner
    nodes k-1 and k mod 6 plus crown k.
    """

    inner: tuple[int, int, int, int, int, int]
    crowns: tuple[int, int, int, int, int, int]

    def tooth_pairs(self, k: int) -> list[tuple[int, int]]:
        """The three edges of tooth k (1-indexed)."""
        a = self.inner[k - 1]
        b = self.inner[k % 6]
        z = self.crowns[k - 1]
        return [tuple(sorted(p)) for p in ((a, b), (a, z), (b, z))]

    def teeth_pairs(self, parity: str) -> list[tuple[int, int]]:
        """All nine edges of the even or odd teeth."""
        ks = (2, 4, 6) if parity == "even" else (1, 3, 5)
        return sorted(p for k in ks for p in self.tooth_pairs(k))

    def positive_pairs(self) -> list[tuple[int, int]]:
        return sorted({p for k in range(1, 7) for p in self.tooth_pairs(k)})


@dataclass(frozen=True)
class ClauseGadget:
    node: int
    edges: tuple[tuple[int, int], tuple[int, int]]
    literals: tuple[tuple[int, bool], tuple[int, bool]]


@dataclass(frozen=True)
class GadgetMap:
    """Construction record for gadget graphs: hexagram node ids per
    variable, clause nodes with their two clause edges, validity mode."""

    hexagrams: tuple[HexagramMap, ...]
    clauses: tuple[ClauseGadget, ...]
    theorem_mode: bool = True

    def to_json(self) -> dict:
        return {
            "schema": GADGET_SCHEMA,
            "theorem_mode": self.theorem_mode,
            "hexagrams": [
                {"inner": list(h.inner), "crowns": list(h.crowns)}
                for h in self.hexagrams],
            "clauses": [
                {"node": c.node,
                 "edges": [list(e) for e in c.edges],
                 "literals": [[v, neg] for v, neg in c.literals]}
                for c in self.clauses],
        }


def _hexagram(base: int) -> HexagramMap:
    return HexagramMap(tuple(range(base, base + 6)),
                       tuple(range(base + 6, base + 12)))


def gen_hexagram() -> tuple[SignedGraph, GadgetMap]:
    """One isolated hexagram embedded in a complete 12-node signed graph.

    Positive edges are exactly the 18 hexagram edges; all other pairs are
    negative.
    """
    hexa = _hexagram(0)
    positive = set(hexa.positive_pairs())

    def sign(u, v):
        return POSITIVE if (u, v) in positive else NEGATIVE

    return complete_graph(12, sign), GadgetMap((hexa,), (), theorem_mode=True)


# -- 2CNF formulas and the hardness reduction --------------------------------


@dataclass(frozen=True)
class TwoCnfFormula:
    """A 2CNF formula: clauses are pairs of (variable, negated) literals.

    The strict validity mode used by the hardness construction requires
    2n clauses on n variables, no repeated clauses, exactly four literal
    occurrences per variable of which exactly one is negated.  Relaxed
    mode only requires what the construction itself needs: at most three
    negated and three plain occurrences per variable (one crown of each
    parity spare is not required, three of each exist).
    """

    num_vars: int
    clauses: tuple[tuple[tuple[int, bool], tuple[int, bool]], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if len(clause) != 2:
                raise InputError(f"clause must have two literals: {clause}")
            for var, _neg in clause:
                if not (0 <= var < self.num_vars):
                    raise InputError(f"variable {var} out of range")

    def occurrence_counts(self) -> list[dict[bool, int]]:
        counts = [{False: 0, True: 0} for _ in range(self.num_vars)]
        for clause in self.clauses:
            for var, neg in clause:
                counts[var][neg] += 1
        return counts

    def validate_theorem_mode(self) -> None:
        """Raise InputError naming the first violated strict condition."""
        if len(self.clauses) != 2 * self.num_vars:
            raise InputError(
                f"strict mode needs exactly {2 * self.num_vars} clauses, "
                f"got {len(self.clauses)}")
        seen = set()
        for clause in self.clauses:
            key = tuple(sorted(clause))
            if key in seen:
                raise InputError(f"repeated clause {clause}")
            seen.add(key)
        for var, counts in enumerate(self.occurrence_counts()):
            total = counts[False] + counts[True]
            if total != 4:
                raise InputError(
                    f"variable {var} occurs {total} times, strict mode needs 4")
            if counts[True] != 1:
                raise InputError(
                    f"variable {var} negated {counts[True]} times, "
                    "strict mode needs exactly 1")

    def validate_relaxed_mode(self) -> None:
        for var, counts in enumerate(self.occurrence_counts()):
            if counts[True] > 3 or counts[False] > 3:
                raise InputError(
                    f"variable {var} needs {counts[True]} odd and "
                    f"{counts[False]} even crowns; a hexagram has 3 of each")

    def unsatisfied_count(self, assignment: list[bool]) -> int:
        count = 0
        for clause in self.clauses:
            if not any(assignment[var] != neg for var, neg in clause):
                count += 1
        return count

    def min_unsatisfied(self, max_vars: int = 20) -> tuple[int, list[bool]]:
        """Exhaustive minimum over all assignments (the deletion optimum)."""
        if self.num_vars > max_vars:
            raise CapacityError(
                f"exhaustive assignment search capped at {max_vars} variables")
        best = None
        best_assignment = None
        for bits in range(1 << self.num_vars):
            assignment = [bool(bits >> i & 1) for i in range(self.num_vars)]
            unsat = self.unsatisfied_count(assignment)
            if best is None or unsat < best:
                best, best_assignment = unsat, assignment
                if best == 0:
                    break
        return best, best_assignment


def parse_2cnf(text: str) -> TwoCnfFormula:
    """DIMACS-style 2CNF: ``p cnf <vars> <clauses>`` then ``lit lit 0``
    lines with 1-indexed variables, negative meaning negated; ``c`` lines
    are comments.  Raises InputError naming the line on malformed input."""
    num_vars = None
    expected = None
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise InputError(f"line {lineno}: header is 'p cnf <vars> <clauses>'")
            try:
                num_vars, expected = int(fields[2]), int(fields[3])
            except ValueError:
                raise InputError(f"line {lineno}: header counts must be "
                                 f"integers, got {line!r}") from None
            continue
        if num_vars is None:
            raise InputError(f"line {lineno}: clause before header")
        fields = line.split()
        if len(fields) != 3 or fields[2] != "0":
            raise InputError(f"line {lineno}: 2CNF clause line is 'lit lit 0'")
        literals = []
        for token in fields[:2]:
            try:
                lit = int(token)
            except ValueError:
                lit = 0
            if lit == 0 or abs(lit) > num_vars:
                raise InputError(f"line {lineno}: bad literal {token}")
            literals.append((abs(lit) - 1, lit < 0))
        clauses.append(tuple(literals))
    if num_vars is None:
        raise InputError("missing 'p cnf' header")
    if expected is not None and expected != len(clauses):
        raise InputError(f"header promised {expected} clauses, got {len(clauses)}")
    return TwoCnfFormula(num_vars, tuple(clauses))


def gen_hardness_reduction(f: TwoCnfFormula,
                           mode: str = "theorem") -> tuple[SignedGraph, GadgetMap]:
    """Complete signed graph encoding 2CNF deletion as bad-triangle covering.

    One hexagram per variable (nodes 12v .. 12v+11) plus one node per
    clause; positive edges are the hexagram edges and two clause edges per
    clause.  A clause edge joins the clause node to the lowest-id unused
    crown of the literal's parity (odd for negated, even for plain).  The
    minimum cover cost is 9n plus one edge per clause plus one extra edge
    per deleted clause.
    """
    if mode not in ("theorem", "relaxed"):
        raise InputError(f"mode must be 'theorem' or 'relaxed', got {mode!r}")
    if mode == "theorem":
        f.validate_theorem_mode()
    f.validate_relaxed_mode()
    n = f.num_vars
    hexagrams = tuple(_hexagram(12 * v) for v in range(n))
    total_nodes = 12 * n + len(f.clauses)
    positive: set[tuple[int, int]] = set()
    for hexa in hexagrams:
        positive.update(hexa.positive_pairs())
    # crown indices per parity, lowest first: odd crowns 1,3,5; even 2,4,6
    free_crowns = {v: {"odd": [1, 3, 5], "even": [2, 4, 6]} for v in range(n)}
    clause_gadgets = []
    for idx, clause in enumerate(f.clauses):
        node = 12 * n + idx
        edges = []
        for var, neg in clause:
            parity = "odd" if neg else "even"
            pool = free_crowns[var][parity]
            if not pool:
                # validate_relaxed_mode made this unreachable
                raise VerificationError(
                    f"crown pool exhausted for variable {var} ({parity})")
            crown_index = pool.pop(0)
            crown_node = hexagrams[var].crowns[crown_index - 1]
            pair = (min(crown_node, node), max(crown_node, node))
            positive.add(pair)
            edges.append(pair)
        clause_gadgets.append(ClauseGadget(node, tuple(edges), tuple(clause)))

    def sign(u, v):
        return POSITIVE if (u, v) in positive else NEGATIVE

    g = complete_graph(total_nodes, sign)
    gmap = GadgetMap(hexagrams, tuple(clause_gadgets),
                     theorem_mode=(mode == "theorem"))
    return g, gmap


def consistent_cover(g: SignedGraph, gmap: GadgetMap,
                     assignment: list[bool]) -> EdgeCover:
    """Cover induced by a variable assignment: even teeth for true
    variables, odd for false, the false literals' clause edges, and one
    clause edge anyway when a clause has no false literal."""
    if len(assignment) != len(gmap.hexagrams):
        raise InputError("assignment length must match variable count")
    pairs: list[tuple[int, int]] = []
    for value, hexa in zip(assignment, gmap.hexagrams):
        pairs.extend(hexa.teeth_pairs("even" if value else "odd"))
    for clause in gmap.clauses:
        chosen = [edge for (var, neg), edge in zip(clause.literals, clause.edges)
                  if assignment[var] == neg]  # false literals
        if not chosen:
            chosen = [clause.edges[0]]
        pairs.extend(chosen)
    return EdgeCover.from_pairs(g, pairs)


# -- random instances --------------------------------------------------------


def gen_random(n: int, *, positive_prob: float | None = None,
               positive_count: int | None = None, complete: bool = True,
               density: float = 0.5, weights="unit", seed: int = 0) -> SignedGraph:
    """Seeded random signed graph.

    Exactly one of ``positive_prob``/``positive_count`` chooses signs
    (default: probability 0.5).  ``complete`` keeps every pair; otherwise
    each pair is present independently with ``density``.  ``weights`` is
    ``"unit"``, ``("uniform", lo, hi)`` for floats, or
    ``("rational", max_num, max_den)`` for random small fractions.
    Identical parameters and seed give identical graphs.  Refuses n beyond
    COMPLETE_NODE_BOUND, sparse graphs too: both draw over all n(n-1)/2
    pairs.
    """
    if n < 0:
        raise InputError(f"n must be nonnegative, got {n}")
    if n > COMPLETE_NODE_BOUND:
        raise CapacityError(
            f"random graphs are capped at {COMPLETE_NODE_BOUND} nodes (asked {n})")
    if positive_prob is not None and positive_count is not None:
        raise InputError("give positive_prob or positive_count, not both")
    if positive_prob is None and positive_count is None:
        positive_prob = 0.5
    rng = make_rng(seed)
    pairs = list(combinations(range(n), 2))
    if not complete:
        if not (0 <= density <= 1):
            raise InputError(f"density must lie in [0,1], got {density}")
        keep = rng.random(len(pairs)) < density
        pairs = [p for p, k in zip(pairs, keep) if k]
    if positive_count is not None:
        if not (0 <= positive_count <= len(pairs)):
            raise InputError(
                f"positive_count {positive_count} out of range for {len(pairs)} pairs")
        chosen = set(rng.choice(len(pairs), size=positive_count, replace=False).tolist())
        signs = [POSITIVE if i in chosen else NEGATIVE for i in range(len(pairs))]
    else:
        if not (0 <= positive_prob <= 1):
            raise InputError(f"positive_prob must lie in [0,1], got {positive_prob}")
        signs = [POSITIVE if x < positive_prob else NEGATIVE
                 for x in rng.random(len(pairs))]
    if weights == "unit":
        weight_list = [1] * len(pairs)
    elif isinstance(weights, tuple) and weights and weights[0] == "uniform":
        _, lo, hi = weights
        if not (0 <= lo <= hi < math.inf):
            raise InputError(f"uniform weights need finite 0 <= LO <= HI, got {lo}, {hi}")
        weight_list = [float(x) for x in rng.uniform(lo, hi, len(pairs))]
    elif isinstance(weights, tuple) and weights and weights[0] == "rational":
        _, max_num, max_den = weights
        if not (1 <= max_num < 2**63 and 1 <= max_den < 2**63):  # int64 draws
            raise InputError(f"rational weights need 1 <= NUM, DEN < 2**63, "
                             f"got {max_num}, {max_den}")
        nums = rng.integers(1, max_num + 1, len(pairs))
        dens = rng.integers(1, max_den + 1, len(pairs))
        weight_list = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
    else:
        raise InputError(f"unknown weight spec {weights!r}")
    tuples = [(u, v, s, w) for (u, v), s, w in zip(pairs, signs, weight_list)]
    return SignedGraph(n, tuples, complete=complete)
