"""Finitely generated varieties: free algebras, membership, lattices.

Membership uses the classic finite decision procedure: a candidate A
with carrier a_0..a_{k-1} lies in the variety generated by S_1..S_m iff
the map sending the free generator x_i to a_i is well defined on the
relatively free algebra of rank k = |A|. That free algebra is realized
inside the product of copies of the generators, one copy per assignment
of k variables; its elements are evaluation vectors, each carrying one
witness term. The test reads the closure: each free element takes the
value in A of its first derivation, and every product the closure swept
is checked against those values.

Vectors are packed into bytes and the componentwise operations run
through int/bytes translation tables, which keeps rank-4 free algebras
over 4-element generators comfortably fast in pure Python. Generators
whose combined carrier exceeds 16 elements fall back to a plain tuple
representation, chosen once when the vectors are set up (_Vectors).
Either way the closure computes each product once: its sweep over
pairs of elements records the operation tables as it discovers new
elements.

Classification into the ten subvarieties of R (the ai-semirings
satisfying xy = xz) needs no closure. In R, xw = xx for every term w, so
F_R(k) is the free semilattice on the 2k letters x_i, x_i x_i: every
term is the join of a nonempty subset of them, and there are 4^k - 1
elements. A subvariety V of R identifies the subsets whose joins have
the same evaluation vector over V's generators. Generators act
componentwise, so those classes are the meet of each generator's own:
for the six standard generators of the ten (trivial, L2, N2, T2, S58,
S4_475), and their duals, one invariant of each subset, kept by the
generator's catalog name, gives a generator's classes without a vector;
any other generator's are built from its vectors, subset by subset,
each one join from a smaller subset. One builder, _kernel, turns either
key, or the tuple of several generators' classes, into rep (see
_closed_form). A candidate in R generated by its k elements lies
in V exactly when every subset's join takes the same value in it as its
class's least subset does (see classify_generated). `holds_in` decides
an identity in V(spec) for a spec inside R the same way: both sides
reduce to subsets, and the identity holds exactly when they share a
class, which for standard generators is a comparison of invariants.

`member` is the one membership decision. One switch, _closed_route,
picks its route for a spec at a rank: the closed form when every
generator lies in R, or in its dual (yx = zx: all rows of the product
are equal), and the closed form fits the cell budget; the closure
otherwise. A subset's join reads only + and the squares x_i x_i, which
transposing the product keeps, so a spec and its dual have one closed
form. On the closed-form route `member` builds no free algebra, and its
certificate is xy = xz (mirrored in the dual) or the first subset S
with S = rep[S] failing. `compare`, `build_lattice` and the standard
order read one inclusion matrix (_leq) of `member` verdicts.
`free_algebra` needs the free algebra itself, with its tables and
witnesses; on the closed-form route _universe runs the closure's sweep
over the closed form's classes, which gives the same elements in the
same order, hence the same witnesses, until it has found every class,
and reads the tables from the closed form (see _Universe). No free
algebra outlives its call; only the closed forms are cached.
"""

from __future__ import annotations

import itertools
import operator
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

from .algebra import FiniteAlgebra, ResourceBudgetError, _frozen_algebra, dual
from .satisfaction import CATALOG, satisfies
from .terms import Identity, TermNF, parse_identity

DEFAULT_CELL_LIMIT = 10**7


@dataclass(frozen=True)
class VarietySpec:
    """A variety presented by finitely many finite generators."""

    label: str
    generators: tuple[FiniteAlgebra, ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a variety spec needs at least one generator")
        for g in self.generators:
            g.validate()

    def key(self) -> tuple:
        return tuple((g.order, g.add, g.mul) for g in self.generators)


def _variable(i: int) -> str:
    return f"x{i + 1}"


class _Vectors:
    """Evaluation vectors of rank k over the generators: one entry per
    assignment of the k variables in each generator, blocks in generator
    order, assignments in lexicographic order; `seeds[i]` is the vector
    of x_{i+1}.

    Entries carry their generator's offset, so one pair table serves
    every block: x + y and xy sit at byte x << 4 | y of two translation
    tables for at most 16 letters, else at key (x, y) of two dicts. The
    letter count settles that choice here, once, in three callables:
    `form(u)`, the integer of packed u (tuples stay as they are);
    `pair(form(u), form(v))`, the code of the entry pairs (u_j, v_j),
    bytes (u_j << 4 | v_j) or a tuple of pairs; and `read(code, table)`,
    the table read entry by entry through a code. So u + v is
    read(pair(form(u), form(v)), add_pair), and uv reads mul_pair
    through the same code.
    """

    def __init__(self, generators, k):
        self.k = k
        # (generator, offset of its letters, length of its block)
        self.blocks = blocks = []
        offset = 0
        width = 0
        for g in generators:
            count = g.order**k
            blocks.append((g, offset, count))
            width += count
            offset += g.order
        self.width = width
        packed = offset <= 16
        add, mul = (bytearray(256), bytearray(256)) if packed else ({}, {})
        for g, offset, _count in blocks:
            for a, b in itertools.product(range(g.order), repeat=2):
                x, y = offset + a, offset + b
                code = x << 4 | y if packed else (x, y)
                add[code] = offset + g.add[a][b]
                mul[code] = offset + g.mul[a][b]
        seeds = [
            [
                offset + assignment[i]
                for g, offset, _count in blocks
                for assignment in itertools.product(range(g.order), repeat=k)
            ]
            for i in range(k)
        ]
        self.seeds = list(map(bytes if packed else tuple, seeds))
        if packed:
            self.add_pair, self.mul_pair = bytes(add), bytes(mul)
            self.form = lambda u: int.from_bytes(u, "big")
            self.pair = lambda iu, iv: (iu << 4 | iv).to_bytes(width, "big")
            self.read = bytes.translate
        else:
            self.add_pair, self.mul_pair = add, mul
            self.form = lambda u: u
            self.pair = lambda u, v: tuple(zip(u, v))
            self.read = lambda code, table: tuple(map(table.__getitem__, code))

    def decode(self, vector) -> tuple[int, ...]:
        """Vector entries as local generator elements (offsets removed)."""
        out: list[int] = []
        pos = 0
        for _g, offset, count in self.blocks:
            block = vector[pos : pos + count]
            out.extend((x - offset for x in block) if offset else block)
            pos += count
        return tuple(out)


class _Universe(_Vectors):
    """The rank-k free algebra of V(generators), with witnesses.

    Elements are indexed in discovery order of the deterministic sweep
    (see _sweep); `add_tab`/`mul_tab` are complete operation tables on
    those indices, equal rows of `mul_tab` sharing one tuple.

    With `closed_form` = (rep, flipped), rep being the closed form of
    F_R(k) for the generators, inside R or (when `flipped`) its dual,
    the sweep runs over rep's classes instead of evaluation vectors:
    S + T is rep[S | T], and S.T is rep[sq(S)] inside R and rep[sq(T)]
    inside its dual, sq(S) being the squares x_i x_i of the variables S
    mentions. Classes and vectors correspond one to one and so do the
    operations, so the sweep discovers the same elements in the same
    order as the closure does, and `vectors` are the joins of the
    classes' subsets. rep has len(set(rep[1:])) classes, so the sweep
    stops once it has discovered that many and _fill reads the tables
    from rep. `joins` keeps the join of every subset, computed from the
    generators and not from rep, for _check_closed_form; it is None on
    the closure.
    """

    def __init__(self, generators, k, cell_limit, closed_form=None):
        super().__init__(generators, k)
        self.closed_form = closed_form
        max_size = cell_limit // self.width
        if closed_form is None:
            self.joins = None
            self.vectors = self._sweep(*self._vector_ops(), max_size)
        else:
            rep, flipped = closed_form
            self.joins = joins = _letter_joins(self)
            classes = self._sweep(*_class_ops(k, rep, flipped), max_size, len(set(rep[1:])))
            self._fill(classes, rep, flipped)
            self.vectors = [joins[c] for c in classes]

    def _vector_ops(self):
        """Seeds, element form and step of the closure over evaluation
        vectors (see _sweep): u + v and uv share one pair code and
        differ only in the table read through it."""
        pair, read, add_pair, mul_pair = self.pair, self.read, self.add_pair, self.mul_pair

        def step(u, v):
            code = pair(u, v)
            return read(code, add_pair), read(code, mul_pair), read(pair(v, u), mul_pair)

        return self.seeds, self.form, step

    def _sweep(self, seeds, form, step, max_size, size=None) -> list:
        """Worklist closure of the seed keys under both operations,
        recording the operation tables as it goes; returns the keys by
        index. When `size`, the number of keys, is known in advance, the
        sweep stops at the end of the row where it discovers the last
        key, and the caller fills the tables instead (see _fill).

        Elements are indexed in discovery order (seeds first, then new
        keys as the deterministic add/mul/mul-flipped sweep produces
        them). `form(key)` is taken once per element, and
        step(form(u), form(v)) gives the keys of u + v, uv and vu. Each
        element records how it was first derived, so witness terms can be
        rebuilt on demand without allocating terms here. Sweep step
        (pos, j <= pos) yields add_tab[pos][j] = add_tab[j][pos],
        mul_tab[pos][j] and mul_tab[j][pos]. Row pos is started at step
        (pos, 0) and every earlier row j gains column pos at step
        (pos, j), so each row is built by appending in index order. More
        than `max_size` elements raise ResourceBudgetError.
        """
        keys: list = []
        parents: list[tuple] = []  # ("x", i) or ("+"/"*", left_idx, right_idx)
        index: dict = {}
        for i, key in enumerate(seeds):
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
                parents.append(("x", i, -1))

        def discover(key, op, left, right) -> int:
            if len(keys) >= max_size:
                raise ResourceBudgetError(
                    "free-algebra closure exceeded the configured budget"
                )
            index[key] = idx = len(keys)
            keys.append(key)
            parents.append((op, left, right))
            return idx

        forms: list = []
        add_tab: list[list[int]] = []
        mul_tab: list[list[int]] = []
        pos = 0
        while pos < len(keys) and len(keys) != size:
            fu = form(keys[pos])
            forms.append(fu)
            add_row: list[int] = []
            mul_row: list[int] = []
            add_tab.append(add_row)
            mul_tab.append(mul_row)
            for j in range(pos + 1):
                total, prod, flipped = step(fu, forms[j])
                s = index.get(total)
                if s is None:
                    s = discover(total, "+", pos, j)
                p = index.get(prod)
                if p is None:
                    p = discover(prod, "*", pos, j)
                add_row.append(s)
                mul_row.append(p)
                if j < pos:
                    q = index.get(flipped)
                    if q is None:
                        q = discover(flipped, "*", j, pos)
                    add_tab[j].append(s)
                    mul_tab[j].append(q)
            pos += 1
        if size is None:
            rows: dict[tuple, tuple] = {}
            self.add_tab = tuple(map(tuple, add_tab))
            self.mul_tab = tuple(rows.setdefault(row, row) for row in map(tuple, mul_tab))
        self._parents = parents
        self._witnesses: dict[int, TermNF] = {}
        self.seed_ids = [index[key] for key in seeds]
        return keys

    def _fill(self, classes, rep, flipped) -> None:
        """The tables of the closed-form route, read from rep: S + T is
        the class of S | T, and S.T the class of sq(S) inside R, of
        sq(T) inside its dual, so every row of mul_tab is constant
        inside R and all rows are one tuple inside its dual."""
        k, n = self.k, len(classes)
        index = {c: i for i, c in enumerate(classes)}
        at = [index.get(r) for r in rep]  # subset -> element
        squares = [at[_square(c, k)] for c in classes]
        self.add_tab = tuple(tuple([at[c | d] for d in classes]) for c in classes)
        if flipped:
            self.mul_tab = (tuple(squares),) * n
        else:
            rows: dict[int, tuple] = {}
            self.mul_tab = tuple(rows.setdefault(p, (p,) * n) for p in squares)

    def witness(self, idx: int) -> TermNF:
        """A term that evaluates to element idx, following its first
        derivation."""
        hit = self._witnesses.get(idx)
        if hit is not None:
            return hit
        op, left, right = self._parents[idx]
        if op == "x":
            term = TermNF([(_variable(left),)])
        elif op == "+":
            term = self.witness(left) + self.witness(right)
        else:
            term = self.witness(left) * self.witness(right)
        self._witnesses[idx] = term
        return term

    @property
    def size(self) -> int:
        return len(self.vectors)


def _universe(
    spec: VarietySpec, k: int, cell_limit: int = DEFAULT_CELL_LIMIT
) -> _Universe:
    """The rank-k free algebra of V(spec), built afresh on the route
    _closed_route picks; a closed-form build is checked against its
    closed form (see _check_closed_form)."""
    width = sum(g.order**k for g in spec.generators)
    if width * k > cell_limit:
        raise ResourceBudgetError(
            f"evaluation vectors of length {width} exceed the cell budget"
        )
    route = _closed_route(spec, k, cell_limit)
    uni = _Universe(spec.generators, k, cell_limit, route)
    if route is not None:
        _check_closed_form(uni, route[0], spec.label)
    return uni


@dataclass(frozen=True)
class FreeAlgebraResult:
    """Relatively free algebra of a variety on k generators.

    `witnesses[i]` is a term that evaluates to element i under every
    interpretation; `vectors[i]` is its evaluation vector over all
    generator assignments (entries are generator elements, blocks in
    generator order, assignments in lexicographic order).
    """

    algebra: FiniteAlgebra
    rank: int
    witnesses: tuple[TermNF, ...]
    vectors: tuple[tuple[int, ...], ...]


def free_algebra(
    spec: VarietySpec, k: int, cell_limit: int = DEFAULT_CELL_LIMIT
) -> FreeAlgebraResult:
    """Rank-k relatively free algebra of V(spec) with witnesses.

    `cell_limit` bounds the free algebra's size x width vector cells,
    width being the sum of |g|^k over the generators g; past it
    ResourceBudgetError is raised rather than a partial algebra
    returned. Each call builds the algebra afresh; none is kept. For a
    spec inside R or its dual whose closed form's (4^k - 1) x width
    cells fit `cell_limit`, the algebra is built from the closed form,
    its tables read from rep, and rep is checked on each build: it must
    be the kernel of the subset joins, each subset's class led by the
    least subset with its join (else RuntimeError), which vouches for
    the tables too. Other specs take the closure; the elements, tables
    and witnesses are the same on both routes. Either route's tables are
    used as they are, since the sweep or the check of rep makes every
    entry an index of the algebra.
    Only a closure-built algebra has its axioms checked, an O(n^3)
    check, and only up to order 100; a closed-form one checks them only
    when asked (validate).
    """
    if k < 1:
        raise ValueError("rank must be positive")
    uni = _universe(spec, k, cell_limit)
    algebra = _frozen_algebra(uni.size, uni.add_tab, uni.mul_tab, f"F({spec.label},{k})")
    if uni.closed_form is None and algebra.order <= 100:
        algebra.validate()
    return FreeAlgebraResult(
        algebra=algebra,
        rank=k,
        witnesses=tuple(uni.witness(i) for i in range(uni.size)),
        vectors=tuple(uni.decode(v) for v in uni.vectors),
    )


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of the Birkhoff membership test.

    When `member` is false, `separating_identity` holds in every
    generator of the variety and fails in the candidate under
    `assignment` (variable x{i+1} denotes carrier element i).
    """

    member: bool
    separating_identity: Identity | None
    assignment: dict[str, int]

    def __bool__(self) -> bool:
        return self.member


def member(
    a: FiniteAlgebra,
    spec: VarietySpec,
    cell_limit: int = DEFAULT_CELL_LIMIT,
    join_values: dict | None = None,
) -> MembershipResult:
    """Decide whether `a` lies in the variety generated by the spec.

    On the closed-form route (see _closed_route), for a spec inside R,
    no free algebra is built. A candidate outside R fails x_i x_1 =
    x_i x_j for the first row i of its product that is not constant, j
    being the first column that differs from column 1. One inside R is
    generated by its k = |a| elements, so it is a member exactly when it
    satisfies S = rep[S] for every subset S (Birkhoff's completeness
    theorem applied to F_R(k); see classify_generated), and the first S
    that fails gives sum rep[S] = sum S. Inside the dual of R the same
    test runs on the columns of a's product and the spec's own closed
    form, since subset joins agree in `a` and dual(a); the first
    identity is mirrored, the second reads the same mirrored.

    Any other spec, or a closed form over `cell_limit`, takes the free
    algebra of rank k that _universe builds by closure, whose size x
    width cells `cell_limit` bounds. Each free element gets the value in
    `a` of its first derivation, starting from x_i -> a_i. `a` is a
    member exactly when this map is a homomorphism: every generator
    keeps its own value and every entry of the free algebra's tables
    takes the sum or product of its factors' values. The first failure,
    in the sweep order, yields the separating identity: the element's
    witness on one side, the failing sum or product of witnesses on the
    other.

    `join_values`, a dict shared by calls on one family of specs (see
    _leq), keeps each candidate's subset join values (_join_values) for
    the later calls; by default they are computed for this call alone.
    """
    a.validate()
    k = a.order
    route = _closed_route(spec, k, cell_limit)
    if route is None:
        separating = _separating_identity(a, _universe(spec, k, cell_limit))
    else:
        values = {} if join_values is None else join_values
        separating = _closed_form_identity(a, *route, values)
    assignment = {_variable(i): i for i in range(k)}
    return MembershipResult(separating is None, separating, assignment)


def _closed_form_identity(
    a: FiniteAlgebra, rep: tuple[int, ...], flipped: bool, join_values: dict
) -> Identity | None:
    """member's separating identity on the closed-form route, None for
    a member (see member); a's subset join values are read from, or
    kept in, `join_values`."""
    if not _in_r(a, flipped):
        b = dual(a) if flipped else a
        i, row = next((i, row) for i, row in enumerate(b.mul) if row.count(row[0]) < b.order)
        j = next(j for j, x in enumerate(row) if x != row[0])
        xi = _variable(i)
        ident = Identity(TermNF([(xi, _variable(0))]), TermNF([(xi, _variable(j))]))
        return ident.mirror() if flipped else ident
    values = join_values.get(a)
    if values is None:
        values = join_values[a] = _join_values(a)
    s = _first_failing_subset(values, rep)
    if s is None:
        return None
    return Identity(_subset_term(rep[s], a.order), _subset_term(s, a.order))


def _separating_identity(a: FiniteAlgebra, uni: _Universe) -> Identity | None:
    """witness(e) = t for the first free element e, in the sweep order,
    that a second derivation t sends to another value in `a`; None when
    every derivation agrees."""
    add, mul = a.add, a.mul
    values: list[int] = []
    for op, left, right in uni._parents:  # parents precede their children
        if op == "x":
            values.append(left)
        elif op == "+":
            values.append(add[values[left]][values[right]])
        else:
            values.append(mul[values[left]][values[right]])
    w = uni.witness
    for i, fid in enumerate(uni.seed_ids):
        if values[fid] != i:
            return Identity(w(fid), TermNF([(_variable(i),)]))
    mul_tab = uni.mul_tab
    for pos, (add_row, mul_row) in enumerate(zip(uni.add_tab, mul_tab)):
        vp = values[pos]
        add_p, mul_p = add[vp], mul[vp]
        for j in range(pos + 1):
            vj = values[j]
            s, p = add_row[j], mul_row[j]
            if values[s] != add_p[vj]:
                return Identity(w(s), w(pos) + w(j))
            if values[p] != mul_p[vj]:
                return Identity(w(p), w(pos) * w(j))
            if j < pos:
                q = mul_tab[j][pos]
                if values[q] != mul[vj][vp]:
                    return Identity(w(q), w(j) * w(pos))
    return None


EQUAL = "equal"
LEFT_IN_RIGHT = "left-in-right"
RIGHT_IN_LEFT = "right-in-left"
INCOMPARABLE = "incomparable"


def compare(
    v1: VarietySpec, v2: VarietySpec, cell_limit: int = DEFAULT_CELL_LIMIT
) -> str:
    """Mutual inclusion of two finitely generated varieties.

    V2 contains V1 iff every generator of V1 is a member of V2; the two
    inclusions are read off _leq, whose entries `member` decides:
    through the closed form of F_R(k) when the containing spec lies
    inside R or its dual and its closed form fits `cell_limit`, through
    the closure otherwise. Both routes honour `cell_limit`.
    """
    leq = _leq((v1, v2), cell_limit, {})
    left_in_right, right_in_left = leq[0][1], leq[1][0]
    if left_in_right and right_in_left:
        return EQUAL
    if left_in_right:
        return LEFT_IN_RIGHT
    if right_in_left:
        return RIGHT_IN_LEFT
    return INCOMPARABLE


class LatticeIncompleteError(ValueError):
    """The given spec list is not closed or not a lattice; carries the
    offending pair as evidence."""


@dataclass(frozen=True)
class VarietyLattice:
    specs: tuple[VarietySpec, ...]
    leq: tuple[tuple[bool, ...], ...]
    hasse_edges: tuple[tuple[int, int], ...]
    join_table: tuple[tuple[int, ...], ...]
    meet_table: tuple[tuple[int, ...], ...]
    distributive: bool

    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.specs)

    def bottom(self) -> int:
        for i in range(len(self.specs)):
            if all(self.leq[i][j] for j in range(len(self.specs))):
                return i
        raise LatticeIncompleteError("no least element")

    def atoms(self) -> tuple[int, ...]:
        bot = self.bottom()
        return tuple(j for i, j in self.hasse_edges if i == bot)


def build_lattice(
    specs: list[VarietySpec], cell_limit: int = DEFAULT_CELL_LIMIT
) -> VarietyLattice:
    """Inclusion order, covers, joins, meets and distributivity of a
    finite family of variety specs.

    Joins are computed semantically (union of generator lists) and must
    land on a listed spec; a join or meet escaping the list raises
    LatticeIncompleteError with the offending pair, and so do two specs
    generating the same variety. Inclusions come from _leq, so a family
    inside R or inside its dual builds no free-algebra closure; _leq and
    the join checks share one dict of join values, so each generator's
    are computed once per call.
    """
    m = len(specs)
    join_values: dict = {}
    leq = _leq(specs, cell_limit, join_values)
    for i, j in itertools.combinations(range(m), 2):
        if leq[i][j] and leq[j][i]:
            raise LatticeIncompleteError(
                f"specs {specs[i].label!r} and {specs[j].label!r} "
                "generate the same variety"
            )

    hasse = []
    for i in range(m):
        for j in range(m):
            if i == j or not leq[i][j]:
                continue
            if any(k not in (i, j) and leq[i][k] and leq[k][j] for k in range(m)):
                continue
            hasse.append((i, j))

    # The semantic join is V(generators of both). If it is listed at all
    # it must be the least listed upper bound, so that single candidate
    # is checked for equality; anything else means the join escapes.
    # The join lies in the least upper bound by leq, so only the reverse
    # inclusion is asked.
    join_table = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if leq[i][j]:
                join_table[i][j] = join_table[j][i] = j
                continue
            if leq[j][i]:
                join_table[i][j] = join_table[j][i] = i
                continue
            upper = [t for t in range(m) if leq[i][t] and leq[j][t]]
            least = next((t for t in upper if all(leq[t][s] for s in upper)), None)
            merged = VarietySpec(
                f"{specs[i].label}+{specs[j].label}",
                specs[i].generators + specs[j].generators,
            )
            if least is None or not all(
                member(g, merged, cell_limit, join_values).member
                for g in specs[least].generators
            ):
                raise LatticeIncompleteError(
                    f"join of {specs[i].label!r} and {specs[j].label!r} "
                    "is not among the listed specs"
                )
            join_table[i][j] = join_table[j][i] = least

    meet_table = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            lower = [t for t in range(m) if leq[t][i] and leq[t][j]]
            best = next((t for t in lower if all(leq[s][t] for s in lower)), None)
            if best is None:
                raise LatticeIncompleteError(
                    f"meet of {specs[i].label!r} and {specs[j].label!r} "
                    "does not exist in the listed order"
                )
            meet_table[i][j] = best

    distributive = all(
        meet_table[x][join_table[y][z]]
        == join_table[meet_table[x][y]][meet_table[x][z]]
        for x in range(m)
        for y in range(m)
        for z in range(m)
    )
    return VarietyLattice(
        specs=tuple(specs),
        leq=leq,
        hasse_edges=tuple(sorted(hasse)),
        join_table=tuple(tuple(row) for row in join_table),
        meet_table=tuple(tuple(row) for row in meet_table),
        distributive=distributive,
    )


# ---------------------------------------------------------------------------
# the ten standard subvarieties of the row-constant class


def standard_subvariety_specs() -> list[VarietySpec]:
    from . import catalog

    g = catalog.get
    return [
        VarietySpec("T", (g("trivial"),)),
        VarietySpec("V(L2)", (g("L2"),)),
        VarietySpec("V(N2)", (g("N2"),)),
        VarietySpec("V(T2)", (g("T2"),)),
        VarietySpec("V(L2,N2)", (g("L2"), g("N2"))),
        VarietySpec("V(N2,T2)", (g("N2"), g("T2"))),
        VarietySpec("V(L2,T2)", (g("L2"), g("T2"))),
        VarietySpec("V(L2,N2,T2)", (g("L2"), g("N2"), g("T2"))),
        VarietySpec("V(S58)", (g("S58"),)),
        VarietySpec("R", (g("S4_475"),)),
    ]


_PATTERN_LABELS = ("L", "N", "T", "lt03", "lnt02")


def _pattern(algebras) -> tuple[bool, ...]:
    """Which of the five separating identities hold in every algebra; on
    a spec's generators, the pattern of the variety they generate, since
    an identity holds in V(G) iff it holds in each member of G."""
    return tuple(
        all(satisfies(a, CATALOG[label][0]).holds for a in algebras)
        for label in _PATTERN_LABELS
    )


def _pattern_index(table) -> dict[tuple[bool, ...], int]:
    """Spec index by generator pattern, from (spec, pattern) pairs; two
    specs sharing a pattern raise ValueError rather than overwrite each
    other."""
    index: dict[tuple[bool, ...], int] = {}
    for i, (s, pattern) in enumerate(table):
        j = index.setdefault(pattern, i)
        if j != i:
            raise ValueError(f"specs {table[j][0].label!r} and {s.label!r} share a pattern")
    return index


# ---------------------------------------------------------------------------
# the closed form of F_R(k)
#
# Subsets of the 2k letters x_1..x_k, x_1x_1..x_kx_k are bitmasks: bit i
# stands for x_{i+1} and bit k + i for x_{i+1}x_{i+1}. Subset S stands for
# the join of its letters, and every term in k variables equals such a
# join in R (see classify_generated).


def _subset_joins(letters, add) -> list:
    """joins[S] for every subset S of the letters, joins[0] = None: one
    join each, joins[S] = add(joins[S minus its highest letter], that
    letter), so no pairwise sweep is needed."""
    joins = [None]
    for letter in letters:
        joins += [letter] + [add(rest, letter) for rest in joins[1:]]
    return joins


def _in_r(a: FiniteAlgebra, flipped: bool = False) -> bool:
    """Whether `a` satisfies xy = xz, i.e. every row of its product is
    constant; when `flipped`, whether it satisfies yx = zx, i.e. all
    rows are equal."""
    if flipped:
        return all(row == a.mul[0] for row in a.mul)
    return all(row.count(row[0]) == a.order for row in a.mul)


# rep tuples by (set of generator keys, rank), least recently used first;
# their lengths, 4^k each, sum to at most _CLOSED_FORM_CACHE_CELLS
_closed_forms: OrderedDict[tuple[frozenset, int], tuple[int, ...]] = OrderedDict()
_CLOSED_FORM_CACHE_CELLS = 4**9

# The invariant of (A, B, U, e) whose kernel is the k-variable theory of
# V(g), for each of the six standard generators g, by g's catalog name.
# For a subset S, A is the set of i with x_i in S, B the set of i with
# x_i x_i in S (both bitmasks), U = A | B, and e = (B is nonempty); see
# _abue.
_INVARIANTS = {
    "trivial": lambda a, b, u, e: 0,
    "L2": lambda a, b, u, e: u,
    "N2": lambda a, b, u, e: a,
    "T2": lambda a, b, u, e: None if e else a,
    "S58": lambda a, b, u, e: (b, u),
    "S4_475": lambda a, b, u, e: (a, b),
}


def _generator_key(g: FiniteAlgebra) -> tuple:
    """What the closed form reads of a generator: its + table and its
    squares, which a generator and its dual share."""
    return g.add, tuple(row[x] for x, row in enumerate(g.mul))


def _keyed_generators(spec: VarietySpec) -> dict:
    """The spec's distinct generators by key (_generator_key); the set of
    the keys is the spec's key in the closed-form cache."""
    return {_generator_key(g): g for g in spec.generators}


@lru_cache(maxsize=1)
def _rules() -> dict:
    """The invariant of each standard generator by its key, read from the
    catalog: no pattern, and not _standard(), whose inclusion order reads
    closed forms."""
    from . import catalog

    return {_generator_key(catalog.get(name)): rule for name, rule in _INVARIANTS.items()}


def _spec_rules(spec: VarietySpec) -> tuple | None:
    """The invariants of the spec's distinct generators when each has a
    rule, else None."""
    rules = _rules()
    invariants = tuple(map(rules.get, _keyed_generators(spec)))
    return None if None in invariants else invariants


def _abue(s: int, k: int) -> tuple:
    """(A, B, U, e) of subset s at rank k."""
    low = (1 << k) - 1
    a, b = s & low, s >> k
    return a, b, a | b, b != 0


def _square(s: int, k: int) -> int:
    """sq(S) for subset s at rank k: the squares x_i x_i of the variables
    that s mentions, as x_i or as x_i x_i."""
    return ((s | s >> k) & ((1 << k) - 1)) << k


def _closed_form(spec: VarietySpec, k: int) -> tuple[int, ...]:
    """rep[S] for every subset S of the 2k letters: the least subset
    whose join has the same evaluation vector as S over the spec's
    generators (rep[0] = 0 pads the empty subset).

    Every rep is the kernel of a key on the subsets (_kernel): rep[S] is
    the least subset with S's key. Each generator has its own part: a
    standard generator, one whose key (_generator_key) is that of the
    catalog's trivial, L2, N2, T2, S58 or S4_475, gets rep by rule, in
    O(4^k), keyed by its invariant (_INVARIANTS, by catalog name;
    _rule_form). Duals share the keys, so they are covered too. Any
    other generator, such as a relabelled L2, gets its part keyed by
    its 4^k - 1 evaluated joins (_evaluated_form), which stays the
    tests' reference for the rules. A spec with several distinct
    generators gets the meet of their parts, keyed by the tuple of the
    parts' rep[S]: two subsets have the same join over the spec exactly
    when they have it over each generator, since generators act
    componentwise. The rules hold at every rank:
    - soundness: a row-constant generator with xy = f(x) sends the join
      of S to sum_{i in A} a_i + sum_{i in B} f(a_i). L2 has f = id, so
      the value reads U; N2 has f constant at its bottom, so it reads
      A; T2 has f constant at its top, so it reads A when e = 0 and is
      the top when e = 1; S58 has a + f(a) = f(a), so it reads B and U;
      the trivial algebra reads nothing, and S4_475 at most (A, B).
      So equal invariants give equal joins over the generator.
    - separation: two subsets with different invariants differ in A, B
      or U at some i, or in e. Sending x_i to x and every other variable
      to y (all of them to x, for e) maps them to two subsets of
      {x, y, xx, yy} whose invariants still differ, and at rank 2 the
      rule equals evaluation (tests pin it at ranks 1-5), so the
      generator tells the two apart.
    So the kernel of a generator's invariant is the k-variable theory of
    V(g). Over a spec, subsets with equal invariants under each
    generator's rule have equal joins over every generator, and two
    whose invariants differ under some generator's rule are told apart
    by that generator, so the kernel of the meet is the k-variable
    theory of the spec. The same two steps show R = V(S4_475) at every
    rank: its invariant (A, B) is S itself, and S4_475 separates the 15
    subsets at rank 2.

    Cached by the set of the distinct generator keys (_keyed_generators)
    and rank, so specs that differ only in label, in the order or
    repetition of their generators, or by dualising share an entry; a
    meet's parts are entries of their own, shared by every spec with
    that generator. An entry holds 4^k ints, and least recently used
    entries leave first once the entries together hold more than
    _CLOSED_FORM_CACHE_CELLS; classification at order 6 asks for the
    six generators' and the four merged specs' forms at rank 6, 40,960
    ints. No budget is checked here: callers check it first
    (_closed_route, holds_in, classify_generated).

    Nor is the spec checked: rep is the closed form of F_R(k) only when
    every generator lies in R, or of its dual only when every one lies
    in the dual, since otherwise the letters no longer span the free
    algebra. Every reader checks this first.
    """
    return _form(_keyed_generators(spec), k)


def _form(generators: dict, k: int) -> tuple[int, ...]:
    """_closed_form for generators by their keys, through the cache."""
    entry = (frozenset(generators), k)
    rep = _closed_forms.get(entry)
    if rep is not None:
        _closed_forms.move_to_end(entry)
        return rep
    if len(generators) > 1:
        parts = [_form({key: g}, k) for key, g in generators.items()]
        rep = _kernel(zip(*parts))
    else:
        [(key, g)] = generators.items()
        invariant = _rules().get(key)
        rep = _evaluated_form((g,), k) if invariant is None else _rule_form(invariant, k)
    _closed_forms[entry] = rep
    cells = sum(map(len, _closed_forms.values()))
    while cells > _CLOSED_FORM_CACHE_CELLS:
        _key, old = _closed_forms.popitem(last=False)
        cells -= len(old)
    return rep


def _kernel(keys) -> tuple[int, ...]:
    """rep from a key for every subset, keys[S] for S = 0 .. 4^k - 1:
    rep[S] is the least nonempty subset with S's key, and rep[0] = 0
    pads the empty subset, whatever its key."""
    first: dict = {}
    rest = itertools.islice(keys, 1, None)
    return (0, *(first.setdefault(key, s) for s, key in enumerate(rest, 1)))


def _rule_form(invariant, k: int) -> tuple[int, ...]:
    """rep by rule: the kernel of the invariant of (A, B, U, e) (see
    _closed_form)."""
    return _kernel(invariant(*_abue(s, k)) for s in range(4**k))


def _evaluated_form(generators, k: int) -> tuple[int, ...]:
    """rep by evaluation: the kernel of the evaluation vectors over the
    generators (see _closed_form)."""
    return _kernel(_letter_joins(_Vectors(generators, k)))


def _letter_joins(vectors: _Vectors) -> list:
    """joins[S] for every subset S of the 2k letters: its evaluation
    vector over the generators, joins[0] = None."""
    form, pair, read = vectors.form, vectors.pair, vectors.read
    squares = [read(pair(u, u), vectors.mul_pair) for u in map(form, vectors.seeds)]
    add_pair = vectors.add_pair
    return _subset_joins(
        vectors.seeds + squares, lambda u, v: read(pair(form(u), form(v)), add_pair)
    )


def _closed_route(spec: VarietySpec, k: int, cell_limit: int):
    """The route of _universe and member. (rep, flipped) for the
    closed form, rep being the spec's own: flipped is unset when every
    generator lies in R (rows constant), set when every one lies in its
    dual (rows equal). None, so that the closure runs, for any other
    spec or when the closed form's (4^k - 1) x width cells exceed
    `cell_limit`; the closure never holds more cells than the closed
    form, so no budget verdict depends on the route."""
    if _evaluation_cells(spec, k) > cell_limit:
        return None
    for flipped in (False, True):
        if all(_in_r(g, flipped) for g in spec.generators):
            return _closed_form(spec, k), flipped
    return None


def _evaluation_cells(spec: VarietySpec, k: int) -> int:
    """The (4^k - 1) x width vector cells of the spec's rank-k closed form
    by evaluation (see _closed_form), width being the sum of |g|^k over
    its generators g."""
    return (4**k - 1) * sum(g.order**k for g in spec.generators)


def _class_ops(k: int, rep: tuple[int, ...], flipped: bool):
    """Seeds, element form and step of the sweep over rep's classes (see
    _Universe): a class's form is the pair (class, class of its square
    set), so a product costs no lookup."""

    def form(s):
        return s, rep[_square(s, k)]

    if flipped:

        def step(u, v):
            return rep[u[0] | v[0]], v[1], u[1]

    else:

        def step(u, v):
            return rep[u[0] | v[0]], u[1], v[1]

    return [rep[1 << i] for i in range(k)], form, step


def _check_closed_form(uni: _Universe, rep: tuple[int, ...], label: str) -> None:
    """Raise RuntimeError unless rep is the kernel of the subset joins
    over uni's generators (_kernel, so with least representatives) and
    has uni.size classes. The joins of a subset agree over a generator
    and its dual, so the check serves both routes. _universe runs it on
    every closed-form build, reading the joins that uni computed from
    its generators."""
    classes = len(set(rep[1:]))  # rep[0] pads the empty subset
    if rep != _kernel(uni.joins) or classes != uni.size:
        raise RuntimeError(
            f"free algebra of {label!r} at rank {uni.k} has {uni.size} "
            f"elements but disagrees with the closed form of F_R({uni.k}), "
            f"which has {classes} classes"
        )


def holds_in(spec: VarietySpec, ident: Identity | str) -> bool:
    """Whether the identity holds in V(spec), for a spec inside R.

    With k variables, each side is the join of a subset of the 2k
    letters: a word whose first letter is x_i stands for x_i if it has
    length 1 and for x_i x_i otherwise, since xw = xx in R. The identity
    holds in V(spec) exactly when both subsets have the same join over
    each generator (see _closed_form). When every generator has a rule
    that is the case when both subsets have the same invariant under
    each generator's rule, a comparison in the identity's length with
    no table and no budget. Otherwise both subsets must have the same
    representative in the spec's closed form of rank k, built by
    evaluation, whose (4^k - 1) x width cells (_evaluation_cells, as on
    _closed_route) are checked against DEFAULT_CELL_LIMIT before any
    other work (ResourceBudgetError). Raises ValueError for a spec
    outside R (the dual shares its closed form, but a word there
    reduces by its last letter).
    """
    if isinstance(ident, str):
        ident = parse_identity(ident)
    variables = ident.variables()
    k = len(variables)
    invariants = _spec_rules(spec)
    if invariants is None:
        cells = _evaluation_cells(spec, k)
        if cells > DEFAULT_CELL_LIMIT:
            raise ResourceBudgetError(f"closed form of {cells} cells exceeds the cell budget")
    bit = {v: i for i, v in enumerate(variables)}

    def subset(t: TermNF) -> int:
        mask = 0
        for w in t.words:
            mask |= 1 << (bit[w[0]] + (k if len(w) > 1 else 0))
        return mask

    for g in spec.generators:
        if not _in_r(g):
            raise ValueError(f"generator {g!r} of {spec.label!r} falsifies xy = xz")
    left, right = subset(ident.lhs), subset(ident.rhs)
    if invariants is None:
        rep = _closed_form(spec, k)
        return rep[left] == rep[right]
    left, right = _abue(left, k), _abue(right, k)
    return all(invariant(*left) == invariant(*right) for invariant in invariants)


def _join_values(a: FiniteAlgebra) -> list:
    """val[S]: the join of S's letters in `a` under x_i -> a_i."""
    add, mul = a.add, a.mul
    letters = [*range(a.order), *(mul[i][i] for i in range(a.order))]
    return _subset_joins(letters, lambda x, y: add[x][y])


def _first_failing_subset(values: list, rep: tuple[int, ...]) -> int | None:
    """The least subset S whose value from _join_values differs from its
    representative's, i.e. where S = rep[S] fails in the candidate; None
    when it holds for every S."""
    mapped = [values[r] for r in rep]
    if mapped == values:
        return None
    return next(itertools.compress(itertools.count(), map(operator.ne, mapped, values)))


def _subset_term(s: int, k: int) -> TermNF:
    """The join of subset s's letters: x_{i+1} for bit i and
    x_{i+1}x_{i+1} for bit k + i."""
    return TermNF((_variable(b % k),) * (1 + b // k) for b in range(2 * k) if s >> b & 1)


def _leq(specs, cell_limit: int, join_values: dict) -> tuple[tuple[bool, ...], ...]:
    """leq[i][j] iff each generator of specs[i] is a member of
    V(specs[j]); the diagonal holds without a test. `member` answers
    each (generator, spec) question once, however many specs share the
    generator; inside R or its dual it builds no free algebra. Its
    calls share `join_values`, a dict each caller makes afresh, so each
    generator's subset join values are computed once per call."""
    contains = lru_cache(maxsize=None)(
        lambda j, g: member(g, specs[j], cell_limit, join_values).member
    )
    return tuple(
        tuple(i == j or all(contains(j, g) for g in s.generators) for j in range(len(specs)))
        for i, s in enumerate(specs)
    )


@lru_cache(maxsize=1)
def _standard():
    """The ten standard specs, their inclusion order (all of them are in
    R, so _leq builds no closure) and the index of their generators'
    patterns (_pattern, computed here once each). Being in R and having
    a rule for every generator are checked here, since
    classify_generated reads their closed forms and charges each 4^k
    cells, the cost of a rule-built form."""
    specs = tuple(standard_subvariety_specs())
    if not all(_in_r(g) for s in specs for g in s.generators):
        raise ValueError("a standard spec falsifies xy = xz")
    if any(_spec_rules(s) is None for s in specs):
        raise ValueError("a standard spec has a generator without a rule")
    index = _pattern_index([(s, _pattern(s.generators)) for s in specs])
    return specs, _leq(specs, DEFAULT_CELL_LIMIT, {}), index


class ClassificationError(ValueError):
    """An algebra's satisfaction pattern escapes the ten known
    subvarieties, or the two classification routes disagree; carries the
    algebra as a finding."""

    def __init__(self, message: str, algebra: FiniteAlgebra):
        super().__init__(message)
        self.algebra = algebra


def classify_generated(a: FiniteAlgebra) -> str:
    """Label of the variety generated by a row-constant algebra.

    Matches its pattern on the five separating identities against the
    standard specs' generator patterns, and always cross-checks the
    label against the least standard spec containing the algebra; a
    pattern matching no spec, or a disagreement, raises
    ClassificationError.

    Membership goes through the closed form of F_R(k), k = |a|, and
    builds no free-algebra closure. In R, xy = xz gives xw = xx for every
    term w, so every word of length at least 2 equals x_i x_i for its
    first letter x_i, and every term in k variables equals the join of
    a nonempty subset S of the 2k letters x_i, x_i x_i. The generators of
    every standard spec V lie in R, so V is a subvariety of R, and `a` is
    in R by the check on xy = xz. `a` lies in V exactly when it satisfies
    every k-variable identity of V, since a is generated by its k
    elements (map x_i to a_i). Each such identity reduces in R to
    S = T, which holds in V exactly when S and T have the same
    evaluation vector over V's generators, that is, the same
    representative. So `a` is in V exactly when S = rep[S] holds in `a`
    under x_i -> a_i for every S: sound and complete, but only for
    candidates and specs inside R. The order that picks the least such V
    comes from the same test (see _standard), so even a cold call builds
    no closure. The ten closed forms are built by rule and meet (see
    _closed_form; _standard checks that every standard generator has a
    rule), and their 4^k cells are checked against DEFAULT_CELL_LIMIT
    before any other work (ResourceBudgetError).
    """
    a.validate()
    if not _in_r(a):
        raise ValueError("classification requires an algebra satisfying xy = xz")
    specs, leq, by_pattern = _standard()
    k = a.order
    if 4**k > DEFAULT_CELL_LIMIT:
        raise ResourceBudgetError(f"closed form of {4**k} cells exceeds the cell budget")
    pattern = _pattern((a,))
    found = by_pattern.get(pattern)
    if found is None:
        raise ClassificationError(
            f"satisfaction pattern {pattern} on {_PATTERN_LABELS} matches none "
            "of the ten known subvarieties",
            a,
        )
    label = specs[found].label
    values = _join_values(a)
    containing = [
        i
        for i in range(len(specs))
        if _first_failing_subset(values, _closed_form(specs[i], k)) is None
    ]
    least = next((i for i in containing if all(leq[i][j] for j in containing)), None)
    if least != found:
        got = specs[least].label if least is not None else "none"
        raise ClassificationError(
            f"pattern route gives {label!r} but membership route gives {got!r}",
            a,
        )
    return label
