"""Finite categories, functors, and nerves.

Morphisms are identified by strings; the composition table is keyed
"g∘f" (with U+2218), so morphism identifiers may not contain that
character, and they may not contain "|" because nerve cells are chains
of morphism identifiers joined by "|".

The nerve of a category with a composable cycle of non-identity
morphisms is infinite; such nerves are built up to a cap and marked
truncated.  Categories without such cycles always get their full nerve.

Nerves are built a degree at a time, each face of a chain looked up
among the chains one degree down, and a nerve map's value on a chain
extends its value on the chain's last face.  string_normal_form, which
normalizes a whole chain, serves the cylinder homotopy instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import words as W
from .sset import SMap, SimplexRef, SimplicialError, SimplicialSet, ValidationError

COMPOSE_SIGN = "∘"
DEFAULT_NERVE_CAP = 4


def compose_key(g: str, f: str) -> str:
    return f"{g}{COMPOSE_SIGN}{f}"


class FiniteCategory:
    """A finite category given by objects, arrows, and a full composition table."""

    def __init__(
        self,
        objects,
        morphisms: dict[str, tuple[str, str]],
        identities: dict[str, str],
        compose: dict[str, str],
    ):
        self.objects = [str(o) for o in objects]
        self.morphisms = {str(m): (str(s), str(t)) for m, (s, t) in morphisms.items()}
        self.identities = {str(o): str(m) for o, m in identities.items()}
        self.compose_table = {str(k): str(v) for k, v in compose.items()}
        self._hom_cache: dict[tuple[str, str], list[str]] = {}
        self._from_cache: dict[str, list[str]] = {}
        self._to_cache: dict[str, list[str]] = {}
        self._onward: dict[str, list[str]] | None = None
        self._nerves: dict[int | None, Nerve] = {}

    def src(self, m: str) -> str:
        return self.morphisms[m][0]

    def tgt(self, m: str) -> str:
        return self.morphisms[m][1]

    def identity_of(self, obj: str) -> str:
        return self.identities[obj]

    def is_identity(self, m: str) -> bool:
        return self.identities.get(self.morphisms[m][0]) == m

    def compose_pair(self, g: str, f: str) -> str:
        """The composite g after f."""
        key = compose_key(g, f)
        try:
            return self.compose_table[key]
        except KeyError:
            raise SimplicialError(f"pair {key!r} is not composable") from None

    def hom(self, a: str, b: str) -> list[str]:
        hit = self._hom_cache.get((a, b))
        if hit is None:
            hit = sorted(m for m, (s, t) in self.morphisms.items() if s == a and t == b)
            self._hom_cache[(a, b)] = hit
        return hit

    def arrows_from(self, a: str) -> list[str]:
        hit = self._from_cache.get(a)
        if hit is None:
            hit = sorted(m for m, (s, _) in self.morphisms.items() if s == a)
            self._from_cache[a] = hit
        return hit

    def arrows_to(self, b: str) -> list[str]:
        hit = self._to_cache.get(b)
        if hit is None:
            hit = sorted(m for m, (_, t) in self.morphisms.items() if t == b)
            self._to_cache[b] = hit
        return hit

    def non_identities_from(self, a: str) -> list[str]:
        """The non-identity arrows out of a, in id order; the table for
        all objects is built on the first call."""
        if self._onward is None:
            self._onward = {o: [] for o in self.objects}
            for m in sorted(self.morphisms):
                if not self.is_identity(m):
                    self._onward[self.src(m)].append(m)
        return self._onward[a]

    def non_identities(self) -> list[str]:
        return sorted(m for o in self.objects for m in self.non_identities_from(o))

    def validate(self) -> None:
        """Check the category laws."""
        obj_set = set(self.objects)
        if len(obj_set) != len(self.objects):
            raise ValidationError("duplicate object identifiers")
        for m, (s, t) in self.morphisms.items():
            if COMPOSE_SIGN in m or "|" in m:
                raise ValidationError(f"morphism id {m!r} contains a reserved character")
            if s not in obj_set or t not in obj_set:
                raise ValidationError(f"morphism {m!r} has endpoints outside the category")
        for o in self.objects:
            i = self.identities.get(o)
            if i is None or i not in self.morphisms:
                raise ValidationError(f"object {o!r} has no identity morphism")
            if self.morphisms[i] != (o, o):
                raise ValidationError(f"identity of {o!r} is not an endomorphism of it")
        if set(self.identities) != obj_set:
            raise ValidationError("identities table does not match the object list")
        # the table must cover exactly the composable pairs
        leaving: dict[str, list[str]] = {o: [] for o in self.objects}
        for g, (c, _) in self.morphisms.items():
            leaving[c].append(g)
        expected = {compose_key(g, f) for f, (_, b) in self.morphisms.items() for g in leaving[b]}
        if set(self.compose_table) != expected:
            missing = expected - set(self.compose_table)
            extra = set(self.compose_table) - expected
            detail = []
            if missing:
                detail.append(f"missing {sorted(missing)[:3]}")
            if extra:
                detail.append(f"spurious {sorted(extra)[:3]}")
            raise ValidationError("composition table mismatch: " + ", ".join(detail))
        for key, h in self.compose_table.items():
            g, f = key.split(COMPOSE_SIGN)
            if h not in self.morphisms:
                raise ValidationError(f"composite {key!r} names missing morphism {h!r}")
            if self.morphisms[h] != (self.src(f), self.tgt(g)):
                raise ValidationError(f"composite {key!r} has wrong endpoints")
        for f, (a, b) in self.morphisms.items():
            if self.compose_pair(self.identities[b], f) != f:
                raise ValidationError(f"left unit fails on {f!r}")
            if self.compose_pair(f, self.identities[a]) != f:
                raise ValidationError(f"right unit fails on {f!r}")
        # the unit laws settle every triple with an identity in it
        ids = set(self.identities.values())
        for f, (a, b) in self.morphisms.items():
            if f in ids:
                continue
            for g in self.non_identities_from(b):
                gf = self.compose_pair(g, f)
                for h in self.non_identities_from(self.tgt(g)):
                    if self.compose_pair(h, gf) != self.compose_pair(
                        self.compose_pair(h, g), f
                    ):
                        raise ValidationError(
                            f"associativity fails on ({h!r}, {g!r}, {f!r})"
                        )

    def chain_bound(self) -> tuple[bool, int | None]:
        """(has_cycle, longest chain of non-identity arrows when acyclic)."""
        out = {o: [self.tgt(m) for m in self.non_identities_from(o)] for o in self.objects}
        state: dict[str, int] = {}
        depth: dict[str, int] = {}
        cyclic = False

        def visit(o: str) -> int:
            nonlocal cyclic
            if state.get(o) == 1:
                cyclic = True
                return 0
            if state.get(o) == 2:
                return depth[o]
            state[o] = 1
            best = 0
            for t in out[o]:
                best = max(best, 1 + visit(t))
                if cyclic:
                    break
            state[o] = 2
            depth[o] = best
            return best

        longest = 0
        for o in self.objects:
            longest = max(longest, visit(o))
            if cyclic:
                return True, None
        return False, longest

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteCategory):
            return NotImplemented
        return (
            sorted(self.objects) == sorted(other.objects)
            and self.morphisms == other.morphisms
            and self.identities == other.identities
            and self.compose_table == other.compose_table
        )

    def __repr__(self) -> str:
        return f"<cat {len(self.objects)} objects, {len(self.morphisms)} morphisms>"


def op_category(c: FiniteCategory) -> FiniteCategory:
    morphisms = {m: (t, s) for m, (s, t) in c.morphisms.items()}
    compose = {}
    for key, h in c.compose_table.items():
        g, f = key.split(COMPOSE_SIGN)
        compose[compose_key(f, g)] = h
    return FiniteCategory(c.objects, morphisms, dict(c.identities), compose)


class Functor:
    def __init__(
        self,
        source: FiniteCategory,
        target: FiniteCategory,
        object_map: dict[str, str],
        morphism_map: dict[str, str],
    ):
        self.source = source
        self.target = target
        self.object_map = {str(a): str(b) for a, b in object_map.items()}
        self.morphism_map = {str(f): str(g) for f, g in morphism_map.items()}

    def validate(self) -> None:
        """Check functoriality; source and target are taken as valid."""
        if set(self.object_map) != set(self.source.objects):
            raise ValidationError("object map does not cover the source objects")
        if set(self.morphism_map) != set(self.source.morphisms):
            raise ValidationError("morphism map does not cover the source morphisms")
        for o, fo in self.object_map.items():
            if fo not in set(self.target.objects):
                raise ValidationError(f"object {o!r} maps outside the target")
        for m, fm in self.morphism_map.items():
            if fm not in self.target.morphisms:
                raise ValidationError(f"morphism {m!r} maps outside the target")
            s, t = self.source.morphisms[m]
            if self.target.morphisms[fm] != (self.object_map[s], self.object_map[t]):
                raise ValidationError(f"morphism {m!r} endpoints do not commute")
        for o in self.source.objects:
            if self.morphism_map[self.source.identity_of(o)] != self.target.identity_of(
                self.object_map[o]
            ):
                raise ValidationError(f"identity of {o!r} is not preserved")
        for f, (a, b) in self.source.morphisms.items():
            for g in self.source.arrows_from(b):
                if self.morphism_map[self.source.compose_pair(g, f)] != (
                    self.target.compose_pair(self.morphism_map[g], self.morphism_map[f])
                ):
                    raise ValidationError(f"composition fails under the functor on ({g!r}, {f!r})")

    def compose_with(self, other: "Functor") -> "Functor":
        """self o other."""
        if other.target is not self.source and other.target != self.source:
            raise SimplicialError("functor composition mismatch")
        return Functor(
            other.source,
            self.target,
            {o: self.object_map[m] for o, m in other.object_map.items()},
            {f: self.morphism_map[m] for f, m in other.morphism_map.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Functor):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.object_map == other.object_map
            and self.morphism_map == other.morphism_map
        )


def identity_functor(c: FiniteCategory) -> Functor:
    return Functor(c, c, {o: o for o in c.objects}, {m: m for m in c.morphisms})


def op_functor(f: Functor) -> Functor:
    return Functor(
        op_category(f.source),
        op_category(f.target),
        dict(f.object_map),
        dict(f.morphism_map),
    )


@dataclass
class NatTrans:
    """A natural transformation between parallel functors, by components."""

    source: Functor
    target: Functor
    components: dict[str, str]

    def validate(self) -> None:
        f, g = self.source, self.target
        if f.source != g.source or f.target != g.target:
            raise ValidationError("natural transformation wants parallel functors")
        d = f.target
        for o in f.source.objects:
            comp = self.components.get(o)
            if comp is None or comp not in d.morphisms:
                raise ValidationError(f"missing component at {o!r}")
            if d.morphisms[comp] != (f.object_map[o], g.object_map[o]):
                raise ValidationError(f"component at {o!r} has wrong endpoints")
        for m, (a, b) in f.source.morphisms.items():
            left = d.compose_pair(self.components[b], f.morphism_map[m])
            right = d.compose_pair(g.morphism_map[m], self.components[a])
            if left != right:
                raise ValidationError(f"naturality square fails at {m!r}")


# -- poset and group-like constructors ---------------------------------------


def poset_category(objects, strict_pairs) -> FiniteCategory:
    """The category of a finite poset, from generating strict relations.

    Morphism identifiers: "id_a" for identities and "a<b" for a < b.
    """
    objs = [str(o) for o in objects]
    below: dict[str, set[str]] = {o: set() for o in objs}
    for a, b in strict_pairs:
        a, b = str(a), str(b)
        if a not in below or b not in below:
            raise SimplicialError(f"relation ({a}, {b}) names a missing object")
        if a == b:
            raise SimplicialError(f"strict relation ({a}, {b}) is reflexive")
        below[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in objs:
            grown = set(below[a])
            for b in below[a]:
                grown |= below[b]
            if grown != below[a]:
                below[a] = grown
                changed = True
    for a in objs:
        if a in below[a]:
            raise SimplicialError(f"relation has a cycle through {a!r}")
    morphisms: dict[str, tuple[str, str]] = {}
    identities: dict[str, str] = {}
    for a in objs:
        identities[a] = f"id_{a}"
        morphisms[f"id_{a}"] = (a, a)
        for b in sorted(below[a]):
            morphisms[f"{a}<{b}"] = (a, b)

    def arrow(a: str, b: str) -> str:
        return identities[a] if a == b else f"{a}<{b}"

    compose = {}
    for f, (a, b) in morphisms.items():
        for g, (c, d) in morphisms.items():
            if b == c:
                compose[compose_key(g, f)] = arrow(a, d)
    return FiniteCategory(objs, morphisms, identities, compose)


def chain_poset(n: int) -> FiniteCategory:
    """The linear order 0 < 1 < ... < n as a category."""
    objs = [str(i) for i in range(n + 1)]
    pairs = [(str(i), str(i + 1)) for i in range(n)]
    return poset_category(objs, pairs)


def cyclic_group_category(n: int) -> FiniteCategory:
    """The cyclic group of order n as a one-object category."""
    if n < 1:
        raise SimplicialError("cyclic_group_category wants n >= 1")
    objs = ["*"]
    morphisms = {f"g{i}": ("*", "*") for i in range(n)}
    identities = {"*": "g0"}
    compose = {
        compose_key(f"g{i}", f"g{j}"): f"g{(i + j) % n}"
        for i in range(n)
        for j in range(n)
    }
    return FiniteCategory(objs, morphisms, identities, compose)


# -- comma constructions ------------------------------------------------------


def _comma_obj_id(c: str, g: str) -> str:
    return f"({c},{g})"


def _comma_mor_id(u: str, v: str, g1: str, g2: str) -> str:
    return f"({u},{v}):{g1}>{g2}"


def _fresh(named: dict, key: str, what: str) -> str:
    """key, checked to name nothing yet: ids containing ',', '(', ')', ':'
    or '>' can spell two different comma cells the same way."""
    if key in named:
        raise SimplicialError(f"comma {what} id {key!r} would name two different {what}s")
    return key


def comma_category(f: Functor) -> tuple[FiniteCategory, Functor, Functor]:
    """The comma category of a functor F: C -> D over all of D.

    Objects are pairs (c, g) with g: F(c) -> d; morphisms are pairs (u, v)
    with v o g = g' o F(u).  Returns (category, projection to C,
    projection to D).
    """
    c_cat, d_cat = f.source, f.target
    objects = []
    obj_data: dict[str, tuple[str, str]] = {}
    for c in c_cat.objects:
        fc = f.object_map[c]
        for d in d_cat.objects:
            for g in d_cat.hom(fc, d):
                oid = _fresh(obj_data, _comma_obj_id(c, g), "object")
                objects.append(oid)
                obj_data[oid] = (c, g)
    objects.sort()
    morphisms: dict[str, tuple[str, str]] = {}
    mor_data: dict[str, tuple[str, str]] = {}
    identities: dict[str, str] = {}
    for o1 in objects:
        c1, g1 = obj_data[o1]
        d1 = d_cat.tgt(g1)
        for o2 in objects:
            c2, g2 = obj_data[o2]
            d2 = d_cat.tgt(g2)
            for u in c_cat.hom(c1, c2):
                fu = f.morphism_map[u]
                for v in d_cat.hom(d1, d2):
                    if d_cat.compose_pair(g2, fu) != d_cat.compose_pair(v, g1):
                        continue
                    mid = _fresh(morphisms, _comma_mor_id(u, v, g1, g2), "morphism")
                    morphisms[mid] = (o1, o2)
                    mor_data[mid] = (u, v)
                    if o1 == o2 and c_cat.is_identity(u) and d_cat.is_identity(v):
                        identities[o1] = mid
    compose = {}
    for m1, (o1, o2) in morphisms.items():
        u1, v1 = mor_data[m1]
        for m2, (p2, o3) in morphisms.items():
            if p2 != o2:
                continue
            u2, v2 = mor_data[m2]
            u = c_cat.compose_pair(u2, u1)
            v = d_cat.compose_pair(v2, v1)
            g1, g3 = obj_data[o1][1], obj_data[o3][1]
            compose[compose_key(m2, m1)] = _comma_mor_id(u, v, g1, g3)
    cat = FiniteCategory(objects, morphisms, identities, compose)
    cat.comma_objects = obj_data
    cat.comma_morphisms = mor_data
    to_c = Functor(
        cat,
        c_cat,
        {o: obj_data[o][0] for o in objects},
        {m: mor_data[m][0] for m in morphisms},
    )
    to_d = Functor(
        cat,
        d_cat,
        {o: d_cat.tgt(obj_data[o][1]) for o in objects},
        {m: mor_data[m][1] for m in morphisms},
    )
    return cat, to_c, to_d


def slice_category(f: Functor, d: str) -> tuple[FiniteCategory, Functor]:
    """The slice of F: C -> D over an object d: pairs (c, g: F(c) -> d).

    Morphisms (c, g) -> (c', g') are u: c -> c' with g' o F(u) = g.
    Returns (category, projection to C).
    """
    c_cat, d_cat = f.source, f.target
    if d not in set(d_cat.objects):
        raise SimplicialError(f"no object {d!r} in the target category")
    objects = []
    obj_data: dict[str, tuple[str, str]] = {}
    for c in c_cat.objects:
        for g in d_cat.hom(f.object_map[c], d):
            oid = _fresh(obj_data, _comma_obj_id(c, g), "object")
            objects.append(oid)
            obj_data[oid] = (c, g)
    objects.sort()
    morphisms: dict[str, tuple[str, str]] = {}
    mor_data: dict[str, str] = {}
    identities: dict[str, str] = {}
    for o1 in objects:
        c1, g1 = obj_data[o1]
        for o2 in objects:
            c2, g2 = obj_data[o2]
            for u in c_cat.hom(c1, c2):
                if d_cat.compose_pair(g2, f.morphism_map[u]) != g1:
                    continue
                mid = _fresh(morphisms, f"({u}):{g1}>{g2}", "morphism")
                morphisms[mid] = (o1, o2)
                mor_data[mid] = u
                if o1 == o2 and c_cat.is_identity(u):
                    identities[o1] = mid
    compose = {}
    for m1, (o1, o2) in morphisms.items():
        for m2, (p2, o3) in morphisms.items():
            if p2 != o2:
                continue
            u = c_cat.compose_pair(mor_data[m2], mor_data[m1])
            compose[compose_key(m2, m1)] = (
                f"({u}):{obj_data[o1][1]}>{obj_data[o3][1]}"
            )
    cat = FiniteCategory(objects, morphisms, identities, compose)
    to_c = Functor(
        cat,
        c_cat,
        {o: obj_data[o][0] for o in objects},
        {m: mor_data[m] for m in morphisms},
    )
    return cat, to_c


# -- classical fibration tests ------------------------------------------------


def _is_cartesian_morphism(f: Functor, phi: str) -> bool:
    e_cat, b_cat = f.source, f.target
    e1, e0 = e_cat.morphisms[phi]
    for psi, (e2, t) in e_cat.morphisms.items():
        if t != e0:
            continue
        for h in b_cat.hom(f.object_map[e2], f.object_map[e1]):
            if b_cat.compose_pair(f.morphism_map[phi], h) != f.morphism_map[psi]:
                continue
            count = 0
            for chi in e_cat.hom(e2, e1):
                if f.morphism_map[chi] == h and e_cat.compose_pair(phi, chi) == psi:
                    count += 1
            if count != 1:
                return False
    return True


def is_grothendieck_fibration(f: Functor) -> tuple[bool, tuple[str, str] | None]:
    """Brute-force test for the classical fibration property.

    Returns (True, None) or (False, (arrow of the base, object over its
    target)) naming the first pair with no cartesian lift.
    """
    e_cat, b_cat = f.source, f.target
    fibre_over: dict[str, list[str]] = {b: [] for b in b_cat.objects}
    for e in e_cat.objects:
        fibre_over[f.object_map[e]].append(e)
    for arrow in sorted(b_cat.morphisms):
        if b_cat.is_identity(arrow):
            continue
        b1 = b_cat.tgt(arrow)
        for e in fibre_over[b1]:
            found = False
            for phi in e_cat.arrows_to(e):
                if f.morphism_map[phi] != arrow:
                    continue
                if _is_cartesian_morphism(f, phi):
                    found = True
                    break
            if not found:
                return False, (arrow, e)
    return True, None


def is_grothendieck_opfibration(f: Functor) -> tuple[bool, tuple[str, str] | None]:
    return is_grothendieck_fibration(op_functor(f))


# -- nerves --------------------------------------------------------------------


def string_normal_form(cat: FiniteCategory, chain: tuple[str, ...], source_obj: str) -> SimplexRef:
    """Normal form of a composable chain of arrows, identities allowed.

    A length-n chain is a degree-n simplex of the nerve; identities at
    1-indexed positions j_1 < ... < j_k are exactly the degeneracies,
    giving the word (j_k - 1, ..., j_1 - 1) on the chain with the
    identities deleted.
    """
    word = []
    base = []
    for pos, m in enumerate(chain, start=1):
        if cat.is_identity(m):
            word.append(pos - 1)
        else:
            base.append(m)
    word.reverse()
    if base:
        return SimplexRef(len(chain), tuple(word), "|".join(base))
    return SimplexRef(len(chain), tuple(word), source_obj)


class Nerve:
    """The nerve of a finite category.

    Cells of degree n are composable chains of n non-identity arrows,
    identified by the arrow ids joined with "|", so a cell id is its
    chain (chain_of reads it back); vertices are the objects.
    An inner face d_i composes arrows i and i+1 (1-indexed); where the
    composite is an identity (only in a category with a cycle) the face
    is s_{i-1} of the chain without both arrows.
    """

    def __init__(self, category: FiniteCategory, cap: int | None = None):
        if cap is not None and cap < 0:
            raise SimplicialError(f"nerve cap must be >= 0, got {cap}")
        self.category = category
        cyclic, bound = category.chain_bound()
        if cyclic:
            eff = DEFAULT_NERVE_CAP if cap is None else cap
            truncated: int | None = eff
        else:
            eff = bound if cap is None else min(cap, bound)
            truncated = None if eff == bound else eff
        objects = sorted(category.objects)
        layers: dict[int, list[tuple[str, list[SimplexRef]]]] = {0: [(o, []) for o in objects]}
        # the refs of the degree below, by chain (by object in degree 0)
        below: dict = {o: SimplexRef(0, (), o) for o in objects}
        out = {o: category.non_identities_from(o) for o in objects}
        for n in range(1, eff + 1):
            if n == 1:
                grown = [(m,) for o in objects for m in out[o]]
            else:  # level holds the chains of degree n - 1
                grown = [chain + (m,) for chain in level for m in out[category.tgt(chain[-1])]]
            grown.sort(key=lambda ch: "|".join(ch))
            layer = []
            refs: dict = {}
            for chain in grown:
                cell_id = "|".join(chain)
                refs[chain] = SimplexRef(n, (), cell_id)
                if n == 1:
                    faces = [below[category.tgt(chain[0])], below[category.src(chain[0])]]
                else:
                    faces = [below[chain[1:]]]
                    for i in range(1, n):
                        comp = category.compose_pair(chain[i], chain[i - 1])
                        # acyclic: no composite of non-identity arrows is an identity
                        if cyclic and category.is_identity(comp):
                            rest = "|".join(chain[: i - 1] + chain[i + 1 :])
                            faces.append(SimplexRef(n - 1, (i - 1,), rest or category.src(chain[0])))
                        else:
                            faces.append(below[chain[: i - 1] + (comp,) + chain[i + 1 :]])
                    faces.append(below[chain[:-1]])
                layer.append((cell_id, faces))
            layers[n] = layer
            level, below = grown, refs
            if not grown:
                break
        tags = {"nerve"}
        if not cyclic:
            tags.add("nerve-acyclic")
        self.sset = SimplicialSet(layers, truncated_at=truncated, tags=tags)

    def chain_of(self, r: SimplexRef) -> tuple[str, ...]:
        """The arrow chain (identities included) behind any simplex; a
        cell's chain is its id split on "|", a vertex's is empty."""
        base = tuple(r.cell.split("|")) if r.cell_degree else ()
        if not r.word:
            return base
        c = self.category
        # the objects along the cell's chain; surj repeats them
        objs = [c.src(base[0])] + [c.tgt(m) for m in base] if base else [r.cell]
        surj = W.word_to_map(r.word, r.degree)
        out = []
        for i in range(1, r.degree + 1):
            a, b = surj[i - 1], surj[i]
            out.append(c.identity_of(objs[a]) if a == b else base[a])
        return tuple(out)


def nerve(category: FiniteCategory, cap: int | None = None) -> Nerve:
    """The nerve of a category at a requested cap.

    Nerves are kept on the category, keyed by the requested cap, as
    hom-sets are, so each pair is built once."""
    hit = category._nerves.get(cap)
    if hit is None:
        hit = category._nerves[cap] = Nerve(category, cap)
    return hit


def nerve_functor(
    f: Functor, cap: int | None = None
) -> tuple[SMap, Nerve, Nerve]:
    """The map of nerves induced by a functor.

    The target nerve is rebuilt with a larger cap if its truncation would
    not contain the image of the source nerve.  A cell's value is the
    value of its face d_n with the image h of its last arrow added: an
    identity h puts n-1 in front of the word, any other h extends the
    cell (or replaces a vertex).  Equal values are one shared object.
    """
    src = nerve(f.source, cap)
    tgt = nerve(f.target, cap)
    need = src.sset.dimension
    if tgt.sset.truncated_at is not None and tgt.sset.truncated_at < need:
        tgt = nerve(f.target, need)
    assignment: dict[int, dict[str, SimplexRef]] = {}
    shared: dict[SimplexRef, SimplexRef] = {}
    for n, cell_id, faces in src.sset.cell_items():
        if n == 0:
            v = SimplexRef(0, (), f.object_map[cell_id])
        else:
            v = assignment[n - 1][faces[n].cell]
            h = f.morphism_map[cell_id.rpartition("|")[2]]
            if f.target.is_identity(h):
                v = SimplexRef(n, (n - 1,) + v.word, v.cell)
            elif v.cell_degree == 0:
                v = SimplexRef(n, v.word, h)
            else:
                v = SimplexRef(n, v.word, f"{v.cell}|{h}")
        assignment.setdefault(n, {})[cell_id] = shared.setdefault(v, v)
    return SMap(src.sset, tgt.sset, assignment), src, tgt


def _homotopy_value(
    alpha: NatTrans, chain: tuple[str, ...], vertex: str, levels: tuple[int, ...]
) -> SimplexRef:
    """The value of alpha's cylinder homotopy on a simplex of N(C) x Δ^1.

    chain is the arrow chain of the N(C) component (vertex names it when
    the chain is empty), levels the Δ^1 level of each of its vertices.
    """
    f, g = alpha.source, alpha.target
    d_cat = f.target
    obj = f.source.src(chain[0]) if chain else vertex
    start = (g if levels[0] else f).object_map[obj]
    image = []
    for m, lo, hi in zip(chain, levels, levels[1:]):
        if not hi:
            image.append(f.morphism_map[m])
        elif lo:
            image.append(g.morphism_map[m])
        else:
            image.append(d_cat.compose_pair(g.morphism_map[m], alpha.components[obj]))
        obj = f.source.tgt(m)
    return string_normal_form(d_cat, tuple(image), start)


def nat_trans_homotopy(alpha: NatTrans, cap: int | None = None):
    """Materialize a natural transformation as a cylinder map on nerves.

    Returns (homotopy, product, source nerve, target nerve) where the
    homotopy maps (nerve of C) x (standard 1-simplex) to the nerve of D,
    restricting to the two induced maps on the ends.
    """
    from .products import Product
    from .sset import standard_simplex, standard_vertices

    alpha.validate()
    f = alpha.source
    src_nerve = nerve(f.source, cap)
    need = src_nerve.sset.dimension + 1
    tgt_nerve = nerve(f.target, cap)
    if tgt_nerve.sset.truncated_at is not None and tgt_nerve.sset.truncated_at < need:
        tgt_nerve = nerve(f.target, need)
    prod = Product(src_nerve.sset, standard_simplex(1))
    assignment: dict[int, dict[str, SimplexRef]] = {}
    for (n, cell_id), (lref, rref) in prod.components.items():
        assignment.setdefault(n, {})[cell_id] = _homotopy_value(
            alpha, src_nerve.chain_of(lref), lref.cell, standard_vertices(rref)
        )
    h = SMap(prod.sset, tgt_nerve.sset, assignment)
    return h, prod, src_nerve, tgt_nerve
