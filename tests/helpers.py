"""Constructors and definitions the tests use and the library does not:
polynomials from and to exponent-tuple term dicts, the tuple sort key of a
monomial order, permutations from cycles, acting on bitmasks, composed, and
the elements of a permutation group, closed from its generators."""

from matroidworks.errors import InputError
from matroidworks.matroid import mask_elements
from matroidworks.polynomials import Poly
from matroidworks.symmetry import Permutation


def poly_from_terms(ring, terms):
    """The polynomial with {exponent tuple: coefficient} terms; coefficients
    are coerced into the ring's field and zeros are dropped."""
    clean = {}
    for exp, c in terms.items():
        if len(exp) != ring.nvars:
            raise InputError("exponent tuple has the wrong length")
        cc = ring.one().scale(c).constant_value()
        if not ring.field.is_zero(cc):
            clean[ring.monomial(exp)] = cc
    return Poly(ring, clean)


def exponent_terms(p):
    """The {exponent tuple: coefficient} terms of a polynomial."""
    return {p.ring.exponents(m): c for m, c in p.terms.items()}


def order_key(order, exps):
    """The tuple sort key of an exponent tuple in a monomial order, by the
    definition: degrevlex compares the degree, then the negated exponents
    from the last; a block order compares the first block that way, then
    the rest."""
    s = order.block
    if s is None:
        return (sum(exps), tuple(-e for e in reversed(exps)))
    head, tail = exps[:s], exps[s:]
    return (
        sum(head),
        tuple(-e for e in reversed(head)),
        sum(tail),
        tuple(-e for e in reversed(tail)),
    )


def permutation_from_cycles(n, cycles):
    images = list(range(1, n + 1))
    for cyc in cycles:
        for i, e in enumerate(cyc):
            images[e - 1] = cyc[(i + 1) % len(cyc)]
    return Permutation(images)


def apply_mask(p, mask):
    """The image under p of the subset with this bitmask, as a bitmask."""
    out = 0
    for e in mask_elements(mask):
        out |= 1 << (p.apply(e) - 1)
    return out


def compose(p, q):
    """p after q: compose(p, q)(e) = p(q(e))."""
    if p.n != q.n:
        raise InputError("permutation size mismatch")
    return Permutation(tuple(p.apply(q.apply(e)) for e in range(1, p.n + 1)))


def group_elements(group):
    """Every element of a PermutationGroup as an image tuple, by closing its
    generators under composition from the identity."""
    identity = tuple(range(1, group.n + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        cur = frontier.pop()
        for g in group.generators:
            nxt = tuple(g.images[c - 1] for c in cur)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)
