"""Term-arithmetic kernel.

Terms of a sparse Laurent polynomial are stored as a dict mapping exponent
tuples (ints, negatives allowed) to nonzero coefficient objects.  The
coefficients are opaque here: any type with exact +, *, - and truthiness
works.  LaurentPoly hands these functions its numerators (``nums``): ints
over QQ, whose shared denominator it keeps itself, and the field elements
over Q(zeta_l) (CycloNumber) and Q(t) (RatFunc1).  Field-valued dicts
(Fraction values) work too, as the tests' references use them.
OperatorExpr adds, negates and scales its {word: coefficient} dicts with
the same functions: the keys need only hash.  No function here reduces a
content or ever stores a zero coefficient.
"""

import operator


def terms_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def terms_sub(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = -c
        else:
            s = s - c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def terms_iaddmul(out, b, c):
    """out += c*b in place, returning out."""
    if not c:
        return out
    get = out.get
    for e, cb in b.items():
        v = c * cb
        s = get(e)
        if s is None:
            out[e] = v
        else:
            s = s + v
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def terms_neg(a):
    return {e: -c for e, c in a.items()}


def terms_scale(a, c):
    if not c:
        return {}
    out = {}
    for e, v in a.items():
        w = c * v
        if w:
            out[e] = w
    return out


def terms_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    add = operator.add
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            v = ca * cb
            if not v:
                continue
            s = out.get(e)
            if s is None:
                out[e] = v
            else:
                s = s + v
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def terms_shift(a, delta):
    """Multiply by the monomial with exponent vector delta."""
    add = operator.add
    return {tuple(map(add, e, delta)): c for e, c in a.items()}


def terms_permute(a, perm):
    """Reindex variables: output exponent at slot k is input exponent at perm[k]."""
    if len(perm) == 1:
        return dict(a)
    get = operator.itemgetter(*perm)  # a tuple, for two or more slots
    return {get(e): c for e, c in a.items()}

