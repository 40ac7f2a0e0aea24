"""Reference 1-D legal-word enumeration.

This is the supertile-seeded `legal_words` that the legal-patch closure in
`tilecohom.subst1d` replaced, kept verbatim so the differential tests can
demand identical word sets.  Test-only code.
"""
from __future__ import annotations


def legal_words(s, n: int) -> set:
    """All length-n factors of the substitution language."""
    s.require_primitive()
    if n < 1:
        raise ValueError("n >= 1 required")

    def factors(word):
        return {word[i:i + n] for i in range(len(word) - n + 1)}

    found = set()
    for a in s.alphabet:
        w = (a,)
        while len(w) < n:
            w = s.apply(w)
        found |= factors(s.apply(w))
    frontier = set(found)
    while frontier:
        new = set()
        for w in frontier:
            for f in factors(s.apply(w)):
                if f not in found:
                    found.add(f)
                    new.add(f)
        frontier = new
    return found
