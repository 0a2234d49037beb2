"""Separable permutations: recognition, separating trees, and the
closed-form rank generating functions they admit.

A permutation is separable when it decomposes recursively into blocks:
at every level some prefix carries either the lowest or the highest
values of its block.  Such a split is positive (the prefix holds the
low values: a direct sum) or negative (the high values: a skew sum).
Nothing here recurses on the word but the separating tree and
bijection.invert_phi, which split it with _split at the smallest
prefix block until every block is a single letter; the tree records
each split's sign at its internal node.  Recognition and the block
recursion share one pass, _merge: it reads the word once, left to
right, merging abutting value blocks on a stack as direct or skew
sums, and evaluates the recursion on the merges as it goes.  The
classical characterisation, that the separable permutations are
exactly those avoiding 3142 and 2413, is kept as a cross-check in the
tests.  Two independent evaluation routes are kept side by side on
purpose: the block recursion, and a closed formula read off the tree.
Tests confirm they agree with each other and with brute-force interval
enumeration.  The recursion computes on packed integers
(qpoly.pack_width), one int product per merge, and forms one IntPoly
at the end.  interval_sizes runs it at q = 1, for the two interval
sizes alone.

Each route is written once, for the lower interval [id, pi].  The upper
interval [pi, w0] is its complement dual: read backwards it is
[id, pi^c], and complementing flips every sign of the separating tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Union

from .errors import Not231Avoiding, NotSeparable
from .perm import Permutation, avoids_231
from .qpoly import ONE, IntPoly, pack_width, q_binomial, q_factorial, q_int

POSITIVE = "positive"
NEGATIVE = "negative"


def _merge(word, binomial):
    """One pass over word, left to right (the stack reduction of Bose,
    Buss and Lubiw, "Pattern matching for permutations", 1998), that
    evaluates the block recursion at one point q on the way.  Each
    letter comes in as a block of one value; while the top two blocks
    hold abutting value ranges they merge, and their values multiply.
    A skew sum, whose left block holds the m high values of k, also
    multiplies by binomial(k, m), the Gaussian binomial [k, m] at q.
    Returns the last block's value, or None if more blocks are left:
    a letter from each then spells a pattern with no two adjacent
    letters of consecutive values, which no separable word has."""
    stack = []  # (lowest value, highest value, value at q) of each block
    for a in word:
        lo = hi = a
        value = 1
        while stack:
            left_lo, left_hi, left_value = stack[-1]
            if left_hi + 1 == lo:
                lo = left_lo
            elif hi + 1 == left_lo:
                value *= binomial(left_hi - lo + 1, left_hi - left_lo + 1)
                hi = left_hi
            else:
                break
            value *= left_value
            stack.pop()
        stack.append((lo, hi, value))
    return stack[0][2] if len(stack) == 1 else None


def is_separable(pi: Permutation) -> bool:
    """True when pi merges into one block: _merge with every binomial 1.

    >>> is_separable(Permutation((4, 2, 3, 1)))
    True
    >>> is_separable(Permutation((2, 4, 1, 3)))
    False
    """
    return _merge(pi.word, _unit) is not None


def _unit(k: int, m: int) -> int:
    return 1


def _split(word, lo: int, hi: int, largest: bool = False):
    """Split a block holding the values lo..hi after a prefix whose
    letters form a value block anchored at lo or hi; the smallest such
    prefix by default, the largest with largest=True.  Returns None when
    there is none, else (sign, (left, llo, lhi), (right, rlo, rhi)):
    the sign is POSITIVE when the prefix holds the low values and
    NEGATIVE when it holds the high ones, and each half comes with its
    own value range."""
    split = None
    mn = mx = word[0]
    for m in range(1, len(word)):
        a = word[m - 1]
        if a < mn:
            mn = a
        if a > mx:
            mx = a
        if mx - mn + 1 == m and (mn == lo or mx == hi):
            split = m, mn == lo
            if not largest:
                break
    if split is None:
        return None
    m, low = split
    if low:
        return POSITIVE, (word[:m], lo, lo + m - 1), (word[m:], lo + m, hi)
    return NEGATIVE, (word[:m], hi - m + 1, hi), (word[m:], lo, hi - m)


@dataclass(frozen=True)
class Leaf:
    value: int

    @property
    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class Internal:
    left: "TreeNode"
    right: "TreeNode"
    sign: str
    size: int


TreeNode = Union[Leaf, Internal]


def separating_tree(pi: Permutation, largest: bool = False) -> TreeNode:
    """Root of the canonical separating tree, splitting at the smallest
    valid prefix block each time (largest=True picks the other extreme,
    for checking that tree choice does not matter).

    >>> t = separating_tree(Permutation((4, 2, 3, 1)))
    >>> t.sign, t.right.sign, t.right.left.sign
    ('negative', 'negative', 'positive')
    """
    def build(word, lo: int, hi: int) -> TreeNode:
        if len(word) == 1:
            return Leaf(word[0])
        split = _split(word, lo, hi, largest)
        if split is None:
            raise NotSeparable(f"{pi} has a block with no prefix split")
        sign, left, right = split
        return Internal(build(*left), build(*right), sign, len(word))

    return build(pi.word, 1, pi.size)


def _closed_formula(root: TreeNode, sign: str) -> IntPoly:
    """Ratio of q-factorials over the maximal runs of equal sign in the
    tree: a non-root internal node whose parent has the other sign
    contributes the q-factorial of its leaf count, to the numerator
    when its sign is `sign` and to the denominator otherwise; the root
    contributes [n]! to the numerator when its sign is `sign`."""
    num, den = ONE, ONE
    stack = [(root, None)]
    while stack:
        node, parent_sign = stack.pop()
        if isinstance(node, Leaf):
            continue
        stack.append((node.left, node.sign))
        stack.append((node.right, node.sign))
        if node.sign == parent_sign:
            continue
        if node.sign == sign:
            num = num * q_factorial(node.size)
        elif parent_sign is not None:
            den = den * q_factorial(node.size)
    return num.exact_div(den)


def gf_below_closed(root: TreeNode) -> IntPoly:
    """Closed formula for the rank generating function of the interval
    from the identity up to the tree's permutation: negative runs go in
    the numerator, positive runs in the denominator.

    >>> print(gf_below_closed(separating_tree(Permutation((4, 1, 3, 2)))))
    1 + 2*q + 2*q^2 + 2*q^3 + q^4
    """
    return _closed_formula(root, NEGATIVE)


def gf_above_closed(root: TreeNode) -> IntPoly:
    """Closed formula for the interval from the permutation up to the
    reversal.  This is the complement dual of gf_below_closed:
    complementing the word flips every sign of its tree, so the
    positive runs go in the numerator instead.

    >>> print(gf_above_closed(separating_tree(Permutation((4, 1, 3, 2)))))
    1 + q + q^2
    """
    return _closed_formula(root, POSITIVE)


# Gaussian binomials of the blocks, packed at the slot width of the
# whole word.  pack_width gives every short word one width, so for
# them the keys are the O(n^2) pairs (n, m); each longer word length
# adds its own width.
@lru_cache(maxsize=None)
def _packed_binomial(n: int, m: int, width: int) -> int:
    return q_binomial(n, m).packed(width)


def _evaluate(pi: Permutation, word, binomial) -> int:
    # _merge on word, pi's or its complement's, naming pi when it fails
    value = _merge(word, binomial)
    if value is None:
        raise NotSeparable(f"{pi} is not separable")
    return value


def _recursion(pi: Permutation, word) -> IntPoly:
    # evaluated at q = 2^width, where the polynomial is its packed int:
    # each partial product is coefficientwise at most its block's
    # polynomial, which counts at most n! elements, so pack_width's
    # slots never spill
    width = pack_width(len(word))
    packed = _evaluate(pi, word, lambda k, m: _packed_binomial(k, m, width))
    return IntPoly.from_packed(packed, width)


def gf_below_recursive(pi: Permutation) -> IntPoly:
    """Rank generating function of the lower interval by the block
    recursion, evaluated on _merge's pass: a direct sum multiplies its
    blocks' generating functions, and a skew sum adds a Gaussian
    binomial factor for interleaving them.  Raises NotSeparable when
    more than one block is left.
    """
    return _recursion(pi, pi.word)


def gf_above_recursive(pi: Permutation) -> IntPoly:
    """Rank generating function of the upper interval, by complement
    duality: [pi, w0] read backwards is [id, pi^c], so this is the
    lower recursion on the complement, reversed.  NotSeparable names
    pi itself."""
    return _recursion(pi, pi.complement().word).reverse()


def interval_sizes(pi: Permutation) -> tuple[int, int]:
    """|[id, pi]| and |[pi, w0]|: the two recursions above at q = 1,
    where each Gaussian binomial is a binomial, so no polynomial is
    formed.  Raises NotSeparable for a non-separable pi.

    >>> interval_sizes(Permutation((4, 1, 3, 2)))
    (8, 3)
    """
    return _evaluate(pi, pi.word, comb), _evaluate(pi, pi.complement().word, comb)


def gf_below_231(pi: Permutation) -> IntPoly:
    """Product formula for 231-avoiding permutations: c_i is the
    distance from position i to the first later position carrying a
    larger letter (to one past the end when none does), and the value
    is the product of the q-integers [c_i].

    >>> print(gf_below_231(Permutation((1, 4, 2, 3, 6, 5))))
    1 + 2*q + 2*q^2 + q^3
    """
    if not avoids_231(pi.word):
        raise Not231Avoiding(f"{pi} contains 231")
    w = pi.word
    n = len(w)
    value = ONE
    for i in range(n):
        j = i + 1
        while j < n and w[j] < w[i]:
            j += 1
        value = value * q_int(j - i)
    return value


def gf_above_from_complement(pi: Permutation) -> IntPoly:
    """Upper interval generating function obtained by dividing [n]! by
    the lower one; the division is exact for separable input.  It is
    kept as an independent check on the complement-dual routes
    gf_above_recursive and gf_above_closed."""
    return q_factorial(pi.size).exact_div(gf_below_recursive(pi))


def tree_json(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"leaf": node.value}
    return {"sign": node.sign, "children": [tree_json(node.left), tree_json(node.right)]}


def tree_dot(root: TreeNode) -> str:
    """DOT rendering with signed internal nodes and letter leaves."""
    lines = ["digraph separating_tree {"]
    counter = 0

    def emit(node: TreeNode) -> str:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        if isinstance(node, Leaf):
            lines.append(f'  {name} [label="{node.value}" shape=plaintext];')
        else:
            label = "Positive Node" if node.sign == POSITIVE else "Negative Node"
            lines.append(f'  {name} [label="{label}"];')
            for child in (node.left, node.right):
                child_name = emit(child)
                lines.append(f"  {name} -> {child_name};")
        return name

    emit(root)
    lines.append("}")
    return "\n".join(lines)
