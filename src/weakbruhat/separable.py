"""Separable permutations: recognition, separating trees, and the
closed-form rank generating functions they admit.

A permutation is separable when it decomposes recursively into blocks:
at every level some prefix carries either the lowest or the highest
values of its block.  Such a split is positive (the prefix holds the
low values: a direct sum) or negative (the high values: a skew sum).
One function, _split, finds it; the separating tree, the block
recursion, interval_sizes and bijection.invert_phi all recurse on the
two halves it returns, splitting at the smallest prefix block until
every block is a single letter.  The tree records each split's sign at
its internal node.  Recognition does not recurse: is_separable reads
the word once, left to right, merging value blocks on a stack.  The
classical characterisation, that the separable permutations are
exactly those avoiding 3142 and 2413, is kept as a cross-check in the
tests.  Two independent evaluation routes are kept side by side on
purpose: a recursion over block splits, and a closed formula read off
the tree.  Tests confirm they agree with each other and with
brute-force interval enumeration.  The recursion computes on packed
integers (qpoly.pack_width), one int product per split, and forms one
IntPoly at the end.  interval_sizes runs the recursion at q = 1, for
the two interval sizes alone.

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


def is_separable(pi: Permutation) -> bool:
    """True when pi splits into prefix blocks at every level.

    One pass, left to right (the stack reduction of Bose, Buss and
    Lubiw, "Pattern matching for permutations", 1998): each letter
    comes in as a block of one value, and while the top two blocks of
    the stack hold abutting value ranges they merge into one.  pi is
    separable exactly when one block is left.  The merges build a
    separating tree; and if k >= 2 blocks are left, one letter from each
    spells a pattern of pi in which no two adjacent letters have
    consecutive values, while in a separable word the two leaves below
    a deepest node of its tree do.

    >>> is_separable(Permutation((4, 2, 3, 1)))
    True
    >>> is_separable(Permutation((2, 4, 1, 3)))
    False
    """
    stack = []  # (lowest, highest) value of each block, left to right
    for a in pi.word:
        lo = hi = a
        while stack:
            below_lo, below_hi = stack[-1]
            if below_hi + 1 == lo:
                lo = below_lo
            elif hi + 1 == below_lo:
                hi = below_hi
            else:
                break
            stack.pop()
        stack.append((lo, hi))
    return len(stack) == 1


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


def _block_product(pi: Permutation, word, binomial) -> int:
    """The lower recursion on word (pi's, or its complement's) evaluated
    at one point q: binomial(k, m) is the Gaussian binomial [k, m] at
    that q.  Raises NotSeparable at the first block with no split."""
    def below(word, lo: int, hi: int) -> int:
        if len(word) == 1:
            return 1
        split = _split(word, lo, hi)
        if split is None:
            raise NotSeparable(f"{pi} is not separable: block {word} has no prefix split")
        sign, left, right = split
        value = below(*left) * below(*right)
        if sign == NEGATIVE:
            value *= binomial(len(word), len(left[0]))
        return value

    try:
        return below(word, 1, len(word))
    finally:
        below = None  # below's cell refers to below: break that cycle


def _recursion(pi: Permutation, word) -> IntPoly:
    # evaluated at q = 2^width, where the polynomial is its packed int:
    # every value counts at most n! interval elements (pairs of them,
    # before a binomial), so pack_width's slots never spill
    width = pack_width(len(word))
    packed = _block_product(pi, word, lambda k, m: _packed_binomial(k, m, width))
    return IntPoly.from_packed(packed, width)


def gf_below_recursive(pi: Permutation) -> IntPoly:
    """Rank generating function of the lower interval by recursion on
    block splits: a positive split multiplies the pieces, a negative
    split adds a Gaussian binomial factor for interleaving the blocks.
    The recursion is its own separability test: it raises NotSeparable
    at the first block with no prefix split.
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
    return _block_product(pi, pi.word, comb), _block_product(pi, pi.complement().word, comb)


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
