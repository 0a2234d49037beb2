"""Separable permutations: recognition, separating trees, and the
closed-form rank generating functions they admit.

A permutation is separable when it decomposes recursively into blocks:
at every level some prefix carries either the lowest or the highest
values of its block, a positive split (direct sum) or a negative one
(skew sum).  Nothing here recurses on the word.  One pass, _merge, reads
it left to right and merges abutting value blocks on a stack, once per
Permutation, which keeps the result for is_separable and the recursions
(_merged).  Its skew sums give the block recursion as gf_below =
prod [i]^(g_i), one list g_2..g_n (qint_exponents) that
qpoly.qint_product expands and interval_sizes takes at q = 1.
separating_tree runs the same reduction right to left, keeping each
merge as an Internal node, each letter a leaf.
The closed formulas read a q-factorial off each run of equal sign in
the tree, and verify and the tests check them against the recursion.

The upper interval [pi, w0] read backwards is [id, pi^c], which _merge
would reduce through the same blocks with direct and skew sums swapped.
So each merge of k = m + r letters is a skew sum in exactly one of pi
and pi^c, and the binomials [k]! / ([m]! [r]!) of all merges telescope
from [1]! = 1 to [n]!: g_i(pi^c) = 1 - g_i(pi), no second pass is run,
and the main theorem, gf_below * gf_above = [n]!, holds by construction;
an expansion that divided is prod Phi_d^(e_d), e_d >= 0, so cyclotomic.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial, prod

from .errors import Not231Avoiding, NotSeparable
from .perm import Permutation, avoids_231
from .qpoly import IntPoly, q_factorial, qint_product

POSITIVE = "positive"
NEGATIVE = "negative"


def _merge(word):
    """One left-to-right pass over word, the stack reduction of Bose, Buss and
    Lubiw ("Pattern matching for permutations", 1998): each letter comes in as
    a block, and the top two blocks merge while their value ranges abut.  A
    skew sum of a left block of m values over a right one of r multiplies the
    recursion by [m + r]! / ([m]! [r]!); deltas[i] sums the powers of [i]!.
    Returns deltas, or None if more blocks are left: a letter from each spells
    a pattern with no two adjacent letters of consecutive values."""
    deltas = [0] * (len(word) + 1)
    stack = []  # (lowest value, highest value) of each block
    for a in word:
        lo = hi = a
        while stack:
            left_lo, left_hi = stack[-1]
            if left_hi + 1 == lo:
                lo = left_lo
            elif hi + 1 == left_lo:
                deltas[left_hi - lo + 1] += 1
                deltas[left_hi - left_lo + 1] -= 1
                deltas[hi - lo + 1] -= 1
                hi = left_hi
            else:
                break
            stack.pop()
        stack.append((lo, hi))
    return deltas if len(stack) == 1 else None


def _powers(deltas: list[int]) -> list[int]:
    # g_2..g_n, the suffix sums of the powers deltas[j] of [j]!: [i] divides [j]! for j >= i
    return list(accumulate(deltas[:1:-1]))[::-1]


def _merged(pi: Permutation) -> list[int] | bool:
    """_merge's deltas for pi, or False if pi is not separable, kept on pi."""
    if pi._merged is None:
        deltas = _merge(pi.word)
        pi._merged = False if deltas is None else deltas
    return pi._merged


def is_separable(pi: Permutation) -> bool:
    """True when pi merges into one block, by _merged's one pass.

    >>> is_separable(Permutation((4, 2, 3, 1)))
    True
    >>> is_separable(Permutation((2, 4, 1, 3)))
    False
    """
    return _merged(pi) is not False


class Internal:
    """A split of a separating tree over size letters; left and right are
    Internal nodes or letters."""

    __slots__ = ("left", "right", "sign", "size")

    def __init__(self, left: Internal | int, right: Internal | int, sign: str, size: int):
        self.left, self.right, self.sign, self.size = left, right, sign, size


def tree_size(node: Internal | int) -> int:
    """The number of letters below node: 1 for a letter."""
    return 1 if type(node) is int else node.size


def separating_tree(pi: Permutation, largest: bool = False) -> Internal | int:
    """Root of the canonical separating tree, which splits each block at
    its smallest prefix block: _merge's reduction read right to left, each
    merge kept as a node.  Read left to right (largest=True) it splits at
    the largest, for checking that tree choice does not matter.

    >>> t = separating_tree(Permutation((4, 2, 3, 1)))
    >>> t.sign, t.right.sign, t.right.left.sign
    ('negative', 'negative', 'positive')
    """
    stack = []  # (lowest value, highest value, node) of each block
    for a in pi.word if largest else reversed(pi.word):
        lo = hi = node = a
        while stack:
            other_lo, other_hi, other = stack[-1]
            if other_hi + 1 == lo:
                lo, other_low = other_lo, True
            elif hi + 1 == other_lo:
                hi, other_low = other_hi, False
            else:
                break
            stack.pop()
            # left to right, the stacked block is the left half
            left, right = (other, node) if largest else (node, other)
            sign = POSITIVE if other_low == largest else NEGATIVE
            node = Internal(left, right, sign, hi - lo + 1)
        stack.append((lo, hi, node))
    if len(stack) > 1:
        raise NotSeparable(f"{pi} is not separable")
    return stack[0][2]


def _closed_formula(root: Internal | int, sign: str) -> IntPoly:
    """Ratio of q-factorials over the maximal runs of equal sign in the
    tree: a non-root internal node whose parent has the other sign
    contributes the q-factorial of its leaf count, to the numerator when
    its sign is `sign` and to the denominator otherwise, and the root [n]!
    to the numerator when its sign is `sign`.  As in _merge, deltas[k]
    sums the powers of [k]!, for _powers and qint_product."""
    deltas = [0] * (tree_size(root) + 1)
    stack = [(root, None)] if type(root) is Internal else []
    while stack:
        node, parent_sign = stack.pop()
        if node.sign != parent_sign:
            if node.sign == sign:
                deltas[node.size] += 1
            elif parent_sign is not None:
                deltas[node.size] -= 1
        for child in node.left, node.right:
            if type(child) is Internal:
                stack.append((child, node.sign))
    return qint_product(_powers(deltas))


def gf_below_closed(root: Internal | int) -> IntPoly:
    """Closed formula for the interval from the identity up to the
    tree's permutation: negative runs in the numerator, positive below.

    >>> print(gf_below_closed(separating_tree(Permutation((4, 1, 3, 2)))))
    1 + 2*q + 2*q^2 + 2*q^3 + q^4
    """
    return _closed_formula(root, NEGATIVE)


def gf_above_closed(root: Internal | int) -> IntPoly:
    """Closed formula for the interval from the permutation up to the
    reversal, the complement dual of gf_below_closed: complementing
    flips every sign of the tree, so positive runs go in the numerator.

    >>> print(gf_above_closed(separating_tree(Permutation((4, 1, 3, 2)))))
    1 + q + q^2
    """
    return _closed_formula(root, POSITIVE)


def qint_exponents(pi: Permutation) -> list[int]:
    """g_2..g_n with gf_below_recursive(pi) = prod [i]^(g_i), read off pi's kept merge
    pass into a new list each call: the one list both recursions and interval_sizes
    read.  Unique, as [i] = prod of Phi_d over d | i, d > 1, is triangular in the Phi_d;
    the exponent of Phi_d, e_d = sum of g_i over d | i, is >= 0, as the quotient is a
    polynomial.  [i] is palindromic, so gf_above(pi) = prod [i]^(g_i(pi^c)), and
    g(pi) + g(pi^c) = 1: each merge is a skew sum in one of the two words, and all
    merges telescope to [n]!.  Raises NotSeparable.

    >>> qint_exponents(Permutation((4, 1, 3, 2)))  # [2] [4]
    [1, 0, 1]
    """
    deltas = _merged(pi)
    if deltas is False:
        raise NotSeparable(f"{pi} is not separable")
    return _powers(deltas)


def gf_below_recursive(pi: Permutation) -> IntPoly:
    """Rank generating function of the lower interval by the block recursion,
    a product of Gaussian binomials that _merge reads as prod [i]^(g_i), and
    qint_product expands.  Raises NotSeparable if more blocks are left."""
    return qint_product(qint_exponents(pi))


def gf_above_recursive(pi: Permutation) -> IntPoly:
    """Rank generating function of the upper interval by complement duality:
    [pi, w0] read backwards is [id, pi^c], whose product of palindromic [i]
    is its own reverse.  The binomials of pi's merges, each a skew sum in pi
    or in pi^c, telescope to [n]!, so g_i(pi^c) = 1 - g_i(pi) and no
    complement word is built.  Raises NotSeparable."""
    return qint_product([1 - e for e in qint_exponents(pi)])


def interval_sizes(pi: Permutation) -> tuple[int, int]:
    """|[id, pi]|, the lower recursion at q = 1, where [i] = i, in exact
    integers, and |[pi, w0]| = n! over it.  Raises NotSeparable.

    >>> interval_sizes(Permutation((4, 1, 3, 2)))
    (8, 3)
    """
    g = list(enumerate(qint_exponents(pi), 2))
    below = prod(i**e for i, e in g if e > 0) // prod(i**-e for i, e in g if e < 0)
    return below, factorial(pi.size) // below


def gf_below_231(pi: Permutation) -> IntPoly:
    """Product formula for 231-avoiding permutations: c_i is the
    distance from position i to the first later position carrying a
    larger letter (to one past the end when none does), and the value
    is the product of the q-integers [c_i], which qint_product expands
    from the count of each c_i.

    >>> print(gf_below_231(Permutation((1, 4, 2, 3, 6, 5))))
    1 + 2*q + 2*q^2 + q^3
    """
    if not avoids_231(pi.word):
        raise Not231Avoiding(f"{pi} contains 231")
    w = pi.word
    n = len(w)
    counts = [0] * (n + 1)
    for i in range(n):
        j = i + 1
        while j < n and w[j] < w[i]:
            j += 1
        counts[j - i] += 1
    return qint_product(counts[2:])


def gf_above_from_complement(pi: Permutation) -> IntPoly:
    """Upper interval generating function as [n]! over the lower one, by
    long division (IntPoly.exact_div), exact for separable input.  It checks
    the packed division of qint_product, as gf_above_recursive takes the
    same quotient on exponents, not the complement duality."""
    return q_factorial(pi.size).exact_div(gf_below_recursive(pi))


def tree_text(root: Internal | int) -> str:
    """A line per node in preorder, each indented two spaces deeper
    than its parent."""
    lines = []
    stack = [(root, "")]
    while stack:
        node, pad = stack.pop()
        if type(node) is int:
            lines.append(f"{pad}leaf {node}")
        else:
            lines.append(f"{pad}{node.sign}")
            stack += [(node.right, pad + "  "), (node.left, pad + "  ")]
    return "\n".join(lines)


def tree_json(root: Internal | int) -> str:
    """{"leaf": value} or {"sign": ..., "children": [left, right]} as json.dumps(...,
    indent=2) lays it out, by a preorder walk that pushes closing text first."""
    parts = []
    stack = [(root, "")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node, pad = item
        if type(node) is int:
            parts.append(f'{pad}{{\n{pad}  "leaf": {node}\n{pad}}}')
        else:
            parts.append(f'{pad}{{\n{pad}  "sign": "{node.sign}",\n{pad}  "children": [\n')
            stack += [f"\n{pad}  ]\n{pad}}}", (node.right, pad + "    "), ",\n", (node.left, pad + "    ")]
    return "".join(parts)


def tree_dot(root: Internal | int) -> str:
    """DOT rendering with signed internal nodes and letter leaves,
    numbered in preorder; each edge line follows its child's subtree."""
    lines = ["digraph separating_tree {"]
    # (node, its number) or an edge line, pushed before its child
    stack = [(root, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, i = item
        if type(node) is int:
            lines.append(f'  n{i} [label="{node}" shape=plaintext];')
            continue
        label = "Positive Node" if node.sign == POSITIVE else "Negative Node"
        lines.append(f'  n{i} [label="{label}"];')
        j = i + 2 * tree_size(node.left)  # the left subtree has 2 * size - 1 nodes
        stack += [f"  n{i} -> n{j};", (node.right, j), f"  n{i} -> n{i + 1};", (node.left, i + 1)]
    lines.append("}")
    return "\n".join(lines)
