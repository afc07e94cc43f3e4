"""The semidirect product G = A x| C_q for an abelian p-group A.

The conjugation convention is sigma(a) = b^-1 a b, so a*b = b*sigma(a)
and (a b^i)(c b^j) = (a sigma^-i(c)) b^(i+j).  Elements are indexed by
g = a_index * q + j for g = a b^j, with A enumerated in mixed-radix
order of exponent tuples (last invariant factor fastest).  That is
row-major order over the invariant factors, so FA is a multi-dimensional
cyclic convolution ring on those axes (see `algebra`).  Index products add
exponent tuples directly; there is no |A| x |A| addition table.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property

import numpy as np

from ._memory import refuse_past_room
from .errors import (ActionOrderWrong, CtxMismatch, MathDomainError, NotAutomorphism,
                     NotFixedPointFree, NotPrime)
from .field import FieldCtx, is_prime, power


def _reduce_once(e, m: int):
    """e mod m for e in [0, 2m - 1), a sum of two residues mod m, by one conditional
    subtraction, in place for an array.  Read as unsigned, e - m wraps above e
    exactly when e < m, so the smaller of e and e - m is the residue: a
    subtraction and a minimum, about a quarter of what int64 `%` costs."""
    if not isinstance(e, np.ndarray):
        return e - m if e >= m else e
    u = e.view(np.uint64)
    np.minimum(u, (e - m).view(np.uint64), out=u)
    return e


class AbelianSpec:
    """A = C_{f_1} x ... x C_{f_r} with every factor a power of p."""

    def __init__(self, p: int, factors):
        self.p = p
        self.factors = tuple(int(m) for m in factors)
        if not self.factors:
            raise NotAutomorphism("A must have at least one invariant factor")
        n = 0
        for m in self.factors:
            k = 0
            mm = m
            while mm > 1 and mm % p == 0:  # 0 would divide forever
                mm //= p
                k += 1
            if mm != 1 or k < 1:
                raise NotPrime(f"invariant factor {m} is not a positive power of p = {p}")
            n += k
        self.n = n
        self.order = math.prod(self.factors)

    def __repr__(self):
        return f"AbelianSpec({' x '.join(f'C{m}' for m in self.factors)})"


class ActionSpec:
    """Matrix of the action sigma on A: sigma(a_j) = prod_i a_i^{M[i][j]}."""

    def __init__(self, matrix, abelian: AbelianSpec):
        r = len(abelian.factors)
        try:
            M = np.asarray(matrix, dtype=np.int64)
        except ValueError:  # ragged rows
            raise NotAutomorphism(f"action matrix must be {r}x{r}, got ragged rows") from None
        if M.shape != (r, r):
            raise NotAutomorphism(f"action matrix must be {r}x{r}, got {M.shape}")
        facs = np.asarray(abelian.factors, dtype=np.int64)
        M = M % facs[:, None]  # entry M[i][j] only matters mod the order of a_i
        for i in range(r):
            for j in range(r):
                if (M[i, j] * abelian.factors[j]) % abelian.factors[i] != 0:
                    raise NotAutomorphism(
                        f"sigma(a{j + 1}) has a component of order exceeding |a{j + 1}|")
        self.matrix = M

    def __repr__(self):
        return f"ActionSpec({self.matrix.tolist()})"


class OrbitTable:
    """Orbits of <sigma> on A; the trivial orbit {e} comes first."""

    def __init__(self, orbits, q):
        self.orbits = orbits  # list of (representative, members tuple)
        self.q = q

    @property
    def nontrivial(self):
        return self.orbits[1:]

    @property
    def l(self) -> int:
        return len(self.orbits) - 1

    def __repr__(self):
        return f"OrbitTable({self.l} nontrivial orbits of size {self.q})"


class GroupElem:
    __slots__ = ("spec", "idx")

    def __init__(self, spec: "GroupSpec", idx: int):
        self.spec = spec
        self.idx = int(idx)

    @property
    def a_index(self) -> int:
        return self.idx // self.spec.q

    @property
    def b_exp(self) -> int:
        return self.idx % self.spec.q

    @property
    def a_exps(self) -> tuple[int, ...]:
        return tuple(int(x) for x in self.spec.a_exps[self.a_index])

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        if other.spec is not self.spec:
            raise CtxMismatch("elements of different groups cannot be multiplied")
        return GroupElem(self.spec, self.spec.mul_idx(self.idx, other.idx))

    def inverse(self) -> "GroupElem":
        return GroupElem(self.spec, int(self.spec.inv_perm[self.idx]))

    def __pow__(self, e: int) -> "GroupElem":
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, operator.mul) if e else GroupElem(self.spec, 0)

    def __eq__(self, other):
        return (isinstance(other, GroupElem) and other.spec is self.spec
                and other.idx == self.idx)

    def __hash__(self):
        return hash((id(self.spec), self.idx))

    def __repr__(self):
        parts = []
        for k, e in enumerate(self.a_exps):
            if e == 1:
                parts.append(f"a{k + 1}")
            elif e:
                parts.append(f"a{k + 1}^{e}")
        j = self.b_exp
        if j == 1:
            parts.append("b")
        elif j:
            parts.append(f"b^{j}")
        return "*".join(parts) if parts else "1"


class GroupSpec:
    """Validated G = A x| <b> with all index machinery precomputed.

    Immutable after construction; `a_exps` (column-major, one contiguous column
    per invariant factor), the sigma permutations and the inversion permutation
    are plain arrays shared by every element, all built without a sort or a
    |G|-wide division.  Products of indices add exponent columns (`mul_idx`):
    both summands are already reduced mod their factor, so a sum lies below
    twice the factor and one conditional subtraction reduces it, where int64
    `%` would divide every entry.  The |G| x |G| `mul_table` is
    built only when `algebra.GroupAlgebra` takes its table route; the DFT
    matrices and the slot gather of FG are the algebra's own.  A group whose
    index arrays would not fit in memory is refused first (BudgetExceeded).
    """

    def __init__(self, abelian: AbelianSpec, q: int, action: ActionSpec):
        self.abelian = abelian
        self.q = q
        self.action = action
        self.p = abelian.p
        self.n = abelian.n
        self.order = q * abelian.order

        facs = np.asarray(abelian.factors, dtype=np.int64)
        num_a, r = abelian.order, len(abelian.factors)
        # kept: a_exps, sigma_pows and inv, r + 2q arrays of |A| int64; the peak is at
        # building a_inv (q + 3r of them) or filling inv (2q + r + 1), plus 4 and 8 KB
        refuse_past_room(8 * num_a * (max(q + 3 * r, 2 * q + r + 1) + 4) + 8192,
                         f"the index arrays of |G| = {self.order}")
        a_idx = np.arange(num_a, dtype=np.int64)
        # column-major: each invariant factor's exponents are one contiguous column
        self.a_exps = np.array(np.unravel_index(a_idx, abelian.factors)).T

        def encode(exps):
            """Index of each exponent row along the last axis, reduced mod the factors."""
            return np.ravel_multi_index(tuple(np.moveaxis(exps % facs, -1, 0)),
                                        abelian.factors)

        self._encode_a = encode

        sigma = encode(self.a_exps @ action.matrix.T)
        hit = np.zeros(num_a, dtype=bool)
        hit[sigma] = True
        if not hit.all():
            raise NotAutomorphism("the action matrix is not invertible on A")
        fixed = int(np.count_nonzero(sigma == a_idx))
        self.sigma_pows = np.empty((q, num_a), dtype=np.int64)  # [t] = permutation of sigma^t
        self.sigma_pows[0] = a_idx
        for t in range(1, q):
            sigma.take(self.sigma_pows[t - 1], out=self.sigma_pows[t])
        if np.count_nonzero(sigma[self.sigma_pows[-1]] != a_idx):
            raise ActionOrderWrong(f"sigma^{q} is not the identity")
        if fixed == num_a:
            raise ActionOrderWrong("sigma is the identity, so its order is not q")
        if fixed != 1:
            raise NotFixedPointFree(f"sigma fixes {fixed} elements of A, expected only e")

        # (a b^j)^-1 = sigma^j(a^-1) b^-j, filled on the (|A|, q) grid one j at a time
        a_inv = encode(-self.a_exps)
        inv = np.empty((num_a, q), dtype=np.int64)
        for j in range(q):
            self.sigma_pows[j].take(a_inv, out=inv[:, j])
            inv[:, j] *= q
            inv[:, j] += -j % q
        self.inv_perm = inv.ravel()

    @cached_property
    def mul_table(self):
        """The |G| x |G| index table of products, one `mul_idx` broadcast."""
        g = np.arange(self.order)
        return self.mul_idx(g[:, None], g)

    def mul_idx(self, g1, g2):
        """Index of g1 g2, for two indices or elementwise over broadcast index arrays,
        summed one invariant factor of A at a time (no temporary of rank x size).

        (a b^i)(c b^j) = a sigma^-i(c) b^(i+j): sigma^-i(c) is one flat gather from
        `sigma_pows` (row -i wraps to row q - i), each factor's exponent one gather
        from its column of `a_exps`, and i + j and every exponent sum, a sum of two
        reduced residues, are reduced by one conditional subtraction."""
        q, facs = self.q, self.abelian.factors
        a1, a2 = g1 // q, g2 // q
        i, j = g1 - a1 * q, g2 - a2 * q
        c = self.sigma_pows.take(a2 - i * self.abelian.order)
        out = _reduce_once(i + j, q)
        del i, a2, j  # each as long as G when one side is all of G
        for k, m in enumerate(facs):
            col = self.a_exps[:, k]
            e = col.take(c)
            e += col.take(a1)
            e = _reduce_once(e, m)
            e *= q * math.prod(facs[k + 1:])
            out += e
        return out

    def elem(self, a_exps=None, b_exp: int = 0) -> GroupElem:
        if a_exps is None:
            a = 0
        else:
            a = int(self._encode_a(np.asarray(a_exps, dtype=np.int64)[None, :])[0])
        return GroupElem(self, a * self.q + b_exp % self.q)

    def identity(self) -> GroupElem:
        return GroupElem(self, 0)

    def b(self, j: int = 1) -> GroupElem:
        return GroupElem(self, j % self.q)

    def generator(self, k: int) -> GroupElem:
        """The k-th (1-based) invariant-factor generator of A."""
        exps = [0] * len(self.abelian.factors)
        exps[k - 1] = 1
        return self.elem(exps)

    def elements(self):
        return (GroupElem(self, i) for i in range(self.order))

    def __repr__(self):
        return f"GroupSpec({self.abelian!r} x| C{self.q})"


def make_group(field: FieldCtx, q: int, factors, action) -> GroupSpec:
    """Validated A x| C_q; rejects actions of order != q or with fixed points."""
    if not is_prime(q) or q == 2:
        raise NotPrime(f"q = {q} must be an odd prime")
    if q == field.p:
        raise NotPrime(f"q = {q} must differ from the characteristic p = {field.p}")
    abelian = AbelianSpec(field.p, factors)
    return GroupSpec(abelian, q, ActionSpec(action, abelian))


def orbits(spec: GroupSpec) -> OrbitTable:
    """Partition of A under <sigma>: trivial orbit first, the rest of size q.

    Each orbit is listed from its least element, with its distinct members in
    the order sigma walks them (column rep of sigma_pows), so {e} is (0,)."""
    reps = np.unique(spec.sigma_pows.min(axis=0)).tolist()
    table = [(r, tuple(dict.fromkeys(walk)))
             for r, walk in zip(reps, spec.sigma_pows[:, reps].T.tolist())]
    if table[0] != (0, (0,)) or any(len(m) != spec.q for _, m in table[1:]):
        raise MathDomainError("sigma-orbits are not {e} plus orbits of size q")
    return OrbitTable(table, spec.q)
