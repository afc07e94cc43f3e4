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
from functools import cached_property

import numpy as np

from .errors import (ActionOrderWrong, CtxMismatch, MathDomainError, NotAutomorphism,
                     NotFixedPointFree, NotPrime)
from .field import FieldCtx, is_prime


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
        self.order = int(np.prod(self.factors))

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
        result = GroupElem(self.spec, 0)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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

    Immutable after construction; `a_exps`, the sigma permutations and the
    inversion permutation are plain arrays shared by every element.  Products
    of indices add exponent rows (`mul_idx`).  The |G| x |G| `mul_table` is
    built only when `algebra.GroupAlgebra` takes its table route; the DFT
    matrices and the slot gather of FG are the algebra's own.
    """

    def __init__(self, abelian: AbelianSpec, q: int, action: ActionSpec):
        self.abelian = abelian
        self.q = q
        self.action = action
        self.p = abelian.p
        self.n = abelian.n
        self.order = q * abelian.order

        facs = np.asarray(abelian.factors, dtype=np.int64)
        num_a = abelian.order
        a_idx = np.arange(num_a, dtype=np.int64)
        self.a_exps = np.stack(np.unravel_index(a_idx, abelian.factors), axis=1)

        def encode(exps):
            """Index of each exponent row along the last axis, reduced mod the factors."""
            return np.ravel_multi_index(tuple(np.moveaxis(exps % facs, -1, 0)),
                                        abelian.factors)

        self._encode_a = encode

        sigma = encode(self.a_exps @ action.matrix.T)
        if np.unique(sigma).size != num_a:
            raise NotAutomorphism("the action matrix is not invertible on A")
        fixed = int(np.count_nonzero(sigma == a_idx))
        pows = [a_idx]
        cur = sigma
        for _ in range(q - 1):
            pows.append(cur)
            cur = sigma[cur]
        if np.count_nonzero(cur != a_idx):
            raise ActionOrderWrong(f"sigma^{q} is not the identity")
        if np.count_nonzero(sigma == a_idx) == num_a:
            raise ActionOrderWrong("sigma is the identity, so its order is not q")
        if fixed != 1:
            raise NotFixedPointFree(f"sigma fixes {fixed} elements of A, expected only e")
        self.sigma_pows = np.stack(pows)  # sigma_pows[t] = permutation of sigma^t

        # (a b^j)^-1 = sigma^j(a^-1) b^-j
        a_inv = encode(-self.a_exps)
        g = np.arange(self.order, dtype=np.int64)
        ga, gj = g // q, g % q
        self.inv_perm = self.sigma_pows[gj, a_inv[ga]] * q + (q - gj) % q

    @cached_property
    def mul_table(self):
        """The |G| x |G| index table of products, one `mul_idx` broadcast."""
        g = np.arange(self.order)
        return self.mul_idx(g[:, None], g)

    def mul_idx(self, g1, g2):
        """Index of g1 g2, for two indices or elementwise over broadcast index arrays,
        summed one invariant factor of A at a time (no temporary of rank x size)."""
        q, facs = self.q, self.abelian.factors
        a1, i = np.divmod(g1, q)
        a2, j = np.divmod(g2, q)
        c = self.sigma_pows[(q - i) % q, a2]  # sigma^-i applied to the A part
        out = (i + j) % q
        for k, m in enumerate(facs):
            e = self.a_exps[c, k]  # c has the broadcast shape
            e += self.a_exps[a1, k]
            e %= m
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
