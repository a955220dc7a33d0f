"""Fox derivatives on the group algebra of a free group.

A Fox derivative is a linear self-map d of A = Z[F] with
``d(xy) = d(x) + x d(y)`` for group elements x, y.  On a free group it is
freely determined by its images on the generators, which is how
:class:`FoxDerivative` stores it; the values on inverses are forced by
``d(1) = 0``.

From a derivative we build the companion map
``x -> sum_a (x/a) a^-1 x a`` (where ``d(x) = sum_a (x/a) a``), which
kills commutators and therefore descends to conjugacy-class combinations.
Multiplying the companion values of several derivatives and projecting
back to classes yields multilinear brackets that are weak derivations in
every slot; those are the algebraic side of the engine's dual-route
bracket computations.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from .ring import GroupRingElement, LoopCombination, project_to_classes
from .words import ConjClass, Word, _token_number, _word


class FoxDerivative:
    """A Fox derivative, stored by its images on the free generators."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[GroupRingElement]):
        self.images = tuple(images)

    @property
    def rank(self) -> int:
        return len(self.images)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FoxDerivative) and self.images == other.images

    def _image(self, g: int) -> GroupRingElement:
        if g >= len(self.images):
            raise ValueError(f"no image configured for generator g{g + 1}")
        return self.images[g]

    def apply_word(self, w: Word) -> GroupRingElement:
        """d(l1 ... ln) = sum_i (l1 ... l_{i-1}) d(l_i), with d(g^-1) = -g^-1 d(g)."""
        return GroupRingElement.collect(self._word_terms(w))

    def _word_terms(self, w: Word) -> Iterator[tuple[Word, int]]:
        """The terms of d(w), before merging; the prefixes of the reduced
        word ``w`` are reduced, so they are taken as they stand."""
        codes = w.codes
        for i, code in enumerate(codes):
            img = self._image(code >> 1)
            if code & 1:
                left = _word(codes[: i + 1])
                for u, c in img:
                    yield left * u, -c
            else:
                prefix = _word(codes[:i])
                for u, c in img:
                    yield prefix * u, c

    def delta_word(self, w: Word) -> GroupRingElement:
        """The companion map: expand d(w) = sum (w/a) a and return sum (w/a) a^-1 w a."""
        return GroupRingElement.collect((~a * w * a, c) for a, c in self.apply_word(w))

    def delta(self, x: "GroupRingElement | Word | ConjClass | LoopCombination") -> GroupRingElement:
        """Linear extension of :meth:`delta_word`.

        Conjugacy-class inputs are lifted through their canonical
        representative; the choice is immaterial because the companion map
        annihilates [A, A].
        """
        if isinstance(x, Word):
            return self.delta_word(x)
        if isinstance(x, ConjClass):
            return self.delta_word(x.representative())
        return GroupRingElement.collect(
            (u, c * b)
            for key, c in x.terms.items()
            for u, b in self.delta_word(key.representative() if isinstance(key, ConjClass) else key)
        )

    def shifted(self, g: Word) -> "FoxDerivative":
        """The equivalent derivative ``x -> d(x) g`` (images right-multiplied by g)."""
        return FoxDerivative(tuple(img.right_mul(g) for img in self.images))

    # serialization: generator token -> coefficient/word pairs
    def to_json_dict(self) -> dict:
        return {f"g{i + 1}": img.to_pairs() for i, img in enumerate(self.images)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FoxDerivative":
        rank = len(data)
        images = [GroupRingElement.zero()] * rank
        for token, pairs in data.items():
            number = _token_number(token)
            if number is None or number < 1:
                raise ValueError(f"bad generator token {token!r}")
            g = number - 1
            if g >= rank:
                raise ValueError(f"generator token {token!r} exceeds rank {rank}")
            images[g] = GroupRingElement.from_pairs(pairs)
        return cls(images)

    def __repr__(self) -> str:
        parts = [f"g{i + 1} -> {img.to_pairs()}" for i, img in enumerate(self.images)]
        return "FoxDerivative(" + "; ".join(parts) + ")"


def algebraic_brace(
    derivatives: Sequence[FoxDerivative],
    args: Sequence["ConjClass | LoopCombination"],
) -> LoopCombination:
    """The m-linear bracket p(delta_1(x_1) ... delta_m(x_m)) on class combinations.

    With all m derivatives equal this bracket is cyclically symmetric, and it
    is unchanged when any derivative is replaced by an equivalent one
    (``d -> d.shifted(g)``).
    """
    if len(derivatives) != len(args):
        raise ValueError("number of derivatives must match number of arguments")
    if not derivatives:
        raise ValueError("brace order m must be at least 1")
    product = GroupRingElement.one()
    for d, x in zip(derivatives, args):
        product = product * d.delta(x)
        if product.is_zero():
            break
    return project_to_classes(product)


def sandwich_derivation(d: FoxDerivative, filling: GroupRingElement) -> Callable[[Word], GroupRingElement]:
    """The derivation x -> sum_a (x/a) a F a^-1 x built from d and a filling F.

    For every F this map satisfies the Leibniz rule on group elements; with F
    a product of companion values it realizes the algebraic brackets as weak
    derivations in their last slot.
    """

    def derivation(w: Word) -> GroupRingElement:
        return GroupRingElement.collect(
            (u, c * b)
            for a, c in d.apply_word(w)
            for u, b in GroupRingElement.from_word(a) * filling * GroupRingElement.from_word(~a * w)
        )

    return derivation
