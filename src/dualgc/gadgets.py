"""Circuit builder and data-oblivious gadget library.

All gadgets operate on unsigned big-endian buses (lists of wire ids, MSB
first) and contain no data-dependent branching: selections are realized with
mux gates so the gate sequence is a fixed function of the shape parameters.

Add and subtract share one ripple loop, because a borrow is a carry with
``a`` complemented in the carry terms, and the loop has one carry rule,
which costs at most one AND or OR per bit. Divide and square root share
one non-restoring step, an add or subtract on a two's-complement
remainder through that loop's carry-in, so each step costs one AND per
bit. Division by zero is not guarded; ``divide`` says what it gives.

The builder constant-folds gates touching known-constant wires, which keeps
circuits that compare against public constants (capacities, weights) small
without changing semantics. It also hashes structure: an AND or OR gate
whose kind and operands match an earlier gate's reuses that gate's wire
(CBMC-GC, Franz et al., CC 2014). ``Builder.finish`` drops every gate whose
output reaches no output wire.
"""

from __future__ import annotations

from .circuits import AND, NOT, OR, XOR, Circuit, int_to_bits


class Builder:
    """Allocates wires and emits gates with light constant folding and
    structural hashing."""

    def __init__(self):
        self.gates = []
        self.wire_count = 0
        self.input_groups: list[tuple[int, ...]] = []
        self._const_wires = [None, None]
        self._const_of = {}
        self._not_of = {}
        self._hashed = {}

    def new_wire(self) -> int:
        w = self.wire_count
        self.wire_count += 1
        return w

    def inputs(self, nbits: int) -> list[int]:
        group = [self.new_wire() for _ in range(nbits)]
        self.input_groups.append(tuple(group))
        return group

    def const(self, bit: int) -> int:
        if self._const_wires[bit] is None:
            if self.wire_count < 1:
                raise RuntimeError(
                    "declare an input before requesting constants")
            if bit == 0:
                out = self._emit(XOR, 0, 0)  # x XOR x == 0
            else:
                out = self._emit(NOT, self.const(0), -1)
            self._const_wires[bit] = out
            self._const_of[out] = bit
        return self._const_wires[bit]

    def constant(self, w: int) -> int | None:
        """The constant ``w`` carries, or None if it depends on an input."""
        return self._const_of.get(w)

    def _emit(self, kind: int, a: int, b: int) -> int:
        out = self.new_wire()
        self.gates.append((kind, a, b, out))
        return out

    def _fold(self, kind: int, absorbing: int, a: int, b: int) -> int:
        """AND (absorbing constant 0) or OR (1): the absorbing constant
        wins, the other constant and a repeated operand pass through, and
        a gate already emitted on the same operands is reused."""
        ca, cb = self._const_of.get(a), self._const_of.get(b)
        if absorbing in (ca, cb):
            return self.const(absorbing)
        if ca is not None:
            return b
        if cb is not None or a == b:
            return a
        # Only the garbled gates are hashed: XOR and NOT are free, and
        # hashing them too cost more build time than the few AND/OR gates
        # it saved. An int key, unlike a tuple, is never scanned by the
        # garbage collector.
        key = (a << 32 | b if a < b else b << 32 | a) << 1 | kind
        out = self._hashed.get(key)
        if out is None:
            out = self._hashed[key] = self._emit(kind, a, b)
        return out

    def AND(self, a: int, b: int) -> int:
        return self._fold(AND, 0, a, b)

    def OR(self, a: int, b: int) -> int:
        return self._fold(OR, 1, a, b)

    def XOR(self, a: int, b: int) -> int:
        ca, cb = self._const_of.get(a), self._const_of.get(b)
        if a == b:
            return self.const(0)
        if self._not_of.get(a) == b:
            return self.const(1)
        if ca == 0:
            return b
        if cb == 0:
            return a
        if ca == 1:
            return self.NOT(b)
        if cb == 1:
            return self.NOT(a)
        return self._emit(XOR, a, b)

    def NOT(self, a: int) -> int:
        ca = self._const_of.get(a)
        if ca is not None:
            return self.const(1 - ca)
        inv = self._not_of.get(a)
        if inv is not None:
            return inv
        out = self._emit(NOT, a, -1)
        self._not_of[a] = out
        self._not_of[out] = a
        return out

    def finish(self, output_groups) -> Circuit:
        """The circuit of the gates whose outputs reach an output wire.

        Wires are renumbered: the input wires first, in declaration order,
        then the kept gates' outputs in emission (topological) order.
        """
        live = bytearray(self.wire_count)
        for group in output_groups:
            for w in group:
                live[w] = 1
        kept = []
        for gate in reversed(self.gates):
            kind, a, b, out = gate
            if live[out]:
                kept.append(gate)
                live[a] = 1
                if kind != NOT:
                    live[b] = 1
        renumber = [-1] * self.wire_count
        n = 0
        for group in self.input_groups:
            for w in group:
                renumber[w] = n
                n += 1
        gates = []
        for kind, a, b, out in reversed(kept):
            renumber[out] = n
            gates.append((kind, renumber[a],
                          -1 if kind == NOT else renumber[b], n))
            n += 1
        return Circuit(
            n,
            gates,
            tuple(tuple(renumber[w] for w in g) for g in self.input_groups),
            tuple(tuple(renumber[w] for w in g) for g in output_groups),
        )


def const_bus(bld: Builder, value: int, width: int) -> list[int]:
    return [bld.const(b) for b in int_to_bits(value, width)]


def zext(bld: Builder, bus, width: int) -> list[int]:
    if len(bus) > width:
        raise ValueError("cannot zero-extend to a narrower bus")
    return [bld.const(0)] * (width - len(bus)) + list(bus)


def _ripple(bld: Builder, a, b, flip, carry=None) -> tuple[list[int], int]:
    """The sum bits of a + b + carry (MSB first) and the carry out, where
    the carry terms read flip(a) for a: flip = NOT turns the carry into the
    borrow of a - b, whose difference bits are the same XORs. No carry wire
    means a carry-in of 0.

    Each carry out is the majority of flip(a), b and the carry in. If one
    of the three is a constant, that is one AND (constant 0) or one OR
    (constant 1) of the other two; otherwise it is c ^ ((a ^ c) & (b ^ c)),
    one AND (Kolesnikov-Sadeghi-Schneider, CANS 2009)."""
    w = max(len(a), len(b))
    a = zext(bld, a, w)
    b = zext(bld, b, w)
    if carry is None:
        carry = bld.const(0)
    out = []
    for i in range(w - 1, -1, -1):
        ai, bi = a[i], b[i]
        axc = bld.XOR(ai, carry)
        out.append(bld.XOR(axc, bi))
        fa = flip(ai)
        for term, x, y in ((fa, bi, carry), (bi, carry, fa),
                           (carry, fa, bi)):
            k = bld.constant(term)
            if k is not None:
                carry = bld.OR(x, y) if k else bld.AND(x, y)
                break
        else:
            carry = bld.XOR(carry, bld.AND(flip(axc), bld.XOR(bi, carry)))
    out.reverse()
    return out, carry


def add(bld: Builder, a, b) -> list[int]:
    """Full sum, width max(len(a), len(b)) + 1."""
    total, carry = _ripple(bld, a, b, lambda w: w)
    return [carry] + total


def sub(bld: Builder, a, b) -> tuple[list[int], int]:
    """(a - b) mod 2^w and the borrow-out wire (1 iff a < b)."""
    return _ripple(bld, a, b, bld.NOT)


def ge(bld: Builder, a, b) -> int:
    """1 iff a >= b (unsigned)."""
    _, borrow = sub(bld, a, b)
    return bld.NOT(borrow)


def gt(bld: Builder, a, b) -> int:
    """1 iff a > b, i.e. NOT (b >= a)."""
    _, borrow = sub(bld, b, a)
    return borrow


def or_reduce(bld: Builder, bus) -> int:
    acc = bus[0]
    for w in bus[1:]:
        acc = bld.OR(acc, w)
    return acc


def mux(bld: Builder, sel: int, when0, when1) -> list[int]:
    """Per-bit: out = when0 XOR (sel AND (when0 XOR when1))."""
    w = max(len(when0), len(when1))
    when0 = zext(bld, when0, w)
    when1 = zext(bld, when1, w)
    return [bld.XOR(x, bld.AND(sel, bld.XOR(x, y)))
            for x, y in zip(when0, when1)]


def cond_swap(bld: Builder, sel: int, a, b) -> tuple[list[int], list[int]]:
    """sel == 0 keeps (a, b); sel == 1 yields (b, a)."""
    if len(a) != len(b):
        raise ValueError("cond_swap needs equal-width buses")
    t = [bld.AND(sel, bld.XOR(x, y)) for x, y in zip(a, b)]
    return ([bld.XOR(x, ti) for x, ti in zip(a, t)],
            [bld.XOR(y, ti) for y, ti in zip(b, t)])


def mul(bld: Builder, a, b) -> list[int]:
    """Full product, width len(a) + len(b), by shift-and-add."""
    wa, wb = len(a), len(b)
    acc = None
    for k in range(wb):
        bit = b[wb - 1 - k]
        pp = [bld.AND(ai, bit) for ai in a] + [bld.const(0)] * k
        acc = pp if acc is None else add(bld, acc, pp)
    return zext(bld, acc, wa + wb)


def _nonrestoring(bld: Builder, rem, y, take) -> tuple[int, list[int]]:
    """One non-restoring step on the two's-complement remainder ``rem``:
    rem - y if take (the last remainder was non-negative), else rem + y, as
    one addition of y XOR take with carry-in take. Returns the next take
    (the new remainder is non-negative) and the new remainder, mod
    2^len(rem)."""
    ops = [bld.XOR(take, bit) for bit in zext(bld, y, len(rem))]
    total, _ = _ripple(bld, rem, ops, lambda w: w, take)
    return bld.NOT(total[0]), total


def divide(bld: Builder, a, d) -> list[int]:
    """Non-restoring long division: quotient of len(a) bits.

    The partial remainder stays in [-d, d), so a two's-complement register
    of len(d) + 1 bits holds it, and each quotient bit (the remainder is
    non-negative) is the restoring division's. A zero divisor is not
    guarded: every step adds 0, so the register only shifts ``a`` in, and
    each quotient bit is the complement of the bit of ``a`` len(d) places
    before it. That gives (2^len(a) - 1) XOR (a >> len(d)), all ones for
    a = 0.
    """
    rem = [bld.const(0)] * (len(d) + 1)
    take = bld.const(1)
    quotient = []
    for bit in a:
        take, rem = _nonrestoring(bld, rem[1:] + [bit], d, take)
        quotient.append(take)
    return quotient


def isqrt(bld: Builder, a) -> list[int]:
    """Bit-serial non-restoring integer square root.

    Width ceil(len(a)/2); each of the len(a)/2 iterations shifts in two
    operand bits and subtracts (res << 2) | 1 from a non-negative
    remainder, or adds (res << 2) | 3 to a negative one. With k result
    bits so far the new remainder lies in [-(4 res + 1), 4 res + 2], so a
    two's-complement register of k + 3 bits holds it.
    """
    if len(a) % 2:
        a = [bld.const(0)] + list(a)
    res: list[int] = []
    rem = [bld.const(0)] * 2
    take = bld.const(1)
    for i in range(0, len(a), 2):
        take, rem = _nonrestoring(bld, rem[1:] + a[i:i + 2],
                                  res + [bld.NOT(take), bld.const(1)], take)
        res.append(take)
    return res


def odd_even_merge_sort(bld: Builder, records: list[list[int]],
                        rank_before) -> list[list[int]]:
    """Sort equal-width records with Batcher's odd-even merge network.

    ``rank_before(bld, x, y)`` must return a wire that is 1 iff record x
    belongs strictly before record y under a total order (callers break ties
    with a distinct per-record index). Every comparator puts the
    first-ranked of its two records at the lower position, so position 0
    receives the first-ranked record. Any record count works: the network
    is the one for the next power of two without the comparators that reach
    past the last record, which would only compare against records ranked
    after every real one (Knuth, TAOCP vol. 3, section 5.3.4).
    """
    n = len(records)
    recs = [list(r) for r in records]
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(j, min(j + k, n - k)):
                    if i // (2 * p) == (i + k) // (2 * p):
                        flag = rank_before(bld, recs[i + k], recs[i])
                        recs[i], recs[i + k] = cond_swap(
                            bld, flag, recs[i], recs[i + k])
            k >>= 1
        p <<= 1
    return recs
