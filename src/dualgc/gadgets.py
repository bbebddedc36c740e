"""Circuit builder and data-oblivious gadget library.

All gadgets operate on unsigned big-endian buses (lists of wire ids, MSB
first) and contain no data-dependent branching: selections are realized with
mux gates so the gate sequence is a fixed function of the shape parameters.

The builder constant-folds gates touching known-constant wires, which keeps
circuits that compare against public constants (capacities, weights) small
without changing semantics, and ``Builder.finish`` drops every gate whose
output reaches no output wire.
"""

from __future__ import annotations

from .circuits import AND, NOT, OR, XOR, Circuit, int_to_bits


class Builder:
    """Allocates wires and emits gates with light constant folding."""

    def __init__(self):
        self.gates = []
        self.wire_count = 0
        self.input_groups: list[tuple[int, ...]] = []
        self._const_wires = [None, None]
        self._const_of = {}
        self._not_of = {}

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

    def is_const(self, w: int) -> bool:
        return w in self._const_of

    def _emit(self, kind: int, a: int, b: int) -> int:
        out = self.new_wire()
        self.gates.append((kind, a, b, out))
        return out

    def AND(self, a: int, b: int) -> int:
        ca, cb = self._const_of.get(a), self._const_of.get(b)
        if ca == 0 or cb == 0:
            return self.const(0)
        if ca == 1:
            return b
        if cb == 1:
            return a
        if a == b:
            return a
        return self._emit(AND, a, b)

    def OR(self, a: int, b: int) -> int:
        ca, cb = self._const_of.get(a), self._const_of.get(b)
        if ca == 1 or cb == 1:
            return self.const(1)
        if ca == 0:
            return b
        if cb == 0:
            return a
        if a == b:
            return a
        return self._emit(OR, a, b)

    def XOR(self, a: int, b: int) -> int:
        ca, cb = self._const_of.get(a), self._const_of.get(b)
        if a == b:
            return self.const(0)
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


def add(bld: Builder, a, b) -> list[int]:
    """Full sum, width max(len(a), len(b)) + 1."""
    w = max(len(a), len(b))
    a = zext(bld, a, w)
    b = zext(bld, b, w)
    carry = None
    out = []
    for i in range(w - 1, -1, -1):
        ai, bi = a[i], b[i]
        if carry is None:
            out.append(bld.XOR(ai, bi))
            carry = bld.AND(ai, bi)
        elif bld.is_const(ai) or bld.is_const(bi):
            # Folds to fewer gates than the 1-AND form below.
            axb = bld.XOR(ai, bi)
            out.append(bld.XOR(axb, carry))
            carry = bld.OR(bld.AND(ai, bi), bld.AND(axb, carry))
        else:
            # One AND per bit (Kolesnikov-Sadeghi-Schneider, CANS 2009):
            # carry = c ^ ((a ^ c) & (b ^ c)).
            axc = bld.XOR(ai, carry)
            out.append(bld.XOR(axc, bi))
            carry = bld.XOR(carry, bld.AND(axc, bld.XOR(bi, carry)))
    out.append(carry)
    out.reverse()
    return out


def sub(bld: Builder, a, b) -> tuple[list[int], int]:
    """(a - b) mod 2^w and the borrow-out wire (1 iff a < b)."""
    w = max(len(a), len(b))
    a = zext(bld, a, w)
    b = zext(bld, b, w)
    borrow = None
    out = []
    for i in range(w - 1, -1, -1):
        ai, bi = a[i], b[i]
        if borrow is None:
            out.append(bld.XOR(ai, bi))
            borrow = bld.AND(bld.NOT(ai), bi)
        elif bld.is_const(ai) or bld.is_const(bi):
            axb = bld.XOR(ai, bi)
            out.append(bld.XOR(axb, borrow))
            borrow = bld.OR(bld.AND(bld.NOT(ai), bi),
                            bld.AND(bld.NOT(axb), borrow))
        else:
            # borrow = c ^ (~(a ^ c) & (b ^ c)), one AND per bit.
            axc = bld.XOR(ai, borrow)
            out.append(bld.XOR(axc, bi))
            borrow = bld.XOR(borrow, bld.AND(bld.NOT(axc), bld.XOR(bi, borrow)))
    out.reverse()
    return out, borrow


def ge(bld: Builder, a, b) -> int:
    """1 iff a >= b (unsigned)."""
    _, borrow = sub(bld, a, b)
    return bld.NOT(borrow)


def gt(bld: Builder, a, b) -> int:
    """1 iff a > b, i.e. NOT (b >= a)."""
    _, borrow = sub(bld, b, a)
    return borrow


def eq(bld: Builder, a, b) -> int:
    w = max(len(a), len(b))
    a = zext(bld, a, w)
    b = zext(bld, b, w)
    diff = None
    for ai, bi in zip(a, b):
        x = bld.XOR(ai, bi)
        diff = x if diff is None else bld.OR(diff, x)
    return bld.NOT(diff)


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


def divide(bld: Builder, a, d) -> list[int]:
    """Restoring long division: quotient of len(a) bits.

    The divisor may be narrower than the dividend: the remainder stays
    below d, so a register of len(d) + 1 bits holds it. Division by zero
    yields all ones (every trial subtraction succeeds).
    """
    wd = len(d)
    rem = [bld.const(0)] * (wd + 1)
    d_wide = zext(bld, d, wd + 1)
    quotient = []
    for i in range(len(a)):
        rem = rem[1:] + [a[i]]
        diff, borrow = sub(bld, rem, d_wide)
        take = bld.NOT(borrow)
        quotient.append(take)
        rem = mux(bld, take, rem, diff)
    return quotient


def isqrt(bld: Builder, a) -> list[int]:
    """Bit-serial integer square root, one result bit per iteration pair.

    Width ceil(len(a)/2); each of the len(a)/2 iterations shifts in two
    operand bits, trial-subtracts (res << 2) | 1, and keeps the difference
    through a mux when it does not borrow.
    """
    if len(a) % 2:
        a = [bld.const(0)] + list(a)
    steps = len(a) // 2
    res: list[int] = []
    rem: list[int] = []
    for i in range(steps):
        rem = rem + a[2 * i:2 * i + 2]
        trial = res + [bld.const(0), bld.const(1)]
        w = max(len(rem), len(trial))
        rem = zext(bld, rem, w)
        diff, borrow = sub(bld, rem, zext(bld, trial, w))
        take = bld.NOT(borrow)
        rem = mux(bld, take, rem, diff)
        res = res + [take]
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
