"""Circuit builder and data-oblivious gadget library.

All gadgets operate on unsigned big-endian buses (lists of wire ids, MSB
first) and contain no data-dependent branching: selections are realized with
mux gates so the gate sequence is a fixed function of the shape parameters.

The builder constant-folds gates touching known-constant wires, which keeps
circuits that compare against public constants (capacities, weights) small
without changing semantics.
"""

from __future__ import annotations

from .circuits import AND, NOT, OR, XOR, Circuit, int_to_bits
from .errors import GadgetWidthError

GADGET_KINDS = (
    "adder", "multiplier", "comparator", "mux",
    "subtractor", "isqrt", "divider", "swap",
)


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
        return Circuit(
            self.wire_count,
            self.gates,
            tuple(self.input_groups),
            tuple(tuple(g) for g in output_groups),
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


def add_mod(bld: Builder, a, b, width: int) -> list[int]:
    s = add(bld, a, b)
    return s[len(s) - width:]


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

    Division by zero yields all ones (every trial subtraction succeeds).
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


def bitonic_sort(bld: Builder, records: list[list[int]], rank_before) -> list[list[int]]:
    """Sort equal-width records in place with a Batcher bitonic network.

    ``rank_before(bld, x, y)`` must return a wire that is 1 iff record x
    belongs strictly before record y under a total order (callers break ties
    with a distinct per-record index). Record count must be a power of two.
    Position 0 receives the first-ranked record.
    """
    n = len(records)
    if n & (n - 1):
        raise ValueError("bitonic_sort needs a power-of-two record count")
    recs = [list(r) for r in records]
    k = 2
    while k <= n:
        j = k >> 1
        while j >= 1:
            for i in range(n):
                l = i ^ j
                if l > i:
                    if (i & k) == 0:
                        flag = rank_before(bld, recs[l], recs[i])
                    else:
                        flag = rank_before(bld, recs[i], recs[l])
                    recs[i], recs[l] = cond_swap(bld, flag, recs[i], recs[l])
            j >>= 1
        k <<= 1
    return recs


def build_sorting_network(n: int, key_width: int, payload_width: int = 0) -> Circuit:
    """Stable descending sort of n records by key, payloads carried along.

    Ties break toward the earlier input position: internally each record is
    extended with its original index and the comparison key is
    (key descending, index ascending), which makes the network's order total
    and the result identical to a stable descending comparison sort.
    """
    if n < 1:
        raise GadgetWidthError("sorting network needs n >= 1")
    if key_width < 1 or payload_width < 0:
        raise GadgetWidthError("bad key or payload width")
    bld = Builder()
    groups = [bld.inputs(key_width + payload_width) for _ in range(n)]
    if n == 1:
        return bld.finish([tuple(groups[0])])
    size = 1 << (n - 1).bit_length()
    idx_w = max(1, (size - 1).bit_length())
    records = []
    for i, bits in enumerate(groups):
        records.append(bits[:key_width] + const_bus(bld, i, idx_w) + bits[key_width:])
    for i in range(n, size):
        records.append(const_bus(bld, 0, key_width) + const_bus(bld, i, idx_w)
                       + const_bus(bld, 0, payload_width))

    def rank_before(b, x, y):
        kx, ix = x[:key_width], x[key_width:key_width + idx_w]
        ky, iy = y[:key_width], y[key_width:key_width + idx_w]
        key_gt = gt(b, kx, ky)
        key_eq = eq(b, kx, ky)
        idx_lt = gt(b, iy, ix)
        return b.OR(key_gt, b.AND(key_eq, idx_lt))

    ranked = bitonic_sort(bld, records, rank_before)
    outputs = [tuple(r[:key_width] + r[key_width + idx_w:]) for r in ranked[:n]]
    return bld.finish(outputs)


def build_gadget(kind: str, w: int = 16) -> Circuit:
    """Standalone circuit fragment for one named gadget over w-bit operands.

    Output widths: adder and subtractor return w bits (mod 2^w), multiplier
    returns the full 2w-bit product, comparator returns a single bit
    (1 iff first >= second), divider returns the w-bit quotient, isqrt
    returns ceil(w/2) bits, mux returns w bits, swap returns two w-bit
    groups. Select-bit convention for mux/swap: 0 keeps the operand order.
    """
    if not isinstance(w, int) or not 1 <= w <= 64:
        raise GadgetWidthError(f"unsupported gadget width {w!r}")
    if kind not in GADGET_KINDS:
        raise ValueError(f"unknown gadget kind {kind!r}")
    bld = Builder()
    if kind == "adder":
        a, b = bld.inputs(w), bld.inputs(w)
        return bld.finish([add_mod(bld, a, b, w)])
    if kind == "subtractor":
        a, b = bld.inputs(w), bld.inputs(w)
        diff, _ = sub(bld, a, b)
        return bld.finish([diff])
    if kind == "multiplier":
        a, b = bld.inputs(w), bld.inputs(w)
        return bld.finish([mul(bld, a, b)])
    if kind == "comparator":
        a, b = bld.inputs(w), bld.inputs(w)
        return bld.finish([[ge(bld, a, b)]])
    if kind == "mux":
        sel, a, b = bld.inputs(1), bld.inputs(w), bld.inputs(w)
        return bld.finish([mux(bld, sel[0], a, b)])
    if kind == "swap":
        sel, a, b = bld.inputs(1), bld.inputs(w), bld.inputs(w)
        x, y = cond_swap(bld, sel[0], a, b)
        return bld.finish([x, y])
    if kind == "isqrt":
        a = bld.inputs(w)
        return bld.finish([isqrt(bld, a)])
    a, d = bld.inputs(w), bld.inputs(w)
    return bld.finish([divide(bld, a, d)])
