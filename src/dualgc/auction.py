"""Truthful cloud resource auction: plaintext reference and Boolean circuit.

Each bidder requests per-VM-type quantities with per-unit bids. Bidders are
ranked by declared value density S_j^2 / T_j, where S_j is the total declared
value and T_j the weighted resource load; allocation is greedy under the
cloud's per-type capacities, and each winner pays according to the first
bidder it displaced (critical-bidder pricing), which makes truthful bidding
a dominant strategy. Payments use a fixed-point square root with
``fraction_bits`` binary fraction digits.

``oracle_run`` computes the outcome in plaintext; ``build_auction_circuit``
compiles the identical computation to AND/OR/XOR/NOT gates so it can be
garbled. The two agree bit-exactly on every encodable input: both clamp
quantities and bids to the declared maxima, and both order bidders by the
same total rank (load > 0 first, then value density descending, then bidder
index ascending).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .circuits import Circuit, bits_to_int, int_to_bits
from .errors import InputShapeError, WidthError
from .gadgets import (Builder, add, const_bus, divide, eq, ge, gt, isqrt,
                      mul, mux, odd_even_merge_sort, or_reduce, zext)

MAX_CROSS_BITS = 64


@dataclass(frozen=True)
class AuctionConfig:
    """Public auction parameters agreed before the protocol starts."""

    vm_types: int
    capacities: tuple[int, ...]
    weights: tuple[int, ...]
    width: int = 16
    fraction_bits: int = 8
    max_quantity: int = 3
    max_bid: int = 100

    def __post_init__(self):
        object.__setattr__(self, "capacities", tuple(self.capacities))
        object.__setattr__(self, "weights", tuple(self.weights))
        if self.vm_types < 1:
            raise ValueError("need at least one VM type")
        if len(self.capacities) != self.vm_types or len(self.weights) != self.vm_types:
            raise ValueError("capacities and weights must list one entry per VM type")
        if any(c < 0 for c in self.capacities):
            raise ValueError("capacities must be non-negative")
        if any(w < 1 for w in self.weights):
            raise ValueError("resource weights must be positive")
        if not 1 <= self.width <= 64:
            raise WidthError("value width must be between 1 and 64 bits")
        if any(c.bit_length() > self.width for c in self.capacities):
            raise WidthError("capacities must fit the configured bit width")
        if self.fraction_bits < 0:
            raise ValueError("fraction_bits must be non-negative")
        if self.max_quantity < 1 or self.max_bid < 1:
            raise ValueError("max_quantity and max_bid must be positive")
        if 2 * self.value_width + self.load_width > MAX_CROSS_BITS:
            raise WidthError(
                "rank comparison would need more than 64 bits; shrink "
                "vm_types, max_quantity, max_bid or the weights")
        if self.load_width + 2 * self.fraction_bits > MAX_CROSS_BITS:
            raise WidthError("payment dividend would need more than 64 bits; "
                             "shrink fraction_bits or the weights")

    @property
    def quantity_bits(self) -> int:
        return self.max_quantity.bit_length()

    @property
    def value_width(self) -> int:
        """Bits needed for S_j = sum of clamped quantity * bid products."""
        return (self.vm_types * self.max_quantity * self.max_bid).bit_length()

    @property
    def load_width(self) -> int:
        """Bits needed for T_j = weighted resource load."""
        return (self.max_quantity * sum(self.weights)).bit_length()

    @property
    def payment_width(self) -> int:
        return self.value_width + (self.load_width + 2 * self.fraction_bits + 1) // 2


@dataclass(frozen=True)
class AuctionResult:
    """Allocation bit and fixed-point payment per bidder."""

    allocations: tuple[int, ...]
    payments_fp: tuple[int, ...]

    def payments(self, config: AuctionConfig) -> tuple[float, ...]:
        scale = 1 << config.fraction_bits
        return tuple(fp / scale for fp in self.payments_fp)


def _check_bids(config: AuctionConfig, bids) -> None:
    limit = 1 << config.width
    for j, bidder in enumerate(bids):
        if len(bidder) != config.vm_types:
            raise InputShapeError(
                f"bidder {j} must submit one (quantity, bid) pair per VM type")
        for k, b in bidder:
            if not (0 <= k < limit and 0 <= b < limit):
                raise InputShapeError(
                    f"bidder {j} values must fit in {config.width} bits")


def _value_and_load(config: AuctionConfig, bidder):
    s = t = 0
    for (k, b), w in zip(bidder, config.weights):
        kh = min(k, config.max_quantity)
        s += kh * min(b, config.max_bid)
        t += kh * w
    return s, t


def oracle_run(config: AuctionConfig, bids) -> AuctionResult:
    """Plaintext auction outcome; the circuit reproduces this bit for bit."""
    _check_bids(config, bids)
    n = len(bids)
    m = config.vm_types
    clamped = [[min(k, config.max_quantity) for k, _ in bidder] for bidder in bids]
    value = [0] * n
    load = [0] * n
    for j, bidder in enumerate(bids):
        value[j], load[j] = _value_and_load(config, bidder)

    def rank_key(j):
        if load[j] == 0:
            return (1, Fraction(0), j)
        return (0, -Fraction(value[j] * value[j], load[j]), j)

    order = sorted(range(n), key=rank_key)

    def greedy(skip=None):
        used = [0] * m
        x = [0] * n
        for j in order:
            if j == skip or load[j] == 0:
                continue
            if all(used[i] + clamped[j][i] <= config.capacities[i] for i in range(m)):
                x[j] = 1
                for i in range(m):
                    used[i] += clamped[j][i]
        return x

    x = greedy()
    position = {j: r for r, j in enumerate(order)}
    payments = [0] * n
    for j in range(n):
        if not x[j]:
            continue
        without = greedy(skip=j)
        critical = None
        for r in range(position[j] + 1, n):
            q = order[r]
            if x[q] == 0 and without[q] == 1:
                critical = q
                break
        if critical is None:
            continue
        dividend = load[j] << (2 * config.fraction_bits)
        payments[j] = value[critical] * math.isqrt(dividend // load[critical])
    return AuctionResult(tuple(x), tuple(payments))


# --- circuit compilation ---------------------------------------------------

def _clamp(bld: Builder, bus, bound: int):
    """min(bus, bound) narrowed to bound.bit_length() bits."""
    bw = bound.bit_length()
    if bound >= (1 << len(bus)) - 1:
        return zext(bld, bus, bw)
    over = gt(bld, bus, const_bus(bld, bound, len(bus)))
    return mux(bld, over, bus[-bw:], const_bus(bld, bound, bw))


def _accumulate(bld: Builder, terms, width: int):
    """Sum buses whose total is known to fit in ``width`` bits.

    A term bus may be syntactically wider than ``width`` (a product of two
    clamped factors); its high bits are zero by the same value bound, so
    they are dropped.
    """
    acc = const_bus(bld, 0, width)
    for t in terms:
        if len(t) > width:
            t = t[-width:]
        acc = add(bld, acc, zext(bld, t, width))[1:]
    return acc


def _onehot_select(bld: Builder, acc, sel: int, bus):
    return [bld.OR(a, bld.AND(sel, b)) for a, b in zip(acc, bus)]


@lru_cache(maxsize=32)
def build_auction_circuit(config: AuctionConfig, bidders: int) -> Circuit:
    """Compile the auction for ``bidders`` data providers.

    Input groups: one per bidder, ``2 * vm_types * width`` bits laid out as
    quantity then bid per VM type, each value big-endian. Output groups: one
    per bidder carrying (allocation bit, fixed-point payment), plus a final
    group for the cloud provider that repeats every bidder's output wires.
    """
    if bidders < 1:
        raise ValueError("need at least one bidder")
    m = config.vm_types
    w = config.width
    f2 = 2 * config.fraction_bits
    kq = config.quantity_bits
    s_w = config.value_width
    t_w = config.load_width
    i_w = max(1, (bidders - 1).bit_length())

    bld = Builder()
    raw = []
    for _ in range(bidders):
        wires = bld.inputs(2 * m * w)
        raw.append([wires[i * w:(i + 1) * w] for i in range(2 * m)])

    # A sort record is the flat bus S^2 | T | has_T | index | S | k_1..k_m,
    # which the sorts move whole; its fields are these slices.
    S2 = slice(0, 2 * s_w)
    T = slice(S2.stop, S2.stop + t_w)
    HAS_T = T.stop
    IDX = slice(HAS_T + 1, HAS_T + 1 + i_w)
    S = slice(IDX.stop, IDX.stop + s_w)
    K = [slice(S.stop + i * kq, S.stop + (i + 1) * kq) for i in range(m)]

    # Per-bidder aggregates on clamped values.
    records = []
    for j in range(bidders):
        khat = [_clamp(bld, raw[j][2 * i], config.max_quantity) for i in range(m)]
        bhat = [_clamp(bld, raw[j][2 * i + 1], config.max_bid) for i in range(m)]
        s_bus = _accumulate(bld, [mul(bld, khat[i], bhat[i]) for i in range(m)], s_w)
        t_bus = _accumulate(
            bld, [mul(bld, khat[i],
                      const_bus(bld, config.weights[i], config.weights[i].bit_length()))
                  for i in range(m)], t_w)
        s2_bus = mul(bld, s_bus, s_bus)
        records.append(s2_bus + t_bus + [or_reduce(bld, t_bus)]
                       + const_bus(bld, j, i_w) + s_bus
                       + [wire for k in khat for wire in k])

    def rank_before(bld_, a, b):
        cross_ab = mul(bld_, a[S2], b[T])
        cross_ba = mul(bld_, b[S2], a[T])
        t_wins = bld_.AND(a[HAS_T], bld_.NOT(b[HAS_T]))
        t_ties = bld_.NOT(bld_.XOR(a[HAS_T], b[HAS_T]))
        dens_wins = gt(bld_, cross_ab, cross_ba)
        dens_ties = eq(bld_, cross_ab, cross_ba)
        idx_wins = gt(bld_, b[IDX], a[IDX])
        return bld_.OR(t_wins, bld_.AND(
            t_ties, bld_.OR(dens_wins, bld_.AND(dens_ties, idx_wins))))

    ranked = odd_even_merge_sort(bld, records, rank_before)

    # Size load accumulators by the configured word width, not the capacity
    # values, so the circuit (and hence message volume) does not depend on
    # how many instances the cloud offers.
    cap_w = 1 + max((bidders * config.max_quantity).bit_length(), config.width)
    cap_consts = [const_bus(bld, c, cap_w + 1) for c in config.capacities]

    def greedy_step(used, rec):
        sums = [add(bld, used[i], zext(bld, rec[K[i]], cap_w)) for i in range(m)]
        fits = bld.const(1)
        for i in range(m):
            fits = bld.AND(fits, ge(bld, cap_consts[i], sums[i]))
        x = bld.AND(fits, rec[HAS_T])
        next_used = [mux(bld, x, used[i], sums[i][1:]) for i in range(m)]
        return x, next_used

    # Main greedy pass, snapshotting capacity usage before each position.
    used = [const_bus(bld, 0, cap_w) for _ in range(m)]
    used_before = []
    alloc = []
    for rec in ranked:
        used_before.append(used)
        x, used = greedy_step(used, rec)
        alloc.append(x)

    # Payment per sorted position: re-run the greedy tail as if the position
    # had been skipped, and pick the first later position that wins only
    # then (the critical bidder). Earlier positions are unaffected by the
    # skip, so the pass resumes from the snapshot taken before the skipped
    # position.
    pay = []
    for p in range(bidders):
        used_p = used_before[p]
        found = bld.const(0)
        crit_s = const_bus(bld, 0, s_w)
        crit_t = const_bus(bld, 0, t_w)
        for r in range(p + 1, bidders):
            x_r, used_p = greedy_step(used_p, ranked[r])
            sel = bld.AND(bld.AND(bld.NOT(alloc[r]), x_r), bld.NOT(found))
            found = bld.OR(found, sel)
            crit_s = _onehot_select(bld, crit_s, sel, ranked[r][S])
            crit_t = _onehot_select(bld, crit_t, sel, ranked[r][T])
        crit_t = mux(bld, found, const_bus(bld, 1, t_w), crit_t)
        dividend = ranked[p][T] + [bld.const(0)] * f2
        quotient = divide(bld, dividend, crit_t)
        root = isqrt(bld, quotient)
        amount = mul(bld, crit_s, root)
        pay.append([bld.AND(bit, alloc[p]) for bit in amount])

    # Restore bidder order by sorting on the carried index.
    out_records = [ranked[p][IDX] + [alloc[p]] + pay[p] for p in range(bidders)]

    def idx_before(bld_, left, right):
        return gt(bld_, right[:i_w], left[:i_w])

    groups = [rec[i_w:] for rec in
              odd_even_merge_sort(bld, out_records, idx_before)]
    cloud = [wire for g in groups for wire in g]
    return bld.finish(groups + [cloud])


def encode_bid_bits(config: AuctionConfig, bidder) -> list[int]:
    """Flatten one bidder's (quantity, bid) pairs to circuit input bits."""
    _check_bids(config, [bidder])
    bits = []
    for k, b in bidder:
        bits += int_to_bits(k, config.width)
        bits += int_to_bits(b, config.width)
    return bits


def decode_bidder_bits(config: AuctionConfig, bits) -> tuple[int, int]:
    """One bidder's output group -> (allocation bit, fixed-point payment)."""
    if len(bits) != 1 + config.payment_width:
        raise InputShapeError("unexpected bidder output width")
    return bits[0], bits_to_int(bits[1:])


def decode_cloud_bits(config: AuctionConfig, bidders: int, bits) -> AuctionResult:
    """The cloud provider's output group -> full auction result."""
    stride = 1 + config.payment_width
    if len(bits) != bidders * stride:
        raise InputShapeError("unexpected cloud output width")
    pairs = [decode_bidder_bits(config, bits[j * stride:(j + 1) * stride])
             for j in range(bidders)]
    return AuctionResult(tuple(x for x, _ in pairs), tuple(p for _, p in pairs))


def circuit_run(config: AuctionConfig, bids) -> AuctionResult:
    """Evaluate the compiled circuit in plaintext (testing convenience)."""
    from .circuits import eval_plain
    circuit = build_auction_circuit(config, len(bids))
    outs = eval_plain(circuit, [encode_bid_bits(config, b) for b in bids])
    result = decode_cloud_bits(config, len(bids), outs[-1])
    for j in range(len(bids)):
        x, fp = decode_bidder_bits(config, outs[j])
        assert (x, fp) == (result.allocations[j], result.payments_fp[j])
    return result


# --- file formats ----------------------------------------------------------

def load_bids_file(path) -> list:
    """CSV rows: bidder_id, k_1, b_1, ..., k_m, b_m (blank/# lines skipped)."""
    bids = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 3 or len(parts) % 2 == 0:
                raise InputShapeError(
                    f"{path}:{line_no}: expected bidder_id followed by "
                    "(quantity, bid) pairs")
            try:
                values = [int(p) for p in parts[1:]]
            except ValueError as exc:
                raise InputShapeError(f"{path}:{line_no}: {exc}") from None
            bids.append(tuple(zip(values[0::2], values[1::2])))
    if not bids:
        raise InputShapeError(f"{path}: no bid rows found")
    if len({len(b) for b in bids}) != 1:
        raise InputShapeError(f"{path}: rows disagree on the number of VM types")
    return bids


def gate_count(config: AuctionConfig, bidders: int) -> int:
    return len(build_auction_circuit(config, bidders).gates)
