//! The link-state storage abstraction and the sparse row store.
//!
//! The paper's headline result is that quorum-grid rendezvous cuts
//! per-node state and traffic from `O(n²)` to `O(n√n)`: a quorum node
//! receives link-state rows only from its `~2√n` rendezvous clients, so
//! there is no reason for it to *allocate* an `n × n` matrix. This
//! module makes storage honour that bound:
//!
//! * [`LinkStateStore`] — the trait both stores implement. The required
//!   methods are pure storage: one row write,
//!   [`put_row`](LinkStateStore::put_row), taking a [`LaneRow`] with its
//!   seqno and retractions and applying the stale-replay guard, plus
//!   entry updates, reads and clears. The **round-two
//!   kernel** ([`best_one_hop`](LinkStateStore::best_one_hop),
//!   [`one_hop_options`](LinkStateStore::one_hop_options),
//!   [`anyone_reaches`](LinkStateStore::anyone_reaches)) is written once
//!   as provided methods, so the dense baseline and the sparse store
//!   run the identical routing computation.
//! * [`RowStore`] — a sparse indexed map `origin → (receipt time, row)`
//!   holding exactly the rows a node's role entitles it to: its own
//!   row plus its rendezvous clients' rows. Each held row is a
//!   [`LaneRow`]: three parallel contiguous lanes (`dst`, `latency_ms`,
//!   liveness/loss) holding only the *live* entries, ascending by
//!   destination, in the wire's own fixed-point quantization — ~5 bytes
//!   per entry where an array of `LinkEntry` structs needs 12. A node
//!   probing `O(√n)` targets therefore stores `O(√n)` entries per row
//!   and `O(n)` overall, far below even the paper's `O(n√n)` wire
//!   bound. An optional row *entitlement* is debug-asserted on insert,
//!   so a protocol bug that re-grows `O(n)` rows fails loudly in tests
//!   instead of silently reintroducing the quadratic table.
//! * [`RowRef`] — a borrowed view of one row: the dense table's slice
//!   of 3-byte wire entries or a [`LaneRow`]'s lanes. The round-two
//!   kernel is written once over it (see [`best_one_hop_rows`]) and is
//!   **integer-only**: the latency lanes are already integer
//!   milliseconds (the wire carries nothing finer), so a path cost is
//!   a `u32` add of two `u16` legs
//!   with `u32::MAX` as the infinite sentinel — bit-identical to the
//!   historical `f64` computation, because every `u16` sum is exactly
//!   representable in both domains. The kernel walks the *live* entries
//!   of both rows in an ascending merge-join, which reproduces the dense `h = 0..n`
//!   scan's lowest-index tie-break exactly (dead entries have infinite
//!   cost and can never win, so skipping them is observationally
//!   neutral); when both rows list the same destinations — the steady
//!   state for a warm quorum server — it collapses to an elementwise
//!   lane reduction the compiler vectorizes, and two dense wire rows
//!   take the same kind of elementwise pass, with a dead leg costing a
//!   sentinel above every two-leg sum.
//! * [`LinkStateStore::best_hops_all_pairs`] — the round-two kernel a
//!   rendezvous server actually runs: every ordered pair of its members
//!   in one pass, inverted around the relay. A counting sort buckets
//!   the members' live entries by hop; each bucket's member pairs
//!   min-reduce a packed `(cost << 32) | hop` key, whose minimum is the
//!   cheapest relay with the lowest hop index — the per-pair kernel's
//!   tie-break, exactly. Direct costs come from the buckets of the hops
//!   that are members, and a relay must be strictly cheaper to beat
//!   one (direct wins ties, as in [`best_one_hop_rows`]). Both costs
//!   are symmetric, so each unordered pair is computed once and
//!   written for both directions ([`PairHops`]). Results equal the
//!   per-pair kernel's bit for bit; [`best_one_hop_rows`] stays as the
//!   single-pair API and the test oracle. Recomputing every pair each
//!   tick is deliberate: on a steady n = 1024 run only 7.1% of held
//!   rows and 0.74% of pairs were unchanged between a server's
//!   consecutive ticks, so a per-pair result cache would almost never
//!   hit (docs/ROUTING.md).
//!
//! The dense [`LinkStateTable`](crate::table::LinkStateTable) stays for
//! the full-mesh baseline (which genuinely holds all `n` rows, each
//! dense lookups `O(1)`) and as the reference implementation in tests.

use crate::entry::{
    wire_alive, wire_cost_u32, wire_latency, Cost, LinkEntry, WireEntry, INFINITE_COST,
    INFINITE_COST_U32,
};
use apor_telemetry::{Counter, Gauge, Telemetry};
use std::collections::BTreeMap;

/// A borrowed view of one link-state row: dense wire entries or lanes.
///
/// Lane rows (see [`LaneRow`]) are three parallel slices in wire
/// quantization holding **live entries only**; destinations not listed
/// read as [`LinkEntry::dead`]. Both variants expose `O(1)`/`O(log k)`
/// random access and an ascending iterator over *live* entries, which
/// is all the round-two kernel needs; repeated ascending probes should go through [`RowRef::cursor`]
/// instead of [`RowRef::get`].
#[derive(Debug, Clone, Copy)]
pub enum RowRef<'a> {
    /// A full-width row — every destination has an explicit entry, in
    /// its 3-byte wire form, decoded only when read.
    Dense(&'a [WireEntry]),
    /// Struct-of-arrays live entries over a row of `width` destinations.
    ///
    /// The three lanes are index-aligned and hold live entries only,
    /// strictly ascending by destination, in the exact wire
    /// quantization ([`LinkEntry::encode`]): `liveness_loss[i]` is the
    /// wire liveness byte (bit 7 always set here), `latency_ms[i]` the
    /// wire latency.
    Lanes {
        /// Full row width (`n`); destinations ≥ `width` are out of range.
        width: usize,
        /// Destination lane, strictly ascending.
        dst: &'a [u16],
        /// Latency lane (the wire's integer-millisecond latency field).
        latency_ms: &'a [u16],
        /// Liveness/loss lane (the exact wire byte).
        liveness_loss: &'a [u8],
    },
}

impl<'a> RowRef<'a> {
    /// Full width of the row (`n`).
    #[must_use]
    pub fn width(&self) -> usize {
        match self {
            RowRef::Dense(r) => r.len(),
            RowRef::Lanes { width, .. } => *width,
        }
    }

    /// The entry for `dst` (dead when not stored).
    ///
    /// # Panics
    /// Panics if `dst ≥ width()`.
    #[must_use]
    pub fn get(&self, dst: usize) -> LinkEntry {
        match self {
            RowRef::Dense(r) => LinkEntry::decode(r[dst]),
            RowRef::Lanes {
                width,
                dst: dsts,
                latency_ms,
                liveness_loss,
            } => {
                assert!(dst < *width, "dst {dst} out of range");
                match dsts.binary_search(&(dst as u16)) {
                    Ok(i) => LinkEntry::from_wire_parts(latency_ms[i], liveness_loss[i]),
                    Err(_) => LinkEntry::dead(),
                }
            }
        }
    }

    /// Routing cost of the `dst` entry as the integer kernel sees it:
    /// the latency lane when alive, [`INFINITE_COST_U32`] otherwise.
    ///
    /// # Panics
    /// Panics if `dst ≥ width()`.
    #[must_use]
    pub fn cost_u32(&self, dst: usize) -> u32 {
        match self {
            RowRef::Dense(r) => wire_cost_u32(r[dst]),
            RowRef::Lanes {
                width,
                dst: dsts,
                latency_ms,
                ..
            } => {
                assert!(dst < *width, "dst {dst} out of range");
                match dsts.binary_search(&(dst as u16)) {
                    Ok(i) => u32::from(latency_ms[i]),
                    Err(_) => INFINITE_COST_U32,
                }
            }
        }
    }

    /// A resumable lookup cursor over this row. Probing destinations in
    /// ascending order costs amortized `O(1)` per probe (the cursor
    /// only ever walks forward); a backwards probe falls back to one
    /// binary search to re-position. [`RowRef::get`] by contrast pays a
    /// fresh `O(log k)` search on every call.
    #[must_use]
    pub fn cursor(&self) -> RowCursor<'a> {
        RowCursor { row: *self, pos: 0 }
    }

    /// Iterate the live entries as `(dst, entry)`, ascending by `dst`.
    #[must_use]
    pub fn iter_live(&self) -> LiveEntries<'a> {
        match self {
            RowRef::Dense(r) => LiveEntries::Dense { row: r, next: 0 },
            RowRef::Lanes {
                dst,
                latency_ms,
                liveness_loss,
                ..
            } => LiveEntries::Lanes {
                dst,
                latency_ms,
                liveness_loss,
                next: 0,
            },
        }
    }

    /// Iterate the live entries as `(dst, integer cost)`, ascending by
    /// `dst` — the kernel-facing view: no `LinkEntry` (and no `f32`
    /// loss reconstruction) is materialised.
    fn iter_costs(&self) -> LiveCosts<'a> {
        match self {
            RowRef::Dense(r) => LiveCosts::Dense(r.iter().enumerate()),
            RowRef::Lanes {
                dst, latency_ms, ..
            } => LiveCosts::Lanes {
                dst,
                latency_ms,
                next: 0,
            },
        }
    }

    /// Materialise a full-width row (absent entries dead).
    #[must_use]
    pub fn to_dense(&self) -> Vec<LinkEntry> {
        match self {
            RowRef::Dense(r) => r.iter().map(|&w| LinkEntry::decode(w)).collect(),
            RowRef::Lanes { width, .. } => {
                let mut out = vec![LinkEntry::dead(); *width];
                for (dst, e) in self.iter_live() {
                    out[dst] = e;
                }
                out
            }
        }
    }
}

/// Ascending iterator over the live entries of a [`RowRef`].
#[derive(Debug)]
pub enum LiveEntries<'a> {
    /// Scanning a dense row, skipping dead entries.
    Dense {
        /// The row being scanned.
        row: &'a [WireEntry],
        /// Next index to examine.
        next: usize,
    },
    /// Walking a lane row's parallel slices (live by construction).
    Lanes {
        /// Destination lane.
        dst: &'a [u16],
        /// Latency lane.
        latency_ms: &'a [u16],
        /// Liveness/loss lane (wire byte).
        liveness_loss: &'a [u8],
        /// Next lane index to yield.
        next: usize,
    },
}

impl Iterator for LiveEntries<'_> {
    type Item = (usize, LinkEntry);

    fn next(&mut self) -> Option<(usize, LinkEntry)> {
        match self {
            LiveEntries::Dense { row, next } => {
                while *next < row.len() {
                    let i = *next;
                    *next += 1;
                    if wire_alive(row[i]) {
                        return Some((i, LinkEntry::decode(row[i])));
                    }
                }
                None
            }
            LiveEntries::Lanes {
                dst,
                latency_ms,
                liveness_loss,
                next,
            } => {
                let i = *next;
                if i < dst.len() {
                    *next += 1;
                    Some((
                        dst[i] as usize,
                        LinkEntry::from_wire_parts(latency_ms[i], liveness_loss[i]),
                    ))
                } else {
                    None
                }
            }
        }
    }
}

/// Ascending iterator over `(dst, integer cost)` of a row's live
/// entries — what the integer kernel consumes. Unlike [`LiveEntries`]
/// it never reconstructs a `LinkEntry` (no `f32` loss division on the
/// hot path).
enum LiveCosts<'a> {
    Dense(std::iter::Enumerate<std::slice::Iter<'a, WireEntry>>),
    Lanes {
        dst: &'a [u16],
        latency_ms: &'a [u16],
        next: usize,
    },
}

impl Iterator for LiveCosts<'_> {
    type Item = (usize, u32);

    fn next(&mut self) -> Option<(usize, u32)> {
        match self {
            LiveCosts::Dense(entries) => entries
                .find(|(_, &w)| wire_alive(w))
                .map(|(i, &w)| (i, u32::from(wire_latency(w)))),
            LiveCosts::Lanes {
                dst,
                latency_ms,
                next,
            } => {
                let i = *next;
                if i < dst.len() {
                    *next += 1;
                    Some((dst[i] as usize, u32::from(latency_ms[i])))
                } else {
                    None
                }
            }
        }
    }
}

/// A resumable lookup cursor over one [`RowRef`].
///
/// Created by [`RowRef::cursor`]. Probes that ascend by destination —
/// the shape of every per-candidate scavenging loop, since
/// [`LinkStateStore::present_rows`] is ascending — advance the cursor
/// linearly, so a full ascending sweep over a row of `k` entries costs
/// `O(k + probes)` total instead of `O(probes · log k)` fresh binary
/// searches. A backwards probe re-positions with a single binary
/// search; correctness never depends on probe order.
#[derive(Debug, Clone)]
pub struct RowCursor<'a> {
    row: RowRef<'a>,
    pos: usize,
}

impl RowCursor<'_> {
    /// Position the cursor on `target` within a keyed lane row of
    /// `len` entries whose `i`-th key is `key(i)`; returns the entry
    /// index on a hit.
    fn seek(&mut self, len: usize, key: impl Fn(usize) -> u16, target: u16) -> Option<usize> {
        if self.pos < len && key(self.pos) <= target {
            // Ascending (or repeated) probe: walk forward.
            while self.pos < len && key(self.pos) < target {
                self.pos += 1;
            }
            return (self.pos < len && key(self.pos) == target).then_some(self.pos);
        }
        // Backwards probe or exhausted cursor: one binary search.
        let mut lo = 0usize;
        let mut hi = len;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if key(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.pos = lo;
        (lo < len && key(lo) == target).then_some(lo)
    }

    /// The entry for `dst` (dead when not stored), like [`RowRef::get`]
    /// but amortized `O(1)` across ascending probes.
    ///
    /// # Panics
    /// Panics if `dst ≥ width()`.
    pub fn get(&mut self, dst: usize) -> LinkEntry {
        match self.row {
            RowRef::Dense(r) => LinkEntry::decode(r[dst]),
            RowRef::Lanes {
                width,
                dst: dsts,
                latency_ms,
                liveness_loss,
            } => {
                assert!(dst < width, "dst {dst} out of range");
                self.seek(dsts.len(), |i| dsts[i], dst as u16)
                    .map_or_else(LinkEntry::dead, |i| {
                        LinkEntry::from_wire_parts(latency_ms[i], liveness_loss[i])
                    })
            }
        }
    }

    /// Integer routing cost of the `dst` entry ([`INFINITE_COST_U32`]
    /// when dead or not stored), like [`RowRef::cost_u32`] but
    /// amortized `O(1)` across ascending probes.
    ///
    /// # Panics
    /// Panics if `dst ≥ width()`.
    pub fn cost_u32(&mut self, dst: usize) -> u32 {
        match self.row {
            RowRef::Dense(r) => wire_cost_u32(r[dst]),
            RowRef::Lanes {
                width,
                dst: dsts,
                latency_ms,
                ..
            } => {
                assert!(dst < width, "dst {dst} out of range");
                self.seek(dsts.len(), |i| dsts[i], dst as u16)
                    .map_or(INFINITE_COST_U32, |i| u32::from(latency_ms[i]))
            }
        }
    }
}

/// Index ranges of `0..len` with up to two positions excluded — how the
/// kernel's lane fast path skips the endpoints `a` and `b` without
/// branching inside the reduction loops.
fn excluded_ranges(
    len: usize,
    skip_a: Option<usize>,
    skip_b: Option<usize>,
) -> [std::ops::Range<usize>; 3] {
    match (skip_a, skip_b) {
        (None, None) => [0..len, 0..0, 0..0],
        (Some(p), None) | (None, Some(p)) => [0..p, p + 1..len, 0..0],
        (Some(x), Some(y)) => {
            let (p, q) = if x <= y { (x, y) } else { (y, x) };
            if p == q {
                [0..p, p + 1..len, 0..0]
            } else {
                [0..p, p + 1..q, q + 1..len]
            }
        }
    }
}

/// Minimum elementwise sum of two equal-length latency lanes
/// (`u32::MAX` when empty). A pure integer reduction the compiler
/// vectorizes — this is the kernel's innermost loop.
#[inline]
fn min_lane_sum(la: &[u16], lb: &[u16]) -> u32 {
    la.iter()
        .zip(lb)
        .fold(u32::MAX, |m, (&x, &y)| m.min(u32::from(x) + u32::from(y)))
}

/// First index whose elementwise sum equals `target`.
#[inline]
fn find_lane_sum(la: &[u16], lb: &[u16], target: u32) -> Option<usize> {
    la.iter()
        .zip(lb)
        .position(|(&x, &y)| u32::from(x) + u32::from(y) == target)
}

/// Best relay over two lane rows with **identical destination lanes**:
/// the live intersection is the shared support itself, so the ascending
/// merge-join collapses to an elementwise reduction over the two
/// latency lanes (both lanes hold live entries only — a lane row never
/// materialises dead entries). Two vectorizable passes: a min-reduction
/// over the sums with the `a`/`b` positions carved out, then a
/// first-index search for the winner, which reproduces the merge-join's
/// lowest-index tie-break exactly.
fn lanes_shared_best(
    dsts: &[u16],
    la: &[u16],
    lb: &[u16],
    a: usize,
    b: usize,
) -> Option<(usize, u32)> {
    let skip_a = dsts.binary_search(&(a as u16)).ok();
    let skip_b = dsts.binary_search(&(b as u16)).ok();
    let ranges = excluded_ranges(dsts.len(), skip_a, skip_b);
    let mut best = u32::MAX;
    for r in &ranges {
        best = best.min(min_lane_sum(&la[r.clone()], &lb[r.clone()]));
    }
    if best == u32::MAX {
        return None;
    }
    for r in &ranges {
        if let Some(p) = find_lane_sum(&la[r.clone()], &lb[r.clone()], best) {
            return Some((dsts[r.start + p] as usize, best));
        }
    }
    None
}

/// Relay leg cost on the dense × dense fast path: the latency field,
/// plus [`DEAD_LEG`] when the alive bit is clear. Branchless, so the
/// reductions over two wire rows vectorize.
#[inline]
fn dense_leg(wire: WireEntry) -> u32 {
    u32::from(wire_latency(wire)) + (u32::from(!wire[2] >> 7) << 17)
}

/// What a dead leg adds in [`dense_leg`]: any sum with a dead leg is at
/// least this, above every sum of two live `u16` legs (≤ 131 070).
const DEAD_LEG: u32 = 1 << 17;

/// Best relay over two dense wire rows: the elementwise counterpart of
/// the merge-join. Two passes over the rows with the `a`/`b` positions
/// carved out — a min-reduction of the leg sums, then a first-index
/// search for the winner — so among equal costs the lowest index wins,
/// as in the merge-join. A minimum at or above [`DEAD_LEG`] means no
/// relay has two live legs.
fn dense_shared_best(
    ra: &[WireEntry],
    rb: &[WireEntry],
    a: usize,
    b: usize,
) -> Option<(usize, u32)> {
    let len = ra.len().min(rb.len());
    let (ra, rb) = (&ra[..len], &rb[..len]);
    let inside = |x: usize| (x < len).then_some(x);
    let ranges = excluded_ranges(len, inside(a), inside(b));
    let sums = |r: &std::ops::Range<usize>| {
        ra[r.clone()]
            .iter()
            .zip(&rb[r.clone()])
            .map(|(&x, &y)| dense_leg(x) + dense_leg(y))
    };
    let best = ranges
        .iter()
        .map(|r| sums(r).fold(u32::MAX, u32::min))
        .min()
        .unwrap_or(u32::MAX);
    if best >= DEAD_LEG {
        return None;
    }
    ranges
        .iter()
        .find_map(|r| sums(r).position(|c| c == best).map(|p| (r.start + p, best)))
}

/// Best relay over any two rows: an ascending merge-join of their live
/// entries, skipping `a` and `b`. Only a strict improvement replaces
/// the incumbent, so among equal costs the lowest index wins.
fn merge_join_best(row_a: &RowRef, row_b: &RowRef, a: usize, b: usize) -> Option<(usize, u32)> {
    let mut it_a = row_a.iter_costs();
    let mut it_b = row_b.iter_costs();
    let (mut cur_a, mut cur_b) = (it_a.next(), it_b.next());
    let mut best: Option<(usize, u32)> = None;
    while let (Some((ha, ca)), Some((hb, cb))) = (cur_a, cur_b) {
        match ha.cmp(&hb) {
            std::cmp::Ordering::Less => cur_a = it_a.next(),
            std::cmp::Ordering::Greater => cur_b = it_b.next(),
            std::cmp::Ordering::Equal => {
                if ha != a && ha != b {
                    // Both legs live: the sum of two u16s cannot reach
                    // the u32 sentinel.
                    let c = ca + cb;
                    if best.is_none_or(|(_, bc)| c < bc) {
                        best = Some((ha, c));
                    }
                }
                cur_a = it_a.next();
                cur_b = it_b.next();
            }
        }
    }
    best
}

/// **The round-two kernel**, integer-only, written once over borrowed
/// rows: the best one-hop path `a → h → b` computable from row `a` and
/// row `b` (`h == b` means the direct link), as a `(hop, cost)` pair in
/// integer milliseconds, or `None` when no finite path exists.
///
/// Costs are exact: the wire carries integer-millisecond latencies, so
/// a path cost is a `u32` add of two `u16` legs with
/// [`INFINITE_COST_U32`] as the infinite sentinel — every value is also
/// exactly representable in `f64`, which is why this is bit-identical
/// to the historical floating-point kernel. The direct cost is the
/// minimum of the two directions' estimates; ties prefer the direct
/// link, then the lowest hop index (the ascending merge-join yields
/// candidates in index order and only a strict improvement replaces the
/// incumbent).
///
/// Two lane rows listing the same destinations — the steady state for
/// a warm quorum server whose clients probe the same target set — take
/// an elementwise fast path over the latency lanes instead of the
/// merge-join, and two dense wire rows (the full-mesh table) an
/// elementwise pass over both rows; the result is identical.
///
/// Freshness is the caller's concern: [`LinkStateStore::best_one_hop`]
/// applies the staleness rule and delegates here.
#[must_use]
pub fn best_one_hop_rows(
    row_a: &RowRef,
    row_b: &RowRef,
    a: usize,
    b: usize,
) -> Option<(usize, u32)> {
    let direct = row_a.cost_u32(b).min(row_b.cost_u32(a));
    let mut best_hop = b;
    let mut best_cost = direct;
    let relay = match (row_a, row_b) {
        (
            RowRef::Lanes {
                dst: da,
                latency_ms: la,
                ..
            },
            RowRef::Lanes {
                dst: db,
                latency_ms: lb,
                ..
            },
        ) if da == db => lanes_shared_best(da, la, lb, a, b),
        (RowRef::Dense(ra), RowRef::Dense(rb)) => dense_shared_best(ra, rb, a, b),
        _ => merge_join_best(row_a, row_b, a, b),
    };
    if let Some((h, c)) = relay {
        if c < best_cost {
            best_cost = c;
            best_hop = h;
        }
    }
    (best_cost != INFINITE_COST_U32).then_some((best_hop, best_cost))
}

/// Round-two results for every ordered pair of a member list, from
/// [`LinkStateStore::best_hops_all_pairs`]: an `m × m` matrix of packed
/// `(cost << 32) | hop` keys, indexed by member position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairHops {
    m: usize,
    keys: Vec<u64>,
}

impl PairHops {
    /// "No finite path" — above every packed `(cost, hop)` key.
    const NONE: u64 = u64::MAX;

    fn pack(cost: u32, hop: usize) -> u64 {
        (u64::from(cost) << 32) | hop as u64
    }

    /// Number of members the matrix covers.
    #[must_use]
    pub fn member_count(&self) -> usize {
        self.m
    }

    /// Best `(hop, cost)` from member `i` to member `j` (positions in
    /// the member list), or `None` when no finite path exists.
    ///
    /// # Panics
    /// Panics if `i` or `j` is not below [`PairHops::member_count`].
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> Option<(usize, Cost)> {
        assert!(i < self.m && j < self.m, "member index out of range");
        let k = self.keys[i * self.m + j];
        #[allow(clippy::cast_possible_truncation)]
        (k != Self::NONE).then(|| ((k & 0xFFFF_FFFF) as usize, f64::from((k >> 32) as u32)))
    }
}

/// One owned link-state row in struct-of-arrays form: three parallel
/// lanes holding the **live** entries only, strictly ascending by
/// destination, in the exact wire form — `latency_ms` is the wire's
/// big-endian latency field and `liveness_loss` the wire's liveness
/// byte, both taken verbatim from a received frame
/// ([`LaneRow::from_wire`], [`LaneRow::from_wire_pairs`]) or from
/// [`LinkEntry::encode`] for a prober's row ([`LaneRow::from_dense`]).
/// A row that arrived from the wire therefore round-trips
/// bit-identically: re-encoding the lanes reproduces the frame bytes.
///
/// ~5 bytes per entry ([`LaneRow::ENTRY_BYTES`]) versus 12 for the
/// array-of-structs `(u16, LinkEntry)` layout this replaces, and the
/// latency lane is directly consumable by the integer kernel with no
/// decode step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LaneRow {
    dst: Box<[u16]>,
    latency_ms: Box<[u16]>,
    liveness_loss: Box<[u8]>,
    /// The origin's row sequence number (0 = unversioned legacy row).
    /// Bumped by the origin on retraction events; the store refuses to
    /// replace a versioned row with a strictly older one, so delayed or
    /// replayed frames can never resurrect a withdrawn link.
    seqno: u16,
    /// Destinations the origin explicitly withdrew at this seqno,
    /// strictly ascending — a fourth lane alongside the live-entry
    /// lanes. Retraction is stronger than mere absence: receivers
    /// propagate it into their feasibility tables.
    retracted: Box<[u16]>,
}

/// Is `b` strictly newer than `a` under the RFC 8966 circular 16-bit
/// comparison? Sequence numbers wrap, so "newer" means the forward
/// distance `b − a (mod 2¹⁶)` lands in the first half of the circle.
#[must_use]
pub fn seqno_newer(a: u16, b: u16) -> bool {
    b != a && b.wrapping_sub(a) < 0x8000
}

impl LaneRow {
    /// Stored bytes per live entry: 2 (dst) + 2 (latency) + 1
    /// (liveness/loss).
    pub const ENTRY_BYTES: usize = 5;

    /// Reduce a decoded dense row to its live entries, wire-quantized —
    /// how a prober's row enters the lanes.
    #[must_use]
    pub fn from_dense(entries: &[LinkEntry]) -> Self {
        Self::from_live_wire(
            entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.alive)
                .map(|(d, e)| (d as u16, e.encode())),
        )
    }

    /// Reduce a dense row of wire entries — a dense frame's body — to
    /// the entries whose alive bit is set, keeping their bytes verbatim.
    #[must_use]
    pub fn from_wire(entries: &[WireEntry]) -> Self {
        Self::from_live_wire(
            entries
                .iter()
                .enumerate()
                .filter(|&(_, &w)| wire_alive(w))
                .map(|(d, &w)| (d as u16, w)),
        )
    }

    /// Reduce `(dst, wire entry)` pairs (strictly ascending by `dst`) —
    /// a sparse frame's body — to the entries whose alive bit is set,
    /// keeping their bytes verbatim.
    #[must_use]
    pub fn from_wire_pairs(pairs: &[(u16, WireEntry)]) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        Self::from_live_wire(pairs.iter().copied().filter(|&(_, w)| wire_alive(w)))
    }

    /// Split live wire entries into the three lanes, each allocated at
    /// its exact length (one counting pass first).
    fn from_live_wire(live: impl Iterator<Item = (u16, WireEntry)> + Clone) -> Self {
        let k = live.clone().count();
        let (mut dst, mut latency_ms, mut liveness_loss) = (
            Vec::with_capacity(k),
            Vec::with_capacity(k),
            Vec::with_capacity(k),
        );
        for (d, w) in live {
            dst.push(d);
            latency_ms.push(wire_latency(w));
            liveness_loss.push(w[2]);
        }
        LaneRow {
            dst: dst.into_boxed_slice(),
            latency_ms: latency_ms.into_boxed_slice(),
            liveness_loss: liveness_loss.into_boxed_slice(),
            seqno: 0,
            retracted: Box::default(),
        }
    }

    /// The live entries as `(dst, wire entry)`, ascending by `dst`.
    pub(crate) fn iter_wire(&self) -> impl Iterator<Item = (u16, WireEntry)> + '_ {
        self.dst
            .iter()
            .zip(&self.latency_ms)
            .zip(&self.liveness_loss)
            .map(|((&d, &lat), &liveness)| {
                let [hi, lo] = lat.to_be_bytes();
                (d, [hi, lo, liveness])
            })
    }

    /// Stamp the row with the origin's seqno and retraction lane
    /// (strictly ascending destinations, debug-asserted).
    #[must_use]
    pub fn with_version(mut self, seqno: u16, retracted: &[u16]) -> Self {
        debug_assert!(retracted.windows(2).all(|w| w[0] < w[1]));
        self.seqno = seqno;
        self.retracted = retracted.into();
        self
    }

    /// The origin's row sequence number (0 = unversioned).
    #[must_use]
    pub fn seqno(&self) -> u16 {
        self.seqno
    }

    /// The retraction lane: destinations the origin explicitly
    /// withdrew, strictly ascending.
    #[must_use]
    pub fn retracted(&self) -> &[u16] {
        &self.retracted
    }

    /// Number of (live) entries stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dst.len()
    }

    /// True when no live entry is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dst.is_empty()
    }

    /// Does every stored destination lie below `width`?
    #[must_use]
    pub fn fits(&self, width: usize) -> bool {
        self.dst.last().is_none_or(|&d| usize::from(d) < width)
    }

    /// The row relabeled into another index space: every destination,
    /// in the live lanes and the retraction lane alike, moves to
    /// `map(dst)`, and destinations `map` sends to `None` are dropped.
    /// The seqno and the wire bytes of each kept entry are unchanged;
    /// both lanes are re-sorted, so `map` need only be injective.
    #[must_use]
    pub fn relabel(&self, map: impl Fn(u16) -> Option<u16>) -> Self {
        let mut live: Vec<(u16, u16, u8)> = (0..self.len())
            .filter_map(|i| {
                map(self.dst[i]).map(|d| (d, self.latency_ms[i], self.liveness_loss[i]))
            })
            .collect();
        live.sort_unstable_by_key(|e| e.0);
        let mut retracted: Vec<u16> = self.retracted.iter().filter_map(|&d| map(d)).collect();
        retracted.sort_unstable();
        debug_assert!(
            live.windows(2).all(|w| w[0].0 < w[1].0),
            "relabel map not injective"
        );
        LaneRow {
            dst: live.iter().map(|e| e.0).collect(),
            latency_ms: live.iter().map(|e| e.1).collect(),
            liveness_loss: live.iter().map(|e| e.2).collect(),
            seqno: self.seqno,
            retracted: retracted.into(),
        }
    }

    /// Borrow as a [`RowRef::Lanes`] over a row of `width` destinations.
    #[must_use]
    pub fn as_row_ref(&self, width: usize) -> RowRef<'_> {
        RowRef::Lanes {
            width,
            dst: &self.dst,
            latency_ms: &self.latency_ms,
            liveness_loss: &self.liveness_loss,
        }
    }

    /// Insert, replace or remove the entry for `dst`: a live entry
    /// lands in lane order (wire-quantized), a dead one removes any
    /// stored entry.
    fn set(&mut self, dst: u16, entry: LinkEntry) {
        match (self.dst.binary_search(&dst), entry.alive) {
            (Ok(i), true) => {
                let wire = entry.encode();
                self.latency_ms[i] = u16::from_be_bytes([wire[0], wire[1]]);
                self.liveness_loss[i] = wire[2];
            }
            (Ok(i), false) => {
                self.remove_at(i);
            }
            (Err(i), true) => {
                let wire = entry.encode();
                let mut dsts = std::mem::take(&mut self.dst).into_vec();
                let mut lats = std::mem::take(&mut self.latency_ms).into_vec();
                let mut livs = std::mem::take(&mut self.liveness_loss).into_vec();
                dsts.insert(i, dst);
                lats.insert(i, u16::from_be_bytes([wire[0], wire[1]]));
                livs.insert(i, wire[2]);
                self.dst = dsts.into_boxed_slice();
                self.latency_ms = lats.into_boxed_slice();
                self.liveness_loss = livs.into_boxed_slice();
            }
            (Err(_), false) => {}
        }
    }

    fn remove_at(&mut self, i: usize) {
        let mut dsts = std::mem::take(&mut self.dst).into_vec();
        let mut lats = std::mem::take(&mut self.latency_ms).into_vec();
        let mut livs = std::mem::take(&mut self.liveness_loss).into_vec();
        dsts.remove(i);
        lats.remove(i);
        livs.remove(i);
        self.dst = dsts.into_boxed_slice();
        self.latency_ms = lats.into_boxed_slice();
        self.liveness_loss = livs.into_boxed_slice();
    }
}

/// Storage of link-state rows plus the round-two route computation.
///
/// A row logically covers all `n` destinations; what varies between
/// implementations is *which* origins have a row at all and whether a
/// held row is materialised densely or as its live entries only (see
/// [`RowRef`]). "Present" means a row was received (it has a receipt
/// time); a present row may still be stale for routing — the kernel
/// methods apply the paper's 3-routing-interval freshness rule
/// (section 6.2.2) on top.
pub trait LinkStateStore {
    /// Number of nodes covered (row width).
    fn len(&self) -> usize;

    /// True when the store covers no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replace row `origin` with `row`, stamped at `now` seconds — the
    /// one way a whole row enters a store, whether it came off the wire
    /// (dense or sparse frame), from the node's own prober, or across a
    /// view remap. The row carries the route discipline: the origin's
    /// seqno and explicit retractions ([`LaneRow::with_version`]).
    ///
    /// Returns `false` (row unchanged) when the held row is versioned
    /// and strictly newer than the incoming one — the stale-replay
    /// guard. A zero seqno on either side is unversioned and always
    /// accepted. Stores that do not track versions (the dense table)
    /// always accept.
    ///
    /// # Panics
    /// Panics if `origin ≥ len()` or any destination is `≥ len()`.
    fn put_row(&mut self, origin: usize, row: LaneRow, now: f64) -> bool;

    /// The held seqno of row `origin` (0 = absent or unversioned).
    fn row_seqno(&self, _origin: usize) -> u16 {
        0
    }

    /// Did row `origin` explicitly retract `dst` at its current seqno?
    fn row_retracts(&self, _origin: usize, _dst: usize) -> bool {
        false
    }

    /// Row `origin` as an owned [`LaneRow`] with its seqno and
    /// retraction lane, when present — what a router exports across a
    /// view change.
    fn lane_row(&self, origin: usize) -> Option<LaneRow>;

    /// Update a single entry of a row (used for the node's own row,
    /// which its probers refresh incrementally). Creates the row (all
    /// other entries dead) when absent.
    fn update_entry(&mut self, origin: usize, dst: usize, entry: LinkEntry, now: f64);

    /// Forget a row (e.g. on membership change or client loss).
    fn clear_row(&mut self, origin: usize);

    /// A borrowed view of row `origin`, when present.
    fn row_ref(&self, origin: usize) -> Option<RowRef<'_>>;

    /// Receipt time of row `origin`; `None` = never received.
    fn row_time(&self, origin: usize) -> Option<f64>;

    /// The origins that currently have a row, ascending.
    fn present_rows(&self) -> Vec<usize>;

    /// Number of rows currently held — the state-accounting counter the
    /// scale experiments assert against (`O(√n)` for a quorum node).
    fn row_count(&self) -> usize;

    /// Number of link entries currently allocated — the per-node memory
    /// figure the scale experiments report. Dense stores count the full
    /// matrix; sparse stores count only what they hold.
    fn entry_count(&self) -> usize {
        self.row_count() * self.len()
    }

    // ------------------------------------------------------------------
    // Provided accessors
    // ------------------------------------------------------------------

    /// Age of row `origin` at time `now`, if ever received.
    fn row_age(&self, origin: usize, now: f64) -> Option<f64> {
        self.row_time(origin).map(|t| now - t)
    }

    /// Is row `origin` present and no older than `max_age` at `now`?
    fn row_fresh(&self, origin: usize, now: f64, max_age: f64) -> bool {
        self.row_age(origin, now).is_some_and(|a| a <= max_age)
    }

    /// The entry `origin → dst` (dead when the row is absent).
    fn entry(&self, origin: usize, dst: usize) -> LinkEntry {
        self.row_ref(origin)
            .map_or_else(LinkEntry::dead, |r| r.get(dst))
    }

    /// Routing cost of `origin → dst` (infinite when dead/unknown).
    fn cost(&self, origin: usize, dst: usize) -> Cost {
        if origin == dst {
            return 0.0;
        }
        self.entry(origin, dst).cost()
    }

    // ------------------------------------------------------------------
    // The round-two kernel — written once, over the trait
    // ------------------------------------------------------------------

    /// **The round-two kernel** for one pair. Best one-hop path
    /// `a → h → b` (or the direct link, represented as `h == b`)
    /// computable from rows `a` and `b`, both of which must be fresh
    /// (≤ `max_age` at `now`). A rendezvous server's per-tick pass runs
    /// [`best_hops_all_pairs`](LinkStateStore::best_hops_all_pairs)
    /// instead, which agrees with this exactly on every pair.
    ///
    /// Link costs are assumed symmetric (paper section 3), so the path
    /// cost is `row_a[h] + row_b[h]`; the direct cost is the *minimum*
    /// of the two directions' estimates (they may disagree
    /// transiently). Ties prefer the direct link, then the lowest hop
    /// index, making the recommendation deterministic across rendezvous
    /// servers with identical data.
    ///
    /// Implemented by delegating to the integer kernel
    /// [`best_one_hop_rows`]: an ascending merge-join over the *live*
    /// entries of both rows (a finite path cost needs both legs alive,
    /// so only the intersection of the live sets can win, and ascending
    /// order reproduces the dense `h = 0..n` scan's lowest-index
    /// tie-break exactly), collapsing to a vectorized elementwise lane
    /// reduction when both rows share one destination lane. Cost is
    /// `O(k_a + k_b)` live entries instead of `O(n)`, with no `f64`
    /// and no `LinkEntry` materialisation — the integer result converts
    /// exactly.
    ///
    /// Returns `None` when either row is missing/stale or no finite
    /// path exists.
    fn best_one_hop(&self, a: usize, b: usize, now: f64, max_age: f64) -> Option<(usize, Cost)> {
        if a == b || !self.row_fresh(a, now, max_age) || !self.row_fresh(b, now, max_age) {
            return None;
        }
        let row_a = self.row_ref(a).expect("fresh row present");
        let row_b = self.row_ref(b).expect("fresh row present");
        best_one_hop_rows(&row_a, &row_b, a, b).map(|(h, c)| (h, f64::from(c)))
    }

    /// **The all-pairs round-two kernel.** [`best_one_hop`] for every
    /// ordered pair of `members` in one pass over their rows — what a
    /// rendezvous server owes its clients each tick. `result.get(i, j)`
    /// equals `self.best_one_hop(members[i], members[j], now, max_age)`
    /// exactly (hop, cost and tie-break); pairs with a stale or missing
    /// row, and `i == j`, yield `None`.
    ///
    /// The per-pair kernel merge-joins two rows for each of the `m²`
    /// ordered pairs; this one inverts the loop around the relay:
    ///
    /// * **Index.** A counting sort over `0..n` buckets every fresh
    ///   member's live `(hop, cost)` entries by hop, ascending by member
    ///   within a bucket. A member's entry for itself is left out: a
    ///   path never relays through one of its own endpoints.
    /// * **Relays.** For each hop `h` in ascending order, every pair
    ///   `i < j` in `h`'s bucket has a path `i → h → j`; its packed key
    ///   `(cost << 32) | h` is min-reduced into an `m × m` matrix. The
    ///   minimum of the packed key is the cheapest relay with the
    ///   lowest hop index among equal costs — the per-pair kernel's
    ///   tie-break.
    /// * **Direct links.** The bucket of the hop that *is* member `j`
    ///   holds every `R_i[j]`, so the direct cost `min(R_i[j], R_j[i])`
    ///   comes from the same index. A relay wins only when strictly
    ///   cheaper, so direct wins ties, as in [`best_one_hop_rows`].
    /// * **Symmetry.** Both the relay sum and the direct minimum are
    ///   symmetric in the endpoints, so each unordered pair is computed
    ///   once and written for both directions (a direct path's hop is
    ///   the respective destination).
    ///
    /// Work is `Σ_h |bucket_h|²/2` packed-key updates plus `O(n + Σ k)`
    /// indexing, instead of `m²` merge-joins of `O(k)` each; with
    /// entitled rows most hops are listed by few members.
    ///
    /// [`best_one_hop`]: LinkStateStore::best_one_hop
    fn best_hops_all_pairs(&self, members: &[usize], now: f64, max_age: f64) -> PairHops {
        let n = self.len();
        let m = members.len();
        let rows: Vec<Option<RowRef<'_>>> = members
            .iter()
            .map(|&v| {
                if self.row_fresh(v, now, max_age) {
                    self.row_ref(v)
                } else {
                    None
                }
            })
            .collect();

        // Index: bucket `h` is `start[h]..start[h + 1]` of the parallel
        // `member`/`cost` lanes, ascending by member.
        let mut start = vec![0usize; n + 1];
        for (row, &v) in rows.iter().zip(members) {
            for (h, _) in row.iter().flat_map(RowRef::iter_costs) {
                start[h + 1] += usize::from(h != v);
            }
        }
        for h in 0..n {
            start[h + 1] += start[h];
        }
        let mut fill = start[..n].to_vec();
        let mut member = vec![0u32; start[n]];
        let mut cost = vec![0u32; start[n]];
        for (i, (row, &v)) in rows.iter().zip(members).enumerate() {
            #[allow(clippy::cast_possible_truncation)]
            let i = i as u32;
            for (h, c) in row.iter().flat_map(RowRef::iter_costs) {
                if h != v {
                    (member[fill[h]], cost[fill[h]]) = (i, c);
                    fill[h] += 1;
                }
            }
        }
        let span = |h: usize| start[h]..start[h + 1];

        // Direct costs, upper triangle: `min(R_i[j], R_j[i])`. A member
        // never lists itself in the index, so `i != j` here.
        let mut direct = vec![INFINITE_COST_U32; m * m];
        for (j, &v) in members.iter().enumerate() {
            let (bm, bc) = (&member[span(v)], &cost[span(v)]);
            for (&i, &c) in bm.iter().zip(bc) {
                let i = i as usize;
                let cell = &mut direct[i.min(j) * m + i.max(j)];
                *cell = (*cell).min(c);
            }
        }

        // Relays, upper triangle: min packed `(cost << 32) | h` key.
        let mut keys = vec![PairHops::NONE; m * m];
        for h in 0..n {
            let (bm, bc) = (&member[span(h)], &cost[span(h)]);
            for x in 0..bm.len() {
                let base = PairHops::pack(bc[x], h);
                let i = bm[x] as usize;
                let row = &mut keys[i * m..(i + 1) * m];
                for (&j, &cj) in bm[x + 1..].iter().zip(&bc[x + 1..]) {
                    let cell = &mut row[j as usize];
                    *cell = (*cell).min(base + (u64::from(cj) << 32));
                }
            }
        }

        // Choose relay or direct per unordered pair; write both directions.
        for i in 0..m {
            for j in i + 1..m {
                let (up, down) = (i * m + j, j * m + i);
                let (relay, d) = (keys[up], direct[up]);
                let valid = rows[i].is_some() && rows[j].is_some() && members[i] != members[j];
                (keys[up], keys[down]) = if !valid {
                    (PairHops::NONE, PairHops::NONE)
                } else if relay >> 32 < u64::from(d) {
                    // A relay cost is a sum of two u16 legs, so a real
                    // relay never reaches the u32 sentinel.
                    (relay, relay)
                } else if d != INFINITE_COST_U32 {
                    (PairHops::pack(d, members[j]), PairHops::pack(d, members[i]))
                } else {
                    (PairHops::NONE, PairHops::NONE)
                };
            }
        }
        PairHops { m, keys }
    }

    /// All one-hop options from `a` to `b` with finite cost, sorted by
    /// cost (the §4.2 "redundant link-state information" scavenging
    /// uses this over the rows a node happens to hold). Only present,
    /// fresh relay rows participate — which for a sparse store is an
    /// `O(√n)` scan instead of `O(n)`. The per-candidate probes into
    /// row `a` ascend with `present_rows`, so they ride a [`RowCursor`]
    /// (amortized `O(1)` per candidate) rather than a fresh binary
    /// search each.
    fn one_hop_options(&self, a: usize, b: usize, now: f64, max_age: f64) -> Vec<(usize, Cost)> {
        if a == b || !self.row_fresh(a, now, max_age) {
            return Vec::new();
        }
        let row_a = self.row_ref(a).expect("fresh row present");
        let mut cur_a = row_a.cursor();
        let mut out = Vec::new();
        for h in self.present_rows() {
            if h == a || h == b {
                continue;
            }
            if !self.row_fresh(h, now, max_age) {
                continue;
            }
            let leg1 = cur_a.cost_u32(h);
            if leg1 == INFINITE_COST_U32 {
                continue;
            }
            let leg2 = self.row_ref(h).map_or(INFINITE_COST_U32, |r| r.cost_u32(b));
            if leg2 == INFINITE_COST_U32 {
                continue;
            }
            out.push((h, f64::from(leg1 + leg2)));
        }
        out.sort_by(|x, y| x.1.partial_cmp(&y.1).unwrap().then(x.0.cmp(&y.0)));
        out
    }

    /// Generalized §4.2 scavenging: candidate detours `a → r₁ → … → b`
    /// through up to `max_hops` intermediate relays (`max_hops == 1`
    /// reproduces [`one_hop_options`](LinkStateStore::one_hop_options)
    /// exactly, entry for entry). Only present, *fresh* relay rows
    /// participate — `O(√n)` relays for a quorum node — and paths are
    /// simple by construction, so a candidate can never revisit a node.
    ///
    /// Returns one option per viable first relay: the full path
    /// (`path[0] == a`, `path.last() == b`), its total cost, and the
    /// *remaining* cost after the first leg — the cost the first relay
    /// effectively advertises for the rest of the path, which is what
    /// the feasibility discipline compares against its feasibility
    /// distance. Sorted by total cost, lowest first-relay index on
    /// ties. The hop-layered relaxation runs `O(k·√n·√n)` integer
    /// additions off the per-tick hot path (failover only); the
    /// per-tick round-two kernel is untouched.
    fn k_hop_options(
        &self,
        a: usize,
        b: usize,
        max_hops: usize,
        now: f64,
        max_age: f64,
    ) -> Vec<(Vec<usize>, Cost, Cost)> {
        if a == b || max_hops == 0 || !self.row_fresh(a, now, max_age) {
            return Vec::new();
        }
        let relays: Vec<usize> = self
            .present_rows()
            .into_iter()
            .filter(|&r| r != a && r != b && self.row_fresh(r, now, max_age))
            .collect();
        // best[i]: cheapest known tail `relays[i] → … → b` and its cost,
        // grown one relay per layer (classic hop-bounded relaxation).
        let mut best: Vec<Option<(u32, Vec<usize>)>> = relays
            .iter()
            .map(|&r| {
                let c = self.entry(r, b).cost_u32();
                (c != INFINITE_COST_U32).then(|| (c, vec![r, b]))
            })
            .collect();
        for _ in 1..max_hops {
            let prev = best.clone();
            for (i, &r) in relays.iter().enumerate() {
                let row_r = self.row_ref(r).expect("fresh row present");
                let mut cur = row_r.cursor();
                for (j, &s) in relays.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let Some((tail_cost, tail)) = &prev[j] else {
                        continue;
                    };
                    let leg = cur.cost_u32(s);
                    if leg == INFINITE_COST_U32 || tail.contains(&r) {
                        continue;
                    }
                    let total = leg + tail_cost;
                    if best[i].as_ref().is_none_or(|(c, _)| total < *c) {
                        let mut path = Vec::with_capacity(tail.len() + 1);
                        path.push(r);
                        path.extend_from_slice(tail);
                        debug_assert!(path.len() <= max_hops + 1);
                        best[i] = Some((total, path));
                    }
                }
            }
        }
        let row_a = self.row_ref(a).expect("fresh row present");
        let mut cur_a = row_a.cursor();
        let mut out = Vec::new();
        for (i, &r) in relays.iter().enumerate() {
            let Some((tail_cost, tail)) = &best[i] else {
                continue;
            };
            let leg1 = cur_a.cost_u32(r);
            if leg1 == INFINITE_COST_U32 {
                continue;
            }
            let mut path = Vec::with_capacity(tail.len() + 1);
            path.push(a);
            path.extend_from_slice(tail);
            out.push((path, f64::from(leg1 + tail_cost), f64::from(*tail_cost)));
        }
        out.sort_by(|x, y| x.1.partial_cmp(&y.1).unwrap().then(x.0[1].cmp(&y.0[1])));
        out
    }

    /// Does any fresh row report `dst` as alive? (Used to decide
    /// whether a destination has failed outright — section 4.1's "check
    /// if any of its rendezvous clients' link-state tables show that
    /// Dst is reachable".)
    fn anyone_reaches(&self, dst: usize, now: f64, max_age: f64) -> bool {
        self.present_rows().into_iter().any(|origin| {
            origin != dst && self.row_fresh(origin, now, max_age) && self.entry(origin, dst).alive
        })
    }

    /// The cost of the path `a → h → b` using current rows; infinite
    /// when anything is missing. `h == b` means the direct link.
    fn path_cost(&self, a: usize, h: usize, b: usize) -> Cost {
        if h == b {
            return self.cost(a, b);
        }
        let c = self.cost(a, h) + self.cost(h, b);
        if c.is_finite() {
            c
        } else {
            INFINITE_COST
        }
    }
}

/// One stored row: receipt time plus the live entries as parallel
/// wire-quantized lanes ([`LaneRow`]), ascending by destination.
/// Dead/unknown destinations are not materialised.
#[derive(Debug, Clone)]
struct StoredRow {
    received_at: f64,
    lanes: LaneRow,
}

/// The sparse row store: `origin → (receipt time, live-entry lanes)`
/// for exactly the rows this node actually receives.
///
/// A quorum node holds its own row plus its `~2√n` rendezvous clients'
/// rows, and each row stores only its live entries, in struct-of-arrays
/// lanes at ~5 B/entry — which under entitled + sampled probing is
/// `O(√n)` per row, so per-node state is `O(n)` where the dense table
/// needs `O(n²)`. Lookups are `O(log √n)` map + `O(log k)` row binary
/// search; the round-two kernel merge-joins the two rows of the pair in
/// `O(k)`, or streams their latency lanes elementwise when the rows
/// share a destination lane. The `row_bytes_lanes` / `row_bytes_aos`
/// gauge pair reports the stored bytes against what the replaced
/// array-of-structs layout would have held.
#[derive(Debug, Clone)]
pub struct RowStore {
    n: usize,
    rows: BTreeMap<usize, StoredRow>,
    /// Maximum rows this node's role entitles it to, debug-asserted on
    /// insert; `None` = unbounded (the full-mesh baseline).
    entitlement: Option<usize>,
    /// Rows older than this are evicted when a new row arrives at the
    /// entitlement boundary. One-time senders (e.g. nodes that briefly
    /// selected us as a failover rendezvous) would otherwise accumulate
    /// rows forever; a stale row is useless to the kernel, so shedding
    /// it is free.
    stale_after: Option<f64>,
    /// High-water mark of `row_count` over the store's lifetime.
    peak_rows: usize,
    /// Live entries across all held rows, kept current by every write
    /// so the size gauges never re-sum the map.
    entries_held: usize,
    rows_merged: Counter,
    rows_evicted: Counter,
    rows_held: Gauge,
    row_bytes_lanes: Gauge,
    row_bytes_aos: Gauge,
}

impl RowStore {
    /// An empty, unbounded store over `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let telemetry = Telemetry::disabled();
        let rows_merged = telemetry.counter("linkstate", "rows_merged");
        let rows_evicted = telemetry.counter("linkstate", "rows_evicted");
        let rows_held = telemetry.gauge("linkstate", "rows_held");
        let row_bytes_lanes = telemetry.gauge("linkstate", "row_bytes_lanes");
        let row_bytes_aos = telemetry.gauge("linkstate", "row_bytes_aos");
        RowStore {
            n,
            rows: BTreeMap::new(),
            entitlement: None,
            stale_after: None,
            peak_rows: 0,
            entries_held: 0,
            rows_merged,
            rows_evicted,
            rows_held,
            row_bytes_lanes,
            row_bytes_aos,
        }
    }

    /// Attach a telemetry handle: row merges/evictions count under
    /// component `"linkstate"`, and the size gauges publish this
    /// store's sizes at once. The cells are shared by name, so a store
    /// rebuilt onto a node's registry (a router rebuilt at a view
    /// change) overwrites the previous store's gauges instead of
    /// reporting them until its first write.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.rows_merged = telemetry.counter("linkstate", "rows_merged");
        self.rows_evicted = telemetry.counter("linkstate", "rows_evicted");
        self.rows_held = telemetry.gauge("linkstate", "rows_held");
        self.row_bytes_lanes = telemetry.gauge("linkstate", "row_bytes_lanes");
        self.row_bytes_aos = telemetry.gauge("linkstate", "row_bytes_aos");
        self.update_size_gauges();
        self
    }

    /// Refresh the held-rows gauge and the stored-bytes gauge pair:
    /// actual lane bytes versus what the replaced array-of-structs
    /// `(u16, LinkEntry)` layout would hold for the same entries — the
    /// memory win the scale study exports. Reads the running entry
    /// total, so a row merge costs `O(1)` here, not a walk of every
    /// held row.
    fn update_size_gauges(&self) {
        self.rows_held.set(self.rows.len() as u64);
        self.row_bytes_lanes
            .set((self.entries_held * LaneRow::ENTRY_BYTES) as u64);
        self.row_bytes_aos
            .set((self.entries_held * std::mem::size_of::<(u16, LinkEntry)>()) as u64);
    }

    /// Count one merged row and refresh the size gauges.
    fn note_merge(&self) {
        self.rows_merged.inc();
        self.update_size_gauges();
    }

    /// An empty store that debug-asserts `row_count ≤ max_rows` on
    /// every insert — the `O(√n)` entitlement guard. When a new row
    /// arrives at the boundary, rows older than `stale_after` (the
    /// staleness window: stale rows are dead weight the kernel already
    /// ignores) are evicted first, so only *fresh* rows beyond the
    /// entitlement trip the assertion.
    #[must_use]
    pub fn with_entitlement(n: usize, max_rows: usize, stale_after: f64) -> Self {
        RowStore {
            entitlement: Some(max_rows),
            stale_after: Some(stale_after),
            ..RowStore::new(n)
        }
    }

    /// The configured entitlement, if any.
    #[must_use]
    pub fn entitlement(&self) -> Option<usize> {
        self.entitlement
    }

    /// The most rows ever held simultaneously — the state-accounting
    /// high-water mark the scale experiment reports.
    #[must_use]
    pub fn peak_rows(&self) -> usize {
        self.peak_rows
    }

    /// Make room for an insert at `now`: at the entitlement boundary,
    /// shed rows the staleness window has already invalidated.
    fn evict_stale(&mut self, now: f64) {
        if let (Some(limit), Some(window)) = (self.entitlement, self.stale_after) {
            if self.rows.len() >= limit {
                let stale: Vec<usize> = self
                    .rows
                    .iter()
                    .filter(|(_, r)| now - r.received_at > window)
                    .map(|(&origin, _)| origin)
                    .collect();
                for origin in stale {
                    if let Some(gone) = self.rows.remove(&origin) {
                        self.entries_held -= gone.lanes.len();
                    }
                    self.rows_evicted.inc();
                }
                self.update_size_gauges();
            }
        }
    }

    fn note_insert(&mut self) {
        self.peak_rows = self.peak_rows.max(self.rows.len());
        if let Some(limit) = self.entitlement {
            debug_assert!(
                self.rows.len() <= limit,
                "row store holds {} fresh rows, entitlement is {limit} — \
                 a quorum node's state must stay O(√n)",
                self.rows.len()
            );
        }
    }
}

impl RowStore {
    /// The stale-replay guard: an incoming *versioned* row is rejected
    /// when the held row is versioned and strictly newer. Zero seqnos
    /// (legacy unversioned rows) always pass — no flag day.
    fn replay_rejected(&self, origin: usize, incoming: u16) -> bool {
        if incoming == 0 {
            return false;
        }
        let held = self.rows.get(&origin).map_or(0, |s| s.lanes.seqno());
        held != 0 && seqno_newer(incoming, held)
    }

    /// Insert or replace a row, keeping the running entry total.
    fn store_row(&mut self, origin: usize, lanes: LaneRow, now: f64) {
        self.entries_held += lanes.len();
        match self.rows.get_mut(&origin) {
            Some(slot) => {
                self.entries_held -= slot.lanes.len();
                slot.lanes = lanes;
                slot.received_at = now;
            }
            None => {
                self.evict_stale(now);
                self.rows.insert(
                    origin,
                    StoredRow {
                        received_at: now,
                        lanes,
                    },
                );
                self.note_insert();
            }
        }
        self.note_merge();
    }
}

impl LinkStateStore for RowStore {
    fn len(&self) -> usize {
        self.n
    }

    fn put_row(&mut self, origin: usize, row: LaneRow, now: f64) -> bool {
        assert!(origin < self.n, "row {origin} out of range");
        assert!(row.fits(self.n), "row destination out of range");
        if self.replay_rejected(origin, row.seqno()) {
            return false;
        }
        self.store_row(origin, row, now);
        true
    }

    fn row_seqno(&self, origin: usize) -> u16 {
        self.rows.get(&origin).map_or(0, |s| s.lanes.seqno())
    }

    fn row_retracts(&self, origin: usize, dst: usize) -> bool {
        self.rows
            .get(&origin)
            .is_some_and(|s| s.lanes.retracted().binary_search(&(dst as u16)).is_ok())
    }

    fn lane_row(&self, origin: usize) -> Option<LaneRow> {
        self.rows.get(&origin).map(|s| s.lanes.clone())
    }

    fn update_entry(&mut self, origin: usize, dst: usize, entry: LinkEntry, now: f64) {
        assert!(origin < self.n && dst < self.n);
        if let Some(slot) = self.rows.get_mut(&origin) {
            let before = slot.lanes.len();
            slot.lanes.set(dst as u16, entry);
            self.entries_held = self.entries_held + slot.lanes.len() - before;
            slot.received_at = now;
            self.note_merge();
        } else {
            let lanes = LaneRow::from_wire_pairs(&[(dst as u16, entry.encode())]);
            self.store_row(origin, lanes, now);
        }
    }

    fn clear_row(&mut self, origin: usize) {
        if let Some(gone) = self.rows.remove(&origin) {
            self.entries_held -= gone.lanes.len();
        }
        self.update_size_gauges();
    }

    fn row_ref(&self, origin: usize) -> Option<RowRef<'_>> {
        self.rows.get(&origin).map(|s| s.lanes.as_row_ref(self.n))
    }

    fn row_time(&self, origin: usize) -> Option<f64> {
        self.rows.get(&origin).map(|s| s.received_at)
    }

    fn present_rows(&self) -> Vec<usize> {
        self.rows.keys().copied().collect()
    }

    fn row_count(&self) -> usize {
        self.rows.len()
    }

    fn entry_count(&self) -> usize {
        self.entries_held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::LinkStateTable;

    fn live_row(costs: &[u16]) -> Vec<LinkEntry> {
        costs.iter().map(|&c| LinkEntry::live(c, 0.0)).collect()
    }

    /// A dense row as the unversioned lane row `put_row` takes.
    fn lanes(row: &[LinkEntry]) -> LaneRow {
        LaneRow::from_dense(row)
    }

    /// `(dst, entry)` pairs as the lane row a sparse frame carrying
    /// their wire forms yields.
    fn pair_lanes(pairs: &[(u16, LinkEntry)]) -> LaneRow {
        let wire: Vec<(u16, WireEntry)> = pairs.iter().map(|&(d, e)| (d, e.encode())).collect();
        LaneRow::from_wire_pairs(&wire)
    }

    /// The 4-node detour world used by the table tests, loaded into both
    /// stores.
    fn detour_rows() -> Vec<Vec<LinkEntry>> {
        vec![
            live_row(&[0, 50, 200, 500]),
            live_row(&[50, 0, 80, 100]),
            live_row(&[200, 80, 0, 90]),
            live_row(&[500, 100, 90, 0]),
        ]
    }

    fn both_stores() -> (LinkStateTable, RowStore) {
        let mut dense = LinkStateTable::new(4);
        let mut sparse = RowStore::new(4);
        for (i, row) in detour_rows().iter().enumerate() {
            dense.put_row(i, lanes(row), 10.0);
            sparse.put_row(i, lanes(row), 10.0);
        }
        (dense, sparse)
    }

    /// The kernel is written once, so given identical rows the two
    /// stores must agree on every pair.
    #[test]
    fn stores_agree_on_the_kernel() {
        let (dense, sparse) = both_stores();
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(
                    dense.best_one_hop(a, b, 11.0, 45.0),
                    sparse.best_one_hop(a, b, 11.0, 45.0),
                    "pair ({a},{b})"
                );
                assert_eq!(
                    dense.one_hop_options(a, b, 11.0, 45.0),
                    sparse.one_hop_options(a, b, 11.0, 45.0)
                );
            }
        }
        for dst in 0..4 {
            assert_eq!(
                dense.anyone_reaches(dst, 11.0, 45.0),
                sparse.anyone_reaches(dst, 11.0, 45.0)
            );
        }
    }

    #[test]
    fn sparse_holds_only_received_rows() {
        let mut s = RowStore::new(100);
        assert_eq!(s.row_count(), 0);
        assert_eq!(s.entry_count(), 0);
        s.put_row(7, LaneRow::default(), 1.0);
        s.put_row(42, LaneRow::default(), 2.0);
        assert_eq!(s.row_count(), 2);
        // All-dead rows are present (they have a receipt time) but
        // materialise zero entries — absent reads as dead.
        assert_eq!(s.entry_count(), 0);
        assert_eq!(s.present_rows(), vec![7, 42]);
        assert_eq!(s.row_time(7), Some(1.0));
        assert_eq!(s.row_time(8), None);
        assert!(s.row_ref(8).is_none());
        // Absent rows read as dead, like the dense table's initial state.
        assert!(s.cost(8, 9).is_infinite());
        assert_eq!(s.cost(8, 8), 0.0);
        // Refreshing a row does not grow the store.
        s.put_row(7, LaneRow::default(), 3.0);
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.row_time(7), Some(3.0));
        // Clearing removes the allocation entirely.
        s.clear_row(7);
        assert_eq!(s.row_count(), 1);
        assert_eq!(s.peak_rows(), 2, "high-water mark is sticky");
    }

    #[test]
    fn rows_store_live_entries_only() {
        let mut s = RowStore::new(100);
        let mut row = vec![LinkEntry::dead(); 100];
        row[3] = LinkEntry::live(10, 0.0);
        row[64] = LinkEntry::live(20, 0.01);
        s.put_row(7, lanes(&row), 1.0);
        assert_eq!(s.entry_count(), 2, "dense input reduced to live entries");
        assert_eq!(s.entry(7, 64).latency_ms, 20);
        assert!(!s.entry(7, 4).alive);
        assert_eq!(s.row_ref(7).unwrap().to_dense(), row);
        // A row built from sparse pairs stores the same thing.
        let mut t = RowStore::new(100);
        t.put_row(
            7,
            pair_lanes(&[
                (3, LinkEntry::live(10, 0.0)),
                (64, LinkEntry::live(20, 0.01)),
            ]),
            1.0,
        );
        assert_eq!(t.row_ref(7).unwrap().to_dense(), row);
        assert_eq!(t.entry_count(), 2);
    }

    #[test]
    fn update_entry_creates_sparse_row() {
        let mut s = RowStore::new(5);
        s.update_entry(2, 4, LinkEntry::live(30, 0.0), 1.0);
        assert_eq!(s.row_count(), 1);
        assert_eq!(s.entry(2, 4).latency_ms, 30);
        assert!(!s.entry(2, 3).alive);
        assert_eq!(s.row_time(2), Some(1.0));
        // Killing the entry removes it from the stored row; the row and
        // its receipt time survive.
        s.update_entry(2, 4, LinkEntry::dead(), 2.0);
        assert_eq!(s.row_count(), 1);
        assert_eq!(s.entry_count(), 0);
        assert!(!s.entry(2, 4).alive);
        assert_eq!(s.row_time(2), Some(2.0));
        // Inserting out of order lands sorted.
        s.update_entry(2, 3, LinkEntry::live(9, 0.0), 3.0);
        s.update_entry(2, 1, LinkEntry::live(8, 0.0), 3.0);
        assert_eq!(
            s.row_ref(2).unwrap().iter_live().collect::<Vec<_>>(),
            vec![(1, LinkEntry::live(8, 0.0)), (3, LinkEntry::live(9, 0.0))]
        );
    }

    /// Partial (sparse) rows run the same merge-join kernel as dense
    /// rows holding the identical information.
    #[test]
    fn kernel_parity_on_partial_rows() {
        let n = 12;
        let mut dense = LinkStateTable::new(n);
        let mut sparse = RowStore::new(n);
        // Row a: live to {1, 3, 5, 7}; row b: live to {3, 4, 7, 11}.
        let rows: Vec<(usize, Vec<(u16, LinkEntry)>)> = vec![
            (
                0,
                vec![
                    (1, LinkEntry::live(10, 0.0)),
                    (3, LinkEntry::live(40, 0.0)),
                    (5, LinkEntry::live(25, 0.0)),
                    (7, LinkEntry::live(60, 0.0)),
                ],
            ),
            (
                9,
                vec![
                    (3, LinkEntry::live(15, 0.0)),
                    (4, LinkEntry::live(5, 0.0)),
                    (7, LinkEntry::live(30, 0.0)),
                    (11, LinkEntry::live(80, 0.0)),
                ],
            ),
        ];
        for (origin, entries) in &rows {
            dense.put_row(*origin, pair_lanes(entries), 1.0);
            sparse.put_row(*origin, pair_lanes(entries), 1.0);
        }
        let d = dense.best_one_hop(0, 9, 2.0, 45.0);
        assert_eq!(d, sparse.best_one_hop(0, 9, 2.0, 45.0));
        // Best hop is the live-intersection minimum: h=3 (40+15=55)
        // beats h=7 (60+30=90); no direct link exists.
        assert_eq!(d, Some((3, 55.0)));
        assert_eq!(
            dense.one_hop_options(0, 9, 2.0, 45.0),
            sparse.one_hop_options(0, 9, 2.0, 45.0)
        );
    }

    #[test]
    fn one_hop_options_skip_stale_and_absent_relays() {
        let (_, mut s) = both_stores();
        s.clear_row(1);
        let opts = s.one_hop_options(0, 3, 11.0, 45.0);
        assert_eq!(opts, vec![(2, 290.0)]);
        // A stale relay row disqualifies too.
        s.put_row(2, lanes(&detour_rows()[2]), -100.0);
        assert!(s.one_hop_options(0, 3, 11.0, 45.0).is_empty());
    }

    #[test]
    fn entitlement_tracks_peak() {
        let mut s = RowStore::with_entitlement(10, 4, 45.0);
        assert_eq!(s.entitlement(), Some(4));
        for i in 0..4 {
            s.put_row(i, LaneRow::default(), 0.0);
        }
        assert_eq!(s.peak_rows(), 4);
    }

    #[test]
    fn capacity_pressure_evicts_stale_rows_first() {
        let mut s = RowStore::with_entitlement(10, 2, 45.0);
        s.put_row(0, LaneRow::default(), 0.0);
        s.put_row(1, LaneRow::default(), 50.0);
        // At t=100, row 0 (age 100) and row 1 (age 50) are both stale:
        // a new arrival at the boundary sheds them instead of tripping
        // the entitlement assertion.
        s.put_row(2, LaneRow::default(), 100.0);
        assert_eq!(s.present_rows(), vec![2]);
        // A fresh row is never evicted by pressure.
        s.put_row(3, LaneRow::default(), 101.0);
        assert_eq!(s.present_rows(), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "entitlement")]
    #[cfg(debug_assertions)]
    fn fresh_overflow_is_debug_asserted() {
        // All rows fresh: eviction frees nothing, the guard must fire.
        let mut s = RowStore::with_entitlement(10, 2, 45.0);
        for i in 0..3 {
            s.put_row(i, LaneRow::default(), 1.0);
        }
    }

    #[test]
    fn telemetry_counts_merges_and_evictions() {
        let telemetry = Telemetry::new(7);
        let mut s = RowStore::with_entitlement(10, 2, 45.0).with_telemetry(telemetry.clone());
        s.put_row(0, LaneRow::default(), 0.0);
        s.put_row(1, LaneRow::default(), 50.0);
        // Both prior rows are stale at t=100: the boundary insert
        // sheds them, and every arrival counted as a merge.
        s.put_row(2, LaneRow::default(), 100.0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(7, "linkstate", "rows_merged"), Some(3));
        assert_eq!(snap.counter(7, "linkstate", "rows_evicted"), Some(2));
        assert_eq!(snap.gauge(7, "linkstate", "rows_held"), Some(1));
        // The two evicted rows are the stale ones; the new row stays.
        assert!(s.lane_row(0).is_none());
        assert!(s.lane_row(1).is_none());
        assert!(s.lane_row(2).is_some());
    }

    /// A store attached to a registry whose linkstate gauges already
    /// hold another store's sizes (the router rebuilt at a view change
    /// re-registers on the node's shared registry) reports its own
    /// sizes at once, and a fresh sum after its first write.
    #[test]
    fn attached_store_overwrites_stale_size_gauges() {
        const GAUGES: [&str; 3] = ["rows_held", "row_bytes_lanes", "row_bytes_aos"];
        let telemetry = Telemetry::new(5);
        for name in GAUGES {
            telemetry.gauge("linkstate", name).set(999);
        }
        let mut s = RowStore::new(8).with_telemetry(telemetry.clone());
        let gauges = || {
            let snap = telemetry.snapshot();
            GAUGES.map(|name| snap.gauge(5, "linkstate", name))
        };
        assert_eq!(gauges(), [Some(0); 3]);
        let row = pair_lanes(&[(0, LinkEntry::live(5, 0.0)), (3, LinkEntry::live(9, 0.0))]);
        s.put_row(2, row, 1.0);
        let held: usize = s
            .present_rows()
            .into_iter()
            .map(|o| s.row_ref(o).unwrap().iter_live().count())
            .sum();
        assert_eq!(
            gauges(),
            [
                Some(s.row_count() as u64),
                Some((held * LaneRow::ENTRY_BYTES) as u64),
                Some((held * std::mem::size_of::<(u16, LinkEntry)>()) as u64),
            ]
        );
    }

    /// The size gauges and `entry_count` read a running entry total;
    /// after every step of a seeded mix of whole-row writes, entry
    /// writes, clears and pressure evictions they must equal a sum
    /// taken from scratch over the held rows.
    #[test]
    fn size_gauges_match_a_fresh_sum() {
        let n = 16;
        let telemetry = Telemetry::new(3);
        let mut s = RowStore::with_entitlement(n, 6, 45.0).with_telemetry(telemetry.clone());
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for step in 0..400 {
            // 20 s per step: at most three rows are ever fresh, so the
            // entitlement boundary always finds stale rows to evict.
            let now = 20.0 * f64::from(step);
            let origin = next(n);
            match next(4) {
                0 | 1 => {
                    let row: Vec<LinkEntry> = (0..n)
                        .map(|_| {
                            if next(3) == 0 {
                                LinkEntry::live(next(500) as u16, 0.0)
                            } else {
                                LinkEntry::dead()
                            }
                        })
                        .collect();
                    s.put_row(origin, lanes(&row), now);
                }
                2 => {
                    let entry = if next(2) == 0 {
                        LinkEntry::live(next(500) as u16, 0.0)
                    } else {
                        LinkEntry::dead()
                    };
                    s.update_entry(origin, next(n), entry, now);
                }
                _ => s.clear_row(origin),
            }
            let held: usize = s
                .present_rows()
                .into_iter()
                .map(|o| s.row_ref(o).unwrap().iter_live().count())
                .sum();
            let snap = telemetry.snapshot();
            assert_eq!(s.entry_count(), held, "step {step}");
            assert_eq!(
                snap.gauge(3, "linkstate", "row_bytes_lanes"),
                Some((held * LaneRow::ENTRY_BYTES) as u64),
                "step {step}"
            );
            assert_eq!(
                snap.gauge(3, "linkstate", "row_bytes_aos"),
                Some((held * std::mem::size_of::<(u16, LinkEntry)>()) as u64),
                "step {step}"
            );
            assert_eq!(
                snap.gauge(3, "linkstate", "rows_held"),
                Some(s.row_count() as u64)
            );
        }
        let evicted = telemetry.snapshot().counter(3, "linkstate", "rows_evicted");
        assert!(evicted.unwrap_or(0) > 0, "the mix must exercise eviction");
    }

    /// Relabeling moves live entries and retractions by the map, drops
    /// unmapped destinations, re-sorts, and keeps seqno and wire bytes.
    #[test]
    fn relabel_moves_both_lanes() {
        let row = pair_lanes(&[
            (0, LinkEntry::live(5, 0.0)),
            (2, LinkEntry::live(7, 0.02)),
            (3, LinkEntry::live(9, 0.0)),
        ])
        .with_version(41, &[1, 3]);
        // 0 → 2, 1 → 0, 2 leaves, 3 → 1: order is not preserved.
        let moved = row.relabel(|d| [Some(2), Some(0), None, Some(1)][usize::from(d)]);
        assert_eq!(
            moved,
            pair_lanes(&[(1, LinkEntry::live(9, 0.0)), (2, LinkEntry::live(5, 0.0))])
                .with_version(41, &[0, 1])
        );
    }

    /// The cursor agrees with fresh `get`/`cost_u32` lookups under any
    /// probe order — ascending (the fast path), backwards (the binary
    /// search fallback), repeats, and misses — on both row variants.
    #[test]
    fn cursor_matches_fresh_lookups_in_any_order() {
        let n = 12;
        let mut row = vec![LinkEntry::dead(); n];
        for d in [1usize, 4, 5, 9, 11] {
            row[d] = LinkEntry::live(10 * d as u16, 0.01);
        }
        let lanes = LaneRow::from_dense(&row);
        let wire: Vec<WireEntry> = row.iter().map(LinkEntry::encode).collect();
        let views = [RowRef::Dense(&wire), lanes.as_row_ref(n)];
        let probes = [0usize, 1, 4, 4, 9, 11, 2, 5, 10, 0, 11, 3];
        for view in views {
            let mut cur = view.cursor();
            for &d in &probes {
                assert_eq!(cur.get(d), view.get(d), "get({d}) via cursor");
            }
            let mut cur = view.cursor();
            for &d in &probes {
                assert_eq!(
                    cur.cost_u32(d),
                    view.cost_u32(d),
                    "cost_u32({d}) via cursor"
                );
            }
        }
    }

    /// Lane rows store the exact wire bytes: building from entries that
    /// need wire clamping (latency 65535, off-grid loss) equals
    /// building from their decoded wire forms.
    #[test]
    fn lane_rows_are_wire_exact() {
        let row = vec![
            LinkEntry::live(u16::MAX, 0.123), // latency clamps to 65534
            LinkEntry::dead(),
            LinkEntry::live(0, 0.9999), // loss saturates at 63.5 %
        ];
        let wired: Vec<LinkEntry> = row.iter().map(|e| LinkEntry::decode(e.encode())).collect();
        assert_eq!(LaneRow::from_dense(&row), LaneRow::from_dense(&wired));
        let lanes = LaneRow::from_dense(&row);
        let view = lanes.as_row_ref(3);
        assert_eq!(view.get(0), LinkEntry::decode(row[0].encode()));
        assert_eq!(view.get(0).latency_ms, u16::MAX - 1);
        assert_eq!(view.get(1), LinkEntry::dead());
        // The wire ingest paths take the encoded bytes verbatim, so they
        // agree with the prober path — and keep a live 0xFFFF latency,
        // which no encoder emits, as received.
        let wire: Vec<WireEntry> = row.iter().map(LinkEntry::encode).collect();
        assert_eq!(LaneRow::from_wire(&wire), lanes);
        let pairs = [(0, wire[0]), (1, wire[1]), (2, wire[2])];
        assert_eq!(LaneRow::from_wire_pairs(&pairs), lanes);
        let raw = LaneRow::from_wire(&[[0xFF, 0xFF, 0x80], [0x12, 0x34, 0x05]]);
        assert_eq!(
            raw.iter_wire().collect::<Vec<_>>(),
            vec![(0, [0xFF, 0xFF, 0x80])]
        );
        assert_eq!(raw.as_row_ref(2).cost_u32(0), 65_535);
    }

    /// The dense × dense fast path picks the merge-join's relay on
    /// random wire rows: narrow latency bands for ties, dead entries
    /// with junk latency/loss bytes, live 65535-ms legs, and live
    /// entries at the excluded `a`/`b` positions.
    #[test]
    fn dense_fast_path_matches_merge_join() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..2000 {
            let n = 1 + next(40) as usize;
            let dead_pct = [0, 30, 90, 100][case % 4];
            let mut row = || -> Vec<WireEntry> {
                (0..n)
                    .map(|_| {
                        let lat = match next(4) {
                            0 => 1 + next(3) as u16,
                            1 => u16::MAX,
                            _ => next(2000) as u16,
                        };
                        let [hi, lo] = lat.to_be_bytes();
                        let junk = next(128) as u8;
                        if next(100) < dead_pct {
                            [next(256) as u8, next(256) as u8, junk]
                        } else {
                            [hi, lo, 0x80 | junk]
                        }
                    })
                    .collect()
            };
            let (ra, rb) = (row(), row());
            let (a, b) = (next(n as u64 + 1) as usize, next(n as u64 + 1) as usize);
            let (va, vb) = (RowRef::Dense(&ra), RowRef::Dense(&rb));
            assert_eq!(
                dense_shared_best(&ra, &rb, a, b),
                merge_join_best(&va, &vb, a, b),
                "case {case}: n={n} a={a} b={b}"
            );
            if a < n && b < n {
                let (la, lb) = (LaneRow::from_wire(&ra), LaneRow::from_wire(&rb));
                assert_eq!(
                    best_one_hop_rows(&va, &vb, a, b),
                    best_one_hop_rows(&la.as_row_ref(n), &lb.as_row_ref(n), a, b),
                    "case {case}: dense vs lanes"
                );
            }
        }
    }

    #[test]
    fn seqno_comparison_is_circular() {
        assert!(seqno_newer(1, 2));
        assert!(!seqno_newer(2, 1));
        assert!(!seqno_newer(5, 5));
        // Wrap-around: 2 is newer than 65535, not 32767 behind it.
        assert!(seqno_newer(u16::MAX, 2));
        assert!(!seqno_newer(2, u16::MAX));
    }

    #[test]
    fn versioned_updates_reject_stale_replays() {
        let n = 4;
        let mut s = RowStore::new(n);
        let versioned = |costs: &[u16], seqno| lanes(&live_row(costs)).with_version(seqno, &[]);
        assert!(s.put_row(0, versioned(&[0, 10, 20, 30], 5), 1.0));
        assert_eq!(s.row_seqno(0), 5);
        // Same seqno refreshes (periodic re-announcement), newer advances.
        assert!(s.put_row(0, versioned(&[0, 11, 20, 30], 5), 2.0));
        assert_eq!(s.row_time(0), Some(2.0));
        let retracting = pair_lanes(&[(1, LinkEntry::live(9, 0.0))]).with_version(6, &[2]);
        assert!(s.put_row(0, retracting.clone(), 3.0));
        assert_eq!(
            s.lane_row(0),
            Some(retracting),
            "export keeps seqno and lane"
        );
        assert_eq!(s.row_seqno(0), 6);
        assert!(s.row_retracts(0, 2));
        assert!(!s.row_retracts(0, 1));
        // A delayed replay of the older row must not resurrect dst 2.
        assert!(!s.put_row(0, versioned(&[0, 10, 20, 30], 5), 4.0));
        assert_eq!(s.row_seqno(0), 6);
        assert_eq!(s.row_time(0), Some(3.0), "rejected replay leaves the row");
        assert!(!s.entry(0, 2).alive);
        // Unversioned rows (seqno 0) always pass — no flag day.
        assert!(s.put_row(0, versioned(&[0, 10, 20, 30], 0), 5.0));
        assert_eq!(s.row_seqno(0), 0);
        assert!(!s.row_retracts(0, 2));
    }

    /// `k_hop_options` with one hop is `one_hop_options`, option for
    /// option; with more hops it splices paths scavenging can't see.
    #[test]
    fn k_hop_options_generalize_one_hop() {
        let n = 5;
        let mut s = RowStore::new(n);
        // A chain 0 → 1 → 2 → 3 → 4 plus a dead-end shortcut 0 → 2.
        let inf = u16::MAX;
        let rows: &[&[u16]] = &[
            &[0, 10, 50, inf, inf],
            &[10, 0, 10, inf, inf],
            &[50, 10, 0, 10, inf],
            &[inf, inf, 10, 0, 10],
            &[inf, inf, inf, 10, 0],
        ];
        for (origin, costs) in rows.iter().enumerate() {
            let entries: Vec<LinkEntry> = costs
                .iter()
                .map(|&c| {
                    if c == inf {
                        LinkEntry::dead()
                    } else {
                        LinkEntry::live(c, 0.0)
                    }
                })
                .collect();
            s.put_row(origin, lanes(&entries), 10.0);
        }
        // k = 1 parity with the scavenging kernel.
        for (a, b) in [(0, 2), (0, 4), (1, 3), (2, 0)] {
            let one: Vec<(usize, Cost)> = s.one_hop_options(a, b, 10.5, 45.0);
            let k: Vec<(usize, Cost)> = s
                .k_hop_options(a, b, 1, 10.5, 45.0)
                .into_iter()
                .map(|(path, cost, _)| {
                    assert_eq!(path.len(), 3);
                    assert_eq!((path[0], path[2]), (a, b));
                    (path[1], cost)
                })
                .collect();
            assert_eq!(one, k, "pair ({a},{b})");
        }
        // 0 → 4 needs at least two intermediate relays; 1-hop scavenging
        // finds nothing, 2-hop pays the expensive 0 → 2 link, 3-hop
        // routes around it.
        assert!(s.k_hop_options(0, 4, 1, 10.5, 45.0).is_empty());
        let two = s.k_hop_options(0, 4, 2, 10.5, 45.0);
        assert_eq!(two[0].0, vec![0, 2, 3, 4]);
        assert_eq!(two[0].1, 70.0);
        let opts = s.k_hop_options(0, 4, 3, 10.5, 45.0);
        let (path, cost, remaining) = &opts[0];
        assert_eq!(path, &[0, 1, 2, 3, 4]);
        assert_eq!(*cost, 40.0);
        assert_eq!(*remaining, 30.0, "cost the first relay advertises");
        // Wider budgets don't invent longer paths when shorter ones win.
        assert_eq!(
            s.k_hop_options(0, 4, 8, 10.5, 45.0)[0].0,
            vec![0, 1, 2, 3, 4]
        );
        // Paths are simple: no candidate revisits a node.
        for (path, _, _) in s.k_hop_options(0, 4, 8, 10.5, 45.0) {
            let mut seen = path.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), path.len(), "path {path:?} revisits a node");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn put_row_bounds_checked() {
        RowStore::new(2).put_row(2, lanes(&live_row(&[0, 1])), 0.0);
    }

    #[test]
    #[should_panic(expected = "destination out of range")]
    fn put_row_destination_checked() {
        RowStore::new(2).put_row(0, lanes(&live_row(&[0, 1, 2])), 0.0);
    }
}
