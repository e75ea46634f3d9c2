//! The dense `n × n` link-state table — the full-mesh baseline's store.
//!
//! Kept for the RON baseline (which genuinely holds every row) and as
//! the reference implementation in tests; quorum nodes use the sparse
//! [`RowStore`](crate::store::RowStore) instead. All route computation
//! lives in the [`LinkStateStore`] trait, written once over both.
//!
//! Layout: the table holds `n²` entries in their 3-byte wire form
//! ([`WireEntry`]), exactly the bytes a dense link-state frame carries,
//! so ingesting a received row — [`LinkStateTable::put_dense`] — is a
//! length check plus one slice copy, with no per-entry decode. Reads
//! decode on demand: [`RowRef::get`] rebuilds a [`LinkEntry`], and the
//! integer kernel reads only the alive bit and the big-endian latency.
//! At `n = 400` the matrix is 480 kB per node instead of the 1.28 MB
//! that 8-byte `LinkEntry` structs took.
//!
//! Why full mesh stays dense: every full-mesh frame is a dense `n`-entry
//! row, and `put_dense` ingests it with one slice copy. Running the
//! full-mesh router over `RowStore` instead was measured on the
//! `fullmesh-400` system benchmark (seed 1, three alternating runs on a
//! 2-core Intel Xeon VM, with the table still holding `LinkEntry`
//! structs): outputs were bit-identical and peak RSS fell from 557 to
//! 486 MB, but wall time rose from 5.1/8.0/7.6 s to 18.2/20.5/18.9 s
//! and the traced link-state ingest p50 from 4.2 µs to 42 µs: every
//! dense frame was re-encoded into freshly allocated lanes instead of
//! copied. Keeping the wire bytes then took the frame decode out of
//! ingest as well. On the same benchmark (seeds 1 and 2, ten
//! alternating runs against the `LinkEntry` table on a 2-vCPU Intel
//! Xeon VM) the median `wall_s` fell from 3.88 to 2.57 s, `setup_s`
//! from 3.71 to 2.55 s and peak RSS from 550 to 245 MB, with every
//! simulated output bit-identical.

use crate::entry::{LinkEntry, WireEntry, DEAD_WIRE};
use crate::store::{LaneRow, LinkStateStore, RowRef};
use serde::{Deserialize, Serialize};

/// A node's dense view of the full `n × n` link-state matrix, one
/// 3-byte [`WireEntry`] per link.
///
/// Row `i` holds node `i`'s own measurements of its direct links. A node
/// populates its own row from its probers and the other rows from the
/// link-state messages of its rendezvous clients (or, in the full-mesh
/// baseline, of everyone). Rows carry the receipt time so the round-two
/// computation can ignore stale data — the paper accepts measurements
/// "sent to it within the last 3 routing intervals" (section 6.2.2).
///
/// Indices are membership/grid indices, not raw [`NodeId`]s; the overlay
/// layer owns that mapping and remaps stores on membership change.
///
/// [`NodeId`]: apor_quorum::NodeId
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkStateTable {
    n: usize,
    entries: Vec<WireEntry>,
    /// Receipt time (seconds) of each row; `None` = never received.
    row_time: Vec<Option<f64>>,
}

impl LinkStateTable {
    /// An empty table over `n` nodes (all entries dead, all rows unknown).
    #[must_use]
    pub fn new(n: usize) -> Self {
        LinkStateTable {
            n,
            entries: vec![DEAD_WIRE; n * n],
            row_time: vec![None; n],
        }
    }

    /// Replace row `origin` with a full-width row of wire entries by
    /// slice copy, stamped at `now` — the full-mesh ingest path for a
    /// dense frame's entries and for the node's own encoded row.
    /// Unversioned, like every table row.
    ///
    /// # Panics
    /// Panics if `origin ≥ n` or `entries.len() != n`.
    pub fn put_dense(&mut self, origin: usize, entries: &[WireEntry], now: f64) {
        assert!(origin < self.n, "row {origin} out of range");
        assert_eq!(entries.len(), self.n, "row must have n entries");
        self.row_mut(origin).copy_from_slice(entries);
        self.row_time[origin] = Some(now);
    }

    /// Row `origin`'s wire entries, whether received or not.
    fn row(&self, origin: usize) -> &[WireEntry] {
        &self.entries[origin * self.n..(origin + 1) * self.n]
    }

    fn row_mut(&mut self, origin: usize) -> &mut [WireEntry] {
        &mut self.entries[origin * self.n..(origin + 1) * self.n]
    }
}

impl LinkStateStore for LinkStateTable {
    fn len(&self) -> usize {
        self.n
    }

    /// Expands the lanes into the dense row; the seqno and retractions
    /// are not kept, so every row is accepted.
    fn put_row(&mut self, origin: usize, row: LaneRow, now: f64) -> bool {
        assert!(origin < self.n, "row {origin} out of range");
        assert!(row.fits(self.n), "row destination out of range");
        let dense = self.row_mut(origin);
        dense.fill(DEAD_WIRE);
        for (dst, wire) in row.iter_wire() {
            dense[usize::from(dst)] = wire;
        }
        self.row_time[origin] = Some(now);
        true
    }

    fn update_entry(&mut self, origin: usize, dst: usize, entry: LinkEntry, now: f64) {
        assert!(origin < self.n && dst < self.n);
        self.entries[origin * self.n + dst] = entry.encode();
        self.row_time[origin] = Some(now);
    }

    fn clear_row(&mut self, origin: usize) {
        self.row_mut(origin).fill(DEAD_WIRE);
        self.row_time[origin] = None;
    }

    /// The row's live wire entries as lanes, unversioned.
    fn lane_row(&self, origin: usize) -> Option<LaneRow> {
        self.row_time[origin]?;
        Some(LaneRow::from_wire(self.row(origin)))
    }

    fn row_ref(&self, origin: usize) -> Option<RowRef<'_>> {
        self.row_time[origin]?;
        Some(RowRef::Dense(self.row(origin)))
    }

    fn row_time(&self, origin: usize) -> Option<f64> {
        self.row_time[origin]
    }

    fn present_rows(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&i| self.row_time[i].is_some())
            .collect()
    }

    fn row_count(&self) -> usize {
        self.row_time.iter().filter(|t| t.is_some()).count()
    }

    fn entry_count(&self) -> usize {
        // Dense: the full matrix is allocated whether received or not.
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn live_row(costs: &[u16]) -> Vec<WireEntry> {
        costs
            .iter()
            .map(|&c| LinkEntry::live(c, 0.0).encode())
            .collect()
    }

    /// A 4-node world where 0→3 direct is 500 ms but 0→1→3 is 150 ms.
    fn detour_table() -> LinkStateTable {
        let mut t = LinkStateTable::new(4);
        for (i, costs) in [
            [0, 50, 200, 500],
            [50, 0, 80, 100],
            [200, 80, 0, 90],
            [500, 100, 90, 0],
        ]
        .iter()
        .enumerate()
        {
            assert!(t.put_row(i, LaneRow::from_wire(&live_row(costs)), 10.0));
        }
        t
    }

    #[test]
    fn best_one_hop_finds_detour() {
        let t = detour_table();
        let (hop, cost) = t.best_one_hop(0, 3, 11.0, 45.0).unwrap();
        assert_eq!(hop, 1);
        assert_eq!(cost, 150.0);
    }

    #[test]
    fn best_one_hop_prefers_direct_on_tie() {
        let mut t = LinkStateTable::new(3);
        t.put_dense(0, &live_row(&[0, 50, 100]), 0.0);
        t.put_dense(1, &live_row(&[50, 0, 50]), 0.0);
        t.put_dense(2, &live_row(&[100, 50, 0]), 0.0);
        // 0→2 direct = 100 = 0→1→2; prefer direct (hop == dst).
        let (hop, cost) = t.best_one_hop(0, 2, 1.0, 45.0).unwrap();
        assert_eq!(hop, 2);
        assert_eq!(cost, 100.0);
    }

    #[test]
    fn best_one_hop_requires_fresh_rows() {
        let t = detour_table();
        // Rows stamped at t=10; at now=100 with max_age=45 they're stale.
        assert!(t.best_one_hop(0, 3, 100.0, 45.0).is_none());
        assert!(t.best_one_hop(0, 3, 55.0, 45.0).is_some());
    }

    #[test]
    fn best_one_hop_missing_row_is_none() {
        let mut t = LinkStateTable::new(3);
        t.put_dense(0, &live_row(&[0, 10, 10]), 0.0);
        assert!(t.best_one_hop(0, 2, 0.0, 45.0).is_none());
    }

    #[test]
    fn best_one_hop_skips_dead_links() {
        let mut t = detour_table();
        // Kill 0→1 (in 0's row): detour must shift to hop 2 (200+90=290).
        t.update_entry(0, 1, LinkEntry::dead(), 10.0);
        let (hop, cost) = t.best_one_hop(0, 3, 11.0, 45.0).unwrap();
        assert_eq!(hop, 2);
        assert_eq!(cost, 290.0);
    }

    #[test]
    fn best_one_hop_uses_min_direction_for_direct() {
        let mut t = LinkStateTable::new(2);
        t.put_dense(0, &live_row(&[0, 300]), 0.0);
        t.put_dense(1, &live_row(&[200, 0]), 0.0);
        let (hop, cost) = t.best_one_hop(0, 1, 0.0, 45.0).unwrap();
        assert_eq!(hop, 1);
        assert_eq!(cost, 200.0);
    }

    #[test]
    fn all_dead_returns_none() {
        let mut t = LinkStateTable::new(3);
        t.put_dense(0, &[DEAD_WIRE; 3], 0.0);
        t.put_dense(2, &[DEAD_WIRE; 3], 0.0);
        assert!(t.best_one_hop(0, 2, 0.0, 45.0).is_none());
    }

    #[test]
    fn one_hop_options_sorted() {
        let t = detour_table();
        let opts = t.one_hop_options(0, 3, 11.0, 45.0);
        assert_eq!(opts.len(), 2);
        assert_eq!(opts[0], (1, 150.0));
        assert_eq!(opts[1], (2, 290.0));
    }

    #[test]
    fn one_hop_options_skip_stale_relays() {
        let mut t = detour_table();
        t.clear_row(1);
        let opts = t.one_hop_options(0, 3, 11.0, 45.0);
        assert_eq!(opts, vec![(2, 290.0)]);
    }

    #[test]
    fn anyone_reaches_sees_live_entries() {
        let mut t = LinkStateTable::new(3);
        assert!(!t.anyone_reaches(2, 0.0, 45.0));
        t.put_dense(1, &live_row(&[10, 0, 10]), 0.0);
        assert!(t.anyone_reaches(2, 1.0, 45.0));
        // Staleness disqualifies.
        assert!(!t.anyone_reaches(2, 100.0, 45.0));
        // A dead entry doesn't count.
        let mut dead_row = live_row(&[10, 0, 10]);
        dead_row[2] = DEAD_WIRE;
        t.put_dense(1, &dead_row, 200.0);
        assert!(!t.anyone_reaches(2, 201.0, 45.0));
    }

    #[test]
    fn clear_row_resets() {
        let mut t = detour_table();
        t.clear_row(0);
        assert!(t.row_time(0).is_none());
        assert!(t.cost(0, 1).is_infinite());
        assert_eq!(t.cost(0, 0), 0.0);
    }

    #[test]
    fn path_cost_direct_and_relayed() {
        let t = detour_table();
        assert_eq!(t.path_cost(0, 3, 3), 500.0);
        assert_eq!(t.path_cost(0, 1, 3), 150.0);
    }

    #[test]
    fn row_age_tracking() {
        let mut t = LinkStateTable::new(2);
        assert_eq!(t.row_age(0, 5.0), None);
        t.put_dense(0, &live_row(&[0, 5]), 3.0);
        assert_eq!(t.row_age(0, 5.0), Some(2.0));
        assert!(t.row_fresh(0, 5.0, 2.0));
        assert!(!t.row_fresh(0, 5.1, 2.0));
    }

    /// The table keeps wire entries, so a single-entry write reads back
    /// wire-quantized — latency clamped below the dead sentinel, loss
    /// in half-percent steps — exactly as the row store holds it.
    #[test]
    fn update_entry_reads_back_wire_quantized() {
        let entry = LinkEntry::live(u16::MAX, 0.123);
        let mut t = LinkStateTable::new(3);
        let mut s = crate::store::RowStore::new(3);
        t.update_entry(0, 2, entry, 1.0);
        s.update_entry(0, 2, entry, 1.0);
        let got = t.entry(0, 2);
        assert_eq!(got, LinkEntry::decode(entry.encode()));
        assert_eq!(got.latency_ms, u16::MAX - 1);
        assert_eq!(got.loss, 0.125);
        assert_eq!(got, s.entry(0, 2));
        assert_eq!(t.lane_row(0), s.lane_row(0));
    }

    #[test]
    fn state_accounting_is_dense() {
        let mut t = LinkStateTable::new(5);
        assert_eq!(t.entry_count(), 25, "dense allocates n² regardless");
        assert_eq!(t.row_count(), 0);
        t.put_dense(3, &live_row(&[1, 1, 1, 1, 1]), 0.0);
        assert_eq!(t.row_count(), 1);
        assert_eq!(t.present_rows(), vec![3]);
    }

    /// A lane row lands exactly where the dense slice copy of the same
    /// row would: unlisted destinations read dead, and any previous
    /// contents of the row are overwritten. The table keeps no version.
    #[test]
    fn put_row_matches_put_dense() {
        let mut row = live_row(&[0, 7, 9, 11]);
        row[2] = DEAD_WIRE;
        let mut lanes = LinkStateTable::new(4);
        lanes.put_dense(1, &live_row(&[1, 1, 1, 1]), 0.0);
        assert!(lanes.put_row(1, LaneRow::from_wire(&row).with_version(3, &[2]), 5.0));
        let mut dense = LinkStateTable::new(4);
        dense.put_dense(1, &row, 5.0);
        let decoded: Vec<LinkEntry> = row.iter().map(|&w| LinkEntry::decode(w)).collect();
        assert_eq!(lanes.row_ref(1).unwrap().to_dense(), decoded);
        assert_eq!(dense.row_ref(1).unwrap().to_dense(), decoded);
        assert_eq!(lanes.lane_row(1), dense.lane_row(1));
        assert_eq!(lanes.row_time(1), Some(5.0));
        assert_eq!(lanes.row_seqno(1), 0);
        assert!(!lanes.row_retracts(1, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn put_dense_bounds_checked() {
        LinkStateTable::new(2).put_dense(2, &live_row(&[0, 1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "n entries")]
    fn put_dense_length_checked() {
        LinkStateTable::new(3).put_dense(0, &live_row(&[0, 1]), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn put_row_bounds_checked() {
        LinkStateTable::new(2).put_row(2, LaneRow::default(), 0.0);
    }

    #[test]
    #[should_panic(expected = "destination out of range")]
    fn put_row_destination_checked() {
        LinkStateTable::new(2).put_row(0, LaneRow::from_wire(&live_row(&[0, 1, 2])), 0.0);
    }
}
