//! The dense `n × n` link-state table — the full-mesh baseline's store.
//!
//! Kept for the RON baseline (which genuinely holds every row) and as
//! the reference implementation in tests; quorum nodes use the sparse
//! [`RowStore`](crate::store::RowStore) instead. All route computation
//! lives in the [`LinkStateStore`] trait, written once over both.
//!
//! Why full mesh stays dense: every full-mesh frame is a dense `n`-entry
//! row, and [`LinkStateTable::put_dense`] ingests it with one slice copy.
//! Running the full-mesh router over `RowStore` instead was measured on
//! the `fullmesh-400` system benchmark (seed 1, three alternating runs
//! on a 2-core Intel Xeon VM): outputs were bit-identical and peak RSS
//! fell from 557 to 486 MB, but wall time rose from 5.1/8.0/7.6 s to
//! 18.2/20.5/18.9 s and the traced link-state ingest p50 from 4.2 µs to
//! 42 µs: every dense frame was re-encoded into freshly allocated lanes
//! instead of copied.

use crate::entry::LinkEntry;
use crate::store::{LaneRow, LinkStateStore, RowRef};
use serde::{Deserialize, Serialize};

/// A node's dense view of the full `n × n` link-state matrix.
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
    entries: Vec<LinkEntry>,
    /// Receipt time (seconds) of each row; `None` = never received.
    row_time: Vec<Option<f64>>,
}

impl LinkStateTable {
    /// An empty table over `n` nodes (all entries dead, all rows unknown).
    #[must_use]
    pub fn new(n: usize) -> Self {
        LinkStateTable {
            n,
            entries: vec![LinkEntry::dead(); n * n],
            row_time: vec![None; n],
        }
    }

    /// Replace row `origin` with a full-width row by slice copy,
    /// stamped at `now` — the full-mesh ingest path for dense frames
    /// and the node's own row. Unversioned, like every table row.
    ///
    /// # Panics
    /// Panics if `origin ≥ n` or `entries.len() != n`.
    pub fn put_dense(&mut self, origin: usize, entries: &[LinkEntry], now: f64) {
        assert!(origin < self.n, "row {origin} out of range");
        assert_eq!(entries.len(), self.n, "row must have n entries");
        self.entries[origin * self.n..(origin + 1) * self.n].copy_from_slice(entries);
        self.row_time[origin] = Some(now);
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
        let dense = &mut self.entries[origin * self.n..(origin + 1) * self.n];
        dense.fill(LinkEntry::dead());
        for (dst, e) in row.as_row_ref(self.n).iter_live() {
            dense[dst] = e;
        }
        self.row_time[origin] = Some(now);
        true
    }

    fn update_entry(&mut self, origin: usize, dst: usize, entry: LinkEntry, now: f64) {
        assert!(origin < self.n && dst < self.n);
        self.entries[origin * self.n + dst] = entry;
        self.row_time[origin] = Some(now);
    }

    fn clear_row(&mut self, origin: usize) {
        for e in &mut self.entries[origin * self.n..(origin + 1) * self.n] {
            *e = LinkEntry::dead();
        }
        self.row_time[origin] = None;
    }

    fn row_ref(&self, origin: usize) -> Option<RowRef<'_>> {
        self.row_time[origin]?;
        Some(RowRef::Dense(
            &self.entries[origin * self.n..(origin + 1) * self.n],
        ))
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

    fn live_row(costs: &[u16]) -> Vec<LinkEntry> {
        costs.iter().map(|&c| LinkEntry::live(c, 0.0)).collect()
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
            assert!(t.put_row(i, LaneRow::from_dense(&live_row(costs)), 10.0));
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
        t.put_dense(
            0,
            &[LinkEntry::dead(), LinkEntry::dead(), LinkEntry::dead()],
            0.0,
        );
        t.put_dense(
            2,
            &[LinkEntry::dead(), LinkEntry::dead(), LinkEntry::dead()],
            0.0,
        );
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
        dead_row[2] = LinkEntry::dead();
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
        row[2] = LinkEntry::dead();
        let mut lanes = LinkStateTable::new(4);
        lanes.put_dense(1, &live_row(&[1, 1, 1, 1]), 0.0);
        assert!(lanes.put_row(1, LaneRow::from_dense(&row).with_version(3, &[2]), 5.0));
        let mut dense = LinkStateTable::new(4);
        dense.put_dense(1, &row, 5.0);
        assert_eq!(lanes.row_ref(1).unwrap().to_dense(), row);
        assert_eq!(dense.row_ref(1).unwrap().to_dense(), row);
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
        LinkStateTable::new(2).put_row(0, LaneRow::from_dense(&live_row(&[0, 1, 2])), 0.0);
    }
}
