//! The full-mesh link-state baseline — RON's original routing algorithm.
//!
//! Every routing interval each node broadcasts its measured link-state row
//! to *all* other nodes, so everyone holds the whole matrix and computes
//! optimal one-hop routes locally. Correct and simple, but `Θ(n²)`
//! per-node communication — the cost the paper's quorum scheme removes.

use crate::config::ProtocolConfig;
use crate::{export_store_rows, RoutingAlgorithm, TickOut, VersionedRow};
use apor_linkstate::{LinkEntry, LinkStateMsg, LinkStateStore, LinkStateTable, Message, WireEntry};
use apor_quorum::NodeId;

/// The baseline router over the dense table: every node legitimately
/// holds all `n` rows here, so dense `O(1)` row lookups and slice-copy
/// ingest of dense frames are the right trade (the measured reason is
/// in [`apor_linkstate::table`]). Rows stay in their 3-byte wire form
/// from the frame body to the table.
#[derive(Debug)]
pub struct FullMeshRouter {
    me: usize,
    n: usize,
    view: u32,
    round: u32,
    config: ProtocolConfig,
    table: LinkStateTable,
}

impl FullMeshRouter {
    /// A baseline router for node `me` of `n` under membership `view`.
    ///
    /// # Panics
    /// Panics if `me ≥ n`.
    #[must_use]
    pub fn new(me: usize, n: usize, view: u32, config: ProtocolConfig) -> Self {
        assert!(me < n);
        FullMeshRouter {
            me,
            n,
            view,
            round: 0,
            config,
            table: LinkStateTable::new(n),
        }
    }

    /// The link-state store (for inspection).
    #[must_use]
    pub fn table(&self) -> &LinkStateTable {
        &self.table
    }
}

impl RoutingAlgorithm for FullMeshRouter {
    fn on_routing_tick(
        &mut self,
        now: f64,
        own_row: &[LinkEntry],
        _rng: &mut rand_chacha::ChaCha8Rng,
    ) -> TickOut {
        // Encoded once: the same bytes are my table row and the frame.
        let wire: Vec<WireEntry> = own_row.iter().map(LinkEntry::encode).collect();
        self.table.put_dense(self.me, &wire, now);
        self.round += 1;
        // One row, broadcast: built once, addressed to every peer.
        TickOut {
            frame: Some(Message::LinkState(LinkStateMsg {
                from: NodeId::from_index(self.me),
                to: NodeId::from_index(self.me),
                view: self.view,
                round: self.round,
                basis_ms: (now * 1000.0) as u32,
                entries: wire,
                seqno: 0,
                retractions: vec![],
            })),
            frame_to: (0..self.n).filter(|&j| j != self.me).collect(),
            msgs: Vec::new(),
        }
    }

    fn on_message(&mut self, now: f64, msg: &Message) -> Vec<Message> {
        if let Message::LinkState(ls) = msg {
            if ls.view == self.view
                && ls.entries.len() == self.n
                && ls.from.index() < self.n
                && ls.from.index() != self.me
            {
                self.table.put_dense(ls.from.index(), &ls.entries, now);
            }
        }
        Vec::new()
    }

    fn best_hop(&self, dst: usize, now: f64) -> Option<usize> {
        if dst == self.me || dst >= self.n {
            return None;
        }
        let max_age = self.config.staleness_s();
        let direct = if self.table.row_fresh(self.me, now, max_age) {
            self.table.entry(self.me, dst).cost()
        } else {
            f64::INFINITY
        };
        let mut best = (dst, direct);
        for (h, c) in self.table.one_hop_options(self.me, dst, now, max_age) {
            if c < best.1 {
                best = (h, c);
            }
        }
        best.1.is_finite().then_some(best.0)
    }

    fn route_age(&self, dst: usize, now: f64) -> Option<f64> {
        // The full-mesh analogue of "time since last recommendation" is
        // the age of the destination's link-state broadcast.
        self.table.row_age(dst, now)
    }

    fn double_rendezvous_failures(&self, _now: f64) -> usize {
        0
    }

    fn export_rows(&self) -> Vec<VersionedRow> {
        export_store_rows(&self.table)
    }

    fn import_row(&mut self, row: &VersionedRow) {
        if row.origin >= self.n || !row.row.fits(self.n) {
            return;
        }
        // Full mesh: every row is entitled.
        self.table
            .put_row(row.origin, row.row.clone(), row.received_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apor_linkstate::LaneRow;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0)
    }

    fn live_row(costs: &[u16]) -> Vec<LinkEntry> {
        costs.iter().map(|&c| LinkEntry::live(c, 0.0)).collect()
    }

    /// Wire three routers together by hand and check that everyone learns
    /// optimal one-hop routes.
    #[test]
    fn three_node_convergence() {
        let cfg = ProtocolConfig::ron();
        let mut routers: Vec<FullMeshRouter> = (0..3)
            .map(|i| FullMeshRouter::new(i, 3, 0, cfg.clone()))
            .collect();
        // Node 0↔2 expensive (300), 0↔1 and 1↔2 cheap (50): relay via 1 wins.
        let rows = [
            live_row(&[0, 50, 300]),
            live_row(&[50, 0, 50]),
            live_row(&[300, 50, 0]),
        ];
        let mut r = rng();
        let ticks: Vec<TickOut> = routers
            .iter_mut()
            .enumerate()
            .map(|(i, router)| router.on_routing_tick(1.0, &rows[i], &mut r))
            .collect();
        // Each of 3 nodes broadcasts to 2 peers.
        assert_eq!(
            ticks.iter().map(|t| t.deliveries().count()).sum::<usize>(),
            6
        );
        for tick in &ticks {
            for (to, m) in tick.deliveries() {
                routers[to].on_message(1.1, m);
            }
        }
        assert_eq!(routers[0].best_hop(2, 2.0), Some(1));
        assert_eq!(routers[2].best_hop(0, 2.0), Some(1));
        assert_eq!(routers[0].best_hop(1, 2.0), Some(1), "direct best");
    }

    #[test]
    fn stale_tables_stop_routing() {
        let cfg = ProtocolConfig::ron();
        let mut a = FullMeshRouter::new(0, 2, 0, cfg.clone());
        let mut b = FullMeshRouter::new(1, 2, 0, cfg.clone());
        let mut r = rng();
        let tick = a.on_routing_tick(0.0, &live_row(&[0, 10]), &mut r);
        for (_, msg) in tick.deliveries() {
            b.on_message(0.1, msg);
        }
        let _ = b.on_routing_tick(0.2, &live_row(&[10, 0]), &mut r);
        assert_eq!(b.best_hop(0, 1.0), Some(0));
        // 3 routing intervals later everything expired.
        assert_eq!(b.best_hop(0, 1000.0), None);
    }

    #[test]
    fn wrong_view_messages_dropped() {
        let cfg = ProtocolConfig::ron();
        let mut a = FullMeshRouter::new(0, 2, 7, cfg.clone());
        let mut b = FullMeshRouter::new(1, 2, 8, cfg);
        let mut r = rng();
        let tick = a.on_routing_tick(0.0, &live_row(&[0, 10]), &mut r);
        for (_, msg) in tick.deliveries() {
            b.on_message(0.1, msg);
        }
        assert!(b.table().row_time(0).is_none(), "cross-view row accepted");
    }

    #[test]
    fn route_age_tracks_broadcasts() {
        let cfg = ProtocolConfig::ron();
        let mut a = FullMeshRouter::new(0, 2, 0, cfg.clone());
        let mut b = FullMeshRouter::new(1, 2, 0, cfg);
        let mut r = rng();
        assert_eq!(b.route_age(0, 5.0), None);
        let tick = a.on_routing_tick(0.0, &live_row(&[0, 10]), &mut r);
        for (_, msg) in tick.deliveries() {
            b.on_message(2.0, msg);
        }
        assert_eq!(b.route_age(0, 5.0), Some(3.0));
        assert_eq!(b.double_rendezvous_failures(5.0), 0);
    }

    #[test]
    fn message_count_is_quadratic() {
        // The point of the paper: n−1 messages per node per interval.
        let cfg = ProtocolConfig::ron();
        let n = 50;
        let mut router = FullMeshRouter::new(0, n, 0, cfg);
        let row = live_row(&vec![1u16; n]);
        let mut r = rng();
        let tick = router.on_routing_tick(0.0, &row, &mut r);
        assert_eq!(tick.deliveries().count(), n - 1);
        // …all carrying the one row, built once.
        assert!(tick.msgs.is_empty());
        assert_eq!(tick.frame_to, (1..n).collect::<Vec<_>>());
        match &tick.frame {
            Some(Message::LinkState(ls)) => {
                let wire: Vec<WireEntry> = row.iter().map(LinkEntry::encode).collect();
                assert_eq!(ls.entries, wire);
                assert_eq!(router.table().lane_row(0), Some(LaneRow::from_wire(&wire)));
            }
            other => panic!("expected one dense frame, got {other:?}"),
        }
    }
}
