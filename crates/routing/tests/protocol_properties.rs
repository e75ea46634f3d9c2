//! Property-based tests on the routing protocol cores.

use apor_linkstate::{LinkEntry, LinkStateStore, LinkStateTable, RowStore, WireEntry};
use apor_routing::prober::{ProbeAction, Prober};
use apor_routing::ProtocolConfig;
use proptest::prelude::*;

/// Naive reference for the round-two kernel: exhaustive minimum over the
/// direct link and every relay.
fn reference_best_one_hop(table: &LinkStateTable, a: usize, b: usize) -> Option<(usize, f64)> {
    let n = table.len();
    let direct = table.entry(a, b).cost().min(table.entry(b, a).cost());
    let mut best = (b, direct);
    for h in 0..n {
        if h == a || h == b {
            continue;
        }
        let c = table.entry(a, h).cost() + table.entry(b, h).cost();
        if c < best.1 {
            best = (h, c);
        }
    }
    best.1.is_finite().then_some(best)
}

fn arb_table(n: usize) -> impl Strategy<Value = LinkStateTable> {
    prop::collection::vec(
        prop::collection::vec((1u16..2000, prop::bool::weighted(0.85)), n),
        n,
    )
    .prop_map(move |rows| {
        let mut t = LinkStateTable::new(n);
        for (i, row) in rows.iter().enumerate() {
            let entries: Vec<WireEntry> = row
                .iter()
                .enumerate()
                .map(|(j, &(lat, alive))| {
                    if i == j {
                        LinkEntry::live(0, 0.0)
                    } else if alive {
                        LinkEntry::live(lat, 0.0)
                    } else {
                        LinkEntry::dead()
                    }
                    .encode()
                })
                .collect();
            t.put_dense(i, &entries, 0.0);
        }
        t
    })
}

proptest! {
    /// The optimized kernel agrees with the exhaustive reference on
    /// arbitrary (partially dead) link-state tables.
    #[test]
    fn best_one_hop_matches_reference(table in arb_table(12), a in 0usize..12, b in 0usize..12) {
        prop_assume!(a != b);
        let got = table.best_one_hop(a, b, 1.0, 45.0);
        let want = reference_best_one_hop(&table, a, b);
        match (got, want) {
            (None, None) => {}
            (Some((gh, gc)), Some((wh, wc))) => {
                prop_assert!((gc - wc).abs() < 1e-9, "cost {gc} vs {wc}");
                // Hop may differ only on exact ties.
                if gh != wh {
                    let g_cost = if gh == b {
                        table.entry(a, b).cost().min(table.entry(b, a).cost())
                    } else {
                        table.entry(a, gh).cost() + table.entry(b, gh).cost()
                    };
                    prop_assert!((g_cost - wc).abs() < 1e-9, "non-tie hop mismatch");
                }
            }
            (g, w) => prop_assert!(false, "mismatch: {g:?} vs {w:?}"),
        }
    }

    /// The kernel never returns a path through a dead link, and its cost
    /// is always achievable from the table's entries.
    #[test]
    fn best_one_hop_cost_achievable(table in arb_table(10), a in 0usize..10, b in 0usize..10) {
        prop_assume!(a != b);
        if let Some((hop, cost)) = table.best_one_hop(a, b, 1.0, 45.0) {
            prop_assert!(cost.is_finite());
            if hop == b {
                let direct = table.entry(a, b).cost().min(table.entry(b, a).cost());
                prop_assert!((cost - direct).abs() < 1e-9);
            } else {
                prop_assert!(table.entry(a, hop).alive);
                prop_assert!(table.entry(b, hop).alive);
            }
        }
    }

    /// The sparse row store is observationally equivalent to the dense
    /// table: fed identical rows, every kernel output matches (the
    /// kernel is written once over the trait, so this pins the storage
    /// layer, not the algorithm).
    #[test]
    fn sparse_store_matches_dense(table in arb_table(12), a in 0usize..12, b in 0usize..12) {
        let mut sparse = RowStore::new(12);
        for origin in table.present_rows() {
            sparse.put_row(origin, table.lane_row(origin).unwrap(), table.row_time(origin).unwrap());
        }
        prop_assert_eq!(sparse.row_count(), table.row_count());
        prop_assert_eq!(
            table.best_one_hop(a, b, 1.0, 45.0),
            sparse.best_one_hop(a, b, 1.0, 45.0)
        );
        prop_assert_eq!(
            table.one_hop_options(a, b, 1.0, 45.0),
            sparse.one_hop_options(a, b, 1.0, 45.0)
        );
        prop_assert_eq!(
            table.anyone_reaches(b, 1.0, 45.0),
            sparse.anyone_reaches(b, 1.0, 45.0)
        );
    }

    /// Prober liveness follows the 5-consecutive-failures rule for any
    /// reply pattern: after processing a sequence of probe outcomes, the
    /// link is alive iff a reply ever arrived and the trailing failure run
    /// is < 5.
    #[test]
    fn prober_liveness_matches_rule(pattern in prop::collection::vec(any::<bool>(), 1..120)) {
        let cfg = ProtocolConfig::quorum();
        let mut p = Prober::new(0, 2, cfg.clone(), 0.0);
        let mut t = 0.0;
        let mut outcomes: Vec<bool> = Vec::new(); // true = replied
        let mut k = 0;
        while k < pattern.len() {
            for action in p.poll(t) {
                let ProbeAction::SendProbe { seq, .. } = action else {
                    panic!("full-mesh probing sends single probes");
                };
                if k < pattern.len() {
                    if pattern[k] {
                        p.on_reply(1, seq, t + 0.01);
                    }
                    outcomes.push(pattern[k]);
                    k += 1;
                }
            }
            t += 0.5;
            prop_assume!(t < 50_000.0);
        }
        // Let the last probe time out if it went unanswered.
        t += cfg.probe_timeout_s + 0.1;
        let _ = p.poll(t);

        let ever_replied = outcomes.iter().any(|&r| r);
        let trailing_failures = outcomes.iter().rev().take_while(|&&r| !r).count() as u32;
        let expected_alive = ever_replied && trailing_failures < cfg.probes_for_failure;
        prop_assert_eq!(
            p.alive(1),
            expected_alive,
            "pattern {:?}: trailing failures {}",
            outcomes,
            trailing_failures
        );
    }
}
