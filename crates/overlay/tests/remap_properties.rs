//! Property tests for the incremental view remap (`overlay::remap`):
//!
//! 1. **Identity-model equivalence** — one remap across an arbitrary
//!    membership change equals a rebuild-from-scratch fed the same
//!    (surviving) row messages, keyed purely by `NodeId`; stale rows
//!    are dropped per the 3-routing-interval freshness rule.
//! 2. **Join/leave/rejoin chains** — remapping through an arbitrary
//!    sequence of views keeps exactly the rows whose origin (and the
//!    entries whose destination) stayed a member through *every*
//!    intermediate view: leaving destroys measurements, rejoining does
//!    not resurrect them.
//! 3. **Entitlement on import** — feeding remapped rows through a
//!    `QuorumRouter` keeps only the rows the node's new grid role
//!    grants it (own row + rendezvous clients), so a remap can never
//!    re-grow `O(n)` rows.
//! 4. **Lane remap equals the dense translation** — the lane-wise remap
//!    agrees, entry for entry and retraction for retraction, with the
//!    full-width `n`-wide translation kept here as the oracle.
//! 5. **The route discipline survives a view change** — a row
//!    exported, remapped and imported keeps its seqno and retractions,
//!    and an older replayed frame is still refused afterwards.

use apor_linkstate::{LaneRow, LinkEntry, LinkStateMsg, LinkStateStore, Message, RowStore};
use apor_overlay::membership::MembershipView;
use apor_overlay::remap::remap_rows;
use apor_quorum::NodeId;
use apor_routing::{ProtocolConfig, QuorumRouter, RoutingAlgorithm, VersionedRow};
use proptest::prelude::*;
use std::collections::BTreeMap;

const MAX_AGE: f64 = 45.0;

/// A sorted, deduplicated member set drawn from a small id universe.
fn arb_members(universe: u16) -> impl Strategy<Value = Vec<NodeId>> {
    prop::collection::vec(0u16..universe, 2..12).prop_map(|mut ids| {
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter().map(NodeId).collect()
    })
}

/// Per-origin row messages: `origin id → (receipt time, latency by dst id)`.
/// Latencies are keyed by *identity* over the whole universe so the model
/// below never touches index space.
fn arb_rows(universe: u16) -> impl Strategy<Value = BTreeMap<u16, (f64, Vec<u16>)>> {
    prop::collection::vec(
        (
            0u16..universe,
            0.0f64..100.0,
            prop::collection::vec(1u16..500, universe as usize),
        ),
        0..10,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(origin, t, lats)| (origin, (t, lats)))
            .collect()
    })
}

/// Load the generated rows into a store shaped by `view` (index space).
fn load_store(view: &MembershipView, rows: &BTreeMap<u16, (f64, Vec<u16>)>) -> RowStore {
    let mut store = RowStore::new(view.len());
    for (&origin_id, (t, lats)) in rows {
        let Some(origin) = view.index_of(NodeId(origin_id)) else {
            continue; // message from a non-member is never delivered
        };
        let entries: Vec<LinkEntry> = view
            .members()
            .iter()
            .map(|d| LinkEntry::live(lats[d.0 as usize], 0.0))
            .collect();
        store.put_row(origin, LaneRow::from_dense(&entries), *t);
    }
    store
}

fn export(store: &RowStore) -> Vec<VersionedRow> {
    store
        .present_rows()
        .into_iter()
        .map(|o| VersionedRow {
            origin: o,
            received_at: store.row_time(o).unwrap(),
            row: store.lane_row(o).unwrap(),
        })
        .collect()
}

/// One row in the oracle's full-width form: `(origin, receipt time,
/// seqno, retractions, entries)`.
type DenseRow = (usize, f64, u16, Vec<u16>, Vec<LinkEntry>);

/// The oracle: a full-width, `n`-wide translation of dense rows. Every
/// new destination index looks up its identity's old index (dead when
/// the member joined); retractions move one by one and are re-sorted.
fn dense_remap_oracle(
    exported: &[DenseRow],
    old_view: &MembershipView,
    new_view: &MembershipView,
    now: f64,
    max_age: f64,
) -> Vec<DenseRow> {
    let new_to_old: Vec<Option<usize>> = new_view
        .members()
        .iter()
        .map(|&id| old_view.index_of(id))
        .collect();
    let old_to_new: Vec<Option<usize>> = old_view
        .members()
        .iter()
        .map(|&id| new_view.index_of(id))
        .collect();
    let mut out = Vec::new();
    for (origin, received_at, seqno, retractions, entries) in exported {
        if now - received_at > max_age {
            continue;
        }
        let Some(origin_id) = old_view.id_of(*origin) else {
            continue;
        };
        let Some(new_origin) = new_view.index_of(origin_id) else {
            continue;
        };
        let entries: Vec<LinkEntry> = (0..new_view.len())
            .map(|new_dst| new_to_old[new_dst].map_or_else(LinkEntry::dead, |old| entries[old]))
            .collect();
        let mut retractions: Vec<u16> = retractions
            .iter()
            .filter_map(|&d| old_to_new.get(usize::from(d)).copied().flatten())
            .map(|new_dst| new_dst as u16)
            .collect();
        retractions.sort_unstable();
        out.push((new_origin, *received_at, *seqno, retractions, entries));
    }
    out
}

/// Rows with dead entries and a version, keyed by identity:
/// `origin id → (receipt time, latency by dst id or None when dead,
/// seqno, retracted dst ids)`.
#[allow(clippy::type_complexity)]
fn arb_versioned_rows(
    universe: u16,
) -> impl Strategy<Value = BTreeMap<u16, (f64, Vec<Option<u16>>, u16, Vec<u16>)>> {
    prop::collection::vec(
        (
            0u16..universe,
            0.0f64..100.0,
            prop::collection::vec((prop::bool::weighted(0.6), 1u16..500), universe as usize),
            any::<u16>(),
            prop::collection::vec(0u16..universe, 0..4),
        ),
        0..10,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(origin, t, lats, seqno, retracted)| {
                let lats = lats
                    .into_iter()
                    .map(|(alive, l)| alive.then_some(l))
                    .collect();
                (origin, (t, lats, seqno, retracted))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// One remap equals the identity-keyed rebuild: for every origin id
    /// in both views with a fresh row, the remapped row holds the
    /// original entry for every surviving destination id and dead for
    /// joiners; departed origins and stale rows vanish.
    #[test]
    fn remap_matches_identity_model(
        old_ids in arb_members(20),
        new_ids in arb_members(20),
        rows in arb_rows(20),
        now in 50.0f64..150.0,
    ) {
        let old_view = MembershipView::new(1, old_ids);
        let new_view = MembershipView::new(2, new_ids);
        let store = load_store(&old_view, &rows);
        let remapped = remap_rows(&export(&store), &old_view, &new_view, now, MAX_AGE);

        // No fabricated origins, no duplicates.
        let mut seen = std::collections::BTreeSet::new();
        for r in &remapped {
            prop_assert!(seen.insert(r.origin), "duplicate remapped origin");
            prop_assert!(r.row.fits(new_view.len()));
        }

        for (&origin_id, (t, lats)) in &rows {
            let in_old = old_view.contains(NodeId(origin_id));
            let new_origin = new_view.index_of(NodeId(origin_id));
            let fresh = now - t <= MAX_AGE;
            let expected_carried = in_old && new_origin.is_some() && fresh;
            let carried = remapped.iter().find(|r| Some(r.origin) == new_origin && new_origin.is_some());
            if !expected_carried {
                if in_old {
                    prop_assert!(
                        carried.is_none() || new_origin.is_none(),
                        "row for {origin_id} should have been dropped"
                    );
                }
                continue;
            }
            let carried = carried.expect("fresh surviving row must be carried");
            prop_assert_eq!(carried.received_at, *t, "receipt time must be preserved");
            let entries = carried.row.as_row_ref(new_view.len()).to_dense();
            for (new_dst, d) in new_view.members().iter().enumerate() {
                if old_view.contains(*d) {
                    prop_assert_eq!(
                        entries[new_dst].latency_ms, lats[d.0 as usize],
                        "entry {}→{} must move by identity", origin_id, d.0
                    );
                    prop_assert!(entries[new_dst].alive);
                } else {
                    prop_assert!(!entries[new_dst].alive, "joined dst must start dead");
                }
            }
        }
    }

    /// Chaining remaps through an arbitrary join/leave/rejoin sequence
    /// keeps exactly the rows/entries whose ids were members of every
    /// view in the chain — and for those, the values equal a single
    /// direct rebuild into the final view.
    #[test]
    fn chained_remap_keeps_only_continuous_members(
        views in prop::collection::vec(arb_members(16), 2..5),
        rows in arb_rows(16),
    ) {
        let views: Vec<MembershipView> = views
            .into_iter()
            .enumerate()
            .map(|(i, m)| MembershipView::new(1 + i as u32, m))
            .collect();
        // All rows stamped inside the fresh window; all remaps at now=0-ish
        // so staleness never interferes with the membership argument.
        let rows: BTreeMap<u16, (f64, Vec<u16>)> =
            rows.into_iter().map(|(o, (_, l))| (o, (0.0, l))).collect();
        let mut store = load_store(&views[0], &rows);
        for w in views.windows(2) {
            let remapped = remap_rows(&export(&store), &w[0], &w[1], 1.0, MAX_AGE);
            let mut next = RowStore::new(w[1].len());
            for r in remapped {
                next.put_row(r.origin, r.row, r.received_at);
            }
            store = next;
        }
        let last = views.last().unwrap();
        for (&origin_id, (_, lats)) in &rows {
            let continuous = views.iter().all(|v| v.contains(NodeId(origin_id)));
            let final_origin = last.index_of(NodeId(origin_id));
            match (continuous, final_origin) {
                (true, Some(origin)) => {
                    let row = store
                        .row_ref(origin)
                        .expect("continuous member's row survives")
                        .to_dense();
                    for (new_dst, d) in last.members().iter().enumerate() {
                        let dst_continuous = views.iter().all(|v| v.contains(*d));
                        if dst_continuous {
                            prop_assert_eq!(row[new_dst].latency_ms, lats[d.0 as usize]);
                            prop_assert!(row[new_dst].alive);
                        } else {
                            prop_assert!(
                                !row[new_dst].alive,
                                "dst {} left mid-chain: entry must stay dead even after rejoin",
                                d.0
                            );
                        }
                    }
                }
                (false, Some(origin)) => {
                    prop_assert!(
                        store.row_ref(origin).is_none(),
                        "origin {} left mid-chain: its row must not be resurrected",
                        origin_id
                    );
                }
                (_, None) => {}
            }
        }
    }

    /// Importing remapped rows into a quorum router keeps only the
    /// entitled ones: the node's own row and its rendezvous clients' in
    /// the *new* grid.
    #[test]
    fn quorum_import_enforces_new_grid_entitlement(
        old_ids in arb_members(20),
        new_ids in arb_members(20),
        rows in arb_rows(20),
        me_pick in 0usize..12,
    ) {
        // `me` must be a member of both views.
        let mut old_ids = old_ids;
        let new_view = MembershipView::new(2, new_ids);
        let me_id = new_view.members()[me_pick % new_view.len()];
        if !old_ids.contains(&me_id) {
            old_ids.push(me_id);
        }
        let old_view = MembershipView::new(1, old_ids);
        let store = load_store(&old_view, &rows);
        let remapped = remap_rows(&export(&store), &old_view, &new_view, 10.0, 200.0);

        let me = new_view.index_of(me_id).unwrap();
        let n = new_view.len();
        let mut router = QuorumRouter::new(me, n, 2, ProtocolConfig::quorum());
        for row in &remapped {
            router.import_row(row);
        }
        let grid = router.grid().clone();
        for r in &remapped {
            let origin = r.origin;
            let entitled = origin == me || grid.serves(origin, me);
            prop_assert_eq!(
                router.table().row_time(origin).is_some(),
                entitled,
                "origin {} entitled={}", origin, entitled
            );
        }
        prop_assert!(
            router.table().row_count() <= QuorumRouter::row_entitlement(n),
            "remap must never exceed the O(√n) entitlement"
        );
    }

    /// The lane-wise remap equals the dense `n`-wide oracle: same rows,
    /// receipt times and seqnos, the same full-width entries once the
    /// lanes are expanded, and the same translated retraction lane — on
    /// rows with dead entries and retractions of departed members.
    #[test]
    fn lane_remap_matches_dense_oracle(
        old_ids in arb_members(20),
        new_ids in arb_members(20),
        rows in arb_versioned_rows(20),
        now in 50.0f64..150.0,
    ) {
        let old_view = MembershipView::new(1, old_ids);
        let new_view = MembershipView::new(2, new_ids);
        let mut exported = Vec::new();
        for (&origin_id, (t, lats, seqno, retracted)) in &rows {
            let Some(origin) = old_view.index_of(NodeId(origin_id)) else {
                continue;
            };
            let entries: Vec<LinkEntry> = old_view
                .members()
                .iter()
                .map(|d| lats[d.0 as usize].map_or_else(LinkEntry::dead, |l| LinkEntry::live(l, 0.0)))
                .collect();
            let mut lane: Vec<u16> = retracted
                .iter()
                .filter_map(|&id| old_view.index_of(NodeId(id)))
                .map(|i| i as u16)
                .collect();
            lane.sort_unstable();
            lane.dedup();
            exported.push(VersionedRow {
                origin,
                received_at: *t,
                row: LaneRow::from_dense(&entries).with_version(*seqno, &lane),
            });
        }
        let dense_in: Vec<DenseRow> = exported
            .iter()
            .map(|r| {
                let entries = r.row.as_row_ref(old_view.len()).to_dense();
                (r.origin, r.received_at, r.row.seqno(), r.row.retracted().to_vec(), entries)
            })
            .collect();
        let want = dense_remap_oracle(&dense_in, &old_view, &new_view, now, MAX_AGE);
        let mut got: Vec<DenseRow> = Vec::new();
        for r in remap_rows(&exported, &old_view, &new_view, now, MAX_AGE) {
            prop_assert!(r.row.fits(new_view.len()));
            let entries = r.row.as_row_ref(new_view.len()).to_dense();
            got.push((r.origin, r.received_at, r.row.seqno(), r.row.retracted().to_vec(), entries));
        }
        prop_assert_eq!(got, want);
    }
}

/// A quorum router's row crosses a view change with its route
/// discipline intact: export, remap and import keep the origin's seqno
/// and translate its retraction lane by identity, and a delayed frame
/// with an older seqno is still refused by the rebuilt router.
#[test]
fn export_remap_import_keeps_the_replay_guard() {
    let cfg = ProtocolConfig::quorum();
    let ids = |list: &[u16]| list.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
    // Node 1 (index 0) holds the row of node 3 (index 1): same grid row
    // of the 3×3 grid in both views. Node 5 (index 2) leaves and node 4
    // joins at the same index, so a retraction aimed at 5 must vanish
    // rather than land on 4.
    let old_view = MembershipView::new(1, ids(&[1, 3, 5, 7, 9, 11, 13, 15, 17]));
    let new_view = MembershipView::new(2, ids(&[1, 3, 4, 7, 9, 11, 13, 15, 17]));
    let n = 9;
    let frame = |view: u32, latency: u16, seqno: u16, retractions: Vec<u16>| {
        let mut entries = vec![LinkEntry::live(latency, 0.0); n];
        entries[1] = LinkEntry::live(0, 0.0);
        for &r in &retractions {
            entries[usize::from(r)] = LinkEntry::dead();
        }
        Message::LinkState(LinkStateMsg {
            from: NodeId::from_index(1),
            to: NodeId::from_index(0),
            view,
            round: 1,
            basis_ms: 0,
            entries,
            seqno,
            retractions,
        })
    };
    let mut old = QuorumRouter::new(0, n, 1, cfg.clone());
    // Retract node 5 (index 2) and node 11 (index 5) at seqno 9.
    let _ = old.on_message(1.0, &frame(1, 20, 9, vec![2, 5]));
    assert_eq!(old.table().row_seqno(1), 9);

    let carried = remap_rows(&old.export_rows(), &old_view, &new_view, 2.0, MAX_AGE);
    let mut new = QuorumRouter::new(0, n, 2, cfg);
    for row in &carried {
        new.import_row(row);
    }
    let held = new.table().lane_row(1).expect("node 3's row carried");
    assert_eq!(held.seqno(), 9, "seqno survives the view change");
    assert_eq!(
        held.retracted(),
        &[5],
        "5 left with its retraction; 11 kept"
    );
    assert!(!new.table().row_retracts(1, 2), "joiner 4 inherits nothing");
    assert_eq!(new.table().row_time(1), Some(1.0));
    assert_eq!(new.table().entry(1, 3).latency_ms, 20, "3→7 by identity");

    // A delayed seqno-8 frame must not overwrite the carried row.
    let _ = new.on_message(3.0, &frame(2, 90, 8, vec![]));
    assert_eq!(new.table().row_seqno(1), 9, "older frame refused");
    assert_eq!(new.table().row_time(1), Some(1.0));
    assert_eq!(new.table().entry(1, 3).latency_ms, 20);
    assert!(new.table().row_retracts(1, 5));
    // A newer frame still lands.
    let _ = new.on_message(4.0, &frame(2, 30, 10, vec![]));
    assert_eq!(new.table().row_seqno(1), 10);
    assert_eq!(new.table().entry(1, 3).latency_ms, 30);
}

/// End-to-end through the overlay node: a view change must carry fresh
/// rows into the new router instead of rebuilding from empty — the
/// surviving route is answerable immediately, without waiting for a new
/// probe/exchange cycle.
#[test]
fn view_change_preserves_routes_end_to_end() {
    use apor_overlay::config::{Algorithm, NodeConfig};
    use apor_overlay::node::Outbox;
    use apor_overlay::OverlayNode;

    // Members {0, 1, 2, 9}; node 0 is us. Node 1 (a rendezvous client
    // of 0 in the 2×2 grid) sends its link-state row; then node 9
    // leaves. After the view change, node 1's row must still be present
    // (remapped from index 1 → 1, entry for 9 dropped).
    let members: Vec<NodeId> = [0u16, 1, 2, 9].iter().map(|&i| NodeId(i)).collect();
    let mut node = OverlayNode::new(
        NodeConfig::new(NodeId(0), NodeId(0), Algorithm::Quorum).with_static_members(members),
    );
    let mut out = Outbox::default();
    node.on_start(0.0, &mut out);
    assert_eq!(node.my_index(), Some(0));

    let row1 = vec![
        LinkEntry::live(40, 0.0),
        LinkEntry::live(0, 0.0),
        LinkEntry::live(25, 0.0),
        LinkEntry::live(30, 0.0),
    ];
    let ls = Message::LinkState(LinkStateMsg {
        from: NodeId(1),
        to: NodeId(0),
        view: 1,
        round: 1,
        basis_ms: 0,
        entries: row1,
        seqno: 0,
        retractions: vec![],
    });
    let mut out = Outbox::default();
    node.on_packet(5.0, &ls.encode(), &mut out);
    let store_has_row = |node: &OverlayNode, idx: usize| {
        node.quorum_router()
            .is_some_and(|r| r.table().row_time(idx).is_some())
    };
    assert!(store_has_row(&node, 1), "row received in view 1");

    // Node 9 departs: view version 2 with {0, 1, 2}.
    let view2 = Message::View(apor_linkstate::wire::ViewMsg {
        from: NodeId(0),
        to: NodeId(0),
        view: 2,
        members: [0u16, 1, 2].iter().map(|&i| NodeId(i)).collect(),
    });
    let mut out = Outbox::default();
    node.on_packet(10.0, &view2.encode(), &mut out);

    let router = node.quorum_router().expect("router rebuilt");
    assert_eq!(
        router.table().row_time(1),
        Some(5.0),
        "node 1's row must survive the view change with its original receipt time"
    );
    let row = router
        .table()
        .row_ref(1)
        .expect("remapped row present")
        .to_dense();
    assert_eq!(row.len(), 3, "row width follows the new view");
    assert_eq!(row[0].latency_ms, 40, "1→0 carried");
    assert_eq!(row[2].latency_ms, 25, "1→2 carried");

    // A control node that really is rebuilt from scratch (started
    // directly in view 2, no messages) knows nothing — the difference
    // the incremental remap makes.
    let members2: Vec<NodeId> = [0u16, 1, 2].iter().map(|&i| NodeId(i)).collect();
    let mut control = OverlayNode::new(
        NodeConfig::new(NodeId(0), NodeId(0), Algorithm::Quorum).with_static_members(members2),
    );
    let mut out = Outbox::default();
    control.on_start(10.0, &mut out);
    assert!(
        !store_has_row(&control, 1),
        "rebuild-from-empty holds nothing"
    );
}

/// Stale rows (older than 3 routing intervals at the moment of the view
/// change) are *not* carried — the freshness rule applies to the remap
/// exactly as it applies to the kernel.
#[test]
fn view_change_drops_stale_rows() {
    use apor_overlay::config::{Algorithm, NodeConfig};
    use apor_overlay::node::Outbox;
    use apor_overlay::OverlayNode;

    let members: Vec<NodeId> = [0u16, 1, 2, 9].iter().map(|&i| NodeId(i)).collect();
    let mut node = OverlayNode::new(
        NodeConfig::new(NodeId(0), NodeId(0), Algorithm::Quorum).with_static_members(members),
    );
    let mut out = Outbox::default();
    node.on_start(0.0, &mut out);
    let ls = Message::LinkState(LinkStateMsg {
        from: NodeId(1),
        to: NodeId(0),
        view: 1,
        round: 1,
        basis_ms: 0,
        entries: vec![LinkEntry::live(40, 0.0); 4],
        seqno: 0,
        retractions: vec![],
    });
    let mut out = Outbox::default();
    node.on_packet(5.0, &ls.encode(), &mut out);

    // The quorum staleness window is 3 × 15 s = 45 s; remap at t = 100.
    let view2 = Message::View(apor_linkstate::wire::ViewMsg {
        from: NodeId(0),
        to: NodeId(0),
        view: 2,
        members: [0u16, 1, 2].iter().map(|&i| NodeId(i)).collect(),
    });
    let mut out = Outbox::default();
    node.on_packet(100.0, &view2.encode(), &mut out);
    let router = node.quorum_router().expect("router rebuilt");
    assert_eq!(
        router.table().row_time(1),
        None,
        "a stale row must not survive the remap"
    );
}
