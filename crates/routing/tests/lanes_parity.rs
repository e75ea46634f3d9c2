//! Parity properties for the struct-of-arrays (lanes) row layout.
//!
//! The lanes kernel must be observationally invisible to routing: same
//! hop chosen (including lowest-index tie-breaks), same cost to the
//! bit, across all three row representations (dense `LinkStateTable`,
//! lane-backed `RowStore`, and a borrowed `RowRef::Sparse` view), and
//! the lanes themselves must hold the exact wire bytes so a row that
//! travelled through `wire.rs` encode/decode is bit-identical to one
//! stored directly. The all-pairs round-two kernel must in turn equal
//! the per-pair kernel on every ordered pair of members.

use apor_linkstate::wire::{LinkStateMsg, SparseLinkStateMsg};
use apor_linkstate::{
    best_one_hop_rows, LaneRow, LinkEntry, LinkStateStore, LinkStateTable, Message, RowRef,
    RowStore,
};
use apor_quorum::NodeId;
use proptest::prelude::*;

/// A random row of `n` entries: latency over the full wire range, an
/// alive flag, and an arbitrary (off-grid) loss rate.
fn arb_row(n: usize) -> impl Strategy<Value = Vec<LinkEntry>> {
    prop::collection::vec((any::<u16>(), prop::bool::weighted(0.7), 0.0f64..1.0), n).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(lat, alive, loss)| {
                    if alive {
                        LinkEntry::live(lat, loss as f32)
                    } else {
                        LinkEntry::dead()
                    }
                })
                .collect()
        },
    )
}

/// One leg latency for the all-pairs property: a narrow 1–3 ms band
/// (equal-cost relays and direct/relay ties are common), the wide
/// range, or the largest live wire latency, 65534 ms.
fn arb_leg() -> impl Strategy<Value = u16> {
    prop_oneof![1u16..4, 1u16..2000, 65534u16..65535]
}

/// A store and a member list for the all-pairs kernel at width `n`.
/// Each `(origin, stale, row)` row holds its self entry at 0 ms and a
/// live density tier — tier 0 yields an empty row, tier 1 about one
/// live entry, tiers 2–3 half/nearly full rows, the kernel's index
/// edge cases; about one row in five is stale at query time. Members
/// are a random subset of `0..n` in random order, so some have no row
/// at all.
#[allow(clippy::type_complexity)]
fn arb_all_pairs_case(
    n: usize,
) -> impl Strategy<Value = (Vec<(usize, bool, Vec<LinkEntry>)>, Vec<usize>)> {
    (
        prop::collection::vec(
            (
                0..n,
                0usize..4,
                prop::bool::weighted(0.2),
                prop::collection::vec((arb_leg(), 0u8..100), n),
            ),
            1..12,
        ),
        prop::collection::vec(any::<u32>(), n),
        2..=n,
    )
        .prop_map(move |(specs, keys, m)| {
            let rows = specs
                .into_iter()
                .map(|(o, tier, stale, raw)| {
                    let threshold = [0, 100 / n as u8, 50, 90][tier];
                    let row = raw
                        .into_iter()
                        .enumerate()
                        .map(|(j, (lat, roll))| {
                            if j == o {
                                LinkEntry::live(0, 0.0)
                            } else if roll < threshold {
                                LinkEntry::live(lat, 0.0)
                            } else {
                                LinkEntry::dead()
                            }
                        })
                        .collect();
                    (o, stale, row)
                })
                .collect();
            let mut members: Vec<usize> = (0..n).collect();
            members.sort_by_key(|&v| keys[v]);
            members.truncate(m);
            (rows, members)
        })
}

/// Live `(dst, entry)` pairs of a dense row, ascending — the
/// `RowRef::Sparse` borrowed form.
fn live_pairs(row: &[LinkEntry]) -> Vec<(u16, LinkEntry)> {
    row.iter()
        .enumerate()
        .filter(|(_, e)| e.alive)
        .map(|(d, e)| (d as u16, *e))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Three-way kernel parity at n = 100: the dense table, the
    /// lane-backed sparse store, and raw `RowRef::Sparse` views all
    /// pick the identical hop at the identical cost — exact equality,
    /// not epsilon, since costs are integer milliseconds in every
    /// representation.
    #[test]
    fn three_way_kernel_parity_n100(
        rows in prop::collection::vec(arb_row(100), 4..7),
        pairs in prop::collection::vec((0usize..4, 0usize..100), 8..9),
    ) {
        let n = 100;
        let mut dense = LinkStateTable::new(n);
        let mut lanes = RowStore::new(n);
        for (i, row) in rows.iter().enumerate() {
            let mut row = row.clone();
            row[i] = LinkEntry::live(0, 0.0);
            dense.update_row(i, &row, 0.0);
            lanes.update_row(i, &row, 0.0);
        }
        for &(a, b) in &pairs {
            // Origins 0..rows.len() all hold rows; `a` is one of them.
            if a == b {
                continue;
            }
            let want = dense.best_one_hop(a, b, 1.0, 45.0);
            let got = lanes.best_one_hop(a, b, 1.0, 45.0);
            prop_assert_eq!(got, want, "store parity a={} b={}", a, b);

            // Raw kernel over borrowed Sparse views of the same rows.
            if b < rows.len() {
                let pa = live_pairs(&dense.row_dense(a).unwrap());
                let pb = live_pairs(&dense.row_dense(b).unwrap());
                let ra = RowRef::Sparse { width: n, entries: &pa };
                let rb = RowRef::Sparse { width: n, entries: &pb };
                let raw = best_one_hop_rows(&ra, &rb, a, b)
                    .map(|(h, c)| (h, f64::from(c)));
                prop_assert_eq!(raw, want, "RowRef::Sparse parity a={} b={}", a, b);
            }

            prop_assert_eq!(
                lanes.one_hop_options(a, b, 1.0, 45.0),
                dense.one_hop_options(a, b, 1.0, 45.0)
            );
        }
    }

    /// Lane rows hold the exact wire bytes: a row stored after a
    /// `wire.rs` encode/decode round trip is bit-identical to the same
    /// row stored directly, for arbitrary latency/liveness/loss —
    /// including off-grid loss rates and the latency-65535 clamp.
    #[test]
    fn lanes_wire_roundtrip_bit_identical(row in arb_row(64)) {
        let msg = Message::LinkState(LinkStateMsg {
            from: NodeId::from_index(1),
            to: NodeId::from_index(2),
            view: 7,
            round: 3,
            basis_ms: 250,
            entries: row.clone(),
            seqno: 0,
            retractions: vec![],
        });
        let Ok(Message::LinkState(decoded)) = Message::decode(&msg.encode()) else {
            panic!("dense wire round trip failed");
        };
        prop_assert_eq!(
            LaneRow::from_dense(&row),
            LaneRow::from_dense(&decoded.entries),
            "dense wire path not bit-identical"
        );

        // Same property through the sparse (live-pairs) wire frame.
        let pairs = live_pairs(&row);
        let smsg = Message::LinkStateSparse(SparseLinkStateMsg {
            from: NodeId::from_index(1),
            to: NodeId::from_index(2),
            view: 7,
            round: 3,
            basis_ms: 250,
            width: 64,
            entries: pairs.clone(),
            seqno: 0,
            retractions: vec![],
        });
        let Ok(Message::LinkStateSparse(sdec)) = Message::decode(&smsg.encode()) else {
            panic!("sparse wire round trip failed");
        };
        prop_assert_eq!(
            LaneRow::from_pairs(&pairs),
            LaneRow::from_pairs(&sdec.entries),
            "sparse wire path not bit-identical"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The all-pairs kernel is exactly `m²` independent `best_one_hop`
    /// calls, over either store, for members in any order — including
    /// members with stale or missing rows, self entries at 0 ms,
    /// equal-cost relays, direct/relay ties and 65534-ms legs.
    #[test]
    fn batch_matches_singles(case in arb_all_pairs_case(16)) {
        let n = 16;
        let (spec, members) = case;
        let mut lanes = RowStore::new(n);
        let mut dense = LinkStateTable::new(n);
        for (o, stale, row) in &spec {
            // Stored at -100 s: older than max_age at t = 1.
            let at = if *stale { -100.0 } else { 0.0 };
            lanes.update_row(*o, row, at);
            dense.update_row(*o, row, at);
        }
        let got = lanes.best_hops_all_pairs(&members, 1.0, 45.0);
        prop_assert_eq!(got.member_count(), members.len());
        prop_assert_eq!(&dense.best_hops_all_pairs(&members, 1.0, 45.0), &got);
        for (i, &a) in members.iter().enumerate() {
            for (j, &b) in members.iter().enumerate() {
                let want = lanes.best_one_hop(a, b, 1.0, 45.0);
                prop_assert_eq!(got.get(i, j), want, "a={} b={}", a, b);
                // One unordered pair, one path: the reverse direction
                // shares the cost, and the hop unless it is direct.
                if let (Some((h, c)), Some((rh, rc))) = (want, got.get(j, i)) {
                    prop_assert_eq!(c, rc);
                    prop_assert!(h == rh || (h == b && rh == a), "a={} b={}", a, b);
                }
            }
        }
    }
}

/// A stale member row makes every pair it is in `None` — matching what
/// freshness-checked `best_one_hop` calls would return.
#[test]
fn batch_all_none_when_row_stale() {
    let n = 8;
    let mut store = RowStore::new(n);
    let row: Vec<LinkEntry> = (0..n as u16).map(|d| LinkEntry::live(d + 1, 0.0)).collect();
    store.update_row(0, &row, 0.0);
    store.update_row(1, &row, 0.0);
    store.update_row(2, &row, 50.0);
    store.update_row(3, &row, 50.0);
    let members = [3, 0, 2, 1];
    // At t=40 every row is fresh (max_age 45).
    let fresh = store.best_hops_all_pairs(&members, 40.0, 45.0);
    assert!(fresh.get(1, 3).is_some());
    // At t=60 rows 0 and 1 are stale: only the pair {2, 3} survives.
    let late = store.best_hops_all_pairs(&members, 60.0, 45.0);
    for i in 0..members.len() {
        for j in 0..members.len() {
            let live = i != j && members[i] >= 2 && members[j] >= 2;
            assert_eq!(late.get(i, j).is_some(), live, "i={i} j={j}");
        }
    }
}

/// The packed-key tie-breaks, pinned on hand-built rows: equal-cost
/// relays go to the lowest hop index, a relay exactly as cheap as the
/// direct link loses to it, and two 65534-ms legs still make a path.
#[test]
fn all_pairs_tie_breaks() {
    let n = 8;
    let dead = LinkEntry::dead();
    let live = |ms| LinkEntry::live(ms, 0.0);
    let mut store = RowStore::new(n);
    // 0 ↔ 1: direct 4; relays 3 (2 + 2) and 4 (1 + 3), both at cost 4.
    // 0 ↔ 2: no direct; relays 5 and 6 (1 + 1), both at cost 2.
    // 1 ↔ 2: no direct; only relay 7 at 65534 + 65534.
    let mut r0 = vec![dead; n];
    r0[0] = live(0);
    r0[1] = live(4);
    r0[3] = live(2);
    r0[4] = live(1);
    r0[5] = live(1);
    r0[6] = live(1);
    let mut r1 = vec![dead; n];
    r1[1] = live(0);
    r1[3] = live(2);
    r1[4] = live(3);
    r1[7] = live(65534);
    let mut r2 = vec![dead; n];
    r2[2] = live(0);
    r2[5] = live(1);
    r2[6] = live(1);
    r2[7] = live(65534);
    for (o, r) in [(0, &r0), (1, &r1), (2, &r2)] {
        store.update_row(o, r, 0.0);
    }
    let members = [0, 1, 2];
    let got = store.best_hops_all_pairs(&members, 1.0, 45.0);
    assert_eq!(got.get(0, 1), Some((1, 4.0)));
    assert_eq!(got.get(1, 0), Some((0, 4.0)));
    assert_eq!(got.get(0, 2), Some((5, 2.0)));
    assert_eq!(got.get(2, 0), Some((5, 2.0)));
    assert_eq!(got.get(1, 2), Some((7, 131_068.0)));
    for (i, &a) in members.iter().enumerate() {
        for (j, &b) in members.iter().enumerate() {
            assert_eq!(got.get(i, j), store.best_one_hop(a, b, 1.0, 45.0));
        }
    }
}
