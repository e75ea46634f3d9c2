//! Parity properties for the struct-of-arrays (lanes) row layout.
//!
//! The lanes kernel must be observationally invisible to routing: same
//! hop chosen (including lowest-index tie-breaks), same cost to the
//! bit, across both row views (the dense `LinkStateTable` slice and the
//! lane-backed `RowStore` row, alone and mixed in one pair), and
//! the lanes themselves must hold the exact wire bytes so a row that
//! travelled through `wire.rs` encode/decode is bit-identical to one
//! stored directly. A dense table and a row store fed the same frames
//! must answer every kernel query alike. The all-pairs round-two
//! kernel must in turn equal the per-pair kernel on every ordered pair
//! of members.

use apor_linkstate::wire::{LinkStateMsg, SparseLinkStateMsg};
use apor_linkstate::{
    best_one_hop_rows, LaneRow, LinkEntry, LinkStateStore, LinkStateTable, Message, RowStore,
    WireEntry,
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

/// A dense row in its wire form — the payload of a dense frame.
fn wire(row: &[LinkEntry]) -> Vec<WireEntry> {
    row.iter().map(LinkEntry::encode).collect()
}

/// Live `(dst, wire entry)` pairs of a dense row, ascending — the
/// payload of a sparse link-state frame.
fn live_pairs(row: &[LinkEntry]) -> Vec<(u16, WireEntry)> {
    row.iter()
        .enumerate()
        .filter(|(_, e)| e.alive)
        .map(|(d, e)| (d as u16, e.encode()))
        .collect()
}

/// An arbitrary wire row of width `n`: live entries over the full
/// latency range (`0xFFFF` included), dead entries with junk
/// latency/loss bytes, and about one entry in three dead.
fn arb_wire_row(n: usize) -> impl Strategy<Value = Vec<WireEntry>> {
    prop::collection::vec(
        (
            prop_oneof![1u16..4, 1u16..2000, 65534u16..=65535],
            any::<u16>(),
            any::<u8>(),
            prop::bool::weighted(0.65),
        ),
        n,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(lat, junk, loss, alive)| {
                if alive {
                    let [hi, lo] = lat.to_be_bytes();
                    [hi, lo, 0x80 | loss]
                } else {
                    let [hi, lo] = junk.to_be_bytes();
                    [hi, lo, loss & 0x7F]
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Kernel parity at n = 100 over both row views: the dense table,
    /// the lane-backed sparse store, and the raw kernel over a mixed
    /// pair (one dense slice, one lane row — the merge-join path rather
    /// than the shared-lane fast path) all pick the identical hop at
    /// the identical cost — exact equality, not epsilon, since costs
    /// are integer milliseconds in both views.
    #[test]
    fn two_view_kernel_parity_n100(
        rows in prop::collection::vec(arb_row(100), 4..7),
        pairs in prop::collection::vec((0usize..4, 0usize..100), 8..9),
    ) {
        let n = 100;
        let mut dense = LinkStateTable::new(n);
        let mut lanes = RowStore::new(n);
        for (i, row) in rows.iter().enumerate() {
            let mut row = row.clone();
            row[i] = LinkEntry::live(0, 0.0);
            dense.put_dense(i, &wire(&row), 0.0);
            lanes.put_row(i, LaneRow::from_dense(&row), 0.0);
        }
        for &(a, b) in &pairs {
            // Origins 0..rows.len() all hold rows; `a` is one of them.
            if a == b {
                continue;
            }
            let want = dense.best_one_hop(a, b, 1.0, 45.0);
            let got = lanes.best_one_hop(a, b, 1.0, 45.0);
            prop_assert_eq!(got, want, "store parity a={} b={}", a, b);

            // Raw kernel over mixed borrowed views of the same rows.
            if b < rows.len() {
                let (da, db) = (dense.row_ref(a).unwrap(), dense.row_ref(b).unwrap());
                let (la, lb) = (lanes.row_ref(a).unwrap(), lanes.row_ref(b).unwrap());
                for (ra, rb) in [(&da, &lb), (&la, &db)] {
                    let raw = best_one_hop_rows(ra, rb, a, b).map(|(h, c)| (h, f64::from(c)));
                    prop_assert_eq!(raw, want, "mixed-view parity a={} b={}", a, b);
                }
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
            entries: wire(&row),
            seqno: 0,
            retractions: vec![],
        });
        let Ok(Message::LinkState(decoded)) = Message::decode(&msg.encode()) else {
            panic!("dense wire round trip failed");
        };
        prop_assert_eq!(
            LaneRow::from_dense(&row),
            LaneRow::from_wire(&decoded.entries),
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
            LaneRow::from_dense(&row),
            LaneRow::from_wire_pairs(&sdec.entries),
            "sparse wire path not bit-identical"
        );
    }

    /// A dense table and a row store fed the same received frames —
    /// each origin's row sent dense or sparse, through encode/decode,
    /// ingested the way the routers ingest them — agree on
    /// `best_one_hop`, `one_hop_options` and `best_hops_all_pairs` for
    /// every pair, over arbitrary wire entries.
    #[test]
    fn stores_fed_the_same_frames_agree(
        rows in prop::collection::vec((arb_wire_row(24), any::<bool>()), 2..10),
        members_raw in prop::collection::vec(0usize..24, 2..12),
    ) {
        let n = 24;
        let mut table = LinkStateTable::new(n);
        let mut store = RowStore::new(n);
        for (origin, (row, sparse)) in rows.iter().enumerate() {
            let msg = if *sparse {
                Message::LinkStateSparse(SparseLinkStateMsg {
                    from: NodeId::from_index(origin),
                    to: NodeId::from_index(0),
                    view: 1,
                    round: 1,
                    basis_ms: 0,
                    width: n as u16,
                    entries: row
                        .iter()
                        .enumerate()
                        .map(|(d, &w)| (d as u16, w))
                        .filter(|&(_, w)| w[2] & 0x80 != 0)
                        .collect(),
                    seqno: 0,
                    retractions: vec![],
                })
            } else {
                Message::LinkState(LinkStateMsg {
                    from: NodeId::from_index(origin),
                    to: NodeId::from_index(0),
                    view: 1,
                    round: 1,
                    basis_ms: 0,
                    entries: row.clone(),
                    seqno: 0,
                    retractions: vec![],
                })
            };
            match Message::decode(&msg.encode()).expect("decode own frame") {
                Message::LinkState(ls) => {
                    table.put_dense(origin, &ls.entries, 0.0);
                    store.put_row(origin, LaneRow::from_wire(&ls.entries), 0.0);
                }
                Message::LinkStateSparse(ls) => {
                    table.put_row(origin, LaneRow::from_wire_pairs(&ls.entries), 0.0);
                    store.put_row(origin, LaneRow::from_wire_pairs(&ls.entries), 0.0);
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(
                    table.best_one_hop(a, b, 1.0, 45.0),
                    store.best_one_hop(a, b, 1.0, 45.0),
                    "best_one_hop a={} b={}", a, b
                );
                prop_assert_eq!(
                    table.one_hop_options(a, b, 1.0, 45.0),
                    store.one_hop_options(a, b, 1.0, 45.0),
                    "one_hop_options a={} b={}", a, b
                );
            }
        }
        let mut members = members_raw;
        members.dedup();
        prop_assert_eq!(
            table.best_hops_all_pairs(&members, 1.0, 45.0),
            store.best_hops_all_pairs(&members, 1.0, 45.0)
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
            lanes.put_row(*o, LaneRow::from_dense(row), at);
            dense.put_dense(*o, &wire(row), at);
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
    for (o, at) in [(0, 0.0), (1, 0.0), (2, 50.0), (3, 50.0)] {
        store.put_row(o, LaneRow::from_dense(&row), at);
    }
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
        store.put_row(o, LaneRow::from_dense(r), 0.0);
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
