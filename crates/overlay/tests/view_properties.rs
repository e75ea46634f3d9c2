//! Property test for `MembershipView`'s O(1) identity↔index translation
//! over sparse, non-contiguous member ids drawn from the whole `u16`
//! range, with the extremes 0 and 65535 in or out of the view:
//!
//! * `id_of(index_of(id)) == id` for every member, and the index is the
//!   member's position in the sorted list;
//! * every absent id — random probes, the neighbours of each member and
//!   both extremes when not members — maps to `None`.

use apor_overlay::membership::MembershipView;
use apor_quorum::NodeId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn index_of_inverts_id_of(
        ids in prop::collection::vec(any::<u16>(), 0..48),
        with_min in any::<bool>(),
        with_max in any::<bool>(),
        probes in prop::collection::vec(any::<u16>(), 0..48),
        version in any::<u32>(),
    ) {
        let mut ids = ids;
        if with_min {
            ids.push(0);
        }
        if with_max {
            ids.push(u16::MAX);
        }
        // Unsorted, with duplicates: the view sorts and deduplicates.
        let view = MembershipView::new(version, ids.iter().copied().map(NodeId).collect());
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let sorted: Vec<NodeId> = sorted.into_iter().map(NodeId).collect();
        prop_assert_eq!(view.members(), &sorted[..]);
        prop_assert_eq!(view.version(), version);

        for (idx, &id) in view.members().iter().enumerate() {
            prop_assert_eq!(view.index_of(id), Some(idx));
            prop_assert_eq!(view.id_of(idx), Some(id));
            prop_assert!(view.contains(id));
        }
        prop_assert_eq!(view.id_of(view.len()), None);

        let neighbours = ids.iter().flat_map(|&m| [m.wrapping_sub(1), m.wrapping_add(1)]);
        for probe in probes.into_iter().chain(neighbours).chain([0, u16::MAX]) {
            let id = NodeId(probe);
            let want = sorted.binary_search(&id).ok();
            prop_assert_eq!(view.index_of(id), want, "id {}", probe);
            prop_assert_eq!(view.contains(id), want.is_some());
        }
    }
}
