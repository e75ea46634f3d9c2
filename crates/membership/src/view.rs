//! The view-agreement ledger: from gossip events to agreed, versioned
//! membership views.
//!
//! ## The invariant
//!
//! The overlay's quorum grid is derived from the *sorted member list* of
//! the current view, and routing messages are tagged with the *view
//! version*; two nodes that exchange grid-indexed state while holding
//! the same version must hold the same list. A centralized coordinator
//! gets this for free by numbering its broadcasts. A gossip protocol
//! has no single sequencer, so this module makes both the list and the
//! version **pure functions of converged state**:
//!
//! * Per member, the ledger keeps `(incarnation, dead)` — a
//!   join-semilattice ordered by incarnation first, then `dead > alive`.
//!   Applying events in any order, with any duplication, converges to
//!   the same per-member state (eventual-consistency workhorse).
//! * The **version** is the sum over members of `2·incarnation + dead + 1`.
//!   Every lattice step strictly increases one summand (or adds one), so
//!   the version is monotone along every node's local history, and equal
//!   ledgers give equal versions — no counter exchange needed.
//!
//! Transient *suspicion* never enters the ledger: only confirmed events
//! (join, refutation, confirmed-faulty, leave) move views, which keeps
//! the grid stable under probe noise.

use apor_quorum::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Converged per-member state: the lattice point `(incarnation, dead)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemberState {
    /// The member's self-asserted incarnation (bumped to refute
    /// suspicion).
    pub incarnation: u32,
    /// Confirmed faulty or departed at this incarnation.
    pub dead: bool,
}

impl MemberState {
    /// A fresh, live member at incarnation 0.
    #[must_use]
    pub fn joined() -> Self {
        MemberState {
            incarnation: 0,
            dead: false,
        }
    }

    /// Does `(incarnation, dead)` supersede `self` in the lattice?
    #[must_use]
    pub fn superseded_by(self, incarnation: u32, dead: bool) -> bool {
        incarnation > self.incarnation || (incarnation == self.incarnation && dead && !self.dead)
    }

    /// This state's contribution to the view version, scaled by the
    /// member's salt so that *different* concurrent events almost
    /// never sum to the same version (see [`ViewLedger::version`]).
    fn version_weight(self, id: NodeId) -> u32 {
        (2 * self.incarnation + u32::from(self.dead) + 1).saturating_mul(version_salt(id))
    }
}

/// A deterministic per-member multiplier in `1..=16`, so two ledgers
/// that diverge by events about *different* members disagree on the
/// version with high probability (equal-sum collisions need
/// `salt(a)·Δa = salt(b)·Δb`).
fn version_salt(id: NodeId) -> u32 {
    let mut z = u32::from(id.0).wrapping_mul(0x9E37_79B9);
    z ^= z >> 16;
    1 + (z & 0xF)
}

/// The grow-only membership ledger shared (by convergence, not by
/// consensus) across all nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewLedger {
    records: BTreeMap<NodeId, MemberState>,
}

impl ViewLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        ViewLedger::default()
    }

    /// A ledger bootstrapped with `members` all live at incarnation 0 —
    /// every node bootstrapped with the same set derives the identical
    /// initial view.
    #[must_use]
    pub fn bootstrap(members: &[NodeId]) -> Self {
        let mut ledger = ViewLedger::new();
        for &m in members {
            ledger.records.insert(m, MemberState::joined());
        }
        ledger
    }

    /// Apply one confirmed event. Returns `true` when the ledger moved
    /// (⇒ the event is news worth re-gossiping).
    pub fn apply(&mut self, id: NodeId, incarnation: u32, dead: bool) -> bool {
        match self.records.get_mut(&id) {
            Some(state) => {
                if state.superseded_by(incarnation, dead) {
                    *state = MemberState { incarnation, dead };
                    true
                } else {
                    false
                }
            }
            None => {
                self.records.insert(id, MemberState { incarnation, dead });
                true
            }
        }
    }

    /// The member's converged state, if ever heard of.
    #[must_use]
    pub fn state(&self, id: NodeId) -> Option<MemberState> {
        self.records.get(&id).copied()
    }

    /// The member's current incarnation (0 when unknown).
    #[must_use]
    pub fn incarnation(&self, id: NodeId) -> u32 {
        self.records.get(&id).map_or(0, |s| s.incarnation)
    }

    /// Is `id` currently a live member?
    #[must_use]
    pub fn is_live(&self, id: NodeId) -> bool {
        self.records.get(&id).is_some_and(|s| !s.dead)
    }

    /// Number of live members, without materializing the list.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.records.values().filter(|s| !s.dead).count()
    }

    /// The live members, sorted ascending — the quorum grid's order.
    #[must_use]
    pub fn members(&self) -> Vec<NodeId> {
        // BTreeMap iteration is already sorted and deduplicated.
        self.records
            .iter()
            .filter(|(_, s)| !s.dead)
            .map(|(&id, _)| id)
            .collect()
    }

    /// The view version: monotone along any application order, equal
    /// for equal ledgers.
    ///
    /// ## The transient-collision window
    ///
    /// No monotone 32-bit scalar can injectively name every member
    /// list, so two ledgers that have diverged by *different*
    /// concurrent events could in principle share a version while
    /// holding different lists — a transient violation of the
    /// identical-views ⇒ identical-grids invariant, healed at the
    /// next gossip convergence (the union of the events is a strictly
    /// higher version, which rebuilds the grid). The per-member salt
    /// in `version_salt` makes such collisions require
    /// `salt(a)·Δa = salt(b)·Δb` rather than the common symmetric
    /// case `Δa = Δb`; eliminating the window entirely needs a
    /// content digest in the routing wire (ROADMAP follow-on).
    #[must_use]
    pub fn version(&self) -> u32 {
        self.records
            .iter()
            .map(|(&id, s)| s.version_weight(id))
            .fold(0u32, u32::saturating_add)
    }

    /// Number of members ever heard of (live + dead).
    #[must_use]
    pub fn known(&self) -> usize {
        self.records.len()
    }

    /// A 32-bit content fingerprint: FNV-1a over the sorted records,
    /// folded from 64 bits. Equal ledgers give equal fingerprints;
    /// *different* ledgers collide with probability ≈ 2⁻³², not the
    /// percent-level odds of the salted [`version`](Self::version) sum
    /// — which is why anti-entropy digests compare this, never the
    /// version. (Unlike the version it is not monotone; it only
    /// answers "same or different?".)
    #[must_use]
    pub fn fingerprint(&self) -> u32 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        };
        for (&id, s) in &self.records {
            for b in id.0.to_be_bytes() {
                eat(b);
            }
            for b in s.incarnation.to_be_bytes() {
                eat(b);
            }
            eat(u8::from(s.dead));
        }
        (h ^ (h >> 32)) as u32
    }

    /// Iterate over all records (diagnostics, anti-entropy follow-on).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, MemberState)> + '_ {
        self.records.iter().map(|(&id, &s)| (id, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_is_order_insensitive_and_idempotent() {
        let events = [
            (NodeId(3), 0, false),
            (NodeId(5), 0, false),
            (NodeId(3), 0, true),
            (NodeId(3), 1, false),
            (NodeId(9), 2, true),
        ];
        let mut forward = ViewLedger::new();
        for &(id, inc, dead) in &events {
            forward.apply(id, inc, dead);
            forward.apply(id, inc, dead); // duplicate delivery
        }
        let mut backward = ViewLedger::new();
        for &(id, inc, dead) in events.iter().rev() {
            backward.apply(id, inc, dead);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.version(), backward.version());
        assert_eq!(forward.members(), vec![NodeId(3), NodeId(5)]);
    }

    #[test]
    fn version_is_monotone() {
        let mut ledger = ViewLedger::bootstrap(&[NodeId(1), NodeId(2)]);
        let mut last = ledger.version();
        let events = [
            (NodeId(7), 0, false), // join
            (NodeId(2), 0, true),  // confirmed faulty
            (NodeId(2), 1, false), // rejoin at next incarnation
            (NodeId(1), 3, false), // refutations skipped ahead
            (NodeId(1), 3, true),  // then confirmed dead
        ];
        for &(id, inc, dead) in &events {
            assert!(ledger.apply(id, inc, dead));
            let v = ledger.version();
            assert!(v > last, "version must strictly increase, {v} vs {last}");
            last = v;
        }
        // Stale news moves nothing.
        assert!(!ledger.apply(NodeId(2), 0, true));
        assert_eq!(ledger.version(), last);
    }

    #[test]
    fn dead_beats_alive_within_incarnation_only() {
        let mut ledger = ViewLedger::new();
        ledger.apply(NodeId(4), 1, true);
        assert!(
            !ledger.apply(NodeId(4), 1, false),
            "alive(1) loses to dead(1)"
        );
        assert!(!ledger.is_live(NodeId(4)));
        assert!(ledger.apply(NodeId(4), 2, false), "alive(2) resurrects");
        assert!(ledger.is_live(NodeId(4)));
    }

    #[test]
    fn fingerprint_separates_what_the_version_sum_conflates() {
        // Two ledgers diverged by different events can share a version
        // (the salted sum has percent-level collisions); the content
        // fingerprint must still tell them apart. Construct a real sum
        // collision: two dead-flips whose salts are equal.
        let ids: Vec<NodeId> = (0..200).map(NodeId).collect();
        let (a_id, b_id) = {
            let mut found = None;
            'outer: for &a in &ids {
                for &b in &ids {
                    if a != b {
                        let base = ViewLedger::bootstrap(&[a, b]);
                        let mut da = base.clone();
                        da.apply(a, 0, true);
                        let mut db = base.clone();
                        db.apply(b, 0, true);
                        if da.version() == db.version() {
                            found = Some((a, b));
                            break 'outer;
                        }
                    }
                }
            }
            found.expect("16 salt values over 200 ids must collide")
        };
        let base = ViewLedger::bootstrap(&[a_id, b_id]);
        let mut da = base.clone();
        da.apply(a_id, 0, true);
        let mut db = base.clone();
        db.apply(b_id, 0, true);
        assert_eq!(da.version(), db.version(), "constructed version collision");
        assert_ne!(da, db);
        assert_ne!(
            da.fingerprint(),
            db.fingerprint(),
            "the content fingerprint must separate diverged ledgers"
        );
        // Equal ledgers always agree.
        assert_eq!(
            base.fingerprint(),
            ViewLedger::bootstrap(&[b_id, a_id]).fingerprint()
        );
    }

    #[test]
    fn bootstrap_views_identical() {
        let a = ViewLedger::bootstrap(&[NodeId(9), NodeId(1), NodeId(4)]);
        let b = ViewLedger::bootstrap(&[NodeId(1), NodeId(4), NodeId(9)]);
        assert_eq!(a.version(), b.version());
        assert_eq!(a.members(), b.members());
        assert_eq!(a.members(), vec![NodeId(1), NodeId(4), NodeId(9)]);
    }
}
