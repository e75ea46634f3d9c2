//! Sans-io routing protocol cores for the all-pairs overlay.
//!
//! Everything here is a pure state machine: handlers take the current
//! time and decoded messages, and return messages to transmit. No sockets,
//! no clocks, no tasks — any driver that delivers packets and timers runs
//! the same code (today the `apor-netsim` simulator, through
//! `apor-overlay`), which is the property the paper leans on when it
//! claims its emulation "uses the same implementation as the one deployed
//! on the Internet" (section 6.1).
//!
//! * [`config`] — the protocol constants of section 5's parameter table.
//! * [`prober`] — RON link monitoring: 30 s probes, rapid re-probe after a
//!   first loss, 5-failure death, EWMA latency; optionally the
//!   sub-quadratic entitled+sampled probing plane with batched frames.
//! * [`adaptive`] — the per-link adaptive probe-rate state machine
//!   (exponential backoff on stable links, snap-back on change).
//! * [`fullmesh`] — the baseline: broadcast link state to everyone,
//!   `Θ(n²)` per-node communication.
//! * [`quorum_router`] — the paper's contribution: the two-round grid
//!   quorum protocol (section 3) with rapid rendezvous failover, remote
//!   failure detection, dead-destination suppression and §4.2 local route
//!   scavenging.
//! * [`multihop`] — the `log l` iteration scheme for optimal routes of
//!   length ≤ l (section 3, "Multi-hop routes"), with the `Sec` next-hop
//!   recovery trick, plus its communication accounting.
//! * [`onehop`] — offline reference computations for the figure 1 detour
//!   study (best one-hop, best-after-excluding-top-n%).
//! * [`feasibility`] — the Babel-style route discipline (RFC 8966) the
//!   k-hop detour layer runs under: per-destination feasibility
//!   distances, seqno-gated acceptance, explicit retraction, and the
//!   loop-freedom argument that lets the overlay splice detours from
//!   live rows without a consistent snapshot. The whole discipline —
//!   wire trailer, feasibility rules, source-routed splices, measured
//!   recovery wins — is documented in `docs/ROUTING.md` at the
//!   repository root.

#![forbid(unsafe_code)]
// The numeric kernels index several arrays with one loop counter;
// iterator rewrites obscure them without changing the codegen.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod config;
pub mod feasibility;
pub mod fullmesh;
pub mod multihop;
pub mod onehop;
pub mod prober;
pub mod quorum_router;

pub use adaptive::{AdaptiveProbeRate, RateSample};
pub use config::{ProbePolicy, ProtocolConfig};
pub use feasibility::{select_detour, Detour, FeasEntry, FeasibilityTable};
pub use fullmesh::FullMeshRouter;
pub use multihop::{multihop_routes, MultiHopResult};
pub use prober::{ProbeAction, Prober};
pub use quorum_router::{QuorumRouter, RouteDecision};

use apor_linkstate::{LaneRow, LinkStateStore, Message};

/// One exported link-state row: what the overlay carries across a
/// membership change so the rebuilt router keeps both the measurements
/// *and* the seqno guard (a carried row must not be replayable over a
/// newer one).
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedRow {
    /// Row origin (grid index in the view the row was exported from).
    pub origin: usize,
    /// Original receipt time, seconds (freshness keeps applying).
    pub received_at: f64,
    /// The live entries with the origin's seqno and retraction lane.
    pub row: LaneRow,
}

/// Every row `store` holds, with its receipt time, seqno and retraction
/// lane — the shared body of [`RoutingAlgorithm::export_rows`].
fn export_store_rows(store: &impl LinkStateStore) -> Vec<VersionedRow> {
    store
        .present_rows()
        .into_iter()
        .filter_map(|origin| {
            Some(VersionedRow {
                origin,
                received_at: store.row_time(origin)?,
                row: store.lane_row(origin)?,
            })
        })
        .collect()
}

/// What one routing tick transmits.
///
/// Round one sends the *same* link-state row to every recipient (about
/// `2√n` rendezvous servers in the quorum, all `n − 1` peers in the full
/// mesh), so the tick returns that frame once together with the list of
/// its recipients; drivers serialize it once and stamp each recipient
/// into the `to` field ([`Message::encode_fanout`]). The frame's own
/// `to` is the sender's index — a placeholder: receivers never read
/// `to`, so a driver that delivers decoded messages can hand the one
/// shared frame to every recipient as is. Round-two recommendations
/// differ per client and stay individually addressed messages.
#[derive(Debug)]
pub struct TickOut {
    /// This tick's round-one link-state frame, if it sends one.
    pub frame: Option<Message>,
    /// Grid indices that receive `frame`, ascending; never the sender.
    pub frame_to: Vec<usize>,
    /// Per-client messages (round-two recommendations), each addressed
    /// by its own `to`.
    pub msgs: Vec<Message>,
}

impl TickOut {
    /// Every transmission this tick stands for, as `(recipient, message)`
    /// pairs: the frame once per recipient (in `frame_to` order), then
    /// `msgs` — the order the node puts them on the wire.
    pub fn deliveries(&self) -> impl Iterator<Item = (usize, &Message)> + '_ {
        self.frame
            .iter()
            .flat_map(|f| self.frame_to.iter().map(move |&to| (to, f)))
            .chain(self.msgs.iter().map(|m| (m.to().index(), m)))
    }
}

/// The routing-side behaviour shared by the full-mesh baseline and the
/// quorum router, so the overlay node runtime is algorithm-agnostic.
pub trait RoutingAlgorithm {
    /// Called every routing interval with the node's freshly measured own
    /// link-state row. Returns the tick's link-state frame once with its
    /// recipients, plus the per-client recommendations (see [`TickOut`]).
    fn on_routing_tick(
        &mut self,
        now: f64,
        own_row: &[apor_linkstate::LinkEntry],
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> TickOut;

    /// Called for every routing-class message addressed to this node.
    /// May return immediate transmissions (e.g. link state to a freshly
    /// selected failover rendezvous).
    fn on_message(&mut self, now: f64, msg: &Message) -> Vec<Message>;

    /// The current best first hop towards `dst` (`hop == dst` ⇒ direct),
    /// or `None` when the node knows no route.
    fn best_hop(&self, dst: usize, now: f64) -> Option<usize>;

    /// Seconds since this node last received routing information about
    /// `dst` (the freshness metric of figures 12–14).
    fn route_age(&self, dst: usize, now: f64) -> Option<f64>;

    /// Number of destinations currently experiencing a *double rendezvous
    /// failure* from this node's perspective (figure 11). Zero for the
    /// full-mesh baseline, which has no rendezvous.
    fn double_rendezvous_failures(&self, now: f64) -> usize;

    /// Snapshot every held link-state row with its receipt time, seqno
    /// and retraction lane — the overlay layer uses this on a
    /// membership change to carry surviving measurements into the
    /// freshly built router (the *incremental view remap*) instead of
    /// rebuilding from empty.
    fn export_rows(&self) -> Vec<VersionedRow>;

    /// Install a row carried over from a previous view, already
    /// translated into this router's index space and stamped with its
    /// *original* receipt time (so the 3-interval freshness rule keeps
    /// applying) and its origin seqno (so older frames stay refused).
    /// Implementations drop rows their role does not entitle them to;
    /// out-of-range rows are ignored.
    fn import_row(&mut self, row: &VersionedRow);
}
