//! The two-round grid-quorum router — the paper's contribution.
//!
//! Round one: send the measured link-state row to the rendezvous servers
//! (the node's grid row and column, ~`2√n` nodes) plus any active failover
//! servers. Round two (in the same tick, as a *server*): for every pair of
//! fresh rendezvous clients compute the optimal one-hop path and return
//! per-client recommendation messages. Every pair of nodes shares at least
//! two rendezvous servers, so every node keeps learning its optimal
//! one-hop route to every destination with `Θ(n√n)` per-node traffic.
//!
//! The router is generic over its [`LinkStateStore`]: the default
//! [`RowStore`] holds only the `O(√n)` rows the node actually receives
//! (so per-node state matches the paper's `O(n√n)` bound — the grid
//! removes not just the traffic but the memory of the full mesh), while
//! the dense [`LinkStateTable`](apor_linkstate::LinkStateTable) remains
//! pluggable for baseline comparisons in the scale experiments.
//!
//! Section 4's failure machinery is implemented in full:
//!
//! * **proximal failures** — my own probes say the server is dead;
//! * **remote failures** — the server is alive but stopped recommending a
//!   destination (it must have lost that destination's link state);
//! * **rapid rendezvous failover** — on a double failure, pick a random
//!   reachable node from the destination's row/column, send it link state
//!   immediately, and watch whether its recommendations cover the
//!   destination; retry otherwise;
//! * **dead-destination suppression** — after the first failover attempt,
//!   only keep trying while somebody's link-state table still reaches the
//!   destination;
//! * **reversion** — the failover server is dropped as soon as a default
//!   rendezvous works again;
//! * **§4.2 scavenging** — with no usable recommendation, route through
//!   the best of the `2√n` neighbour tables the node already holds.

use crate::config::ProtocolConfig;
use crate::feasibility::{select_detour, Detour, FeasibilityTable};
use crate::{export_store_rows, RoutingAlgorithm, TickOut, VersionedRow};
use apor_linkstate::{
    LaneRow, LinkEntry, LinkStateMsg, LinkStateStore, Message, RecEntry, RecommendationMsg,
    RowStore, SparseLinkStateMsg, WireEntry,
};
use apor_quorum::{Grid, NodeId};
use apor_telemetry::{Counter, Gauge, Histogram, SpanKind, Telemetry, TraceCtx, Tracer};
use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

/// A received best-hop recommendation for one destination.
#[derive(Debug, Clone, Copy)]
pub struct RouteEntry {
    /// Recommended first hop (`hop == dst` ⇒ direct link).
    pub hop: usize,
    /// The rendezvous server that sent it.
    pub from_server: usize,
    /// When it arrived, seconds.
    pub received_at: f64,
    /// Path cost as computed by the server, ms (`u16::MAX` = not on wire).
    pub cost_ms: u16,
}

/// How this node forwards towards a destination right now.
///
/// [`RouteDecision::Hop`] is the paper's forwarding mode — a fresh
/// recommendation, the direct link, or a 1-hop scavenge; each relay
/// re-decides from its own tables. [`RouteDecision::Spliced`] is the
/// feasibility-gated k-hop fallback: the source commits to the whole
/// relay chain and the packet is source-routed along it, because the
/// intermediate relays were chosen from rows *this* node holds — their
/// own stores need not contain the rows that justified the splice.
#[derive(Debug, Clone)]
pub enum RouteDecision {
    /// Forward to this first hop; downstream nodes re-decide.
    Hop(usize),
    /// Source-route along the spliced detour's full path.
    Spliced(Detour),
}

impl RouteDecision {
    /// The first hop either way — what the wire forwards to next.
    #[must_use]
    pub fn first_hop(&self) -> usize {
        match self {
            Self::Hop(h) => *h,
            Self::Spliced(d) => d.path[1],
        }
    }
}

/// Per-destination failover state (section 4.1).
#[derive(Debug, Clone, Default)]
struct FailoverState {
    /// The active failover rendezvous, if any.
    current: Option<usize>,
    /// Candidates already tried (and failed) in this episode.
    tried: BTreeSet<usize>,
    /// Set when the destination itself is believed dead.
    gave_up: bool,
}

/// Counters for experiments and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuorumMetrics {
    /// Failover rendezvous selections performed.
    pub failovers_selected: u64,
    /// Link-state messages sent.
    pub ls_sent: u64,
    /// Recommendation messages sent.
    pub recs_sent: u64,
    /// Recommendation entries received.
    pub rec_entries_received: u64,
}

/// Sentinel for "no timestamp yet" in the dense `serving_since` vector.
const NEVER: f64 = f64::NEG_INFINITY;

/// Registry-backed cells behind [`QuorumMetrics`]. The counters are the
/// single source of truth — [`QuorumRouter::metrics`] reconstructs the
/// public struct from them — so a router attached to a live [`Telemetry`]
/// feeds the fleet snapshot for free, and a detached one (the default
/// disabled registry) still counts for tests and experiments.
#[derive(Debug, Clone)]
struct RouterCounters {
    failovers_selected: Counter,
    ls_sent: Counter,
    recs_sent: Counter,
    rec_entries_received: Counter,
    /// Estimated heap bytes of the sparse `rec_seen` maps (16 bytes per
    /// `(dst, timestamp)` entry).
    rec_seen_bytes: Gauge,
    /// Wall-clock cost of one round-two recommendation pass, µs.
    round_two_us: Histogram,
}

impl RouterCounters {
    fn new(t: &Telemetry) -> Self {
        RouterCounters {
            failovers_selected: t.counter("routing", "failovers_selected"),
            ls_sent: t.counter("routing", "ls_sent"),
            recs_sent: t.counter("routing", "recs_sent"),
            rec_entries_received: t.counter("routing", "rec_entries_received"),
            rec_seen_bytes: t.gauge("routing", "rec_seen_bytes"),
            round_two_us: t.histogram("routing", "round_two_us"),
        }
    }
}

/// The per-node quorum routing state machine, generic over its link-state
/// store (default: the sparse [`RowStore`]).
pub struct QuorumRouter<S: LinkStateStore = RowStore> {
    me: usize,
    n: usize,
    grid: Grid,
    view: u32,
    round: u32,
    config: ProtocolConfig,
    table: S,
    own_row: Vec<LinkEntry>,
    /// Cached: my default rendezvous servers (grid row + column).
    my_servers: Vec<usize>,
    /// Latest accepted recommendation per destination.
    routes: Vec<Option<RouteEntry>>,
    /// `rec_seen[s]` — last time server `s` recommended any route for a
    /// destination, as a sparse map keyed by destination (absent key =
    /// no recommendation yet). Only the `~2√n` servers that actually
    /// send recommendations hold entries, and each holds only the
    /// destinations it has vouched for — `O(√n · √n)` entries total
    /// versus the `n` slots per server a dense row would burn.
    rec_seen: Vec<BTreeMap<usize, f64>>,
    /// Entries across all of `rec_seen`, kept as a running count: entries
    /// are never removed, so bumping it on each new key is exact and the
    /// byte gauge costs O(1) per recommendation frame.
    rec_seen_entries: usize,
    /// When I first sent link state to each server (grace-period
    /// anchor); grid-indexed, [`NEVER`] = never served.
    serving_since: Vec<f64>,
    /// Per-destination failover machinery.
    failover: Vec<FailoverState>,
    /// My row's sequence number: 0 until the first retraction event
    /// (frames stay bit-identical to the legacy format), then bumped on
    /// every tick that withdraws at least one link, so receivers'
    /// replay guards and feasibility resets key off it.
    own_seqno: u16,
    /// Links withdrawn recently: destination → round of withdrawal.
    /// Advertised in the link-state retraction lane for a few rounds,
    /// dropped as soon as the link recovers.
    retractions: BTreeMap<u16, u32>,
    /// The route discipline for k-hop detour splicing (section 4.2
    /// generalized): per-destination feasibility distances and the
    /// detour-layer telemetry.
    feasibility: FeasibilityTable,
    /// Registry-backed event counters (see [`QuorumMetrics`]).
    counters: RouterCounters,
    tracer: Tracer,
    /// Episode context adopted at view install: the next few row
    /// imports record `RowImport` spans under it (bounded so a noisy
    /// store cannot spam the flight recorder), then it clears.
    trace_ctx: Option<(TraceCtx, u32)>,
}

impl QuorumRouter<RowStore> {
    /// A quorum router for node `me` under membership `view` of size `n`,
    /// backed by the sparse row store with the `O(√n)` entitlement guard
    /// (stale rows are shed under capacity pressure — see
    /// [`RowStore::with_entitlement`]).
    #[must_use]
    pub fn new(me: usize, n: usize, view: u32, config: ProtocolConfig) -> Self {
        let store = RowStore::with_entitlement(n, Self::row_entitlement(n), config.staleness_s());
        Self::with_store(me, n, view, config, store)
    }

    /// [`QuorumRouter::new`] with both the router counters and the
    /// backing [`RowStore`] registered against a live `telemetry`.
    #[must_use]
    pub fn new_with_telemetry(
        me: usize,
        n: usize,
        view: u32,
        config: ProtocolConfig,
        telemetry: &Telemetry,
    ) -> Self {
        let store = RowStore::with_entitlement(n, Self::row_entitlement(n), config.staleness_s())
            .with_telemetry(telemetry.clone());
        Self::with_store(me, n, view, config, store).with_telemetry(telemetry)
    }

    /// The debug-asserted bound on *fresh* rows a quorum node may hold:
    /// its own row, its `≤ 2·max(rows, cols)` rendezvous clients, plus
    /// slack for transient failover clients (nodes that selected us as
    /// a failover rendezvous and sent us their link state).
    #[must_use]
    pub fn row_entitlement(n: usize) -> usize {
        let grid = Grid::new(n.max(1));
        2 * grid.max_rendezvous_degree() + 16
    }
}

impl<S: LinkStateStore> QuorumRouter<S> {
    /// A quorum router over an explicit store (the scale experiments use
    /// this to run the identical protocol over the dense baseline).
    ///
    /// # Panics
    /// Panics if `me ≥ n` or the store covers a different `n`.
    #[must_use]
    pub fn with_store(me: usize, n: usize, view: u32, config: ProtocolConfig, table: S) -> Self {
        assert!(me < n);
        assert_eq!(table.len(), n, "store must cover n nodes");
        let grid = Grid::new(n);
        let my_servers = grid.rendezvous_servers(me);
        QuorumRouter {
            me,
            n,
            grid,
            view,
            round: 0,
            config,
            table,
            own_row: vec![LinkEntry::dead(); n],
            my_servers,
            routes: vec![None; n],
            rec_seen: vec![BTreeMap::new(); n],
            rec_seen_entries: 0,
            serving_since: vec![NEVER; n],
            failover: vec![FailoverState::default(); n],
            own_seqno: 0,
            retractions: BTreeMap::new(),
            feasibility: FeasibilityTable::new(),
            counters: RouterCounters::new(&Telemetry::disabled()),
            tracer: Tracer::disabled(),
            trace_ctx: None,
        }
    }

    /// Attach a live telemetry registry: the counters and the `rec_seen`
    /// byte gauges re-register against `telemetry`. Counts recorded on
    /// the previous (default: disabled) registry are left behind, but
    /// re-attaching the same registry — e.g. when a view change rebuilds
    /// the router — resumes its cumulative cells. The link-state store
    /// keeps its own registration — build it via
    /// [`RowStore::with_telemetry`] and [`QuorumRouter::with_store`]
    /// (or [`QuorumRouter::new_with_telemetry`]) to instrument both.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.counters = RouterCounters::new(telemetry);
        self.feasibility = FeasibilityTable::with_telemetry(telemetry);
        self.update_rec_seen_gauges();
        self
    }

    /// Attach a causal tracer (disabled by default; see
    /// [`QuorumRouter::note_episode`]).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Mark upcoming row imports as part of a convergence episode: the
    /// next few accepted rows record `RowImport` spans under `ctx`
    /// before the context clears itself.
    pub fn note_episode(&mut self, ctx: TraceCtx) {
        if self.tracer.enabled() {
            // Enough for the post-remap import wave (~2√n clients) at
            // experiment scales without letting steady-state traffic
            // spam the recorder.
            self.trace_ctx = Some((ctx, 32));
        }
    }

    /// The grid this router derives its quorum from.
    #[must_use]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The link-state store (for inspection).
    #[must_use]
    pub fn table(&self) -> &S {
        &self.table
    }

    /// Event counters, reconstructed from the registry-backed cells.
    #[must_use]
    pub fn metrics(&self) -> QuorumMetrics {
        QuorumMetrics {
            failovers_selected: self.counters.failovers_selected.get(),
            ls_sent: self.counters.ls_sent.get(),
            recs_sent: self.counters.recs_sent.get(),
            rec_entries_received: self.counters.rec_entries_received.get(),
        }
    }

    /// Estimated heap bytes of the sparse `rec_seen` state (16 bytes per
    /// `(dst, timestamp)` entry).
    #[must_use]
    pub fn rec_seen_bytes(&self) -> u64 {
        (self.rec_seen_entries * 16) as u64
    }

    fn update_rec_seen_gauges(&self) {
        self.counters.rec_seen_bytes.set(self.rec_seen_bytes());
    }

    /// The route-discipline state (feasibility distances, detour
    /// telemetry).
    #[must_use]
    pub fn feasibility(&self) -> &FeasibilityTable {
        &self.feasibility
    }

    /// My row's current sequence number (0 = no retraction event yet).
    #[must_use]
    pub fn own_seqno(&self) -> u16 {
        self.own_seqno
    }

    /// Decide how to forward towards `dst` right now.
    ///
    /// Preference order: a fresh recommendation over a live first leg,
    /// then the §4.2 1-hop scavenge (direct link included), then — only
    /// when configured past the paper's 1-hop behaviour and everything
    /// above is gone — a feasibility-gated spliced detour, which is
    /// source-routed (see [`RouteDecision`]).
    #[must_use]
    pub fn route_decision(&self, dst: usize, now: f64) -> Option<RouteDecision> {
        if dst == self.me || dst >= self.n {
            return None;
        }
        // Fresh recommendation wins — but only over a live first leg: a
        // hop my own probes have since declared dead cannot forward, so
        // a stale recommendation no longer shadows the scavenge paths.
        if let Some(r) = self.routes[dst] {
            if now - r.received_at <= self.config.route_expiry_s() && self.own_row[r.hop].alive {
                return Some(RouteDecision::Hop(r.hop));
            }
        }
        // §4.2: scavenge from the neighbour tables we already hold.
        let max_age = self.config.staleness_s();
        let direct = if self.own_row[dst].alive {
            self.own_row[dst].cost()
        } else {
            f64::INFINITY
        };
        let mut best = (dst, direct);
        for (h, c) in self.table.one_hop_options(self.me, dst, now, max_age) {
            if c < best.1 {
                best = (h, c);
            }
        }
        if best.1.is_finite() {
            return Some(RouteDecision::Hop(best.0));
        }
        // The generalized scavenge: splice a feasibility-checked k-hop
        // detour from the live rows. Off unless configured past the
        // paper's 1-hop behaviour, and only reached when both the
        // recommendation and every 1-hop option are gone — never on the
        // steady-state hot path.
        if self.config.max_detour_hops > 1 {
            if let Some(d) = select_detour(
                &self.table,
                &self.feasibility,
                self.me,
                dst,
                self.config.max_detour_hops,
                now,
                max_age,
            ) {
                return Some(RouteDecision::Spliced(d));
            }
        }
        None
    }

    /// The next seqno after `s`, skipping the unversioned sentinel 0.
    fn next_seqno(s: u16) -> u16 {
        let n = s.wrapping_add(1);
        if n == 0 {
            1
        } else {
            n
        }
    }

    /// Withdraw my link to `dst`: record the retraction (bumping my
    /// seqno on the transition) and mark the route infeasible until the
    /// destination announces a newer seqno. The prober calls this the
    /// moment its 5-failure rule declares the link dead, so retraction
    /// propagates a routing tick earlier than the own-row refresh
    /// would.
    pub fn on_link_loss(&mut self, dst: usize, now: f64) {
        if dst >= self.n || dst == self.me {
            return;
        }
        if self.retractions.insert(dst as u16, self.round).is_none() {
            self.own_seqno = Self::next_seqno(self.own_seqno);
        }
        self.feasibility.retract(dst, self.table.row_seqno(dst));
        self.own_row[dst] = LinkEntry::dead();
        self.table
            .update_entry(self.me, dst, LinkEntry::dead(), now);
    }

    /// Retract (rather than silently drop) every established route that
    /// cannot carry into a new membership view: destinations or
    /// recommended hops whose identity `survives` rejects. Called on
    /// the *outgoing* router during view install; the counts land in
    /// the shared `routing/routes_retracted` cell. Returns how many
    /// routes were withdrawn.
    pub fn retract_departed_routes(&mut self, survives: &dyn Fn(usize) -> bool) -> usize {
        let mut count = 0;
        for dst in 0..self.n {
            if let Some(r) = self.routes[dst] {
                if !survives(dst) || !survives(r.hop) {
                    self.feasibility.retract(dst, self.table.row_seqno(dst));
                    self.routes[dst] = None;
                    count += 1;
                }
            }
        }
        count
    }

    /// The retraction lane advertised this round, ascending.
    fn retraction_lane(&self) -> Vec<u16> {
        self.retractions.keys().copied().collect()
    }

    /// Record a `RowImport` span when a view-install episode context is
    /// armed (see [`QuorumRouter::note_episode`]); budget-bounded.
    fn trace_row_import(&mut self, origin: usize, received_at: f64) {
        if let Some((ctx, budget)) = self.trace_ctx {
            #[allow(clippy::cast_possible_truncation)]
            self.tracer.instant(
                SpanKind::RowImport,
                ctx.episode,
                0,
                origin as u32,
                received_at,
            );
            self.trace_ctx = if budget > 1 {
                Some((ctx, budget - 1))
            } else {
                None
            };
        }
    }

    /// React to an *accepted* versioned row from `from`: a nonzero seqno
    /// releases feasibility constraints keyed to older ones, and every
    /// destination the row explicitly retracts is withdrawn if this node
    /// was routing to it *through* `from` (the first leg just vanished).
    fn note_row_version(&mut self, from: usize, seqno: u16, retractions: &[u16]) {
        if seqno != 0 {
            self.feasibility.note_seqno(from, seqno);
        }
        for &r in retractions {
            let dst = usize::from(r);
            if dst >= self.n || dst == self.me {
                continue;
            }
            if self.routes[dst].is_some_and(|e| e.hop == from) {
                self.routes[dst] = None;
                self.feasibility.retract(dst, self.table.row_seqno(dst));
            }
        }
    }

    /// The latest recommendation stored for `dst`.
    #[must_use]
    pub fn route_entry(&self, dst: usize) -> Option<RouteEntry> {
        self.routes[dst]
    }

    /// The currently active failover server for `dst`, if any.
    #[must_use]
    pub fn active_failover(&self, dst: usize) -> Option<usize> {
        self.failover[dst].current
    }

    /// Last time server `s` recommended any route to `dst`.
    fn last_rec(&self, s: usize, dst: usize) -> Option<f64> {
        self.rec_seen[s].get(&dst).copied()
    }

    /// Has rendezvous server `s` failed *for destination `dst`*, judged at
    /// `now`? Covers proximal failures (my link to `s` is dead), remote
    /// failures (`s` stopped recommending `dst`), and the degenerate cases
    /// where `s` is me or the destination itself.
    fn server_failed(&self, s: usize, dst: usize, now: f64) -> bool {
        if s == self.me {
            // I am my own rendezvous for same-row/column destinations; I
            // have "failed" when I no longer hold fresh link state for dst.
            return !self.table.row_fresh(dst, now, self.config.staleness_s());
        }
        if s == dst {
            // The destination can only vouch for itself over a live link.
            return !self.own_row[s].alive;
        }
        // Proximal rendezvous failure.
        if !self.own_row[s].alive {
            return true;
        }
        // Remote rendezvous failure: no recommendation for dst recently.
        let since = self.serving_since[s];
        if since == NEVER {
            // Never even sent them link state yet — not failed, just young.
            return false;
        }
        let anchor = self
            .last_rec(s, dst)
            .unwrap_or(since + self.config.server_grace_s() - self.config.remote_failure_s());
        now - anchor > self.config.remote_failure_s()
    }

    fn both_defaults_failed(&self, dst: usize, now: f64) -> bool {
        if dst == self.me {
            return false;
        }
        // Derived from the grid on demand: caching the pair per
        // destination costs O(n) Vecs per node — measurable at n = 4096 —
        // for an O(1) position computation.
        let pair = self.grid.default_rendezvous_pair(self.me, dst);
        !pair.is_empty() && pair.iter().all(|&s| self.server_failed(s, dst, now))
    }

    /// Run the section 4.1 failover state machine for every destination;
    /// returns servers newly selected this tick (they get link state
    /// immediately).
    fn manage_failovers(&mut self, now: f64, rng: &mut ChaCha8Rng) -> Vec<usize> {
        let mut newly_selected = Vec::new();
        for dst in 0..self.n {
            if dst == self.me {
                continue;
            }
            // Reversion: a working default rendezvous ends the episode.
            if !self.both_defaults_failed(dst, now) {
                let st = &mut self.failover[dst];
                st.current = None;
                st.tried.clear();
                st.gave_up = false;
                continue;
            }
            // Double rendezvous failure. Is the current failover healthy?
            if let Some(f) = self.failover[dst].current {
                if !self.server_failed(f, dst, now) {
                    continue;
                }
                self.failover[dst].tried.insert(f);
                self.failover[dst].current = None;
            }
            // Dead-destination suppression: after the first attempt, only
            // continue while someone's table still reaches dst.
            let attempted_before = !self.failover[dst].tried.is_empty();
            if attempted_before {
                let reachable = self
                    .table
                    .anyone_reaches(dst, now, self.config.staleness_s())
                    || self.own_row[dst].alive;
                if !reachable {
                    self.failover[dst].gave_up = true;
                    continue;
                }
            }
            self.failover[dst].gave_up = false;

            // Pick a failover uniformly at random from dst's reachable
            // row/column, excluding already-tried candidates. Candidates
            // are derived from the grid on demand — caching them per
            // destination would be O(n√n) aux state per node for a path
            // that only runs under double failures.
            let pool: Vec<usize> = self
                .grid
                .failover_candidates(dst)
                .into_iter()
                .filter(|&c| c != self.me && c != dst)
                .filter(|&c| self.own_row[c].alive)
                .filter(|c| !self.failover[dst].tried.contains(c))
                .collect();
            if pool.is_empty() {
                // Exhausted: restart the episode so candidates that have
                // recovered become eligible again.
                self.failover[dst].tried.clear();
                continue;
            }
            let f = *pool.choose(rng).expect("non-empty pool");
            self.failover[dst].current = Some(f);
            self.failover[dst].tried.insert(f);
            self.counters.failovers_selected.inc();
            newly_selected.push(f);
        }
        newly_selected.sort_unstable();
        newly_selected.dedup();
        newly_selected
    }

    /// This tick's round-one frame: my row with its seqno and
    /// retraction lane, built once for every server. `to` is left at my
    /// own index (see [`TickOut`]).
    fn linkstate_frame(&self, now: f64, retractions: Vec<u16>) -> Message {
        let from = NodeId::from_index(self.me);
        // Sparse encoding pays off once the live-entry count k satisfies
        // 23 + 5k < 21 + 3n, i.e. k < (3n − 2)/5. Under entitled probing
        // a row holds O(√n) live entries and this always wins; fully-live
        // rows (the full-mesh probing baseline) keep the dense format, so
        // the section 6 bandwidth formulas stay byte-exact.
        let live = self.own_row.iter().filter(|e| e.alive).count();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        if 5 * live < 3 * self.n - 2 {
            let entries: Vec<(u16, WireEntry)> = self
                .own_row
                .iter()
                .enumerate()
                .filter(|(_, e)| e.alive)
                .map(|(dst, e)| (dst as u16, e.encode()))
                .collect();
            Message::LinkStateSparse(SparseLinkStateMsg {
                from,
                to: from,
                view: self.view,
                round: self.round,
                basis_ms: (now * 1000.0) as u32,
                width: self.n as u16,
                entries,
                seqno: self.own_seqno,
                retractions,
            })
        } else {
            Message::LinkState(LinkStateMsg {
                from,
                to: from,
                view: self.view,
                round: self.round,
                basis_ms: (now * 1000.0) as u32,
                entries: self.own_row.iter().map(LinkEntry::encode).collect(),
                seqno: self.own_seqno,
                retractions,
            })
        }
    }

    /// The set of servers that receive my link state this round: defaults
    /// plus all active failovers.
    fn current_servers(&self) -> Vec<usize> {
        let mut servers = self.my_servers.clone();
        for st in &self.failover {
            if let Some(f) = st.current {
                servers.push(f);
            }
        }
        servers.sort_unstable();
        servers.dedup();
        servers.retain(|&s| s != self.me);
        servers
    }

    /// Round two, as a rendezvous server: recommendations for each fresh
    /// client about every other fresh client (and about me). With the
    /// sparse store, enumerating clients scans the `O(√n)` held rows
    /// instead of all `n` indices; one all-pairs kernel call
    /// ([`LinkStateStore::best_hops_all_pairs`]) then answers every
    /// (client, destination) pair.
    fn compute_recommendations(&mut self, now: f64) -> Vec<Message> {
        let started = std::time::Instant::now();
        let max_age = self.config.staleness_s();
        // Clients ascending (`present_rows` is), then me: I count as a
        // destination for my clients (my row is always fresh).
        let mut members: Vec<usize> = self
            .table
            .present_rows()
            .into_iter()
            .filter(|&c| c != self.me)
            .filter(|&c| self.table.row_fresh(c, now, max_age))
            .collect();
        let clients = members.len();
        members.push(self.me);
        let hops = self.table.best_hops_all_pairs(&members, now, max_age);
        let mut msgs = Vec::new();
        for (i, &c) in members[..clients].iter().enumerate() {
            let recs: Vec<RecEntry> = members
                .iter()
                .enumerate()
                .filter_map(|(j, &d)| {
                    hops.get(i, j).map(|(hop, cost)| RecEntry {
                        dst: NodeId::from_index(d),
                        hop: NodeId::from_index(hop),
                        cost_ms: LinkEntry::quantize_latency(cost),
                    })
                })
                .collect();
            if recs.is_empty() {
                continue;
            }
            self.counters.recs_sent.inc();
            msgs.push(Message::Recommendations(RecommendationMsg {
                from: NodeId::from_index(self.me),
                to: NodeId::from_index(c),
                view: self.view,
                round: self.round,
                basis_ms: (now * 1000.0) as u32,
                format: self.config.rec_format,
                recs,
            }));
        }
        // Wall-clock only feeds the histogram — routing stays a pure
        // function of (time, messages), so deterministic replay holds.
        #[allow(clippy::cast_possible_truncation)]
        self.counters
            .round_two_us
            .observe((started.elapsed().as_micros() as u64).max(1));
        msgs
    }
}

impl<S: LinkStateStore> RoutingAlgorithm for QuorumRouter<S> {
    fn on_routing_tick(
        &mut self,
        now: f64,
        own_row: &[LinkEntry],
        rng: &mut ChaCha8Rng,
    ) -> TickOut {
        assert_eq!(own_row.len(), self.n);
        self.round += 1;
        // Route discipline bookkeeping: diff the fresh row against the
        // previous one. Newly dead links become retraction events (my
        // seqno bumps once per tick that has any), recovered links leave
        // the lane immediately, and stale lane entries age out after a
        // few rounds of advertisement.
        let mut new_deaths = false;
        for dst in 0..self.n {
            if dst == self.me {
                continue;
            }
            if own_row[dst].alive {
                self.retractions.remove(&(dst as u16));
            } else if self.own_row[dst].alive
                && self.retractions.insert(dst as u16, self.round).is_none()
            {
                new_deaths = true;
            }
        }
        if new_deaths {
            self.own_seqno = Self::next_seqno(self.own_seqno);
        }
        let round = self.round;
        self.retractions.retain(|_, r| round - *r < 3);
        self.own_row.copy_from_slice(own_row);
        let lane = self.retraction_lane();
        let row = LaneRow::from_dense(own_row).with_version(self.own_seqno, &lane);
        self.table.put_row(self.me, row, now);
        // Acting on a live direct link ratchets that destination's
        // feasibility distance: a detour must strictly beat what this
        // node can already do on its own.
        for dst in 0..self.n {
            if dst != self.me && own_row[dst].alive {
                self.feasibility
                    .advance(dst, self.table.row_seqno(dst), own_row[dst].cost());
            }
        }

        // Section 4.1 failover management happens before round one so a
        // freshly selected failover gets link state in this very tick.
        let _newly = self.manage_failovers(now, rng);

        // Round one: one link-state frame for all current servers.
        let servers = self.current_servers();
        for &s in &servers {
            if self.serving_since[s] == NEVER {
                self.serving_since[s] = now;
            }
        }
        self.counters.ls_sent.add(servers.len() as u64);
        let frame = (!servers.is_empty()).then(|| self.linkstate_frame(now, lane));
        // Round two: recommendations to all fresh clients.
        TickOut {
            frame,
            frame_to: servers,
            msgs: self.compute_recommendations(now),
        }
    }

    fn on_message(&mut self, now: f64, msg: &Message) -> Vec<Message> {
        match msg {
            Message::LinkState(ls) => {
                let from = ls.from.index();
                if ls.view == self.view
                    && ls.entries.len() == self.n
                    && from < self.n
                    && from != self.me
                    && self.table.put_row(
                        from,
                        LaneRow::from_wire(&ls.entries).with_version(ls.seqno, &ls.retractions),
                        now,
                    )
                {
                    self.note_row_version(from, ls.seqno, &ls.retractions);
                }
                Vec::new()
            }
            Message::LinkStateSparse(ls) => {
                let from = ls.from.index();
                if ls.view == self.view
                    && usize::from(ls.width) == self.n
                    && from < self.n
                    && from != self.me
                    && self.table.put_row(
                        from,
                        LaneRow::from_wire_pairs(&ls.entries)
                            .with_version(ls.seqno, &ls.retractions),
                        now,
                    )
                {
                    self.note_row_version(from, ls.seqno, &ls.retractions);
                }
                Vec::new()
            }
            Message::Recommendations(rm) => {
                let server = rm.from.index();
                if rm.view != self.view || server >= self.n {
                    return Vec::new();
                }
                for rec in &rm.recs {
                    let dst = rec.dst.index();
                    let hop = rec.hop.index();
                    if dst >= self.n || hop >= self.n || dst == self.me {
                        continue;
                    }
                    if self.rec_seen[server].insert(dst, now).is_none() {
                        self.rec_seen_entries += 1;
                    }
                    self.counters.rec_entries_received.inc();
                    let newer = self.routes[dst].is_none_or(|r| now >= r.received_at);
                    if newer {
                        self.routes[dst] = Some(RouteEntry {
                            hop,
                            from_server: server,
                            received_at: now,
                            cost_ms: rec.cost_ms,
                        });
                        // Acting on a costed recommendation ratchets the
                        // feasibility distance (the compact format carries
                        // no cost and leaves the constraint untouched).
                        if rec.cost_ms != u16::MAX {
                            self.feasibility.advance(
                                dst,
                                self.table.row_seqno(dst),
                                f64::from(rec.cost_ms),
                            );
                        }
                    }
                }
                self.update_rec_seen_gauges();
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    fn best_hop(&self, dst: usize, now: f64) -> Option<usize> {
        self.route_decision(dst, now).map(|d| d.first_hop())
    }

    fn route_age(&self, dst: usize, now: f64) -> Option<f64> {
        self.routes[dst].map(|r| now - r.received_at)
    }

    fn double_rendezvous_failures(&self, now: f64) -> usize {
        (0..self.n)
            .filter(|&dst| dst != self.me)
            .filter(|&dst| self.both_defaults_failed(dst, now))
            .count()
    }

    fn export_rows(&self) -> Vec<VersionedRow> {
        export_store_rows(&self.table)
    }

    fn import_row(&mut self, row: &VersionedRow) {
        if row.origin >= self.n || !row.row.fits(self.n) {
            return;
        }
        // Entitlement: only keep rows this node's grid role grants it —
        // its own row and its rendezvous clients'. Rows from origins
        // that are no longer clients after the view change are dropped
        // rather than remapped, keeping state O(n√n).
        if row.origin != self.me && !self.grid.serves(row.origin, self.me) {
            return;
        }
        self.table
            .put_row(row.origin, row.row.clone(), row.received_at);
        self.trace_row_import(row.origin, row.received_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apor_linkstate::LinkStateTable;
    use rand::SeedableRng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(12345)
    }

    /// A tiny synchronous fabric: run all routers' ticks, deliver all
    /// messages instantly (optionally dropping some links).
    struct Fabric {
        routers: Vec<QuorumRouter>,
        rng: ChaCha8Rng,
        /// Link filter: `false` ⇒ messages on (from, to) are dropped.
        link_up: Box<dyn Fn(usize, usize) -> bool>,
    }

    impl Fabric {
        fn new(n: usize, cfg: &ProtocolConfig) -> Self {
            Fabric {
                routers: (0..n)
                    .map(|i| QuorumRouter::new(i, n, 0, cfg.clone()))
                    .collect(),
                rng: rng(),
                link_up: Box::new(|_, _| true),
            }
        }

        /// One routing interval for everyone. `rows[i]` is node i's own row.
        fn tick(&mut self, now: f64, rows: &[Vec<LinkEntry>]) {
            let mut queue: Vec<(usize, Message)> = Vec::new();
            for (i, r) in self.routers.iter_mut().enumerate() {
                let tick = r.on_routing_tick(now, &rows[i], &mut self.rng);
                queue.extend(tick.deliveries().map(|(to, m)| (to, m.clone())));
            }
            // Deliver, collecting any immediate responses (failover LS).
            while let Some((t, m)) = queue.pop() {
                if !(self.link_up)(m.from().index(), t) {
                    continue;
                }
                let replies = self.routers[t].on_message(now + 0.01, &m);
                queue.extend(replies.into_iter().map(|r| (r.to().index(), r)));
            }
        }
    }

    /// A row in its wire form, as a dense frame carries it.
    fn wire(row: &[LinkEntry]) -> Vec<WireEntry> {
        row.iter().map(LinkEntry::encode).collect()
    }

    /// Symmetric rows from a cost matrix; `u16::MAX` ⇒ dead link.
    fn rows_from(costs: &[&[u16]]) -> Vec<Vec<LinkEntry>> {
        costs
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&c| {
                        if c == u16::MAX {
                            LinkEntry::dead()
                        } else {
                            LinkEntry::live(c, 0.0)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// A 9-node world (3×3 grid, figure 2) where the direct path 0→8 is
    /// expensive and node 4 is the best relay for everyone.
    fn nine_node_rows() -> Vec<Vec<LinkEntry>> {
        let n = 9;
        let mut costs = vec![vec![0u16; n]; n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    costs[i][j] = 100;
                }
            }
        }
        // Node 4 is a hub: cheap to everyone.
        for i in 0..n {
            if i != 4 {
                costs[i][4] = 10;
                costs[4][i] = 10;
            }
        }
        // 0↔8 is terrible.
        costs[0][8] = 400;
        costs[8][0] = 400;
        let refs: Vec<&[u16]> = costs.iter().map(|r| r.as_slice()).collect();
        rows_from(&refs)
    }

    /// After two routing intervals every node must know the optimal
    /// one-hop route to every destination (Theorem 1 made operational).
    #[test]
    fn two_rounds_find_all_optimal_one_hops() {
        let cfg = ProtocolConfig::quorum();
        let mut fabric = Fabric::new(9, &cfg);
        let rows = nine_node_rows();
        fabric.tick(0.0, &rows);
        fabric.tick(15.0, &rows);
        // 0's best hop to 8 is via the hub 4 (10 + 10 = 20 vs 400 direct).
        assert_eq!(fabric.routers[0].best_hop(8, 16.0), Some(4));
        assert_eq!(fabric.routers[8].best_hop(0, 16.0), Some(4));
        // All pairs: either the direct 100 (via hub = 20 — hub wins), so
        // everyone should route via 4, except pairs involving 4.
        for i in 0..9 {
            for j in 0..9 {
                if i == j {
                    continue;
                }
                let hop = fabric.routers[i].best_hop(j, 16.0).expect("route known");
                if i == 4 || j == 4 {
                    assert_eq!(hop, j, "adjacent to hub: direct is optimal");
                } else {
                    assert_eq!(hop, 4, "{i}→{j} should relay via hub");
                }
            }
        }
    }

    /// `rec_seen` holds entries only for (server, dst) pairs that were
    /// actually recommended, and the byte gauge reports exactly that
    /// sparse footprint.
    #[test]
    fn rec_seen_is_sparse_and_gauged() {
        let telemetry = Telemetry::new(3);
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        let mut fabric = Fabric::new(n, &cfg);
        fabric.routers[3] = QuorumRouter::new_with_telemetry(3, n, 0, cfg.clone(), &telemetry);
        let rows = nine_node_rows();
        fabric.tick(0.0, &rows);
        fabric.tick(15.0, &rows);

        let r = &fabric.routers[3];
        let servers_with_entries = r.rec_seen.iter().filter(|m| !m.is_empty()).count();
        let total_entries: usize = r.rec_seen.iter().map(BTreeMap::len).sum();
        // Only my ~2√n rendezvous servers recommend to me, about n-1
        // destinations each — nowhere near the n² dense worst case.
        assert!(servers_with_entries > 0);
        assert!(servers_with_entries <= r.grid().max_rendezvous_degree() * 2 + 1);
        assert!(total_entries <= servers_with_entries * (n - 1));
        for (s, m) in r.rec_seen.iter().enumerate() {
            for &dst in m.keys() {
                assert!(r.last_rec(s, dst).is_some());
                assert_ne!(dst, 3, "never records recs about myself");
            }
        }

        let bytes = r.rec_seen_bytes();
        assert_eq!(bytes, (total_entries * 16) as u64);
        assert!(bytes > 0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.gauge(3, "routing", "rec_seen_bytes"), Some(bytes));
        assert_eq!(
            snap.counter(3, "routing", "rec_entries_received"),
            Some(r.metrics().rec_entries_received)
        );
        assert!(snap.counter(3, "routing", "ls_sent").unwrap_or(0) > 0);
    }

    /// The running `rec_seen` entry count behind the byte gauge matches a
    /// from-scratch sum over a seeded sequence of recommendation frames —
    /// repeated (server, dst) pairs, out-of-range ids, recs about myself
    /// and cross-view frames included — and stays exact when
    /// `with_telemetry` re-registers the router against a registry whose
    /// gauge holds some other value.
    #[test]
    fn rec_seen_gauge_matches_a_fresh_sum() {
        use rand::Rng;

        let n = 25u16;
        let fresh_sum = |r: &QuorumRouter| -> u64 {
            (r.rec_seen.iter().map(BTreeMap::len).sum::<usize>() * 16) as u64
        };
        let first = Telemetry::new(1);
        let second = Telemetry::new(1);
        second.gauge("routing", "rec_seen_bytes").set(999);
        let mut r = QuorumRouter::new(0, usize::from(n), 0, ProtocolConfig::quorum())
            .with_telemetry(&first);
        let mut live = &first;
        let mut draw = ChaCha8Rng::seed_from_u64(4242);
        for k in 0..400 {
            let recs = (0..draw.gen_range(0..8))
                .map(|_| RecEntry {
                    dst: NodeId(draw.gen_range(0..n + 2)),
                    hop: NodeId(draw.gen_range(0..n + 2)),
                    cost_ms: draw.gen_range(1..500),
                })
                .collect();
            let _ = r.on_message(
                k as f64,
                &Message::Recommendations(RecommendationMsg {
                    from: NodeId(draw.gen_range(0..n + 1)),
                    to: NodeId(0),
                    view: u32::from(k % 13 == 0),
                    round: k,
                    basis_ms: 0,
                    format: apor_linkstate::RecFormat::WithCost,
                    recs,
                }),
            );
            let want = fresh_sum(&r);
            assert_eq!(r.rec_seen_bytes(), want, "frame {k}");
            assert_eq!(
                live.snapshot().gauge(1, "routing", "rec_seen_bytes"),
                Some(want),
                "frame {k}"
            );
            if k == 200 {
                assert!(want > 0);
                r = r.with_telemetry(&second);
                live = &second;
                assert_eq!(
                    second.snapshot().gauge(1, "routing", "rec_seen_bytes"),
                    Some(want),
                    "re-registration publishes the running count"
                );
            }
        }
    }

    /// A server's round-two messages from `on_routing_tick` equal the
    /// messages rebuilt pair by pair with `best_one_hop` over the same
    /// store — across default and failover clients, rows straddling the
    /// staleness bound, and tie-prone costs — and the two directions of
    /// every client pair agree on hop and cost.
    #[test]
    fn recommendations_match_pairwise_oracle() {
        use rand::Rng;

        let n = 49;
        let me = 24;
        let cfg = ProtocolConfig::quorum();
        let max_age = cfg.staleness_s();
        let mut r = QuorumRouter::new(me, n, 0, cfg.clone());
        let mut draw = ChaCha8Rng::seed_from_u64(99);
        let row_for = |o: usize, draw: &mut ChaCha8Rng| -> Vec<LinkEntry> {
            (0..n)
                .map(|d| match draw.gen_range(0u32..10) {
                    _ if d == o => LinkEntry::live(0, 0.0),
                    0..=5 => LinkEntry::live(draw.gen_range(1u16..6), 0.0),
                    6 => LinkEntry::live(65534, 0.0),
                    _ => LinkEntry::dead(),
                })
                .collect()
        };
        let defaults = r.grid().rendezvous_clients(me);
        let failover: Vec<usize> = (0..n)
            .filter(|v| *v != me && !defaults.contains(v))
            .step_by(9)
            .collect();
        assert!(!failover.is_empty());
        let senders: Vec<usize> = defaults.iter().chain(&failover).copied().collect();
        // Sender k's row lands at 10 + k/2 s, so a tick at
        // 10 + max_age + j/2 s sees sender j exactly at the staleness
        // bound (fresh) and sender j − 1 just past it (stale).
        let deliver = |r: &mut QuorumRouter, k: usize, from: usize, row: Vec<LinkEntry>| {
            let msg = Message::LinkState(LinkStateMsg {
                from: NodeId::from_index(from),
                to: NodeId::from_index(me),
                view: 0,
                round: 1,
                basis_ms: 0,
                entries: wire(&row),
                seqno: 0,
                retractions: vec![],
            });
            r.on_message(10.0 + 0.5 * k as f64, &msg);
        };
        for (k, &from) in senders.iter().enumerate() {
            deliver(&mut r, k, from, row_for(from, &mut draw));
        }
        let own = row_for(me, &mut draw);
        let mut tick_rng = rng();
        let mut checked_stale = false;
        for j in 0..=senders.len() {
            let now = 10.0 + max_age + 0.5 * j as f64;
            let msgs = r.on_routing_tick(now, &own, &mut tick_rng).msgs;
            let got: Vec<&RecommendationMsg> = msgs
                .iter()
                .filter_map(|m| match m {
                    Message::Recommendations(rm) => Some(rm),
                    _ => None,
                })
                .collect();

            let store = r.table();
            let clients: Vec<usize> = store
                .present_rows()
                .into_iter()
                .filter(|&c| c != me && store.row_fresh(c, now, max_age))
                .collect();
            assert_eq!(clients.len(), senders.len() - j, "tick {j}");
            checked_stale |= j > 0 && j < senders.len();
            let mut dests = clients.clone();
            dests.push(me);
            let want: Vec<(usize, Vec<RecEntry>)> = clients
                .iter()
                .map(|&c| {
                    let recs = dests
                        .iter()
                        .filter_map(|&d| {
                            store
                                .best_one_hop(c, d, now, max_age)
                                .map(|(hop, cost)| RecEntry {
                                    dst: NodeId::from_index(d),
                                    hop: NodeId::from_index(hop),
                                    cost_ms: LinkEntry::quantize_latency(cost),
                                })
                        })
                        .collect();
                    (c, recs)
                })
                .filter(|(_, recs): &(usize, Vec<RecEntry>)| !recs.is_empty())
                .collect();
            assert_eq!(got.len(), want.len(), "tick {j}");
            for (rm, (c, recs)) in got.iter().zip(&want) {
                assert_eq!(rm.to.index(), *c);
                assert_eq!(rm.from.index(), me);
                assert_eq!(&rm.recs, recs, "tick {j} client {c}");
            }

            // Symmetry: c's rec about d mirrors d's rec about c.
            let rec = |c: usize, d: usize| {
                got.iter()
                    .find(|rm| rm.to.index() == c)
                    .and_then(|rm| rm.recs.iter().find(|e| e.dst.index() == d))
                    .map(|e| (e.hop.index(), e.cost_ms))
            };
            for &c in &clients {
                for &d in &clients {
                    if c == d {
                        continue;
                    }
                    match (rec(c, d), rec(d, c)) {
                        (Some((h, cost)), Some((rh, rcost))) => {
                            assert_eq!(cost, rcost, "{c}↔{d}");
                            assert!(h == rh || (h == d && rh == c), "{c}↔{d}");
                        }
                        (None, None) => {}
                        other => panic!("{c}↔{d} asymmetric: {other:?}"),
                    }
                }
            }
            // Fresh rows for the next tick's senders keep costs moving.
            if j % 2 == 1 && j < senders.len() {
                let k = senders.len() - 1;
                deliver(&mut r, k, senders[k], row_for(senders[k], &mut draw));
            }
        }
        assert!(checked_stale);
    }

    /// The sparse store and the dense baseline run the identical
    /// protocol: swapping stores changes no routing decision.
    #[test]
    fn dense_store_reaches_identical_routes() {
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        let rows = nine_node_rows();
        let mut dense: Vec<QuorumRouter<LinkStateTable>> = (0..n)
            .map(|i| QuorumRouter::with_store(i, n, 0, cfg.clone(), LinkStateTable::new(n)))
            .collect();
        let mut g = rng();
        for t in [0.0, 15.0] {
            let mut queue: Vec<(usize, Message)> = Vec::new();
            for (i, r) in dense.iter_mut().enumerate() {
                let tick = r.on_routing_tick(t, &rows[i], &mut g);
                queue.extend(tick.deliveries().map(|(to, m)| (to, m.clone())));
            }
            while let Some((to, m)) = queue.pop() {
                let replies = dense[to].on_message(t + 0.01, &m);
                queue.extend(replies.into_iter().map(|r| (r.to().index(), r)));
            }
        }
        let mut sparse = Fabric::new(n, &cfg);
        sparse.tick(0.0, &rows);
        sparse.tick(15.0, &rows);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    assert_eq!(
                        dense[i].best_hop(j, 16.0),
                        sparse.routers[i].best_hop(j, 16.0),
                        "{i}→{j}"
                    );
                }
            }
        }
    }

    /// A mostly-dead own row (the entitled-probing shape) rides the
    /// sparse wire format, and the receiver reconstructs the identical
    /// row; fully-live rows keep the dense format so the section 6
    /// bandwidth formulas stay byte-exact.
    #[test]
    fn sparse_rows_use_sparse_wire_format() {
        let cfg = ProtocolConfig::quorum();
        let n = 100;
        let mut sender = QuorumRouter::new(3, n, 0, cfg.clone());
        // Live entries only to self and a handful of peers — the shape
        // entitled probing produces.
        let mut own = vec![LinkEntry::dead(); n];
        own[3] = LinkEntry::live(0, 0.0);
        for &j in &[7usize, 13, 23, 43, 53] {
            own[j] = LinkEntry::live(20 + j as u16, 0.0);
        }
        let mut g = rng();
        let tick = sender.on_routing_tick(0.0, &own, &mut g);
        let mut receiver = QuorumRouter::new(13, n, 0, cfg.clone());
        match &tick.frame {
            Some(m @ Message::LinkStateSparse(sm)) => {
                assert_eq!(usize::from(sm.width), n);
                assert!(sm.entries.iter().all(|(_, w)| w[2] & 0x80 != 0));
                assert!(tick.frame_to.contains(&13));
                let _ = receiver.on_message(0.5, m);
            }
            other => panic!("round one must emit sparse link state, got {other:?}"),
        }
        assert_eq!(
            receiver.table().row_ref(3).expect("row stored").to_dense(),
            own,
            "receiver reconstructs the identical row"
        );

        // Fully-live rows stay dense.
        let full: Vec<LinkEntry> = (0..n).map(|_| LinkEntry::live(10, 0.0)).collect();
        let tick = sender.on_routing_tick(15.0, &full, &mut g);
        assert!(matches!(tick.frame, Some(Message::LinkState(_))));
    }

    /// The sparse store only ever holds the rows the node's role grants
    /// it: own row + rendezvous clients — the O(√n) state bound.
    #[test]
    fn steady_state_holds_only_entitled_rows() {
        let cfg = ProtocolConfig::quorum();
        for n in [9usize, 25, 100] {
            let mut fabric = Fabric::new(n, &cfg);
            let row = vec![LinkEntry::live(10, 0.0); n];
            let rows: Vec<Vec<LinkEntry>> = (0..n).map(|_| row.clone()).collect();
            for k in 0..3 {
                fabric.tick(k as f64 * 15.0, &rows);
            }
            for (i, r) in fabric.routers.iter().enumerate() {
                let held = r.table().row_count();
                let entitled = r.grid().rendezvous_clients(i).len() + 1;
                assert_eq!(
                    held, entitled,
                    "n={n}, node {i}: holds {held} rows, entitled to {entitled}"
                );
                assert!(held <= QuorumRouter::row_entitlement(n));
            }
        }
    }

    #[test]
    fn round1_message_complexity_is_2_sqrt_n() {
        let cfg = ProtocolConfig::quorum();
        for n in [9usize, 16, 25, 100, 144] {
            let mut r = QuorumRouter::new(0, n, 0, cfg.clone());
            let row = vec![LinkEntry::live(10, 0.0); n];
            let mut g = rng();
            let tick = r.on_routing_tick(0.0, &row, &mut g);
            assert!(matches!(tick.frame, Some(Message::LinkState(_))));
            let ls_count = tick.frame_to.len();
            let bound = 2 * (n as f64).sqrt().ceil() as usize;
            assert!(
                ls_count <= bound,
                "n={n}: {ls_count} LS messages > 2√n = {bound}"
            );
            assert!(ls_count >= (n as f64).sqrt() as usize, "suspiciously few");
        }
    }

    #[test]
    fn recommendations_only_flow_to_clients() {
        let cfg = ProtocolConfig::quorum();
        let mut fabric = Fabric::new(9, &cfg);
        let rows = nine_node_rows();
        fabric.tick(0.0, &rows);
        // After one tick node 4 (grid position (1,1)) has clients = its
        // row {3, 5} and column {1, 7}.
        let mut g = rng();
        let tick = fabric.routers[4].on_routing_tick(15.0, &rows[4], &mut g);
        let rec_targets: Vec<usize> = tick
            .msgs
            .iter()
            .filter_map(|m| match m {
                Message::Recommendations(r) => Some(r.to.index()),
                _ => None,
            })
            .collect();
        for &t in &rec_targets {
            assert!(
                fabric.routers[4].grid().rendezvous_clients(4).contains(&t),
                "rec sent to non-client {t}"
            );
        }
        assert!(!rec_targets.is_empty());
    }

    #[test]
    fn proximal_failover_selects_new_rendezvous() {
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        // 0's default rendezvous pair towards 8 is {2, 6}. Kill links
        // 0–2 and 0–6 (proximal failures) and the direct 0–8.
        let dead_links: &[(usize, usize)] = &[(0, 2), (0, 6), (0, 8)];
        let mut costs = vec![vec![100u16; n]; n];
        for i in 0..n {
            costs[i][i] = 0;
        }
        for &(a, b) in dead_links {
            costs[a][b] = u16::MAX;
            costs[b][a] = u16::MAX;
        }
        let refs: Vec<&[u16]> = costs.iter().map(|r| r.as_slice()).collect();
        let rows = rows_from(&refs);

        let mut fabric = Fabric::new(n, &cfg);
        let up = move |f: usize, t: usize| {
            !dead_links.contains(&(f, t)) && !dead_links.contains(&(t, f))
        };
        fabric.link_up = Box::new(up);

        for k in 0..6 {
            fabric.tick(k as f64 * 15.0, &rows);
        }
        let now = 80.0;
        // Double failure must have been detected…
        assert!(fabric.routers[0].both_defaults_failed(8, now));
        // …a failover selected from 8's row/column…
        let f = fabric.routers[0]
            .active_failover(8)
            .expect("failover selected");
        assert!(fabric.routers[0].grid().failover_candidates(8).contains(&f));
        // …and a route to 8 recovered through it.
        let hop = fabric.routers[0].best_hop(8, now).expect("route recovered");
        assert_ne!(hop, 8, "direct link is dead; must relay");
        // The route must avoid dead links.
        assert!(up(0, hop) && up(hop, 8), "hop {hop} uses a dead link");
    }

    #[test]
    fn failover_reverts_when_default_recovers() {
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        let mut costs = vec![vec![100u16; n]; n];
        for i in 0..n {
            costs[i][i] = 0;
        }
        let refs: Vec<&[u16]> = costs.iter().map(|r| r.as_slice()).collect();
        let healthy_rows = rows_from(&refs);

        // Phase 1: 0 cannot reach 2 or 6 → failover for dst 8.
        let mut broken = costs.clone();
        for &(a, b) in &[(0usize, 2usize), (0, 6), (0, 8)] {
            broken[a][b] = u16::MAX;
            broken[b][a] = u16::MAX;
        }
        let refs2: Vec<&[u16]> = broken.iter().map(|r| r.as_slice()).collect();
        let broken_rows = rows_from(&refs2);

        let mut fabric = Fabric::new(n, &cfg);
        let dead = [(0usize, 2usize), (0, 6), (0, 8)];
        fabric.link_up = Box::new(move |f, t| !dead.contains(&(f, t)) && !dead.contains(&(t, f)));
        for k in 0..5 {
            fabric.tick(k as f64 * 15.0, &broken_rows);
        }
        assert!(fabric.routers[0].active_failover(8).is_some());

        // Phase 2: everything heals.
        fabric.link_up = Box::new(|_, _| true);
        for k in 5..10 {
            fabric.tick(k as f64 * 15.0, &healthy_rows);
        }
        assert!(
            fabric.routers[0].active_failover(8).is_none(),
            "failover must be dropped once defaults recover"
        );
        assert_eq!(fabric.routers[0].double_rendezvous_failures(10.0 * 15.0), 0);
    }

    #[test]
    fn dead_destination_suppresses_failover_churn() {
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        let mut costs = vec![vec![50u16; n]; n];
        for i in 0..n {
            costs[i][i] = 0;
        }
        // Node 8 is dead: everyone's link to 8 is dead.
        for i in 0..n {
            costs[i][8] = u16::MAX;
            costs[8][i] = u16::MAX;
        }
        let refs: Vec<&[u16]> = costs.iter().map(|r| r.as_slice()).collect();
        let rows = rows_from(&refs);
        let mut fabric = Fabric::new(n, &cfg);
        fabric.link_up = Box::new(|f, t| f != 8 && t != 8);
        for k in 0..12 {
            fabric.tick(k as f64 * 15.0, &rows);
        }
        let m = fabric.routers[0].metrics();
        // A couple of initial attempts are fine; unbounded retry is not.
        assert!(
            m.failovers_selected <= 4,
            "failover churn for dead destination: {}",
            m.failovers_selected
        );
        assert!(fabric.routers[0].best_hop(8, 12.0 * 15.0).is_none());
    }

    #[test]
    fn scavenging_routes_without_recommendations() {
        // §4.2: no recs at all (we never tick the other routers so nobody
        // computes recommendations), but receiving a neighbour's link
        // state row lets us route through it.
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        let mut me = QuorumRouter::new(0, n, 0, cfg.clone());
        let mut own = vec![LinkEntry::live(100, 0.0); n];
        own[0] = LinkEntry::live(0, 0.0);
        own[8] = LinkEntry::dead(); // can't reach 8 directly
        let mut g = rng();
        let _ = me.on_routing_tick(0.0, &own, &mut g);
        // Neighbour 1 says it reaches everyone at 20 ms.
        let row1: Vec<LinkEntry> = (0..n)
            .map(|j| {
                if j == 1 {
                    LinkEntry::live(0, 0.0)
                } else {
                    LinkEntry::live(20, 0.0)
                }
            })
            .collect();
        let _ = me.on_message(
            1.0,
            &Message::LinkState(LinkStateMsg {
                from: NodeId(1),
                to: NodeId(0),
                view: 0,
                round: 1,
                basis_ms: 0,
                entries: wire(&row1),
                seqno: 0,
                retractions: vec![],
            }),
        );
        assert_eq!(me.best_hop(8, 2.0), Some(1), "scavenged route via 1");
    }

    /// Two-relay splice helper: node 0 only reaches 1, 1 only reaches 2,
    /// 2 reaches 8 — invisible to 1-hop scavenging, found by k-hop.
    fn chain_to_eight(cfg: ProtocolConfig) -> QuorumRouter {
        let n = 9;
        let mut me = QuorumRouter::new(0, n, 0, cfg);
        let mut own = vec![LinkEntry::dead(); n];
        own[0] = LinkEntry::live(0, 0.0);
        own[1] = LinkEntry::live(10, 0.0);
        let _ = me.on_routing_tick(0.0, &own, &mut rng());
        for (from, reaches) in [(1usize, 2usize), (2, 8)] {
            let row: Vec<LinkEntry> = (0..n)
                .map(|j| {
                    if j == from {
                        LinkEntry::live(0, 0.0)
                    } else if j == reaches || (from == 1 && j == 0) {
                        LinkEntry::live(10, 0.0)
                    } else {
                        LinkEntry::dead()
                    }
                })
                .collect();
            let _ = me.on_message(
                1.0,
                &Message::LinkState(LinkStateMsg {
                    from: NodeId::from_index(from),
                    to: NodeId(0),
                    view: 0,
                    round: 1,
                    basis_ms: 0,
                    entries: wire(&row),
                    seqno: 0,
                    retractions: vec![],
                }),
            );
        }
        me
    }

    #[test]
    fn k_hop_detours_recover_where_one_hop_scavenging_fails() {
        // Paper behaviour (1 hop): the chain is invisible.
        let me = chain_to_eight(ProtocolConfig::quorum());
        assert_eq!(me.best_hop(8, 2.0), None, "1-hop scavenge cannot splice");
        // k ≤ 4: the feasible detour 0→1→2→8 is spliced from live rows.
        let me = chain_to_eight(ProtocolConfig::quorum().with_detour_hops(4));
        assert_eq!(me.best_hop(8, 2.0), Some(1), "k-hop detour via 1");
        assert_eq!(me.feasibility().loops_detected(), 0);
    }

    #[test]
    fn route_decision_distinguishes_hops_from_spliced_detours() {
        let me = chain_to_eight(ProtocolConfig::quorum().with_detour_hops(4));
        // A live direct link is a plain hop: relays re-decide.
        match me.route_decision(1, 2.0) {
            Some(RouteDecision::Hop(1)) => {}
            other => panic!("direct link must be Hop(1), got {other:?}"),
        }
        // The chain to 8 needs a splice: the full committed path rides
        // with the decision so the packet can be source-routed.
        match me.route_decision(8, 2.0) {
            Some(RouteDecision::Spliced(d)) => {
                assert_eq!(d.path, vec![0, 1, 2, 8]);
                assert_eq!(d.path[1], me.best_hop(8, 2.0).unwrap());
            }
            other => panic!("chain must be Spliced, got {other:?}"),
        }
        // Out-of-range and self queries decide nothing.
        assert!(me.route_decision(0, 2.0).is_none());
        assert!(me.route_decision(99, 2.0).is_none());
    }

    #[test]
    fn incoming_retractions_withdraw_acted_on_routes() {
        let n = 9;
        let cfg = ProtocolConfig::quorum();
        let mut me = QuorumRouter::new(0, n, 0, cfg);
        let mut own = vec![LinkEntry::dead(); n];
        own[0] = LinkEntry::live(0, 0.0);
        own[4] = LinkEntry::live(10, 0.0);
        let _ = me.on_routing_tick(0.0, &own, &mut rng());
        let _ = me.on_message(
            1.0,
            &Message::Recommendations(RecommendationMsg {
                from: NodeId(2),
                to: NodeId(0),
                view: 0,
                round: 1,
                basis_ms: 0,
                format: apor_linkstate::RecFormat::WithCost,
                recs: vec![RecEntry {
                    dst: NodeId(8),
                    hop: NodeId(4),
                    cost_ms: 30,
                }],
            }),
        );
        assert_eq!(me.best_hop(8, 2.0), Some(4));
        // Node 4 retracts its link to 8 at seqno 2: the route through it
        // is withdrawn, not kept until expiry.
        let row4: Vec<LinkEntry> = (0..n)
            .map(|j| {
                if j == 4 {
                    LinkEntry::live(0, 0.0)
                } else if j == 0 {
                    LinkEntry::live(10, 0.0)
                } else {
                    LinkEntry::dead()
                }
            })
            .collect();
        let _ = me.on_message(
            2.0,
            &Message::LinkState(LinkStateMsg {
                from: NodeId(4),
                to: NodeId(0),
                view: 0,
                round: 2,
                basis_ms: 0,
                entries: wire(&row4),
                seqno: 2,
                retractions: vec![8],
            }),
        );
        assert!(
            me.route_entry(8).is_none(),
            "retraction withdraws the route"
        );
        assert_eq!(me.feasibility().routes_retracted(), 1);
        assert_eq!(me.best_hop(8, 2.5), None);
        // A delayed replay of 4's older row (seqno 1, link to 8 alive)
        // must not resurrect the route.
        let mut stale = row4;
        stale[8] = LinkEntry::live(5, 0.0);
        let _ = me.on_message(
            3.0,
            &Message::LinkState(LinkStateMsg {
                from: NodeId(4),
                to: NodeId(0),
                view: 0,
                round: 1,
                basis_ms: 0,
                entries: wire(&stale),
                seqno: 1,
                retractions: vec![],
            }),
        );
        assert_eq!(me.table().row_seqno(4), 2, "stale replay rejected");
        assert!(me.table().row_retracts(4, 8));
        assert_eq!(me.best_hop(8, 3.5), None);
    }

    #[test]
    fn own_link_death_bumps_seqno_and_advertises_retraction() {
        let n = 9;
        let mut me = QuorumRouter::new(0, n, 0, ProtocolConfig::quorum());
        let mut own: Vec<LinkEntry> = (0..n).map(|_| LinkEntry::live(50, 0.0)).collect();
        own[0] = LinkEntry::live(0, 0.0);
        let mut g = rng();
        let tick = me.on_routing_tick(0.0, &own, &mut g);
        assert_eq!(me.own_seqno(), 0, "no retraction event yet");
        let Some(Message::LinkState(ls)) = tick.frame else {
            panic!("expected dense link state");
        };
        assert_eq!((ls.seqno, ls.retractions.as_slice()), (0, &[][..]));
        // Link to 3 dies: seqno bumps once, the lane advertises dst 3.
        own[3] = LinkEntry::dead();
        let tick = me.on_routing_tick(15.0, &own, &mut g);
        assert_eq!(me.own_seqno(), 1);
        let Some(Message::LinkState(ls)) = tick.frame else {
            panic!("expected dense link state");
        };
        assert_eq!((ls.seqno, ls.retractions.as_slice()), (1, &[3u16][..]));
        // The lane ages out after three rounds of advertisement…
        let _ = me.on_routing_tick(30.0, &own, &mut g);
        let _ = me.on_routing_tick(45.0, &own, &mut g);
        let tick = me.on_routing_tick(60.0, &own, &mut g);
        let Some(Message::LinkState(ls)) = tick.frame else {
            panic!("expected dense link state");
        };
        assert_eq!(ls.retractions, Vec::<u16>::new(), "lane aged out");
        assert_eq!(me.own_seqno(), 1, "seqno sticks");
        // …and a recovery drops a fresh lane entry immediately.
        own[5] = LinkEntry::dead();
        let _ = me.on_routing_tick(75.0, &own, &mut g);
        assert_eq!(me.own_seqno(), 2);
        own[5] = LinkEntry::live(50, 0.0);
        let tick = me.on_routing_tick(90.0, &own, &mut g);
        let Some(Message::LinkState(ls)) = tick.frame else {
            panic!("expected dense link state");
        };
        assert_eq!(ls.retractions, Vec::<u16>::new(), "recovered link leaves");
    }

    #[test]
    fn link_loss_hook_and_departure_retraction() {
        let n = 9;
        let mut me = QuorumRouter::new(0, n, 0, ProtocolConfig::quorum());
        let mut own = vec![LinkEntry::dead(); n];
        own[0] = LinkEntry::live(0, 0.0);
        own[4] = LinkEntry::live(10, 0.0);
        own[5] = LinkEntry::live(10, 0.0);
        let _ = me.on_routing_tick(0.0, &own, &mut rng());
        for dst in [7usize, 8] {
            let _ = me.on_message(
                1.0,
                &Message::Recommendations(RecommendationMsg {
                    from: NodeId(2),
                    to: NodeId(0),
                    view: 0,
                    round: 1,
                    basis_ms: 0,
                    format: apor_linkstate::RecFormat::WithCost,
                    recs: vec![RecEntry {
                        dst: NodeId::from_index(dst),
                        hop: NodeId(if dst == 7 { 4 } else { 5 }),
                        cost_ms: 30,
                    }],
                }),
            );
        }
        // Prober-declared loss of the link to 4: seqno bumps out of band.
        me.on_link_loss(4, 2.0);
        assert_eq!(me.own_seqno(), 1);
        assert!(!me.table().entry(0, 4).alive);
        assert_eq!(me.feasibility().routes_retracted(), 1);
        // View change: node 5 does not survive → its route is retracted.
        let retracted = me.retract_departed_routes(&|id| id != 5);
        assert_eq!(retracted, 1);
        assert!(me.route_entry(8).is_none());
        assert!(me.route_entry(7).is_some(), "surviving route kept");
        assert_eq!(me.feasibility().routes_retracted(), 2);
    }

    #[test]
    fn export_import_preserves_the_replay_guard() {
        // Node 1 is in node 0's grid row, so 0 is entitled to its row in
        // both views.
        let n = 9;
        let mut a = QuorumRouter::new(0, n, 0, ProtocolConfig::quorum());
        let row1: Vec<LinkEntry> = (0..n)
            .map(|j| {
                if j == 1 {
                    LinkEntry::live(0, 0.0)
                } else {
                    LinkEntry::live(10, 0.0)
                }
            })
            .collect();
        let _ = a.on_message(
            1.0,
            &Message::LinkState(LinkStateMsg {
                from: NodeId(1),
                to: NodeId(0),
                view: 0,
                round: 1,
                basis_ms: 0,
                entries: wire(&row1),
                seqno: 9,
                retractions: vec![6],
            }),
        );
        let rows = a.export_rows();
        let carried = rows.iter().find(|r| r.origin == 1).expect("row exported");
        assert_eq!(
            (carried.row.seqno(), carried.row.retracted()),
            (9, &[6u16][..])
        );
        // A rebuilt router importing the carried row keeps the guard: a
        // delayed older frame from 1 is still rejected after the carry.
        let mut b = QuorumRouter::new(0, n, 1, ProtocolConfig::quorum());
        b.import_row(carried);
        assert_eq!(b.table().row_seqno(1), 9);
        assert!(b.table().row_retracts(1, 6));
        let mut stale = carried.row.as_row_ref(n).to_dense();
        stale[6] = LinkEntry::live(5, 0.0);
        let _ = b.on_message(
            2.0,
            &Message::LinkState(LinkStateMsg {
                from: NodeId(1),
                to: NodeId(0),
                view: 1,
                round: 1,
                basis_ms: 0,
                entries: wire(&stale),
                seqno: 8,
                retractions: vec![],
            }),
        );
        assert_eq!(b.table().row_seqno(1), 9, "older frame rejected");
        assert!(b.table().row_retracts(1, 6));
    }

    #[test]
    fn recommendations_update_routes_and_age() {
        let cfg = ProtocolConfig::quorum();
        let mut me = QuorumRouter::new(0, 9, 0, cfg);
        assert_eq!(me.route_age(8, 10.0), None);
        // A recommendation is only usable over a live first leg, so give
        // node 0 a measured link to the hop it is about to be recommended.
        let mut own = vec![LinkEntry::dead(); 9];
        own[4] = LinkEntry::live(10, 0.0);
        let _ = me.on_routing_tick(0.0, &own, &mut rng());
        let rec = Message::Recommendations(RecommendationMsg {
            from: NodeId(2),
            to: NodeId(0),
            view: 0,
            round: 3,
            basis_ms: 0,
            format: apor_linkstate::RecFormat::Compact,
            recs: vec![RecEntry {
                dst: NodeId(8),
                hop: NodeId(4),
                cost_ms: 20,
            }],
        });
        let _ = me.on_message(5.0, &rec);
        assert_eq!(me.best_hop(8, 6.0), Some(4));
        assert_eq!(me.route_age(8, 9.0), Some(4.0));
        // Expired recommendations stop being used directly.
        assert!(me.route_age(8, 500.0).unwrap() > 400.0);
        assert_eq!(me.best_hop(8, 500.0), None, "no fresh info at all");
    }

    #[test]
    fn cross_view_messages_dropped() {
        let cfg = ProtocolConfig::quorum();
        let mut me = QuorumRouter::new(0, 9, 3, cfg);
        let rec = Message::Recommendations(RecommendationMsg {
            from: NodeId(2),
            to: NodeId(0),
            view: 99,
            round: 3,
            basis_ms: 0,
            format: apor_linkstate::RecFormat::Compact,
            recs: vec![RecEntry {
                dst: NodeId(8),
                hop: NodeId(4),
                cost_ms: 20,
            }],
        });
        let _ = me.on_message(5.0, &rec);
        assert_eq!(me.best_hop(8, 6.0), None);
    }

    #[test]
    fn malformed_recs_ignored_without_panic() {
        let cfg = ProtocolConfig::quorum();
        let mut me = QuorumRouter::new(0, 9, 0, cfg);
        let rec = Message::Recommendations(RecommendationMsg {
            from: NodeId(2),
            to: NodeId(0),
            view: 0,
            round: 3,
            basis_ms: 0,
            format: apor_linkstate::RecFormat::Compact,
            recs: vec![
                RecEntry {
                    dst: NodeId(200), // out of range
                    hop: NodeId(4),
                    cost_ms: 20,
                },
                RecEntry {
                    dst: NodeId(8),
                    hop: NodeId(250), // out of range
                    cost_ms: 20,
                },
                RecEntry {
                    dst: NodeId(0), // about myself
                    hop: NodeId(4),
                    cost_ms: 20,
                },
            ],
        });
        let _ = me.on_message(5.0, &rec);
        assert_eq!(me.best_hop(8, 6.0), None);
    }

    #[test]
    fn double_failure_metric_counts_destinations() {
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        // Kill my links to 2 and 6 — the default pair for dst 8 AND the
        // servers covering several other destinations.
        let mut own: Vec<LinkEntry> = (0..n).map(|_| LinkEntry::live(50, 0.0)).collect();
        own[0] = LinkEntry::live(0, 0.0);
        own[2] = LinkEntry::dead();
        own[6] = LinkEntry::dead();
        let mut me = QuorumRouter::new(0, n, 0, cfg);
        let mut g = rng();
        let _ = me.on_routing_tick(0.0, &own, &mut g);
        let d = me.double_rendezvous_failures(0.1);
        // dst 8's default pair {2, 6} is fully dead → at least dst 8 counts.
        assert!(me.both_defaults_failed(8, 0.1));
        assert!(d >= 1);
        // dst 1 shares my row: I am one of its default rendezvous, and my
        // own data for 1 is fresh → not a double failure.
        assert!(!me.both_defaults_failed(1, 0.1));
    }

    #[test]
    fn export_import_round_trips_entitled_rows() {
        let cfg = ProtocolConfig::quorum();
        let n = 9;
        let mut a = QuorumRouter::new(0, n, 0, cfg.clone());
        // Node 1 is a client of node 0 (shares row 0); node 4 is not.
        let row = |base: u16| -> Vec<LinkEntry> {
            (0..n)
                .map(|j| LinkEntry::live(base + j as u16, 0.0))
                .collect()
        };
        for from in [1usize, 4] {
            let _ = a.on_message(
                2.0,
                &Message::LinkState(LinkStateMsg {
                    from: NodeId::from_index(from),
                    to: NodeId(0),
                    view: 0,
                    round: 1,
                    basis_ms: 0,
                    entries: wire(&row(from as u16 * 10)),
                    seqno: 0,
                    retractions: vec![],
                }),
            );
        }
        let exported = a.export_rows();
        assert!(exported
            .iter()
            .any(|r| r.origin == 1 && r.received_at == 2.0));
        // A fresh router (same position) re-imports only entitled rows.
        let mut b = QuorumRouter::new(0, n, 1, cfg);
        for row in &exported {
            b.import_row(row);
        }
        assert!(b.table().row_time(1).is_some(), "client row carried");
        assert!(
            b.table().row_time(4).is_none(),
            "non-client row must be dropped by the entitlement filter"
        );
    }
}
