//! The sans-io overlay node: membership client, prober and router glued
//! into one event-driven state machine.
//!
//! The node reacts to exactly three stimuli — `on_start`, `on_packet`,
//! `on_timer` — and responds by filling an [`Outbox`] with packets to send
//! and timers to arm. It never touches sockets or clocks, so any driver
//! that delivers packets and timers — today the netsim driver
//! ([`SimNode`](crate::simnode::SimNode)) — runs the identical protocol
//! logic; this is how the paper can claim its emulation and deployment
//! share one implementation.
//!
//! ## Index vs identity
//!
//! Routers and probers operate in *grid-index space* (positions in the
//! current sorted membership view). The wire carries *identities*
//! ([`NodeId`]). This module owns the translation at the boundary, in
//! both directions, including the `dst`/`hop` fields inside
//! recommendation messages.
//!
//! Translation rewrites the owned message in place — no routing frame is
//! cloned on the way in or out — and each lookup is O(1):
//! [`MembershipView::id_of`] indexes the member list and
//! [`MembershipView::index_of`] reads the view's reverse table. A routing
//! tick's round-one frame is translated once and serialized once; each
//! recipient gets a copy with its identity stamped into the `to` field
//! ([`Message::encode_fanout`]). Only the three routing variants cross
//! this boundary: anything else a router hands back is a program bug,
//! caught by a debug assertion and dropped, never sent to a guessed
//! address.

use crate::config::{Algorithm, MembershipMode, NodeConfig, Scheduling};
use crate::membership::{Coordinator, MembershipView};
use apor_linkstate::{Message, ProbeBatchMsg, ProbeItem, ProbeMsg, ProbeReplyMsg};
use apor_membership::{wire as swim_wire, Swim, SwimMsg};
use apor_netsim::TrafficClass;
use apor_quorum::NodeId;
use apor_routing::{
    FullMeshRouter, ProbeAction, Prober, QuorumRouter, RouteDecision, RoutingAlgorithm,
};
use apor_telemetry::{Histogram, SpanKind, Telemetry, TraceCtx, Tracer};

/// The concrete router running inside a node.
// The size gap between the two routers is fine: exactly one RouterBox
// exists per node, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum RouterBox {
    /// RON's full-mesh baseline.
    FullMesh(FullMeshRouter),
    /// The paper's grid-quorum router.
    Quorum(QuorumRouter),
}

impl RouterBox {
    fn as_dyn(&self) -> &dyn RoutingAlgorithm {
        match self {
            RouterBox::FullMesh(r) => r,
            RouterBox::Quorum(r) => r,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn RoutingAlgorithm {
        match self {
            RouterBox::FullMesh(r) => r,
            RouterBox::Quorum(r) => r,
        }
    }
}
use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Timer token: prober poll loop.
pub const TOKEN_PROBE: u64 = 1;
/// Timer token: routing interval tick.
pub const TOKEN_ROUTING: u64 = 2;
/// Timer token: join retry / keepalive.
pub const TOKEN_JOIN: u64 = 3;
/// Timer token: coordinator membership-expiry sweep.
pub const TOKEN_EXPIRE: u64 = 4;
/// Timer token: SWIM gossip tick ([`MembershipMode::Swim`]).
pub const TOKEN_SWIM: u64 = 5;

/// How often the prober's poll loop runs under
/// [`Scheduling::FixedTick`], seconds.
const PROBE_POLL_S: f64 = 0.5;
/// Coordinator expiry sweep period, seconds.
const EXPIRE_SWEEP_S: f64 = 60.0;
/// SWIM timer granularity under [`Scheduling::FixedTick`], seconds
/// (must undercut the ping timeout).
const SWIM_TICK_S: f64 = 0.25;
/// Slack when comparing armed wake times: two wakes closer than this
/// are the same instant (drivers only promise f64 time arithmetic).
const TIMER_EPS: f64 = 1e-9;

/// Commands produced by one callback.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Packets to transmit: `(destination, class, encoded bytes)`.
    pub sends: Vec<(NodeId, TrafficClass, Bytes)>,
    /// Timers to arm: `(delay seconds, token)`.
    pub timers: Vec<(f64, u64)>,
}

impl Outbox {
    fn send(&mut self, to: NodeId, msg: &Message) {
        self.sends.push((to, class_of(msg), msg.encode()));
    }

    fn timer(&mut self, delay_s: f64, token: u64) {
        self.timers.push((delay_s, token));
    }
}

/// Traffic class of a message, matching the paper's bandwidth breakdown.
#[must_use]
pub fn class_of(msg: &Message) -> TrafficClass {
    match msg {
        Message::Probe(_) | Message::ProbeReply(_) | Message::ProbeBatch(_) => {
            TrafficClass::Probing
        }
        Message::LinkState(_) | Message::LinkStateSparse(_) | Message::Recommendations(_) => {
            TrafficClass::Routing
        }
        Message::Join { .. } | Message::Leave { .. } | Message::View(_) => TrafficClass::Membership,
    }
}

/// The overlay node state machine.
pub struct OverlayNode {
    cfg: NodeConfig,
    telemetry: Telemetry,
    rng: ChaCha8Rng,
    view: Option<MembershipView>,
    my_index: Option<usize>,
    prober: Option<Prober>,
    router: Option<RouterBox>,
    coordinator: Option<Coordinator>,
    swim: Option<Swim>,
    routing_tick_armed: bool,
    shut_down: bool,
    /// Earliest outstanding [`TOKEN_PROBE`] timer under
    /// [`Scheduling::Coalesced`]; `∞` = none armed. Timers cannot be
    /// cancelled, so stale ones fire, process harmlessly (polling only
    /// emits *due* work) and re-arm through the same dedupe.
    armed_probe_wake: f64,
    /// Earliest outstanding [`TOKEN_SWIM`] timer ([`Scheduling::Coalesced`]).
    armed_swim_wake: f64,
    /// Sizes of outgoing anti-entropy sync frames, bytes.
    sync_frame_bytes: Histogram,
    /// Causal-trace flight recorder. Disabled (zero-capacity) unless
    /// [`NodeConfig::trace_capacity`] is set; every instrumentation
    /// site below guards on [`Tracer::enabled`] — one relaxed load.
    tracer: Tracer,
}

impl OverlayNode {
    /// Build a node from its configuration.
    #[must_use]
    pub fn new(cfg: NodeConfig) -> Self {
        cfg.protocol.validate();
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let telemetry = Telemetry::new(u32::from(cfg.id.0));
        let sync_frame_bytes = telemetry.histogram("membership", "sync_frame_bytes");
        let tracer = if cfg.trace_capacity > 0 {
            Tracer::new(u32::from(cfg.id.0), cfg.trace_capacity)
        } else {
            Tracer::disabled()
        };
        OverlayNode {
            cfg,
            telemetry,
            rng,
            view: None,
            my_index: None,
            prober: None,
            router: None,
            coordinator: None,
            swim: None,
            routing_tick_armed: false,
            shut_down: false,
            armed_probe_wake: f64::INFINITY,
            armed_swim_wake: f64::INFINITY,
            sync_frame_bytes,
            tracer,
        }
    }

    /// This node's identity.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.cfg.id
    }

    /// The installed membership view.
    #[must_use]
    pub fn view(&self) -> Option<&MembershipView> {
        self.view.as_ref()
    }

    /// This node's grid index in the current view.
    #[must_use]
    pub fn my_index(&self) -> Option<usize> {
        self.my_index
    }

    /// Is the node a functioning overlay member (view installed, prober
    /// and router running)?
    #[must_use]
    pub fn is_member(&self) -> bool {
        self.my_index.is_some() && self.router.is_some()
    }

    /// The node's configuration.
    #[must_use]
    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    /// This node's telemetry registry. Every subsystem the node runs
    /// (SWIM membership, the quorum router, its row store) reports into
    /// this handle; experiments snapshot it per node and
    /// [`merge`](apor_telemetry::Snapshot::merge) across the fleet.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// This node's causal-trace flight recorder. Disabled unless the
    /// node was configured with [`NodeConfig::with_tracing`];
    /// experiments drain it with [`Tracer::recent`] after a
    /// convergence episode and assemble the fleet-wide causal tree.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    /// Node start-up.
    pub fn on_start(&mut self, now: f64, out: &mut Outbox) {
        match self.cfg.membership {
            MembershipMode::Centralized => self.start_centralized(now, out),
            MembershipMode::Swim => self.start_swim(now, out),
        }
        match self.cfg.scheduling {
            Scheduling::FixedTick => out.timer(PROBE_POLL_S, TOKEN_PROBE),
            // install_view (when a view is already known) armed the
            // prober wake; a node without a view has nothing to probe
            // and arms it on its first view install instead.
            Scheduling::Coalesced => self.arm_probe(now, out),
        }
    }

    /// The paper's join dance against the coordinator.
    fn start_centralized(&mut self, now: f64, out: &mut Outbox) {
        if self.cfg.is_coordinator() {
            self.coordinator = Some(Coordinator::new(
                self.cfg.id,
                now,
                self.cfg.member_timeout_s,
            ));
            out.timer(EXPIRE_SWEEP_S, TOKEN_EXPIRE);
        }
        if let Some(members) = self.cfg.static_members.clone() {
            let view = MembershipView::new(1, members);
            self.install_view(view, now, out);
        } else if self.cfg.is_coordinator() {
            let view = self.coordinator.as_ref().expect("just built").view();
            self.install_view(view, now, out);
            out.timer(self.cfg.keepalive_s, TOKEN_JOIN);
        } else {
            out.send(
                self.cfg.coordinator,
                &Message::Join {
                    from: self.cfg.id,
                    to: self.cfg.coordinator,
                },
            );
            out.timer(self.cfg.join_retry_s, TOKEN_JOIN);
        }
    }

    /// Coordinator-free start: bring up the SWIM gossip plane. With
    /// static members every node bootstraps the identical initial view;
    /// otherwise the `coordinator` field names the introducer this node
    /// pings first, and the join disseminates by gossip.
    fn start_swim(&mut self, now: f64, out: &mut Outbox) {
        let swim_cfg = self
            .cfg
            .swim
            .clone()
            .with_seed(self.cfg.seed ^ self.cfg.swim.seed);
        let mut swim = if let Some(members) = self.cfg.static_members.clone() {
            Swim::bootstrap(self.cfg.id, swim_cfg, &members)
        } else if self.cfg.id == self.cfg.coordinator {
            Swim::bootstrap(self.cfg.id, swim_cfg, &[self.cfg.id])
        } else {
            Swim::new(self.cfg.id, swim_cfg, &[self.cfg.coordinator])
        }
        .with_telemetry(self.telemetry.clone())
        .with_tracer(self.tracer.clone());
        if let Some((version, members)) = swim.poll_view(now) {
            self.install_view(MembershipView::new(version, members), now, out);
        }
        self.swim = Some(swim);
        match self.cfg.scheduling {
            Scheduling::FixedTick => out.timer(SWIM_TICK_S, TOKEN_SWIM),
            Scheduling::Coalesced => self.arm_swim(now, out),
        }
    }

    /// Graceful shutdown: announce the departure on whichever
    /// membership plane the node runs, so the rest of the overlay
    /// reconfigures immediately instead of waiting for failure
    /// detection. Drivers call this exactly once, flush `out`, and then
    /// stop delivering events; any events that still arrive are
    /// ignored. Idempotent.
    pub fn on_shutdown(&mut self, now: f64, out: &mut Outbox) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        match self.cfg.membership {
            MembershipMode::Swim => {
                let mut msgs = Vec::new();
                if let Some(swim) = self.swim.as_mut() {
                    swim.leave(&mut msgs);
                }
                for (to, msg) in msgs {
                    self.send_swim(now, to, &msg, out);
                }
            }
            MembershipMode::Centralized => {
                if !self.cfg.is_coordinator() {
                    out.send(
                        self.cfg.coordinator,
                        &Message::Leave {
                            from: self.cfg.id,
                            to: self.cfg.coordinator,
                        },
                    );
                }
            }
        }
    }

    /// Has [`OverlayNode::on_shutdown`] run?
    #[must_use]
    pub fn is_shut_down(&self) -> bool {
        self.shut_down
    }

    /// A timer armed with `token` fired.
    pub fn on_timer(&mut self, now: f64, token: u64, out: &mut Outbox) {
        if self.shut_down {
            return;
        }
        match token {
            TOKEN_PROBE => {
                match self.cfg.scheduling {
                    Scheduling::FixedTick => out.timer(PROBE_POLL_S, TOKEN_PROBE),
                    Scheduling::Coalesced => {
                        if (now - self.armed_probe_wake).abs() <= TIMER_EPS {
                            self.armed_probe_wake = f64::INFINITY;
                        }
                    }
                }
                self.run_prober(now, out);
                self.arm_probe(now, out);
            }
            TOKEN_ROUTING => {
                out.timer(self.cfg.protocol.routing_interval_s, TOKEN_ROUTING);
                self.run_routing_tick(now, out);
            }
            TOKEN_JOIN => {
                if self.cfg.is_coordinator() {
                    if let Some(c) = &mut self.coordinator {
                        c.heartbeat_self(self.cfg.id, now);
                    }
                    out.timer(self.cfg.keepalive_s, TOKEN_JOIN);
                } else if self.cfg.static_members.is_none() {
                    // Retry fast until in a view, then keepalive slowly.
                    out.send(
                        self.cfg.coordinator,
                        &Message::Join {
                            from: self.cfg.id,
                            to: self.cfg.coordinator,
                        },
                    );
                    let delay = if self.is_member() {
                        self.cfg.keepalive_s
                    } else {
                        self.cfg.join_retry_s
                    };
                    out.timer(delay, TOKEN_JOIN);
                }
            }
            TOKEN_EXPIRE => {
                out.timer(EXPIRE_SWEEP_S, TOKEN_EXPIRE);
                if let Some(c) = &mut self.coordinator {
                    c.heartbeat_self(self.cfg.id, now);
                    if c.expire(now) {
                        let view = c.view();
                        self.broadcast_view(&view, out);
                        self.install_view(view, now, out);
                    }
                }
            }
            TOKEN_SWIM if self.swim.is_some() => {
                match self.cfg.scheduling {
                    Scheduling::FixedTick => out.timer(SWIM_TICK_S, TOKEN_SWIM),
                    Scheduling::Coalesced => {
                        if (now - self.armed_swim_wake).abs() <= TIMER_EPS {
                            self.armed_swim_wake = f64::INFINITY;
                        }
                    }
                }
                self.run_swim_tick(now, out);
                self.arm_swim(now, out);
            }
            _ => {}
        }
    }

    /// A packet arrived.
    pub fn on_packet(&mut self, now: f64, payload: &[u8], out: &mut Outbox) {
        if self.shut_down {
            return;
        }
        // The SWIM plane owns its tag space; dispatch on the first byte.
        if payload.first().copied().is_some_and(swim_wire::is_swim_tag) {
            self.on_swim_packet(now, payload, out);
            return;
        }
        let Ok((msg, probe_ctx)) = Message::decode_traced(payload) else {
            return; // malformed datagrams are dropped silently
        };
        if let Some(ctx) = probe_ctx {
            // A traced probe batch: the sender is reprobing as part of
            // a convergence episode. Arm our prober so the answering
            // activity is attributed to the same episode.
            if let Some(prober) = self.prober.as_mut() {
                prober.note_episode(ctx);
            }
        }
        match msg {
            Message::Probe(p) => {
                // Liveness works at identity level, independent of views.
                out.send(
                    p.from,
                    &Message::ProbeReply(ProbeReplyMsg {
                        from: self.cfg.id,
                        to: p.from,
                        view: p.view,
                        seq: p.seq,
                        echo_sent_ms: p.sent_ms,
                    }),
                );
            }
            Message::ProbeReply(r) => {
                if let (Some(view), Some(prober)) = (&self.view, &mut self.prober) {
                    if let Some(idx) = view.index_of(r.from) {
                        prober.on_reply(idx, r.seq, now);
                    }
                }
            }
            Message::ProbeBatch(b) => {
                // Pings are answered at identity level (like Probe);
                // pongs and gauges feed the prober in index space.
                let mut reply_items = Vec::new();
                let peer = self.view.as_ref().and_then(|view| view.index_of(b.from));
                for item in &b.items {
                    match *item {
                        ProbeItem::Ping { seq, sent_ms } => {
                            reply_items.push(ProbeItem::Pong {
                                seq,
                                echo_sent_ms: sent_ms,
                            });
                        }
                        ProbeItem::Pong { seq, .. } => {
                            if let (Some(idx), Some(prober)) = (peer, self.prober.as_mut()) {
                                prober.on_reply(idx, seq, now);
                            }
                        }
                        ProbeItem::Gauge { rtt_ms, loss_pm } => {
                            if let (Some(idx), Some(prober)) = (peer, self.prober.as_mut()) {
                                prober.adopt_gauge(idx, rtt_ms, loss_pm, now);
                            }
                        }
                    }
                }
                if !reply_items.is_empty() {
                    out.send(
                        b.from,
                        &Message::ProbeBatch(ProbeBatchMsg {
                            from: self.cfg.id,
                            to: b.from,
                            view: b.view,
                            items: reply_items,
                        }),
                    );
                }
            }
            routing @ (Message::LinkState(_)
            | Message::LinkStateSparse(_)
            | Message::Recommendations(_)) => {
                if let Some(inner) = self.wire_to_index(routing) {
                    let replies = match &mut self.router {
                        Some(router) => router.as_dyn_mut().on_message(now, &inner),
                        None => Vec::new(),
                    };
                    for reply in replies {
                        self.send_index_msg(reply, out);
                    }
                }
            }
            Message::Join { from, .. } => {
                if let Some(c) = &mut self.coordinator {
                    let changed = c.on_join(from, now);
                    let view = c.view();
                    if changed {
                        self.broadcast_view(&view, out);
                        self.install_view(view, now, out);
                    } else {
                        // Keepalive: refresh the sender's copy of the view.
                        out.send(
                            from,
                            &Message::View(apor_linkstate::wire::ViewMsg {
                                from: self.cfg.id,
                                to: from,
                                view: view.version(),
                                members: view.members().to_vec(),
                            }),
                        );
                    }
                }
            }
            Message::Leave { from, .. } => {
                if let Some(c) = &mut self.coordinator {
                    if c.on_leave(from) {
                        let view = c.view();
                        self.broadcast_view(&view, out);
                        self.install_view(view, now, out);
                    }
                }
            }
            Message::View(v) => {
                let view = MembershipView::new(v.view, v.members);
                self.install_view(view, now, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Metrics / inspection (used by experiments)
    // ------------------------------------------------------------------

    /// Best first hop towards `dst` (`Some(dst)` ⇒ direct link).
    #[must_use]
    pub fn best_hop(&self, dst: NodeId, now: f64) -> Option<NodeId> {
        let view = self.view.as_ref()?;
        let router = self.router.as_ref()?;
        let idx = view.index_of(dst)?;
        let hop = router.as_dyn().best_hop(idx, now)?;
        view.id_of(hop)
    }

    /// The full relay path towards `dst` when the current route is a
    /// source-routed spliced detour (identity space, `[me, …, dst]`).
    ///
    /// `None` whenever forwarding is single-hop — a recommendation,
    /// the direct link, or a 1-hop scavenge, where each relay
    /// re-decides from its own tables — or when there is no route at
    /// all. Spliced detours are the exception: the source commits to
    /// the chain it derived from its own rows, so the carried path is
    /// what the packet follows.
    #[must_use]
    pub fn detour_path(&self, dst: NodeId, now: f64) -> Option<Vec<NodeId>> {
        let view = self.view.as_ref()?;
        let idx = view.index_of(dst)?;
        match self.quorum_router()?.route_decision(idx, now)? {
            RouteDecision::Spliced(d) => d
                .path
                .iter()
                .map(|&i| view.id_of(i))
                .collect::<Option<Vec<_>>>(),
            RouteDecision::Hop(_) => None,
        }
    }

    /// Seconds since the last routing information about `dst` arrived.
    #[must_use]
    pub fn route_age(&self, dst: NodeId, now: f64) -> Option<f64> {
        let view = self.view.as_ref()?;
        let router = self.router.as_ref()?;
        router.as_dyn().route_age(view.index_of(dst)?, now)
    }

    /// Destinations currently under a double rendezvous failure
    /// (figure 11's metric; 0 for the full-mesh baseline).
    #[must_use]
    pub fn double_rendezvous_failures(&self, now: f64) -> usize {
        self.router
            .as_ref()
            .map_or(0, |r| r.as_dyn().double_rendezvous_failures(now))
    }

    /// Concurrent direct-link failures as seen by this node's prober
    /// (figure 8's metric).
    #[must_use]
    pub fn concurrent_link_failures(&self) -> usize {
        self.prober.as_ref().map_or(0, Prober::concurrent_failures)
    }

    /// Measured (EWMA) RTT to `dst`, ms.
    #[must_use]
    pub fn measured_latency_ms(&self, dst: NodeId) -> Option<f64> {
        let view = self.view.as_ref()?;
        self.prober.as_ref()?.latency_ms(view.index_of(dst)?)
    }

    /// Borrow the quorum router, when running the quorum algorithm.
    #[must_use]
    pub fn quorum_router(&self) -> Option<&QuorumRouter> {
        match self.router.as_ref()? {
            RouterBox::Quorum(r) => Some(r),
            RouterBox::FullMesh(_) => None,
        }
    }

    /// Borrow the SWIM machine, when running [`MembershipMode::Swim`]
    /// (experiment inspection: suspicion state, ledger, incarnations).
    #[must_use]
    pub fn swim(&self) -> Option<&Swim> {
        self.swim.as_ref()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Coalesced probe wake: one outstanding timer at the prober's
    /// `next_wake`, re-armed only when a strictly earlier wake appears.
    /// No prober (not yet a member) ⇒ no timer — the idle-node
    /// contract the netsim event loop relies on.
    fn arm_probe(&mut self, now: f64, out: &mut Outbox) {
        if self.cfg.scheduling != Scheduling::Coalesced {
            return;
        }
        let Some(prober) = &self.prober else { return };
        let wake = prober.next_wake(now);
        if wake.is_finite() && wake + TIMER_EPS < self.armed_probe_wake {
            out.timer((wake - now).max(0.0), TOKEN_PROBE);
            self.armed_probe_wake = wake;
        }
    }

    /// Coalesced SWIM wake — same discipline as [`Self::arm_probe`].
    fn arm_swim(&mut self, now: f64, out: &mut Outbox) {
        if self.cfg.scheduling != Scheduling::Coalesced {
            return;
        }
        let Some(swim) = &self.swim else { return };
        let wake = swim.next_wake(now);
        if wake.is_finite() && wake + TIMER_EPS < self.armed_swim_wake {
            out.timer((wake - now).max(0.0), TOKEN_SWIM);
            self.armed_swim_wake = wake;
        }
    }

    /// Queue one SWIM frame, feeding the sync-frame size histogram for
    /// anti-entropy traffic. While a convergence episode is hot the
    /// frame carries the trace context (hop count bumped), so receivers
    /// can reconstruct the gossip wavefront per hop.
    fn send_swim(&self, now: f64, to: NodeId, msg: &SwimMsg, out: &mut Outbox) {
        let ctx = self
            .swim
            .as_ref()
            .and_then(|s| s.gossip_trace(now))
            .map(TraceCtx::next_hop);
        let bytes = msg.encode_traced(ctx.as_ref());
        if matches!(
            msg,
            SwimMsg::SyncReq { .. }
                | SwimMsg::SyncRsp { .. }
                | SwimMsg::SyncDigest { .. }
                | SwimMsg::SyncDigestPush { .. }
        ) {
            self.sync_frame_bytes.observe(bytes.len() as u64);
        }
        out.sends.push((to, TrafficClass::Membership, bytes));
    }

    fn install_view(&mut self, view: MembershipView, now: f64, out: &mut Outbox) {
        if let Some(current) = &self.view {
            if view.version() <= current.version() {
                return;
            }
        }
        let my_index = view.index_of(self.cfg.id);
        let old = self.view.take();
        let old_prober = self.prober.take();
        let old_router = self.router.take();
        self.my_index = my_index;
        self.prober = None;
        // The convergence episode this install belongs to, if one is
        // hot: parents the ViewInstall/Remap spans and primes the fresh
        // prober and router so their recovery work is attributed too.
        let episode_ctx = if self.tracer.enabled() {
            self.swim.as_ref().and_then(|s| s.gossip_trace(now))
        } else {
            None
        };

        if let Some(me) = my_index {
            let n = view.len();
            let mut prober = Prober::new(me, n, self.cfg.protocol.clone(), now)
                .with_telemetry(&self.telemetry)
                .with_tracer(self.tracer.clone());
            if let Some(ctx) = episode_ctx {
                prober.note_episode(ctx);
            }
            // Carry estimator history across the view change so a
            // membership bump doesn't blind the overlay for a probing
            // interval.
            if let (Some(old_view), Some(old_prober)) = (&old, &old_prober) {
                for (new_idx, id) in view.members().iter().enumerate() {
                    if new_idx == me {
                        continue;
                    }
                    if let Some(est) = old_view
                        .index_of(*id)
                        .and_then(|old_idx| old_prober.estimator(old_idx))
                    {
                        prober.set_estimator(new_idx, est.clone());
                    }
                }
            }
            self.prober = Some(prober);
            let mut router = match self.cfg.algorithm {
                Algorithm::FullMesh => RouterBox::FullMesh(FullMeshRouter::new(
                    me,
                    n,
                    view.version(),
                    self.cfg.protocol.clone(),
                )),
                Algorithm::Quorum => RouterBox::Quorum(
                    QuorumRouter::new_with_telemetry(
                        me,
                        n,
                        view.version(),
                        self.cfg.protocol.clone(),
                        &self.telemetry,
                    )
                    .with_tracer(self.tracer.clone()),
                ),
            };
            if let (Some(ctx), RouterBox::Quorum(q)) = (episode_ctx, &mut router) {
                q.note_episode(ctx);
            }
            // Incremental remap: translate the old router's surviving
            // rows into the new index space by NodeId instead of
            // rebuilding from empty — a view bump relabels the grid, it
            // doesn't invalidate fresh measurements. Stale rows (older
            // than the 3-interval window) are dropped here; the
            // router's own entitlement filter drops rows whose origin
            // is no longer a rendezvous client in the new grid.
            if let (Some(old_view), Some(mut old_router)) = (&old, old_router) {
                // Routes whose destination or recommended hop departed
                // are explicitly retracted (counted in
                // `routing/routes_retracted`) rather than silently
                // dropped with the old router.
                if let RouterBox::Quorum(q) = &mut old_router {
                    let survives =
                        |idx: usize| old_view.id_of(idx).is_some_and(|id| view.contains(id));
                    q.retract_departed_routes(&survives);
                }
                let exported = old_router.as_dyn().export_rows();
                let carried = crate::remap::remap_rows(
                    &exported,
                    old_view,
                    &view,
                    now,
                    self.cfg.protocol.staleness_s(),
                );
                let carried_rows = carried.len();
                for row in &carried {
                    router.as_dyn_mut().import_row(row);
                }
                if let Some(ctx) = episode_ctx {
                    #[allow(clippy::cast_possible_truncation)]
                    self.tracer
                        .instant(SpanKind::Remap, ctx.episode, 0, carried_rows as u32, now);
                }
            }
            self.router = Some(router);
            if !self.routing_tick_armed {
                // Desynchronize routing ticks across the fleet.
                let phase = self
                    .rng
                    .gen_range(0.0..self.cfg.protocol.routing_interval_s);
                out.timer(phase, TOKEN_ROUTING);
                self.routing_tick_armed = true;
            }
            // The fresh prober's schedule replaces the old one's.
            self.armed_probe_wake = f64::INFINITY;
            self.arm_probe(now, out);
        }
        if let Some(ctx) = episode_ctx {
            // Parent the install on the Confirm span when this node is
            // the one that confirmed the failure; elsewhere it hangs
            // off the episode root.
            let parent = self
                .swim
                .as_ref()
                .and_then(|s| s.last_confirm())
                .filter(|&(ep, _)| ep == ctx.episode)
                .map_or(0, |(_, span)| span);
            self.tracer.instant(
                SpanKind::ViewInstall,
                ctx.episode,
                parent,
                view.version(),
                now,
            );
        }
        self.view = Some(view);
    }

    fn broadcast_view(&self, view: &MembershipView, out: &mut Outbox) {
        for &m in view.members() {
            if m == self.cfg.id {
                continue;
            }
            out.send(
                m,
                &Message::View(apor_linkstate::wire::ViewMsg {
                    from: self.cfg.id,
                    to: m,
                    view: view.version(),
                    members: view.members().to_vec(),
                }),
            );
        }
    }

    /// One SWIM timer tick: drive the protocol, transmit its messages,
    /// and install a freshly published view when the batching cadence
    /// yields one.
    fn run_swim_tick(&mut self, now: f64, out: &mut Outbox) {
        let (msgs, published) = {
            let Some(swim) = self.swim.as_mut() else {
                return;
            };
            let mut msgs = Vec::new();
            swim.on_tick(now, &mut msgs);
            (msgs, swim.poll_view(now))
        };
        for (to, msg) in msgs {
            self.send_swim(now, to, &msg, out);
        }
        if let Some((version, members)) = published {
            self.install_view(MembershipView::new(version, members), now, out);
        }
    }

    /// A datagram from the SWIM tag space arrived.
    fn on_swim_packet(&mut self, now: f64, payload: &[u8], out: &mut Outbox) {
        let Ok((msg, ctx)) = SwimMsg::decode_traced(payload) else {
            return; // malformed datagrams are dropped silently
        };
        let Some(swim) = self.swim.as_mut() else {
            return; // not running the gossip plane
        };
        if let Some(ctx) = ctx {
            // One span per receiving node per gossip hop: the episode's
            // wavefront through the fleet, aux = hop distance from the
            // first suspecting node.
            self.tracer
                .instant(SpanKind::GossipHop, ctx.episode, 0, u32::from(ctx.hop), now);
            swim.note_remote_trace(now, ctx);
        }
        let mut replies = Vec::new();
        swim.on_message(now, &msg, &mut replies);
        for (to, reply) in replies {
            self.send_swim(now, to, &reply, out);
        }
        // A message can start suspicions, relays or a pending publish
        // whose deadlines undercut the currently armed wake.
        self.arm_swim(now, out);
    }

    fn run_prober(&mut self, now: f64, out: &mut Outbox) {
        let (Some(view), Some(prober)) = (&self.view, &mut self.prober) else {
            return;
        };
        let Some(_me) = self.my_index else { return };
        let version = view.version();
        // `poll_traced` hands back the armed episode context exactly
        // once, on the first poll that emits work after a view change;
        // the batches it produced carry the context (hop bumped) so the
        // probed peers attribute the reprobe wave to the episode.
        let (actions, episode) = prober.poll_traced(now);
        let batch_ctx = episode.map(TraceCtx::next_hop);
        for action in actions {
            match action {
                ProbeAction::SendProbe { to, seq } => {
                    let Some(to_id) = view.id_of(to) else {
                        continue;
                    };
                    out.send(
                        to_id,
                        &Message::Probe(ProbeMsg {
                            from: self.cfg.id,
                            to: to_id,
                            view: version,
                            seq,
                            sent_ms: (now * 1000.0) as u32,
                        }),
                    );
                }
                ProbeAction::SendBatch { to, items } => {
                    let Some(to_id) = view.id_of(to) else {
                        continue;
                    };
                    let msg = Message::ProbeBatch(ProbeBatchMsg {
                        from: self.cfg.id,
                        to: to_id,
                        view: version,
                        items,
                    });
                    out.sends
                        .push((to_id, class_of(&msg), msg.encode_traced(batch_ctx.as_ref())));
                }
            }
        }
        // Links the 5-failure rule just declared dead retract their
        // routes now (seqno bump + feasibility withdrawal) instead of
        // waiting for the next routing tick's own-row diff.
        if let Some(prober) = &mut self.prober {
            let losses = prober.take_link_losses();
            if let Some(RouterBox::Quorum(q)) = &mut self.router {
                for peer in losses {
                    q.on_link_loss(peer, now);
                }
            }
        }
    }

    fn run_routing_tick(&mut self, now: f64, out: &mut Outbox) {
        let (Some(prober), Some(router)) = (&self.prober, &mut self.router) else {
            return;
        };
        let row = prober.own_row(now);
        let tick = router
            .as_dyn_mut()
            .on_routing_tick(now, &row, &mut self.rng);
        if let Some(frame) = tick.frame {
            self.send_frame(frame, &tick.frame_to, out);
        }
        for m in tick.msgs {
            self.send_index_msg(m, out);
        }
    }

    /// Translate a tick's round-one frame to identity space once and
    /// queue one encoding per recipient (grid indices `frame_to`), each
    /// with its recipient's identity stamped into `to`.
    fn send_frame(&self, frame: Message, frame_to: &[usize], out: &mut Outbox) {
        let Some(view) = &self.view else { return };
        let Some(wire) = translate(frame, self.cfg.id, |idx| view.id_of(idx.index())) else {
            return;
        };
        let recipients: Vec<NodeId> = frame_to.iter().filter_map(|&i| view.id_of(i)).collect();
        let class = class_of(&wire);
        for (&to, bytes) in recipients.iter().zip(wire.encode_fanout(&recipients)) {
            out.sends.push((to, class, bytes));
        }
    }

    /// Translate a router-produced (index-space) routing message to
    /// identity space in place and queue it.
    fn send_index_msg(&self, msg: Message, out: &mut Outbox) {
        let Some(view) = &self.view else { return };
        let Some(to) = view.id_of(msg.to().index()) else {
            return;
        };
        if let Some(wire) = translate(msg, to, |idx| view.id_of(idx.index())) {
            out.send(to, &wire);
        }
    }

    /// Translate an incoming identity-space routing message into index
    /// space in place; `None` when the sender is not in the current view.
    fn wire_to_index(&self, msg: Message) -> Option<Message> {
        let view = self.view.as_ref()?;
        let me = NodeId::from_index(self.my_index?);
        translate(msg, me, |id| view.index_of(id).map(NodeId::from_index))
    }
}

/// Rewrite a routing message between index and identity space in place:
/// `from` goes through `map`, `to` becomes `to`, and recommendation
/// entries whose `dst` or `hop` has no image under `map` are dropped.
/// `None` when `from` has no image. Row entries and retraction lanes
/// stay view-positional in both spaces: receivers guard them with their
/// view and width checks. Only the three routing variants may reach this
/// point; any other is a program bug, dropped after a debug assertion
/// rather than sent anywhere.
fn translate(
    mut msg: Message,
    to: NodeId,
    map: impl Fn(NodeId) -> Option<NodeId>,
) -> Option<Message> {
    debug_assert!(
        class_of(&msg) == TrafficClass::Routing,
        "non-routing message at the index/identity boundary: {msg:?}"
    );
    let (from, addressee, recs) = match &mut msg {
        Message::LinkState(m) => (&mut m.from, &mut m.to, None),
        Message::LinkStateSparse(m) => (&mut m.from, &mut m.to, None),
        Message::Recommendations(m) => (&mut m.from, &mut m.to, Some(&mut m.recs)),
        _ => return None,
    };
    *from = map(*from)?;
    *addressee = to;
    if let Some(recs) = recs {
        recs.retain_mut(|r| match (map(r.dst), map(r.hop)) {
            (Some(dst), Some(hop)) => {
                r.dst = dst;
                r.hop = hop;
                true
            }
            _ => false,
        });
    }
    Some(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn static_node(id: u16, n: u16, algo: Algorithm) -> OverlayNode {
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        OverlayNode::new(NodeConfig::new(NodeId(id), NodeId(0), algo).with_static_members(members))
    }

    #[test]
    fn static_member_starts_ready() {
        let mut node = static_node(2, 9, Algorithm::Quorum);
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        assert!(node.is_member());
        assert_eq!(node.my_index(), Some(2));
        // Probe poll and routing timers armed.
        let tokens: Vec<u64> = out.timers.iter().map(|&(_, t)| t).collect();
        assert!(tokens.contains(&TOKEN_PROBE));
        assert!(tokens.contains(&TOKEN_ROUTING));
    }

    #[test]
    fn probe_and_reply_measure_latency() {
        let mut a = static_node(0, 2, Algorithm::Quorum);
        let mut b = static_node(1, 2, Algorithm::Quorum);
        let mut out_a = Outbox::default();
        let mut out_b = Outbox::default();
        a.on_start(0.0, &mut out_a);
        b.on_start(0.0, &mut out_b);
        // Drive a's probe poll until it emits a probe for b.
        let mut probe: Option<Bytes> = None;
        let mut t = 0.0;
        while probe.is_none() && t < 40.0 {
            let mut out = Outbox::default();
            a.on_timer(t, TOKEN_PROBE, &mut out);
            for (to, class, bytes) in out.sends {
                if to == NodeId(1) && class == TrafficClass::Probing {
                    probe = Some(bytes);
                }
            }
            t += 0.5;
        }
        let probe = probe.expect("probe emitted");
        let sent_at = t - 0.5;
        // b replies.
        let mut out = Outbox::default();
        b.on_packet(sent_at + 0.02, &probe, &mut out);
        let (to, class, reply) = out.sends.pop().expect("probe reply");
        assert_eq!(to, NodeId(0));
        assert_eq!(class, TrafficClass::Probing);
        // a ingests the reply 40 ms after sending.
        let mut out = Outbox::default();
        a.on_packet(sent_at + 0.04, &reply, &mut out);
        let l = a.measured_latency_ms(NodeId(1)).expect("latency measured");
        assert!((l - 40.0).abs() < 1.0, "latency {l}");
    }

    #[test]
    fn join_dance_converges() {
        let mut coord = OverlayNode::new(NodeConfig::new(NodeId(0), NodeId(0), Algorithm::Quorum));
        let mut joiner = OverlayNode::new(NodeConfig::new(NodeId(7), NodeId(0), Algorithm::Quorum));
        let mut out_c = Outbox::default();
        let mut out_j = Outbox::default();
        coord.on_start(0.0, &mut out_c);
        joiner.on_start(0.0, &mut out_j);
        assert!(coord.is_member(), "coordinator is its own first view");
        assert!(!joiner.is_member());
        // The joiner sent a Join to node 0.
        let (to, class, join_bytes) = out_j
            .sends
            .iter()
            .find(|(_, c, _)| *c == TrafficClass::Membership)
            .cloned()
            .expect("join sent");
        assert_eq!(to, NodeId(0));
        assert_eq!(class, TrafficClass::Membership);
        // Coordinator processes the join and broadcasts a view.
        let mut out = Outbox::default();
        coord.on_packet(0.5, &join_bytes, &mut out);
        let view_msg = out
            .sends
            .iter()
            .find(|(to, _, _)| *to == NodeId(7))
            .cloned()
            .expect("view broadcast to joiner");
        // Joiner installs the view.
        let mut out = Outbox::default();
        joiner.on_packet(0.6, &view_msg.2, &mut out);
        assert!(joiner.is_member());
        assert_eq!(joiner.view().unwrap().members(), [NodeId(0), NodeId(7)]);
        assert_eq!(joiner.my_index(), Some(1));
        assert_eq!(
            coord.view().unwrap().version(),
            joiner.view().unwrap().version()
        );
    }

    #[test]
    fn sparse_ids_translate_correctly() {
        // Members {3, 10, 200}: identity ≠ index. Node 10 (index 1) sends
        // link state; the wire message must carry identities.
        let members = vec![NodeId(3), NodeId(10), NodeId(200)];
        let mut node = OverlayNode::new(
            NodeConfig::new(NodeId(10), NodeId(3), Algorithm::Quorum).with_static_members(members),
        );
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        assert_eq!(node.my_index(), Some(1));
        let mut out = Outbox::default();
        node.on_timer(20.0, TOKEN_ROUTING, &mut out);
        assert!(!out.sends.is_empty(), "routing tick must emit link state");
        for (to, class, bytes) in &out.sends {
            assert_eq!(*class, TrafficClass::Routing);
            assert!(
                [NodeId(3), NodeId(200)].contains(to),
                "wire destination must be an identity, got {to}"
            );
            let m = Message::decode(bytes).unwrap();
            assert_eq!(m.from(), NodeId(10), "wire sender must be identity");
            assert_eq!(m.to(), *to, "each copy is stamped with its recipient");
        }
    }

    /// Recommendation entries naming a `dst` or `hop` outside the view
    /// are dropped — exactly those, in both directions — while the rest
    /// translate in place with their costs intact.
    #[test]
    fn non_member_rec_entries_dropped_both_ways() {
        use apor_linkstate::{RecEntry, RecFormat, RecommendationMsg};

        // Members {3, 10, 200}: identity ≠ index; I am 10 (index 1).
        let members = vec![NodeId(3), NodeId(10), NodeId(200)];
        let mut node = OverlayNode::new(
            NodeConfig::new(NodeId(10), NodeId(3), Algorithm::Quorum).with_static_members(members),
        );
        node.on_start(0.0, &mut Outbox::default());
        let rec = |dst: u16, hop: u16, cost_ms: u16| RecEntry {
            dst: NodeId(dst),
            hop: NodeId(hop),
            cost_ms,
        };
        let recs_msg = |from: u16, to: u16, recs: Vec<RecEntry>| {
            Message::Recommendations(RecommendationMsg {
                from: NodeId(from),
                to: NodeId(to),
                view: 1,
                round: 4,
                basis_ms: 60_000,
                format: RecFormat::WithCost,
                recs,
            })
        };

        // Outbound, index space: index 7 and 5 are outside a 3-member view.
        let mut out = Outbox::default();
        let outbound = vec![rec(2, 0, 11), rec(7, 0, 12), rec(0, 5, 13), rec(2, 2, 14)];
        node.send_index_msg(recs_msg(1, 0, outbound), &mut out);
        let [(to, class, bytes)] = &out.sends[..] else {
            panic!("expected one frame, got {:?}", out.sends);
        };
        assert_eq!((*to, *class), (NodeId(3), TrafficClass::Routing));
        assert_eq!(
            Message::decode(bytes).unwrap(),
            recs_msg(10, 3, vec![rec(200, 3, 11), rec(200, 200, 14)])
        );

        // Inbound, identity space: ids 99 and 65535 are not members.
        let inbound = vec![
            rec(3, 200, 21),
            rec(99, 3, 22),
            rec(3, 65535, 23),
            rec(200, 200, 24),
        ];
        let inner = node.wire_to_index(recs_msg(200, 10, inbound)).unwrap();
        assert_eq!(inner, recs_msg(2, 1, vec![rec(0, 2, 21), rec(2, 2, 24)]));
        // A frame from a non-member is dropped whole.
        assert!(node.wire_to_index(recs_msg(99, 10, vec![])).is_none());
    }

    /// A non-routing message at the index/identity boundary is a program
    /// bug: debug builds stop on it, and release builds drop it rather
    /// than send it to `NodeId(index)`.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-routing message"))]
    fn non_routing_message_is_never_sent() {
        let mut node = static_node(2, 9, Algorithm::Quorum);
        node.on_start(0.0, &mut Outbox::default());
        let mut out = Outbox::default();
        node.send_index_msg(
            Message::Join {
                from: NodeId(2),
                to: NodeId(5),
            },
            &mut out,
        );
        assert!(out.sends.is_empty());
    }

    #[test]
    fn malformed_packets_ignored() {
        let mut node = static_node(0, 4, Algorithm::Quorum);
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        let mut out = Outbox::default();
        node.on_packet(1.0, &[0xFF, 1, 2], &mut out);
        node.on_packet(1.0, &[], &mut out);
        assert!(out.sends.is_empty());
        assert!(node.is_member());
    }

    #[test]
    fn non_member_routing_messages_dropped() {
        let mut node = static_node(0, 4, Algorithm::Quorum);
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        // A link-state message from an unknown identity 99.
        let bogus = Message::LinkState(apor_linkstate::LinkStateMsg {
            from: NodeId(99),
            to: NodeId(0),
            view: 1,
            round: 1,
            basis_ms: 0,
            entries: vec![apor_linkstate::DEAD_WIRE; 4],
            seqno: 0,
            retractions: vec![],
        });
        let mut out = Outbox::default();
        node.on_packet(1.0, &bogus.encode(), &mut out);
        assert!(out.sends.is_empty());
        // The table must not have been touched: route_age for all real
        // members is still None.
        for id in 1..4u16 {
            assert_eq!(node.route_age(NodeId(id), 2.0), None);
        }
    }

    #[test]
    fn full_mesh_algorithm_selectable() {
        let mut node = static_node(1, 9, Algorithm::FullMesh);
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        let mut out = Outbox::default();
        node.on_timer(35.0, TOKEN_ROUTING, &mut out);
        // Full mesh broadcasts to all 8 peers.
        let ls = out
            .sends
            .iter()
            .filter(|(_, c, _)| *c == TrafficClass::Routing)
            .count();
        assert_eq!(ls, 8);
        assert!(node.quorum_router().is_none());
    }

    #[test]
    fn quorum_algorithm_talks_to_2_sqrt_n() {
        let mut node = static_node(1, 100, Algorithm::Quorum);
        let mut out = Outbox::default();
        node.on_start(0.0, &mut out);
        let mut out = Outbox::default();
        node.on_timer(20.0, TOKEN_ROUTING, &mut out);
        let ls = out
            .sends
            .iter()
            .filter(|(_, c, _)| *c == TrafficClass::Routing)
            .count();
        assert!(
            ls <= 20,
            "quorum node sent {ls} routing messages, ~2√100 expected"
        );
        assert!(node.quorum_router().is_some());
    }
}
