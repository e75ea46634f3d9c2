//! The traced adapter: a `NodeBehavior` that runs an [`OverlayNode`]
//! exactly as the stock `SimNode` does, but times every call into the
//! node's public API and records one span per call.
//!
//! Calls are classified before the clock starts: timers by their
//! `TOKEN_*` constant, packets by the SWIM tag byte or by the link-state
//! message type. The link-state decode that classification needs is
//! itself timed and recorded as its own span (`linkstate.decode`), so
//! the harness's decode is never billed to the layer it classifies.

use apor_linkstate::Message;
use apor_membership::wire::is_swim_tag;
use apor_netsim::{Ctx, NodeBehavior};
use apor_overlay::node::{
    Outbox, OverlayNode, TOKEN_EXPIRE, TOKEN_JOIN, TOKEN_PROBE, TOKEN_ROUTING, TOKEN_SWIM,
};
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

/// What a timed call was. The discriminant is the kind's id in the trace
/// file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// `on_start`.
    Start = 0,
    /// View / Join / Leave packets and the JOIN / EXPIRE timers.
    ViewRx = 1,
    /// `TOKEN_ROUTING`: own-row diff, failover management, rounds one
    /// and two.
    RoutingTick = 2,
    /// `TOKEN_PROBE`.
    ProberPoll = 3,
    /// Probe / ProbeReply / ProbeBatch packets.
    ProbeRx = 4,
    /// Recommendations packets.
    RecRx = 5,
    /// LinkState / LinkStateSparse packets.
    LinkstateIngest = 6,
    /// `TOKEN_SWIM`.
    SwimTick = 7,
    /// SWIM-tag packets.
    SwimRx = 8,
    /// Unknown timer tokens and undecodable packets.
    Other = 9,
    /// The harness's own `Message::decode` of a non-SWIM payload.
    Decode = 10,
}

impl Kind {
    /// Every kind, in id order.
    pub const ALL: [Kind; 11] = [
        Kind::Start,
        Kind::ViewRx,
        Kind::RoutingTick,
        Kind::ProberPoll,
        Kind::ProbeRx,
        Kind::RecRx,
        Kind::LinkstateIngest,
        Kind::SwimTick,
        Kind::SwimRx,
        Kind::Other,
        Kind::Decode,
    ];

    /// Metric-name prefix, `<layer>.<kind>`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Start => "overlay.start",
            Kind::ViewRx => "overlay.view_rx",
            Kind::RoutingTick => "routing.tick",
            Kind::ProberPoll => "routing.prober_poll",
            Kind::ProbeRx => "routing.probe_rx",
            Kind::RecRx => "routing.rec_rx",
            Kind::LinkstateIngest => "linkstate.ingest",
            Kind::SwimTick => "membership.swim_tick",
            Kind::SwimRx => "membership.swim_rx",
            Kind::Other => "overlay.other",
            Kind::Decode => "linkstate.decode",
        }
    }

    fn from_id(id: u8) -> Option<Kind> {
        Kind::ALL.get(usize::from(id)).copied()
    }

    fn of_timer(token: u64) -> Kind {
        match token {
            TOKEN_ROUTING => Kind::RoutingTick,
            TOKEN_PROBE => Kind::ProberPoll,
            TOKEN_SWIM => Kind::SwimTick,
            TOKEN_JOIN | TOKEN_EXPIRE => Kind::ViewRx,
            _ => Kind::Other,
        }
    }

    fn of_message(msg: &Message) -> Kind {
        match msg {
            Message::Probe(_) | Message::ProbeReply(_) | Message::ProbeBatch(_) => Kind::ProbeRx,
            Message::Recommendations(_) => Kind::RecRx,
            Message::LinkState(_) | Message::LinkStateSparse(_) => Kind::LinkstateIngest,
            Message::Join { .. } | Message::Leave { .. } | Message::View(_) => Kind::ViewRx,
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Simulated time of the call, seconds.
    pub sim_t: f64,
    /// Wall-clock start, nanoseconds since the recorder's epoch.
    pub wall_start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u32,
    /// Payload bytes (packets and decodes; 0 otherwise).
    pub bytes: u32,
    /// Simulator slot of the node.
    pub node: u16,
    /// What the call was.
    pub kind: Kind,
}

/// Size of one span record in the trace file.
const RECORD_BYTES: usize = 8 + 8 + 4 + 4 + 2 + 1;
/// First line of a trace file.
const MAGIC: &[u8] = b"apor-sysbench spans v1\n";

/// Spans of one run, shared by every traced node. Only the boot calls
/// (`on_start`, which happen during warm-up) and the calls inside the
/// measured window are kept: the attribution is of the window, and the
/// warm-up's spans would only cost memory.
pub struct Recorder {
    epoch: Instant,
    in_window: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose wall clock starts now.
    #[must_use]
    pub fn new() -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            in_window: false,
            spans: Vec::new(),
        }))
    }

    /// Keep every span from now on.
    pub fn start_window(&mut self) {
        self.in_window = true;
    }

    /// Every span recorded, in recording order.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn push(&mut self, kind: Kind, node: usize, sim_t: f64, bytes: usize, started: Instant) {
        let dur = started.elapsed();
        if !self.in_window && kind != Kind::Start {
            return;
        }
        self.spans.push(Span {
            sim_t,
            wall_start_ns: u64::try_from(started.duration_since(self.epoch).as_nanos())
                .unwrap_or(u64::MAX),
            dur_ns: u32::try_from(dur.as_nanos()).unwrap_or(u32::MAX),
            bytes: u32::try_from(bytes).unwrap_or(u32::MAX),
            node: u16::try_from(node).expect("overlay sizes fit u16"),
            kind,
        });
    }
}

/// Encode `spans` in the trace-file format: a magic line, a line naming
/// the kinds in id order, the span count (u64), then one little-endian
/// record per span (`sim_t` f64, `wall_start_ns` u64, `dur_ns` u32,
/// `bytes` u32, `node` u16, `kind` u8).
///
/// # Errors
/// Propagates write errors.
pub fn write_spans(mut w: impl Write, spans: &[Span]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    writeln!(w, "{}", names.join(","))?;
    w.write_all(&(spans.len() as u64).to_le_bytes())?;
    for s in spans {
        w.write_all(&s.sim_t.to_le_bytes())?;
        w.write_all(&s.wall_start_ns.to_le_bytes())?;
        w.write_all(&s.dur_ns.to_le_bytes())?;
        w.write_all(&s.bytes.to_le_bytes())?;
        w.write_all(&s.node.to_le_bytes())?;
        w.write_all(&[s.kind as u8])?;
    }
    w.flush()
}

/// Decode a trace written by [`write_spans`].
///
/// # Errors
/// `InvalidData` for bytes this version did not write.
pub fn read_spans(data: &[u8]) -> io::Result<Vec<Span>> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let rest = data
        .strip_prefix(MAGIC)
        .ok_or_else(|| bad("not a span file"))?;
    let eol = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| bad("missing kind table"))?;
    let (count, body) = rest[eol + 1..]
        .split_at_checked(8)
        .ok_or_else(|| bad("missing span count"))?;
    let count = u64::from_le_bytes(count.try_into().expect("8 bytes"));
    if body.len() as u64 != count.saturating_mul(RECORD_BYTES as u64) {
        return Err(bad("span count does not match the data length"));
    }
    body.chunks_exact(RECORD_BYTES)
        .map(|r| {
            Ok(Span {
                sim_t: f64::from_le_bytes(r[0..8].try_into().expect("8 bytes")),
                wall_start_ns: u64::from_le_bytes(r[8..16].try_into().expect("8 bytes")),
                dur_ns: u32::from_le_bytes(r[16..20].try_into().expect("4 bytes")),
                bytes: u32::from_le_bytes(r[20..24].try_into().expect("4 bytes")),
                node: u16::from_le_bytes(r[24..26].try_into().expect("2 bytes")),
                kind: Kind::from_id(r[26]).ok_or_else(|| bad("unknown span kind"))?,
            })
        })
        .collect()
}

/// The traced stand-in for `apor_overlay::simnode::SimNode`.
pub struct TracedNode {
    node: OverlayNode,
    recorder: Rc<RefCell<Recorder>>,
}

impl TracedNode {
    /// Wrap `node`, recording into `recorder`.
    #[must_use]
    pub fn new(node: OverlayNode, recorder: Rc<RefCell<Recorder>>) -> Self {
        TracedNode { node, recorder }
    }

    /// The wrapped overlay node.
    #[must_use]
    pub fn overlay(&self) -> &OverlayNode {
        &self.node
    }

    /// Hand the node's commands to the simulator, as `SimNode` does.
    fn flush(out: Outbox, ctx: &mut Ctx<'_>) {
        for (to, class, bytes) in out.sends {
            ctx.send(to.index(), class, bytes);
        }
        for (delay, token) in out.timers {
            ctx.set_timer(delay, token);
        }
    }
}

impl NodeBehavior for TracedNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let mut out = Outbox::default();
        let now = ctx.now();
        let started = Instant::now();
        self.node.on_start(now, &mut out);
        self.recorder
            .borrow_mut()
            .push(Kind::Start, ctx.node(), now, 0, started);
        Self::flush(out, ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: usize, payload: &[u8]) {
        let now = ctx.now();
        let kind = if payload.first().copied().is_some_and(is_swim_tag) {
            Kind::SwimRx
        } else {
            let started = Instant::now();
            let decoded = Message::decode(payload);
            let kind = decoded.as_ref().map_or(Kind::Other, Kind::of_message);
            drop(decoded);
            self.recorder
                .borrow_mut()
                .push(Kind::Decode, ctx.node(), now, payload.len(), started);
            kind
        };
        let mut out = Outbox::default();
        let started = Instant::now();
        self.node.on_packet(now, payload, &mut out);
        self.recorder
            .borrow_mut()
            .push(kind, ctx.node(), now, payload.len(), started);
        Self::flush(out, ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let now = ctx.now();
        let kind = Kind::of_timer(token);
        let mut out = Outbox::default();
        let started = Instant::now();
        self.node.on_timer(now, token, &mut out);
        self.recorder
            .borrow_mut()
            .push(kind, ctx.node(), now, 0, started);
        Self::flush(out, ctx);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_round_trip_through_the_file_format() {
        let spans: Vec<Span> = Kind::ALL
            .iter()
            .enumerate()
            .map(|(i, &kind)| Span {
                sim_t: 1.5 * i as f64,
                wall_start_ns: 1_000 * i as u64,
                dur_ns: 7 + i as u32,
                bytes: 3 * i as u32,
                node: i as u16,
                kind,
            })
            .collect();
        let mut bytes = Vec::new();
        write_spans(&mut bytes, &spans).unwrap();
        assert_eq!(read_spans(&bytes).unwrap(), spans);
        assert!(read_spans(&bytes[..bytes.len() - 1]).is_err());
    }
}
