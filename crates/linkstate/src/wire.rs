//! The compact binary wire format (section 5, "Table Exchange").
//!
//! The paper stresses that the original RON's verbose link-state encoding
//! made routing messages "about twice as large as necessary" (footnote 9)
//! and replaces it with a compact representation: 3 bytes per link-state
//! entry and 4 bytes per one-hop recommendation. The message sizes here
//! are chosen so that, with the default 30 s probe / 30 s (RON) or 15 s
//! (quorum) routing intervals, the theoretical bandwidth formulas of
//! section 6 come out with the paper's constants:
//!
//! * probe / probe-reply: **18 B** payload (+28 B IP/UDP) — probing traffic
//!   `49.1·n` bps;
//! * link-state message: **21 B** header + `3·n` B — RON routing traffic
//!   `1.6·n² + 24.5·n` bps;
//! * recommendation message: **23 B** header + `4·k` B for `k` entries —
//!   quorum routing traffic `6.4·n√n + 17.1·n + Θ(√n)` bps.
//!
//! Encoding is hand-rolled big-endian over [`bytes`]; no serde on the hot
//! path. Membership-service messages (join/leave/view) share the same
//! envelope but are rare, so their size is not calibrated.

use crate::entry::{LinkEntry, WireEntry};
use apor_quorum::NodeId;
use apor_telemetry::trace::{TraceCtx, TRACE_CTX_SIZE};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Bytes of IP + UDP framing accounted per packet in bandwidth figures.
pub const UDP_IP_OVERHEAD: usize = 28;

/// Wire size of a probe or probe-reply payload.
pub const PROBE_WIRE_SIZE: usize = 18;
/// Wire size of the link-state message header (entries add `3·n`).
pub const LINKSTATE_HEADER_SIZE: usize = 21;
/// Wire size of the recommendation message header (entries add 4 or 6 each).
pub const REC_HEADER_SIZE: usize = 23;
/// Wire size of the probe-batch header (items add their own sizes).
pub const PROBE_BATCH_HEADER_SIZE: usize = 12;
/// Wire size of the sparse link-state header (entries add 5 each).
pub const SPARSE_LINKSTATE_HEADER_SIZE: usize = 23;

/// Byte offset of the 2-byte `to` field: every frame opens with its
/// 1-byte type tag and 2-byte `from`.
const TO_OFFSET: usize = 3;

/// Message type tags.
const T_PROBE: u8 = 1;
const T_PROBE_REPLY: u8 = 2;
const T_LINKSTATE: u8 = 3;
const T_RECOMMENDATIONS: u8 = 4;
const T_JOIN: u8 = 5;
const T_LEAVE: u8 = 6;
const T_VIEW: u8 = 7;
const T_PROBE_BATCH: u8 = 8;
const T_LINKSTATE_SPARSE: u8 = 9;

/// Probe-batch item tags.
const TI_PING: u8 = 1;
const TI_PONG: u8 = 2;
const TI_GAUGE: u8 = 3;

/// Probe-batch flags-byte bit marking a trailing trace context
/// ([`TraceCtx`], [`TRACE_CTX_SIZE`] bytes after the item list).
/// Presence is signalled in the header, so every truncation of a
/// traced frame changes the expected total length and fails to decode;
/// frames without the bit are bit-identical to the legacy format.
pub const PROBE_FLAG_TRACE: u8 = 0x01;

/// Link-state flags bit (dense and sparse frames) marking a trailing
/// *route-discipline* section after the entry list: the origin's row
/// sequence number (`u16`) plus an explicit retraction list (`u16`
/// count, then that many strictly-ascending destination indices the
/// origin withdraws). Like [`PROBE_FLAG_TRACE`], presence is signalled
/// in the header, so truncating a versioned frame at any byte fails to
/// decode, and frames without the bit — seqno 0, no retractions — are
/// bit-identical to the legacy format (old captures need no flag day).
pub const LS_FLAG_SEQNO: u16 = 0x0001;

/// Fixed bytes of the seqno trailer before the retraction list
/// (`seqno: u16` + `count: u16`); each retraction adds 2 bytes.
pub const LS_SEQNO_TRAILER_BASE: usize = 4;

/// Bytes the route-discipline trailer adds to a link-state frame with
/// sequence number `seqno` and `retractions` withdrawn destinations:
/// zero for the legacy flagless form (seqno 0, nothing retracted).
#[must_use]
pub fn ls_trailer_size(seqno: u16, retractions: &[u16]) -> usize {
    if seqno == 0 && retractions.is_empty() {
        0
    } else {
        LS_SEQNO_TRAILER_BASE + 2 * retractions.len()
    }
}

/// Encode the route-discipline trailer (callers gate on
/// [`ls_trailer_size`] being nonzero).
fn put_ls_trailer(b: &mut BytesMut, seqno: u16, retractions: &[u16]) {
    b.put_u16(seqno);
    b.put_u16(retractions.len() as u16);
    for &dst in retractions {
        b.put_u16(dst);
    }
}

/// Decode the route-discipline trailer: consumes the rest of `b`, which
/// must contain exactly the trailer. Retractions must be strictly
/// ascending and `< width`; a canonical frame never carries an empty
/// trailer (that form encodes flagless).
fn get_ls_trailer(b: &mut &[u8], width: u16) -> Result<(u16, Vec<u16>), WireError> {
    if b.remaining() < LS_SEQNO_TRAILER_BASE {
        return Err(WireError::Truncated);
    }
    let seqno = b.get_u16();
    let count = b.get_u16() as usize;
    if b.remaining() != count * 2 {
        return Err(WireError::BadLength);
    }
    let mut retractions = Vec::with_capacity(count);
    let mut prev: Option<u16> = None;
    for _ in 0..count {
        let dst = b.get_u16();
        if dst >= width || prev.is_some_and(|p| dst <= p) {
            return Err(WireError::BadLength);
        }
        prev = Some(dst);
        retractions.push(dst);
    }
    if seqno == 0 && retractions.is_empty() {
        // Non-canonical: the legacy-identical form must be flagless.
        return Err(WireError::BadLength);
    }
    Ok((seqno, retractions))
}

/// Errors from [`Message::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown message-type tag.
    BadType(u8),
    /// A length field disagrees with the buffer.
    BadLength,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadType(t) => write!(f, "unknown message type {t}"),
            WireError::BadLength => write!(f, "inconsistent length field"),
        }
    }
}

impl std::error::Error for WireError {}

/// A probe (ping) message. 18 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeMsg {
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Sender's membership view version.
    pub view: u32,
    /// Probe sequence number (per sender–receiver pair).
    pub seq: u32,
    /// Sender clock at transmission, milliseconds (echoed by the reply).
    pub sent_ms: u32,
}

/// A probe reply. 18 bytes; echoes `seq` and `sent_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeReplyMsg {
    /// Sender of the reply (the probed node).
    pub from: NodeId,
    /// The original prober.
    pub to: NodeId,
    /// Replier's membership view version.
    pub view: u32,
    /// Echoed probe sequence number.
    pub seq: u32,
    /// Echoed sender clock from the probe.
    pub echo_sent_ms: u32,
}

/// One item of a [`ProbeBatchMsg`]: everything one node owes one peer in
/// a probing round rides a single frame instead of one 46-byte packet
/// (18 B payload + 28 B framing) per ping, pong and gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeItem {
    /// An outgoing probe: 9 bytes on the wire.
    Ping {
        /// Probe sequence number (echoed by the matching pong).
        seq: u32,
        /// Sender clock at transmission, milliseconds.
        sent_ms: u32,
    },
    /// A probe reply: 9 bytes on the wire.
    Pong {
        /// Echoed probe sequence number.
        seq: u32,
        /// Echoed sender clock from the probe.
        echo_sent_ms: u32,
    },
    /// The sender's current measurement of the *reverse* path (its
    /// smoothed RTT and loss towards the addressee), piggybacked so the
    /// addressee can adopt the symmetric estimate without probing back
    /// at full rate. 5 bytes on the wire.
    Gauge {
        /// Sender's smoothed RTT to the addressee, ms.
        rtt_ms: u16,
        /// Sender's loss estimate towards the addressee, per-mille.
        loss_pm: u16,
    },
}

impl ProbeItem {
    /// Serialized size of this item, including its 1-byte tag.
    #[must_use]
    pub fn wire_size(self) -> usize {
        match self {
            ProbeItem::Ping { .. } | ProbeItem::Pong { .. } => 9,
            ProbeItem::Gauge { .. } => 5,
        }
    }
}

/// A batched probe frame: all outstanding probe work towards one peer
/// (pings, pongs and the reverse-path gauge) in one transmission.
/// `12 + Σ item` bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeBatchMsg {
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// Sender's membership view version.
    pub view: u32,
    /// The batched items, in send order.
    pub items: Vec<ProbeItem>,
}

/// A round-one link-state message: the origin's full measured row.
/// `21 + 3·n` bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStateMsg {
    /// Origin (the measuring node).
    pub from: NodeId,
    /// Addressed rendezvous server.
    pub to: NodeId,
    /// Origin's membership view version. Receivers drop rows from other
    /// views: grid indices are only meaningful within one view.
    pub view: u32,
    /// Routing round counter at the origin.
    pub round: u32,
    /// Origin clock (ms) when the row was snapshotted.
    pub basis_ms: u32,
    /// One wire entry per grid index (length = view size), verbatim:
    /// encoding writes these bytes and decoding copies them back, so no
    /// [`LinkEntry`] is built on either side.
    pub entries: Vec<WireEntry>,
    /// Origin's row sequence number ([`LS_FLAG_SEQNO`] trailer). Zero
    /// means unversioned (the legacy flagless form); a versioned origin
    /// bumps it on retraction events so stale row replays can never
    /// resurrect a withdrawn link.
    pub seqno: u16,
    /// Destinations the origin explicitly withdraws, strictly ascending
    /// and `< entries.len()`. Unlike mere entry death, a retraction is a
    /// deliberate signal receivers may propagate (feasibility reset).
    pub retractions: Vec<u16>,
}

/// A round-one link-state message carrying only the *live* entries of
/// the origin's row as `(dst, entry)` pairs: `23 + 5·k` bytes for `k`
/// live links. Under sub-quadratic probing a node measures only its
/// `O(√n)` entitled peers plus a constant sample, so `k ≪ n` and the
/// sparse form beats the dense `21 + 3·n` encoding whenever
/// `k < (3·n − 2) / 5`. Semantically identical to a dense row whose
/// unlisted entries are dead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseLinkStateMsg {
    /// Origin (the measuring node).
    pub from: NodeId,
    /// Addressed rendezvous server.
    pub to: NodeId,
    /// Origin's membership view version.
    pub view: u32,
    /// Routing round counter at the origin.
    pub round: u32,
    /// Origin clock (ms) when the row was snapshotted.
    pub basis_ms: u32,
    /// Row width (the view size `n`); every `dst` below is `< width`.
    pub width: u16,
    /// The live entries as `(dst, wire entry)`, ascending by
    /// destination index; the wire bytes travel verbatim.
    pub entries: Vec<(u16, WireEntry)>,
    /// Origin's row sequence number ([`LS_FLAG_SEQNO`] trailer); zero
    /// means unversioned (legacy flagless form).
    pub seqno: u16,
    /// Destinations the origin explicitly withdraws, strictly ascending
    /// and `< width`.
    pub retractions: Vec<u16>,
}

/// One best-hop recommendation: "to reach `dst`, forward via `hop`"
/// (`hop == dst` means the direct link is best). 4 bytes, or 6 with the
/// optional cost (the `WithCost` ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecEntry {
    /// Destination this recommendation is about.
    pub dst: NodeId,
    /// Best first hop towards `dst`.
    pub hop: NodeId,
    /// Path cost (ms) as computed by the rendezvous; only on the wire in
    /// [`RecFormat::WithCost`]. `u16::MAX` when absent.
    pub cost_ms: u16,
}

/// Wire format of recommendation entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RecFormat {
    /// The paper's 4-byte `(dst, hop)` entries.
    #[default]
    Compact,
    /// 6-byte `(dst, hop, cost)` entries — an ablation that spends
    /// bandwidth to let clients arbitrate recommendations by cost.
    WithCost,
}

impl RecFormat {
    /// Bytes per recommendation entry.
    #[must_use]
    pub fn entry_size(self) -> usize {
        match self {
            RecFormat::Compact => 4,
            RecFormat::WithCost => 6,
        }
    }
}

/// A round-two recommendation message from a rendezvous server to one of
/// its clients. `23 + entry_size·k` bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendationMsg {
    /// The rendezvous server.
    pub from: NodeId,
    /// The client these recommendations are for.
    pub to: NodeId,
    /// Server's membership view version.
    pub view: u32,
    /// Server's routing round counter.
    pub round: u32,
    /// Server clock (ms) when the recommendations were computed.
    pub basis_ms: u32,
    /// Entry encoding.
    pub format: RecFormat,
    /// Best-hop recommendations, one per destination the server covers.
    pub recs: Vec<RecEntry>,
}

/// Membership view broadcast by the coordinator: the sorted member list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewMsg {
    /// The coordinator.
    pub from: NodeId,
    /// Addressee.
    pub to: NodeId,
    /// Monotonic view version.
    pub view: u32,
    /// Sorted member IDs; grid index = position in this list.
    pub members: Vec<NodeId>,
}

/// Any overlay message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Link probe.
    Probe(ProbeMsg),
    /// Probe reply.
    ProbeReply(ProbeReplyMsg),
    /// Batched probe frame (pings + pongs + reverse-path gauge in one).
    ProbeBatch(ProbeBatchMsg),
    /// Round-one link-state row.
    LinkState(LinkStateMsg),
    /// Round-one link-state row, live entries only.
    LinkStateSparse(SparseLinkStateMsg),
    /// Round-two recommendations.
    Recommendations(RecommendationMsg),
    /// Membership: join request to the coordinator.
    Join {
        /// Joining node.
        from: NodeId,
        /// Coordinator.
        to: NodeId,
    },
    /// Membership: leave notice to the coordinator.
    Leave {
        /// Leaving node.
        from: NodeId,
        /// Coordinator.
        to: NodeId,
    },
    /// Membership: view broadcast.
    View(ViewMsg),
}

impl Message {
    /// The sender.
    #[must_use]
    pub fn from(&self) -> NodeId {
        match self {
            Message::Probe(m) => m.from,
            Message::ProbeReply(m) => m.from,
            Message::ProbeBatch(m) => m.from,
            Message::LinkState(m) => m.from,
            Message::LinkStateSparse(m) => m.from,
            Message::Recommendations(m) => m.from,
            Message::Join { from, .. } | Message::Leave { from, .. } => *from,
            Message::View(m) => m.from,
        }
    }

    /// The addressee.
    #[must_use]
    pub fn to(&self) -> NodeId {
        match self {
            Message::Probe(m) => m.to,
            Message::ProbeReply(m) => m.to,
            Message::ProbeBatch(m) => m.to,
            Message::LinkState(m) => m.to,
            Message::LinkStateSparse(m) => m.to,
            Message::Recommendations(m) => m.to,
            Message::Join { to, .. } | Message::Leave { to, .. } => *to,
            Message::View(m) => m.to,
        }
    }

    /// Serialize to bytes.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.wire_size());
        match self {
            Message::Probe(m) => {
                b.put_u8(T_PROBE);
                b.put_u16(m.from.0);
                b.put_u16(m.to.0);
                b.put_u32(m.view);
                b.put_u32(m.seq);
                b.put_u32(m.sent_ms);
                b.put_u8(0); // flags
            }
            Message::ProbeReply(m) => {
                b.put_u8(T_PROBE_REPLY);
                b.put_u16(m.from.0);
                b.put_u16(m.to.0);
                b.put_u32(m.view);
                b.put_u32(m.seq);
                b.put_u32(m.echo_sent_ms);
                b.put_u8(0); // flags
            }
            Message::ProbeBatch(m) => {
                b.put_u8(T_PROBE_BATCH);
                b.put_u16(m.from.0);
                b.put_u16(m.to.0);
                b.put_u32(m.view);
                b.put_u16(m.items.len() as u16);
                b.put_u8(0); // flags
                for item in &m.items {
                    match *item {
                        ProbeItem::Ping { seq, sent_ms } => {
                            b.put_u8(TI_PING);
                            b.put_u32(seq);
                            b.put_u32(sent_ms);
                        }
                        ProbeItem::Pong { seq, echo_sent_ms } => {
                            b.put_u8(TI_PONG);
                            b.put_u32(seq);
                            b.put_u32(echo_sent_ms);
                        }
                        ProbeItem::Gauge { rtt_ms, loss_pm } => {
                            b.put_u8(TI_GAUGE);
                            b.put_u16(rtt_ms);
                            b.put_u16(loss_pm);
                        }
                    }
                }
            }
            Message::LinkStateSparse(m) => {
                b.put_u8(T_LINKSTATE_SPARSE);
                b.put_u16(m.from.0);
                b.put_u16(m.to.0);
                b.put_u32(m.view);
                b.put_u32(m.round);
                b.put_u16(m.entries.len() as u16);
                b.put_u32(m.basis_ms);
                b.put_u16(m.width);
                let versioned = ls_trailer_size(m.seqno, &m.retractions) != 0;
                b.put_u16(if versioned { LS_FLAG_SEQNO } else { 0 });
                for (dst, wire) in &m.entries {
                    b.put_u16(*dst);
                    b.put_slice(wire);
                }
                if versioned {
                    put_ls_trailer(&mut b, m.seqno, &m.retractions);
                }
            }
            Message::LinkState(m) => {
                b.put_u8(T_LINKSTATE);
                b.put_u16(m.from.0);
                b.put_u16(m.to.0);
                b.put_u32(m.view);
                b.put_u32(m.round);
                b.put_u16(m.entries.len() as u16);
                b.put_u32(m.basis_ms);
                let versioned = ls_trailer_size(m.seqno, &m.retractions) != 0;
                b.put_u16(if versioned { LS_FLAG_SEQNO } else { 0 });
                b.put_slice(m.entries.as_flattened());
                if versioned {
                    put_ls_trailer(&mut b, m.seqno, &m.retractions);
                }
            }
            Message::Recommendations(m) => {
                b.put_u8(T_RECOMMENDATIONS);
                b.put_u16(m.from.0);
                b.put_u16(m.to.0);
                b.put_u32(m.view);
                b.put_u32(m.round);
                b.put_u16(m.recs.len() as u16);
                b.put_u32(m.basis_ms);
                let flags: u32 = match m.format {
                    RecFormat::Compact => 0,
                    RecFormat::WithCost => 1,
                };
                b.put_u32(flags);
                for r in &m.recs {
                    b.put_u16(r.dst.0);
                    b.put_u16(r.hop.0);
                    if m.format == RecFormat::WithCost {
                        b.put_u16(r.cost_ms);
                    }
                }
            }
            Message::Join { from, to } => {
                b.put_u8(T_JOIN);
                b.put_u16(from.0);
                b.put_u16(to.0);
            }
            Message::Leave { from, to } => {
                b.put_u8(T_LEAVE);
                b.put_u16(from.0);
                b.put_u16(to.0);
            }
            Message::View(m) => {
                b.put_u8(T_VIEW);
                b.put_u16(m.from.0);
                b.put_u16(m.to.0);
                b.put_u32(m.view);
                b.put_u16(m.members.len() as u16);
                for id in &m.members {
                    b.put_u16(id.0);
                }
            }
        }
        b.freeze()
    }

    /// Serialize once and return one frame per recipient: each is
    /// [`Message::encode`] with that recipient stamped into the 2-byte
    /// `to` field, byte-for-byte what encoding a copy of `self`
    /// addressed to it would produce. `self.to` itself never reaches
    /// the output. This is how a round-one link-state row — identical
    /// for every rendezvous server, or every peer in the full mesh — is
    /// serialized once per tick instead of once per recipient.
    #[must_use]
    pub fn encode_fanout(&self, recipients: &[NodeId]) -> Vec<Bytes> {
        let frame = self.encode();
        recipients
            .iter()
            .map(|to| {
                let mut raw = frame.to_vec();
                raw[TO_OFFSET..TO_OFFSET + 2].copy_from_slice(&to.0.to_be_bytes());
                Bytes::from(raw)
            })
            .collect()
    }

    /// Serialize, appending `ctx` as a trace trailer when present.
    ///
    /// Only [`Message::ProbeBatch`] carries a trace context (the only
    /// routing-plane frame sent during convergence episodes); for every
    /// other variant — and for `None` — the output is byte-for-byte
    /// [`Message::encode`].
    #[must_use]
    pub fn encode_traced(&self, ctx: Option<&TraceCtx>) -> Bytes {
        match (self, ctx) {
            (Message::ProbeBatch(_), Some(ctx)) => {
                let mut raw = self.encode().to_vec();
                // The flags byte is the last header byte (offset 11).
                raw[PROBE_BATCH_HEADER_SIZE - 1] |= PROBE_FLAG_TRACE;
                raw.extend_from_slice(&ctx.encode());
                Bytes::from(raw)
            }
            _ => self.encode(),
        }
    }

    /// Deserialize from bytes.
    ///
    /// # Errors
    /// Returns a [`WireError`] on truncation, bad type tags or length
    /// mismatches. Never panics on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        Self::decode_traced(bytes).map(|(msg, _)| msg)
    }

    /// Deserialize from bytes, returning the trace context when the
    /// frame carries one ([`PROBE_FLAG_TRACE`] set on a probe batch's
    /// flags byte).
    ///
    /// # Errors
    /// Returns a [`WireError`] on truncation, bad type tags, a
    /// malformed trailer or length mismatches. Never panics on
    /// malformed input.
    pub fn decode_traced(bytes: &[u8]) -> Result<(Message, Option<TraceCtx>), WireError> {
        let mut ctx = None;
        let mut b = bytes;
        if b.remaining() < 5 {
            return Err(WireError::Truncated);
        }
        let typ = b.get_u8();
        let from = NodeId(b.get_u16());
        let to = NodeId(b.get_u16());
        let msg = match typ {
            T_PROBE | T_PROBE_REPLY => {
                if b.remaining() < PROBE_WIRE_SIZE - 5 {
                    return Err(WireError::Truncated);
                }
                let view = b.get_u32();
                let seq = b.get_u32();
                let ts = b.get_u32();
                let _flags = b.get_u8();
                Ok(if typ == T_PROBE {
                    Message::Probe(ProbeMsg {
                        from,
                        to,
                        view,
                        seq,
                        sent_ms: ts,
                    })
                } else {
                    Message::ProbeReply(ProbeReplyMsg {
                        from,
                        to,
                        view,
                        seq,
                        echo_sent_ms: ts,
                    })
                })
            }
            T_PROBE_BATCH => {
                if b.remaining() < PROBE_BATCH_HEADER_SIZE - 5 {
                    return Err(WireError::Truncated);
                }
                let view = b.get_u32();
                let count = b.get_u16() as usize;
                let flags = b.get_u8();
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    if b.remaining() < 1 {
                        return Err(WireError::Truncated);
                    }
                    let tag = b.get_u8();
                    let need = match tag {
                        TI_PING | TI_PONG => 8,
                        TI_GAUGE => 4,
                        other => return Err(WireError::BadType(other)),
                    };
                    if b.remaining() < need {
                        return Err(WireError::Truncated);
                    }
                    items.push(match tag {
                        TI_PING => ProbeItem::Ping {
                            seq: b.get_u32(),
                            sent_ms: b.get_u32(),
                        },
                        TI_PONG => ProbeItem::Pong {
                            seq: b.get_u32(),
                            echo_sent_ms: b.get_u32(),
                        },
                        _ => ProbeItem::Gauge {
                            rtt_ms: b.get_u16(),
                            loss_pm: b.get_u16(),
                        },
                    });
                }
                if flags & PROBE_FLAG_TRACE != 0 {
                    // Header-signalled trailer: exactly TRACE_CTX_SIZE
                    // bytes must remain after the item list.
                    if b.remaining() < TRACE_CTX_SIZE {
                        return Err(WireError::Truncated);
                    }
                    ctx = Some(TraceCtx::decode(b).ok_or(WireError::BadLength)?);
                } else if b.remaining() > 0 {
                    return Err(WireError::BadLength);
                }
                Ok(Message::ProbeBatch(ProbeBatchMsg {
                    from,
                    to,
                    view,
                    items,
                }))
            }
            T_LINKSTATE_SPARSE => {
                if b.remaining() < SPARSE_LINKSTATE_HEADER_SIZE - 5 {
                    return Err(WireError::Truncated);
                }
                let view = b.get_u32();
                let round = b.get_u32();
                let count = b.get_u16() as usize;
                let basis_ms = b.get_u32();
                let width = b.get_u16();
                let flags = b.get_u16();
                let versioned = flags & LS_FLAG_SEQNO != 0;
                let body = count * (2 + LinkEntry::WIRE_SIZE);
                if versioned {
                    if b.remaining() < body {
                        return Err(WireError::Truncated);
                    }
                } else if b.remaining() != body {
                    return Err(WireError::BadLength);
                }
                let mut entries = Vec::with_capacity(count);
                let mut prev: Option<u16> = None;
                for c in b[..body].chunks_exact(2 + LinkEntry::WIRE_SIZE) {
                    let dst = u16::from_be_bytes([c[0], c[1]]);
                    // Entries must be strictly ascending and in range —
                    // the sparse-row merge kernel relies on it.
                    if dst >= width || prev.is_some_and(|p| dst <= p) {
                        return Err(WireError::BadLength);
                    }
                    prev = Some(dst);
                    entries.push((dst, [c[2], c[3], c[4]]));
                }
                b.advance(body);
                let (seqno, retractions) = if versioned {
                    get_ls_trailer(&mut b, width)?
                } else {
                    (0, Vec::new())
                };
                Ok(Message::LinkStateSparse(SparseLinkStateMsg {
                    from,
                    to,
                    view,
                    round,
                    basis_ms,
                    width,
                    entries,
                    seqno,
                    retractions,
                }))
            }
            T_LINKSTATE => {
                if b.remaining() < LINKSTATE_HEADER_SIZE - 5 {
                    return Err(WireError::Truncated);
                }
                let view = b.get_u32();
                let round = b.get_u32();
                let count = b.get_u16() as usize;
                let basis_ms = b.get_u32();
                let flags = b.get_u16();
                let versioned = flags & LS_FLAG_SEQNO != 0;
                let body = count * LinkEntry::WIRE_SIZE;
                if versioned {
                    if b.remaining() < body {
                        return Err(WireError::Truncated);
                    }
                } else if b.remaining() != body {
                    return Err(WireError::BadLength);
                }
                // The body is the entries verbatim: one copy, no decode.
                let mut entries: Vec<WireEntry> = vec![[0; 3]; count];
                entries.as_flattened_mut().copy_from_slice(&b[..body]);
                b.advance(body);
                let (seqno, retractions) = if versioned {
                    get_ls_trailer(&mut b, count as u16)?
                } else {
                    (0, Vec::new())
                };
                Ok(Message::LinkState(LinkStateMsg {
                    from,
                    to,
                    view,
                    round,
                    basis_ms,
                    entries,
                    seqno,
                    retractions,
                }))
            }
            T_RECOMMENDATIONS => {
                if b.remaining() < REC_HEADER_SIZE - 5 {
                    return Err(WireError::Truncated);
                }
                let view = b.get_u32();
                let round = b.get_u32();
                let count = b.get_u16() as usize;
                let basis_ms = b.get_u32();
                let flags = b.get_u32();
                let format = if flags & 1 == 1 {
                    RecFormat::WithCost
                } else {
                    RecFormat::Compact
                };
                if b.remaining() != count * format.entry_size() {
                    return Err(WireError::BadLength);
                }
                let mut recs = Vec::with_capacity(count);
                for _ in 0..count {
                    let dst = NodeId(b.get_u16());
                    let hop = NodeId(b.get_u16());
                    let cost_ms = if format == RecFormat::WithCost {
                        b.get_u16()
                    } else {
                        u16::MAX
                    };
                    recs.push(RecEntry { dst, hop, cost_ms });
                }
                Ok(Message::Recommendations(RecommendationMsg {
                    from,
                    to,
                    view,
                    round,
                    basis_ms,
                    format,
                    recs,
                }))
            }
            T_JOIN => Ok(Message::Join { from, to }),
            T_LEAVE => Ok(Message::Leave { from, to }),
            T_VIEW => {
                if b.remaining() < 6 {
                    return Err(WireError::Truncated);
                }
                let view = b.get_u32();
                let count = b.get_u16() as usize;
                if b.remaining() != count * 2 {
                    return Err(WireError::BadLength);
                }
                let mut members = Vec::with_capacity(count);
                for _ in 0..count {
                    members.push(NodeId(b.get_u16()));
                }
                Ok(Message::View(ViewMsg {
                    from,
                    to,
                    view,
                    members,
                }))
            }
            other => Err(WireError::BadType(other)),
        }?;
        Ok((msg, ctx))
    }

    /// Serialized size in bytes (application payload, no IP/UDP framing).
    #[must_use]
    pub fn wire_size(&self) -> usize {
        match self {
            Message::Probe(_) | Message::ProbeReply(_) => PROBE_WIRE_SIZE,
            Message::ProbeBatch(m) => {
                PROBE_BATCH_HEADER_SIZE + m.items.iter().map(|i| i.wire_size()).sum::<usize>()
            }
            Message::LinkState(m) => {
                LINKSTATE_HEADER_SIZE
                    + m.entries.len() * LinkEntry::WIRE_SIZE
                    + ls_trailer_size(m.seqno, &m.retractions)
            }
            Message::LinkStateSparse(m) => {
                SPARSE_LINKSTATE_HEADER_SIZE
                    + m.entries.len() * (2 + LinkEntry::WIRE_SIZE)
                    + ls_trailer_size(m.seqno, &m.retractions)
            }
            Message::Recommendations(m) => REC_HEADER_SIZE + m.recs.len() * m.format.entry_size(),
            Message::Join { .. } | Message::Leave { .. } => 5,
            Message::View(m) => 11 + 2 * m.members.len(),
        }
    }

    /// Size including IP+UDP framing, as accounted in bandwidth figures.
    #[must_use]
    pub fn wire_size_with_overhead(&self) -> usize {
        self.wire_size() + UDP_IP_OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: &Message) -> Message {
        let bytes = m.encode();
        assert_eq!(bytes.len(), m.wire_size(), "declared size must match");
        Message::decode(&bytes).expect("decode")
    }

    #[test]
    fn probe_roundtrip_and_size() {
        let m = Message::Probe(ProbeMsg {
            from: NodeId(3),
            to: NodeId(9),
            view: 7,
            seq: 123456,
            sent_ms: 42_000,
        });
        assert_eq!(m.wire_size(), 18);
        assert_eq!(m.wire_size_with_overhead(), 46);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn probe_reply_roundtrip() {
        let m = Message::ProbeReply(ProbeReplyMsg {
            from: NodeId(9),
            to: NodeId(3),
            view: 7,
            seq: 123456,
            echo_sent_ms: 42_000,
        });
        assert_eq!(m.wire_size(), 18);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn linkstate_roundtrip_and_size() {
        let n = 140;
        let entries: Vec<WireEntry> = (0..n)
            .map(|i| {
                if i % 7 == 0 {
                    LinkEntry::dead()
                } else {
                    LinkEntry::live(i as u16 * 3, 0.01)
                }
                .encode()
            })
            .collect();
        let m = Message::LinkState(LinkStateMsg {
            from: NodeId(5),
            to: NodeId(17),
            view: 2,
            round: 99,
            basis_ms: 1_000_000,
            entries,
            seqno: 0,
            retractions: vec![],
        });
        // 21 + 3·140 = 441 bytes: the paper's "at most 3·n bytes" payload.
        assert_eq!(m.wire_size(), 21 + 3 * n);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn recommendations_compact_roundtrip() {
        let recs: Vec<RecEntry> = (0..24)
            .map(|i| RecEntry {
                dst: NodeId(i),
                hop: NodeId((i * 3) % 140),
                cost_ms: u16::MAX, // absent in compact form
            })
            .collect();
        let m = Message::Recommendations(RecommendationMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 4,
            round: 11,
            basis_ms: 500,
            format: RecFormat::Compact,
            recs,
        });
        // 23 + 4·24: the paper's 4·(2√n) byte recommendation body for n=144.
        assert_eq!(m.wire_size(), 23 + 4 * 24);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn recommendations_with_cost_roundtrip() {
        let recs = vec![
            RecEntry {
                dst: NodeId(7),
                hop: NodeId(7),
                cost_ms: 250,
            },
            RecEntry {
                dst: NodeId(8),
                hop: NodeId(3),
                cost_ms: 90,
            },
        ];
        let m = Message::Recommendations(RecommendationMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 4,
            round: 11,
            basis_ms: 500,
            format: RecFormat::WithCost,
            recs,
        });
        assert_eq!(m.wire_size(), 23 + 6 * 2);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn membership_messages_roundtrip() {
        let join = Message::Join {
            from: NodeId(30),
            to: NodeId(0),
        };
        assert_eq!(roundtrip(&join), join);
        let leave = Message::Leave {
            from: NodeId(30),
            to: NodeId(0),
        };
        assert_eq!(roundtrip(&leave), leave);
        let view = Message::View(ViewMsg {
            from: NodeId(0),
            to: NodeId(30),
            view: 12,
            members: vec![NodeId(0), NodeId(5), NodeId(30)],
        });
        assert_eq!(roundtrip(&view), view);
    }

    #[test]
    fn probe_batch_roundtrip_and_size() {
        let m = Message::ProbeBatch(ProbeBatchMsg {
            from: NodeId(3),
            to: NodeId(9),
            view: 7,
            items: vec![
                ProbeItem::Ping {
                    seq: 42,
                    sent_ms: 1_000,
                },
                ProbeItem::Pong {
                    seq: 41,
                    echo_sent_ms: 970,
                },
                ProbeItem::Gauge {
                    rtt_ms: 55,
                    loss_pm: 12,
                },
            ],
        });
        // 12-byte header + 9 + 9 + 5: one frame where three separate
        // probe packets would cost 3 × (18 + 28) bytes with framing.
        assert_eq!(m.wire_size(), 12 + 9 + 9 + 5);
        assert!(m.wire_size_with_overhead() < 3 * (PROBE_WIRE_SIZE + UDP_IP_OVERHEAD));
        assert_eq!(roundtrip(&m), m);
        // An empty batch is legal (a bare keepalive) and tiny.
        let empty = Message::ProbeBatch(ProbeBatchMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            items: vec![],
        });
        assert_eq!(empty.wire_size(), PROBE_BATCH_HEADER_SIZE);
        assert_eq!(roundtrip(&empty), empty);
    }

    #[test]
    fn probe_batch_rejects_bad_item_tag_and_trailing_junk() {
        let m = Message::ProbeBatch(ProbeBatchMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            items: vec![ProbeItem::Gauge {
                rtt_ms: 1,
                loss_pm: 0,
            }],
        });
        let mut bytes = m.encode().to_vec();
        bytes.extend_from_slice(&[0]);
        assert_eq!(Message::decode(&bytes), Err(WireError::BadLength));
        let mut bad_tag = m.encode().to_vec();
        bad_tag[PROBE_BATCH_HEADER_SIZE] = 200; // the item tag byte
        assert_eq!(Message::decode(&bad_tag), Err(WireError::BadType(200)));
    }

    #[test]
    fn traced_probe_batch_roundtrips_and_rejects_truncation() {
        let m = Message::ProbeBatch(ProbeBatchMsg {
            from: NodeId(3),
            to: NodeId(9),
            view: 7,
            items: vec![
                ProbeItem::Ping {
                    seq: 42,
                    sent_ms: 1_000,
                },
                ProbeItem::Gauge {
                    rtt_ms: 55,
                    loss_pm: 12,
                },
            ],
        });
        let ctx = TraceCtx {
            episode: 0x0009_0001,
            origin: 9,
            hop: 1,
        };
        let traced = m.encode_traced(Some(&ctx));
        assert_eq!(traced.len(), m.wire_size() + TRACE_CTX_SIZE);
        assert_eq!(
            traced[PROBE_BATCH_HEADER_SIZE - 1] & PROBE_FLAG_TRACE,
            PROBE_FLAG_TRACE
        );
        let (decoded, got) = Message::decode_traced(&traced).expect("decode traced batch");
        assert_eq!(decoded, m);
        assert_eq!(got, Some(ctx));
        // The ctx-oblivious decoder still reads the message.
        assert_eq!(Message::decode(&traced).unwrap(), m);
        // Every proper prefix is rejected; so is trailing garbage.
        for cut in 0..traced.len() {
            assert!(
                Message::decode_traced(&traced[..cut]).is_err(),
                "decode of {cut}-byte traced prefix should fail"
            );
        }
        let mut long = traced.to_vec();
        long.push(0);
        assert!(Message::decode_traced(&long).is_err());
    }

    #[test]
    fn untraced_probe_batch_is_bit_identical() {
        let m = Message::ProbeBatch(ProbeBatchMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 3,
            items: vec![ProbeItem::Pong {
                seq: 4,
                echo_sent_ms: 5,
            }],
        });
        assert_eq!(m.encode_traced(None).as_ref(), m.encode().as_ref());
        let (decoded, ctx) = Message::decode_traced(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(ctx, None);
        // Non-batch frames never carry a trailer even when asked.
        let probe = Message::Probe(ProbeMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            seq: 1,
            sent_ms: 2,
        });
        let ctx = TraceCtx {
            episode: 1,
            origin: 1,
            hop: 0,
        };
        assert_eq!(
            probe.encode_traced(Some(&ctx)).as_ref(),
            probe.encode().as_ref()
        );
    }

    #[test]
    fn sparse_linkstate_roundtrip_and_size() {
        let m = Message::LinkStateSparse(SparseLinkStateMsg {
            from: NodeId(5),
            to: NodeId(17),
            view: 2,
            round: 99,
            basis_ms: 1_000_000,
            width: 4096,
            entries: vec![
                (3, LinkEntry::live(40, 0.01).encode()),
                (64, LinkEntry::live(120, 0.0).encode()),
                (4095, LinkEntry::live(7, 0.0).encode()),
            ],
            seqno: 0,
            retractions: vec![],
        });
        // 23 + 5·k: at n = 4096 a 130-live-entry row costs 673 B sparse
        // vs 12 309 B dense.
        assert_eq!(m.wire_size(), 23 + 5 * 3);
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn sparse_linkstate_rejects_disorder_and_out_of_range() {
        let mk = |entries: Vec<(u16, WireEntry)>| {
            Message::LinkStateSparse(SparseLinkStateMsg {
                from: NodeId(0),
                to: NodeId(1),
                view: 0,
                round: 0,
                basis_ms: 0,
                width: 100,
                entries,
                seqno: 0,
                retractions: vec![],
            })
            .encode()
        };
        // Descending destinations.
        let bad = mk(vec![
            (9, LinkEntry::live(1, 0.0).encode()),
            (3, LinkEntry::live(2, 0.0).encode()),
        ]);
        assert_eq!(Message::decode(&bad), Err(WireError::BadLength));
        // Duplicate destination.
        let dup = mk(vec![
            (9, LinkEntry::live(1, 0.0).encode()),
            (9, LinkEntry::live(2, 0.0).encode()),
        ]);
        assert_eq!(Message::decode(&dup), Err(WireError::BadLength));
        // Destination ≥ width.
        let oob = mk(vec![(100, LinkEntry::live(1, 0.0).encode())]);
        assert_eq!(Message::decode(&oob), Err(WireError::BadLength));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
        assert_eq!(Message::decode(&[1, 2]), Err(WireError::Truncated));
        assert_eq!(
            Message::decode(&[200, 0, 0, 0, 0]),
            Err(WireError::BadType(200))
        );
    }

    #[test]
    fn decode_rejects_truncated_bodies() {
        let m = Message::LinkState(LinkStateMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            round: 0,
            basis_ms: 0,
            entries: vec![LinkEntry::live(5, 0.0).encode(); 10],
            seqno: 0,
            retractions: vec![],
        });
        let bytes = m.encode();
        for cut in 1..bytes.len() {
            let r = Message::decode(&bytes[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let m = Message::Recommendations(RecommendationMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 0,
            round: 0,
            basis_ms: 0,
            format: RecFormat::Compact,
            recs: vec![RecEntry {
                dst: NodeId(3),
                hop: NodeId(4),
                cost_ms: u16::MAX,
            }],
        });
        let mut bytes = m.encode().to_vec();
        bytes.extend_from_slice(&[0, 0]); // trailing junk
        assert_eq!(Message::decode(&bytes), Err(WireError::BadLength));
    }

    #[test]
    fn versioned_linkstate_roundtrips_and_rejects_truncation() {
        let m = Message::LinkState(LinkStateMsg {
            from: NodeId(5),
            to: NodeId(17),
            view: 2,
            round: 99,
            basis_ms: 1_000_000,
            entries: vec![LinkEntry::live(40, 0.0).encode(); 12],
            seqno: 7,
            retractions: vec![2, 5, 11],
        });
        // Legacy body plus the 4-byte trailer base and 2 bytes/retraction.
        assert_eq!(m.wire_size(), 21 + 3 * 12 + 4 + 2 * 3);
        assert_eq!(roundtrip(&m), m);
        let bytes = m.encode();
        assert_eq!(
            u16::from_be_bytes([bytes[19], bytes[20]]) & LS_FLAG_SEQNO,
            LS_FLAG_SEQNO
        );
        for cut in 1..bytes.len() {
            assert!(
                Message::decode(&bytes[..cut]).is_err(),
                "decode of {cut}-byte versioned prefix should fail"
            );
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(Message::decode(&long).is_err());
    }

    #[test]
    fn versioned_sparse_linkstate_roundtrips_and_validates_retractions() {
        let mk = |seqno: u16, retractions: Vec<u16>| {
            Message::LinkStateSparse(SparseLinkStateMsg {
                from: NodeId(0),
                to: NodeId(1),
                view: 0,
                round: 3,
                basis_ms: 0,
                width: 100,
                entries: vec![
                    (4, LinkEntry::live(9, 0.0).encode()),
                    (40, LinkEntry::live(2, 0.0).encode()),
                ],
                seqno,
                retractions,
            })
        };
        let m = mk(1, vec![7, 90]);
        assert_eq!(m.wire_size(), 23 + 5 * 2 + 4 + 2 * 2);
        assert_eq!(roundtrip(&m), m);
        // A seqno with no retractions is still a valid trailer.
        let bumped = mk(9, vec![]);
        assert_eq!(bumped.wire_size(), 23 + 5 * 2 + 4);
        assert_eq!(roundtrip(&bumped), bumped);
        // Retractions must be ascending, unique, and < width.
        for bad in [vec![90u16, 7], vec![7, 7], vec![100]] {
            assert_eq!(
                Message::decode(&mk(1, bad).encode()),
                Err(WireError::BadLength)
            );
        }
        for cut in 1..m.encode().len() {
            assert!(Message::decode(&m.encode()[..cut]).is_err());
        }
    }

    #[test]
    fn unversioned_linkstate_is_bit_identical_to_legacy() {
        // seqno 0 + no retractions must encode the pre-seqno format
        // byte for byte: flags word zero, no trailer, old sizes.
        let m = Message::LinkState(LinkStateMsg {
            from: NodeId(1),
            to: NodeId(2),
            view: 4,
            round: 9,
            basis_ms: 77,
            entries: vec![
                LinkEntry::live(10, 0.0).encode(),
                LinkEntry::dead().encode(),
            ],
            seqno: 0,
            retractions: vec![],
        });
        assert_eq!(m.wire_size(), LINKSTATE_HEADER_SIZE + 2 * 3);
        let bytes = m.encode();
        assert_eq!(u16::from_be_bytes([bytes[19], bytes[20]]), 0);
        // A flagged frame with an empty trailer is non-canonical: the
        // same logical row must have exactly one encoding.
        let mut forged = bytes.to_vec();
        forged[20] |= LS_FLAG_SEQNO as u8;
        forged.extend_from_slice(&[0, 0, 0, 0]); // seqno 0, count 0
        assert_eq!(Message::decode(&forged), Err(WireError::BadLength));
    }

    /// The bandwidth-formula calibration (section 6): with the default
    /// intervals the per-node traffic derived from these wire sizes must
    /// match the paper's published constants.
    #[test]
    fn section_6_bandwidth_constants() {
        let n: f64 = 140.0;
        let probe_pkt = (PROBE_WIRE_SIZE + UDP_IP_OVERHEAD) as f64;
        // Probing: each node sends and receives probes and replies to/from
        // n−1 peers every 30 s: 4·(n−1) packets per 30 s.
        let probing_bps = 4.0 * (n - 1.0) * probe_pkt * 8.0 / 30.0;
        let paper_probing = 49.1 * n;
        assert!(
            (probing_bps - paper_probing).abs() / paper_probing < 0.03,
            "probing {probing_bps} vs paper {paper_probing}"
        );

        // RON routing: LS to n−1 peers every 30 s, in + out.
        let ls_pkt = (LINKSTATE_HEADER_SIZE + 3 * n as usize + UDP_IP_OVERHEAD) as f64;
        let ron_bps = 2.0 * (n - 1.0) * ls_pkt * 8.0 / 30.0;
        let paper_ron = 1.6 * n * n + 24.5 * n;
        assert!(
            (ron_bps - paper_ron).abs() / paper_ron < 0.03,
            "RON routing {ron_bps} vs paper {paper_ron}"
        );

        // Quorum routing: LS to ~2√n servers + recs (2√n entries) to ~2√n
        // clients every 15 s, in + out.
        let sq = n.sqrt();
        let rec_pkt = (REC_HEADER_SIZE + UDP_IP_OVERHEAD) as f64 + 4.0 * 2.0 * sq;
        let quorum_bps = (2.0 * 2.0 * sq * ls_pkt + 2.0 * 2.0 * sq * rec_pkt) * 8.0 / 15.0;
        let paper_quorum = 6.4 * n * sq + 17.1 * n + 196.3 * sq;
        assert!(
            (quorum_bps - paper_quorum).abs() / paper_quorum < 0.06,
            "quorum routing {quorum_bps} vs paper {paper_quorum}"
        );
    }
}
