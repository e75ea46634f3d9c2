//! Property-based tests on the wire format: arbitrary messages round-trip
//! exactly; link-state frames over arbitrary 3-byte entries round-trip
//! byte for byte; arbitrary bytes never panic the decoder; the seqno +
//! retraction trailer is strictly additive (flagless frames stay
//! bit-identical to the pre-versioning format); the fan-out encoder
//! equals per-recipient encoding.

use allpairs_overlay::linkstate::{
    ls_trailer_size, LinkStateMsg, Message, ProbeMsg, ProbeReplyMsg, RecEntry, RecFormat,
    RecommendationMsg, SparseLinkStateMsg, WireEntry, LINKSTATE_HEADER_SIZE,
    SPARSE_LINKSTATE_HEADER_SIZE,
};
use allpairs_overlay::quorum::NodeId;
use proptest::prelude::*;

/// An arbitrary 3-byte link-state entry: uniform triples, plus the two
/// shapes an encoder never emits and uniform bytes rarely hit — dead
/// entries with junk latency/loss bytes, and live entries at latency
/// `0xFFFF`.
fn arb_entry() -> impl Strategy<Value = WireEntry> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(hi, lo, liveness)| [hi, lo, liveness]),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(hi, lo, junk)| [hi, lo, junk & 0x7F]),
        any::<u8>().prop_map(|loss| [0xFF, 0xFF, 0x80 | loss]),
    ]
}

/// Reduce raw picks to a canonical retraction lane: strictly ascending,
/// every destination `< width`. An empty width forces an empty lane.
fn canonical_retractions(raw: &[u16], width: usize) -> Vec<u16> {
    if width == 0 {
        return Vec::new();
    }
    #[allow(clippy::cast_possible_truncation)]
    let mut lane: Vec<u16> = raw.iter().map(|&r| r % width as u16).collect();
    lane.sort_unstable();
    lane.dedup();
    lane
}

/// Raw material for the versioned trailer: a seqno and unreduced
/// retraction picks (canonicalized against the row width in `prop_map`).
fn arb_trailer_raw() -> impl Strategy<Value = (u16, Vec<u16>)> {
    (any::<u16>(), prop::collection::vec(any::<u16>(), 0..8))
}

fn arb_message() -> impl Strategy<Value = Message> {
    let probe = (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(f, t, v, s, ts)| {
            Message::Probe(ProbeMsg {
                from: NodeId(f),
                to: NodeId(t),
                view: v,
                seq: s,
                sent_ms: ts,
            })
        });
    let reply = (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(f, t, v, s, ts)| {
            Message::ProbeReply(ProbeReplyMsg {
                from: NodeId(f),
                to: NodeId(t),
                view: v,
                seq: s,
                echo_sent_ms: ts,
            })
        });
    let linkstate = (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        prop::collection::vec(arb_entry(), 0..300),
        arb_trailer_raw(),
    )
        .prop_map(|(f, t, v, r, b, entries, (seqno, raw))| {
            let retractions = canonical_retractions(&raw, entries.len());
            Message::LinkState(LinkStateMsg {
                from: NodeId(f),
                to: NodeId(t),
                view: v,
                round: r,
                basis_ms: b,
                entries,
                seqno,
                retractions,
            })
        });
    let sparse = (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        1u16..300,
        prop::collection::vec((any::<u16>(), arb_entry()), 0..40),
        arb_trailer_raw(),
    )
        .prop_map(|(f, t, v, r, b, width, raw_entries, (seqno, raw))| {
            // Sparse rows demand strictly ascending in-range dsts.
            let mut entries: Vec<(u16, WireEntry)> = raw_entries
                .into_iter()
                .map(|(d, e)| (d % width, e))
                .collect();
            entries.sort_unstable_by_key(|&(d, _)| d);
            entries.dedup_by_key(|&mut (d, _)| d);
            let retractions = canonical_retractions(&raw, usize::from(width));
            Message::LinkStateSparse(SparseLinkStateMsg {
                from: NodeId(f),
                to: NodeId(t),
                view: v,
                round: r,
                basis_ms: b,
                width,
                entries,
                seqno,
                retractions,
            })
        });
    let recs = (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
        prop::collection::vec((any::<u16>(), any::<u16>(), any::<u16>()), 0..80),
    )
        .prop_map(|(f, t, v, r, b, with_cost, entries)| {
            let format = if with_cost {
                RecFormat::WithCost
            } else {
                RecFormat::Compact
            };
            Message::Recommendations(RecommendationMsg {
                from: NodeId(f),
                to: NodeId(t),
                view: v,
                round: r,
                basis_ms: b,
                format,
                recs: entries
                    .into_iter()
                    .map(|(d, h, c)| RecEntry {
                        dst: NodeId(d),
                        hop: NodeId(h),
                        cost_ms: if format == RecFormat::Compact {
                            u16::MAX
                        } else {
                            c
                        },
                    })
                    .collect(),
            })
        });
    let join = (any::<u16>(), any::<u16>()).prop_map(|(f, t)| Message::Join {
        from: NodeId(f),
        to: NodeId(t),
    });
    let view = (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        prop::collection::vec(any::<u16>(), 0..200),
    )
        .prop_map(|(f, t, v, members)| {
            Message::View(allpairs_overlay::linkstate::wire::ViewMsg {
                from: NodeId(f),
                to: NodeId(t),
                view: v,
                members: members.into_iter().map(NodeId).collect(),
            })
        });
    prop_oneof![probe, reply, linkstate, sparse, recs, join, view]
}

/// Strip a versioned link-state frame down to its flagless twin: same
/// message, seqno 0, nothing retracted.
fn flagless_twin(msg: &Message) -> Option<(Message, usize)> {
    match msg {
        Message::LinkState(m) => {
            let mut twin = m.clone();
            twin.seqno = 0;
            twin.retractions.clear();
            Some((Message::LinkState(twin), LINKSTATE_HEADER_SIZE))
        }
        Message::LinkStateSparse(m) => {
            let mut twin = m.clone();
            twin.seqno = 0;
            twin.retractions.clear();
            Some((Message::LinkStateSparse(twin), SPARSE_LINKSTATE_HEADER_SIZE))
        }
        _ => None,
    }
}

/// `msg` addressed to `to` instead.
fn readdress(msg: &Message, to: NodeId) -> Message {
    let mut m = msg.clone();
    match &mut m {
        Message::Probe(p) => p.to = to,
        Message::ProbeReply(p) => p.to = to,
        Message::ProbeBatch(p) => p.to = to,
        Message::LinkState(p) => p.to = to,
        Message::LinkStateSparse(p) => p.to = to,
        Message::Recommendations(p) => p.to = to,
        Message::Join { to: t, .. } | Message::Leave { to: t, .. } => *t = to,
        Message::View(p) => p.to = to,
    }
    m
}

proptest! {
    /// Link-state frames carry their entries verbatim: for dense and
    /// sparse frames over arbitrary triples (junk under a clear alive
    /// bit, live latency `0xFFFF`), decoding the encoding gives back
    /// every entry byte, and re-encoding the decoded frame reproduces
    /// the frame byte for byte.
    #[test]
    fn linkstate_entries_roundtrip_byte_exact(msg in arb_message()) {
        let entry_bytes = |m: &Message| -> Option<Vec<u8>> {
            match m {
                Message::LinkState(ls) => Some(ls.entries.concat()),
                Message::LinkStateSparse(ls) => Some(
                    ls.entries
                        .iter()
                        .flat_map(|(dst, w)| dst.to_be_bytes().into_iter().chain(*w))
                        .collect(),
                ),
                _ => None,
            }
        };
        if let Some(sent) = entry_bytes(&msg) {
            let bytes = msg.encode();
            let decoded = Message::decode(&bytes).expect("decode own encoding");
            prop_assert_eq!(entry_bytes(&decoded), Some(sent.clone()));
            prop_assert_eq!(&decoded.encode()[..], &bytes[..]);
            // The entries sit right after the header, as sent.
            let header = match msg {
                Message::LinkState(_) => LINKSTATE_HEADER_SIZE,
                _ => SPARSE_LINKSTATE_HEADER_SIZE,
            };
            prop_assert_eq!(&bytes[header..header + sent.len()], &sent[..]);
        }
    }

    /// encode → decode is the identity on every representable message.
    #[test]
    fn roundtrip_identity(msg in arb_message()) {
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len(), msg.wire_size());
        let decoded = Message::decode(&bytes).expect("decode own encoding");
        prop_assert_eq!(decoded, msg);
    }

    /// The decoder never panics on arbitrary input, and any accepted
    /// message re-encodes to semantically identical bytes.
    #[test]
    fn decoder_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        if let Ok(msg) = Message::decode(&bytes) {
            // Whatever was accepted must round-trip stably from its own
            // canonical encoding (not necessarily the original bytes:
            // unknown flag bits are dropped).
            let canon = msg.encode();
            prop_assert_eq!(Message::decode(&canon).unwrap(), msg);
        }
    }

    /// Truncating any valid message always fails cleanly.
    #[test]
    fn truncation_always_detected(msg in arb_message(), cut_frac in 0.0f64..1.0) {
        let bytes = msg.encode();
        if bytes.len() > 1 {
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            let cut = cut.clamp(0, bytes.len() - 1);
            prop_assert!(Message::decode(&bytes[..cut]).is_err());
        }
    }

    /// The route-discipline trailer is strictly additive: zeroing the
    /// seqno and retraction lane of any link-state frame changes only
    /// the flags word and drops exactly the trailer bytes. Seqno-free
    /// frames therefore stay bit-identical to the pre-versioning
    /// format — old captures parse unchanged and pay nothing.
    #[test]
    fn flagless_frames_bit_identical(msg in arb_message()) {
        if let Some((twin, header)) = flagless_twin(&msg) {
            let versioned = msg.encode();
            let flagless = twin.encode();
            let (seqno, retractions) = match &msg {
                Message::LinkState(m) => (m.seqno, m.retractions.as_slice()),
                Message::LinkStateSparse(m) => (m.seqno, m.retractions.as_slice()),
                _ => unreachable!(),
            };
            let trailer = ls_trailer_size(seqno, retractions);
            prop_assert_eq!(versioned.len(), flagless.len() + trailer);
            // Bytes agree everywhere but the 2-byte flags word that
            // closes the header.
            let fo = header - 2;
            prop_assert_eq!(&versioned[..fo], &flagless[..fo]);
            prop_assert_eq!(&flagless[fo..header], &[0u8, 0u8][..]);
            prop_assert_eq!(&versioned[header..flagless.len()], &flagless[header..]);
            if trailer == 0 {
                prop_assert_eq!(&versioned[..], &flagless[..]);
            }
        }
    }
}

proptest! {
    // Only 3 of the 7 generated variants are routing frames: run enough
    // cases that every link-state shape and both recommendation formats
    // come up many times.
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// The fan-out encoder serializes once and stamps each recipient
    /// into `to`: every output is byte-for-byte `encode()` of the
    /// message addressed to that recipient, and decodes back to it.
    /// Link-state frames run both as generated and as their flagless
    /// twin, so dense and sparse rows with and without the seqno
    /// trailer are covered, as are recommendations in both formats.
    #[test]
    fn fanout_matches_per_recipient_encode(
        msg in arb_message(),
        recipients in prop::collection::vec(any::<u16>(), 0..12),
    ) {
        let recipients: Vec<NodeId> = recipients.into_iter().map(NodeId).collect();
        let mut frames = vec![msg.clone()];
        frames.extend(flagless_twin(&msg).map(|(twin, _)| twin));
        for frame in &frames {
            let out = frame.encode_fanout(&recipients);
            prop_assert_eq!(out.len(), recipients.len());
            for (&to, bytes) in recipients.iter().zip(&out) {
                let addressed = readdress(frame, to);
                prop_assert_eq!(&bytes[..], &addressed.encode()[..]);
                prop_assert_eq!(Message::decode(bytes).expect("decode fan-out frame"), addressed);
            }
        }
    }
}
