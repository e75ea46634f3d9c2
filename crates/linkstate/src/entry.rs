//! The 3-byte link-state entry: latency, liveness and loss.

use serde::{Deserialize, Serialize};

/// A path cost in the routing metric (milliseconds of RTT).
///
/// `Cost::INFINITE` marks unusable links (dead or unknown). Costs compare
/// as plain floats; ties broken by the routing layer deterministically.
pub type Cost = f64;

/// Sentinel for an unusable link.
pub const INFINITE_COST: Cost = f64::INFINITY;

/// Integer-kernel sentinel for an unusable link (see
/// [`LinkEntry::cost_u32`]). Any real path cost is at most two live
/// `u16` legs (< 2¹⁷), so `u32::MAX` can never be produced by addition
/// and compares strictly greater than every finite cost — mirroring
/// `f64::INFINITY` in the floating-point domain exactly.
pub const INFINITE_COST_U32: u32 = u32::MAX;

/// One link-state entry in its 3-byte wire form ([`LinkEntry::encode`]):
/// the big-endian latency in milliseconds, then the liveness byte (alive
/// flag in bit 7, loss in half-percent units in bits 0–6). This is the
/// row representation from the frame body to the store: link-state
/// frames carry it verbatim, the dense table holds it, and
/// [`LaneRow`](crate::store::LaneRow) lanes split it. Only the prober
/// and the API read a decoded [`LinkEntry`].
pub type WireEntry = [u8; 3];

/// The wire form of [`LinkEntry::dead`]: the dead latency sentinel and
/// a liveness byte with the alive bit clear and loss saturated.
pub const DEAD_WIRE: WireEntry = [0xFF, 0xFF, 0x7F];

/// Is the alive bit of a wire entry set?
#[must_use]
pub fn wire_alive(wire: WireEntry) -> bool {
    wire[2] & 0x80 != 0
}

/// The big-endian latency field of a wire entry, verbatim.
#[must_use]
pub fn wire_latency(wire: WireEntry) -> u16 {
    u16::from_be_bytes([wire[0], wire[1]])
}

/// The integer kernel's cost of a wire entry: its latency field when
/// the alive bit is set, [`INFINITE_COST_U32`] otherwise — exactly
/// `LinkEntry::decode(wire).cost_u32()`, without the decode.
#[must_use]
pub fn wire_cost_u32(wire: WireEntry) -> u32 {
    if wire_alive(wire) {
        u32::from(wire_latency(wire))
    } else {
        INFINITE_COST_U32
    }
}

/// One entry of a link-state row: what the origin node currently believes
/// about its direct link to one destination.
///
/// On the wire this is exactly the paper's 3 bytes: "two bytes for latency
/// (in milliseconds) and one byte for liveness and loss" (section 5). The
/// liveness byte packs an alive bit (bit 7) and the loss rate in half-percent
/// units (bits 0–6, saturating at 63.5 %).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkEntry {
    /// Smoothed RTT to the destination in milliseconds.
    pub latency_ms: u16,
    /// Is the link currently considered alive (fewer than 5 consecutive
    /// failed probes)?
    pub alive: bool,
    /// Estimated loss rate, in [0, 1]. Quantized on the wire.
    pub loss: f32,
}

impl LinkEntry {
    /// Wire size of one entry.
    pub const WIRE_SIZE: usize = 3;
    /// Latency value used on the wire for dead/unknown links.
    pub const DEAD_LATENCY: u16 = u16::MAX;

    /// An entry for a link that has never been measured / is down.
    #[must_use]
    pub fn dead() -> Self {
        LinkEntry {
            latency_ms: Self::DEAD_LATENCY,
            alive: false,
            loss: 1.0,
        }
    }

    /// A live entry with the given latency and loss.
    #[must_use]
    pub fn live(latency_ms: u16, loss: f32) -> Self {
        LinkEntry {
            latency_ms,
            alive: true,
            loss: loss.clamp(0.0, 1.0),
        }
    }

    /// The routing cost of this link: its latency when alive, infinite
    /// otherwise.
    #[must_use]
    pub fn cost(&self) -> Cost {
        if self.alive {
            f64::from(self.latency_ms)
        } else {
            INFINITE_COST
        }
    }

    /// The routing cost in the integer kernel's domain: the latency in
    /// whole milliseconds when alive, [`INFINITE_COST_U32`] otherwise.
    /// Exactly [`LinkEntry::cost`] — wire latencies are integers, so
    /// nothing is lost leaving `f64`.
    #[must_use]
    pub fn cost_u32(&self) -> u32 {
        if self.alive {
            u32::from(self.latency_ms)
        } else {
            INFINITE_COST_U32
        }
    }

    /// The wire liveness byte: the alive flag in bit 7 and the loss
    /// rate in half-percent units in bits 0–6 (saturating at 63.5 %) —
    /// the third byte [`LinkEntry::encode`] emits, and the byte a
    /// [`LaneRow`](crate::store::LaneRow) liveness lane stores verbatim.
    #[must_use]
    pub fn liveness_byte(&self) -> u8 {
        let loss_half_pct = ((self.loss * 200.0).round() as u32).min(127) as u8;
        (u8::from(self.alive) << 7) | loss_half_pct
    }

    /// Reassemble an entry from its wire lanes: the big-endian latency
    /// field as a `u16` plus the liveness byte. A dead link decodes
    /// with `loss = 1.0` regardless of the quantized field (a dead link
    /// loses everything), keeping encode/decode a semantic round trip.
    #[must_use]
    pub fn from_wire_parts(latency_ms: u16, liveness: u8) -> Self {
        let alive = liveness & 0x80 != 0;
        let loss = if alive {
            f32::from(liveness & 0x7F) / 200.0
        } else {
            1.0
        };
        LinkEntry {
            latency_ms,
            alive,
            loss,
        }
    }

    /// Pack into the 3-byte wire form.
    #[must_use]
    pub fn encode(&self) -> WireEntry {
        let lat = if self.alive {
            self.latency_ms.min(Self::DEAD_LATENCY - 1)
        } else {
            Self::DEAD_LATENCY
        };
        let lat_b = lat.to_be_bytes();
        [lat_b[0], lat_b[1], self.liveness_byte()]
    }

    /// Unpack from the 3-byte wire form (see
    /// [`LinkEntry::from_wire_parts`]).
    #[must_use]
    pub fn decode(bytes: WireEntry) -> Self {
        Self::from_wire_parts(wire_latency(bytes), bytes[2])
    }

    /// Quantize an RTT measured in (possibly fractional) milliseconds to
    /// the wire's integer resolution, saturating below the dead sentinel.
    #[must_use]
    pub fn quantize_latency(rtt_ms: f64) -> u16 {
        if !rtt_ms.is_finite() || rtt_ms < 0.0 {
            return Self::DEAD_LATENCY;
        }
        (rtt_ms.round() as u64).min(u64::from(Self::DEAD_LATENCY - 1)) as u16
    }
}

impl Default for LinkEntry {
    fn default() -> Self {
        Self::dead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_live_entry() {
        let e = LinkEntry::live(182, 0.035);
        let d = LinkEntry::decode(e.encode());
        assert_eq!(d.latency_ms, 182);
        assert!(d.alive);
        assert!((d.loss - 0.035).abs() < 0.005, "loss {}", d.loss);
    }

    #[test]
    fn roundtrip_dead_entry() {
        let d = LinkEntry::decode(LinkEntry::dead().encode());
        assert!(!d.alive);
        assert_eq!(d.latency_ms, LinkEntry::DEAD_LATENCY);
        assert!(d.cost().is_infinite());
    }

    #[test]
    fn cost_semantics() {
        assert_eq!(LinkEntry::live(250, 0.0).cost(), 250.0);
        assert!(LinkEntry::dead().cost().is_infinite());
        let mut e = LinkEntry::live(10, 0.0);
        e.alive = false;
        assert!(e.cost().is_infinite());
    }

    #[test]
    fn loss_saturates_at_wire_max() {
        let e = LinkEntry::live(10, 0.9);
        let d = LinkEntry::decode(e.encode());
        assert!((d.loss - 0.635).abs() < 1e-6, "saturated loss {}", d.loss);
    }

    #[test]
    fn live_latency_never_collides_with_dead_sentinel() {
        let e = LinkEntry::live(u16::MAX, 0.0);
        let d = LinkEntry::decode(e.encode());
        assert!(d.alive);
        assert_eq!(d.latency_ms, u16::MAX - 1);
    }

    #[test]
    fn quantize_latency_rounds_and_saturates() {
        assert_eq!(LinkEntry::quantize_latency(12.4), 12);
        assert_eq!(LinkEntry::quantize_latency(12.6), 13);
        assert_eq!(
            LinkEntry::quantize_latency(1e9),
            LinkEntry::DEAD_LATENCY - 1
        );
        assert_eq!(
            LinkEntry::quantize_latency(f64::INFINITY),
            LinkEntry::DEAD_LATENCY
        );
        assert_eq!(LinkEntry::quantize_latency(-1.0), LinkEntry::DEAD_LATENCY);
        assert_eq!(
            LinkEntry::quantize_latency(f64::NAN),
            LinkEntry::DEAD_LATENCY
        );
    }

    #[test]
    fn wire_size_is_three_bytes() {
        assert_eq!(LinkEntry::live(1, 0.0).encode().len(), LinkEntry::WIRE_SIZE);
    }

    #[test]
    fn dead_wire_is_the_dead_entry() {
        assert_eq!(LinkEntry::dead().encode(), DEAD_WIRE);
        assert_eq!(LinkEntry::decode(DEAD_WIRE), LinkEntry::dead());
    }

    /// The wire accessors agree with a full decode on every latency
    /// edge, with junk latency/loss bytes under a clear alive bit.
    #[test]
    fn wire_accessors_match_decode() {
        for lat in [0u16, 1, 0x1234, u16::MAX - 1, u16::MAX] {
            for liveness in [0x00u8, 0x05, 0x7F, 0x80, 0x85, 0xFF] {
                let [hi, lo] = lat.to_be_bytes();
                let wire = [hi, lo, liveness];
                let e = LinkEntry::decode(wire);
                assert_eq!(wire_alive(wire), e.alive);
                assert_eq!(wire_latency(wire), e.latency_ms);
                assert_eq!(wire_cost_u32(wire), e.cost_u32());
            }
        }
    }

    #[test]
    fn roundtrip_all_loss_quanta() {
        for q in 0u8..=127 {
            let loss = f32::from(q) / 200.0;
            let d = LinkEntry::decode(LinkEntry::live(55, loss).encode());
            assert!((d.loss - loss).abs() < 1e-6);
        }
    }
}
