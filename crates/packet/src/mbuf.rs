//! [`Mbuf`] — the BSD `mbuf` analogue.
//!
//! In the paper, the mbuf carries the *flow index* (FIX): after the first
//! gate classifies a packet, the FIX points at the packet's row in the flow
//! table so that every subsequent gate retrieves its plugin instance with a
//! single indexed load instead of calling the AIU again (Section 3.2,
//! "Associating the packet with a flow index").

use std::fmt;
use std::num::NonZeroU64;

/// Index of a row in the AIU's flow table, cached in the packet between
/// gates. Opaque to everything except the flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowIndex(pub u32);

/// Interface identifier (port number on the router).
pub type IfIndex = u32;

/// An owned packet buffer with router metadata.
///
/// Single contiguous allocation (the paper's ATM testbed had no
/// fragmentation at MTU 9180; chained mbufs add nothing the architecture
/// depends on).
#[derive(Clone)]
pub struct Mbuf {
    data: Vec<u8>,
    /// Interface the packet arrived on — the sixth field of the six-tuple.
    pub rx_if: IfIndex,
    /// Cached flow-table row, set by the first gate's AIU call.
    pub fix: Option<FlowIndex>,
    /// Flow-table admission control refused this packet a record: later
    /// gates must not reclassify (the packet runs the default path
    /// uncached end to end).
    pub class_denied: bool,
    /// Arrival timestamp on the router's *virtual* clock, in simulated
    /// nanoseconds (set by `Router::receive`; mirrors the paper's
    /// device-driver cycle-counter timestamping). Never a wall-clock
    /// value — that is [`Mbuf::ingress_ns`].
    pub timestamp_ns: u64,
    /// Wall-clock ingress stamp, stored as reading + 1 so that `None`
    /// (never stamped) costs no extra word and a reading of 0 — the
    /// clock's very first — is a stamp like any other.
    ingress: Option<NonZeroU64>,
    /// Egress interface decided by the routing step.
    pub tx_if: Option<IfIndex>,
}

impl Mbuf {
    /// Wrap raw packet bytes received on `rx_if`.
    pub fn new(data: Vec<u8>, rx_if: IfIndex) -> Self {
        Mbuf {
            data,
            rx_if,
            fix: None,
            class_denied: false,
            timestamp_ns: 0,
            ingress: None,
            tx_if: None,
        }
    }

    /// Record `wall_ns` (a [`crate::coarse_now_ns`] reading) as the
    /// moment this packet entered the router.
    pub fn stamp_ingress(&mut self, wall_ns: u64) {
        self.ingress = NonZeroU64::new(wall_ns.saturating_add(1));
    }

    /// The wall-clock ingress stamp, if the packet was ever given one.
    pub fn ingress_ns(&self) -> Option<u64> {
        self.ingress.map(|s| s.get() - 1)
    }

    /// Packet bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable packet bytes.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Packet length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Replace the packet contents (used by transforms that change length,
    /// e.g. ESP encapsulation), preserving metadata.
    pub fn replace_data(&mut self, data: Vec<u8>) {
        self.data = data;
    }

    /// Take the buffer out, consuming the mbuf.
    pub fn into_data(self) -> Vec<u8> {
        self.data
    }
}

impl fmt::Debug for Mbuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mbuf")
            .field("len", &self.data.len())
            .field("rx_if", &self.rx_if)
            .field("fix", &self.fix)
            .field("tx_if", &self.tx_if)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_defaults() {
        let m = Mbuf::new(vec![1, 2, 3], 4);
        assert_eq!(m.len(), 3);
        assert_eq!(m.rx_if, 4);
        assert!(m.fix.is_none());
        assert!(m.tx_if.is_none());
        assert!(m.ingress_ns().is_none());
        assert!(!m.is_empty());
    }

    #[test]
    fn ingress_stamp_has_no_reserved_value() {
        let mut m = Mbuf::new(vec![0], 0);
        for t in [0, 1, u64::MAX - 1] {
            m.stamp_ingress(t);
            assert_eq!(m.ingress_ns(), Some(t));
        }
        assert_eq!(m.timestamp_ns, 0, "stamping leaves the virtual clock alone");
    }

    #[test]
    fn replace_preserves_metadata() {
        let mut m = Mbuf::new(vec![1, 2, 3], 4);
        m.fix = Some(FlowIndex(9));
        m.replace_data(vec![0; 100]);
        assert_eq!(m.len(), 100);
        assert_eq!(m.fix, Some(FlowIndex(9)));
        assert_eq!(m.rx_if, 4);
    }
}
