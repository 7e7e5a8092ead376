//! `refwd` — the frozen reference forwarder. **Later PRs may not edit this
//! file.** Every time-based end-to-end metric of the benchmark is a
//! multiple of this loop's per-packet cost, measured in slices interleaved
//! with the work, so that the numbers mean the same on a fast host, a slow
//! host and a noisy one. Editing it re-bases every recorded number; if it
//! must change, that is a new benchmark, not a change to this one.
//!
//! It is a minimal IPv4 forwarder that uses no crate of the repository:
//! copy a 46-byte UDP template into a recycled buffer, check version/IHL,
//! decrement the TTL with an incremental checksum update (RFC 1624), hash
//! the 5-tuple, probe a 65 536-entry flow array and an 8 192-slot route
//! cache, push the packet to an egress vector, recycle every 64.

use std::hint::black_box;

const FLOW_SLOTS: usize = 65_536;
const ROUTE_SLOTS: usize = 8_192;
const RECYCLE_EVERY: usize = 64;
const MIX: u32 = 0x9E37_79B1;

/// 46-byte IPv4/UDP packet 10.0.0.1:1024 → 192.0.2.1:80, TTL 64, with a
/// valid header checksum.
pub const TEMPLATE: [u8; 46] = [
    0x45, 0, 0, 46, 0, 0, 0, 0, 64, 17, 0xAE, 0xBD, 10, 0, 0, 1, 192, 0, 2, 1, // IPv4
    0x04, 0x00, 0x00, 0x50, 0, 26, 0, 0, // UDP
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // payload
];

/// The egress interface the reference routes `dst` to.
pub fn route_of(dst: u32) -> u32 {
    (dst >> 8) & 3
}

pub struct Refwd {
    flows: Vec<(u32, u32)>,
    routes: Vec<(u32, u32)>,
    pool: Vec<Vec<u8>>,
    egress: Vec<(u32, Vec<u8>)>,
    seq: u32,
    pub forwarded: u64,
    pub dropped: u64,
}

impl Default for Refwd {
    fn default() -> Self {
        Refwd {
            flows: vec![(0, 0); FLOW_SLOTS],
            routes: vec![(0, u32::MAX); ROUTE_SLOTS],
            pool: Vec::new(),
            egress: Vec::with_capacity(RECYCLE_EVERY),
            seq: 0,
            forwarded: 0,
            dropped: 0,
        }
    }
}

impl Refwd {
    /// Forward one packet in place; the egress interface, or `None` when
    /// the packet is not plain IPv4 or its TTL has run out.
    pub fn forward(&mut self, b: &mut [u8]) -> Option<u32> {
        if b.len() < 28 || b[0] != 0x45 || b[8] <= 1 {
            return None;
        }
        let old = u16::from_be_bytes([b[8], b[9]]);
        b[8] -= 1;
        let new = u16::from_be_bytes([b[8], b[9]]);
        let hc = u16::from_be_bytes([b[10], b[11]]);
        let mut sum = u32::from(!hc) + u32::from(!old) + u32::from(new);
        sum = (sum & 0xFFFF) + (sum >> 16);
        sum = (sum & 0xFFFF) + (sum >> 16);
        b[10..12].copy_from_slice(&(!(sum as u16)).to_be_bytes());

        let src = u32::from_be_bytes([b[12], b[13], b[14], b[15]]);
        let dst = u32::from_be_bytes([b[16], b[17], b[18], b[19]]);
        let ports = u32::from_be_bytes([b[20], b[21], b[22], b[23]]);
        let mut h = (src ^ dst.rotate_left(16) ^ ports ^ u32::from(b[9])).wrapping_mul(MIX);
        h ^= h >> 15;
        let flow = &mut self.flows[h as usize & (FLOW_SLOTS - 1)];
        if flow.0 != h {
            *flow = (h, 0);
        }
        flow.1 = flow.1.wrapping_add(1);

        let route = &mut self.routes[(dst.wrapping_mul(MIX) >> 19) as usize & (ROUTE_SLOTS - 1)];
        if route.0 != dst || route.1 == u32::MAX {
            *route = (dst, route_of(dst));
        }
        Some(route.1)
    }

    /// Forward `n` generated packets (4 096 flows, one destination each).
    pub fn run(&mut self, n: u32) {
        for _ in 0..n {
            self.seq = self.seq.wrapping_add(1);
            let flow = self.seq.wrapping_mul(MIX) >> 20;
            let mut buf = self.pool.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(&TEMPLATE);
            buf[14..16].copy_from_slice(&(flow as u16).to_be_bytes());
            buf[18..20].copy_from_slice(&(flow as u16).to_be_bytes());
            match self.forward(&mut buf) {
                Some(tx_if) => {
                    self.forwarded += 1;
                    self.egress.push((tx_if, buf));
                }
                None => {
                    self.dropped += 1;
                    self.pool.push(buf);
                }
            }
            if self.egress.len() >= RECYCLE_EVERY {
                black_box(&self.egress);
                for (_, b) in self.egress.drain(..) {
                    self.pool.push(b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header_sum(b: &[u8]) -> u32 {
        let mut s: u32 = b[..20]
            .chunks(2)
            .map(|w| u32::from(u16::from_be_bytes([w[0], w[1]])))
            .sum();
        while s >> 16 != 0 {
            s = (s & 0xFFFF) + (s >> 16);
        }
        s
    }

    #[test]
    fn known_packet_in_expected_packet_out() {
        assert_eq!(header_sum(&TEMPLATE), 0xFFFF, "template checksum valid");
        let mut r = Refwd::default();
        let mut p = TEMPLATE;
        assert_eq!(r.forward(&mut p), Some(route_of(0xC000_0201)));
        assert_eq!(p[8], 63);
        assert_eq!(header_sum(&p), 0xFFFF, "checksum valid after TTL-1");
        assert_eq!(p[..8], TEMPLATE[..8]);
        assert_eq!(p[12..], TEMPLATE[12..]);
        // Second packet of the flow hits the flow array and the route cache.
        let mut q = TEMPLATE;
        assert_eq!(r.forward(&mut q), Some(2));
        assert_eq!(q, p);
    }

    #[test]
    fn rejects_non_ipv4_and_expired_ttl() {
        let mut r = Refwd::default();
        let mut p = TEMPLATE;
        p[0] = 0x60;
        assert_eq!(r.forward(&mut p), None);
        let mut p = TEMPLATE;
        p[8] = 1;
        assert_eq!(r.forward(&mut p), None);
        assert_eq!(r.forward(&mut [0x45; 8]), None);
    }

    #[test]
    fn forwarded_count_is_exact() {
        let mut r = Refwd::default();
        r.run(10_000);
        assert_eq!((r.forwarded, r.dropped), (10_000, 0));
        assert!(r.pool.len() + r.egress.len() <= 2 * RECYCLE_EVERY);
    }
}
