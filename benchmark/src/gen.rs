//! Seeded input generation. The same seed gives byte-identical inputs; the
//! program under test sees only the generated packets and routes.
//!
//! Every packet is a 46-byte IPv4/UDP datagram — a 64-byte Ethernet frame,
//! the size at which per-packet cost dominates — with a valid header
//! checksum, built on the fly from its flow number so that a million
//! flows need no stored packets.

use crate::oracle::{Oracle, Route};
use rp_netsim::traffic::synthetic_fib_v4;
use std::net::IpAddr;

pub const PACKET_LEN: usize = 46;
pub const INTERFACES: u32 = 4;
/// Size of the default-free-zone table every workload loads.
pub const FIB_PREFIXES: usize = 900_000;

/// splitmix64: the benchmark's own generator, so that its inputs do not
/// move when a crate of the repository changes its random numbers.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` distinct IPv4 prefixes with a BGP-like length mix over four egress
/// interfaces, from the repository's own FIB generator.
pub fn fib(n: usize, seed: u64) -> Vec<Route> {
    synthetic_fib_v4(n, INTERFACES, seed)
        .into_iter()
        .map(|(addr, len, tx_if)| match addr {
            IpAddr::V4(a) => (u32::from(a), len, tx_if),
            IpAddr::V6(_) => unreachable!("synthetic_fib_v4 yields IPv4 prefixes"),
        })
        .collect()
}

/// A host address inside a prefix (the middle of its range).
pub fn host_in((bits, len, _): Route) -> u32 {
    bits | ((1u32 << (32 - u32::from(len))) >> 1).max(1)
}

/// The packet of a flow: `src:sport → dst:80`, UDP, TTL 64, 18 payload
/// bytes, header checksum valid.
pub fn packet(src: u32, dst: u32, sport: u16) -> [u8; PACKET_LEN] {
    let mut b = [0u8; PACKET_LEN];
    b[0] = 0x45;
    b[3] = PACKET_LEN as u8;
    b[8] = 64;
    b[9] = 17;
    b[12..16].copy_from_slice(&src.to_be_bytes());
    b[16..20].copy_from_slice(&dst.to_be_bytes());
    // 0x4500 + 46 + 0x4011 (TTL, protocol) + the four address words.
    let mut sum = 0x4500 + PACKET_LEN as u32 + 0x4011;
    sum += (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF);
    sum = (sum & 0xFFFF) + (sum >> 16);
    sum = (sum & 0xFFFF) + (sum >> 16);
    b[10..12].copy_from_slice(&(!(sum as u16)).to_be_bytes());
    b[20..22].copy_from_slice(&sport.to_be_bytes());
    b[23] = 80;
    b[25] = (PACKET_LEN - 20) as u8;
    for (i, p) in b[28..].iter_mut().enumerate() {
        *p = i as u8;
    }
    b
}

/// The flows of a workload: flow `k` goes to `dsts[k % dsts.len()]` from a
/// source address and port derived from `k`, so flows are distinct for
/// `k` below 2²⁴ and need no storage.
pub struct Traffic {
    /// Destination address and the egress interface the oracle expects.
    pub dsts: Vec<(u32, u32)>,
}

impl Traffic {
    /// `n` destinations inside prefixes drawn uniformly (with repetition)
    /// from the FIB.
    pub fn new(fib: &[Route], oracle: &Oracle, n: usize, rng: &mut Rng) -> Traffic {
        let dsts = (0..n)
            .map(|_| {
                let dst = host_in(fib[rng.below(fib.len() as u64) as usize]);
                let tx_if = oracle
                    .lookup(dst)
                    .expect("address inside an installed prefix");
                (dst, tx_if)
            })
            .collect();
        Traffic { dsts }
    }

    /// Packet bytes and expected egress interface of flow `k`.
    #[inline]
    pub fn packet(&self, k: u64) -> ([u8; PACKET_LEN], u32) {
        let (dst, tx_if) = self.dsts[(k % self.dsts.len() as u64) as usize];
        let src = 0x0B00_0000 | (k as u32 & 0x00FF_FFFF);
        let sport = 1024 + (k % 50_000) as u16;
        (packet(src, dst, sport), tx_if)
    }
}

/// Elephants-and-mice schedule over `flows` live flows, as `bench scale`
/// draws it: 90 % of packets go to 64 heavy flows, the rest to flows
/// drawn uniformly from the whole population in 8-packet trains.
pub fn elephants_and_mice(flows: u64, len: usize, rng: &mut Rng) -> Vec<u32> {
    const ELEPHANTS: u64 = 64;
    const MICE_SHARE: f64 = 0.10;
    const TRAIN: usize = 8;
    let t = TRAIN as f64;
    let p_train = MICE_SHARE / (t - (t - 1.0) * MICE_SHARE);
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        if rng.unit() < p_train {
            let f = rng.below(flows) as u32;
            out.extend(std::iter::repeat_n(f, TRAIN.min(len - out.len())));
        } else {
            out.push(rng.below(flows.min(ELEPHANTS)) as u32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::header_sum;

    fn inputs(seed: u64) -> (Vec<Route>, Vec<[u8; PACKET_LEN]>, Vec<u32>) {
        let fib = fib(5_000, seed);
        let oracle = Oracle::new(&fib);
        let mut rng = Rng::new(seed ^ 0x5EED);
        let t = Traffic::new(&fib, &oracle, 64, &mut rng);
        let pkts = (0..256).map(|k| t.packet(k).0).collect();
        (fib, pkts, elephants_and_mice(10_000, 4096, &mut rng))
    }

    #[test]
    fn equal_seeds_give_identical_inputs_and_different_seeds_do_not() {
        assert!(inputs(1) == inputs(1));
        let (a, b) = (inputs(1), inputs(2));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
    }

    #[test]
    fn packets_are_valid_and_routed_where_the_oracle_says() {
        let fib = fib(5_000, 3);
        let oracle = Oracle::new(&fib);
        let t = Traffic::new(&fib, &oracle, 64, &mut Rng::new(3));
        for k in [0u64, 1, 63, 64, 1_000_000] {
            let (p, tx_if) = t.packet(k);
            assert_eq!(header_sum(&p), 0xFFFF);
            assert_eq!(p.len(), usize::from(p[3]));
            let dst = u32::from_be_bytes([p[16], p[17], p[18], p[19]]);
            assert_eq!(oracle.lookup(dst), Some(tx_if));
            assert!(tx_if < INTERFACES);
        }
        assert_ne!(t.packet(0).0, t.packet(64).0, "same destination, new flow");
    }

    #[test]
    fn schedule_is_mostly_elephants_with_mouse_trains() {
        let s = elephants_and_mice(1_000_000, 1 << 16, &mut Rng::new(5));
        let heavy = s.iter().filter(|&&f| f < 64).count() as f64 / s.len() as f64;
        assert!((0.88..0.92).contains(&heavy), "heavy share {heavy}");
        assert!(s.iter().all(|&f| f < 1_000_000));
    }
}
