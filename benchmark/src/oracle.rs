//! The benchmark's own idea of what a correct router does, sharing no code
//! with the crates under test: longest-prefix match two ways (a hash map
//! per prefix length for every packet, a linear scan of the prefix list
//! for the per-run sample) and the bytes a forwarded packet must have.

use std::collections::HashMap;

/// One FIB entry as the benchmark generates it: prefix bits (host bits
/// zero), prefix length, egress interface.
pub type Route = (u32, u8, u32);

fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

/// Longest-prefix match by linear scan — slow and obviously right.
pub fn lpm_linear(routes: &[Route], addr: u32) -> Option<u32> {
    routes
        .iter()
        .filter(|(bits, len, _)| addr & mask(*len) == *bits)
        .max_by_key(|(_, len, _)| *len)
        .map(|(_, _, tx_if)| *tx_if)
}

/// Longest-prefix match by one exact-match map per prefix length, probed
/// from the longest length down.
pub struct Oracle {
    by_len: Vec<(u8, HashMap<u32, u32>)>,
}

impl Oracle {
    pub fn new(routes: &[Route]) -> Oracle {
        let mut maps: HashMap<u8, HashMap<u32, u32>> = HashMap::new();
        for &(bits, len, tx_if) in routes {
            maps.entry(len).or_default().insert(bits, tx_if);
        }
        let mut by_len: Vec<_> = maps.into_iter().collect();
        by_len.sort_by_key(|(len, _)| std::cmp::Reverse(*len));
        Oracle { by_len }
    }

    pub fn lookup(&self, addr: u32) -> Option<u32> {
        self.covering(addr).next().map(|(_, _, tx_if)| tx_if)
    }

    /// Every installed prefix that covers `addr`, longest first.
    pub fn covering(&self, addr: u32) -> impl Iterator<Item = Route> + '_ {
        self.by_len.iter().filter_map(move |(len, m)| {
            let bits = addr & mask(*len);
            m.get(&bits).map(|&tx_if| (bits, *len, tx_if))
        })
    }
}

/// One's-complement sum of an IPv4 header; `0xFFFF` when its checksum is
/// valid.
pub fn header_sum(b: &[u8]) -> u32 {
    let mut s: u32 = b[..20]
        .chunks(2)
        .map(|w| u32::from(u16::from_be_bytes([w[0], w[1]])))
        .sum();
    while s >> 16 != 0 {
        s = (s & 0xFFFF) + (s >> 16);
    }
    s
}

/// True when `out` is `sent` forwarded once: same length, TTL one less,
/// header checksum valid, every other byte untouched.
pub fn forwarded_intact(sent: &[u8], out: &[u8]) -> bool {
    sent.len() == out.len()
        && out.len() >= 20
        && out[8] == sent[8].wrapping_sub(1)
        && header_sum(out) == 0xFFFF
        && out[..8] == sent[..8]
        && out[9] == sent[9]
        && out[12..] == sent[12..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Rng};
    use router_core::ip_core::{RouteEntry, RoutingTable};
    use std::net::{IpAddr, Ipv4Addr};

    #[test]
    fn longest_prefix_wins_and_misses_are_none() {
        let routes = [
            (0x0A00_0000, 8, 1),
            (0x0A01_0000, 16, 2),
            (0x0A01_0200, 24, 3),
        ];
        let o = Oracle::new(&routes);
        for (addr, want) in [
            (0x0A01_0203, Some(3)),
            (0x0A01_0303, Some(2)),
            (0x0A02_0000, Some(1)),
            (0x0B00_0000, None),
        ] {
            assert_eq!(o.lookup(addr), want);
            assert_eq!(lpm_linear(&routes, addr), want);
        }
        let covering: Vec<Route> = o.covering(0x0A01_0203).collect();
        assert_eq!(covering, [routes[2], routes[1], routes[0]]);
    }

    #[test]
    fn oracles_agree_with_routing_table_on_1000_addresses() {
        let fib = gen::fib(20_000, 7);
        let mut rt = RoutingTable::new();
        for &(bits, len, tx_if) in &fib {
            rt.add(IpAddr::V4(Ipv4Addr::from(bits)), len, RouteEntry { tx_if });
        }
        let o = Oracle::new(&fib);
        let mut rng = Rng::new(99);
        let mut routed = 0;
        for i in 0..1000 {
            // Half inside installed prefixes, half anywhere.
            let addr = if i % 2 == 0 {
                gen::host_in(fib[rng.below(fib.len() as u64) as usize])
            } else {
                rng.next() as u32
            };
            let want = rt.lookup(IpAddr::V4(Ipv4Addr::from(addr))).map(|e| e.tx_if);
            assert_eq!(o.lookup(addr), want, "hashed oracle, {addr:#x}");
            assert_eq!(lpm_linear(&fib, addr), want, "linear oracle, {addr:#x}");
            routed += usize::from(want.is_some());
        }
        assert!(routed >= 500);
    }

    #[test]
    fn forwarded_intact_checks_ttl_checksum_and_payload() {
        let sent = gen::packet(0x0B00_0001, 0xC000_0201, 1234);
        assert_eq!(header_sum(&sent), 0xFFFF);
        let mut out = sent;
        let mut r = crate::refwd::Refwd::default();
        r.forward(&mut out).unwrap();
        assert!(forwarded_intact(&sent, &out));
        assert!(!forwarded_intact(&sent, &sent), "TTL not decremented");
        let mut bad = out;
        bad[30] ^= 1;
        assert!(!forwarded_intact(&sent, &bad), "payload touched");
        let mut bad = out;
        bad[10] ^= 1;
        assert!(!forwarded_intact(&sent, &bad), "checksum broken");
        assert!(!forwarded_intact(&sent, &out[..45]), "truncated");
    }
}
