//! RSS-style ingress dispatch: every packet is steered to a shard by a
//! hash of its flow key, so all packets of one flow land on the
//! same shard — preserving the flow-cache affinity, per-flow soft state,
//! and per-flow packet order the paper's architecture depends on, without
//! any cross-shard locking.
//!
//! A packet is placed by the shard's own first step: the one parser
//! ([`FlowKey::extract`]) and the flow table's hash of the key
//! ([`key_hash`], the paper's cheap xor/rotate fold over all eleven words,
//! incoming interface included). So dispatch costs the front half of a
//! flow-cache probe and spreads exactly as well as the cache.
//! Placement is a pure function of the packet: no table, no load
//! feedback, the same answer for every packet of a flow.

use rp_classifier::flow_table::key_hash;
use rp_packet::{FlowKey, Mbuf};

/// The shard a packet is dispatched to: multiply-shift range reduction
/// of its key's hash (unlike `hash % n`, unbiased across shards for any
/// `n`, and one multiply instead of a hot-path divide). Packets whose key
/// cannot be extracted (malformed, truncated transport) all go to shard
/// 0: they carry no flow state, and concentrating them keeps the error
/// path deterministic.
#[inline]
pub fn shard_for_packet(mbuf: &Mbuf, shards: usize) -> usize {
    match FlowKey::extract(mbuf.data(), mbuf.rx_if) {
        Ok(k) => ((key_hash(&k) as u64 * shards.max(1) as u64) >> 32) as usize,
        Err(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_packet::builder::PacketSpec;
    use std::net::{IpAddr, Ipv6Addr};

    fn packet(n: u16, sport: u16) -> Mbuf {
        let host = |h| IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, h));
        Mbuf::new(
            PacketSpec::udp(host(n), host(0x900), sport, 80, 8).build(),
            0,
        )
    }

    #[test]
    fn stable_and_in_range() {
        for n in 0..100 {
            let m = packet(n, 1000 + n);
            for shards in [1usize, 2, 4, 8] {
                let s = shard_for_packet(&m, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for_packet(&m, shards), "dispatch must be stable");
            }
        }
    }

    #[test]
    fn multiply_shift_matches_definition() {
        for n in 0..200u16 {
            let m = packet(n, 2000 + n);
            let hash = key_hash(&FlowKey::extract(m.data(), m.rx_if).unwrap());
            for shards in [1usize, 2, 3, 4, 5, 7, 8, 12] {
                assert_eq!(
                    shard_for_packet(&m, shards),
                    ((hash as u64 * shards as u64) >> 32) as usize
                );
            }
        }
    }

    #[test]
    fn single_shard_takes_everything() {
        for n in 0..50 {
            assert_eq!(shard_for_packet(&packet(n, 5000), 1), 0);
        }
    }

    #[test]
    fn malformed_packets_go_to_shard_zero() {
        let m = Mbuf::new(vec![0u8; 4], 0);
        assert_eq!(shard_for_packet(&m, 8), 0);
    }
}
