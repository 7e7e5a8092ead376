//! RSS-style ingress dispatch: every packet is steered to a shard by a
//! hash of its flow five-tuple, so all packets of one flow land on the
//! same shard — preserving the flow-cache affinity, per-flow soft state,
//! and per-flow packet order the paper's architecture depends on, without
//! any cross-shard locking.
//!
//! A packet is placed by the shard's own first step: the one parser
//! ([`FlowKey::extract`]) and the flow table's hash of the key
//! ([`key_hash`], the paper's cheap xor/rotate fold, over words). So
//! dispatch costs the front half of a flow-cache probe, spreads exactly
//! as well as the cache, and [`shard_for_tuple`] agrees with it.
//! Placement is a pure function of the packet: no table, no load
//! feedback, the same answer for every packet of a flow.

use rp_classifier::flow_table::{flow_hash, key_hash};
use rp_packet::{FlowKey, FlowTuple, Mbuf};

/// The shard a fully-specified flow belongs to. Multiply-shift range
/// reduction: unlike `hash % n`, this is unbiased across shards for any
/// `n` and costs one multiply instead of a hot-path divide.
#[inline]
pub fn shard_for_tuple(tuple: &FlowTuple, shards: usize) -> usize {
    shard_of_hash(flow_hash(tuple), shards)
}

/// The shard a packet is dispatched to. Packets whose five-tuple cannot
/// be extracted (malformed, unknown transport) all go to shard 0: they
/// carry no flow state, and concentrating them keeps the error path
/// deterministic.
#[inline]
pub fn shard_for_packet(mbuf: &Mbuf, shards: usize) -> usize {
    match FlowKey::extract(mbuf.data(), mbuf.rx_if) {
        Ok(k) => shard_of_hash(key_hash(&k), shards),
        Err(_) => 0,
    }
}

#[inline]
fn shard_of_hash(hash: u32, shards: usize) -> usize {
    debug_assert!(shards > 0, "dispatch needs at least one shard");
    ((hash as u64 * shards.max(1) as u64) >> 32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv6Addr};

    fn tuple(n: u16, sport: u16) -> FlowTuple {
        FlowTuple {
            src: IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, n)),
            dst: IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 0x900)),
            proto: 17,
            sport,
            dport: 80,
            rx_if: 0,
        }
    }

    #[test]
    fn stable_and_in_range() {
        for n in 0..100 {
            let t = tuple(n, 1000 + n);
            for shards in [1usize, 2, 4, 8] {
                let s = shard_for_tuple(&t, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for_tuple(&t, shards), "dispatch must be stable");
            }
        }
    }

    #[test]
    fn multiply_shift_matches_definition() {
        for n in 0..200u16 {
            let t = tuple(n, 2000 + n);
            for shards in [1usize, 2, 3, 4, 5, 7, 8, 12] {
                assert_eq!(
                    shard_for_tuple(&t, shards),
                    ((flow_hash(&t) as u64 * shards as u64) >> 32) as usize
                );
            }
        }
    }

    #[test]
    fn single_shard_takes_everything() {
        for n in 0..50 {
            assert_eq!(shard_for_tuple(&tuple(n, 5000), 1), 0);
        }
    }

    #[test]
    fn malformed_packets_go_to_shard_zero() {
        let m = Mbuf::new(vec![0u8; 4], 0);
        assert_eq!(shard_for_packet(&m, 8), 0);
    }
}
