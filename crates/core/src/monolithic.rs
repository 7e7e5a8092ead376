//! Table 3 baselines.
//!
//! * [`BestEffortRouter`] — the "unmodified NetBSD 1.2.1" row: parse,
//!   age, route, emit. No gates, no classifier, no flow cache.
//! * [`AltqDrrRouter`] — the "NetBSD with ALTQ and DRR" row: the same
//!   fast path with a **hard-wired** DRR scheduler fed by ALTQ-WFQ-style
//!   classification (hash the header fields onto a fixed number of
//!   queues), exactly the design the paper's plugin DRR is compared
//!   against ("ALTQ came with a basic packet classifier which mapped
//!   flows to these queues by hashing on fields in the packet header").

use crate::ip_core::{
    dst_of, validate_and_age, DataPathStats, Disposition, DropReason, RoutingTable,
};
use rp_classifier::flow_table::key_hash;
use rp_packet::mbuf::IfIndex;
use rp_packet::{FlowKey, Mbuf};
use rp_sched::link::{SchedPacket, Scheduler};
use rp_sched::DrrScheduler;
use std::collections::HashMap;
use std::net::IpAddr;

/// The plain best-effort fast path.
pub struct BestEffortRouter {
    /// Routing table.
    pub routes: RoutingTable,
    verify_checksums: bool,
    stats: DataPathStats,
    tx_logs: Vec<Vec<Mbuf>>,
}

impl BestEffortRouter {
    /// Build with `interfaces` egress ports.
    pub fn new(interfaces: usize, verify_checksums: bool) -> Self {
        BestEffortRouter {
            routes: RoutingTable::new(),
            verify_checksums,
            stats: DataPathStats::default(),
            tx_logs: (0..interfaces).map(|_| Vec::new()).collect(),
        }
    }

    /// Add a route.
    pub fn add_route(&mut self, addr: IpAddr, prefix_len: u8, tx_if: IfIndex) {
        self.routes
            .add(addr, prefix_len, crate::ip_core::RouteEntry { tx_if });
    }

    /// Forward one packet.
    pub fn receive(&mut self, mut mbuf: Mbuf) -> Disposition {
        self.stats.received += 1;
        if let Err(r) = validate_and_age(&mut mbuf, self.verify_checksums) {
            self.stats.dropped_malformed += 1;
            return Disposition::Dropped(r);
        }
        let dst = match dst_of(&mbuf) {
            Ok(d) => d,
            Err(r) => {
                self.stats.dropped_malformed += 1;
                return Disposition::Dropped(r);
            }
        };
        match self.routes.lookup_cached(dst) {
            Some(e) if (e.tx_if as usize) < self.tx_logs.len() => {
                self.stats.forwarded += 1;
                self.tx_logs[e.tx_if as usize].push(mbuf);
                Disposition::Forwarded(e.tx_if)
            }
            _ => {
                self.stats.dropped_no_route += 1;
                Disposition::Dropped(DropReason::NoRoute)
            }
        }
    }

    /// Take transmitted packets.
    pub fn take_tx(&mut self, iface: IfIndex) -> Vec<Mbuf> {
        std::mem::take(&mut self.tx_logs[iface as usize])
    }

    /// Number of interfaces.
    pub fn interface_count(&self) -> usize {
        self.tx_logs.len()
    }

    /// Statistics.
    pub fn stats(&self) -> DataPathStats {
        self.stats
    }
}

/// The hard-wired ALTQ-style DRR kernel: best-effort fast path with a DRR
/// scheduler bolted onto each egress interface and a fixed-queue hash
/// classifier in front of it.
pub struct AltqDrrRouter {
    /// Routing table.
    pub routes: RoutingTable,
    verify_checksums: bool,
    stats: DataPathStats,
    /// DRR + packet store per interface.
    queues: Vec<(DrrScheduler, HashMap<u64, Mbuf>, u64)>,
    tx_logs: Vec<Vec<Mbuf>>,
    nqueues: u32,
}

impl AltqDrrRouter {
    /// Build with `interfaces` ports, ALTQ-style `nqueues` hash queues per
    /// port, and the given DRR quantum.
    pub fn new(interfaces: usize, nqueues: u32, quantum: u32, verify_checksums: bool) -> Self {
        AltqDrrRouter {
            routes: RoutingTable::new(),
            verify_checksums,
            stats: DataPathStats::default(),
            queues: (0..interfaces)
                .map(|_| (DrrScheduler::new(quantum, 512), HashMap::new(), 0))
                .collect(),
            tx_logs: (0..interfaces).map(|_| Vec::new()).collect(),
            nqueues,
        }
    }

    /// Add a route.
    pub fn add_route(&mut self, addr: IpAddr, prefix_len: u8, tx_if: IfIndex) {
        self.routes
            .add(addr, prefix_len, crate::ip_core::RouteEntry { tx_if });
    }

    /// Forward one packet (enqueues into the egress DRR).
    pub fn receive(&mut self, mut mbuf: Mbuf, now_ns: u64) -> Disposition {
        self.stats.received += 1;
        if let Err(r) = validate_and_age(&mut mbuf, self.verify_checksums) {
            self.stats.dropped_malformed += 1;
            return Disposition::Dropped(r);
        }
        let dst = match dst_of(&mbuf) {
            Ok(d) => d,
            Err(r) => {
                self.stats.dropped_malformed += 1;
                return Disposition::Dropped(r);
            }
        };
        let Some(e) = self.routes.lookup_cached(dst) else {
            self.stats.dropped_no_route += 1;
            return Disposition::Dropped(DropReason::NoRoute);
        };
        let tx = e.tx_if as usize;
        if tx >= self.queues.len() {
            self.stats.dropped_no_route += 1;
            return Disposition::Dropped(DropReason::NoRoute);
        }
        // ALTQ-WFQ classification: hash the flow key onto a fixed queue.
        let key = FlowKey::extract(mbuf.data(), mbuf.rx_if);
        let queue = key.map_or(0, |k| key_hash(&k) % self.nqueues);
        let (drr, store, next) = &mut self.queues[tx];
        let cookie = *next;
        *next += 1;
        let len = mbuf.len() as u32;
        store.insert(cookie, mbuf);
        let ok = drr.enqueue(
            SchedPacket {
                flow: queue,
                len,
                arrival_ns: now_ns,
                cookie,
            },
            now_ns,
        );
        if ok {
            self.stats.forwarded += 1;
            Disposition::Queued(e.tx_if)
        } else {
            store.remove(&cookie);
            self.stats.dropped_queue += 1;
            Disposition::Dropped(DropReason::QueueFull)
        }
    }

    /// Drain up to `max` packets from an interface's DRR.
    pub fn pump(&mut self, iface: IfIndex, max: usize, now_ns: u64) -> usize {
        let (drr, store, _) = &mut self.queues[iface as usize];
        let mut sent = 0;
        while sent < max {
            let Some(pkt) = drr.dequeue(now_ns) else {
                break;
            };
            if let Some(m) = store.remove(&pkt.cookie) {
                self.tx_logs[iface as usize].push(m);
                sent += 1;
            }
        }
        sent
    }

    /// Take transmitted packets.
    pub fn take_tx(&mut self, iface: IfIndex) -> Vec<Mbuf> {
        std::mem::take(&mut self.tx_logs[iface as usize])
    }

    /// Number of interfaces.
    pub fn interface_count(&self) -> usize {
        self.tx_logs.len()
    }

    /// Statistics.
    pub fn stats(&self) -> DataPathStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rp_packet::builder::PacketSpec;
    use std::net::Ipv6Addr;

    fn v6(a: u16) -> IpAddr {
        IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, a))
    }

    fn pkt(src: u16, dst: u16) -> Mbuf {
        Mbuf::new(
            PacketSpec::udp(v6(src), v6(dst), 1000, 2000, 256).build(),
            0,
        )
    }

    #[test]
    fn best_effort_forwards() {
        let mut r = BestEffortRouter::new(2, true);
        r.add_route(v6(0), 64, 1);
        assert_eq!(r.receive(pkt(1, 2)), Disposition::Forwarded(1));
        assert_eq!(r.take_tx(1).len(), 1);
        assert_eq!(r.stats().forwarded, 1);
        // No route → drop.
        let other = IpAddr::V6(Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, 1));
        let m = Mbuf::new(PacketSpec::udp(v6(1), other, 1, 2, 10).build(), 0);
        assert_eq!(r.receive(m), Disposition::Dropped(DropReason::NoRoute));
    }

    #[test]
    fn altq_queues_and_pumps() {
        let mut r = AltqDrrRouter::new(2, 8, 9180, true);
        r.add_route(v6(0), 64, 1);
        for _ in 0..5 {
            assert_eq!(r.receive(pkt(1, 2), 0), Disposition::Queued(1));
        }
        assert_eq!(r.pump(1, 100, 0), 5);
        assert_eq!(r.take_tx(1).len(), 5);
    }

    #[test]
    fn altq_hashes_flows_to_queues() {
        // Two flows, tiny queue count: both still get service.
        let mut r = AltqDrrRouter::new(1, 2, 9180, true);
        r.add_route(v6(0), 64, 0);
        for i in 0..4 {
            r.receive(pkt(1, 2), i);
            r.receive(pkt(3, 2), i);
        }
        assert_eq!(r.pump(0, 100, 10), 8);
    }
}
