//! The measurement harness: plays a workload through a router
//! configuration and reports per-packet cost — the software analogue of
//! the paper's device-driver cycle-counter timestamps ("we added a time
//! stamp function into the ATM device driver which timestamped every
//! incoming packet … compared to the CPU cycle counter right before the
//! packet was output").

use crate::traffic::Workload;
use router_core::ip_core::Disposition;
use router_core::monolithic::{AltqDrrRouter, BestEffortRouter};
use router_core::{ParallelRouter, Router};
use rp_packet::Mbuf;
use std::time::Instant;

/// Results of one measured run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Packets offered.
    pub packets: u64,
    /// Packets forwarded/queued.
    pub forwarded: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Total processing wall time (ns) across all packets.
    pub total_ns: u64,
    /// Flow-cache hits (0 for routers without one).
    pub cache_hits: u64,
    /// Flow-cache misses.
    pub cache_misses: u64,
}

/// The testbench: replays workloads and accumulates statistics.
pub struct Testbench {
    /// Prebuilt packet sequence (built once; cloned per repetition).
    packets: Vec<Mbuf>,
}

impl Testbench {
    /// Build from a workload.
    pub fn new(workload: &Workload) -> Self {
        Testbench {
            packets: workload.build(),
        }
    }

    /// The prebuilt packet sequence (one rep of the workload).
    pub fn packets(&self) -> &[Mbuf] {
        &self.packets
    }

    /// Serialize the workload as a classic pcap capture, so any
    /// testbench traffic doubles as a replayable trace for the I/O
    /// plane (`linktype` is `LINKTYPE_RAW` for bare IP records or
    /// `LINKTYPE_ETHERNET` to wrap each packet in a synthetic Ethernet
    /// frame). Record timestamps are synthetic: packet `i` is stamped
    /// `i` microseconds from zero, preserving order.
    pub fn record_pcap(&self, linktype: u32, big_endian: bool) -> Vec<u8> {
        let mut w = rp_netdev::pcap::PcapWriter::new(linktype, big_endian);
        let mut frame = Vec::new();
        for (i, pkt) in self.packets.iter().enumerate() {
            let (ts_sec, ts_usec) = ((i / 1_000_000) as u32, (i % 1_000_000) as u32);
            if linktype == rp_netdev::pcap::LINKTYPE_ETHERNET {
                if rp_netdev::frame::attach_ethernet(
                    &mut frame,
                    &rp_netdev::pcap::CAPTURE_DST_MAC,
                    &rp_netdev::pcap::CAPTURE_SRC_MAC,
                    pkt.data(),
                ) {
                    w.push(ts_sec, ts_usec, &frame);
                }
            } else {
                w.push(ts_sec, ts_usec, pkt.data());
            }
        }
        w.into_bytes()
    }

    /// Replay through the plugin router `reps` times; the scheduling gate
    /// is drained (`pump`) after each packet, mirroring the testbed's
    /// immediate retransmission on the output ATM port.
    pub fn run_router(&self, router: &mut Router, reps: usize) -> RunStats {
        let mut stats = RunStats::default();
        let h0 = router.flow_stats();
        for _ in 0..reps {
            for pkt in &self.packets {
                let m = pkt.clone();
                let t0 = Instant::now();
                let d = router.receive(m);
                let queued_if = match d {
                    Disposition::Queued(i) => Some(i),
                    _ => None,
                };
                if let Some(i) = queued_if {
                    router.pump(i, 1);
                }
                stats.total_ns += t0.elapsed().as_nanos() as u64;
                stats.packets += 1;
                match d {
                    Disposition::Forwarded(_) | Disposition::Queued(_) => stats.forwarded += 1,
                    Disposition::Dropped(_) => stats.dropped += 1,
                    Disposition::Consumed(_) => {}
                }
            }
            // Clear tx logs so memory stays bounded across reps.
            for i in 0..router.interface_count() {
                router.take_tx(i as u32);
            }
        }
        let h1 = router.flow_stats();
        stats.cache_hits = h1.hits - h0.hits;
        stats.cache_misses = h1.misses - h0.misses;
        stats
    }

    /// [`run_router`](Testbench::run_router) on the zero-allocation fast
    /// path: ingress mbufs are built from the router's buffer pool
    /// ([`Router::mbuf_with`]) instead of cloned, and transmitted packets
    /// are handed back to the pool after each repetition — the driver
    /// loop of a real port. After pool warm-up no per-packet heap
    /// allocation remains on this path.
    pub fn run_router_pooled(&self, router: &mut Router, reps: usize) -> RunStats {
        let mut stats = RunStats::default();
        let h0 = router.flow_stats();
        let mut done: Vec<Mbuf> = Vec::new();
        for _ in 0..reps {
            for pkt in &self.packets {
                let m = router.mbuf_with(pkt.data(), pkt.rx_if);
                let t0 = Instant::now();
                let d = router.receive(m);
                if let Disposition::Queued(i) = d {
                    router.pump(i, 1);
                }
                stats.total_ns += t0.elapsed().as_nanos() as u64;
                stats.packets += 1;
                match d {
                    Disposition::Forwarded(_) | Disposition::Queued(_) => stats.forwarded += 1,
                    Disposition::Dropped(_) => stats.dropped += 1,
                    Disposition::Consumed(_) => {}
                }
            }
            // The driver's retransmit-complete step: return transmitted
            // buffers to the pool instead of freeing them.
            for i in 0..router.interface_count() {
                router.take_tx_into(i as u32, &mut done);
                for m in done.drain(..) {
                    router.recycle_mbuf(m);
                }
            }
        }
        let h1 = router.flow_stats();
        stats.cache_hits = h1.hits - h0.hits;
        stats.cache_misses = h1.misses - h0.misses;
        stats
    }

    /// Replay through a sharded parallel data plane `reps` times on the
    /// batched fast path: ingress mbufs come from the dispatcher's
    /// buffer pool, up to `batch` packets are handed to
    /// [`ParallelRouter::receive_batch`] per call (one channel send per
    /// shard touched instead of one per packet), the run is quiesced
    /// with a barrier [`flush`](ParallelRouter::flush), and transmitted
    /// packets are recycled after each repetition. `batch == 1`
    /// degenerates to per-packet dispatch through the same entry point.
    pub fn run_parallel_batched(&self, router: &mut ParallelRouter, reps: usize, batch: usize) {
        let batch = batch.max(1);
        for _ in 0..reps {
            let mut carrier = router.batch_carrier();
            for pkt in &self.packets {
                carrier.push(router.mbuf_with(pkt.data(), pkt.rx_if));
                if carrier.len() >= batch {
                    router.receive_batch(carrier);
                    carrier = router.batch_carrier();
                }
            }
            router.receive_batch(carrier);
            router.flush();
            for i in 0..router.interface_count() {
                for m in router.take_tx(i as u32) {
                    router.recycle_mbuf(m);
                }
            }
        }
    }

    /// Replay through the best-effort baseline.
    pub fn run_best_effort(&self, router: &mut BestEffortRouter, reps: usize) -> RunStats {
        let mut stats = RunStats::default();
        for _ in 0..reps {
            for pkt in &self.packets {
                let m = pkt.clone();
                let t0 = Instant::now();
                let d = router.receive(m);
                stats.total_ns += t0.elapsed().as_nanos() as u64;
                stats.packets += 1;
                match d {
                    Disposition::Forwarded(_) => stats.forwarded += 1,
                    _ => stats.dropped += 1,
                }
            }
            for i in 0..4u32 {
                let _ = router.take_tx(i % 4);
            }
        }
        stats
    }

    /// Replay through the monolithic ALTQ-DRR baseline.
    pub fn run_altq(&self, router: &mut AltqDrrRouter, reps: usize) -> RunStats {
        let mut stats = RunStats::default();
        let mut now = 0u64;
        for _ in 0..reps {
            for pkt in &self.packets {
                let m = pkt.clone();
                now += 1000;
                let t0 = Instant::now();
                let d = router.receive(m, now);
                if let Disposition::Queued(i) = d {
                    router.pump(i, 1, now);
                }
                stats.total_ns += t0.elapsed().as_nanos() as u64;
                stats.packets += 1;
                match d {
                    Disposition::Queued(_) | Disposition::Forwarded(_) => stats.forwarded += 1,
                    _ => stats.dropped += 1,
                }
            }
            for i in 0..4u32 {
                let _ = router.take_tx(i % 4);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{v6_host, Workload};
    use router_core::plugins::register_builtin_factories;
    use router_core::{Router, RouterConfig};

    fn plugin_router(gates: Vec<router_core::Gate>) -> Router {
        let mut r = Router::new(RouterConfig {
            enabled_gates: gates,
            verify_checksums: false,
            ..RouterConfig::default()
        });
        register_builtin_factories(&mut r.loader);
        r.add_route(v6_host(0), 32, 1);
        r
    }

    #[test]
    fn plugin_router_forwards_workload() {
        let mut r = plugin_router(vec![]);
        let tb = Testbench::new(&Workload::paper_table3());
        let stats = tb.run_router(&mut r, 2);
        assert_eq!(stats.packets, 600);
        assert_eq!(stats.forwarded, 600);
        assert_eq!(stats.dropped, 0);
        assert!(stats.total_ns > 0);
    }

    #[test]
    fn flow_cache_amortizes() {
        let mut r = plugin_router(router_core::gate::ALL_GATES.to_vec());
        router_core::pmgr::run_script(
            &mut r,
            "load null\ncreate null\nbind stats null 0 <*, *, *, *, *, *>",
        )
        .unwrap();
        let tb = Testbench::new(&Workload::paper_table3());
        let stats = tb.run_router(&mut r, 1);
        // 3 flows → 3 misses, 297 hits.
        assert_eq!(stats.cache_misses, 3);
        assert_eq!(stats.cache_hits, 297);
    }

    #[test]
    fn baselines_forward_too() {
        let tb = Testbench::new(&Workload::paper_table3());
        let mut be = BestEffortRouter::new(4, false);
        be.add_route(v6_host(0), 32, 1);
        let s = tb.run_best_effort(&mut be, 1);
        assert_eq!(s.forwarded, 300);

        let mut altq = AltqDrrRouter::new(4, 64, 9180, false);
        altq.add_route(v6_host(0), 32, 1);
        let s = tb.run_altq(&mut altq, 1);
        assert_eq!(s.forwarded, 300);
    }
}
