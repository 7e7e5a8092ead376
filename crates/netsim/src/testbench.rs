//! Workload replay: plays a workload through a router configuration
//! (any data plane, through one driver loop, or a monolithic baseline)
//! and counts what became of each packet. It keeps no time; the timed
//! harness is the `benchmark/` package.

use crate::traffic::Workload;
use router_core::ip_core::Disposition;
use router_core::monolithic::{AltqDrrRouter, BestEffortRouter};
use router_core::DataPlane;
use rp_packet::mbuf::IfIndex;
use rp_packet::Mbuf;

/// Results of one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Packets offered.
    pub packets: u64,
    /// Packets forwarded: put on the wire by [`Testbench::run`], given a
    /// forwarding disposition by a baseline.
    pub forwarded: u64,
    /// Packets offered and not forwarded.
    pub dropped: u64,
}

/// The testbench: replays workloads and accumulates statistics.
pub struct Testbench {
    /// Prebuilt packet sequence (built once; cloned per repetition).
    packets: Vec<Mbuf>,
}

impl Testbench {
    /// Build from a workload.
    pub fn new(workload: &Workload) -> Self {
        workload.build().into()
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

    /// Replay through a data plane `reps` times, the driver loop of a
    /// real port: ingress buffers come from the plane's pool, up to
    /// `batch` packets go in per [`receive_burst`](DataPlane::receive_burst),
    /// and transmitted packets go back to the pool, after each burst and
    /// after the [`flush`](DataPlane::flush) that ends a repetition.
    /// `forwarded` counts what reached the wire. The replayed packets
    /// carry no ingress stamp, so no clock is read. Once the pool is warm
    /// the loop allocates nothing but its one scratch vector.
    pub fn run<P: DataPlane>(&self, plane: &mut P, reps: usize, batch: usize) -> RunStats {
        let batch = batch.max(1);
        let mut burst = Vec::with_capacity(batch);
        let mut forwarded = 0;
        for _ in 0..reps {
            for chunk in self.packets.chunks(batch) {
                let pool = plane.pool_mut();
                burst.extend(chunk.iter().map(|p| pool.mbuf_from(p.data(), p.rx_if)));
                plane.receive_burst(&mut burst, 0);
                forwarded += recycle_tx(plane, &mut burst);
            }
            plane.flush();
            forwarded += recycle_tx(plane, &mut burst);
        }
        let packets = (reps * self.packets.len()) as u64;
        RunStats {
            packets,
            forwarded,
            dropped: packets.saturating_sub(forwarded),
        }
    }

    /// Replay through the best-effort baseline.
    pub fn run_best_effort(&self, router: &mut BestEffortRouter, reps: usize) -> RunStats {
        let mut stats = RunStats::default();
        for _ in 0..reps {
            for pkt in &self.packets {
                let d = router.receive(pkt.clone());
                stats.packets += 1;
                match d {
                    Disposition::Forwarded(_) => stats.forwarded += 1,
                    _ => stats.dropped += 1,
                }
            }
            for i in 0..router.interface_count() {
                router.take_tx(i as IfIndex);
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
                now += 1000;
                let d = router.receive(pkt.clone(), now);
                if let Disposition::Queued(i) = d {
                    router.pump(i, 1, now);
                }
                stats.packets += 1;
                match d {
                    Disposition::Queued(_) | Disposition::Forwarded(_) => stats.forwarded += 1,
                    _ => stats.dropped += 1,
                }
            }
            for i in 0..router.interface_count() {
                router.take_tx(i as IfIndex);
            }
        }
        stats
    }
}

/// Take every interface's transmitted packets into `scratch` and hand
/// their buffers back to the plane's pool; returns how many there were.
fn recycle_tx<P: DataPlane>(plane: &mut P, scratch: &mut Vec<Mbuf>) -> u64 {
    for i in 0..plane.interface_count() {
        plane.take_tx_into(i as IfIndex, scratch);
    }
    let n = scratch.len() as u64;
    for m in scratch.drain(..) {
        plane.pool_mut().recycle(m);
    }
    n
}

impl From<Vec<Mbuf>> for Testbench {
    /// Replay a prebuilt packet sequence.
    fn from(packets: Vec<Mbuf>) -> Self {
        Testbench { packets }
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
        let stats = tb.run(&mut r, 2, 1);
        assert_eq!(stats.packets, 600);
        assert_eq!(stats.forwarded, 600);
        assert_eq!(stats.dropped, 0);
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
        assert_eq!(tb.run(&mut r, 1, 64).forwarded, 300);
        // 3 flows → 3 misses, 297 hits.
        assert_eq!((r.flow_stats().misses, r.flow_stats().hits), (3, 297));
    }

    /// Every interface a baseline has is drained after a run, whatever
    /// their number, with the route on the last one.
    #[test]
    fn baselines_forward_too() {
        let tb = Testbench::new(&Workload::paper_table3());
        for n in [2, 4, 6] {
            let last = n as IfIndex - 1;
            let mut be = BestEffortRouter::new(n, false);
            be.add_route(v6_host(0), 32, last);
            assert_eq!(tb.run_best_effort(&mut be, 1).forwarded, 300, "{n}");
            assert!((0..=last).all(|i| be.take_tx(i).is_empty()), "{n}");

            let mut altq = AltqDrrRouter::new(n, 64, 9180, false);
            altq.add_route(v6_host(0), 32, last);
            assert_eq!(tb.run_altq(&mut altq, 1).forwarded, 300, "{n}");
            assert!((0..=last).all(|i| altq.take_tx(i).is_empty()), "{n}");
        }
    }
}
