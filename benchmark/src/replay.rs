//! The layer replay of a traced run: the workload's seeded packet sequence
//! fed straight into each layer's public entry points, one layer at a
//! time, and a ladder of whole data planes under Table 3's traffic. Every
//! number here is the lowest decile over short timed slices, in plain ns:
//! per-layer metrics have no regression bound, they say which layer moved.

use crate::gen::{INTERFACES, PACKET_LEN};
use crate::host::now_ns;
use crate::oracle::{Oracle, Route};
use crate::refwd::Refwd;
use crate::run::{ref_slice_ns, Report};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Inputs, Kind, Single, Wire, Workload, BURST, WIRE_BURST};
use router_core::ip_core::{validate_and_age, Disposition, RouteEntry, RoutingTable};
use router_core::monolithic::{AltqDrrRouter, BestEffortRouter};
use rp_classifier::{Aiu, AiuConfig, BmpKind};
use rp_lpm::{AccessCounter, LpmTable, PatriciaTable, Prefix};
use rp_netdev::loopback::LoopbackDev;
use rp_netdev::NetDev;
use rp_packet::pool::MbufPool;
use rp_packet::{FlowTuple, Mbuf};
use rp_sched::{DrrScheduler, SchedPacket, Scheduler};
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Packets of the workload's stream that the layers replay.
const SAMPLE: usize = 16_384;
/// New flows per timed slice of the classifier's miss path: few enough that
/// a default table (65 536 records) never reaches its cap.
const MISSES: usize = 2_048;
/// Timed slices per layer; the lowest decile is reported.
const SLICES: usize = 15;
/// Rounds of the ladder; each runs every rung once after a reference slice.
const ROUNDS: usize = 20;

/// Lowest decile, over `SLICES` timed slices, of the time `f` takes per
/// operation; `f` performs `ops` operations.
fn quiet_ns(ops: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..SLICES)
        .map(|_| {
            let t0 = now_ns();
            f();
            (now_ns() - t0) as f64 / ops as f64
        })
        .collect();
    stats::p10(&mut v)
}

fn v4(addr: u32) -> IpAddr {
    IpAddr::V4(Ipv4Addr::from(addr))
}

/// The first `SAMPLE` packets of the workload's stream: bytes, mbufs,
/// destination addresses.
fn sample(kind: Kind, inputs: &Inputs) -> (Vec<[u8; PACKET_LEN]>, Vec<Mbuf>, Vec<u32>) {
    let packets: Vec<[u8; PACKET_LEN]> = (0..SAMPLE as u64)
        .map(|pos| inputs.traffic.packet(kind.flow_at(inputs, pos)).0)
        .collect();
    let mbufs = packets.iter().map(|p| Mbuf::new(p.to_vec(), 0)).collect();
    let dsts = packets
        .iter()
        .map(|p| u32::from_be_bytes([p[16], p[17], p[18], p[19]]))
        .collect();
    (packets, mbufs, dsts)
}

pub fn run(workload: &str, inputs: &Arc<Inputs>, report: &mut Report) {
    let kind = Kind::of(workload);
    let (packets, mut mbufs, dsts) = sample(kind, inputs);

    packet_layer(&packets, &mbufs, report);
    classifier_layer(kind, inputs, &mut mbufs, report);
    lpm_and_core_layers(inputs, &dsts, &mut mbufs, report);
    sched_layer(report);
    ring_layer(report);
    netdev_layer(&packets, report);
    ladder(inputs, report);
}

/// `packet`: pool acquire + recycle, and 5-tuple extraction.
fn packet_layer(packets: &[[u8; PACKET_LEN]], mbufs: &[Mbuf], report: &mut Report) {
    let mut pool = MbufPool::default();
    report.set(
        "packet.pool_ns",
        quiet_ns(packets.len(), || {
            for p in packets {
                let m = pool.mbuf_from(p, 0);
                pool.recycle(black_box(m));
            }
        }),
    );
    report.set(
        "packet.tuple_ns",
        quiet_ns(mbufs.len(), || {
            for m in mbufs {
                black_box(FlowTuple::from_mbuf(m).expect("generated packets parse"));
            }
        }),
    );
}

/// `classifier`: a stand-alone AIU with the workload's filters and
/// flow-table configuration, classifying the workload's tuple sequence.
fn classifier_layer(kind: Kind, inputs: &Inputs, mbufs: &mut [Mbuf], report: &mut Report) {
    let flow_table = kind.config().flow_table;
    let mut aiu: Aiu<u32> = Aiu::new(AiuConfig {
        gates: flow_table.gates,
        flow_table,
        bmp: BmpKind::Bspl,
    });
    for (gate, spec) in kind.bindings(inputs).1 {
        let _ = aiu.install_filter(gate.index(), spec, 1);
    }

    // Filter-table cost of a first packet, in memory accesses: exact.
    let tuples: Vec<FlowTuple> = mbufs
        .iter()
        .map(|m| FlowTuple::from_mbuf(m).expect("generated packets parse"))
        .collect();
    let accesses: u64 = tuples
        .iter()
        .map(|t| {
            (0..aiu.gates())
                .map(|g| aiu.filter_table(g).lookup_with_stats(t).1.total())
                .sum::<u64>()
        })
        .sum();
    report.set(
        "classifier.dag_accesses",
        accesses as f64 / tuples.len() as f64,
    );

    // Hits: every flow of the sample is live after the first pass.
    let mut classify_all = |aiu: &mut Aiu<u32>| {
        for m in mbufs.iter_mut() {
            black_box(aiu.classify_mbuf(m).expect("generated packets parse"));
        }
    };
    classify_all(&mut aiu);
    report.set(
        "classifier.flow_hit_ns",
        quiet_ns(tuples.len(), || classify_all(&mut aiu)),
    );

    // Misses: flows never seen before (sources outside the generator's
    // 11.0.0.0/8), each one a DAG lookup per gate and an insert. A table
    // that evicts by LRU at a small cap (`churn`) is filled to the cap
    // first, so that every miss also evicts, as it does in the workload; the
    // other tables stay below their caps, as they do in theirs.
    let mut fresh = 0x0C00_0000u32;
    let mut miss = |aiu: &mut Aiu<u32>, n: usize| {
        for t in tuples.iter().cycle().take(n) {
            fresh += 1;
            let t = FlowTuple {
                src: v4(fresh),
                ..*t
            };
            black_box(aiu.classify(&t));
        }
    };
    if flow_table.lru_evict && flow_table.max_records <= 1 << 16 {
        miss(&mut aiu, flow_table.max_records);
    }
    report.set(
        "classifier.flow_miss_ns",
        quiet_ns(MISSES, || miss(&mut aiu, MISSES)),
    );
}

/// `lpm`: the uncached trie walk on the workload's destinations, in ns and
/// in memory accesses. `core`: header validation and the cached FIB
/// lookup.
fn lpm_and_core_layers(inputs: &Inputs, dsts: &[u32], mbufs: &mut [Mbuf], report: &mut Report) {
    let counter = AccessCounter::new();
    let mut trie: PatriciaTable<u32, u32> = PatriciaTable::with_counter(counter.clone());
    let mut table = RoutingTable::new();
    for &(bits, len, tx_if) in inputs.fib.iter() {
        trie.insert(Prefix::new(bits, len), tx_if);
        table.add(v4(bits), len, RouteEntry { tx_if });
    }
    trie.repack();
    table.optimize();

    let ((), charged) = counter.measure(|| {
        for &d in dsts {
            black_box(trie.lookup(d));
        }
    });
    report.set("lpm.accesses", charged as f64 / dsts.len() as f64);
    report.set(
        "lpm.lookup_ns",
        quiet_ns(dsts.len(), || {
            for &d in dsts {
                black_box(table.lookup(v4(d)));
            }
        }),
    );
    report.set(
        "core.fib_cached_ns",
        quiet_ns(dsts.len(), || {
            for &d in dsts {
                black_box(table.lookup_cached(v4(d)));
            }
        }),
    );
    report.set(
        "core.validate_ns",
        quiet_ns(mbufs.len(), || {
            for m in mbufs.iter_mut() {
                m.data_mut()[8] = 64;
                black_box(validate_and_age(m, false).expect("generated packets are valid"));
            }
        }),
    );
}

/// `sched`: the DRR scheduler called directly, a burst enqueued then
/// dequeued, 64 flows.
fn sched_layer(report: &mut Report) {
    let mut drr = DrrScheduler::new(1500, 512);
    let mut cookie = 0u64;
    report.set(
        "sched.drr_ns",
        quiet_ns(SAMPLE, || {
            for _ in 0..SAMPLE / BURST {
                for _ in 0..BURST {
                    cookie += 1;
                    let pkt = SchedPacket {
                        flow: (cookie / 8 % 64) as u32,
                        len: PACKET_LEN as u32,
                        arrival_ns: 0,
                        cookie,
                    };
                    black_box(drr.enqueue(pkt, 0));
                }
                while let Some(p) = drr.dequeue(0) {
                    black_box(p);
                }
            }
        }),
    );
}

/// `ring`: stage/publish/pop on one thread at batch 64, and the round trip
/// that wakes a parked consumer on another thread.
fn ring_layer(report: &mut Report) {
    const BATCH: usize = 64;
    let (mut tx, mut rx) = rp_ring::spsc::<u64>(1024);
    report.set(
        "ring.push_pop_ns",
        quiet_ns(SAMPLE, || {
            for _ in 0..SAMPLE / BATCH {
                for i in 0..BATCH as u64 {
                    tx.stage(i).expect("ring has room for one batch");
                }
                tx.publish();
                rx.pop_batch(BATCH, &mut |v| {
                    black_box(v);
                });
            }
        }),
    );

    const WAKES: u64 = 200;
    let (mut tx, mut rx) = rp_ring::spsc::<u64>(64);
    let seen = Arc::new(AtomicU64::new(0));
    let consumer = {
        // Release here pairs with the Acquire load in the producer's wait
        // below; the counter publishes no other data.
        let seen = Arc::clone(&seen);
        std::thread::spawn(move || loop {
            match rx.wait_nonempty(0, 0, Duration::from_millis(100)) {
                rp_ring::WaitOutcome::Disconnected => return,
                _ => {
                    rx.pop_batch(64, &mut |v| seen.store(v, Ordering::Release));
                }
            }
        })
    };
    let mut trips: Vec<f64> = Vec::new();
    for i in 1..=WAKES {
        // Long enough for the consumer to park again.
        std::thread::sleep(Duration::from_micros(200));
        let t0 = now_ns();
        tx.try_push(i).expect("ring is empty");
        while seen.load(Ordering::Acquire) != i {
            // The consumer may share this CPU: let it run.
            std::thread::yield_now();
        }
        trips.push((now_ns() - t0) as f64 / 1e3);
    }
    drop(tx);
    consumer.join().expect("ring consumer thread");
    report.set("ring.wake_us", stats::median(&mut trips));
}

/// `netdev`: the loopback device's batched transmit and receive called
/// directly, 256 frames a batch.
fn netdev_layer(packets: &[[u8; PACKET_LEN]], report: &mut Report) {
    let (mut a, mut b) = LoopbackDev::pair_framed("a", "b", 1024);
    let mut pool = MbufPool::default();
    let mut batch: Vec<Mbuf> = Vec::with_capacity(WIRE_BURST);
    let (mut tx_ns, mut rx_ns) = (Vec::new(), Vec::new());
    for _ in 0..SLICES {
        let (mut tx, mut rx) = (0, 0);
        for chunk in packets.chunks(WIRE_BURST) {
            batch.extend(chunk.iter().map(|p| pool.mbuf_from(p, 0)));
            let t0 = now_ns();
            a.tx_batch(&mut batch, &mut pool);
            let t1 = now_ns();
            b.rx_batch(WIRE_BURST, &mut |p| {
                black_box(p);
            });
            tx += t1 - t0;
            rx += now_ns() - t1;
        }
        tx_ns.push(tx as f64 / packets.len() as f64);
        rx_ns.push(rx as f64 / packets.len() as f64);
    }
    report.set("netdev.dev_tx_ns", stats::p10(&mut tx_ns));
    report.set("netdev.dev_rx_ns", stats::p10(&mut rx_ns));
}

/// The monolithic baselines of Table 3, driven in the same staged bursts
/// as the plugin router.
struct Mono<R> {
    router: R,
    pool: MbufPool,
    inputs: Arc<Inputs>,
    pos: u64,
    rx: Vec<Mbuf>,
}

impl<R> Mono<R> {
    fn new(router: R, inputs: &Arc<Inputs>) -> Mono<R> {
        Mono {
            router,
            pool: MbufPool::default(),
            inputs: Arc::clone(inputs),
            pos: 0,
            rx: Vec::with_capacity(BURST),
        }
    }

    /// `bursts` bursts; `receive` and `drain` are the router's own entry
    /// points. Returns packets offered and packets that went wrong.
    fn slice(
        &mut self,
        bursts: usize,
        receive: impl Fn(&mut R, Mbuf) -> Disposition,
        drain: impl Fn(&mut R, u32) -> Vec<Mbuf>,
    ) -> workloads::Slice {
        let mut failed = 0;
        for _ in 0..bursts {
            let mut want = [0u32; BURST];
            for w in want.iter_mut() {
                let flow = Kind::Gates3.flow_at(&self.inputs, self.pos);
                self.pos += 1;
                let (bytes, tx_if) = self.inputs.traffic.packet(flow);
                *w = tx_if;
                self.rx.push(self.pool.mbuf_from(&bytes, 0));
            }
            for (m, tx_if) in self.rx.drain(..).zip(want) {
                let d = receive(&mut self.router, m);
                let ok =
                    matches!(d, Disposition::Forwarded(i) | Disposition::Queued(i) if i == tx_if);
                failed += u64::from(!ok);
            }
            let mut out = 0;
            for i in 0..INTERFACES {
                for m in drain(&mut self.router, i) {
                    out += 1;
                    self.pool.recycle(m);
                }
            }
            failed += (BURST as u64).abs_diff(out);
        }
        workloads::Slice {
            packets: (bursts * BURST) as u64,
            failed,
        }
    }
}

/// One rung of the ladder: runs a slice of its data plane.
type Rung<'a> = Box<dyn FnMut() -> workloads::Slice + 'a>;

/// Table 3 as a ladder: whole data planes under the same 64-flow traffic,
/// one slice each per round after a reference slice, each loaded with the
/// prefixes that cover the traffic's destinations. The differences between
/// rungs are the price list of the architecture.
fn ladder(inputs: &Arc<Inputs>, report: &mut Report) {
    // Table 3's traffic whatever the workload: its first 64 destinations.
    let oracle = Oracle::new(&inputs.fib);
    let mut dsts = inputs.traffic.dsts.clone();
    dsts.truncate(64);
    let mut fib: Vec<Route> = dsts.iter().flat_map(|&(d, _)| oracle.covering(d)).collect();
    fib.sort_unstable();
    fib.dedup();
    drop(oracle);
    let few = Arc::new(Inputs {
        fib: Arc::new(fib),
        traffic: crate::gen::Traffic { dsts },
        schedule: Vec::new(),
        filters: Vec::new(),
    });

    let mut gates3 = Single::setup(Kind::Gates3, Arc::clone(&few));
    let mut no_gates = Single::setup(Kind::NoGates, Arc::clone(&few));
    let mut plugin_drr = Single::setup(Kind::Drr, Arc::clone(&few));
    let mut wire = Wire::setup(Arc::clone(&few));
    let mut best_effort = Mono::new(BestEffortRouter::new(INTERFACES as usize, false), &few);
    let mut altq = Mono::new(
        AltqDrrRouter::new(INTERFACES as usize, 64, 1500, false),
        &few,
    );
    for &(bits, len, tx_if) in few.fib.iter() {
        best_effort.router.add_route(v4(bits), len, tx_if);
        altq.router.add_route(v4(bits), len, tx_if);
    }

    let mut rungs: Vec<(&str, Rung<'_>)> = vec![
        (
            "gates3",
            Box::new(|| gates3.work_slice(&mut Tracer::default())),
        ),
        (
            "no_gates",
            Box::new(|| no_gates.work_slice(&mut Tracer::default())),
        ),
        (
            "plugin_drr",
            Box::new(|| plugin_drr.work_slice(&mut Tracer::default())),
        ),
        ("wire", Box::new(|| wire.work_slice(&mut Tracer::default()))),
        (
            "best_effort",
            Box::new(|| best_effort.slice(2048, |r, m| r.receive(m), |r, i| r.take_tx(i))),
        ),
        (
            "altq_drr",
            Box::new(|| {
                altq.slice(
                    2048,
                    |r, m| r.receive(m, 0),
                    |r, i| {
                        r.pump(i, usize::MAX, 0);
                        r.take_tx(i)
                    },
                )
            }),
        ),
    ];

    let mut refwd = Refwd::default();
    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    let mut x: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    for _ in 0..ROUNDS {
        let ref_ns = ref_slice_ns(&mut refwd);
        for (i, (_, rung)) in rungs.iter_mut().enumerate() {
            let t0 = now_ns();
            let s = rung();
            let per_pkt = (now_ns() - t0) as f64 / s.packets as f64;
            ns[i].push(per_pkt);
            x[i].push(per_pkt / ref_ns);
            report.attempted += s.packets;
            report.failed += s.failed;
        }
    }
    let names: Vec<&str> = rungs.iter().map(|(name, _)| *name).collect();
    drop(rungs);
    let cost = |name: &str, of: &mut [Vec<f64>]| {
        let i = names.iter().position(|n| *n == name).expect("rung exists");
        stats::p10(&mut of[i])
    };
    let gates3_ns = cost("gates3", &mut ns);
    report.set(
        "core.gate_ns",
        (gates3_ns - cost("no_gates", &mut ns)) / 3.0,
    );
    report.set("core.mono_ns", cost("best_effort", &mut ns));
    report.set("core.tax_ns", gates3_ns - cost("best_effort", &mut ns));
    report.set("sched.mono_drr_ns", cost("altq_drr", &mut ns));
    report.set(
        "sched.plugin_vs_mono",
        cost("plugin_drr", &mut ns) / cost("altq_drr", &mut ns),
    );
    report.set(
        "dataplane.tax_x",
        cost("wire", &mut x) - cost("gates3", &mut x),
    );
    report.set("dataplane.dispatch_ns", dispatch_ns(&few));
}

/// `dataplane`: what `ParallelRouter::receive_batch` costs the dispatcher
/// per packet, with pre-built 256-packet carriers and one shard.
fn dispatch_ns(few: &Arc<Inputs>) -> f64 {
    let mut pr = workloads::parallel_plane(few);

    let mut pos = 0u64;
    let mut done: Vec<Mbuf> = Vec::new();
    let batches = SAMPLE / WIRE_BURST;
    let mut v: Vec<f64> = (0..SLICES)
        .map(|_| {
            let mut spent = 0;
            for _ in 0..batches {
                let mut carrier = pr.batch_carrier();
                for _ in 0..WIRE_BURST {
                    let (bytes, _) = few.traffic.packet(Kind::Gates3.flow_at(few, pos));
                    pos += 1;
                    carrier.push(pr.mbuf_with(&bytes, 0));
                }
                let t0 = now_ns();
                pr.receive_batch(carrier);
                spent += now_ns() - t0;
                pr.flush();
                for i in 0..INTERFACES {
                    pr.take_tx_into(i, &mut done);
                }
                for m in done.drain(..) {
                    pr.recycle_mbuf(m);
                }
            }
            spent as f64 / (batches * WIRE_BURST) as f64
        })
        .collect();
    stats::p10(&mut v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact per-layer counts repeat between two same-seed runs.
    #[test]
    fn access_counts_repeat_exactly() {
        let counts = |seed: u64| {
            let inputs = Arc::new(Inputs::generate("churn", seed, 30_000));
            let mut report = Report::default();
            let (_, mut mbufs, dsts) = sample(Kind::Churn, &inputs);
            classifier_layer(Kind::Churn, &inputs, &mut mbufs, &mut report);
            lpm_and_core_layers(&inputs, &dsts, &mut mbufs, &mut report);
            (
                report.get("classifier.dag_accesses"),
                report.get("lpm.accesses"),
            )
        };
        let (a, b, c) = (counts(3), counts(3), counts(4));
        assert_eq!(a, b);
        assert!(a.0 > 0.0 && a.1 > 0.0);
        assert_ne!(a, c, "another seed, other filters and routes");
    }
}
