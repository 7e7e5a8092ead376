//! The five workloads. Each one drives public functions of the crates in a
//! closed loop — one generator thread, back to back — in bursts staged as
//! a device driver stages them: receive a burst into pooled buffers, run
//! it through the data path, drain and recycle the egress.
//!
//! Why these five (one line each is also in `BENCHMARK.json`):
//! * `gates3` — paper Table 3 row 2. Pure cached fast path: `core` gate
//!   dispatch does the work; the classifier's slow path, the trie, the
//!   scheduler, the parallel plane and the devices do none.
//! * `drr` — Table 3 row 4. `sched` does most of the work and `core` is
//!   used differently (queued egress, `pump`), so a gate-dispatch gain
//!   must not cost the scheduler path.
//! * `churn` — a quarter of all packets open a new flow: the classifier's
//!   write path (DAG lookups at three gates, insert, LRU evict) and `lpm`
//!   (FIB-cache misses, trie walks) do most of the work.
//! * `scale1m` — the same flow table used for reads with a working set far
//!   beyond the CPU caches: a million live flows, no inserts or evictions
//!   while measured. A `churn` write-path gain that costs reads shows here.
//! * `wire_par` — `gates3`'s router and traffic behind the parallel plane
//!   and in-memory devices: `dataplane`, `ring` and `netdev` do most of
//!   the work, and the difference to `gates3` is the dispatch and device
//!   tax.

use crate::gen::{self, Rng, Traffic, INTERFACES, PACKET_LEN};
use crate::oracle::{Oracle, Route};
use crate::trace::Tracer;
use router_core::dataplane::control::DeviceStats;
use router_core::ip_core::{DataPathStats, Disposition, FibCacheStats};
use router_core::loader::PluginLoader;
use router_core::plugins::register_builtin_factories;
use router_core::pmgr::run_script;
use router_core::{
    ControlPlane, Gate, InstanceId, ParallelRouter, ParallelRouterConfig, PluginMsg, Router,
    RouterConfig,
};
use rp_classifier::flow_table::FlowTableStats;
use rp_classifier::{FilterSpec, FlowTableConfig};
use rp_netdev::ioplane::{IoLedger, IoPlane};
use rp_netdev::loopback::LoopbackDev;
use rp_netdev::NetDev;
use rp_netsim::traffic::random_filters;
use rp_packet::pool::MbufPool;
use rp_packet::Mbuf;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 5] = ["gates3", "drr", "churn", "scale1m", "wire_par"];

/// Packets per burst on the single plane, frames per burst on the wire.
pub const BURST: usize = 32;
pub const WIRE_BURST: usize = 256;
/// Paper §3.2: packets of a flow arrive in trains.
const TRAIN: u64 = 8;
const FEW_FLOWS: u64 = 64;
const CHURN_TRAIN: u64 = 4;
const CHURN_WARM_FLOWS: u64 = 16_384;
const CHURN_RECORDS: usize = 8_192;
const CHURN_FILTERS: usize = 2_048;
const SCALE_FLOWS: u64 = 1_000_000;
const SCALE_HOT_DSTS: usize = 512;

/// Everything a run generates from its seed before the clock starts.
pub struct Inputs {
    pub fib: Arc<Vec<Route>>,
    pub traffic: Traffic,
    /// `scale1m` only: the flow of each packet position.
    pub schedule: Vec<u32>,
    /// `churn` only: the random filters of the three gates.
    pub filters: Vec<Vec<FilterSpec>>,
}

impl Inputs {
    pub fn generate(workload: &str, seed: u64, prefixes: usize) -> Inputs {
        let fib = gen::fib(prefixes, seed);
        let oracle = Oracle::new(&fib);
        let mut rng = Rng::new(seed ^ 0x0D15_EA5E);
        let dsts = match workload {
            "churn" => 1 << 18,
            "scale1m" => SCALE_HOT_DSTS,
            _ => FEW_FLOWS as usize,
        };
        let traffic = Traffic::new(&fib, &oracle, dsts, &mut rng);
        let schedule = if workload == "scale1m" {
            gen::elephants_and_mice(SCALE_FLOWS, 1 << 19, &mut rng)
        } else {
            Vec::new()
        };
        // The policy is the same on every seed (how far random filters
        // nest, and so how large the DAGs grow, varies widely between
        // filter sets); routes and traffic are what the seed varies.
        let filters = if workload == "churn" {
            (0..3)
                .map(|g| random_filters(CHURN_FILTERS, false, 0x0F11_7E25 + g))
                .collect()
        } else {
            Vec::new()
        };
        Inputs {
            fib: Arc::new(fib),
            traffic,
            schedule,
            filters,
        }
    }
}

/// Counters read from the public statistics of the crates; metrics are
/// differences of two snapshots.
#[derive(Clone, Copy, Default)]
pub struct Snapshot {
    pub data: DataPathStats,
    pub flows: FlowTableStats,
    pub fib: FibCacheStats,
    pub pool_fresh: u64,
    pub flow_mem_bytes: usize,
    /// Parallel plane only.
    pub shard_packets: u64,
    pub shard_busy_ns: u64,
    /// The ingress device.
    pub ingress_dev: DeviceStats,
    pub device_drops: u64,
    pub ledger: IoLedger,
}

/// Outcome of one slice: packets offered and how many of them were not
/// delivered as the oracle expects.
#[derive(Clone, Copy, Default)]
pub struct Slice {
    pub packets: u64,
    pub failed: u64,
}

pub trait Workload {
    /// One throughput slice of a fixed number of packets.
    fn work_slice(&mut self, tr: &mut Tracer) -> Slice;
    /// One latency slice: appends one service time in ns per sample.
    fn latency_slice(&mut self, samples: &mut Vec<u32>) -> Slice;
    fn snapshot(&mut self) -> Snapshot;
    /// Send `sample` packets through and return, for each, the bytes that
    /// came out and the interface they came out of (`None` if lost).
    fn send_sample(&mut self, sample: &[[u8; PACKET_LEN]]) -> Vec<Option<(u32, Vec<u8>)>>;
    /// The flows of the next `n` packet trains, for drawing a sample.
    fn sample_flows(&self, n: usize) -> Vec<u64>;
}

fn load_fib(r: &mut Router, fib: &[Route]) {
    for &(bits, len, tx_if) in fib {
        r.add_route(IpAddr::V4(Ipv4Addr::from(bits)), len, tx_if);
    }
    r.optimize_routes();
}

/// A router configuration with the traffic pattern that goes with it.
/// `wire_par` is `Gates3` behind the parallel plane; `NoGates` exists only
/// as a rung of the layer replay's ladder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Gates3,
    Drr,
    Churn,
    Scale1m,
    NoGates,
}

impl Kind {
    pub fn of(workload: &str) -> Kind {
        match workload {
            "drr" => Kind::Drr,
            "churn" => Kind::Churn,
            "scale1m" => Kind::Scale1m,
            _ => Kind::Gates3,
        }
    }

    pub fn config(self) -> RouterConfig {
        let flow_table = |max_buckets, max_records| FlowTableConfig {
            buckets: 1024,
            max_buckets,
            initial_records: 4096,
            max_records,
            gates: 6,
            max_idle_ns: 0,
            lru_evict: true,
        };
        let three = vec![Gate::Firewall, Gate::IpSecurity, Gate::Stats];
        let (enabled_gates, flow_table) = match self {
            Kind::Gates3 => (three, RouterConfig::default().flow_table),
            Kind::Drr => (vec![Gate::Scheduling], RouterConfig::default().flow_table),
            Kind::Churn => (three, flow_table(1 << 17, CHURN_RECORDS)),
            Kind::Scale1m => (
                RouterConfig::default().enabled_gates,
                flow_table(1 << 21, SCALE_FLOWS as usize + 1024),
            ),
            Kind::NoGates => (Vec::new(), RouterConfig::default().flow_table),
        };
        RouterConfig {
            // As every bench of the repository: the paper's kernel trusts
            // its NICs, and so does the reference forwarder.
            verify_checksums: false,
            enabled_gates,
            flow_table,
            ..RouterConfig::default()
        }
    }

    /// The plugin whose one instance serves every gate, and the filters
    /// that bind it. Table 3's set-up: a wildcard filter per gate plus 16
    /// background filters that match none of the traffic ("the system had
    /// 16 filters installed"); `churn` adds 2 048 random filters per gate.
    pub fn bindings(self, inputs: &Inputs) -> (&'static str, Vec<(Gate, FilterSpec)>) {
        let parse = |s: String| -> FilterSpec { s.parse().expect("filter literal") };
        let any = || parse("*, *, *, *, *, *".into());
        let background = |gate: Gate| {
            (0..16).map(move |i| {
                let spec = format!("203.0.113.{i}, *, TCP, *, {}, *", 20_000 + i);
                (gate, spec.parse().expect("filter literal"))
            })
        };
        let three = [Gate::Firewall, Gate::IpSecurity, Gate::Stats];
        match self {
            Kind::Gates3 => {
                let mut f: Vec<_> = three.iter().map(|&g| (g, any())).collect();
                f.extend(background(Gate::Firewall));
                ("null", f)
            }
            Kind::Drr => {
                let mut f = vec![(Gate::Scheduling, parse("*, *, UDP, *, *, *".into()))];
                f.extend(background(Gate::Scheduling));
                ("drr", f)
            }
            Kind::Churn => {
                let mut f: Vec<_> = three.iter().map(|&g| (g, any())).collect();
                for (&g, random) in three.iter().zip(&inputs.filters) {
                    f.extend(random.iter().map(|spec| (g, spec.clone())));
                }
                ("null", f)
            }
            Kind::Scale1m => ("null", vec![(Gate::Stats, any())]),
            Kind::NoGates => ("null", Vec::new()),
        }
    }

    /// Load, create and bind on any control plane (one router or many
    /// shards).
    fn configure<C: ControlPlane>(self, cp: &mut C, inputs: &Inputs) {
        let (plugin, filters) = self.bindings(inputs);
        let script = match self {
            Kind::Drr => {
                let attach: String = (0..INTERFACES)
                    .map(|i| format!("attach {i} drr 0\n"))
                    .collect();
                format!("load drr\ncreate drr quantum=1500 limit=512\n{attach}")
            }
            _ => format!("load {plugin}\ncreate {plugin}\n"),
        };
        run_script(cp, &script).expect("load and create the plugin");
        for (gate, filter) in filters {
            // Random port fields now and then collide ambiguously and the
            // DAG refuses them; real policies are curated.
            let _ = cp.cp_send_message(
                plugin,
                PluginMsg::RegisterInstance {
                    id: InstanceId(0),
                    gate,
                    filter,
                },
            );
        }
    }

    /// The flow of the packet at position `pos` of the workload's stream.
    pub fn flow_at(self, inputs: &Inputs, pos: u64) -> u64 {
        match self {
            Kind::Gates3 | Kind::Drr | Kind::NoGates => (pos / TRAIN) % FEW_FLOWS,
            Kind::Churn => pos / CHURN_TRAIN,
            Kind::Scale1m => {
                u64::from(inputs.schedule[(pos % inputs.schedule.len() as u64) as usize])
            }
        }
    }

    /// What `receive` must answer for a packet the oracle routes to `tx_if`.
    fn want(self, tx_if: u32) -> Disposition {
        match self {
            Kind::Drr => Disposition::Queued(tx_if),
            _ => Disposition::Forwarded(tx_if),
        }
    }
}

/// The workloads on the single-threaded `Router`.
pub struct Single {
    kind: Kind,
    router: Router,
    inputs: Arc<Inputs>,
    pos: u64,
    slice_bursts: usize,
    latency_samples: usize,
    rx: Vec<Mbuf>,
    done: Vec<Mbuf>,
    expect: [u32; BURST],
}

impl Single {
    /// Router construction, plugin load/create/bind, filter install, FIB
    /// load and optimise, flow warm — everything `setup_s` times.
    pub fn setup(kind: Kind, inputs: Arc<Inputs>) -> Single {
        let mut router = Router::new(kind.config());
        register_builtin_factories(&mut router.loader);
        kind.configure(&mut router, &inputs);
        load_fib(&mut router, &inputs.fib);

        // Slices of 15–25 ms; latency slices of at least 1 000 samples.
        let (slice_bursts, latency_samples, warm_flows) = match kind {
            Kind::Gates3 | Kind::NoGates => (3072, 16_384, FEW_FLOWS),
            Kind::Drr => (2048, 16_384, FEW_FLOWS),
            Kind::Churn => (384, 8_192, CHURN_WARM_FLOWS),
            Kind::Scale1m => (2048, 16_384, SCALE_FLOWS),
        };
        let mut w = Single {
            kind,
            router,
            inputs,
            pos: 0,
            slice_bursts,
            latency_samples,
            rx: Vec::with_capacity(BURST),
            done: Vec::with_capacity(BURST),
            expect: [0; BURST],
        };
        // Warm: the first packet of every flow, so that every flow is live
        // (and, at a million flows, the table has resized all the way up).
        let mut off = Tracer::default();
        for first in (0..warm_flows).step_by(BURST) {
            w.burst(&mut off, std::array::from_fn(|i| first + i as u64));
        }
        if kind == Kind::Churn {
            w.pos = CHURN_WARM_FLOWS * CHURN_TRAIN;
        }
        w
    }

    fn flow_at(&self, pos: u64) -> u64 {
        self.kind.flow_at(&self.inputs, pos)
    }

    /// One burst of the given flows, staged as a driver stages it. Returns
    /// the packets that went wrong.
    fn burst(&mut self, tr: &mut Tracer, flows: [u64; BURST]) -> u64 {
        let b = tr.burst();
        let s = tr.open("core.ingress", b);
        for (flow, expect) in flows.into_iter().zip(&mut self.expect) {
            let (bytes, tx_if) = self.inputs.traffic.packet(flow);
            *expect = tx_if;
            self.rx.push(self.router.mbuf_with(&bytes, 0));
        }
        tr.close(s);

        let mut failed = 0;
        let s = tr.open("core.receive", b);
        for (m, &tx_if) in self.rx.drain(..).zip(&self.expect) {
            failed += u64::from(self.router.receive(m) != self.kind.want(tx_if));
        }
        tr.close(s);

        if self.kind == Kind::Drr {
            // The transmit interrupt: drain every interface's scheduler, so
            // that several DRR queues are active at once within a burst.
            let s = tr.open("sched.pump", b);
            for i in 0..INTERFACES {
                self.router.pump(i, usize::MAX);
            }
            tr.close(s);
        }

        let s = tr.open("core.egress", b);
        failed += self.drain_egress(BURST);
        tr.close(s);
        tr.close(b);
        failed
    }

    /// Take what the interfaces transmitted and recycle it; the shortfall
    /// against `want` packets counts as failed.
    fn drain_egress(&mut self, want: usize) -> u64 {
        for i in 0..INTERFACES {
            self.router.take_tx_into(i, &mut self.done);
        }
        let short = want.abs_diff(self.done.len()) as u64;
        for m in self.done.drain(..) {
            self.router.recycle_mbuf(m);
        }
        short
    }
}

impl Workload for Single {
    fn work_slice(&mut self, tr: &mut Tracer) -> Slice {
        let mut failed = 0;
        for _ in 0..self.slice_bursts {
            let flows = std::array::from_fn(|i| self.flow_at(self.pos + i as u64));
            failed += self.burst(tr, flows);
            self.pos += BURST as u64;
        }
        Slice {
            packets: (self.slice_bursts * BURST) as u64,
            failed,
        }
    }

    fn latency_slice(&mut self, samples: &mut Vec<u32>) -> Slice {
        let mut failed = 0;
        for n in 0..self.latency_samples {
            let (bytes, tx_if) = self.inputs.traffic.packet(self.flow_at(self.pos));
            self.pos += 1;
            let m = self.router.mbuf_with(&bytes, 0);
            let want = self.kind.want(tx_if);
            let t0 = Instant::now();
            let d = self.router.receive(m);
            if let Disposition::Queued(i) = d {
                self.router.pump(i, 1);
            }
            samples.push(t0.elapsed().as_nanos() as u32);
            failed += u64::from(d != want);
            if n % BURST == BURST - 1 {
                failed += self.drain_egress(BURST);
            }
        }
        failed += self.drain_egress(self.latency_samples % BURST);
        Slice {
            packets: self.latency_samples as u64,
            failed,
        }
    }

    fn snapshot(&mut self) -> Snapshot {
        Snapshot {
            data: self.router.stats(),
            flows: self.router.flow_stats(),
            fib: self.router.fib_cache_stats(),
            pool_fresh: self.router.pool_stats().fresh,
            flow_mem_bytes: self.router.flow_mem_bytes(),
            ..Snapshot::default()
        }
    }

    fn send_sample(&mut self, sample: &[[u8; PACKET_LEN]]) -> Vec<Option<(u32, Vec<u8>)>> {
        // One at a time, so that each output is matched to its input.
        sample
            .iter()
            .map(|bytes| {
                let m = self.router.mbuf_with(bytes, 0);
                if let Disposition::Queued(i) = self.router.receive(m) {
                    self.router.pump(i, usize::MAX);
                }
                let mut out = None;
                for i in 0..INTERFACES {
                    self.router.take_tx_into(i, &mut self.done);
                    if let Some(m) = self.done.pop() {
                        out = Some((i, m.data().to_vec()));
                        self.router.recycle_mbuf(m);
                    }
                    // More than one packet out for one in is also wrong.
                    if !self.done.is_empty() {
                        out = None;
                        self.done.clear();
                    }
                }
                out
            })
            .collect()
    }

    fn sample_flows(&self, n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| self.flow_at(self.pos + i * TRAIN))
            .collect()
    }
}

/// `gates3`'s router as a one-shard parallel plane, default ring dispatch,
/// the FIB loaded in one `control_map` closure.
pub fn parallel_plane(inputs: &Inputs) -> ParallelRouter {
    let mut template = PluginLoader::new();
    register_builtin_factories(&mut template);
    let mut pr = ParallelRouter::new(
        ParallelRouterConfig {
            shards: 1,
            router: Kind::Gates3.config(),
            // Loading 900 K routes is one long control command; the
            // default 500 ms watchdog would take the shard for dead.
            stall_timeout: Duration::from_secs(30),
            ..ParallelRouterConfig::default()
        },
        &template,
    );
    Kind::Gates3.configure(&mut pr, inputs);
    let fib = Arc::clone(&inputs.fib);
    pr.control_map(move |ctx| load_fib(&mut ctx.router, &fib));
    pr
}

/// `wire_par`: `IoPlane<ParallelRouter>` with one shard (dispatcher and
/// worker: two threads), default ring dispatch, `gates3`'s router and
/// traffic, and one in-memory framed loopback pair per interface. No
/// kernel sockets: the wire is the process's memory.
pub struct Wire {
    plane: IoPlane<ParallelRouter>,
    peers: Vec<LoopbackDev>,
    pool: MbufPool,
    inputs: Arc<Inputs>,
    pos: u64,
    tx: Vec<Mbuf>,
    slice_bursts: usize,
    latency_bursts: usize,
}

impl Wire {
    pub fn setup(inputs: Arc<Inputs>) -> Wire {
        let mut plane = IoPlane::new(parallel_plane(&inputs), WIRE_BURST);
        let mut peers = Vec::new();
        for i in 0..INTERFACES {
            let (peer, dev) =
                LoopbackDev::pair_framed(&format!("peer{i}"), &format!("lo{i}"), 1024);
            plane.bind(i, Box::new(dev));
            peers.push(peer);
        }
        let mut w = Wire {
            plane,
            peers,
            pool: MbufPool::default(),
            inputs,
            pos: 0,
            tx: Vec::with_capacity(WIRE_BURST),
            slice_bursts: 128,
            latency_bursts: 1024,
        };
        w.burst(&mut Tracer::default(), None);
        w.pos = 0;
        w
    }

    /// One burst from wire to wire: the peer of interface 0 transmits 256
    /// frames, the plane runs one duty cycle (the body of `poll()`), the
    /// peers read what came out. Returns the frames that went wrong.
    fn burst(&mut self, tr: &mut Tracer, clock: Option<&mut Vec<u32>>) -> u64 {
        let b = tr.burst();
        let mut want = [0u64; INTERFACES as usize];
        for _ in 0..WIRE_BURST {
            let (bytes, tx_if) = self
                .inputs
                .traffic
                .packet(Kind::Gates3.flow_at(&self.inputs, self.pos));
            self.pos += 1;
            want[tx_if as usize] += 1;
            self.tx.push(self.pool.mbuf_from(&bytes, 0));
        }
        let t0 = Instant::now();
        let s = tr.open("netdev.peer_tx", b);
        let sent = self.peers[0].tx_batch(&mut self.tx, &mut self.pool);
        tr.close(s);

        let s = tr.open("netdev.poll_rx", b);
        self.plane.poll_rx();
        tr.close(s);
        let s = tr.open("dataplane.flush", b);
        self.plane.plane_mut().flush();
        tr.close(s);
        let s = tr.open("netdev.poll_tx", b);
        self.plane.poll_tx();
        tr.close(s);

        let s = tr.open("netdev.peer_rx", b);
        let mut failed = WIRE_BURST as u64 - sent;
        for (peer, want) in self.peers.iter_mut().zip(want) {
            let mut good = 0;
            peer.rx_batch(WIRE_BURST, &mut |p| {
                good += u64::from(p.len() == PACKET_LEN)
            });
            failed += want.abs_diff(good);
        }
        tr.close(s);
        if let Some(samples) = clock {
            samples.push((t0.elapsed().as_nanos() / WIRE_BURST as u128) as u32);
        }
        tr.close(b);
        failed
    }
}

impl Workload for Wire {
    fn work_slice(&mut self, tr: &mut Tracer) -> Slice {
        let failed = (0..self.slice_bursts).map(|_| self.burst(tr, None)).sum();
        Slice {
            packets: (self.slice_bursts * WIRE_BURST) as u64,
            failed,
        }
    }

    fn latency_slice(&mut self, samples: &mut Vec<u32>) -> Slice {
        let mut off = Tracer::default();
        let failed = (0..self.latency_bursts)
            .map(|_| self.burst(&mut off, Some(samples)))
            .sum();
        Slice {
            packets: (self.latency_bursts * WIRE_BURST) as u64,
            failed,
        }
    }

    fn snapshot(&mut self) -> Snapshot {
        let ledger = self.plane.ledger();
        let rows = self.plane.device_rows();
        let pr = self.plane.plane_mut();
        let mut fib = FibCacheStats::default();
        for f in pr.control_map(|ctx| ctx.router.fib_cache_stats()) {
            fib.hits += f.hits;
            fib.misses += f.misses;
        }
        let flow_mem_bytes = pr
            .control_map(|ctx| ctx.router.flow_mem_bytes())
            .iter()
            .sum();
        let reports = pr.shard_reports();
        Snapshot {
            data: pr.stats(),
            flows: pr.flow_stats(),
            fib,
            pool_fresh: pr.metrics_snapshot().mbuf_fresh + self.pool.stats().fresh,
            flow_mem_bytes,
            shard_packets: reports.iter().map(|r| r.packets).sum(),
            shard_busy_ns: reports.iter().map(|r| r.busy_ns).sum(),
            ingress_dev: rows[0].stats,
            device_drops: rows
                .iter()
                .map(|r| r.stats.rx_dropped + r.stats.tx_errors + r.stats.tx_dropped)
                .sum::<u64>()
                + ledger.decap_dropped,
            ledger,
        }
    }

    fn send_sample(&mut self, sample: &[[u8; PACKET_LEN]]) -> Vec<Option<(u32, Vec<u8>)>> {
        sample
            .iter()
            .map(|bytes| {
                self.tx.push(self.pool.mbuf_from(bytes, 0));
                self.peers[0].tx_batch(&mut self.tx, &mut self.pool);
                self.plane.poll();
                let mut out = Vec::new();
                for (i, peer) in self.peers.iter_mut().enumerate() {
                    peer.rx_batch(WIRE_BURST, &mut |p| out.push((i as u32, p.to_vec())));
                }
                (out.len() == 1).then(|| out.remove(0))
            })
            .collect()
    }

    fn sample_flows(&self, n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| Kind::Gates3.flow_at(&self.inputs, self.pos + i * TRAIN))
            .collect()
    }
}

/// Build a workload by name: its full set-up, the part `setup_s` times.
pub fn setup(name: &str, inputs: Arc<Inputs>) -> Box<dyn Workload> {
    match name {
        "wire_par" => Box::new(Wire::setup(inputs)),
        _ => Box::new(Single::setup(Kind::of(name), inputs)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{forwarded_intact, lpm_linear};

    fn small(name: &str) -> (Arc<Inputs>, Box<dyn Workload>) {
        let inputs = Arc::new(Inputs::generate(name, 7, 30_000));
        let w = setup(name, Arc::clone(&inputs));
        (inputs, w)
    }

    #[test]
    fn every_workload_delivers_every_packet_where_the_oracle_says() {
        for name in NAMES {
            let (inputs, mut w) = small(name);
            let s = w.work_slice(&mut Tracer::default());
            assert_eq!(
                (s.failed, s.packets > 0),
                (0, true),
                "{name}: throughput slice"
            );
            let mut samples = Vec::new();
            let l = w.latency_slice(&mut samples);
            assert_eq!(l.failed, 0, "{name}: latency slice");
            assert!(
                samples.len() >= 1000,
                "{name}: p99 needs ten samples beyond it"
            );

            let sent: Vec<_> = w
                .sample_flows(32)
                .iter()
                .map(|&k| inputs.traffic.packet(k).0)
                .collect();
            for (sent, got) in sent.iter().zip(w.send_sample(&sent)) {
                let (tx_if, out) = got.unwrap_or_else(|| panic!("{name}: sample packet lost"));
                let dst = u32::from_be_bytes([sent[16], sent[17], sent[18], sent[19]]);
                assert_eq!(Some(tx_if), lpm_linear(&inputs.fib, dst), "{name}: egress");
                assert!(forwarded_intact(sent, &out), "{name}: bytes");
            }
            let snap = w.snapshot();
            assert_eq!(
                snap.data.received,
                snap.data.forwarded + snap.data.dropped_total(),
                "{name}: conservation"
            );
        }
    }

    /// A deterministic count repeats exactly between two same-seed runs, and
    /// tracing changes the spans recorded, not the work done.
    #[test]
    fn plugin_calls_per_packet_repeat_exactly_traced_or_not() {
        for (name, calls) in [("gates3", 3), ("drr", 1)] {
            for trace in [false, true] {
                let (_, mut w) = small(name);
                let before = w.snapshot().data.plugin_calls;
                let mut tr = Tracer::default();
                tr.on = trace;
                let s = w.work_slice(&mut tr);
                let after = w.snapshot().data.plugin_calls;
                assert_eq!(after - before, calls * s.packets, "{name} trace={trace}");
                let stages = if name == "drr" { 5 } else { 4 };
                let spans = if trace {
                    s.packets as usize / BURST * stages
                } else {
                    0
                };
                assert_eq!(tr.spans.len(), spans, "{name} trace={trace}");
            }
        }
    }

    #[test]
    fn churn_opens_a_flow_every_fourth_packet_and_scale1m_none() {
        let (_, mut w) = small("churn");
        let f0 = w.snapshot().flows;
        let s = w.work_slice(&mut Tracer::default());
        let f1 = w.snapshot().flows;
        assert_eq!((f1.misses - f0.misses) * CHURN_TRAIN, s.packets);
        assert_eq!(f1.evicted_lru - f0.evicted_lru, f1.misses - f0.misses);

        let (_, mut w) = small("scale1m");
        let f0 = w.snapshot().flows;
        assert!(f0.live as u64 >= SCALE_FLOWS && f0.resize_steps > 0);
        w.work_slice(&mut Tracer::default());
        let f1 = w.snapshot().flows;
        assert_eq!(
            (f1.misses, f1.evicted_lru, f1.live),
            (f0.misses, f0.evicted_lru, f0.live)
        );
    }
}
