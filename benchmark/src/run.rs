//! The run protocol: generate inputs, set up (timed), warm up, measure on
//! the timeline `ref | work slice | ref | latency slice | ref | …`, verify,
//! report.
//!
//! Host interference on a shared sandbox is one-sided — it only ever adds
//! time — and it hits the reference and the work alike when they alternate
//! every few milliseconds. So every time-based end-to-end metric is a
//! quiet quantile of per-slice ratios `work ns/pkt ÷ reference ns/pkt`.

use crate::gen::{self, PACKET_LEN};
use crate::host::{self, now_ns};
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::oracle::{forwarded_intact, lpm_linear};
use crate::refwd::Refwd;
use crate::replay;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{self, Inputs, Snapshot, Workload};
use std::sync::Arc;

/// Packets in one reference slice (about 5 ms).
const REF_PACKETS: u32 = 262_144;

/// One reference slice: its cost in ns per packet.
pub fn ref_slice_ns(refwd: &mut Refwd) -> f64 {
    let t0 = now_ns();
    refwd.run(REF_PACKETS);
    (now_ns() - t0) as f64 / f64::from(REF_PACKETS)
}
/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const WARMUP_NS: u64 = 1_000_000_000;
/// Fewest throughput slices of a kind in a run.
const MIN_SLICES: usize = 20;
/// Packets checked byte for byte against the linear-scan oracle per run.
const SAMPLE: usize = 256;
/// Spans kept by a traced run (four to six per burst).
const MAX_SPANS: usize = 400_000;

pub struct Plan {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Default for Plan {
    fn default() -> Self {
        Plan {
            workload: String::new(),
            seed: 1,
            seconds: 12.0,
            trace: false,
        }
    }
}

#[derive(Default)]
pub struct Report {
    /// Metric values by name; which of them are printed depends on
    /// `--trace`.
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Broken engagement predicates and ledgers.
    pub errors: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "{name} is not a declared metric"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Every metric by name with its unit, then the result object as the
    /// last line of standard output.
    pub fn print(&self, plan: &Plan) {
        let defs: &[Def] = if plan.trace { &PER_LAYER } else { &END_TO_END };
        println!(
            "workload {} seed {} seconds {} trace {} (in-memory wire, no kernel sockets)",
            plan.workload,
            plan.seed,
            plan.seconds,
            u8::from(plan.trace),
        );
        for d in defs {
            println!(
                "{:<28} {:>16.6} {:<7} ({} is better)",
                d.name,
                self.get(d.name),
                d.unit,
                d.better
            );
        }
        if !plan.trace {
            println!("{:<28} {:>16.6} ns", "host.ref_ns", self.get("host.ref_ns"));
            println!(
                "{:<28} {:>16.6} ratio",
                "host.noise",
                self.get("host.noise")
            );
            println!(
                "{:<28} {:>16.0} 1/s",
                "host.pps_raw",
                self.get("host.pps_raw")
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_share                   {share:>16.6} share   ({} of {})",
            self.failed, self.attempted
        );
        for e in &self.errors {
            eprintln!("FAILED: {e}");
        }
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.get(d.name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// What ran between two reference slices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum What {
    Work,
    TracedWork,
    Latency,
}

/// One slice: for work, ns per packet; for latency, the p99 of its
/// individually clocked samples in ns.
#[derive(Clone, Copy)]
struct Slot {
    what: What,
    ns: f64,
    packets: u64,
}

/// The measured timeline `ref slot ref slot … ref`: every slot has a
/// reference slice on either side.
#[derive(Default)]
struct Timeline {
    refs: Vec<f64>,
    slots: Vec<Slot>,
}

impl Timeline {
    /// Each slot of one kind in multiples of the reference cost. The
    /// reference is the quieter of the slot's two neighbours: a slice that
    /// the host interrupted reads high, so a ratio is spoiled downwards
    /// only if both neighbours were hit.
    fn ratios(&self, what: What) -> Vec<f64> {
        assert_eq!(self.refs.len(), self.slots.len() + 1, "timeline is closed");
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.what == what)
            .map(|(i, s)| s.ns / self.refs[i].min(self.refs[i + 1]))
            .collect()
    }
}

struct Bench {
    refwd: Refwd,
    ref_packets: u64,
    w: Box<dyn Workload>,
    tracer: Tracer,
    timeline: Timeline,
    samples: Vec<u32>,
    attempted: u64,
    failed: u64,
    /// Over work slices only.
    work_packets: u64,
    work_allocs: u64,
    work_cpu_ns: u64,
}

impl Bench {
    fn ref_slice(&mut self) {
        let ns = ref_slice_ns(&mut self.refwd);
        self.ref_packets += u64::from(REF_PACKETS);
        self.timeline.refs.push(ns);
    }

    /// A reference slice, then a throughput slice.
    fn work(&mut self) {
        self.ref_slice();
        let a0 = host::allocations();
        let c0 = host::process_cpu_ns().unwrap_or(0);
        let t0 = now_ns();
        let s = self.w.work_slice(&mut self.tracer);
        let dt = now_ns() - t0;
        self.work_cpu_ns += host::process_cpu_ns().unwrap_or(0) - c0;
        self.work_allocs += host::allocations() - a0;
        self.work_packets += s.packets;
        self.attempted += s.packets;
        self.failed += s.failed;
        self.timeline.slots.push(Slot {
            what: if self.tracer.on {
                What::TracedWork
            } else {
                What::Work
            },
            ns: dt as f64 / s.packets as f64,
            packets: s.packets,
        });
    }

    /// A reference slice, then a latency slice: every sample individually
    /// clocked, enough of them that the p99 has ten samples beyond it.
    fn latency(&mut self) {
        self.ref_slice();
        self.samples.clear();
        let s = self.w.latency_slice(&mut self.samples);
        self.attempted += s.packets;
        self.failed += s.failed;
        assert!(
            self.samples.len() >= 1000,
            "p99 needs ten samples beyond it"
        );
        self.timeline.slots.push(Slot {
            what: What::Latency,
            ns: f64::from(stats::p99_ns(&mut self.samples)),
            packets: s.packets,
        });
    }

    /// Throughput slices of the current kind until `deadline_ns` — at least
    /// `MIN_SLICES`, so that p10 is a quantile and not a minimum — with a
    /// latency slice after each if `with_latency`.
    fn measure(&mut self, deadline_ns: u64, with_latency: bool) {
        let mut n = 0;
        while n < MIN_SLICES || (now_ns() < deadline_ns && self.tracer.spans.len() < MAX_SPANS) {
            self.work();
            if with_latency {
                self.latency();
            }
            n += 1;
        }
    }
}

pub fn run(plan: &Plan) -> Report {
    let mut report = Report::default();
    let name = plan.workload.as_str();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    match host::pin_to_current_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu} of {cpus}"),
        None => println!("not pinned ({cpus} cpus): results depend on thread placement"),
    }

    // (1) Inputs from the seed; not timed.
    let inputs = Arc::new(Inputs::generate(name, plan.seed, gen::FIB_PREFIXES));

    // (2) Set-up, timed. This instance is the one measured; the further
    // set-ups that make `setup_s` a median come after the measurement, so
    // that `mem_mb` is the peak of one router's life and not of how the
    // allocator happened to reuse the memory of three.
    let t0 = now_ns();
    let w = workloads::setup(name, Arc::clone(&inputs));
    let mut setup_s = vec![(now_ns() - t0) as f64 / 1e9];
    let mut b = Bench {
        refwd: Refwd::default(),
        ref_packets: 0,
        w,
        tracer: Tracer::default(),
        timeline: Timeline::default(),
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        work_packets: 0,
        work_allocs: 0,
        work_cpu_ns: 0,
    };
    let after_setup = b.w.snapshot();

    // (3) Warm-up: caches fill, pools reach their working set.
    let warm_until = now_ns() + WARMUP_NS;
    while now_ns() < warm_until {
        b.work();
        b.latency();
    }
    b.timeline = Timeline::default();
    (b.work_packets, b.work_allocs, b.work_cpu_ns) = (0, 0, 0);

    // (4, 5) Throughput and latency slices alternate over the whole window,
    // so that both see the same spells of host noise. A traced run instead
    // measures throughput untraced, then traced, and replays the layers.
    let budget = (plan.seconds * 1e9) as u64;
    let start = now_ns();
    let before = b.w.snapshot();
    let offered_before = b.attempted;
    if plan.trace {
        b.measure(start + budget * 3 / 10, false);
        b.tracer.on = true;
        b.measure(start + budget * 6 / 10, false);
        b.tracer.on = false;
    } else {
        b.measure(start + budget, true);
    }
    b.ref_slice();
    let after = b.w.snapshot();
    let offered = b.attempted - offered_before;

    // (6) Verification and counters.
    verify_sample(&mut b, &inputs, &mut report);
    if (b.refwd.forwarded, b.refwd.dropped) != (b.ref_packets, 0) {
        report.errors.push(format!(
            "reference forwarder: {} of {} forwarded",
            b.refwd.forwarded, b.ref_packets
        ));
    }

    let mut ratios = b.timeline.ratios(What::Work);
    let cost = stats::p10(&mut ratios);
    let ref_ns = stats::p10(&mut b.timeline.refs.clone());
    report.set("host.ref_ns", ref_ns);
    report.set("host.noise", (stats::median(&mut ratios) - cost) / cost);
    report.set("host.pps_raw", 1e9 / (cost * ref_ns));
    report.set("cost_x", cost);
    if !plan.trace {
        report.set("p99_x", stats::p25(&mut b.timeline.ratios(What::Latency)));
    }
    write_slices(plan, &b.timeline);

    let layer = counters(&b, &before, &after, &after_setup, offered, &mut report);
    check_engagement(name, &layer, &mut report);

    if plan.trace {
        let traced = stats::p10(&mut b.timeline.ratios(What::TracedWork));
        report.set("trace.overhead_x", traced / cost);
        let slots = &b.timeline.slots;
        let traced_packets = slots
            .iter()
            .filter(|s| s.what == What::TracedWork)
            .map(|s| s.packets)
            .sum();
        span_metrics(&b.tracer, traced_packets, &mut report);
        write_trace(name, &b.tracer, &mut report);
    }
    report.attempted += b.attempted;
    report.failed += b.failed;
    report.set("mem_mb", host::peak_rss_mb().unwrap_or(0.0));
    drop(b);
    if plan.trace {
        replay::run(name, &inputs, &mut report);
    } else {
        for _ in 1..SETUPS {
            let t0 = now_ns();
            let again = workloads::setup(name, Arc::clone(&inputs));
            setup_s.push((now_ns() - t0) as f64 / 1e9);
            drop(again);
        }
    }
    report.set("setup_s", stats::median(&mut setup_s));
    report
}

/// Send a sample of the workload's packets through one at a time and check
/// each against the independent oracle: egress interface by linear scan of
/// the prefix list, bytes by `forwarded_intact`.
fn verify_sample(b: &mut Bench, inputs: &Inputs, report: &mut Report) {
    let flows = b.w.sample_flows(SAMPLE);
    let sent: Vec<[u8; PACKET_LEN]> = flows.iter().map(|&k| inputs.traffic.packet(k).0).collect();
    let got = b.w.send_sample(&sent);
    for (sent, got) in sent.iter().zip(got) {
        let dst = u32::from_be_bytes([sent[16], sent[17], sent[18], sent[19]]);
        let want = lpm_linear(&inputs.fib, dst);
        let ok = matches!(&got, Some((tx_if, out))
            if Some(*tx_if) == want && forwarded_intact(sent, out));
        report.failed += u64::from(!ok);
    }
    report.attempted += sent.len() as u64;
}

/// What the counters of the crates say about the measured window.
pub struct Layer {
    pub offered: u64,
    pub hit_share: f64,
    pub evicted_per_kpkt: f64,
    pub evicted: u64,
    pub resize_steps: u64,
    pub live: usize,
    pub fib_hit_share: f64,
    pub plugin_calls_per_pkt: f64,
    pub queue_drops: u64,
    pub overload_shed: u64,
    pub shard_packets: u64,
    pub rx_batch_mean: f64,
}

fn share(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

fn counters(
    b: &Bench,
    before: &Snapshot,
    after: &Snapshot,
    after_setup: &Snapshot,
    offered: u64,
    report: &mut Report,
) -> Layer {
    let per_pkt = |n: u64| n as f64 / offered.max(1) as f64;
    let (d0, d1) = (&before.data, &after.data);
    let (f0, f1) = (&before.flows, &after.flows);
    let rx0 = &before.ingress_dev.rx_batch;
    let rx1 = &after.ingress_dev.rx_batch;
    let layer = Layer {
        offered,
        hit_share: share(f1.hits - f0.hits, f1.misses - f0.misses),
        evicted: (f1.evicted_lru - f0.evicted_lru) + (f1.recycled - f0.recycled),
        evicted_per_kpkt: per_pkt(f1.evicted_lru - f0.evicted_lru) * 1000.0,
        resize_steps: after_setup.flows.resize_steps,
        live: f1.live,
        fib_hit_share: share(
            after.fib.hits - before.fib.hits,
            after.fib.misses - before.fib.misses,
        ),
        plugin_calls_per_pkt: per_pkt(d1.plugin_calls - d0.plugin_calls),
        queue_drops: d1.dropped_queue - d0.dropped_queue,
        overload_shed: d1.dropped_shard_overload - d0.dropped_shard_overload,
        shard_packets: after.shard_packets - before.shard_packets,
        rx_batch_mean: if rx1.count == rx0.count {
            0.0
        } else {
            (rx1.sum - rx0.sum) as f64 / (rx1.count - rx0.count) as f64
        },
    };

    // Conservation: everything offered was received, and everything
    // received was forwarded or is a counted drop; on the wire, the same
    // from device to device.
    if d1.received - d0.received != offered {
        report.errors.push(format!(
            "offered {offered} packets, the data path received {}",
            d1.received - d0.received
        ));
    }
    if d1.received != d1.forwarded + d1.dropped_total() {
        report.errors.push(format!(
            "ledger: received {} != forwarded {} + dropped {}",
            d1.received,
            d1.forwarded,
            d1.dropped_total()
        ));
    }
    let led = after.ledger;
    if led.device_rx != 0
        && (led.device_rx != d1.received
            || led.device_tx != d1.forwarded
            || led.device_rx != led.device_tx + d1.dropped_total())
    {
        report
            .errors
            .push(format!("wire ledger does not balance: {led:?} vs {d1:?}"));
    }

    report.set(
        "packet.allocs_per_pkt",
        b.work_allocs as f64 / b.work_packets.max(1) as f64,
    );
    report.set(
        "packet.pool_fresh_per_pkt",
        per_pkt(after.pool_fresh - before.pool_fresh),
    );
    report.set("classifier.hit_share", layer.hit_share);
    report.set("classifier.evicted_per_kpkt", layer.evicted_per_kpkt);
    report.set("classifier.resize_steps", layer.resize_steps as f64);
    report.set("classifier.flow_mem_mb", after.flow_mem_bytes as f64 / 1e6);
    report.set("core.fib_hit_share", layer.fib_hit_share);
    report.set("core.plugin_calls_per_pkt", layer.plugin_calls_per_pkt);
    report.set("sched.queue_drops", layer.queue_drops as f64);
    report.set("dataplane.overload_shed", layer.overload_shed as f64);
    report.set(
        "dataplane.shard_busy_ns",
        (after.shard_busy_ns - before.shard_busy_ns) as f64 / layer.shard_packets.max(1) as f64,
    );
    report.set(
        "dataplane.cpu_ns_per_pkt",
        b.work_cpu_ns as f64 / b.work_packets.max(1) as f64,
    );
    report.set("netdev.rx_batch_mean", layer.rx_batch_mean);
    report.set(
        "netdev.device_drops",
        (after.device_drops - before.device_drops) as f64,
    );
    layer
}

/// Engagement predicates: a workload whose mechanism never engaged fails,
/// however fast it ran.
pub fn check_engagement(workload: &str, l: &Layer, report: &mut Report) {
    let mut need = |ok: bool, what: String| {
        if !ok {
            report.errors.push(format!("{workload}: {what}"));
        }
    };
    match workload {
        "gates3" => {
            need(
                l.plugin_calls_per_pkt == 3.0,
                format!("plugin calls/pkt {} != 3", l.plugin_calls_per_pkt),
            );
            need(
                l.hit_share >= 0.999,
                format!("flow-cache hit share {} < 0.999", l.hit_share),
            );
        }
        "drr" => {
            need(
                l.plugin_calls_per_pkt == 1.0,
                format!("plugin calls/pkt {} != 1", l.plugin_calls_per_pkt),
            );
            need(
                l.queue_drops == 0,
                format!("{} scheduler queue drops", l.queue_drops),
            );
        }
        "churn" => {
            need(
                (l.hit_share - 0.75).abs() <= 0.01,
                format!("flow-cache hit share {} not 0.75 ± 0.01", l.hit_share),
            );
            need(
                l.evicted_per_kpkt > 200.0,
                format!(
                    "{} evictions per 1000 packets, need > 200",
                    l.evicted_per_kpkt
                ),
            );
            need(
                l.fib_hit_share < 0.8,
                format!("FIB-cache hit share {} not below 0.8", l.fib_hit_share),
            );
        }
        "scale1m" => {
            need(
                l.live >= 1_000_000,
                format!("{} live flows < 1 000 000", l.live),
            );
            need(
                l.evicted == 0,
                format!("{} evictions while measured", l.evicted),
            );
            need(
                l.resize_steps > 0,
                "flow table never resized during set-up".into(),
            );
        }
        "wire_par" => {
            need(
                l.rx_batch_mean >= 200.0,
                format!("mean rx batch {} < 200", l.rx_batch_mean),
            );
            need(
                l.shard_packets == l.offered,
                format!("shard saw {} of {} packets", l.shard_packets, l.offered),
            );
            need(
                l.overload_shed == 0,
                format!("{} packets shed on overload", l.overload_shed),
            );
        }
        _ => {}
    }
}

/// Per-packet self time of each stage, and how much of a burst the stages
/// cover.
fn span_metrics(tr: &Tracer, packets: u64, report: &mut Report) {
    let t = trace::totals(&tr.spans);
    let per_pkt = |name: &str| t.self_ns(name) as f64 / packets.max(1) as f64;
    report.set("core.ingress_ns", per_pkt("core.ingress"));
    report.set("core.receive_ns", per_pkt("core.receive"));
    report.set("core.egress_ns", per_pkt("core.egress"));
    report.set("sched.pump_ns", per_pkt("sched.pump"));
    report.set("netdev.poll_rx_ns", per_pkt("netdev.poll_rx"));
    report.set("netdev.poll_tx_ns", per_pkt("netdev.poll_tx"));
    report.set("dataplane.flush_wait_ns", per_pkt("dataplane.flush"));
    let burst = t.total_ns("burst");
    if burst > 0 {
        report.set(
            "trace.coverage",
            (burst - t.self_ns("burst")) as f64 / burst as f64,
        );
    }
}

/// The raw slices behind the quantiles, in order, so that a noisy spell
/// can be seen after the fact.
fn write_slices(plan: &Plan, t: &Timeline) {
    let mut text = String::from("ref_ns_per_pkt,what,ns,packets\n");
    for (r, s) in t.refs.iter().zip(&t.slots) {
        text.push_str(&format!("{r},{:?},{},{}\n", s.what, s.ns, s.packets));
    }
    text.push_str(&format!("{},,,\n", t.refs[t.refs.len() - 1]));
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("slices-{}-{}.csv", plan.workload, plan.seed));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("note: could not write {}: {e}", path.display());
    }
}

fn write_trace(workload: &str, tr: &Tracer, report: &mut Report) {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(dir).and_then(|()| trace::write_json(&path, &tr.spans));
    match written {
        Ok(()) => println!("{} spans written to {}", tr.spans.len(), path.display()),
        Err(e) => report
            .errors
            .push(format!("writing {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_use_the_quieter_neighbouring_reference() {
        let slot = |what, ns| Slot {
            what,
            ns,
            packets: 1,
        };
        let t = Timeline {
            // The second reference slice was interrupted by the host.
            refs: vec![10.0, 40.0, 10.0, 20.0],
            slots: vec![
                slot(What::Work, 100.0),
                slot(What::Latency, 300.0),
                slot(What::Work, 120.0),
            ],
        };
        assert_eq!(t.ratios(What::Work), [10.0, 12.0]);
        assert_eq!(t.ratios(What::Latency), [30.0]);
        assert!(t.ratios(What::TracedWork).is_empty());
    }

    #[test]
    fn a_workload_whose_mechanism_did_not_engage_fails() {
        let engaged = |workload: &str| Layer {
            offered: 1000,
            hit_share: if workload == "churn" { 0.75 } else { 1.0 },
            evicted_per_kpkt: 250.0,
            evicted: 0,
            resize_steps: 5,
            live: 1_000_000,
            fib_hit_share: 0.7,
            plugin_calls_per_pkt: if workload == "drr" { 1.0 } else { 3.0 },
            queue_drops: 0,
            overload_shed: 0,
            shard_packets: 1000,
            rx_batch_mean: 256.0,
        };
        let errors = |workload: &str, l: &Layer| {
            let mut r = Report::default();
            check_engagement(workload, l, &mut r);
            r.errors.len()
        };
        for w in workloads::NAMES {
            assert_eq!(errors(w, &engaged(w)), 0, "{w}");
        }
        type Breakage = fn(&mut Layer);
        let broken: [(&str, Breakage); 8] = [
            ("gates3", |l| l.plugin_calls_per_pkt = 2.999),
            ("gates3", |l| l.hit_share = 0.99),
            ("drr", |l| l.queue_drops = 1),
            ("churn", |l| l.hit_share = 0.9),
            ("churn", |l| l.fib_hit_share = 0.9),
            ("scale1m", |l| l.evicted = 1),
            ("wire_par", |l| l.rx_batch_mean = 64.0),
            ("wire_par", |l| l.shard_packets = 999),
        ];
        for (w, breakage) in broken {
            let mut l = engaged(w);
            breakage(&mut l);
            assert_eq!(errors(w, &l), 1, "{w}");
        }
    }

    #[test]
    fn a_failed_packet_or_a_broken_predicate_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.set("cost_x", 8.5);
        assert_eq!((r.get("cost_x"), r.get("p99_x")), (8.5, 0.0));
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.errors.push("ledger".into());
        assert!(!r.correct());
    }
}
