//! The unified observability layer: a metrics registry of monotonic
//! counters and log-2 histograms, plus a bounded ring-buffer event tracer.
//!
//! The paper's whole argument is quantitative (Tables 2/3 count memory
//! accesses and cycles per gate), so the data path must be measurable
//! without perturbing what it measures. The design rules here:
//!
//! * **Fixed storage** — every counter and histogram lives in a fixed
//!   array inside [`MetricsRegistry`]; the hot path never allocates.
//! * **One ledger** — a data-path event is counted here and nowhere
//!   else; [`DataPathStats`] is a view computed from a registry
//!   ([`MetricsRegistry::data_path`]), not a second set of counters.
//! * **Shard-private, merge-on-read** — each data-plane shard owns a
//!   private registry (no sharing, no locks, same discipline as the flow
//!   table); the control plane merges snapshots with
//!   [`MetricsRegistry::absorb`], the one merge on the router side — the
//!   flow-table counters merge inside it.
//! * **Sampled latency** — per-gate plugin-invocation latency is measured
//!   with the OS monotonic clock on every [`LATENCY_SAMPLE`]-th call, so
//!   the steady-state cost of the clock reads amortizes to well under a
//!   nanosecond per packet.
//! * **Tracing is off until asked for** — [`Tracer::record_with`] takes a
//!   closure so the event string is only built when the category is
//!   enabled; the ring overwrites its oldest entry when full.

use crate::gate::{Gate, ALL_GATES, GATE_COUNT};
use crate::ip_core::{DataPathStats, DropReason};
use rp_classifier::flow_table::FlowTableStats;
use std::fmt::Write as _;

/// Number of log-2 buckets in a [`Histogram`]. Bucket 0 holds the value
/// 0; bucket `b ≥ 1` holds values in `[2^(b-1), 2^b)`; the last bucket
/// also absorbs everything larger.
pub const HIST_BUCKETS: usize = 32;

/// Per-gate plugin-call latency is measured on every `LATENCY_SAMPLE`-th
/// call (power of two; the sampling test divides by this).
pub const LATENCY_SAMPLE: u64 = 64;

/// Metrics index space for interfaces. Routers with more interfaces fold
/// the overflow into the last slot (see [`iface_slot`]).
pub const MAX_INTERFACES: usize = 16;

/// Map an interface id to its metrics slot.
#[inline]
pub fn iface_slot(iface: u32) -> usize {
    (iface as usize).min(MAX_INTERFACES - 1)
}

/// A log-2-bucketed histogram with fixed storage (no allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Occupancy per log-2 bucket (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (wrapping).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// The bucket a value falls into: its significant-bit count, capped.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    /// Inclusive lower bound of a bucket's value range.
    pub fn bucket_floor(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Record one value.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Fold another histogram into this one.
    pub fn absorb(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`) from the log-2
    /// buckets: walk to the bucket holding the rank-`⌈q·count⌉`
    /// observation and return that bucket's midpoint (floor for bucket
    /// 0). The estimate is bounded by the bucket resolution — a factor
    /// of 2 — which is exactly the precision an SLO gate on p50/p99
    /// needs without per-sample storage. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let floor = Self::bucket_floor(b);
                if b == 0 {
                    return 0;
                }
                // Midpoint of [2^(b-1), 2^b): floor + floor/2.
                return floor + floor / 2;
            }
        }
        Self::bucket_floor(HIST_BUCKETS - 1)
    }

    /// Buckets with trailing zeros trimmed (for compact rendering).
    pub fn trimmed_buckets(&self) -> &[u64] {
        let last = self
            .buckets
            .iter()
            .rposition(|b| *b != 0)
            .map(|i| i + 1)
            .unwrap_or(0);
        &self.buckets[..last]
    }
}

/// Number of distinct [`DropReason`] slots: the scalar reasons plus one
/// per gate for `Plugin(gate)` and `PluginFault(gate)`.
pub const DROP_KINDS: usize = 13 + 2 * GATE_COUNT;

/// Map a drop reason to its counter slot.
pub fn drop_reason_index(reason: DropReason) -> usize {
    match reason {
        DropReason::Malformed => 0,
        DropReason::BadChecksum => 1,
        DropReason::TtlExpired => 2,
        DropReason::NoRoute => 3,
        DropReason::QueueFull => 4,
        DropReason::TooBig => 5,
        DropReason::Internal => 6,
        DropReason::ShardOverload => 7,
        DropReason::ShardDown => 8,
        DropReason::DeviceRx => 9,
        DropReason::DeviceTx => 10,
        DropReason::DeadlineExceeded => 11,
        DropReason::Plugin(g) => 12 + g.index(),
        DropReason::PluginFault(g) => 12 + GATE_COUNT + g.index(),
        DropReason::Evicted => 12 + 2 * GATE_COUNT,
    }
}

/// Stable label of a drop-reason slot (metrics key names).
pub fn drop_reason_label(slot: usize) -> String {
    match slot {
        0 => "malformed".to_string(),
        1 => "bad_checksum".to_string(),
        2 => "ttl_expired".to_string(),
        3 => "no_route".to_string(),
        4 => "queue_full".to_string(),
        5 => "too_big".to_string(),
        6 => "internal".to_string(),
        7 => "shard_overload".to_string(),
        8 => "shard_down".to_string(),
        9 => "device_rx".to_string(),
        10 => "device_tx".to_string(),
        11 => "deadline_exceeded".to_string(),
        s if s < 12 + GATE_COUNT => format!("plugin_{}", ALL_GATES[s - 12]),
        s if s < 12 + 2 * GATE_COUNT => format!("plugin_fault_{}", ALL_GATES[s - 12 - GATE_COUNT]),
        _ => "evicted".to_string(),
    }
}

/// The metrics registry: every data-path counter and histogram, in fixed
/// storage. One per router; one per shard on the parallel data plane,
/// merged on read. A snapshot is just a copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    /// Packets handed to the core, plus packets shed before it (device
    /// receive drops, dispatcher sheds): everything that must end up
    /// forwarded or in a drop slot.
    pub received: u64,
    /// Packets emitted or queued for egress, including ones an egress
    /// device later refused ([`MetricsRegistry::data_path`] subtracts
    /// those).
    pub forwarded: u64,
    /// Packets fragmented at egress.
    pub fragmented: u64,
    /// Packets egress fragmentation added: a packet cut into k fragments
    /// adds k − 1, each fragment being forwarded or dropped on its own.
    pub fragments: u64,
    /// Plugin faults observed by the supervisor (panics and packet-budget
    /// overruns, across all instances).
    pub plugin_faults: u64,
    /// Instances moved to quarantine.
    pub plugin_quarantines: u64,
    /// Successful supervised instance restarts.
    pub plugin_restarts: u64,
    /// Plugin invocations per gate.
    pub gate_calls: [u64; GATE_COUNT],
    /// Sampled plugin-invocation latency per gate, in nanoseconds (one
    /// observation per [`LATENCY_SAMPLE`] calls).
    pub gate_latency: [Histogram; GATE_COUNT],
    /// Flow-cache hits observed at each gate's classification point.
    pub class_hits: [u64; GATE_COUNT],
    /// Flow-cache misses (new flow records) per classifying gate.
    pub class_misses: [u64; GATE_COUNT],
    /// Flow records recycled under pressure, attributed to the gate whose
    /// classification triggered the recycling.
    pub class_recycled: [u64; GATE_COUNT],
    /// Flow records reclaimed by idle expiry.
    pub flows_expired: u64,
    /// Flow records created with the port-less fragment key (IP fragments
    /// classify on `<src, dst, proto, rx_if>`; counted at flow creation).
    pub fragment_flows: u64,
    /// The flow table's own counters and occupancy (gauge sampled at
    /// snapshot time; rendered as `flow_admission_denied`,
    /// `flow_inline_expired`, `flow_evicted_lru`, `flow_resize_steps`).
    pub flows: FlowTableStats,
    /// Route lookups answered by the hot-prefix FIB cache (gauge sampled
    /// from the routing table at snapshot time).
    pub fib_cache_hit: u64,
    /// Route lookups that fell through the FIB cache to the full table
    /// (gauge sampled from the routing table at snapshot time).
    pub fib_cache_miss: u64,
    /// 1 when IPv4 lookups read the compiled DIR-24-8 FIB, 0 when they
    /// walk the trie; a merged snapshot counts the compiled shards. This
    /// and the four `fib_*` gauges below are
    /// [`crate::ip_core::FibStats`], sampled at snapshot time.
    pub fib_compiled: u64,
    /// Second-level FIB groups in use (/24 blocks holding longer prefixes).
    pub fib_tbl8_groups: u64,
    /// Distinct route entries interned by the FIB.
    pub fib_next_hops: u64,
    /// Heap bytes held by the FIB.
    pub fib_mem_bytes: u64,
    /// Route updates repainted into the FIB since its compile.
    pub fib_repaints: u64,
    /// Dropped packets by [`DropReason`] slot (see [`drop_reason_index`]).
    pub drops: [u64; DROP_KINDS],
    /// Packets received per interface slot.
    pub if_rx_packets: [u64; MAX_INTERFACES],
    /// Bytes received per interface slot.
    pub if_rx_bytes: [u64; MAX_INTERFACES],
    /// Packets transmitted per interface slot.
    pub if_tx_packets: [u64; MAX_INTERFACES],
    /// Bytes transmitted per interface slot.
    pub if_tx_bytes: [u64; MAX_INTERFACES],
    /// Scheduler queue depth per interface — a gauge sampled at snapshot
    /// time. Merging sums the shards (total backlog across the array).
    pub queue_depth: [u64; MAX_INTERFACES],
    /// Received packet sizes in bytes.
    pub pkt_size: Histogram,
    /// End-to-end packet sojourn (coarse ingress stamp at the wire to
    /// shard dequeue) in nanoseconds. Fed by the dispatch/shard layer
    /// from the `Mbuf` ingress timestamp; empty when no I/O plane (or
    /// driver) stamps ingress. p50/p99 come from
    /// [`Histogram::quantile`].
    pub sojourn_ns: Histogram,
    /// Mbuf-pool buffers handed out (cumulative; sampled from the
    /// router's pool at snapshot time, like the queue-depth gauge).
    pub mbuf_acquired: u64,
    /// Mbuf-pool buffers returned to the free list for reuse.
    pub mbuf_recycled: u64,
    /// Mbuf-pool acquisitions that had to touch the allocator. A moving
    /// value here in steady state means the fast path is allocating.
    pub mbuf_fresh: u64,
}

/// A point-in-time copy of a [`MetricsRegistry`] (the registry is plain
/// data, so a snapshot is the registry itself).
pub type MetricsSnapshot = MetricsRegistry;

impl MetricsRegistry {
    /// Count one plugin invocation; returns true when this call should be
    /// latency-sampled.
    #[inline]
    pub fn note_gate_call(&mut self, gate: Gate) -> bool {
        let n = self.gate_calls[gate.index()];
        self.gate_calls[gate.index()] = n + 1;
        n.is_multiple_of(LATENCY_SAMPLE)
    }

    /// Record a sampled plugin-invocation latency.
    #[inline]
    pub fn note_gate_latency(&mut self, gate: Gate, ns: u64) {
        self.gate_latency[gate.index()].observe(ns);
    }

    /// Count one dropped packet.
    #[inline]
    pub fn note_drop(&mut self, reason: DropReason) {
        self.drops[drop_reason_index(reason)] += 1;
    }

    /// Count one packet handed to the core, on its interface.
    #[inline]
    pub fn note_rx(&mut self, iface: u32, bytes: usize) {
        self.received += 1;
        let s = iface_slot(iface);
        self.if_rx_packets[s] += 1;
        self.if_rx_bytes[s] += bytes as u64;
        self.pkt_size.observe(bytes as u64);
    }

    /// Record one packet's end-to-end sojourn time in nanoseconds.
    #[inline]
    pub fn note_sojourn(&mut self, ns: u64) {
        self.sojourn_ns.observe(ns);
    }

    /// Count one transmitted packet.
    #[inline]
    pub fn note_tx(&mut self, iface: u32, bytes: usize) {
        let s = iface_slot(iface);
        self.if_tx_packets[s] += 1;
        self.if_tx_bytes[s] += bytes as u64;
    }

    /// Fold another registry into this one (the control plane's merge of
    /// per-shard registries). Counters and histograms add; the queue-depth
    /// gauge also adds, giving the total backlog across shards.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        self.received += other.received;
        self.forwarded += other.forwarded;
        self.fragmented += other.fragmented;
        self.fragments += other.fragments;
        self.plugin_faults += other.plugin_faults;
        self.plugin_quarantines += other.plugin_quarantines;
        self.plugin_restarts += other.plugin_restarts;
        for i in 0..GATE_COUNT {
            self.gate_calls[i] += other.gate_calls[i];
            self.gate_latency[i].absorb(&other.gate_latency[i]);
            self.class_hits[i] += other.class_hits[i];
            self.class_misses[i] += other.class_misses[i];
            self.class_recycled[i] += other.class_recycled[i];
        }
        self.flows_expired += other.flows_expired;
        self.fragment_flows += other.fragment_flows;
        self.flows.absorb(&other.flows);
        self.fib_cache_hit += other.fib_cache_hit;
        self.fib_cache_miss += other.fib_cache_miss;
        self.fib_compiled += other.fib_compiled;
        self.fib_tbl8_groups += other.fib_tbl8_groups;
        self.fib_next_hops += other.fib_next_hops;
        self.fib_mem_bytes += other.fib_mem_bytes;
        self.fib_repaints += other.fib_repaints;
        for i in 0..DROP_KINDS {
            self.drops[i] += other.drops[i];
        }
        for i in 0..MAX_INTERFACES {
            self.if_rx_packets[i] += other.if_rx_packets[i];
            self.if_rx_bytes[i] += other.if_rx_bytes[i];
            self.if_tx_packets[i] += other.if_tx_packets[i];
            self.if_tx_bytes[i] += other.if_tx_bytes[i];
            self.queue_depth[i] += other.queue_depth[i];
        }
        self.pkt_size.absorb(&other.pkt_size);
        self.sojourn_ns.absorb(&other.sojourn_ns);
        self.mbuf_acquired += other.mbuf_acquired;
        self.mbuf_recycled += other.mbuf_recycled;
        self.mbuf_fresh += other.mbuf_fresh;
    }

    /// Total dropped packets across all reasons.
    pub fn dropped_total(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// The Table 3 counters, read off this registry: every field is one
    /// counter or a sum of drop slots. A packet an egress device refused
    /// sits in both `forwarded` and the `DeviceTx` slot here, so the view
    /// subtracts it from `forwarded` once; so does a queued packet that
    /// eviction purged (the `Evicted` slot).
    pub fn data_path(&self) -> DataPathStats {
        let slot = |r: DropReason| self.drops[drop_reason_index(r)];
        let per_gate = |r: fn(Gate) -> DropReason| ALL_GATES.iter().map(|&g| slot(r(g))).sum();
        DataPathStats {
            received: self.received,
            forwarded: self
                .forwarded
                .saturating_sub(slot(DropReason::DeviceTx) + slot(DropReason::Evicted)),
            dropped_malformed: slot(DropReason::Malformed) + slot(DropReason::BadChecksum),
            dropped_ttl: slot(DropReason::TtlExpired),
            dropped_no_route: slot(DropReason::NoRoute),
            dropped_plugin: per_gate(DropReason::Plugin),
            dropped_queue: slot(DropReason::QueueFull),
            plugin_calls: self.gate_calls.iter().sum(),
            fragmented: self.fragmented,
            fragments: self.fragments,
            dropped_too_big: slot(DropReason::TooBig),
            plugin_faults: self.plugin_faults,
            dropped_fault: per_gate(DropReason::PluginFault),
            dropped_internal: slot(DropReason::Internal),
            dropped_shard_overload: slot(DropReason::ShardOverload),
            dropped_shard_down: slot(DropReason::ShardDown),
            dropped_device_rx: slot(DropReason::DeviceRx),
            dropped_device_tx: slot(DropReason::DeviceTx),
            dropped_deadline: slot(DropReason::DeadlineExceeded),
            dropped_evicted: slot(DropReason::Evicted),
            plugin_quarantines: self.plugin_quarantines,
            plugin_restarts: self.plugin_restarts,
        }
    }

    /// Human-readable multi-line rendering (pmgr `metrics`). Zero-valued
    /// rows are elided.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for g in ALL_GATES {
            let i = g.index();
            if self.gate_calls[i] == 0 && self.class_hits[i] == 0 && self.class_misses[i] == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "gate {g}: calls={} lat_mean={:.0}ns (n={}) hits={} misses={} recycled={}",
                self.gate_calls[i],
                self.gate_latency[i].mean(),
                self.gate_latency[i].count,
                self.class_hits[i],
                self.class_misses[i],
                self.class_recycled[i],
            );
        }
        let mut drops = String::new();
        for (s, n) in self.drops.iter().enumerate() {
            if *n > 0 {
                let _ = write!(drops, " {}={n}", drop_reason_label(s));
            }
        }
        let _ = writeln!(out, "drops: total={}{drops}", self.dropped_total());
        for i in 0..MAX_INTERFACES {
            if self.if_rx_packets[i] == 0 && self.if_tx_packets[i] == 0 && self.queue_depth[i] == 0
            {
                continue;
            }
            let _ = writeln!(
                out,
                "if{i}: rx={}pkts/{}B tx={}pkts/{}B qdepth={}",
                self.if_rx_packets[i],
                self.if_rx_bytes[i],
                self.if_tx_packets[i],
                self.if_tx_bytes[i],
                self.queue_depth[i],
            );
        }
        let _ = writeln!(
            out,
            "flows: expired={} fragment_keyed={} admission_denied={} inline_expired={} \
             evicted_lru={} resize_steps={}; pkt_size mean={:.0}B (n={})",
            self.flows_expired,
            self.fragment_flows,
            self.flows.denied,
            self.flows.inline_expired,
            self.flows.evicted_lru,
            self.flows.resize_steps,
            self.pkt_size.mean(),
            self.pkt_size.count,
        );
        let _ = writeln!(
            out,
            "fib_cache: hit={} miss={}",
            self.fib_cache_hit, self.fib_cache_miss,
        );
        let _ = writeln!(
            out,
            "fib: compiled={} tbl8_groups={} next_hops={} mem_bytes={} repaints={}",
            self.fib_compiled,
            self.fib_tbl8_groups,
            self.fib_next_hops,
            self.fib_mem_bytes,
            self.fib_repaints,
        );
        if self.sojourn_ns.count > 0 {
            let _ = writeln!(
                out,
                "sojourn_ns: p50={} p99={} mean={:.0} (n={})",
                self.sojourn_ns.quantile(0.50),
                self.sojourn_ns.quantile(0.99),
                self.sojourn_ns.mean(),
                self.sojourn_ns.count,
            );
        }
        let _ = writeln!(
            out,
            "mbuf_pool: acquired={} recycled={} fresh={}",
            self.mbuf_acquired, self.mbuf_recycled, self.mbuf_fresh,
        );
        out
    }

    /// Compact JSON rendering. All keys are fixed ASCII identifiers, so no
    /// string escaping is needed; the schema is documented in
    /// EXPERIMENTS.md ("Metrics block schema").
    pub fn render_json(&self) -> String {
        fn hist(h: &Histogram) -> String {
            let buckets = h
                .trimmed_buckets()
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"count\":{},\"sum\":{},\"buckets\":[{buckets}]}}",
                h.count, h.sum
            )
        }
        let mut out = String::from("{\"gates\":{");
        for (n, g) in ALL_GATES.iter().enumerate() {
            let i = g.index();
            if n > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{g}\":{{\"calls\":{},\"latency_ns\":{},\"hits\":{},\"misses\":{},\"recycled\":{}}}",
                self.gate_calls[i],
                hist(&self.gate_latency[i]),
                self.class_hits[i],
                self.class_misses[i],
                self.class_recycled[i],
            );
        }
        out.push_str("},\"drops\":{");
        let _ = write!(out, "\"total\":{}", self.dropped_total());
        for (s, n) in self.drops.iter().enumerate() {
            if *n > 0 {
                let _ = write!(out, ",\"{}\":{n}", drop_reason_label(s));
            }
        }
        out.push_str("},\"interfaces\":[");
        let last = (0..MAX_INTERFACES)
            .rposition(|i| {
                self.if_rx_packets[i] != 0 || self.if_tx_packets[i] != 0 || self.queue_depth[i] != 0
            })
            .map(|i| i + 1)
            .unwrap_or(0);
        for i in 0..last {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rx_packets\":{},\"rx_bytes\":{},\"tx_packets\":{},\"tx_bytes\":{},\"queue_depth\":{}}}",
                self.if_rx_packets[i],
                self.if_rx_bytes[i],
                self.if_tx_packets[i],
                self.if_tx_bytes[i],
                self.queue_depth[i],
            );
        }
        let _ = write!(
            out,
            "],\"flows_expired\":{},\"fragment_flows\":{},\
             \"flow_admission_denied\":{},\"flow_inline_expired\":{},\
             \"flow_evicted_lru\":{},\"flow_resize_steps\":{},\
             \"fib_cache_hit\":{},\"fib_cache_miss\":{},\
             \"fib\":{{\"compiled\":{},\"tbl8_groups\":{},\"next_hops\":{},\
             \"mem_bytes\":{},\"repaints\":{}}},\"pkt_size\":{},\
             \"sojourn_ns\":{{\"p50\":{},\"p99\":{},\"hist\":{}}},\
             \"mbuf_pool\":{{\"acquired\":{},\"recycled\":{},\"fresh\":{}}}}}",
            self.flows_expired,
            self.fragment_flows,
            self.flows.denied,
            self.flows.inline_expired,
            self.flows.evicted_lru,
            self.flows.resize_steps,
            self.fib_cache_hit,
            self.fib_cache_miss,
            self.fib_compiled,
            self.fib_tbl8_groups,
            self.fib_next_hops,
            self.fib_mem_bytes,
            self.fib_repaints,
            hist(&self.pkt_size),
            self.sojourn_ns.quantile(0.50),
            self.sojourn_ns.quantile(0.99),
            hist(&self.sojourn_ns),
            self.mbuf_acquired,
            self.mbuf_recycled,
            self.mbuf_fresh,
        );
        out
    }
}

/// Trace-event categories, each independently maskable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCategory {
    /// Flow-record lifecycle: created, evicted (recycled), expired.
    Flow,
    /// Filter-table changes: installed, removed.
    Filter,
    /// Plugin supervision: fault, quarantine, restart.
    Plugin,
    /// Shard dispatch (parallel data plane only).
    Shard,
}

/// Number of trace categories.
pub const TRACE_CATEGORIES: usize = 4;

impl TraceCategory {
    /// Index into the tracer's enable mask.
    pub fn index(self) -> usize {
        match self {
            TraceCategory::Flow => 0,
            TraceCategory::Filter => 1,
            TraceCategory::Plugin => 2,
            TraceCategory::Shard => 3,
        }
    }

    /// Stable label (trace dumps, JSON).
    pub fn label(self) -> &'static str {
        match self {
            TraceCategory::Flow => "flow",
            TraceCategory::Filter => "filter",
            TraceCategory::Plugin => "plugin",
            TraceCategory::Shard => "shard",
        }
    }
}

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic sequence number (counts every recorded event, including
    /// those since overwritten in the ring).
    pub seq: u64,
    /// Router virtual time when the event was recorded.
    pub now_ns: u64,
    /// Event category.
    pub category: TraceCategory,
    /// Human-readable detail line.
    pub detail: String,
}

/// Default tracer ring capacity.
pub const TRACE_CAPACITY: usize = 1024;

/// A bounded ring buffer of [`TraceEvent`]s. When full, the newest event
/// overwrites the oldest; the router never stops to trace. Disabled (the
/// default) the hot path pays one branch and builds no strings.
#[derive(Debug)]
pub struct Tracer {
    ring: Vec<TraceEvent>,
    capacity: usize,
    /// Next write position once the ring is full.
    head: usize,
    seq: u64,
    enabled: bool,
    categories: [bool; TRACE_CATEGORIES],
}

impl Tracer {
    /// A tracer with the given ring capacity (min 1), disabled, with every
    /// category unmasked.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            ring: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            seq: 0,
            enabled: false,
            categories: [true; TRACE_CATEGORIES],
        }
    }

    /// Master switch.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is tracing on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Mask or unmask one category.
    pub fn set_category(&mut self, category: TraceCategory, on: bool) {
        self.categories[category.index()] = on;
    }

    /// Would an event of this category be recorded right now? Check this
    /// before building an event string on a hot path (or use
    /// [`Tracer::record_with`]).
    #[inline]
    pub fn wants(&self, category: TraceCategory) -> bool {
        self.enabled && self.categories[category.index()]
    }

    /// Record an event unconditionally (caller already checked
    /// [`Tracer::wants`]).
    pub fn record(&mut self, now_ns: u64, category: TraceCategory, detail: String) {
        let ev = TraceEvent {
            seq: self.seq,
            now_ns,
            category,
            detail,
        };
        self.seq += 1;
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Record an event, building the detail string only if the category is
    /// enabled.
    #[inline]
    pub fn record_with<F: FnOnce() -> String>(
        &mut self,
        now_ns: u64,
        category: TraceCategory,
        detail: F,
    ) {
        if self.wants(category) {
            self.record(now_ns, category, detail());
        }
    }

    /// Total events recorded since construction (including overwritten
    /// ones); `seq() - dump(usize::MAX).len()` events have been lost to
    /// the ring bound.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The last `n` events in chronological order, without disturbing the
    /// ring (drainable while the router keeps running).
    pub fn dump(&self, n: usize) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.ring.len().min(n));
        let len = self.ring.len();
        // Chronological order: oldest is at `head` once the ring wrapped.
        let start = if len < self.capacity { 0 } else { self.head };
        let take = len.min(n);
        for k in (len - take)..len {
            out.push(self.ring[(start + k) % len.max(1)].clone());
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(TRACE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        assert_eq!(Histogram::bucket_of(1 << 30), 31);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        for b in 1..HIST_BUCKETS - 1 {
            assert_eq!(Histogram::bucket_of(Histogram::bucket_floor(b)), b);
            assert_eq!(Histogram::bucket_of(Histogram::bucket_floor(b + 1) - 1), b);
        }
    }

    #[test]
    fn histogram_observe_and_mean() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 108);
        assert!((h.mean() - 21.6).abs() < 1e-9);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 1); // 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[7], 1); // 100
        assert_eq!(h.trimmed_buckets().len(), 8);
        assert!(Histogram::default().trimmed_buckets().is_empty());
    }

    #[test]
    fn registry_absorb_adds_everything() {
        let mut a = MetricsRegistry::default();
        let mut b = MetricsRegistry::default();
        a.note_gate_call(Gate::Firewall);
        a.note_gate_latency(Gate::Firewall, 100);
        a.note_drop(DropReason::NoRoute);
        a.note_rx(0, 64);
        b.note_gate_call(Gate::Firewall);
        b.note_gate_call(Gate::Scheduling);
        b.note_drop(DropReason::NoRoute);
        b.note_drop(DropReason::Plugin(Gate::Firewall));
        b.note_tx(1, 1500);
        b.class_hits[0] = 7;
        b.fragment_flows = 2;
        b.queue_depth[1] = 3;
        b.mbuf_acquired = 10;
        b.mbuf_recycled = 9;
        b.mbuf_fresh = 1;
        b.forwarded = 4;
        b.plugin_restarts = 1;
        b.flows.denied = 5;
        a.absorb(&b);
        assert_eq!((a.received, a.forwarded, a.plugin_restarts), (1, 4, 1));
        assert_eq!(a.flows.denied, 5);
        assert_eq!(a.gate_calls[Gate::Firewall.index()], 2);
        assert_eq!(a.gate_calls[Gate::Scheduling.index()], 1);
        assert_eq!(a.gate_latency[Gate::Firewall.index()].count, 1);
        assert_eq!(a.drops[drop_reason_index(DropReason::NoRoute)], 2);
        assert_eq!(
            a.drops[drop_reason_index(DropReason::Plugin(Gate::Firewall))],
            1
        );
        assert_eq!(a.dropped_total(), 3);
        assert_eq!(a.if_rx_packets[0], 1);
        assert_eq!(a.if_tx_packets[1], 1);
        assert_eq!(a.if_tx_bytes[1], 1500);
        assert_eq!(a.class_hits[0], 7);
        assert_eq!(a.fragment_flows, 2);
        assert_eq!(a.queue_depth[1], 3);
        assert_eq!(a.pkt_size.count, 1);
        assert_eq!((a.mbuf_acquired, a.mbuf_recycled, a.mbuf_fresh), (10, 9, 1));
    }

    #[test]
    fn data_path_is_a_view_of_the_slots() {
        let mut m = MetricsRegistry::default();
        // Eight in: three forwarded (one later refused by the device),
        // five dropped in the router.
        for _ in 0..8 {
            m.note_rx(0, 64);
        }
        m.forwarded = 3;
        m.note_gate_call(Gate::Firewall);
        m.note_gate_call(Gate::Scheduling);
        for r in [
            DropReason::Malformed,
            DropReason::BadChecksum,
            DropReason::Plugin(Gate::Firewall),
            DropReason::Plugin(Gate::Stats),
            DropReason::PluginFault(Gate::Scheduling),
            DropReason::DeviceTx,
        ] {
            m.note_drop(r);
        }
        let d = m.data_path();
        assert_eq!((d.received, d.forwarded, d.plugin_calls), (8, 2, 2));
        assert_eq!(
            (d.dropped_malformed, d.dropped_plugin, d.dropped_fault),
            (2, 2, 1)
        );
        assert_eq!(d.dropped_device_tx, 1);
        assert_eq!(d.dropped_total(), m.dropped_total());
        assert_eq!(d.received, d.forwarded + d.dropped_total());
    }

    #[test]
    fn drop_reason_slots_are_distinct_and_labelled() {
        let mut seen = std::collections::HashSet::new();
        let mut reasons = vec![
            DropReason::Malformed,
            DropReason::BadChecksum,
            DropReason::TtlExpired,
            DropReason::NoRoute,
            DropReason::QueueFull,
            DropReason::TooBig,
            DropReason::Internal,
            DropReason::ShardOverload,
            DropReason::ShardDown,
            DropReason::DeviceRx,
            DropReason::DeviceTx,
            DropReason::DeadlineExceeded,
            DropReason::Evicted,
        ];
        for g in ALL_GATES {
            reasons.push(DropReason::Plugin(g));
            reasons.push(DropReason::PluginFault(g));
        }
        assert_eq!(reasons.len(), DROP_KINDS);
        for r in reasons {
            let i = drop_reason_index(r);
            assert!(i < DROP_KINDS);
            assert!(seen.insert(i), "slot collision at {i}");
            assert!(!drop_reason_label(i).is_empty());
        }
        assert_eq!(drop_reason_label(7), "shard_overload");
        assert_eq!(drop_reason_label(8), "shard_down");
        assert_eq!(drop_reason_label(9), "device_rx");
        assert_eq!(drop_reason_label(10), "device_tx");
        assert_eq!(drop_reason_label(11), "deadline_exceeded");
        assert_eq!(drop_reason_label(12), "plugin_firewall");
        assert_eq!(
            drop_reason_label(12 + GATE_COUNT + GATE_COUNT - 1),
            "plugin_fault_sched"
        );
    }

    #[test]
    fn histogram_quantile_estimates() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        // 99 values in bucket 7 ([64,128)) and one outlier in bucket 11
        // ([1024,2048)): p50 lands mid-bucket-7, p99 still bucket 7 (rank
        // 99 of 100), p100 reaches the outlier's bucket.
        for _ in 0..99 {
            h.observe(100);
        }
        h.observe(1500);
        assert_eq!(h.quantile(0.50), 64 + 32);
        assert_eq!(h.quantile(0.99), 64 + 32);
        assert_eq!(h.quantile(1.0), 1024 + 512);
        // All zeros: quantiles stay at bucket 0's floor.
        let mut z = Histogram::default();
        z.observe(0);
        z.observe(0);
        assert_eq!(z.quantile(0.99), 0);
    }

    #[test]
    fn gate_call_sampling_cadence() {
        let mut m = MetricsRegistry::default();
        let mut sampled = 0;
        for _ in 0..(LATENCY_SAMPLE * 3) {
            if m.note_gate_call(Gate::Stats) {
                sampled += 1;
            }
        }
        assert_eq!(sampled, 3);
        assert_eq!(m.gate_calls[Gate::Stats.index()], LATENCY_SAMPLE * 3);
    }

    #[test]
    fn tracer_ring_wraps_keeping_newest() {
        let mut t = Tracer::new(4);
        t.set_enabled(true);
        for i in 0..6u64 {
            t.record_with(i * 10, TraceCategory::Flow, || format!("ev{i}"));
        }
        assert_eq!(t.seq(), 6);
        let all = t.dump(usize::MAX);
        assert_eq!(all.len(), 4);
        assert_eq!(
            all.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        assert_eq!(all[0].detail, "ev2");
        assert_eq!(all[3].detail, "ev5");
        // dump(n) takes the newest n, still chronological.
        let two = t.dump(2);
        assert_eq!(two.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![4, 5]);
        // Ring is not disturbed by dumping.
        assert_eq!(t.dump(usize::MAX).len(), 4);
    }

    #[test]
    fn tracer_masking() {
        let mut t = Tracer::new(8);
        // Disabled: nothing recorded, no string built.
        t.record_with(0, TraceCategory::Flow, || {
            unreachable!("must not format while disabled")
        });
        t.set_enabled(true);
        t.set_category(TraceCategory::Shard, false);
        assert!(t.wants(TraceCategory::Flow));
        assert!(!t.wants(TraceCategory::Shard));
        t.record_with(0, TraceCategory::Shard, || {
            unreachable!("must not format a masked category")
        });
        t.record_with(5, TraceCategory::Filter, || "f".to_string());
        assert_eq!(t.dump(10).len(), 1);
        assert_eq!(t.dump(10)[0].category.label(), "filter");
    }

    #[test]
    fn json_rendering_shape() {
        let mut m = MetricsRegistry::default();
        m.note_gate_call(Gate::Firewall);
        m.note_drop(DropReason::NoRoute);
        m.note_rx(0, 64);
        let j = m.render_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"firewall\":{\"calls\":1"));
        assert!(j.contains("\"no_route\":1"));
        assert!(j.contains("\"rx_packets\":1"));
        assert!(j.contains("\"fragment_flows\":0"));
        assert!(j.contains("\"flow_evicted_lru\":0"));
        assert!(j.contains("\"flow_resize_steps\":0"));
        assert!(j.contains("\"fib_cache_hit\":0"));
        assert!(j.contains("\"fib_cache_miss\":0"));
        assert!(j.contains("\"fib\":{\"compiled\":0,\"tbl8_groups\":0,"));
        assert!(j.contains("\"sojourn_ns\":{\"p50\":0,\"p99\":0,"));
        assert!(j.contains("\"mbuf_pool\":{\"acquired\":0,\"recycled\":0,\"fresh\":0}"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
