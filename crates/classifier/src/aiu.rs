//! The Association Identification Unit facade: one filter table per
//! *gate*, one shared flow table, and the two data paths of paper §3.2:
//!
//! * **Uncached** (first packet of a flow): the flow-table lookup misses,
//!   the AIU performs one filter-table lookup *per gate* and creates a
//!   single flow record caching every gate's plugin binding.
//! * **Cached**: the flow-table lookup hits; the FIX is handed back so
//!   subsequent gates cost one indexed load each.
//!
//! The paper keeps one filter table per gate (rather than one merged
//! global table) because per-function policies differ and a merged table
//! blows up combinatorially (§5.1); the AIU mirrors that design.

use crate::dag::{BmpKind, DagError, DagTable, LookupStats};
use crate::filter::{FilterId, FilterSpec};
use crate::flow_table::{key_hash, Admit, EvictedFlow, FlowTable, FlowTableConfig, FlowTableStats};
use rp_packet::mbuf::FlowIndex;
use rp_packet::{FlowKey, FlowTuple, Mbuf};

/// Index of a gate (the paper's plugin-type/gate correspondence lives in
/// `router-core`; the AIU just numbers them).
pub type GateId = usize;

/// A flow record's gate binding: the bound instance and the filter the
/// binding was derived from (one pair of the record) and the per-flow
/// soft-state slot (the gate's column).
pub type BindingMut<'a, V> = (
    &'a V,
    Option<FilterId>,
    &'a mut Option<Box<dyn std::any::Any + Send>>,
);

/// AIU construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct AiuConfig {
    /// Number of gates (filter tables).
    pub gates: usize,
    /// Flow-cache configuration.
    pub flow_table: FlowTableConfig,
    /// BMP plugin for the DAG address levels.
    pub bmp: BmpKind,
}

impl Default for AiuConfig {
    fn default() -> Self {
        let gates = 4;
        AiuConfig {
            gates,
            flow_table: FlowTableConfig {
                gates,
                ..FlowTableConfig::default()
            },
            bmp: BmpKind::Bspl,
        }
    }
}

/// The AIU. `V` is the plugin-instance handle type (must be cheap to
/// clone: `router-core` uses a `Copy` slot handle).
pub struct Aiu<V: Clone> {
    filter_tables: Vec<DagTable<V>>,
    flow_table: FlowTable<V>,
    cfg: AiuConfig,
    /// The flow the latest classification recycled. Its bindings travel
    /// inline (no heap), which makes it several cache lines wide, so the
    /// flow table gathers it in here and it is lent out, rather than
    /// returned by value through every layer of a path that, on a cache
    /// hit, has nothing to return.
    evicted: EvictedFlow<V>,
}

/// Outcome of classifying one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifyOutcome {
    /// Flow was cached; FIX returned directly.
    CacheHit(FlowIndex),
    /// Flow was not cached; filter lookups ran at every gate and a record
    /// was created.
    CacheMiss(FlowIndex),
    /// The flow table's admission control refused a record (table full of
    /// busy flows). The packet is still forwarded, but uncached and on
    /// every gate's default path — under a flow-table flood it is the
    /// attacker's flows that land here, not established ones.
    Denied,
}

impl ClassifyOutcome {
    /// The flow index, when a record exists.
    pub fn fix(&self) -> Option<FlowIndex> {
        match self {
            ClassifyOutcome::CacheHit(f) | ClassifyOutcome::CacheMiss(f) => Some(*f),
            ClassifyOutcome::Denied => None,
        }
    }
}

impl<V: Clone> Aiu<V> {
    /// Build an AIU.
    pub fn new(cfg: AiuConfig) -> Self {
        assert_eq!(
            cfg.gates, cfg.flow_table.gates,
            "flow records must carry one binding per gate"
        );
        let flow_table = FlowTable::new(cfg.flow_table);
        Aiu {
            filter_tables: (0..cfg.gates).map(|_| DagTable::new(cfg.bmp)).collect(),
            evicted: flow_table.parked(),
            flow_table,
            cfg,
        }
    }

    /// Number of gates.
    pub fn gates(&self) -> usize {
        self.cfg.gates
    }

    /// Install a filter in `gate`'s table, bound to `value`
    /// (`register_instance` semantics). Cached flows the new filter
    /// matches are invalidated — they may bind differently now — and
    /// returned so the caller can run plugin eviction callbacks.
    pub fn install_filter(
        &mut self,
        gate: GateId,
        spec: FilterSpec,
        value: V,
    ) -> Result<(FilterId, Vec<EvictedFlow<V>>), DagError> {
        let id = self.filter_tables[gate].insert(spec.clone(), value)?;
        // The gate can bind instances from here on: it needs its column.
        self.flow_table.enable_gate(gate);
        let evicted = self.flow_table.invalidate_matching(&spec);
        Ok((id, evicted))
    }

    /// Remove a filter and invalidate every cached flow derived from it
    /// (`deregister_instance`). Returns the evicted flows so the caller
    /// can run plugin callbacks.
    pub fn remove_filter(
        &mut self,
        gate: GateId,
        id: FilterId,
    ) -> Result<(FilterSpec, V, Vec<EvictedFlow<V>>), DagError> {
        let (spec, v) = self.filter_tables[gate].remove(id)?;
        let evicted = self.flow_table.invalidate_filter(gate, id);
        Ok((spec, v, evicted))
    }

    /// The filter table of a gate (read access, e.g. for diagnostics).
    pub fn filter_table(&self, gate: GateId) -> &DagTable<V> {
        &self.filter_tables[gate]
    }

    /// Classify a flow: the paper's first-gate logic. On a miss, runs
    /// the filter lookup of **every gate that has filters** and fills one
    /// flow record ("the processing of the first packet of a new flow
    /// with n gates involves n filter table lookups to create a single
    /// entry"). Any recycled flow's bindings are lent out for eviction
    /// callbacks ([`crate::flow_table::GateArray::drain`]); what the
    /// caller leaves in them is dropped by the next classification that
    /// recycles. The router's entry is
    /// [`classify_mbuf_with`](Self::classify_mbuf_with).
    #[inline]
    pub fn classify(
        &mut self,
        tuple: &FlowTuple,
    ) -> (ClassifyOutcome, Option<&mut EvictedFlow<V>>) {
        self.classify_key(&FlowKey::of(tuple), |aiu, fix| aiu.bind_gates(fix, tuple))
    }

    /// Both entries' probe: one hash (denied floods too), `miss` on a new record.
    #[inline]
    fn classify_key(
        &mut self,
        key: &FlowKey,
        miss: impl FnOnce(&mut Self, FlowIndex),
    ) -> (ClassifyOutcome, Option<&mut EvictedFlow<V>>) {
        let hash = key_hash(key);
        match self
            .flow_table
            .lookup_or_insert(key, hash, &mut self.evicted)
        {
            Admit::Hit(fix) => (ClassifyOutcome::CacheHit(fix), None),
            Admit::Denied => (ClassifyOutcome::Denied, None),
            Admit::New { fix, recycled } => {
                miss(self, fix);
                let evicted = recycled.then_some(&mut self.evicted);
                (ClassifyOutcome::CacheMiss(fix), evicted)
            }
        }
    }

    /// The miss path: bind each gate's match for `tuple` into record `fix`.
    fn bind_gates(&mut self, fix: FlowIndex, tuple: &FlowTuple) {
        for (gate, table) in self.filter_tables.iter().enumerate() {
            if table.is_empty() {
                continue;
            }
            if let Some((id, v)) = table.lookup(tuple) {
                self.flow_table.bind(fix, gate, v.clone(), id);
            }
        }
    }

    /// [`classify_mbuf_with`](Self::classify_mbuf_with) and no hook.
    #[inline]
    pub fn classify_mbuf(
        &mut self,
        mbuf: &mut Mbuf,
    ) -> Result<(ClassifyOutcome, Option<&mut EvictedFlow<V>>), rp_packet::Error> {
        self.classify_mbuf_with(mbuf, |_| {})
    }

    /// Classify an mbuf as [`classify`](Self::classify) does a tuple,
    /// extracting its key and caching the FIX into the mbuf (what the
    /// first gate's macro does in the paper). A denied packet is marked
    /// so later gates skip reclassification — without the mark, every
    /// gate of a denied packet would re-run the n filter lookups, turning
    /// admission control into an amplifier. `on_new` runs exactly once
    /// when the flow gets a fresh record, handed the key, **before** the
    /// filter lookups, and never on a hit or a denial: it is where the
    /// router starts the route lookup's memory load. Only a miss builds
    /// the tuple, once, after it.
    #[inline]
    pub fn classify_mbuf_with(
        &mut self,
        mbuf: &mut Mbuf,
        on_new: impl FnOnce(&FlowKey),
    ) -> Result<(ClassifyOutcome, Option<&mut EvictedFlow<V>>), rp_packet::Error> {
        let key = FlowKey::extract(mbuf.data(), mbuf.rx_if)?;
        let (outcome, evicted) = self.classify_key(&key, |aiu, fix| {
            on_new(&key);
            aiu.bind_gates(fix, &key.tuple());
        });
        mbuf.fix = outcome.fix();
        if matches!(outcome, ClassifyOutcome::Denied) {
            mbuf.class_denied = true;
        }
        Ok((outcome, evicted))
    }

    /// Fast-path fetch: the instance bound at `gate` for an
    /// already-classified packet. One indexed load — no hashing, no
    /// filter lookup (the "indirect function call instead of a 'hardwired'
    /// function call" of §3.2).
    pub fn instance(&self, fix: FlowIndex, gate: GateId) -> Option<&V> {
        self.flow_table.record(fix)?.instance(gate)
    }

    /// Single-access fetch of a gate binding: instance, filter id and
    /// soft-state slot (the data path calls this once per gate). `None`
    /// when the record is gone or nothing is bound.
    #[inline]
    pub fn binding_mut(&mut self, fix: FlowIndex, gate: GateId) -> Option<BindingMut<'_, V>> {
        self.flow_table.binding_mut(fix, gate)
    }

    /// Drop every cached flow whose record satisfies `pred` (the router
    /// quarantining a faulted instance invalidates all flows still bound
    /// to it, at any gate). Returns the evicted flows for callbacks.
    pub fn invalidate_flows_where(
        &mut self,
        pred: impl FnMut(&crate::flow_table::FlowRecord<V>) -> bool,
    ) -> Vec<EvictedFlow<V>> {
        self.flow_table.invalidate_where(pred)
    }

    /// Advance the AIU's virtual clock (idle-expiry bookkeeping).
    pub fn set_now(&mut self, now_ns: u64) {
        self.flow_table.set_now(now_ns);
    }

    /// Allocation-free idle-expiry sweep: flows idle longer than
    /// `max_idle_ns` are evicted and their bindings appended to `out`
    /// (the router's reusable scratch buffer). Returns the eviction
    /// count. (The allocating `expire_idle` variant was removed; every
    /// caller threads a scratch buffer now.)
    pub fn expire_idle_into(&mut self, max_idle_ns: u64, out: &mut Vec<EvictedFlow<V>>) -> usize {
        self.flow_table.expire_idle_into(max_idle_ns, out)
    }

    /// Flow-cache statistics.
    pub fn flow_stats(&self) -> FlowTableStats {
        self.flow_table.stats()
    }

    /// Approximate heap footprint of the flow table (bucket arrays plus
    /// record storage) in bytes — the scale bench's bounded-memory gate.
    pub fn flow_mem_bytes(&self) -> usize {
        self.flow_table.approx_mem_bytes()
    }

    /// Cumulative filter-table access statistics summed over gates.
    pub fn filter_stats(&self) -> LookupStats {
        let mut total = LookupStats::default();
        for t in &self.filter_tables {
            let s = t.stats_snapshot();
            total.bmp_fn_ptr += s.bmp_fn_ptr;
            total.hash_fn_ptr += s.hash_fn_ptr;
            total.addr_probes += s.addr_probes;
            total.port_probes += s.port_probes;
            total.dag_edges += s.dag_edges;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    fn tuple(i: u32) -> FlowTuple {
        FlowTuple {
            src: IpAddr::V4(Ipv4Addr::from(0x0A00_0000 | i)),
            dst: IpAddr::V4(Ipv4Addr::new(192, 94, 233, 10)),
            proto: 6,
            sport: 1000 + i as u16,
            dport: 80,
            rx_if: 0,
        }
    }

    fn aiu3() -> Aiu<&'static str> {
        Aiu::new(AiuConfig {
            gates: 3,
            flow_table: FlowTableConfig {
                gates: 3,
                buckets: 256,
                initial_records: 8,
                max_records: 32,
                max_idle_ns: 0,
                ..FlowTableConfig::default()
            },
            bmp: BmpKind::Bspl,
        })
    }

    #[test]
    fn uncached_then_cached() {
        let mut aiu = aiu3();
        aiu.install_filter(0, "10.0.0.0/8, *, TCP, *, *, *".parse().unwrap(), "sec")
            .unwrap();
        aiu.install_filter(2, "*, *, TCP, *, 80, *".parse().unwrap(), "sched")
            .unwrap();
        let t = tuple(1);
        let (o1, _) = aiu.classify(&t);
        assert!(matches!(o1, ClassifyOutcome::CacheMiss(_)));
        let (o2, _) = aiu.classify(&t);
        assert_eq!(o2, ClassifyOutcome::CacheHit(o1.fix().unwrap()));
        // All gates were resolved on the miss.
        assert_eq!(aiu.instance(o1.fix().unwrap(), 0), Some(&"sec"));
        assert_eq!(aiu.instance(o1.fix().unwrap(), 1), None); // no filter at gate 1
        assert_eq!(aiu.instance(o1.fix().unwrap(), 2), Some(&"sched"));
    }

    #[test]
    fn n_filter_lookups_on_first_packet_only() {
        let mut aiu = aiu3();
        aiu.install_filter(0, FilterSpec::any(), "a").unwrap();
        aiu.install_filter(1, FilterSpec::any(), "b").unwrap();
        aiu.install_filter(2, FilterSpec::any(), "c").unwrap();
        let t = tuple(7);
        let before = aiu.filter_stats().dag_edges;
        aiu.classify(&t);
        let after_miss = aiu.filter_stats().dag_edges;
        // 3 gates × 6 levels of edge traversal.
        assert_eq!(after_miss - before, 18);
        aiu.classify(&t);
        assert_eq!(
            aiu.filter_stats().dag_edges,
            after_miss,
            "cached path must not touch filter tables"
        );
    }

    /// A UDP packet of flow `i`'s addresses and ports.
    fn packet(i: u32) -> Mbuf {
        let t = tuple(i);
        let spec = rp_packet::builder::PacketSpec::udp(t.src, t.dst, t.sport, t.dport, 8);
        Mbuf::new(spec.build(), 0)
    }

    /// `on_new` fires once per new record and on nothing else, with the
    /// packet's own key.
    #[test]
    fn on_new_runs_once_per_miss_and_never_on_a_hit_or_a_denial() {
        // Admission control as in `flow_table::tests::defended`: a table
        // full of busy flows denies the next one.
        let mut aiu: Aiu<&str> = Aiu::new(AiuConfig {
            gates: 3,
            flow_table: FlowTableConfig {
                gates: 3,
                buckets: 64,
                max_buckets: 0,
                initial_records: 4,
                max_records: 8,
                max_idle_ns: 1_000_000,
                lru_evict: false,
            },
            bmp: BmpKind::Bspl,
        });
        aiu.install_filter(0, FilterSpec::any(), "p").unwrap();
        let mut seen = Vec::new();
        let mut want = Vec::new();
        for i in 0..8 {
            let mut m = packet(i);
            want.push(FlowKey::extract(m.data(), m.rx_if).unwrap());
            let (o, _) = aiu.classify_mbuf_with(&mut m, |k| seen.push(*k)).unwrap();
            assert!(matches!(o, ClassifyOutcome::CacheMiss(_)));
            let (o, _) = aiu.classify_mbuf_with(&mut m, |k| seen.push(*k)).unwrap();
            assert!(matches!(o, ClassifyOutcome::CacheHit(_)));
        }
        assert_eq!(seen, want);
        let (o, _) = aiu
            .classify_mbuf_with(&mut packet(100), |k| seen.push(*k))
            .unwrap();
        assert_eq!(o, ClassifyOutcome::Denied);
        assert_eq!(seen.len(), 8, "a denied flow gets no record and no hook");
    }

    /// The hook runs before any filter table is touched — that is what
    /// lets the walks hide whatever it starts. A hook that unwinds stops
    /// the classification where the hook stood: no DAG edge was followed.
    #[test]
    fn on_new_runs_before_the_filter_table_walks() {
        let mut aiu = aiu3();
        for gate in 0..3 {
            aiu.install_filter(gate, FilterSpec::any(), "p").unwrap();
        }
        let before = aiu.filter_stats().dag_edges;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ =
                aiu.classify_mbuf_with(&mut packet(1), |_| std::panic::resume_unwind(Box::new(())));
        }));
        assert!(unwound.is_err(), "the hook ran");
        assert_eq!(aiu.filter_stats().dag_edges, before);
        aiu.classify(&tuple(2));
        assert_eq!(aiu.filter_stats().dag_edges, before + 18, "then the walks");
    }

    #[test]
    fn filter_removal_invalidates_flows() {
        let mut aiu = aiu3();
        let (fid, _) = aiu
            .install_filter(1, "*, *, TCP, *, *, *".parse().unwrap(), "x")
            .unwrap();
        let t = tuple(3);
        let (o, _) = aiu.classify(&t);
        assert_eq!(aiu.instance(o.fix().unwrap(), 1), Some(&"x"));
        let (_, _, evicted) = aiu.remove_filter(1, fid).unwrap();
        assert_eq!(evicted.len(), 1);
        // The flow reclassifies to nothing at gate 1.
        let (o2, _) = aiu.classify(&t);
        assert!(matches!(o2, ClassifyOutcome::CacheMiss(_)));
        assert_eq!(aiu.instance(o2.fix().unwrap(), 1), None);
    }

    #[test]
    fn binding_is_one_fetch_and_absent_when_unbound() {
        let mut aiu = aiu3();
        let (fid, _) = aiu.install_filter(0, FilterSpec::any(), "p").unwrap();
        let (o, _) = aiu.classify(&tuple(9));
        let fix = o.fix().unwrap();
        let (inst, filter, soft) = aiu.binding_mut(fix, 0).unwrap();
        assert_eq!((*inst, filter), ("p", Some(fid)));
        *soft = Some(Box::new(7u8));
        assert!(aiu.binding_mut(fix, 0).unwrap().2.is_some());
        assert!(aiu.binding_mut(fix, 1).is_none(), "nothing bound at gate 1");
        assert!(aiu.binding_mut(fix, 3).is_none(), "no such gate");
    }

    #[test]
    fn soft_state_slot() {
        let mut aiu = aiu3();
        aiu.install_filter(0, FilterSpec::any(), "p").unwrap();
        let (o, _) = aiu.classify(&tuple(9));
        *aiu.binding_mut(o.fix().unwrap(), 0).unwrap().2 = Some(Box::new(42u64));
        let st = aiu.binding_mut(o.fix().unwrap(), 0).unwrap().2;
        assert_eq!(*st.as_ref().unwrap().downcast_ref::<u64>().unwrap(), 42);
    }

    /// A gate's first filter, and no later one, buys its soft-state
    /// column: eight 16-byte slots here, under a live record.
    #[test]
    fn a_gates_first_filter_buys_its_soft_state_column() {
        let mut aiu = aiu3();
        aiu.classify(&tuple(1));
        let base = aiu.flow_mem_bytes();
        aiu.install_filter(1, FilterSpec::any(), "p").unwrap();
        assert_eq!(aiu.flow_mem_bytes(), base + 8 * 16);
        let tcp = "*, *, TCP, *, *, *".parse().unwrap();
        aiu.install_filter(1, tcp, "q").unwrap();
        assert_eq!(aiu.flow_mem_bytes(), base + 8 * 16);
    }

    #[test]
    fn recycling_under_pressure() {
        let mut aiu = aiu3();
        aiu.install_filter(0, FilterSpec::any(), "p").unwrap();
        let mut evictions = 0;
        for i in 0..100 {
            let (_, ev) = aiu.classify(&tuple(i));
            if ev.is_some() {
                evictions += 1;
            }
        }
        assert_eq!(aiu.flow_stats().live, 32);
        assert_eq!(evictions, 100 - 32);
        // Oldest flows were recycled; recent ones still cached.
        let (o, _) = aiu.classify(&tuple(99));
        assert!(matches!(o, ClassifyOutcome::CacheHit(_)));
        let (o, _) = aiu.classify(&tuple(0));
        assert!(matches!(o, ClassifyOutcome::CacheMiss(_)));
    }
}
