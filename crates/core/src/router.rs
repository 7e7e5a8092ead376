//! The assembled Extended Integrated Services Router: PCU + loader + AIU +
//! routing table + interfaces, with the gate-traversing data path of paper
//! §3.2 and the Router Plugin Library control API of §3.1.

use crate::gate::{Gate, ALL_GATES, GATE_COUNT};
use crate::ip_core::{
    dst_of, validate_and_age, DataPathStats, Disposition, DropReason, RouteEntry, RoutingTable,
};
use crate::loader::PluginLoader;
use crate::message::{PluginMsg, PluginReply};
use crate::obs::{self, MetricsRegistry, MetricsSnapshot, TraceCategory, Tracer};
use crate::pcu::Pcu;
use crate::plugin::{InstanceHandle, InstanceId, PacketCtx, PluginAction, PluginError};
use crate::supervisor::{self, FaultKind, FaultPolicy, HealthReport, Supervisor};
use rp_classifier::aiu::ClassifyOutcome;
use rp_classifier::flow_table::{EvictedFlow, FlowRecord};
use rp_classifier::{Aiu, AiuConfig, BmpKind, FilterId, FlowTableConfig};
use rp_packet::mbuf::IfIndex;
use rp_packet::{Mbuf, MbufPool, PoolStats};
use std::net::IpAddr;

// `scale1m` holds a million of these, three cache lines each: a field
// that widens the record moves its `mem_mb` and the lines a cold hit
// touches (`classifier::flow_table` pins which field sits on which).
const _: () = assert!(std::mem::size_of::<FlowRecord<InstanceHandle>>() == 192);
const _: () = assert!(std::mem::align_of::<FlowRecord<InstanceHandle>>() == 64);

/// A network interface: egress queue plus bookkeeping. Reception is
/// modelled by calling [`Router::receive`] with the interface id.
pub struct Interface {
    /// Interface id.
    pub id: IfIndex,
    /// MTU in bytes (the paper's ATM testbed uses 9180).
    pub mtu: usize,
    /// The router's own address on this interface (source of ICMP
    /// errors; errors are suppressed when unset).
    pub addr: Option<IpAddr>,
    /// Scheduler instances that currently hold packets for this interface
    /// (the default FIFO plus any flow-bound plugin instances).
    scheds: Vec<InstanceHandle>,
    /// Transmitted packets, collected by the testbench ("the wire").
    pub tx_log: Vec<Mbuf>,
}

impl Interface {
    fn attach_sched(&mut self, inst: InstanceHandle) {
        if !self.scheds.contains(&inst) {
            self.scheds.push(inst);
        }
    }
}

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of interfaces.
    pub interfaces: usize,
    /// MTU for every interface.
    pub mtu: usize,
    /// Verify IPv4 header checksums on reception.
    pub verify_checksums: bool,
    /// Which gates are compiled into the data path. The Table 3 baseline
    /// ("unmodified kernel") runs with none.
    pub enabled_gates: Vec<Gate>,
    /// Flow-cache configuration.
    pub flow_table: FlowTableConfig,
    /// BMP plugin for the classifier's address levels.
    pub bmp: BmpKind,
    /// Plugin fault-handling policy (thresholds, budget, restart).
    pub fault_policy: FaultPolicy,
    /// End-to-end latency deadline in wall-clock nanoseconds; `0`
    /// disables the check. When set, a packet whose coarse ingress
    /// stamp (see [`rp_packet::coarse_now_ns`]) is already older than
    /// this at [`Router::receive_burst`] is shed as
    /// [`DropReason::DeadlineExceeded`] instead of forwarded late.
    pub max_sojourn_ns: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            interfaces: 4,
            mtu: 9180,
            verify_checksums: true,
            enabled_gates: ALL_GATES.to_vec(),
            flow_table: FlowTableConfig {
                gates: GATE_COUNT,
                ..FlowTableConfig::default()
            },
            bmp: BmpKind::Bspl,
            fault_policy: FaultPolicy::default(),
            max_sojourn_ns: 0,
        }
    }
}

/// The router.
pub struct Router {
    /// The Plugin Control Unit.
    pub pcu: Pcu,
    /// The module loader.
    pub loader: PluginLoader,
    aiu: Aiu<InstanceHandle>,
    routes: RoutingTable,
    interfaces: Vec<Interface>,
    /// The enabled gates, one [`Gate::bit`] each.
    enabled: u8,
    verify_checksums: bool,
    max_sojourn_ns: u64,
    now_ns: u64,
    /// The instance table: every plugin instance this router runs, with
    /// its health record.
    supervisor: Supervisor,
    /// The gate and instance whose code is running right now, written
    /// before every call into a plugin: a panic caught by the enclosing
    /// isolation frame is charged to this instance.
    in_flight: Option<(Gate, InstanceHandle)>,
    metrics: MetricsRegistry,
    tracer: Tracer,
    /// Free list of packet backing buffers. Every data-path drop and
    /// every fragment emission recycles through here; drivers that build
    /// ingress mbufs with [`Router::mbuf_with`] and return egress buffers
    /// via [`Router::recycle_mbuf`] run allocation-free in steady state.
    pool: MbufPool,
    /// Reusable buffer for idle-expiry sweeps (no per-sweep `Vec`).
    evict_scratch: Vec<EvictedFlow<InstanceHandle>>,
}

/// How a pre-routing gate ended a packet's walk.
enum GateStop {
    /// The instance took the packet.
    Consumed(Gate),
    /// The packet is to be dropped (plugin verdict, or unclassifiable).
    Drop(DropReason),
}

/// The gates a packet crosses before the routing decision, in order.
const PRE_ROUTING_GATES: [Gate; 5] = [
    Gate::Firewall,
    Gate::Ipv6Options,
    Gate::IpSecurity,
    Gate::Routing,
    Gate::Stats,
];

/// The gate mask of [`PRE_ROUTING_GATES`]: every gate before Scheduling.
const PRE_ROUTING: u8 = Gate::Scheduling.bit() - 1;

impl Router {
    /// Build a router; plugins are loaded separately (see
    /// [`crate::plugins::register_builtin_factories`]).
    pub fn new(cfg: RouterConfig) -> Self {
        let mut flow_cfg = cfg.flow_table;
        flow_cfg.gates = GATE_COUNT;
        let enabled = cfg.enabled_gates.iter().fold(0, |m, g| m | g.bit());
        Router {
            pcu: Pcu::new(),
            loader: PluginLoader::new(),
            aiu: Aiu::new(AiuConfig {
                gates: GATE_COUNT,
                flow_table: flow_cfg,
                bmp: cfg.bmp,
            }),
            routes: RoutingTable::new(),
            interfaces: (0..cfg.interfaces)
                .map(|i| Interface {
                    id: i as IfIndex,
                    mtu: cfg.mtu,
                    addr: None,
                    scheds: Vec::new(),
                    tx_log: Vec::new(),
                })
                .collect(),
            enabled,
            verify_checksums: cfg.verify_checksums,
            max_sojourn_ns: cfg.max_sojourn_ns,
            now_ns: 0,
            supervisor: Supervisor::new(cfg.fault_policy),
            in_flight: None,
            metrics: MetricsRegistry::default(),
            tracer: Tracer::default(),
            pool: MbufPool::default(),
            evict_scratch: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Control path (the Router Plugin Library API)
    // ------------------------------------------------------------------

    /// `modload <name>`.
    pub fn load_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.loader.load(name, &mut self.pcu)
    }

    /// `modunload <name>`.
    pub fn unload_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.loader.unload(name, &mut self.pcu)
    }

    /// Forced `modunload`: free every live instance first — deregistering
    /// its filters, flushing its cached flows, and detaching it from
    /// interface egress queues — then unload the module. The plain
    /// [`Router::unload_plugin`] keeps the refusal semantics when
    /// instances are live; this is the operator's escape hatch for a
    /// misbehaving module with flows still bound mid-stream.
    pub fn force_unload_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        let ids = self.pcu.instances(name)?;
        for id in ids {
            self.send_message(name, PluginMsg::FreeInstance { id })?;
        }
        self.loader.unload(name, &mut self.pcu)
    }

    /// Send a standardized or plugin-specific message to a plugin — the
    /// full control path of Figure 2 (PCU dispatch, AIU registration).
    pub fn send_message(
        &mut self,
        plugin: &str,
        msg: PluginMsg,
    ) -> Result<PluginReply, PluginError> {
        match msg {
            PluginMsg::CreateInstance { config } => {
                let (id, _) = self
                    .pcu
                    .create_instance(plugin, &config, &mut self.supervisor)?;
                Ok(PluginReply::InstanceCreated(id))
            }
            PluginMsg::FreeInstance { id } => {
                let inst = self.pcu.instance(plugin, id)?;
                // Drain any egress queue the instance holds onto the wire
                // first: deregistering below runs the instance's own
                // flow-eviction callbacks, which (for schedulers) discard
                // the flow's backlog — those packets were already counted
                // forwarded and must not be blackholed. This also detaches
                // the instance so the data path can't dequeue from it
                // after the free.
                self.detach_sched_everywhere(inst);
                // Purge filter bindings referencing this instance.
                for gate in ALL_GATES {
                    for fid in self.filters_bound_to(gate, inst) {
                        self.deregister(gate, fid)?;
                    }
                }
                self.pcu.free_instance(plugin, id, &mut self.supervisor)?;
                Ok(PluginReply::InstanceFreed)
            }
            PluginMsg::RegisterInstance { id, gate, filter } => {
                let inst = self.pcu.instance(plugin, id)?;
                let (fid, evicted) = self
                    .aiu
                    .install_filter(gate.index(), filter.clone(), inst)
                    .map_err(|e| PluginError::Filter(e.to_string()))?;
                self.tracer
                    .record_with(self.now_ns, TraceCategory::Filter, || {
                        format!("filter installed at {gate} id={}: {filter}", fid.0)
                    });
                self.supervisor.note_binding(inst, gate, filter, fid);
                self.unbind_flows(evicted);
                Ok(PluginReply::Registered(fid))
            }
            PluginMsg::DeregisterInstance { gate, filter } => {
                self.deregister(gate, filter)?;
                Ok(PluginReply::Deregistered)
            }
            PluginMsg::Custom {
                instance,
                name,
                args,
            } => {
                let text = self.pcu.custom_message(
                    plugin,
                    instance,
                    &name,
                    &args,
                    &mut self.supervisor,
                )?;
                Ok(PluginReply::Text(text))
            }
        }
    }

    /// The filters at `gate` whose binding is `inst`.
    fn filters_bound_to(&self, gate: Gate, inst: InstanceHandle) -> Vec<FilterId> {
        let table = self.aiu.filter_table(gate.index());
        table
            .filter_ids()
            .into_iter()
            .filter(|fid| table.get(*fid).is_some_and(|(_, v)| *v == inst))
            .collect()
    }

    fn deregister(&mut self, gate: Gate, fid: FilterId) -> Result<(), PluginError> {
        let (_spec, inst, evicted) = self
            .aiu
            .remove_filter(gate.index(), fid)
            .map_err(|e| PluginError::Filter(e.to_string()))?;
        self.tracer
            .record_with(self.now_ns, TraceCategory::Filter, || {
                format!("filter removed at {gate} id={}", fid.0)
            });
        self.supervisor.note_unbinding(inst, gate, fid);
        if let Some(inst) = self.supervisor.live_mut(inst) {
            let _ = supervisor::run_isolated(|| inst.filter_unbound(fid));
        }
        self.unbind_flows(evicted);
        Ok(())
    }

    /// Run evicted flows' callbacks and charge the ones that panicked.
    fn unbind_flows(&mut self, evicted: impl IntoIterator<Item = EvictedFlow<InstanceHandle>>) {
        let mut purged = Vec::new();
        for mut ev in evicted {
            let faults = Self::run_eviction_callbacks(&mut self.supervisor, &mut ev, &mut purged);
            for (inst, msg) in faults {
                self.note_fault(inst, &FaultKind::Panic(msg));
            }
        }
        self.drop_purged(purged);
    }

    /// Drop the queued packets eviction callbacks purged. Each was
    /// counted `forwarded` when queued; the `Evicted` slot takes it back.
    fn drop_purged(&mut self, purged: Vec<Mbuf>) {
        for mbuf in purged {
            self.drop_pkt(mbuf, DropReason::Evicted);
        }
    }

    /// Run per-flow eviction callbacks inside one isolation frame per
    /// flow (a second one only after a panic, for the gates behind it).
    /// Only live instances hear them: a quarantined instance's code must
    /// not run again, and a stale handle names nobody. Returns the
    /// instances whose callback panicked, for the caller to charge once
    /// its borrow of `ev` — possibly the AIU's parked slot — has ended.
    #[must_use]
    fn run_eviction_callbacks(
        instances: &mut Supervisor,
        ev: &mut EvictedFlow<InstanceHandle>,
        purged: &mut Vec<Mbuf>,
    ) -> Vec<(InstanceHandle, String)> {
        let mut faults = Vec::new();
        let mut in_flight = None;
        while let Err(msg) = supervisor::run_isolated(|| {
            for g in ev.gates.drain() {
                in_flight = g.instance;
                if let Some(inst) = g.instance.and_then(|h| instances.live_mut(h)) {
                    inst.flow_unbound(ev.fix, &ev.key, g.soft_state, purged);
                }
            }
        }) {
            // As in `charge_panic`: no callback in flight, the router's bug.
            let Some(inst) = in_flight else {
                panic!("{msg}");
            };
            faults.push((inst, msg));
        }
        faults
    }

    /// Assign the router's own address on an interface (enables ICMP
    /// Time Exceeded generation for packets arriving there).
    pub fn set_interface_addr(&mut self, iface: IfIndex, addr: IpAddr) {
        self.interfaces[iface as usize].addr = Some(addr);
    }

    /// Add a route.
    pub fn add_route(&mut self, addr: IpAddr, prefix_len: u8, tx_if: IfIndex) {
        self.routes.add(addr, prefix_len, RouteEntry { tx_if });
    }

    /// Remove a route.
    pub fn remove_route(&mut self, addr: IpAddr, prefix_len: u8) -> bool {
        self.routes.remove(addr, prefix_len).is_some()
    }

    /// Compile the IPv4 routes into the direct-index FIB and repack the
    /// IPv6 trie (see [`crate::ip_core::RoutingTable::optimize`]). Call
    /// once after bulk route loading; forwarding behaviour is unchanged
    /// and later route updates keep the FIB exact.
    pub fn optimize_routes(&mut self) {
        self.routes.optimize();
    }

    /// Whether IPv4 lookups are on the compiled FIB, and what it holds.
    pub fn fib_stats(&self) -> crate::ip_core::FibStats {
        self.routes.fib_stats()
    }

    /// Hot-prefix FIB cache counters.
    pub fn fib_cache_stats(&self) -> crate::ip_core::FibCacheStats {
        self.routes.fib_cache_stats()
    }

    /// Enable or disable a gate at run time.
    pub fn set_gate_enabled(&mut self, gate: Gate, enabled: bool) {
        self.enabled = self.enabled & !gate.bit() | if enabled { gate.bit() } else { 0 };
    }

    /// Is a gate enabled?
    pub fn gate_enabled(&self, gate: Gate) -> bool {
        self.enabled & gate.bit() != 0
    }

    /// Attach a scheduler instance to an interface as its default egress
    /// queue (packets whose flow has no scheduling binding use it).
    pub fn set_default_scheduler(
        &mut self,
        iface: IfIndex,
        plugin: &str,
        id: InstanceId,
    ) -> Result<(), PluginError> {
        let inst = self.pcu.instance(plugin, id)?;
        let is_scheduler = self
            .supervisor
            .instance_mut(inst)
            .is_some_and(|i| i.as_scheduler().is_some());
        if !is_scheduler {
            return Err(PluginError::BadConfig(format!(
                "instance {id} of {plugin} is not a scheduler"
            )));
        }
        let ifc = &mut self.interfaces[iface as usize];
        ifc.scheds.clear();
        ifc.attach_sched(inst);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data path (paper §3.2)
    // ------------------------------------------------------------------

    /// Advance the router's virtual clock. Restart backoffs run on this
    /// clock, so advancing it also attempts any due restarts.
    pub fn set_time_ns(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
        self.aiu.set_now(now_ns);
        self.poll_restarts();
    }

    /// Expire flow-cache entries idle longer than `max_idle_ns`, running
    /// plugin eviction callbacks (paper §3.2 idle-flow removal). Evictions
    /// drain through a reusable scratch buffer, so a steady-state sweep
    /// that finds nothing to expire allocates nothing.
    pub fn expire_idle_flows(&mut self, max_idle_ns: u64) -> usize {
        let mut evicted = std::mem::take(&mut self.evict_scratch);
        evicted.clear();
        let n = self.aiu.expire_idle_into(max_idle_ns, &mut evicted);
        self.metrics.flows_expired += n as u64;
        for ev in evicted.drain(..) {
            self.tracer
                .record_with(self.now_ns, TraceCategory::Flow, || {
                    format!("flow expired: {}", ev.key)
                });
            self.unbind_flows([ev]);
        }
        self.evict_scratch = evicted;
        n
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// First-gate classification, the slow half of the paper's gate macro:
    /// look the flow up, create its record on a miss, cache the FIX in the
    /// mbuf. `Err` means the packet could not be classified at all
    /// (unparsable headers): it must take the malformed drop path, not
    /// silently skip the gate.
    fn classify(&mut self, mbuf: &mut Mbuf, gate: Gate) -> Result<(), DropReason> {
        // A new flow's destination is almost always a cold FIB slot: start
        // that load now and let the filter-table walks hide it.
        let hint = |k: &rp_packet::FlowKey| self.routes.prefetch(k.dst());
        let Ok((outcome, evicted)) = self.aiu.classify_mbuf_with(mbuf, hint) else {
            return Err(DropReason::Malformed);
        };
        let gi = gate.index();
        match outcome {
            ClassifyOutcome::CacheHit(_) => self.metrics.class_hits[gi] += 1,
            ClassifyOutcome::CacheMiss(_) => {
                self.metrics.class_misses[gi] += 1;
                if rp_packet::flow::is_fragment(mbuf.data()) {
                    self.metrics.fragment_flows += 1;
                }
                self.tracer
                    .record_with(self.now_ns, TraceCategory::Flow, || {
                        format!("flow created at {gate} fix={:?}", mbuf.fix.map(|f| f.0))
                    });
            }
            ClassifyOutcome::Denied => {
                // Admission control refused a record: the packet still
                // forwards, uncached, on every gate's default path.
                // Counted via the flow-table stats gauge in the metrics
                // snapshot.
                self.metrics.class_misses[gi] += 1;
                self.tracer
                    .record_with(self.now_ns, TraceCategory::Flow, || {
                        format!("flow admission denied at {gate}")
                    });
            }
        }
        if let Some(ev) = evicted {
            self.metrics.class_recycled[gi] += 1;
            self.tracer
                .record_with(self.now_ns, TraceCategory::Flow, || {
                    format!("flow recycled at {gate}: {}", ev.key)
                });
            let mut purged = Vec::new();
            for (inst, msg) in Self::run_eviction_callbacks(&mut self.supervisor, ev, &mut purged) {
                if self.note_fault(inst, &FaultKind::Panic(msg)) {
                    mbuf.fix = None; // quarantined: reclassify downstream
                }
            }
            self.drop_purged(purged);
        }
        Ok(())
    }

    /// The gate: classify on first use, then fetch the flow record's
    /// binding for `gate` — instance handle, filter and soft-state slot in
    /// one access — and call the instance, charging the call against the
    /// policy's packet budget. `Ok(None)` is the gate's default path:
    /// nothing bound, or a handle that no longer leads to a live instance.
    ///
    /// The caller provides the isolation frame (one spans many gates), so
    /// every call into plugin code is bracketed by the in-flight marker.
    #[inline]
    fn gate(&mut self, mbuf: &mut Mbuf, gate: Gate) -> Result<Option<PluginAction>, DropReason> {
        if mbuf.fix.is_none() && !mbuf.class_denied {
            self.classify(mbuf, gate)?;
        }
        let Some(fix) = mbuf.fix else {
            return Ok(None);
        };
        let Some((&handle, filter, soft_state)) = self.aiu.binding_mut(fix, gate.index()) else {
            return Ok(None);
        };
        // A quarantined instance never sees another packet, even through a
        // stale cached binding; neither does a slot's next occupant.
        let Some(inst) = self.supervisor.live_mut(handle) else {
            return Ok(None);
        };
        if gate == Gate::Scheduling {
            // The instance may keep this packet: put it on the egress
            // interface's drain list first.
            if let Some(ifc) = mbuf.tx_if.and_then(|i| self.interfaces.get_mut(i as usize)) {
                ifc.attach_sched(handle);
            }
        }
        // Latency is wall-clock (virtual time doesn't advance inside a
        // call) and sampled 1-in-N so the clock reads stay off the common
        // path.
        let t0 = self
            .metrics
            .note_gate_call(gate)
            .then(std::time::Instant::now);
        let mut ctx = PacketCtx {
            gate,
            now_ns: self.now_ns,
            fix,
            filter,
            soft_state,
            cost_ns: 0,
        };
        self.in_flight = Some((gate, handle));
        let action = inst.handle_packet(mbuf, &mut ctx);
        self.in_flight = None;
        let cost_ns = ctx.cost_ns;
        if let Some(t0) = t0 {
            self.metrics
                .note_gate_latency(gate, t0.elapsed().as_nanos() as u64);
        }
        let budget_ns = self.supervisor.policy().packet_budget_ns;
        if budget_ns > 0 && cost_ns > budget_ns {
            // A modelled stall: the call "completed" but charged more
            // processing time than the policy tolerates.
            let kind = FaultKind::BudgetExceeded { cost_ns, budget_ns };
            if self.note_fault(handle, &kind) {
                mbuf.fix = None; // quarantined: reclassify downstream
            }
        }
        Ok(Some(action))
    }

    /// The pre-routing gates of one packet (run inside one isolation
    /// frame). `Some` when a gate ended the packet's walk.
    fn pre_routing_gates(&mut self, mbuf: &mut Mbuf) -> Option<GateStop> {
        for gate in PRE_ROUTING_GATES {
            if self.enabled & gate.bit() == 0 {
                continue;
            }
            match self.gate(mbuf, gate) {
                Ok(None | Some(PluginAction::Continue)) => {}
                Ok(Some(PluginAction::Consumed)) => return Some(GateStop::Consumed(gate)),
                Ok(Some(PluginAction::Drop)) => {
                    return Some(GateStop::Drop(DropReason::Plugin(gate)))
                }
                Err(reason) => return Some(GateStop::Drop(reason)),
            }
        }
        None
    }

    /// An isolation frame caught a panic: charge it to the instance whose
    /// call was in flight. A panic with no plugin call in flight is the
    /// router's own bug and keeps unwinding.
    fn charge_panic(&mut self, msg: String) -> (Gate, InstanceHandle) {
        let Some((gate, inst)) = self.in_flight.take() else {
            panic!("{msg}");
        };
        self.note_fault(inst, &FaultKind::Panic(msg));
        (gate, inst)
    }

    /// Count one fault; on the quarantine edge, pull the instance off the
    /// data path. Returns true when the instance was just quarantined.
    fn note_fault(&mut self, inst: InstanceHandle, kind: &FaultKind) -> bool {
        self.metrics.plugin_faults += 1;
        self.tracer
            .record_with(self.now_ns, TraceCategory::Plugin, || {
                format!("fault in {}: {kind}", self.supervisor.describe(inst))
            });
        let quarantine = self
            .supervisor
            .record_fault(inst, kind)
            .is_some_and(|v| v.newly_quarantined);
        if quarantine {
            self.quarantine(inst);
        }
        quarantine
    }

    /// Remove a quarantined instance from the data path: its filters go,
    /// its cached flows are invalidated (falling back to each gate's
    /// default path on their next packet), its egress queues drain to the
    /// wire, and a restart is scheduled per policy.
    fn quarantine(&mut self, inst: InstanceHandle) {
        self.metrics.plugin_quarantines += 1;
        self.tracer
            .record_with(self.now_ns, TraceCategory::Plugin, || {
                format!("quarantined {}", self.supervisor.describe(inst))
            });
        // Filters first — otherwise the next classification would re-bind
        // the dead instance. Its own eviction callbacks do not run (it is
        // no longer live); other instances' callbacks still fire.
        for gate in ALL_GATES {
            for fid in self.filters_bound_to(gate, inst) {
                if let Ok((_spec, _inst, evicted)) = self.aiu.remove_filter(gate.index(), fid) {
                    self.unbind_flows(evicted);
                }
            }
        }
        // Then any cached flow still binding it at any gate (recycled
        // records, …).
        let evicted = self
            .aiu
            .invalidate_flows_where(|r| r.instances().any(|i| *i == inst));
        self.unbind_flows(evicted);
        self.detach_sched_everywhere(inst);
        let _ = self.supervisor.schedule_restart(inst, self.now_ns);
    }

    /// Detach an instance from every interface's scheduler list, draining
    /// whatever its queue still holds onto the wire first (those packets
    /// were already counted forwarded when they were queued; dropping
    /// them silently would blackhole them).
    fn detach_sched_everywhere(&mut self, inst: InstanceHandle) {
        let now = self.now_ns;
        for i in 0..self.interfaces.len() {
            let ifc = &mut self.interfaces[i];
            if !ifc.scheds.contains(&inst) {
                continue;
            }
            ifc.scheds.retain(|s| *s != inst);
            let start = ifc.tx_log.len();
            let sched = self.supervisor.instance_mut(inst);
            if let Some(sched) = sched.and_then(|i| i.as_scheduler()) {
                let _ = supervisor::run_isolated(|| {
                    sched.dequeue_into(now, usize::MAX, &mut ifc.tx_log)
                });
            }
            self.note_tx_since(i as IfIndex, start);
        }
    }

    /// Attempt every due restart: tear down the dead instance, rebuild it
    /// in its slot from the plugin's factory with the original config,
    /// and re-install its filter bindings under the fresh handle.
    fn poll_restarts(&mut self) {
        if !self.supervisor.restart_due(self.now_ns) {
            return;
        }
        for t in self.supervisor.take_due(self.now_ns) {
            let rebuilt = self.pcu.restart_instance(
                &t.plugin,
                (t.id, t.handle),
                &t.config,
                &mut self.supervisor,
            );
            let Ok((new_id, new_inst)) = rebuilt else {
                // Factory refused (or the plugin was unloaded while the
                // instance sat in quarantine): re-arm the backoff or give
                // up, per policy.
                self.supervisor.fail_restart(t.handle, self.now_ns);
                continue;
            };
            for (gate, spec) in t.bindings {
                if let Ok((fid, evicted)) =
                    self.aiu
                        .install_filter(gate.index(), spec.clone(), new_inst)
                {
                    self.unbind_flows(evicted);
                    self.supervisor.note_binding(new_inst, gate, spec, fid);
                }
            }
            self.metrics.plugin_restarts += 1;
            self.tracer
                .record_with(self.now_ns, TraceCategory::Plugin, || {
                    format!("restarted {} {} → {}", t.plugin, t.id.0, new_id.0)
                });
        }
    }

    /// Process one received packet through the full data path.
    pub fn receive(&mut self, mut mbuf: Mbuf) -> Disposition {
        self.poll_restarts();
        self.metrics.note_rx(mbuf.rx_if, mbuf.len());
        mbuf.timestamp_ns = self.now_ns;

        // Core: validate + age. A TTL/hop-limit expiry additionally sends
        // ICMP Time Exceeded back toward the source (RFC 792 / RFC 2463),
        // provided the receive interface has an address configured.
        if let Err(reason) = validate_and_age(&mut mbuf, self.verify_checksums) {
            if reason == DropReason::TtlExpired {
                self.emit_time_exceeded(&mbuf);
            }
            return self.drop_pkt(mbuf, reason);
        }

        // Pre-routing gates, all inside one isolation frame, opened only
        // when one of them is enabled.
        if self.enabled & PRE_ROUTING != 0 {
            match supervisor::run_isolated(|| self.pre_routing_gates(&mut mbuf)) {
                Ok(None) => {}
                Ok(Some(GateStop::Consumed(gate))) => {
                    // A consuming plugin either took the buffer (the mbuf
                    // left behind is an empty shell) or left it; recycling
                    // handles both.
                    self.pool.recycle(mbuf);
                    return Disposition::Consumed(gate);
                }
                Ok(Some(GateStop::Drop(reason))) => return self.drop_pkt(mbuf, reason),
                Err(panic) => {
                    // The instance faulted mid-packet: drop (and count) the
                    // packet rather than forward possibly-torn state.
                    let (gate, _) = self.charge_panic(panic);
                    return self.drop_pkt(mbuf, DropReason::PluginFault(gate));
                }
            }
        }

        // Core routing (unless a routing plugin already set the egress).
        if mbuf.tx_if.is_none() {
            let dst = match dst_of(&mbuf) {
                Ok(d) => d,
                Err(r) => return self.drop_pkt(mbuf, r),
            };
            match self.routes.lookup_cached(dst) {
                Some(e) => mbuf.tx_if = Some(e.tx_if),
                None => return self.drop_pkt(mbuf, DropReason::NoRoute),
            }
        }
        let Some(tx_if) = mbuf.tx_if else {
            // Both branches above either set tx_if or returned; reaching
            // here means the routing state is inconsistent. Count it.
            return self.drop_pkt(mbuf, DropReason::Internal);
        };
        if tx_if as usize >= self.interfaces.len() {
            return self.drop_pkt(mbuf, DropReason::NoRoute);
        }

        // Egress MTU: fragment IPv4, refuse oversized IPv6 / DF packets
        // (a real router would add ICMP Packet Too Big; transit routers
        // never reassemble).
        let mtu = self.interfaces[tx_if as usize].mtu;
        if mbuf.len() > mtu {
            use rp_packet::IpVersion;
            let pool = &mut self.pool;
            let frags = match IpVersion::of_packet(mbuf.data()) {
                Ok(IpVersion::V4) => {
                    match crate::ip_core::fragment_v4_with(mbuf.data(), mtu, &mut || pool.buffer())
                    {
                        Ok(f) => f,
                        Err(r) => return self.drop_pkt(mbuf, r),
                    }
                }
                _ => return self.drop_pkt(mbuf, DropReason::TooBig),
            };
            self.metrics.fragmented += 1;
            let rx = mbuf.rx_if;
            let fix = mbuf.fix;
            let denied = mbuf.class_denied;
            let (timestamp_ns, ingress_ns) = (mbuf.timestamp_ns, mbuf.ingress_ns());
            // The oversized original's buffer feeds the next acquisition.
            self.pool.recycle(mbuf);
            let mut last = Disposition::Forwarded(tx_if);
            for frag in frags {
                let mut fm = Mbuf::new(frag, rx);
                fm.fix = fix;
                fm.class_denied = denied;
                fm.timestamp_ns = timestamp_ns;
                if let Some(wall_ns) = ingress_ns {
                    fm.stamp_ingress(wall_ns);
                }
                fm.tx_if = Some(tx_if);
                last = self.dispatch_egress(fm, tx_if);
            }
            return last;
        }

        self.dispatch_egress(mbuf, tx_if)
    }

    /// Receive a burst — the one burst entry of the shard workers and the
    /// I/O plane. Drains `pkts` front to back through
    /// [`receive`](Router::receive), each packet in its own isolation
    /// frames exactly as there, pumping the egress scheduler once after
    /// every queuing disposition (the testbench's immediate retransmit;
    /// DRR/WFQ output flows without a scheduler thread). Returns the
    /// packets handled.
    ///
    /// `wall_now_ns` is the caller's current [`rp_packet::coarse_now_ns`]
    /// reading (read once per batch, not per packet);
    /// [`Mbuf::ingress_ns`] carries the packet's coarse ingress stamp from
    /// the I/O plane or pool, and a packet without one is simply received.
    /// The sojourn so far (ingress → shard dequeue) is recorded in the
    /// per-router metrics histogram, and — when a `max_sojourn_ns`
    /// deadline is configured — a packet already older than the deadline
    /// is shed as [`DropReason::DeadlineExceeded`] instead of forwarded
    /// late: under overload latency degrades into counted sheds, not
    /// collapse.
    pub fn receive_burst(&mut self, pkts: &mut Vec<Mbuf>, wall_now_ns: u64) -> u64 {
        let n = pkts.len() as u64;
        for pkt in pkts.drain(..) {
            if let Some(sojourn) = pkt
                .ingress_ns()
                .and_then(|stamp| wall_now_ns.checked_sub(stamp))
            {
                self.metrics.note_sojourn(sojourn);
                if self.max_sojourn_ns != 0 && sojourn > self.max_sojourn_ns {
                    // Count it received (it did arrive) then shed: the
                    // conservation invariant `received == forwarded + Σdrops`
                    // stays exact.
                    self.metrics.note_rx(pkt.rx_if, pkt.len());
                    self.drop_pkt(pkt, DropReason::DeadlineExceeded);
                    continue;
                }
            }
            if let Disposition::Queued(iface) = self.receive(pkt) {
                self.pump(iface, 1);
            }
        }
        n
    }

    /// Scheduling gate + emission for a packet whose egress interface is
    /// already decided and which fits the MTU.
    fn dispatch_egress(&mut self, mut mbuf: Mbuf, tx_if: IfIndex) -> Disposition {
        // Scheduling gate on the egress interface, in its own frame (a
        // fragmented packet crosses it once per fragment).
        if self.enabled & Gate::Scheduling.bit() != 0 {
            match supervisor::run_isolated(|| self.gate(&mut mbuf, Gate::Scheduling)) {
                // No scheduler bound, or it declined (pass-through): emit.
                Ok(Ok(None | Some(PluginAction::Continue))) => {}
                Ok(Ok(Some(PluginAction::Consumed))) => {
                    // The scheduler took the buffer; what's left is an
                    // empty shell (recycled as a no-op).
                    self.pool.recycle(mbuf);
                    self.metrics.forwarded += 1;
                    return Disposition::Queued(tx_if);
                }
                Ok(Ok(Some(PluginAction::Drop))) => {
                    return self.drop_pkt(mbuf, DropReason::QueueFull)
                }
                Ok(Err(reason)) => return self.drop_pkt(mbuf, reason),
                Err(panic) => {
                    let (gate, _) = self.charge_panic(panic);
                    return self.drop_pkt(mbuf, DropReason::PluginFault(gate));
                }
            }
        }
        self.emit(mbuf, tx_if)
    }

    /// Build and transmit an ICMP(v4/v6) Time Exceeded toward the
    /// offending packet's source, out the interface it arrived on.
    fn emit_time_exceeded(&mut self, original: &Mbuf) {
        let rx = original.rx_if as usize;
        let Some(ifc) = self.interfaces.get(rx) else {
            return;
        };
        let Some(addr) = ifc.addr else { return };
        if let Some(reply) = crate::ip_core::build_time_exceeded(addr, original.data()) {
            let mut reply = Mbuf::new(reply, original.rx_if);
            reply.timestamp_ns = original.timestamp_ns;
            self.interfaces[rx].tx_log.push(reply);
        }
    }

    fn emit(&mut self, mbuf: Mbuf, tx_if: IfIndex) -> Disposition {
        self.metrics.forwarded += 1;
        self.metrics.note_tx(tx_if, mbuf.len());
        self.interfaces[tx_if as usize].tx_log.push(mbuf);
        Disposition::Forwarded(tx_if)
    }

    /// Drop a packet, returning its backing buffer to the pool. Every
    /// data-path drop that still owns the mbuf funnels through here so
    /// dropped packets feed subsequent acquisitions instead of the
    /// allocator.
    fn drop_pkt(&mut self, mbuf: Mbuf, reason: DropReason) -> Disposition {
        self.pool.recycle(mbuf);
        self.metrics.note_drop(reason);
        Disposition::Dropped(reason)
    }

    /// Drain up to `max` packets from an interface's schedulers onto its
    /// wire (the device driver's transmit interrupt). Returns packets
    /// transmitted.
    pub fn pump(&mut self, iface: IfIndex, max: usize) -> usize {
        let mut sent = 0;
        // Schedulers that panicked during this pump: charged once, then
        // left out while the others keep draining.
        let mut faulted: Vec<InstanceHandle> = Vec::new();
        // One isolation frame spans the whole drain; a panicking
        // `dequeue_into` ends it and the drain resumes in a new one. What
        // the frame put on the wire stays there and is counted before the
        // charge (a quarantine drains and counts its own).
        loop {
            let start = self.interfaces[iface as usize].tx_log.len();
            let drained =
                supervisor::run_isolated(|| self.drain_scheds(iface, start, max - sent, &faulted));
            sent += self.note_tx_since(iface, start);
            let Err(panic) = drained else { return sent };
            let (_, inst) = self.charge_panic(panic);
            faulted.push(inst);
        }
    }

    /// Round-robin over the interface's schedulers until `max` packets
    /// are on the wire past `start` or every queue is empty. A lone
    /// scheduler drains in one call; several take turns, one packet each
    /// per round.
    fn drain_scheds(&mut self, iface: IfIndex, start: usize, max: usize, skip: &[InstanceHandle]) {
        let now = self.now_ns;
        let ifc = &mut self.interfaces[iface as usize];
        let turn = if ifc.scheds.len() == 1 { usize::MAX } else { 1 };
        let mut more = true;
        while more {
            more = false;
            for &handle in &ifc.scheds {
                let sent = ifc.tx_log.len() - start;
                if sent >= max {
                    return;
                }
                if skip.contains(&handle) {
                    continue;
                }
                let inst = self.supervisor.live_mut(handle);
                let Some(sched) = inst.and_then(|i| i.as_scheduler()) else {
                    continue;
                };
                let quota = turn.min(max - sent);
                self.in_flight = Some((Gate::Scheduling, handle));
                more |= sched.dequeue_into(now, quota, &mut ifc.tx_log) == quota;
                self.in_flight = None;
            }
        }
    }

    /// Count the packets an interface's wire gained past `start`.
    fn note_tx_since(&mut self, iface: IfIndex, start: usize) -> usize {
        let tail = &self.interfaces[iface as usize].tx_log[start..];
        for m in tail {
            self.metrics.note_tx(iface, m.len());
        }
        tail.len()
    }

    /// Take the packets transmitted on an interface since the last call.
    pub fn take_tx(&mut self, iface: IfIndex) -> Vec<Mbuf> {
        std::mem::take(&mut self.interfaces[iface as usize].tx_log)
    }

    /// Drain an interface's transmitted packets into `out`, preserving
    /// both the tx log's and `out`'s allocated capacity — the
    /// zero-allocation counterpart of [`Router::take_tx`] for drivers
    /// that reuse a scratch vector across calls.
    pub fn take_tx_into(&mut self, iface: IfIndex, out: &mut Vec<Mbuf>) {
        out.append(&mut self.interfaces[iface as usize].tx_log);
    }

    /// Build an ingress mbuf backed by a pooled buffer (the device
    /// driver's receive-side allocation in the paper's architecture).
    /// No ingress stamp: [`Router::receive`] never reads one, and the
    /// callers of [`Router::receive_burst`] stamp each batch with their
    /// own single clock reading.
    pub fn mbuf_with(&mut self, bytes: &[u8], rx_if: IfIndex) -> Mbuf {
        self.pool.mbuf_from(bytes, rx_if)
    }

    /// Return an mbuf's backing buffer to the router's pool (the driver
    /// calls this once a transmitted packet has left "the wire").
    pub fn recycle_mbuf(&mut self, mbuf: Mbuf) {
        self.pool.recycle(mbuf);
    }

    /// Mbuf-pool counters (also surfaced via
    /// [`Router::metrics_snapshot`]). Cumulative since construction.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// The router's buffer pool, for device drivers that acquire and
    /// recycle backing buffers directly (the I/O plane's egress drain
    /// hands transmitted buffers straight back here).
    pub fn pool_mut(&mut self) -> &mut rp_packet::pool::MbufPool {
        &mut self.pool
    }

    /// Account `n` frames the receive side of a device dropped before
    /// they became IP packets (truncated or non-IP L2 frames). They count
    /// as received so the conservation invariant
    /// `received == forwarded + Σdrops` extends to the wire.
    pub fn note_device_rx_drops(&mut self, n: u64) {
        self.metrics.received += n;
        self.metrics.drops[obs::drop_reason_index(DropReason::DeviceRx)] += n;
    }

    /// Re-account `n` already-forwarded packets whose egress device
    /// refused to transmit them: they land in the device-tx drop slot,
    /// which the [`stats`](Router::stats) view takes back out of
    /// `forwarded`, keeping `received == forwarded + Σdrops` exact from
    /// wire to wire.
    pub fn note_device_tx_drops(&mut self, n: u64) {
        self.metrics.drops[obs::drop_reason_index(DropReason::DeviceTx)] += n;
    }

    /// Data-path statistics: the Table 3 view of the metrics registry.
    pub fn stats(&self) -> DataPathStats {
        self.metrics.data_path()
    }

    /// Flow-cache statistics (hits/misses/recycling).
    pub fn flow_stats(&self) -> rp_classifier::flow_table::FlowTableStats {
        self.aiu.flow_stats()
    }

    /// Approximate flow-table heap footprint in bytes.
    pub fn flow_mem_bytes(&self) -> usize {
        self.aiu.flow_mem_bytes()
    }

    /// A point-in-time metrics snapshot, with the scheduler queue-depth
    /// gauges sampled now (the hot path never pays for gauge updates).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut m = self.metrics;
        for ifc in &self.interfaces {
            let depth: u64 = ifc
                .scheds
                .iter()
                .filter_map(|s| self.supervisor.instance(*s))
                .map(|s| s.backlog() as u64)
                .sum();
            m.queue_depth[obs::iface_slot(ifc.id)] = depth;
        }
        let p = self.pool.stats();
        m.mbuf_acquired = p.acquired;
        m.mbuf_recycled = p.recycled;
        m.mbuf_fresh = p.fresh;
        m.flows = self.aiu.flow_stats();
        let c = self.routes.fib_cache_stats();
        m.fib_cache_hit = c.hits;
        m.fib_cache_miss = c.misses;
        let f = self.routes.fib_stats();
        m.fib_compiled = u64::from(f.compiled);
        m.fib_tbl8_groups = f.tbl8_groups as u64;
        m.fib_next_hops = f.next_hops as u64;
        m.fib_mem_bytes = f.mem_bytes as u64;
        m.fib_repaints = f.repaints;
        m
    }

    /// The event tracer (read side: enable state, dumps).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The event tracer (write side: enable/mask categories).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Classifier access statistics.
    pub fn filter_stats(&self) -> rp_classifier::LookupStats {
        self.aiu.filter_stats()
    }

    /// Number of interfaces.
    pub fn interface_count(&self) -> usize {
        self.interfaces.len()
    }

    /// Supervision snapshot of every tracked instance (pmgr `health`).
    pub fn health_reports(&self) -> Vec<HealthReport> {
        self.supervisor.reports()
    }

    /// The supervisor (policy and health inspection).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Human-readable dump of a gate's installed filters (pmgr `show`).
    pub fn describe_filters(&self, gate: Gate) -> Vec<String> {
        let table = self.aiu.filter_table(gate.index());
        table
            .filter_ids()
            .into_iter()
            .filter_map(|id| {
                let (spec, inst) = table.get(id)?;
                let inst = self.supervisor.instance(*inst)?;
                Some(format!("filter {} {} → {}", id.0, spec, inst.describe()))
            })
            .collect()
    }

    /// Human-readable dump of every loaded plugin's instances.
    pub fn describe_instances(&self) -> Vec<String> {
        let mut out = Vec::new();
        for name in self.pcu.plugin_names() {
            if let Ok(ids) = self.pcu.instances(&name) {
                for id in ids {
                    let inst = self.pcu.instance(&name, id);
                    if let Some(inst) = inst.ok().and_then(|h| self.supervisor.instance(h)) {
                        out.push(format!("{name} {}: {}", id.0, inst.describe()));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugins::register_builtin_factories;
    use rp_packet::builder::PacketSpec;
    use std::net::Ipv6Addr;

    fn v6(n: u16) -> IpAddr {
        IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, n))
    }

    fn base_router() -> Router {
        let mut r = Router::new(RouterConfig {
            verify_checksums: false,
            ..RouterConfig::default()
        });
        register_builtin_factories(&mut r.loader);
        r
    }

    fn udp(n: u16) -> Mbuf {
        Mbuf::new(PacketSpec::udp(v6(n), v6(900), 5, 6, 32).build(), 0)
    }

    #[test]
    fn route_add_remove() {
        let mut r = base_router();
        assert!(matches!(
            r.receive(udp(1)),
            crate::ip_core::Disposition::Dropped(_)
        ));
        r.add_route(v6(0), 32, 1);
        assert_eq!(r.receive(udp(1)), crate::ip_core::Disposition::Forwarded(1));
        assert!(r.remove_route(v6(0), 32));
        assert!(!r.remove_route(v6(0), 32));
        assert!(matches!(
            r.receive(udp(2)),
            crate::ip_core::Disposition::Dropped(_)
        ));
    }

    #[test]
    fn route_to_missing_interface_drops() {
        let mut r = base_router();
        r.add_route(v6(0), 32, 99); // only 4 interfaces exist
        assert!(matches!(
            r.receive(udp(1)),
            crate::ip_core::Disposition::Dropped(_)
        ));
        assert_eq!(r.stats().dropped_no_route, 1);
    }

    #[test]
    fn default_scheduler_requires_scheduler_instance() {
        let mut r = base_router();
        crate::pmgr::run_script(&mut r, "load null\ncreate null").unwrap();
        let err = r
            .set_default_scheduler(1, "null", InstanceId(0))
            .unwrap_err();
        assert!(matches!(err, PluginError::BadConfig(_)));
        crate::pmgr::run_script(&mut r, "load fifo\ncreate fifo").unwrap();
        r.set_default_scheduler(1, "fifo", InstanceId(0)).unwrap();
    }

    #[test]
    fn pump_without_schedulers_is_zero() {
        let mut r = base_router();
        assert_eq!(r.pump(0, 16), 0);
        assert_eq!(r.interface_count(), 4);
    }

    #[test]
    fn register_unknown_instance_fails() {
        let mut r = base_router();
        crate::pmgr::run_script(&mut r, "load null").unwrap();
        let err = r
            .send_message(
                "null",
                crate::message::PluginMsg::RegisterInstance {
                    id: InstanceId(9),
                    gate: Gate::Stats,
                    filter: rp_classifier::FilterSpec::any(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PluginError::NoSuchInstance(_)));
    }

    #[test]
    fn deregister_unknown_filter_fails() {
        let mut r = base_router();
        crate::pmgr::run_script(&mut r, "load null\ncreate null").unwrap();
        let err = r
            .send_message(
                "null",
                crate::message::PluginMsg::DeregisterInstance {
                    gate: Gate::Stats,
                    filter: rp_classifier::FilterId(42),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PluginError::Filter(_)));
    }

    fn routed_router(script: &str) -> Router {
        let mut r = base_router();
        r.add_route(v6(0), 32, 1);
        crate::pmgr::run_script(&mut r, script).unwrap();
        r
    }

    /// The structure's compile-time promises: a router moves to a shard
    /// thread whole, and an instance is free to hold `!Sync` state.
    #[test]
    fn router_is_send_and_instances_need_not_be_sync() {
        use crate::plugin::PluginInstance;
        fn assert_send<T: Send>() {}
        assert_send::<Router>();

        struct Counting(std::cell::Cell<u64>);
        impl PluginInstance for Counting {
            fn handle_packet(&mut self, _m: &mut Mbuf, _c: &mut PacketCtx<'_>) -> PluginAction {
                self.0.set(self.0.get() + 1);
                PluginAction::Continue
            }
        }
        // What `Plugin::create_instance` returns.
        let _: Box<dyn PluginInstance> = Box::new(Counting(std::cell::Cell::new(0)));
    }

    #[test]
    fn stale_handle_never_reaches_the_slots_next_occupant() {
        let mut r = routed_router("load null\ncreate null\nbind stats null 0 <*, *, UDP, *, *, *>");
        assert_eq!(r.receive(udp(1)), Disposition::Forwarded(1));
        assert_eq!(r.stats().plugin_calls, 1);
        // Free the instance behind the router's back: its filter and the
        // cached flow keep the handle, the slot goes to the next `create`.
        let old = r.pcu.instance("null", InstanceId(0)).unwrap();
        r.pcu
            .free_instance("null", InstanceId(0), &mut r.supervisor)
            .unwrap();
        crate::pmgr::run_script(&mut r, "create null").unwrap();
        let new = r.pcu.instance("null", InstanceId(1)).unwrap();
        assert_eq!(new.slot, old.slot, "the freed slot is reused");
        assert_ne!(new, old);
        // The cached flow, and a new flow classified through the stale
        // filter binding, both take the gate's default path.
        assert_eq!(r.receive(udp(1)), Disposition::Forwarded(1));
        assert_eq!(r.receive(udp(2)), Disposition::Forwarded(1));
        assert_eq!(r.stats().plugin_calls, 1);
        assert_eq!(r.describe_instances(), vec!["null 1: null: 0 calls"]);
    }

    #[test]
    fn restarted_instance_gets_a_fresh_generation() {
        let mut r = routed_router(
            "load chaos\ncreate chaos mode=panic every=1\nbind stats chaos 0 <*, *, UDP, *, *, *>",
        );
        let old = r.pcu.instance("chaos", InstanceId(0)).unwrap();
        for n in 0..3 {
            assert_eq!(
                r.receive(udp(n)),
                Disposition::Dropped(DropReason::PluginFault(Gate::Stats))
            );
        }
        r.set_time_ns(1_000_000);
        assert!(r.pcu.instance("chaos", InstanceId(0)).is_err());
        let new = r.pcu.instance("chaos", InstanceId(1)).unwrap();
        assert_eq!(new.slot, old.slot, "rebuilt in place");
        assert_ne!(new.generation, old.generation);
        assert!(r.supervisor.live_mut(old).is_none());
        assert!(r.supervisor.live_mut(new).is_some());
    }

    /// A scheduler that hands out `budget` packets, then panics inside
    /// `dequeue_into`.
    struct PanicQueue {
        queued: Vec<Mbuf>,
        budget: usize,
    }

    impl crate::plugin::PluginInstance for PanicQueue {
        fn handle_packet(&mut self, mbuf: &mut Mbuf, _c: &mut PacketCtx<'_>) -> PluginAction {
            self.queued
                .push(std::mem::replace(mbuf, Mbuf::new(Vec::new(), 0)));
            PluginAction::Consumed
        }
        fn as_scheduler(&mut self) -> Option<&mut dyn crate::plugin::SchedulerInstance> {
            Some(self)
        }
        fn backlog(&self) -> usize {
            self.queued.len()
        }
    }

    impl crate::plugin::SchedulerInstance for PanicQueue {
        fn dequeue_into(&mut self, _now_ns: u64, max: usize, out: &mut Vec<Mbuf>) -> usize {
            for n in 0..max {
                if self.queued.is_empty() {
                    return n;
                }
                assert!(self.budget > 0, "panicq: dequeue past its budget");
                self.budget -= 1;
                out.push(self.queued.remove(0));
            }
            max
        }
    }

    struct PanicQueuePlugin;

    impl crate::plugin::Plugin for PanicQueuePlugin {
        fn name(&self) -> &str {
            "panicq"
        }
        fn code(&self) -> crate::plugin::PluginCode {
            crate::plugin::PluginCode::new(crate::plugin::PluginType::PACKET_SCHED, 98)
        }
        fn create_instance(
            &mut self,
            config: &str,
        ) -> Result<Box<dyn crate::plugin::PluginInstance>, PluginError> {
            let budget = config
                .strip_prefix("yield=")
                .map_or(0, |n| n.parse().unwrap());
            Ok(Box::new(PanicQueue {
                queued: Vec::new(),
                budget,
            }))
        }
    }

    #[test]
    fn panicking_dequeue_is_charged_once_and_the_pump_goes_on() {
        let mut r = base_router();
        r.loader
            .add_factory("panicq", || Box::new(PanicQueuePlugin))
            .unwrap();
        r.add_route(v6(0), 32, 1);
        // Flows from source port 5 queue in the panicking scheduler, the
        // rest in a FIFO on the same interface.
        crate::pmgr::run_script(
            &mut r,
            "load panicq\ncreate panicq\nbind sched panicq 0 <*, *, UDP, 5, *, *>\n\
             load fifo\ncreate fifo\nbind sched fifo 0 <*, *, TCP, *, *, *>",
        )
        .unwrap();
        let tcp = |n: u16| Mbuf::new(PacketSpec::tcp(v6(n), v6(900), 7, 8, 32).build(), 0);
        for n in 0..4 {
            assert_eq!(r.receive(udp(n)), Disposition::Queued(1));
            assert_eq!(r.receive(tcp(n)), Disposition::Queued(1));
        }
        // One pump: the FIFO drains completely although the scheduler
        // listed before it panics on its first dequeue.
        assert_eq!(r.pump(1, usize::MAX), 4);
        assert_eq!(r.take_tx(1).len(), 4);
        let s = r.stats();
        assert_eq!(s.plugin_faults, 1, "one fault per pump, not one per round");
        assert_eq!(s.received, s.forwarded + s.dropped_total());
        let reports = r.health_reports();
        let of = |name: &str| reports.iter().find(|h| h.plugin == name).unwrap();
        assert_eq!(of("panicq").faults, 1);
        assert!(of("panicq")
            .last_fault
            .as_deref()
            .unwrap()
            .contains("dequeue past its budget"));
        assert_eq!(of("fifo").health, crate::supervisor::HealthState::Healthy);
        assert_eq!(of("fifo").faults, 0);

        // Alone on interface 2, a scheduler drains in one call: the two
        // packets it appends before it panics are on the wire, counted in
        // `if_tx` and in the pump's return, and the panic is charged once.
        let if2 = IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb9, 0, 0, 0, 0, 0, 1));
        r.add_route(if2, 32, 2);
        crate::pmgr::run_script(
            &mut r,
            "create panicq yield=2\nbind sched panicq 1 <*, *, UDP, 9, *, *>",
        )
        .unwrap();
        for n in 0..4 {
            let m = Mbuf::new(PacketSpec::udp(v6(n), if2, 9, 6, 32).build(), 0);
            assert_eq!(r.receive(m), Disposition::Queued(2));
        }
        assert_eq!(r.pump(2, usize::MAX), 2);
        assert_eq!(r.take_tx(2).len(), 2);
        assert_eq!(r.metrics.if_tx_packets[2], 2);
        let s = r.stats();
        assert_eq!(s.plugin_faults, 2);
        assert_eq!(s.received, s.forwarded + s.dropped_total());
        let reports = r.health_reports();
        let yielding = reports
            .iter()
            .find(|h| h.plugin == "panicq" && h.id == InstanceId(1))
            .unwrap();
        assert_eq!(yielding.faults, 1);
    }

    /// Several schedulers on one interface take turns, one packet each
    /// per round; a pump cut short starts its next round at the first.
    #[test]
    fn two_schedulers_interleave_one_packet_per_round() {
        let mut r = routed_router(
            "load fifo\ncreate fifo\ncreate fifo\n\
             bind sched fifo 0 <*, *, UDP, *, *, *>\nbind sched fifo 1 <*, *, TCP, *, *, *>",
        );
        let tcp = |n: u16| Mbuf::new(PacketSpec::tcp(v6(n), v6(900), 7, 8, 32).build(), 0);
        for n in 1..=3 {
            assert_eq!(r.receive(udp(n)), Disposition::Queued(1));
        }
        for n in 11..=12 {
            assert_eq!(r.receive(tcp(n)), Disposition::Queued(1));
        }
        assert_eq!(r.pump(1, 3), 3);
        assert_eq!(r.pump(1, usize::MAX), 2);
        // The last byte of the IPv6 source address names the packet.
        let order: Vec<u8> = r.take_tx(1).iter().map(|m| m.data()[23]).collect();
        assert_eq!(order, [1, 11, 2, 3, 12]);
        assert_eq!(r.metrics.if_tx_packets[1], 5);
    }
}
