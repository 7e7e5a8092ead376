//! Plugin supervision: fault isolation, health tracking, and restart.
//!
//! The paper's architecture runs plugins *inside* the kernel: "plugins are
//! code modules that run in the kernel" (§1), so a misbehaving plugin can
//! take the whole router down. This module adds the containment layer a
//! production deployment of that architecture needs — without changing the
//! plugin programming model:
//!
//! * The supervisor *is* the router's instance table: every instance
//!   lives in one slot of [`Supervisor`], next to its health record, and
//!   everything else (flow records, filter tables, interface scheduler
//!   lists, the PCU's id maps) names it by [`InstanceHandle`] — slot index
//!   plus generation. A handle whose slot has since changed occupant
//!   resolves to nothing.
//! * Plugin code runs inside isolation frames
//!   ([`std::panic::catch_unwind`], see `run_isolated`): one per
//!   received packet around the pre-routing gates, one per scheduling-gate
//!   call and one per `pump`. The router notes which gate and slot are in
//!   flight before each call, so a caught panic is charged to the right
//!   instance; that instance loses the packet it was processing, never
//!   the router.
//! * Each instance carries a health state machine
//!   ([`HealthState`]: `Healthy → Degraded → Quarantined`) driven by a
//!   configurable [`FaultPolicy`]: panics and per-call packet-budget
//!   overruns (in netsim clock units) count as faults.
//! * On quarantine, the router removes the instance's filter bindings and
//!   invalidates its cached flows, so affected flows fall back to the
//!   gate's default path — dropped packets are *counted*, never silently
//!   blackholed.
//! * Quarantined instances are restarted from their plugin's factory with
//!   capped exponential backoff in simulated time, and their filter
//!   bindings are re-installed for the fresh instance.
//!
//! The supervisor itself is pure bookkeeping; [`crate::router::Router`]
//! orchestrates the AIU/PCU side effects (filter removal, flow
//! invalidation, restart) because only it holds those components.

use crate::gate::Gate;
use crate::plugin::{InstanceHandle, InstanceId, PluginInstance};
use rp_classifier::{FilterId, FilterSpec};
use std::cell::Cell;
use std::fmt;
use std::num::NonZeroU32;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::Duration;

/// Health of a supervised plugin instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// No recent faults; on the data path.
    Healthy,
    /// Faulted at least [`FaultPolicy::degrade_after`] times since the
    /// last (re)start; still on the data path, flagged for operators.
    Degraded,
    /// Faulted [`FaultPolicy::quarantine_after`] times: removed from the
    /// data path (bindings invalidated), awaiting restart or operator
    /// action.
    Quarantined,
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Degraded => write!(f, "degraded"),
            HealthState::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// What went wrong in one plugin invocation.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// The instance panicked; payload message attached.
    Panic(String),
    /// The instance reported more processing cost than the policy's
    /// per-call packet budget allows (a modelled stall).
    BudgetExceeded {
        /// Cost the instance charged for the call (ns, netsim clock).
        cost_ns: u64,
        /// The policy's budget it exceeded.
        budget_ns: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic(msg) => write!(f, "panic: {msg}"),
            FaultKind::BudgetExceeded { cost_ns, budget_ns } => {
                write!(
                    f,
                    "budget exceeded: cost {cost_ns}ns > budget {budget_ns}ns"
                )
            }
        }
    }
}

/// Fault-handling policy for supervised instances.
#[derive(Debug, Clone)]
pub struct FaultPolicy {
    /// Faults (since last restart) after which an instance is Degraded.
    pub degrade_after: u32,
    /// Faults after which an instance is Quarantined.
    pub quarantine_after: u32,
    /// Per-call packet budget in netsim clock units (ns); a call charging
    /// more cost than this counts as a fault. `0` disables the budget.
    pub packet_budget_ns: u64,
    /// Restart quarantined instances automatically.
    pub restart: bool,
    /// Initial restart backoff (simulated ns).
    pub restart_backoff_ns: u64,
    /// Backoff cap: doubling stops here.
    pub restart_backoff_cap_ns: u64,
    /// Give up after this many restarts of one instance.
    pub max_restarts: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            degrade_after: 1,
            quarantine_after: 3,
            packet_budget_ns: 0,
            restart: true,
            restart_backoff_ns: 1_000_000,      // 1 ms simulated
            restart_backoff_cap_ns: 64_000_000, // 64 ms simulated
            max_restarts: 4,
        }
    }
}

/// Capped-doubling restart backoff in nanoseconds — the one ladder all
/// three supervision tiers (plugin instances here, shard workers in
/// [`crate::dataplane`], devices in the I/O plane) climb. It owns no
/// clock: the caller passes its own `now_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    next_ns: u64,
    initial_ns: u64,
    cap_ns: u64,
}

impl Backoff {
    /// A ladder starting at `initial_ns`, doubling up to `cap_ns` (a cap
    /// of 0 is treated as 1).
    pub fn new(initial_ns: u64, cap_ns: u64) -> Backoff {
        Backoff {
            next_ns: initial_ns,
            initial_ns,
            cap_ns: cap_ns.max(1),
        }
    }

    /// Arm the timer at `now_ns`: returns when the attempt falls due
    /// (now + the current delay), then doubles the delay up to the cap.
    pub fn arm(&mut self, now_ns: u64) -> u64 {
        let due_ns = now_ns.saturating_add(self.next_ns);
        self.next_ns = self.next_ns.saturating_mul(2).min(self.cap_ns);
        due_ns
    }

    /// Back to the initial delay (a restart that held, an operator
    /// override).
    pub fn reset(&mut self) {
        self.next_ns = self.initial_ns;
    }
}

/// A config `Duration` in the supervision paths' unit: `u64` nanoseconds,
/// comparable with a caller's `now_ns`.
pub fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Verdict of recording one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultVerdict {
    /// Health after the fault was counted.
    pub health: HealthState,
    /// This fault crossed the quarantine threshold — the caller must pull
    /// the instance off the data path.
    pub newly_quarantined: bool,
}

/// Snapshot of one supervised instance (pmgr `health`).
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Owning plugin name.
    pub plugin: String,
    /// Current instance id (changes across restarts).
    pub id: InstanceId,
    /// Current health.
    pub health: HealthState,
    /// Faults since the last (re)start.
    pub faults: u32,
    /// Faults across the instance's whole supervised life.
    pub total_faults: u64,
    /// Completed restarts.
    pub restarts: u32,
    /// Simulated time of the next restart attempt, if one is scheduled.
    pub restart_at_ns: Option<u64>,
    /// Description of the most recent fault.
    pub last_fault: Option<String>,
}

/// A quarantined instance due for a restart attempt.
#[derive(Debug, Clone)]
pub(crate) struct RestartTicket {
    /// The slot to rebuild in place.
    pub handle: InstanceHandle,
    pub plugin: String,
    pub id: InstanceId,
    pub config: String,
    /// Filter bindings to re-install for the fresh instance.
    pub bindings: Vec<(Gate, FilterSpec)>,
}

/// One slot of the instance table.
struct Slot {
    /// Bumped whenever the occupant changes (free, restart); handles carry
    /// the value they were issued with.
    generation: NonZeroU32,
    /// `None` = free.
    record: Option<Record>,
}

impl Slot {
    fn bump(&mut self) {
        self.generation = self.generation.checked_add(1).unwrap_or(NonZeroU32::MIN);
    }
}

/// An instance plus everything the supervisor knows about it.
struct Record {
    /// The instance. `None` between a restart's teardown of the faulted
    /// instance and a successful rebuild from the factory.
    inst: Option<Box<dyn PluginInstance>>,
    /// What a restart rebuilds from, and what pmgr reports the slot as.
    plugin: String,
    id: InstanceId,
    config: String,
    health: HealthState,
    faults: u32,
    total_faults: u64,
    restarts: u32,
    restart_at_ns: Option<u64>,
    backoff: Backoff,
    bindings: Vec<(Gate, FilterSpec, FilterId)>,
    last_fault: Option<String>,
}

/// The supervisor: the router's instance table — every live instance with
/// its health record — plus the restart queue.
pub struct Supervisor {
    policy: FaultPolicy,
    /// Indexed by [`InstanceHandle`] slot.
    slots: Vec<Slot>,
    /// Earliest scheduled restart (cheap due-check on the hot path).
    next_due_ns: Option<u64>,
}

impl Supervisor {
    /// Build with a policy.
    pub fn new(policy: FaultPolicy) -> Self {
        Supervisor {
            policy,
            slots: Vec::new(),
            next_due_ns: None,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &FaultPolicy {
        &self.policy
    }

    fn record(&self, h: InstanceHandle) -> Option<&Record> {
        let slot = self.slots.get(h.slot as usize)?;
        if slot.generation != h.generation {
            return None;
        }
        slot.record.as_ref()
    }

    #[inline]
    fn record_mut(&mut self, h: InstanceHandle) -> Option<&mut Record> {
        let slot = self.slots.get_mut(h.slot as usize)?;
        if slot.generation != h.generation {
            return None;
        }
        slot.record.as_mut()
    }

    /// Take ownership of a freshly created instance; the name, id and
    /// config are what a restart needs to rebuild it from the plugin's
    /// factory.
    pub fn insert(
        &mut self,
        plugin: &str,
        id: InstanceId,
        config: &str,
        inst: Box<dyn PluginInstance>,
    ) -> InstanceHandle {
        let index = match self.slots.iter().position(|s| s.record.is_none()) {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    generation: NonZeroU32::MIN,
                    record: None,
                });
                self.slots.len() - 1
            }
        };
        self.slots[index].record = Some(Record {
            inst: Some(inst),
            plugin: plugin.to_string(),
            id,
            config: config.to_string(),
            health: HealthState::Healthy,
            faults: 0,
            total_faults: 0,
            restarts: 0,
            restart_at_ns: None,
            backoff: Backoff::new(
                self.policy.restart_backoff_ns,
                self.policy.restart_backoff_cap_ns,
            ),
            bindings: Vec::new(),
            last_fault: None,
        });
        InstanceHandle {
            slot: index as u32,
            generation: self.slots[index].generation,
        }
    }

    /// Free a slot (instance freed through the control path), handing the
    /// instance back for the plugin's `free_instance` notification.
    pub fn remove(&mut self, h: InstanceHandle) -> Option<Box<dyn PluginInstance>> {
        self.record(h)?;
        let slot = &mut self.slots[h.slot as usize];
        slot.bump();
        let record = slot.record.take()?;
        self.recompute_due();
        record.inst
    }

    /// The instance in a slot, whatever its health (control path:
    /// `describe`, custom messages, draining a quarantined scheduler).
    pub fn instance(&self, h: InstanceHandle) -> Option<&dyn PluginInstance> {
        self.record(h)?.inst.as_deref()
    }

    /// The instance's `describe` line, for trace events.
    pub(crate) fn describe(&self, h: InstanceHandle) -> String {
        self.instance(h)
            .map_or_else(|| "(no instance)".to_string(), |i| i.describe())
    }

    /// Mutable form of [`Supervisor::instance`].
    pub fn instance_mut(&mut self, h: InstanceHandle) -> Option<&mut dyn PluginInstance> {
        self.record_mut(h)?.inst.as_deref_mut()
    }

    /// The instance a packet may be handed to: the slot still holds the
    /// occupant the handle was issued for and it is not quarantined.
    /// Anything else — stale handle, quarantined or torn-down instance —
    /// is `None`, and the caller takes the gate's default path.
    #[inline]
    pub fn live_mut(&mut self, h: InstanceHandle) -> Option<&mut dyn PluginInstance> {
        let slot = self.record_mut(h)?;
        if slot.health == HealthState::Quarantined {
            return None;
        }
        slot.inst.as_deref_mut()
    }

    /// Note a filter binding installed for an instance (kept for
    /// re-install on restart).
    pub fn note_binding(&mut self, h: InstanceHandle, gate: Gate, spec: FilterSpec, fid: FilterId) {
        if let Some(s) = self.record_mut(h) {
            s.bindings.push((gate, spec, fid));
        }
    }

    /// Note an explicit unbind (the binding is no longer re-installed on
    /// restart).
    pub fn note_unbinding(&mut self, h: InstanceHandle, gate: Gate, fid: FilterId) {
        if let Some(s) = self.record_mut(h) {
            s.bindings.retain(|(g, _, f)| !(*g == gate && *f == fid));
        }
    }

    /// Count one fault against an instance, advancing its health machine.
    /// `None` when the handle no longer names an instance.
    pub fn record_fault(&mut self, h: InstanceHandle, kind: &FaultKind) -> Option<FaultVerdict> {
        let (degrade_after, quarantine_after) =
            (self.policy.degrade_after, self.policy.quarantine_after);
        let s = self.record_mut(h)?;
        s.faults += 1;
        s.total_faults += 1;
        s.last_fault = Some(kind.to_string());
        let before = s.health;
        if s.faults >= quarantine_after {
            s.health = HealthState::Quarantined;
        } else if s.faults >= degrade_after {
            s.health = HealthState::Degraded;
        }
        Some(FaultVerdict {
            health: s.health,
            newly_quarantined: s.health == HealthState::Quarantined
                && before != HealthState::Quarantined,
        })
    }

    /// Health of an instance — a field load from its slot.
    pub fn health_of(&self, h: InstanceHandle) -> Option<HealthState> {
        self.record(h).map(|s| s.health)
    }

    /// Schedule a restart for a quarantined instance. Returns the
    /// simulated deadline, or `None` when policy forbids it.
    pub fn schedule_restart(&mut self, h: InstanceHandle, now_ns: u64) -> Option<u64> {
        if !self.policy.restart {
            return None;
        }
        let max_restarts = self.policy.max_restarts;
        let s = self.record_mut(h)?;
        if s.restarts >= max_restarts {
            return None;
        }
        let due = s.backoff.arm(now_ns);
        s.restart_at_ns = Some(due);
        self.recompute_due();
        Some(due)
    }

    fn recompute_due(&mut self) {
        self.next_due_ns = self
            .slots
            .iter()
            .filter_map(|s| s.record.as_ref()?.restart_at_ns)
            .min();
    }

    /// Cheap hot-path check: any restart due at `now_ns`?
    #[inline]
    pub fn restart_due(&self, now_ns: u64) -> bool {
        self.next_due_ns.is_some_and(|t| t <= now_ns)
    }

    /// Pop every due restart as a ticket (the router attempts them).
    pub(crate) fn take_due(&mut self, now_ns: u64) -> Vec<RestartTicket> {
        let mut out = Vec::new();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(s) = &mut slot.record else { continue };
            if s.restart_at_ns.is_some_and(|t| t <= now_ns) {
                s.restart_at_ns = None;
                out.push(RestartTicket {
                    handle: InstanceHandle {
                        slot: i as u32,
                        generation: slot.generation,
                    },
                    plugin: s.plugin.clone(),
                    id: s.id,
                    config: s.config.clone(),
                    bindings: s.bindings.iter().map(|(g, f, _)| (*g, f.clone())).collect(),
                });
            }
        }
        self.recompute_due();
        out
    }

    /// First half of a restart: take the faulted instance out of its slot
    /// (for the plugin's `free_instance`). The slot keeps its record.
    pub(crate) fn take_instance(&mut self, h: InstanceHandle) -> Option<Box<dyn PluginInstance>> {
        self.record_mut(h)?.inst.take()
    }

    /// Second half: seat the rebuilt instance in the same slot under a
    /// fresh generation — every handle to the old occupant is now stale —
    /// reset the fault window and keep the backoff ramp.
    pub(crate) fn complete_restart(
        &mut self,
        h: InstanceHandle,
        new_id: InstanceId,
        inst: Box<dyn PluginInstance>,
    ) -> Option<InstanceHandle> {
        let s = self.record_mut(h)?;
        s.inst = Some(inst);
        s.id = new_id;
        s.health = HealthState::Healthy;
        s.faults = 0;
        s.restarts += 1;
        s.bindings.clear();
        let slot = &mut self.slots[h.slot as usize];
        slot.bump();
        Some(InstanceHandle {
            slot: h.slot,
            generation: slot.generation,
        })
    }

    /// A restart attempt failed (factory refused, plugin gone): either
    /// re-arm the backoff timer or give up, per policy.
    pub(crate) fn fail_restart(&mut self, h: InstanceHandle, now_ns: u64) {
        let max_restarts = self.policy.max_restarts;
        if let Some(s) = self.record_mut(h) {
            s.restarts += 1;
            if s.restarts < max_restarts {
                s.restart_at_ns = Some(s.backoff.arm(now_ns));
            }
        }
        self.recompute_due();
    }

    /// Snapshot every supervised instance (pmgr `health`).
    pub fn reports(&self) -> Vec<HealthReport> {
        let mut out: Vec<HealthReport> = self
            .slots
            .iter()
            .filter_map(|s| s.record.as_ref())
            .map(|s| HealthReport {
                plugin: s.plugin.clone(),
                id: s.id,
                health: s.health,
                faults: s.faults,
                total_faults: s.total_faults,
                restarts: s.restarts,
                restart_at_ns: s.restart_at_ns,
                last_fault: s.last_fault.clone(),
            })
            .collect();
        out.sort_by(|a, b| (&a.plugin, a.id).cmp(&(&b.plugin, b.id)));
        out
    }
}

thread_local! {
    /// True while a supervised plugin call is in flight on this thread:
    /// the panic hook stays quiet so injected faults don't spam stderr.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Run a plugin entry point with panic isolation. Returns the closure's
/// value, or the panic message.
///
/// The closure is `AssertUnwindSafe`: the router owns every structure a
/// plugin call can touch (the mbuf, the flow record's soft-state slot,
/// the instance's interior state) and on a caught panic either discards
/// the packet or quarantines the instance — torn intermediate state never
/// re-enters the data path.
pub(crate) fn run_isolated<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    // Save-and-restore, not set-and-clear: these calls nest (every frame
    // of a router inside a supervised shard loop is itself isolated), and a
    // plain `set(false)` on inner exit would strip the outer frame's
    // suppression — an injected shard kill would then symbolize a full
    // backtrace, parking the dying thread on the CPU for seconds before
    // the dispatcher can detect the death and settle its accounting.
    let prev = SUPPRESS_PANIC_OUTPUT.with(|s| s.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(prev));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::{PacketCtx, PluginAction, PluginInstance};
    use rp_packet::Mbuf;

    struct Null;
    impl PluginInstance for Null {
        fn handle_packet(&mut self, _m: &mut Mbuf, _c: &mut PacketCtx<'_>) -> PluginAction {
            PluginAction::Continue
        }
    }

    fn policy() -> FaultPolicy {
        FaultPolicy {
            degrade_after: 1,
            quarantine_after: 3,
            restart_backoff_ns: 1000,
            restart_backoff_cap_ns: 4000,
            max_restarts: 2,
            ..FaultPolicy::default()
        }
    }

    fn tracked(sup: &mut Supervisor, config: &str) -> InstanceHandle {
        sup.insert("p", InstanceId(0), config, Box::new(Null))
    }

    #[test]
    fn handle_is_eight_bytes_and_its_option_is_free() {
        assert_eq!(std::mem::size_of::<InstanceHandle>(), 8);
        assert_eq!(std::mem::size_of::<Option<InstanceHandle>>(), 8);
    }

    #[test]
    fn run_isolated_catches_panics() {
        assert_eq!(run_isolated(|| 7), Ok(7));
        let err = run_isolated(|| -> u32 { panic!("boom {}", 3) }).unwrap_err();
        assert!(err.contains("boom 3"), "{err}");
        let err = run_isolated(|| -> u32 { panic!("static") }).unwrap_err();
        assert_eq!(err, "static");
    }

    #[test]
    fn health_machine_degrade_then_quarantine() {
        let mut sup = Supervisor::new(policy());
        let i = tracked(&mut sup, "");
        let k = FaultKind::Panic("x".into());
        let v1 = sup.record_fault(i, &k).unwrap();
        assert_eq!(v1.health, HealthState::Degraded);
        assert!(!v1.newly_quarantined);
        assert!(sup.live_mut(i).is_some(), "degraded stays on the path");
        let v2 = sup.record_fault(i, &k).unwrap();
        assert_eq!(v2.health, HealthState::Degraded);
        let v3 = sup.record_fault(i, &k).unwrap();
        assert_eq!(v3.health, HealthState::Quarantined);
        assert!(v3.newly_quarantined);
        // Further faults do not re-trigger the quarantine edge.
        let v4 = sup.record_fault(i, &k).unwrap();
        assert!(!v4.newly_quarantined);
        assert_eq!(sup.health_of(i), Some(HealthState::Quarantined));
        // Off the packet path, still reachable from the control path.
        assert!(sup.live_mut(i).is_none());
        assert!(sup.instance(i).is_some());
    }

    #[test]
    fn backoff_arms_then_doubles_to_the_cap() {
        let mut b = Backoff::new(1000, 4000);
        assert_eq!(
            [b.arm(0), b.arm(0), b.arm(0), b.arm(0)],
            [1000, 2000, 4000, 4000]
        );
        b.reset();
        assert_eq!(b.arm(500), 1500);
        // Neither the deadline nor the delay wraps.
        let mut b = Backoff::new(u64::MAX / 2 + 1, u64::MAX);
        assert_eq!(b.arm(u64::MAX - 1), u64::MAX);
        assert_eq!(b.arm(0), u64::MAX);
        // A zero cap is 1 ns, not "never again".
        let mut b = Backoff::new(0, 0);
        assert_eq!([b.arm(7), b.arm(7), b.arm(7)], [7, 7, 7]);
        let mut b = Backoff::new(3, 0);
        assert_eq!([b.arm(0), b.arm(0)], [3, 1]);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut sup = Supervisor::new(policy());
        let i = tracked(&mut sup, "cfg");
        assert_eq!(sup.schedule_restart(i, 0), Some(1000));
        // Doubled to 2000, then capped at 4000.
        assert_eq!(sup.schedule_restart(i, 0), Some(2000));
        assert_eq!(sup.schedule_restart(i, 0), Some(4000));
        assert_eq!(sup.schedule_restart(i, 0), Some(4000));
        assert!(sup.restart_due(4000));
    }

    #[test]
    fn freed_slot_is_reused_under_a_new_generation() {
        let mut sup = Supervisor::new(policy());
        let old = tracked(&mut sup, "");
        assert!(sup.remove(old).is_some());
        assert!(sup.remove(old).is_none(), "already freed");
        let new = tracked(&mut sup, "");
        assert_eq!(new.slot, old.slot, "slot reused");
        assert_ne!(new, old);
        // The old handle names nothing: not the new occupant, not a fault
        // target, not a restart candidate.
        assert!(sup.live_mut(old).is_none());
        assert!(sup.instance(old).is_none());
        assert!(sup
            .record_fault(old, &FaultKind::Panic("x".into()))
            .is_none());
        assert_eq!(sup.schedule_restart(old, 0), None);
        assert!(sup.live_mut(new).is_some());
        assert_eq!(sup.reports()[0].total_faults, 0);
    }

    #[test]
    fn restart_ticket_lifecycle() {
        let mut sup = Supervisor::new(policy());
        let i = tracked(&mut sup, "k=v");
        for _ in 0..3 {
            sup.record_fault(i, &FaultKind::Panic("x".into()));
        }
        sup.schedule_restart(i, 100).unwrap();
        assert!(!sup.restart_due(500));
        assert!(sup.restart_due(1100));
        let due = sup.take_due(1100);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].handle, i);
        assert_eq!(due[0].plugin, "p");
        assert_eq!(due[0].config, "k=v");
        assert!(sup.take_instance(i).is_some());
        assert!(sup.instance(i).is_none(), "torn down, record kept");
        let fresh = sup
            .complete_restart(i, InstanceId(1), Box::new(Null))
            .unwrap();
        assert_eq!(fresh.slot, i.slot);
        assert_ne!(fresh.generation, i.generation);
        assert!(sup.live_mut(i).is_none(), "old handle is stale");
        assert_eq!(sup.health_of(fresh), Some(HealthState::Healthy));
        let r = &sup.reports()[0];
        assert_eq!(r.id, InstanceId(1));
        assert_eq!(r.restarts, 1);
        assert_eq!(r.faults, 0);
        assert_eq!(r.total_faults, 3);
    }

    #[test]
    fn max_restarts_enforced() {
        let mut sup = Supervisor::new(policy()); // max_restarts = 2
        let i = tracked(&mut sup, "");
        sup.fail_restart(i, 0);
        assert!(sup.restart_due(u64::MAX), "first failure re-arms");
        sup.take_due(u64::MAX);
        sup.fail_restart(i, 0);
        assert!(!sup.restart_due(u64::MAX), "second failure gives up");
        assert_eq!(sup.schedule_restart(i, 0), None);
    }

    #[test]
    fn bindings_follow_unbind() {
        let mut sup = Supervisor::new(policy());
        let i = tracked(&mut sup, "");
        let fid = FilterId(9);
        sup.note_binding(i, Gate::Firewall, FilterSpec::any(), fid);
        sup.note_binding(i, Gate::Stats, FilterSpec::any(), FilterId(10));
        sup.note_unbinding(i, Gate::Firewall, fid);
        for _ in 0..3 {
            sup.record_fault(i, &FaultKind::Panic("x".into()));
        }
        sup.schedule_restart(i, 0).unwrap();
        let due = sup.take_due(u64::MAX);
        assert_eq!(due[0].bindings.len(), 1);
        assert_eq!(due[0].bindings[0].0, Gate::Stats);
    }
}
