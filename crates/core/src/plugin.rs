//! The plugin model (paper §4).
//!
//! Each plugin is identified by a 32-bit **plugin code**: the upper 16
//! bits name the plugin *type* (which corresponds one-to-one with a gate),
//! the lower 16 bits distinguish implementations of the same type. A
//! loaded plugin must answer the standardized message set
//! ([`crate::message::PluginMsg`]); instances are specific run-time
//! configurations of a plugin that get bound to flows through filters.

use rp_packet::mbuf::{FlowIndex, IfIndex};
use rp_packet::{FlowKey, Mbuf};
use std::any::Any;
use std::fmt;
use std::num::NonZeroU32;

use crate::gate::Gate;
use crate::obs::MetricsRegistry;

/// Plugin type — the upper 16 bits of the plugin code. "There is a direct
/// correspondence between a gate in our architecture and the plugin type."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PluginType(pub u16);

impl PluginType {
    /// IPv6 option processing plugins.
    pub const IPV6_OPTS: PluginType = PluginType(1);
    /// IP security (AH/ESP) plugins.
    pub const IP_SECURITY: PluginType = PluginType(2);
    /// Packet scheduling plugins.
    pub const PACKET_SCHED: PluginType = PluginType(3);
    /// Best-matching-prefix plugins (used inside the AIU's classifier).
    pub const BMP: PluginType = PluginType(4);
    /// Routing plugins (the paper's planned L4-switching extension).
    pub const ROUTING: PluginType = PluginType(5);
    /// Statistics-gathering plugins (network monitoring).
    pub const STATS: PluginType = PluginType(6);
    /// Congestion-control plugins (RED).
    pub const CONGESTION: PluginType = PluginType(7);
    /// Firewall plugins.
    pub const FIREWALL: PluginType = PluginType(8);

    /// The gate packets of this plugin type are dispatched at, if the type
    /// has a data-path gate (BMP plugins are called inside the classifier,
    /// not at a gate).
    pub fn gate(self) -> Option<Gate> {
        match self {
            PluginType::IPV6_OPTS => Some(Gate::Ipv6Options),
            PluginType::IP_SECURITY => Some(Gate::IpSecurity),
            PluginType::PACKET_SCHED => Some(Gate::Scheduling),
            PluginType::ROUTING => Some(Gate::Routing),
            PluginType::STATS => Some(Gate::Stats),
            PluginType::FIREWALL => Some(Gate::Firewall),
            PluginType::CONGESTION => Some(Gate::Scheduling),
            _ => None,
        }
    }
}

/// Full 32-bit plugin code: `type << 16 | implementation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PluginCode(pub u32);

impl PluginCode {
    /// Compose from type and implementation number.
    pub fn new(ty: PluginType, implementation: u16) -> Self {
        PluginCode((u32::from(ty.0) << 16) | u32::from(implementation))
    }

    /// The plugin type (upper 16 bits).
    pub fn plugin_type(self) -> PluginType {
        PluginType((self.0 >> 16) as u16)
    }

    /// The implementation number (lower 16 bits).
    pub fn implementation(self) -> u16 {
        self.0 as u16
    }
}

impl fmt::Display for PluginCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

/// Identifier of a plugin instance within its plugin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What a plugin instance tells the IP core to do with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PluginAction {
    /// Continue along the data path.
    Continue,
    /// The instance took ownership (e.g. queued it for scheduling); the
    /// core stops processing this mbuf.
    Consumed,
    /// Drop the packet.
    Drop,
}

/// An instance's private state for one flow, kept in the flow record.
pub type SoftState = Option<Box<dyn Any + Send>>;

/// Context handed to an instance along with the packet at a gate.
pub struct PacketCtx<'a> {
    /// The gate issuing the call.
    pub gate: Gate,
    /// Virtual time (ns).
    pub now_ns: u64,
    /// The packet's flow index (always set — gates run after
    /// classification).
    pub fix: FlowIndex,
    /// The filter this flow's binding at the current gate derives from
    /// (plugins use it to look up per-filter configuration such as DRR
    /// weights — the paper's "opaque pointer … to plugin specific (hard)
    /// state associated with installed filters"). A reference into the
    /// gate's flow-table column, so only a plugin that reads it loads it.
    pub filter: Option<&'a rp_classifier::FilterId>,
    /// The plugin's private per-flow soft state slot in the flow record
    /// (the second pointer of the paper's per-gate pointer pair). `Send`
    /// because flow records may live on a data-plane worker shard.
    pub soft_state: &'a mut SoftState,
    /// Processing cost the instance charges for this call, in netsim
    /// clock units (ns). Starts at 0; the supervisor compares it against
    /// [`crate::supervisor::FaultPolicy::packet_budget_ns`] after the
    /// call, so a modelled stall is a countable fault instead of a hang.
    pub cost_ns: u64,
}

/// A plugin *instance*: the run-time object bound to flows and called at
/// gates. Owned by the router that runs it (one slot of its instance
/// table, see [`crate::supervisor::Supervisor`]) and called through
/// `&mut self`, so instance state is plain fields: no lock, no atomic. A
/// parallel data plane gives every shard its own instances, which is why
/// the bound is `Send` and not `Sync`.
pub trait PluginInstance: Any + Send {
    /// Process one packet. The main packet-processing function called at
    /// the gate (paper §4, `create_instance`).
    fn handle_packet(&mut self, mbuf: &mut Mbuf, ctx: &mut PacketCtx<'_>) -> PluginAction;

    /// Called by the AIU when a flow bound to this instance is removed
    /// from the flow table (entry eviction callback, §4). Receives the
    /// flow's FIX (free for reuse once this returns), its key and the
    /// instance's soft state for that flow. A scheduler appends the
    /// packets it still held for the flow to the `Vec`; the router counts
    /// them dropped and recycles their buffers.
    fn flow_unbound(&mut self, _: FlowIndex, _: &FlowKey, _: SoftState, _: &mut Vec<Mbuf>) {}

    /// Called when a filter bound to this instance is removed from a
    /// filter table.
    fn filter_unbound(&mut self, _filter: rp_classifier::FilterId) {}

    /// Scheduler instances additionally expose a dequeue side; the
    /// interface driver uses this to drain the egress queue.
    fn as_scheduler(&mut self) -> Option<&mut dyn SchedulerInstance> {
        None
    }

    /// Packets the instance holds queued (schedulers; 0 otherwise).
    fn backlog(&self) -> usize {
        0
    }

    /// Human-readable instance status (for `pmgr info`).
    fn describe(&self) -> String {
        "(no description)".to_string()
    }
}

impl dyn PluginInstance {
    /// The concrete instance behind the trait object — how a plugin
    /// reaches its own state when a control message names an instance.
    pub fn downcast_mut<T: PluginInstance>(&mut self) -> Option<&mut T> {
        (self as &mut dyn Any).downcast_mut()
    }
}

/// Extension trait for packet-scheduling instances: the gate enqueues via
/// [`PluginInstance::handle_packet`] (returning
/// [`PluginAction::Consumed`]); the interface drains via this trait.
pub trait SchedulerInstance {
    /// Put up to `max` packets on `out` in transmit order and return how
    /// many; fewer than `max` means nothing more is due at `now_ns`.
    /// Draining in several calls yields the sequence one call yields.
    fn dequeue_into(&mut self, now_ns: u64, max: usize, out: &mut Wires<'_>) -> usize;
}

/// The interfaces' wires a scheduler drains onto. Each packet goes on
/// the wire of its own `tx_if`, counted there, so an instance that
/// serves several interfaces sends each packet where its route chose. A
/// packet whose `tx_if` names no wire leaves on `home`, the interface
/// being drained, and is marked so.
pub struct Wires<'a> {
    logs: &'a mut [Vec<Mbuf>],
    metrics: &'a mut MetricsRegistry,
    home: IfIndex,
    sent: usize,
}

impl<'a> Wires<'a> {
    /// The wires `logs`, one per interface, counted in `metrics`.
    pub fn new(logs: &'a mut [Vec<Mbuf>], metrics: &'a mut MetricsRegistry, home: IfIndex) -> Self {
        Wires {
            logs,
            metrics,
            home,
            sent: 0,
        }
    }

    /// Send `m` on its wire.
    #[inline]
    pub fn push(&mut self, mut m: Mbuf) {
        let j = match m.tx_if {
            Some(j) if (j as usize) < self.logs.len() => j,
            _ => *m.tx_if.insert(self.home),
        };
        self.metrics.note_tx(j, m.len());
        self.logs[j as usize].push(m);
        self.sent += 1;
    }

    /// Packets sent so far.
    pub fn sent(&self) -> usize {
        self.sent
    }
}

/// Handle to a slot of the router's instance table — the value bound into
/// the AIU, the paper's "pointer to the instance" in the flow record. A
/// slot's generation changes whenever its occupant does (free, restart),
/// so a handle that outlived its instance resolves to nothing and the
/// packet takes the gate's default path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceHandle {
    pub(crate) slot: u32,
    pub(crate) generation: NonZeroU32,
}

/// Errors surfaced by plugin and PCU operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PluginError {
    /// No plugin registered under that name.
    NoSuchPlugin(String),
    /// No such instance.
    NoSuchInstance(InstanceId),
    /// The instance configuration string was rejected.
    BadConfig(String),
    /// The plugin does not understand a plugin-specific message.
    UnknownMessage(String),
    /// The operation conflicts with current state (e.g. unloading a plugin
    /// with live instances).
    Busy(String),
    /// Filter-table error.
    Filter(String),
}

impl fmt::Display for PluginError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PluginError::NoSuchPlugin(n) => write!(f, "no such plugin: {n}"),
            PluginError::NoSuchInstance(i) => write!(f, "no such instance: {i}"),
            PluginError::BadConfig(m) => write!(f, "bad instance config: {m}"),
            PluginError::UnknownMessage(m) => write!(f, "unknown message: {m}"),
            PluginError::Busy(m) => write!(f, "operation refused: {m}"),
            PluginError::Filter(m) => write!(f, "filter error: {m}"),
        }
    }
}

impl std::error::Error for PluginError {}

/// A loadable plugin module: the callback object registered with the PCU
/// when the module is loaded (the paper's `modload` callback).
pub trait Plugin: Send {
    /// Short unique name (what `pmgr` addresses).
    fn name(&self) -> &str;

    /// The plugin's 32-bit code.
    fn code(&self) -> PluginCode;

    /// `create_instance`: allocate a configured instance. The config
    /// string is plugin-specific (e.g. `"iface=1 quantum=1500"` for DRR).
    fn create_instance(&mut self, config: &str) -> Result<Box<dyn PluginInstance>, PluginError>;

    /// `free_instance` notification, just before the instance is dropped.
    fn free_instance(&mut self, _instance: &mut dyn PluginInstance) {}

    /// Plugin-specific messages (paper §4: "plugin developers can define
    /// an arbitrary number of plugin specific messages").
    fn custom_message(
        &mut self,
        _instance: Option<&mut dyn PluginInstance>,
        name: &str,
        _args: &str,
    ) -> Result<String, PluginError> {
        Err(PluginError::UnknownMessage(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_packing() {
        let c = PluginCode::new(PluginType::PACKET_SCHED, 7);
        assert_eq!(c.0, 0x0003_0007);
        assert_eq!(c.plugin_type(), PluginType::PACKET_SCHED);
        assert_eq!(c.implementation(), 7);
        assert_eq!(c.to_string(), "0x00030007");
    }

    #[test]
    fn type_gate_mapping() {
        assert_eq!(PluginType::IPV6_OPTS.gate(), Some(Gate::Ipv6Options));
        assert_eq!(PluginType::PACKET_SCHED.gate(), Some(Gate::Scheduling));
        assert_eq!(PluginType::BMP.gate(), None);
    }
}
