//! Control-plane command journal: the dispatcher's replayable record of
//! every state-mutating command it fanned out to the shards.
//!
//! Shards stay interchangeable because they all apply the identical
//! command sequence — that is what keeps per-shard PCU instance ids and
//! AIU filter ids in lockstep. A restarted shard therefore cannot simply
//! be handed a fresh [`Router`]: its id counters would start from zero
//! and every operator-visible id would mean a different object on that
//! shard. Instead the dispatcher records the full mutating command
//! history here and replays it into the fresh router before the shard
//! rejoins the array.
//!
//! Replay is deliberately *outcome-blind*: commands are recorded whether
//! or not they succeeded, because a command that failed identically on
//! every shard (unknown plugin, bad config…) consumed no ids — and one
//! that failed for a *stateful* reason (duplicate load) must fail again
//! on replay to keep the sequence aligned. Determinism of the router's
//! control path is what makes this sound.
//!
//! What is *not* journaled, by design:
//!
//! * the logical clock — only the latest value matters, so it is kept as
//!   a single high-water mark ([`CommandJournal::note_time`]) and
//!   applied before replay;
//! * flow-cache/filter soft state and idle-flow expiry — the paper's
//!   flow cache is soft state rebuilt by first-packet classification,
//!   and a restarted shard re-classifying its flows' next packets is
//!   exactly the paper-faithful behaviour;
//! * packet traffic and per-shard counters — the data path is not
//!   control state.

use crate::gate::Gate;
use crate::message::PluginMsg;
use crate::plugin::InstanceId;
use crate::router::Router;
use rp_packet::mbuf::IfIndex;
use std::net::IpAddr;

/// One recorded state-mutating control command, shard-agnostic (the same
/// record replays into any shard).
#[derive(Debug, Clone)]
pub enum JournaledCmd {
    /// `modload` — plugin registration with the loader.
    LoadPlugin(String),
    /// `modunload`.
    UnloadPlugin(String),
    /// Forced `modunload` (frees live instances and bindings first).
    ForceUnloadPlugin(String),
    /// Any plugin message: instance create/free, filter (de)registration,
    /// bindings, custom messages. These are the id-allocating commands.
    Message {
        /// Target plugin name.
        plugin: String,
        /// The message (cloned per shard on fan-out and on replay).
        msg: PluginMsg,
    },
    /// Core routing table insert.
    AddRoute {
        /// Destination network.
        addr: IpAddr,
        /// Prefix length.
        prefix_len: u8,
        /// Egress interface.
        tx_if: IfIndex,
    },
    /// Core routing table removal.
    RemoveRoute {
        /// Destination network.
        addr: IpAddr,
        /// Prefix length.
        prefix_len: u8,
    },
    /// FIB compile ([`Router::optimize_routes`]). Journaled so a rebuilt
    /// shard forwards from the compiled table like its siblings, and in
    /// sequence so it costs one trie walk, not a repaint per later route.
    OptimizeRoutes,
    /// Gate enable/disable.
    SetGateEnabled {
        /// The gate.
        gate: Gate,
        /// New state.
        enabled: bool,
    },
    /// Default egress scheduler attachment.
    SetDefaultScheduler {
        /// Interface.
        iface: IfIndex,
        /// Scheduler plugin name.
        plugin: String,
        /// Scheduler instance id.
        id: InstanceId,
    },
    /// Interface address assignment.
    SetInterfaceAddr {
        /// Interface.
        iface: IfIndex,
        /// Address.
        addr: IpAddr,
    },
    /// Tracer on/off.
    TraceEnable(bool),
}

/// The dispatcher's append-only journal plus the clock high-water mark.
///
/// The journal grows with the number of control commands issued over the
/// router's lifetime — control traffic is operator-scale (paper: tens of
/// commands), not packet-scale, so no compaction is attempted.
#[derive(Debug, Clone, Default)]
pub struct CommandJournal {
    cmds: Vec<JournaledCmd>,
    last_now_ns: Option<u64>,
}

impl CommandJournal {
    /// Append one command.
    pub fn record(&mut self, cmd: JournaledCmd) {
        self.cmds.push(cmd);
    }

    /// Remember the latest logical-clock value (not journaled as a
    /// command; only the high-water mark is replayed).
    pub fn note_time(&mut self, now_ns: u64) {
        self.last_now_ns = Some(self.last_now_ns.unwrap_or(0).max(now_ns));
    }

    /// Commands recorded so far.
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }

    /// Replay the full history into a freshly constructed router,
    /// returning how many commands reported an error. Errors are
    /// *expected* to reproduce the original per-shard outcomes (see the
    /// module docs), so the count is informational — surfaced in the
    /// shard's restart note, not treated as a rebuild failure.
    pub fn replay(&self, router: &mut Router) -> usize {
        if let Some(now) = self.last_now_ns {
            router.set_time_ns(now);
        }
        let mut errors = 0usize;
        for cmd in &self.cmds {
            let failed = match cmd {
                JournaledCmd::LoadPlugin(name) => router.load_plugin(name).is_err(),
                JournaledCmd::UnloadPlugin(name) => router.unload_plugin(name).is_err(),
                JournaledCmd::ForceUnloadPlugin(name) => router.force_unload_plugin(name).is_err(),
                JournaledCmd::Message { plugin, msg } => {
                    router.send_message(plugin, msg.clone()).is_err()
                }
                JournaledCmd::AddRoute {
                    addr,
                    prefix_len,
                    tx_if,
                } => {
                    router.add_route(*addr, *prefix_len, *tx_if);
                    false
                }
                JournaledCmd::RemoveRoute { addr, prefix_len } => {
                    router.remove_route(*addr, *prefix_len);
                    false
                }
                JournaledCmd::OptimizeRoutes => {
                    router.optimize_routes();
                    false
                }
                JournaledCmd::SetGateEnabled { gate, enabled } => {
                    router.set_gate_enabled(*gate, *enabled);
                    false
                }
                JournaledCmd::SetDefaultScheduler { iface, plugin, id } => {
                    router.set_default_scheduler(*iface, plugin, *id).is_err()
                }
                JournaledCmd::SetInterfaceAddr { iface, addr } => {
                    router.set_interface_addr(*iface, *addr);
                    false
                }
                JournaledCmd::TraceEnable(on) => {
                    router.tracer_mut().set_enabled(*on);
                    false
                }
            };
            if failed {
                errors += 1;
            }
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::PluginReply;
    use crate::plugins::register_builtin_factories;
    use crate::router::RouterConfig;
    use std::net::Ipv4Addr;

    fn fresh_router() -> Router {
        let mut r = Router::new(RouterConfig::default());
        register_builtin_factories(&mut r.loader);
        r
    }

    fn journal_with_fw_instance() -> CommandJournal {
        let mut j = CommandJournal::default();
        j.record(JournaledCmd::LoadPlugin("firewall".into()));
        j.record(JournaledCmd::Message {
            plugin: "firewall".into(),
            msg: PluginMsg::CreateInstance {
                config: String::new(),
            },
        });
        j.record(JournaledCmd::AddRoute {
            addr: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 0)),
            prefix_len: 8,
            tx_if: 1,
        });
        j
    }

    #[test]
    fn replay_reproduces_instance_ids() {
        // Drive a reference router through the journaled history, then
        // replay the same journal into a fresh router: the *next*
        // id-allocating command must agree on both.
        let j = journal_with_fw_instance();
        let mut original = fresh_router();
        assert_eq!(j.replay(&mut original), 0);
        let mut rebuilt = fresh_router();
        assert_eq!(j.replay(&mut rebuilt), 0);

        let next = PluginMsg::CreateInstance {
            config: String::new(),
        };
        let a = original.send_message("firewall", next.clone()).unwrap();
        let b = rebuilt.send_message("firewall", next).unwrap();
        assert_eq!(a, b);
        assert!(matches!(a, PluginReply::InstanceCreated(_)));
    }

    #[test]
    fn replay_compiles_the_fib_where_the_original_did() {
        let mut j = journal_with_fw_instance();
        let mut uncompiled = fresh_router();
        j.replay(&mut uncompiled);
        assert!(!uncompiled.fib_stats().compiled);

        j.record(JournaledCmd::OptimizeRoutes);
        j.record(JournaledCmd::AddRoute {
            addr: IpAddr::V4(Ipv4Addr::new(10, 1, 0, 0)),
            prefix_len: 16,
            tx_if: 2,
        });
        let mut rebuilt = fresh_router();
        assert_eq!(j.replay(&mut rebuilt), 0);
        let s = rebuilt.fib_stats();
        assert!(s.compiled);
        assert_eq!((s.next_hops, s.repaints), (2, 1));
    }

    #[test]
    fn failed_commands_fail_identically_on_replay() {
        let mut j = CommandJournal::default();
        j.record(JournaledCmd::LoadPlugin("no-such-plugin".into()));
        j.record(JournaledCmd::LoadPlugin("firewall".into()));
        let mut r = fresh_router();
        assert_eq!(j.replay(&mut r), 1);
        let mut r2 = fresh_router();
        assert_eq!(j.replay(&mut r2), 1);
        assert_eq!(r.loader.loaded(), r2.loader.loaded());
    }

    #[test]
    fn clock_high_water_mark_survives_replay() {
        let mut j = CommandJournal::default();
        j.note_time(5);
        j.note_time(1_000);
        j.note_time(500);
        let mut r = Router::new(RouterConfig::default());
        j.replay(&mut r);
        assert_eq!(r.now_ns(), 1_000);
    }
}
