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

use super::control::ControlCmd;
use crate::router::Router;

/// The dispatcher's append-only journal plus the clock high-water mark.
///
/// The journal grows with the number of control commands issued over the
/// router's lifetime — control traffic is operator-scale (paper: tens of
/// commands), not packet-scale, so no compaction is attempted.
#[derive(Debug, Clone, Default)]
pub struct CommandJournal {
    cmds: Vec<ControlCmd>,
    last_now_ns: Option<u64>,
}

impl CommandJournal {
    /// Append one command.
    pub fn record(&mut self, cmd: ControlCmd) {
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
        self.cmds
            .iter()
            .filter(|cmd| cmd.apply(router).is_err())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{PluginMsg, PluginReply};
    use crate::plugins::register_builtin_factories;
    use crate::router::RouterConfig;
    use std::net::{IpAddr, Ipv4Addr};

    fn fresh_router() -> Router {
        let mut r = Router::new(RouterConfig::default());
        register_builtin_factories(&mut r.loader);
        r
    }

    fn journal_with_fw_instance() -> CommandJournal {
        let mut j = CommandJournal::default();
        j.record(ControlCmd::LoadPlugin("firewall".into()));
        j.record(ControlCmd::Message {
            plugin: "firewall".into(),
            msg: PluginMsg::CreateInstance {
                config: String::new(),
            },
        });
        j.record(ControlCmd::AddRoute {
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

        j.record(ControlCmd::OptimizeRoutes);
        j.record(ControlCmd::AddRoute {
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
        j.record(ControlCmd::LoadPlugin("no-such-plugin".into()));
        j.record(ControlCmd::LoadPlugin("firewall".into()));
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
