//! Chaos plugin: deliberate fault injection for supervision testing.
//!
//! A chaos instance misbehaves on demand — panicking, dropping, stalling
//! (charging absurd per-packet cost) or corrupting packet bytes — so the
//! supervisor's containment ([`crate::supervisor`]) can be exercised from
//! `pmgr` scripts and tests. Configured at `create` time and rearmed at
//! run time through the `set` custom message:
//!
//! ```text
//! create chaos mode=panic every=3
//! msg chaos 0 set mode=stall cost=99999999
//! msg chaos 0 status
//! ```
//!
//! * `mode` — `none` (default), `panic`, `panic-once`, `drop`, `stall`,
//!   `wedge`, `corrupt`
//! * `every` — fault on every Nth call (default 1 = every call)
//! * `cost` — cost in ns charged in `stall` mode (default 10^9)
//!
//! Two modes exist specifically for *shard*-level supervision testing:
//!
//! * `panic-once` disarms itself before panicking, so exactly one fault
//!   is injected no matter how many instances replay the configuration —
//!   a restarted shard rebuilt from the command journal comes back with
//!   the same chaos binding but does not immediately die again.
//! * `wedge` blocks the calling thread *inside* `handle_packet` until
//!   [`release_wedges`] is called — the plugin-supervisor's cost budget
//!   cannot see it (no virtual cost is charged; the thread really
//!   stops), which is exactly the failure a shard watchdog must catch
//!   from the outside via heartbeats.

use crate::dataplane::shard::wedge;
use crate::plugin::{
    PacketCtx, Plugin, PluginAction, PluginCode, PluginError, PluginInstance, PluginType,
};
use rp_packet::Mbuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    None,
    Panic,
    PanicOnce,
    Drop,
    Stall,
    Corrupt,
    Wedge,
}

impl Mode {
    fn parse(s: &str) -> Result<Mode, PluginError> {
        match s {
            "none" => Ok(Mode::None),
            "panic" => Ok(Mode::Panic),
            "panic-once" => Ok(Mode::PanicOnce),
            "drop" => Ok(Mode::Drop),
            "stall" => Ok(Mode::Stall),
            "corrupt" => Ok(Mode::Corrupt),
            "wedge" => Ok(Mode::Wedge),
            other => Err(PluginError::BadConfig(format!("bad mode={other}"))),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mode::None => "none",
            Mode::Panic => "panic",
            Mode::PanicOnce => "panic-once",
            Mode::Drop => "drop",
            Mode::Stall => "stall",
            Mode::Corrupt => "corrupt",
            Mode::Wedge => "wedge",
        }
    }
}

/// Release every thread currently wedged in a `mode=wedge` chaos
/// instance (they resume and forward the packet normally). Process-wide
/// on purpose: a wedged shard cannot be reached through control messages
/// (that is the point), so tests need an out-of-band release.
pub fn release_wedges() {
    wedge::release();
}

/// A chaos instance; a bound instance can be rearmed mid-stream through
/// a custom message.
pub struct ChaosInstance {
    mode: Mode,
    every: u64,
    cost_ns: u64,
    calls: u64,
}

impl ChaosInstance {
    fn new(mode: Mode, every: u64, cost_ns: u64) -> Self {
        ChaosInstance {
            mode,
            every: every.max(1),
            cost_ns,
            calls: 0,
        }
    }

    fn configure(&mut self, args: &str) -> Result<(), PluginError> {
        let map = super::config_map(args);
        if let Some(m) = map.get("mode") {
            self.mode = Mode::parse(m)?;
        }
        self.every = super::config_num(&map, "every", self.every)?.max(1);
        self.cost_ns = super::config_num(&map, "cost", self.cost_ns)?;
        Ok(())
    }

    fn status(&self) -> String {
        format!(
            "mode={} every={} cost={} calls={}",
            self.mode.name(),
            self.every,
            self.cost_ns,
            self.calls,
        )
    }
}

impl PluginInstance for ChaosInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, ctx: &mut PacketCtx<'_>) -> PluginAction {
        self.calls += 1;
        let n = self.calls;
        if !n.is_multiple_of(self.every) {
            return PluginAction::Continue;
        }
        match self.mode {
            Mode::Panic => panic!("chaos: injected panic on call {n}"),
            Mode::PanicOnce => {
                // Disarm before unwinding: the next call (or a journal-
                // rebuilt twin of this instance) behaves normally.
                self.mode = Mode::None;
                panic!("chaos: injected one-shot panic on call {n}")
            }
            Mode::Wedge => {
                // Genuinely stop the calling thread (not virtual cost):
                // hold until someone calls `release_wedges`.
                let entry = wedge::epoch();
                while wedge::epoch() == entry {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                PluginAction::Continue
            }
            Mode::Drop => PluginAction::Drop,
            Mode::Stall => {
                ctx.cost_ns = self.cost_ns;
                PluginAction::Continue
            }
            Mode::Corrupt => {
                // Flip one payload-ish byte (past the basic header so the
                // packet stays parseable and the damage travels end to
                // end, like a bad link would inflict).
                let data = mbuf.data_mut();
                if let Some(b) = data.last_mut() {
                    *b ^= 0xFF;
                }
                PluginAction::Continue
            }
            Mode::None => PluginAction::Continue,
        }
    }

    fn describe(&self) -> String {
        format!("chaos {}", self.status())
    }
}

/// The chaos plugin module.
#[derive(Default)]
pub struct ChaosPlugin {
    _priv: (),
}

impl Plugin for ChaosPlugin {
    fn name(&self) -> &str {
        "chaos"
    }

    fn code(&self) -> PluginCode {
        // A statistics-type code: chaos binds anywhere a filter points it,
        // like a monitoring plugin would.
        PluginCode::new(PluginType::STATS, 99)
    }

    fn create_instance(&mut self, config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        let mut inst = ChaosInstance::new(Mode::None, 1, 1_000_000_000);
        inst.configure(config)?;
        Ok(Box::new(inst))
    }

    fn custom_message(
        &mut self,
        instance: Option<&mut dyn PluginInstance>,
        name: &str,
        args: &str,
    ) -> Result<String, PluginError> {
        let inst: &mut ChaosInstance = super::target(instance, "chaos")?;
        match name {
            "set" => {
                inst.configure(args)?;
                Ok(inst.status())
            }
            "status" => Ok(inst.status()),
            other => Err(PluginError::UnknownMessage(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rp_packet::builder::PacketSpec;
    use std::net::{IpAddr, Ipv4Addr};

    fn pkt() -> Mbuf {
        Mbuf::new(
            PacketSpec::udp(
                IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
                IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
                1,
                2,
                16,
            )
            .build(),
            0,
        )
    }

    fn call(inst: &mut ChaosInstance, m: &mut Mbuf) -> PluginAction {
        let mut soft = None;
        let mut ctx = PacketCtx {
            gate: Gate::Stats,
            now_ns: 0,
            fix: rp_packet::mbuf::FlowIndex(0),
            filter: None,
            soft_state: &mut soft,
            cost_ns: 0,
        };
        inst.handle_packet(m, &mut ctx)
    }

    #[test]
    fn none_mode_passes_everything() {
        let mut inst = ChaosInstance::new(Mode::None, 1, 0);
        let mut m = pkt();
        for _ in 0..10 {
            assert_eq!(call(&mut inst, &mut m), PluginAction::Continue);
        }
    }

    #[test]
    fn drop_every_third() {
        let mut inst = ChaosInstance::new(Mode::Drop, 3, 0);
        let mut m = pkt();
        let actions: Vec<_> = (0..9).map(|_| call(&mut inst, &mut m)).collect();
        let drops = actions.iter().filter(|a| **a == PluginAction::Drop).count();
        assert_eq!(drops, 3);
        assert_eq!(actions[2], PluginAction::Drop);
        assert_eq!(actions[0], PluginAction::Continue);
    }

    #[test]
    fn stall_charges_cost() {
        let mut inst = ChaosInstance::new(Mode::Stall, 1, 42_000);
        let mut m = pkt();
        let mut soft = None;
        let mut ctx = PacketCtx {
            gate: Gate::Stats,
            now_ns: 0,
            fix: rp_packet::mbuf::FlowIndex(0),
            filter: None,
            soft_state: &mut soft,
            cost_ns: 0,
        };
        assert_eq!(inst.handle_packet(&mut m, &mut ctx), PluginAction::Continue);
        assert_eq!(ctx.cost_ns, 42_000);
    }

    #[test]
    fn corrupt_flips_a_byte() {
        let mut inst = ChaosInstance::new(Mode::Corrupt, 1, 0);
        let mut m = pkt();
        let before = m.data().to_vec();
        call(&mut inst, &mut m);
        assert_ne!(m.data(), &before[..]);
    }

    #[test]
    fn panic_mode_panics() {
        let mut inst = ChaosInstance::new(Mode::Panic, 1, 0);
        let mut m = pkt();
        let err = crate::supervisor::run_isolated(|| call(&mut inst, &mut m)).unwrap_err();
        assert!(err.contains("injected panic"), "{err}");
    }

    #[test]
    fn panic_once_disarms_itself() {
        let mut inst = ChaosInstance::new(Mode::PanicOnce, 1, 0);
        let mut m = pkt();
        let err = crate::supervisor::run_isolated(|| call(&mut inst, &mut m)).unwrap_err();
        assert!(err.contains("one-shot"), "{err}");
        // Second call: mode stored back to none, no fault.
        assert_eq!(call(&mut inst, &mut m), PluginAction::Continue);
        assert!(inst.status().contains("mode=none"), "{}", inst.status());
    }

    #[test]
    fn wedge_blocks_until_released() {
        let mut inst = ChaosInstance::new(Mode::Wedge, 1, 0);
        let worker = std::thread::spawn(move || {
            let mut m = pkt();
            call(&mut inst, &mut m)
        });
        // The worker is stuck inside handle_packet: give it time to enter
        // the wedge, confirm it has not finished, then release it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!worker.is_finished(), "wedge did not hold the thread");
        release_wedges();
        let action = worker.join().unwrap();
        assert_eq!(action, PluginAction::Continue);
    }

    #[test]
    fn config_and_reconfig() {
        let mut plugin = ChaosPlugin::default();
        let mut inst = plugin.create_instance("mode=drop every=2").unwrap();
        let reply = plugin
            .custom_message(Some(inst.as_mut()), "status", "")
            .unwrap();
        assert!(reply.contains("mode=drop every=2"), "{reply}");
        let reply = plugin
            .custom_message(Some(inst.as_mut()), "set", "mode=panic every=5")
            .unwrap();
        assert!(reply.contains("mode=panic every=5"), "{reply}");
        assert!(plugin.create_instance("mode=bogus").is_err());
        assert!(plugin.custom_message(None, "status", "").is_err());
    }
}
