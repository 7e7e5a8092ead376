//! The empty plugin: does nothing and returns immediately.
//!
//! This is the instrument behind the paper's Table 3 row "NetBSD with our
//! Plugin Architecture": "We installed three gates which called empty
//! plugins" — it measures the pure framework overhead (flow detection +
//! indirect calls) with zero useful work.

use crate::plugin::{
    PacketCtx, Plugin, PluginAction, PluginCode, PluginError, PluginInstance, PluginType,
};
use rp_packet::Mbuf;

/// An instance that counts invocations and continues.
#[derive(Default)]
pub struct NullInstance {
    calls: u64,
}

impl NullInstance {
    /// Number of times the instance was called.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl PluginInstance for NullInstance {
    fn handle_packet(&mut self, _mbuf: &mut Mbuf, _ctx: &mut PacketCtx<'_>) -> PluginAction {
        self.calls += 1;
        PluginAction::Continue
    }

    fn describe(&self) -> String {
        format!("null: {} calls", self.calls())
    }
}

/// The empty plugin module.
#[derive(Default)]
pub struct NullPlugin {
    _priv: (),
}

impl Plugin for NullPlugin {
    fn name(&self) -> &str {
        "null"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::STATS, 0)
    }

    fn create_instance(&mut self, _config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        Ok(Box::new(NullInstance::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rp_packet::mbuf::FlowIndex;

    #[test]
    fn counts_calls() {
        let mut inst = NullInstance::default();
        let mut m = Mbuf::new(vec![0u8; 20], 0);
        let mut soft = None;
        let mut ctx = PacketCtx {
            gate: Gate::Stats,
            now_ns: 0,
            fix: FlowIndex(0),
            filter: None,
            soft_state: &mut soft,
            cost_ns: 0,
        };
        assert_eq!(inst.handle_packet(&mut m, &mut ctx), PluginAction::Continue);
        assert_eq!(inst.handle_packet(&mut m, &mut ctx), PluginAction::Continue);
        assert_eq!(inst.calls(), 2);
        assert!(inst.describe().contains("2 calls"));
    }
}
