//! The standardized plugin message set (paper §4) plus plugin-specific
//! messages. All control-path communication with plugins flows through
//! these messages — from the Plugin Manager, the daemons (SSP/RSVP), or
//! other kernel components — dispatched by the PCU.

use crate::gate::Gate;
use crate::plugin::InstanceId;
use rp_classifier::{FilterId, FilterSpec};

/// A control message addressed to a plugin.
#[derive(Debug, Clone)]
pub enum PluginMsg {
    /// Create a configured instance of the plugin.
    CreateInstance {
        /// Plugin-specific configuration string.
        config: String,
    },
    /// Free an instance; all references are removed from the flow and
    /// filter tables first.
    FreeInstance {
        /// The instance to free.
        id: InstanceId,
    },
    /// Bind an instance to a set of flows: installs `filter` in `gate`'s
    /// filter table pointing at the instance. "The same instance may be
    /// registered multiple times with different filter specifications."
    RegisterInstance {
        /// The instance to bind.
        id: InstanceId,
        /// The gate whose filter table receives the filter.
        gate: Gate,
        /// The flow set specification.
        filter: FilterSpec,
    },
    /// Remove the binding between a filter and the instance.
    DeregisterInstance {
        /// The gate the filter lives in.
        gate: Gate,
        /// The filter to remove.
        filter: FilterId,
    },
    /// A plugin-specific message, optionally addressed to one instance.
    Custom {
        /// Target instance (None = the plugin itself).
        instance: Option<InstanceId>,
        /// Message name.
        name: String,
        /// Message arguments.
        args: String,
    },
}

/// Replies to [`PluginMsg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PluginReply {
    /// Instance created.
    InstanceCreated(InstanceId),
    /// Instance freed.
    InstanceFreed,
    /// Filter installed and bound.
    Registered(FilterId),
    /// Binding removed.
    Deregistered,
    /// Plugin-specific textual reply.
    Text(String),
    /// A control command that is not a plugin message was applied and
    /// has nothing to report (route, gate, loader commands).
    Done,
}

impl PluginReply {
    /// Unwrap an `InstanceCreated` reply (test/config convenience).
    pub fn instance(&self) -> Option<InstanceId> {
        match self {
            PluginReply::InstanceCreated(i) => Some(*i),
            _ => None,
        }
    }

    /// Unwrap a `Registered` reply.
    pub fn filter(&self) -> Option<FilterId> {
        match self {
            PluginReply::Registered(f) => Some(*f),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_helpers() {
        assert_eq!(
            PluginReply::InstanceCreated(InstanceId(3)).instance(),
            Some(InstanceId(3))
        );
        assert_eq!(PluginReply::InstanceFreed.instance(), None);
        assert_eq!(
            PluginReply::Registered(FilterId(9)).filter(),
            Some(FilterId(9))
        );
        assert_eq!(PluginReply::Text("x".into()).filter(), None);
    }
}
