//! # rp-netsim — simulated testbed for the Router Plugins reproduction
//!
//! Stands in for the paper's physical testbed (a P6/233 NetBSD box with
//! ATM NICs, MTU 9180): simulated interfaces, flow-structured traffic
//! generators, an SSP-daemon analogue driving the control path, and a
//! testbench that pushes packets through a [`router_core::Router`] while
//! collecting per-packet costs — the measurements behind Table 3 and the
//! flow-cache experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ssp;
pub mod testbench;
pub mod topology;
pub mod traffic;

pub use testbench::{RunStats, Testbench};
pub use topology::{NodeId, Port, Topology};
pub use traffic::{FlowSpec, Interleave, Workload};
