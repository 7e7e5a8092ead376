//! # router-core — the Router Plugins framework
//!
//! The paper's primary contribution: a modular, extensible, flow-aware
//! router kernel. The pieces map one-to-one onto the paper's architecture
//! (Figures 2 and 3):
//!
//! * [`plugin`] — the `Plugin` / `PluginInstance` traits, 32-bit plugin
//!   codes (`type << 16 | implementation`), and the standardized message
//!   set (`create_instance`, `free_instance`, `register_instance`,
//!   `deregister_instance`, plus plugin-specific messages).
//! * [`pcu`] — the Plugin Control Unit: registers plugin callbacks,
//!   dispatches control messages, manages instances.
//! * [`loader`] — the `modload` analogue: named plugin factories that can
//!   be registered ("loaded") and unregistered at run time.
//! * [`gate`] — gate identifiers and the fast-path dispatch that consults
//!   the packet's cached flow index (FIX) before falling back to the AIU.
//! * [`ip_core`] — the streamlined IPv4/IPv6 core: validate, TTL/hop
//!   limit, route, traverse gates, emit.
//! * [`router`] — the assembled EISR: PCU + AIU + routing table +
//!   interfaces, exposing the Router Plugin Library control API.
//! * [`pmgr`] — the Plugin Manager command language (the `pmgr` tool).
//! * [`plugins`] — bundled plugins: IPv6 options, IPsec AH/ESP, DRR,
//!   H-FSC, FIFO, RED, BMP classifiers, statistics, firewall.
//! * [`monolithic`] — the Table 3 baselines: an unmodified best-effort
//!   fast path and an ALTQ-style hardwired DRR kernel.
//! * [`supervisor`] — the router's instance table and plugin fault
//!   isolation: every instance in one slot, named by a `Copy` handle;
//!   panic containment, health tracking (Healthy → Degraded →
//!   Quarantined), and restart with capped exponential backoff in
//!   simulated time.
//! * [`dataplane`] — the [`DataPlane`] trait a driver feeds, and the
//!   sharded parallel data plane: N flow-affine worker shards (each a
//!   complete single-threaded router) behind the single control plane.
//! * [`obs`] — the always-on observability layer: a fixed-storage metrics
//!   registry (counters + log-2 histograms, shard-private and merged on
//!   read) and a bounded ring-buffer event tracer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The data path must never panic on behalf of a packet: `unwrap`/`expect`
// in non-test code need an explicit, justified `#[allow]` at the site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod dataplane;
pub mod gate;
pub mod ip_core;
pub mod loader;
pub mod message;
pub mod monolithic;
pub mod obs;
pub mod pcu;
pub mod plugin;
pub mod plugins;
pub mod pmgr;
pub mod router;
pub mod supervisor;

pub use dataplane::{
    CommandJournal, ControlCmd, ControlPlane, DataPlane, ParallelRouter, ParallelRouterConfig,
    ShardStatus,
};
pub use gate::Gate;
pub use message::{PluginMsg, PluginReply};
pub use obs::{MetricsRegistry, MetricsSnapshot, TraceCategory, TraceEvent, Tracer};
pub use plugin::{InstanceId, Plugin, PluginAction, PluginCode, PluginInstance, PluginType};
pub use router::{Router, RouterConfig};
pub use supervisor::{FaultPolicy, HealthState};
