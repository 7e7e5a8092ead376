//! Structural guards over the source tree: the plugin and dispatch paths
//! hold no lock, names that simplifications deleted stay deleted, each
//! "one of" (backoff doubling, victim routine, counter ledger, test
//! scaffolding, flow type on the data path, dispatch transport) stays
//! one, `unsafe` stays where it is counted, and probe counts stay off
//! shared counters. Every file under `crates`, `tests`, `src` and
//! `examples` is read as text, the way `grep -r` would; a failure names
//! the offending `file:line`.

use std::path::Path;
use std::sync::OnceLock;

/// Every file under the scanned roots, as (path relative to the
/// repository root, lossy UTF-8 text), read once per test binary.
fn tree() -> &'static [(String, String)] {
    static TREE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    TREE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut dirs = ["crates", "tests", "src", "examples"]
            .map(|d| root.join(d))
            .to_vec();
        let mut files = Vec::new();
        while let Some(dir) = dirs.pop() {
            for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                if path.is_dir() {
                    dirs.push(path);
                } else if rel != "tests/structure.rs" {
                    // (This file spells out every forbidden name.)
                    let bytes = std::fs::read(&path).unwrap();
                    files.push((rel, String::from_utf8_lossy(&bytes).into_owned()));
                }
            }
        }
        files.sort();
        files
    })
}

/// The text of one file.
fn file(path: &str) -> &'static str {
    let found = tree().iter().find(|(p, _)| p == path);
    &found.unwrap_or_else(|| panic!("{path} is gone")).1
}

/// `file:line: text` of each line of `text` for which `hit` holds.
fn hits(path: &str, text: &str, hit: impl Fn(&str) -> bool) -> Vec<String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| hit(l))
        .map(|(i, l)| format!("{path}:{}: {}", i + 1, l.trim()))
        .collect()
}

/// [`hits`] in every file whose path starts with one of the
/// space-separated prefixes in `scope`.
fn lines_where(scope: &str, hit: impl Fn(&str) -> bool + Copy) -> Vec<String> {
    let in_scope = |p: &String| scope.split(' ').any(|s| p.starts_with(s));
    let files = tree().iter().filter(|(p, _)| in_scope(p));
    files.flat_map(|(p, t)| hits(p, t, hit)).collect()
}

/// [`lines_where`] over the code before each file's first `#[cfg(test)]`.
fn code_lines_where(scope: &str, hit: impl Fn(&str) -> bool + Copy) -> Vec<String> {
    let in_scope = |p: &String| scope.split(' ').any(|s| p.starts_with(s));
    let files = tree().iter().filter(|(p, _)| in_scope(p));
    let code = |t: &'static str| &t[..t.find("#[cfg(test)]").unwrap_or(t.len())];
    files.flat_map(|(p, t)| hits(p, code(t), hit)).collect()
}

/// Does `line` contain one of the `|`-separated `pats`? A trailing `\b`
/// on a pattern also requires that no identifier character follow it.
fn contains(line: &str, pats: &str) -> bool {
    pats.split('|').any(|pat| match pat.strip_suffix(r"\b") {
        None => line.contains(pat),
        Some(word) => line.match_indices(word).any(|(i, _)| {
            let next = line[i + word.len()..].chars().next();
            !next.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        }),
    })
}

fn assert_none(found: Vec<String>, what: &str) {
    assert!(found.is_empty(), "{what}:\n{}", found.join("\n"));
}

/// No line under `scope` contains one of `pats`.
fn forbid(scope: &str, pats: &str) {
    assert_none(lines_where(scope, |l| contains(l, pats)), pats);
}

const EVERYWHERE: &str = "crates/ tests/ src/ examples/";

/// Instances are router-owned: no lock, atomic or shared handle on the
/// plugin path, and the parallel plane's one transport takes no lock.
#[test]
fn plugin_and_dispatch_paths_take_no_lock() {
    forbid(
        "crates/core/src/plugin.rs crates/core/src/pcu.rs crates/core/src/supervisor.rs \
         crates/core/src/router.rs crates/core/src/plugins/",
        "Mutex|RwLock|Atomic|Arc<dyn PluginInstance|Arc::ptr_eq",
    );
    forbid("crates/core/src/dataplane/", "Mutex|RwLock");
}

#[test]
fn deleted_names_stay_deleted() {
    // A second dispatch transport.
    forbid(
        EVERYWHERE,
        "DispatchMode|ShardMsg::Packet|ShardMsg::Barrier|EgressSink::PerPacket|read_all|stats_read",
    );
    // A second egress transport beside the carrier loop.
    forbid(
        EVERYWHERE,
        "EgressSink|egress_scrap|scrap_tx|reclaim_scrap|ShardMsg::Shutdown",
    );
    // Load-aware steering, a second health enum, a stamped receive.
    forbid(
        EVERYWHERE,
        "FlowSteer|SteerConfig|SteerStats|steer_stats|route_shard|sample_depths|depth_scratch|\
         DeviceHealth|receive_stamped|aiu_mut",
    );
    // A second flow-table insert entry point or victim routine.
    forbid(
        EVERYWHERE,
        r"oldest_live|take_all|insert_hashed|try_insert_hashed|fn try_insert\b",
    );
    // A second counter ledger, row type or merge.
    forbid(
        EVERYWHERE,
        "local_stats|local_flows|device_tx_unforwarded|LocalTotals|StatsRow|MetricsRow|\
         cp_stats_rows|cp_metrics_rows|io_stats|io_mbuf|set_max_sojourn_ns|.flow_admission_denied\\b|\
         .flow_inline_expired\\b|.flow_evicted_lru\\b|.flow_resize_steps\\b",
    );
    // A hashed second home for DRR's per-flow state, which the FIX indexes.
    forbid("crates/sched/src/drr.rs", "HashMap|HashSet");
    // A per-discipline scheduling instance, a second classification hook
    // entry, a shard CPU clock.
    forbid(
        EVERYWHERE,
        "DrrInstance|HfscInstance|HsfInstance|FifoInstance|RedInstance|VcInstance|\
         classify_with|thread_cpu_ns|user_hz",
    );
    // A discipline that keeps its flow's FIX in a soft-state box (the
    // eviction callback receives the FIX).
    forbid(EVERYWHERE, "PER_FLOW");
    // A router loop per plane beside `Testbench::run`.
    forbid(EVERYWHERE, "run_router_pooled|run_parallel_batched");
    // A tuple hash beside `key_hash`, a tuple placement beside
    // `shard_for_packet`, and the tuple's family probe.
    forbid(EVERYWHERE, r"fn flow_hash\b|shard_for_tuple");
    forbid("crates/packet/src/flow.rs", r"fn version\b");
    // A per-gate walk beside the one over the record's bound mask.
    forbid("crates/core/src/router.rs", r"fn gate\(");
    // A device-side data-plane trait beside `DataPlane`.
    forbid(
        EVERYWHERE,
        "IoRouter|io_inject_batch|io_flush|io_take_tx_into|io_pool|io_note_device_rx_drops|\
         io_note_device_tx_drops|io_interface_count",
    );
    // A restart switch beside `max_restarts: 0`.
    forbid("crates/core/src/supervisor.rs", "pub restart: bool");
}

/// One transport crosses the shard boundary, `rp_ring`: no channel is
/// built, named or waited on anywhere in the tree.
#[test]
fn one_dispatch_transport() {
    forbid(EVERYWHERE, "crossbeam_channel|unbounded(|recv_timeout");
}

/// One data-plane trait: `DataPlane` is declared once and implemented in
/// the crates by the two planes alone; the parallel plane has no
/// one-packet entry, and the methods only a driver calls live in the
/// trait impls alone, with no inherent twin.
#[test]
fn one_data_plane_trait() {
    let decls = lines_where("crates/", |l| contains(l, "trait DataPlane"));
    assert_eq!(decls.len(), 1, "trait DataPlane:\n{}", decls.join("\n"));
    let impls = lines_where("crates/", |l| contains(l, "impl DataPlane for"));
    let planes = impls.iter().map(|l| l.split(" for ").nth(1).unwrap_or(l));
    assert!(planes.eq(["ParallelRouter {", "Router {"]), "{impls:#?}");
    let twins = "pub fn receive_burst|pub fn pool_mut|pub fn note_device";
    forbid("crates/core/src/router.rs", twins);
    let parallel = format!("pub fn receive(|pub fn interface_count|{twins}");
    forbid("crates/core/src/dataplane/mod.rs", &parallel);
}

/// Differential scaffolding exists once (`tests/differential.rs`): each
/// of these is defined in at most one file under `tests/`.
#[test]
fn differential_scaffolding_exists_once() {
    let defs = "struct DiffFlow|fn diff_packets|fn deliveries|fn by_flow|fn direct_output|\
                fn assert_same_deliveries";
    for def in defs.split('|') {
        let found = lines_where("tests/", |l| contains(l, &format!("{def}\\b")));
        let mut files: Vec<_> = found.iter().map(|l| l.split(':').next()).collect();
        files.dedup();
        assert!(files.len() <= 1, "{def}:\n{}", found.join("\n"));
    }
}

/// The scheduling plugins share one instance: one `SchedulerInstance`
/// impl, one `as_scheduler` and one packet store (lines before a file's
/// first `#[cfg(test)]`).
#[test]
fn one_scheduling_instance() {
    for (scope, what) in [
        (
            "crates/core/src/plugins/",
            "impl SchedulerInstance for|> SchedulerInstance for",
        ),
        ("crates/core/src/plugins/", "fn as_scheduler"),
        (EVERYWHERE, "struct PacketStore"),
    ] {
        let found = code_lines_where(scope, |l| contains(l, what));
        assert_eq!(found.len(), 1, "{what}:\n{}", found.join("\n"));
    }
}

/// Queued egress drains in one call per scheduler: `SchedulerInstance`
/// declares one method, `dequeue_into`, and the router never dequeues a
/// packet at a time (lines before its first `#[cfg(test)]`).
#[test]
fn schedulers_drain_through_one_call() {
    let plugin = file("crates/core/src/plugin.rs");
    let (_, body) = plugin
        .split_once("pub trait SchedulerInstance {")
        .expect("trait SchedulerInstance is gone");
    let body = &body[..body.find("\n}").unwrap_or(body.len())];
    let methods: Vec<&str> = body
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with("fn "))
        .collect();
    assert!(
        methods.len() == 1 && methods[0].starts_with("fn dequeue_into("),
        "SchedulerInstance must declare dequeue_into alone:\n{}",
        methods.join("\n")
    );
    let found = code_lines_where("crates/core/src/router.rs", |l| l.contains(".dequeue("));
    assert_none(found, "a per-packet dequeue in the router");
}

/// Supervision timestamps are caller-supplied `u64` ns: no `Instant`
/// before a file's first `#[cfg(test)]`.
#[test]
fn supervision_paths_read_no_instant() {
    let paths = "crates/core/src/dataplane/mod.rs crates/core/src/dataplane/shard.rs \
                 crates/netdev/src/supervisor.rs crates/netdev/src/ioplane.rs";
    let found = code_lines_where(paths, |l| l.contains("Instant"));
    assert_none(found, "Instant outside #[cfg(test)]");
}

/// Table 2's counts are returned by the lookups, not charged: no router
/// layer holds a shared counter, the stand-alone counter's add is the
/// one atomic add in `rp-lpm`, and each DAG node kind keeps its own
/// arena (no enum over the kinds, sized by its largest).
#[test]
fn probe_counts_are_returned_and_dag_nodes_sized_to_their_level() {
    forbid("crates/classifier/src/ crates/core/src/", "AccessCounter");
    let adds = lines_where("crates/lpm/src/", |l| l.contains("fetch_add"));
    let adds = adds
        .into_iter()
        .filter(|l| !l.starts_with("crates/lpm/src/access.rs:"));
    assert_none(adds.collect(), "fetch_add outside access.rs");
    forbid(
        "crates/classifier/src/dag.rs",
        r"large_enum_variant|NodeKind\b",
    );
}

/// `supervisor::Backoff` is the one ladder.
#[test]
fn one_backoff_doubling() {
    let found = lines_where("crates/core/src/ crates/netdev/src/", |l| {
        contains(l, "saturating_mul(2)|*2).min|* 2).min")
    });
    assert_eq!(found.len(), 1, "backoff doublings:\n{}", found.join("\n"));
}

/// One victim routine, and `FlowTable::binding_mut` the one way to a
/// binding (`GateArray` only carries an evicted flow's bindings out).
#[test]
fn flow_table_has_one_victim_routine_and_one_way_to_a_binding() {
    for (scope, what) in [
        ("crates/classifier/src/flow_table.rs", "fn reclaim_victim"),
        ("crates/classifier/", "pub gates: GateArray"),
    ] {
        let found = lines_where(scope, |l| l.contains(what));
        assert_eq!(found.len(), 1, "{what}:\n{}", found.join("\n"));
    }
    forbid("crates/classifier/", "soft_state_mut|fn record_mut");
}

/// `FlowKey::extract` is the one flow-identity parser: the router, the
/// dispatcher and the flow cache never build a `FlowTuple` from packet
/// bytes (lines before a file's first `#[cfg(test)]`), and
/// `FlowTuple::extract` is the key's parse read back as a tuple.
#[test]
fn one_flow_key_parser() {
    let scope = "crates/core/src/router.rs crates/core/src/dataplane/ \
                 crates/classifier/src/aiu.rs crates/classifier/src/flow_table.rs";
    let found = code_lines_where(scope, |l| {
        contains(l, "FlowTuple::from_mbuf|FlowTuple::extract")
    });
    assert_none(found, "a tuple parse beside FlowKey::extract");
    let flow = file("crates/packet/src/flow.rs");
    let sig = "pub fn extract(data: &[u8], rx_if: IfIndex) -> Result<FlowTuple> {";
    let body: Vec<&str> = flow
        .split_once(sig)
        .map_or("", |(_, rest)| rest)
        .lines()
        .map(str::trim)
        .skip(1)
        .take(2)
        .collect();
    assert_eq!(
        body,
        ["FlowKey::extract(data, rx_if).map(|k| k.tuple())", "}"],
        "FlowTuple::extract must be the key's parse, read back"
    );
}

/// One flow type on the data path: `FlowKey` from the wire to the DAG
/// leaf and the eviction callback. `FlowTuple`, the flow spelled out, is
/// named by no line before the first `#[cfg(test)]` of the router, the
/// plugins, the dispatcher, the comparator, the flow table or the filter
/// tables, and in `aiu.rs` only by `classify`'s signature.
#[test]
fn one_flow_type() {
    let scope = "crates/core/src/router.rs crates/core/src/plugin.rs crates/core/src/plugins/ \
                 crates/core/src/monolithic.rs crates/core/src/dataplane/ \
                 crates/classifier/src/flow_table.rs crates/classifier/src/dag.rs \
                 crates/classifier/src/linear.rs";
    let found = code_lines_where(scope, |l| l.contains("FlowTuple"));
    assert_none(found, "FlowTuple on the data path");
    let aiu = "crates/classifier/src/aiu.rs";
    let found = code_lines_where(aiu, |l| l.contains("FlowTuple"));
    let signature = file(aiu)
        .split_once("pub fn classify(")
        .map_or("", |(_, rest)| &rest[..rest.find('{').unwrap_or(0)]);
    assert!(
        found.len() == 1 && signature.contains("FlowTuple"),
        "FlowTuple in aiu.rs beside classify's signature:\n{}",
        found.join("\n")
    );
}

/// `(stats|data)\.(dropped_[a-z_]+|plugin_calls) *[-+]?=`: a write to a
/// drop or plugin-call counter outside the registry.
fn writes_ledger_counter(line: &str) -> bool {
    ["stats.", "data."].iter().any(|recv| {
        line.match_indices(recv).any(|(i, _)| {
            let rest = &line[i + recv.len()..];
            let end = rest.find(|c: char| !(c.is_ascii_lowercase() || c == '_'));
            let (ident, op) = rest.split_at(end.unwrap_or(rest.len()));
            let op = op.trim_start_matches(' ');
            (ident == "plugin_calls" || ident.len() > 8 && ident.starts_with("dropped_"))
                && (op.starts_with('=') || op.starts_with("-=") || op.starts_with("+="))
        })
    })
}

/// The router's `MetricsRegistry` is the data plane's only ledger; the
/// monolithic reference routers keep their own counters by design.
/// (`self.stats` is still the right name for a device's, a pool's or a
/// flow table's own counters, so that rule is scoped to core.)
#[test]
fn core_counts_only_in_the_registry() {
    let outside_monolithic = |mut found: Vec<String>| {
        found.retain(|l| !l.starts_with("crates/core/src/monolithic.rs:"));
        found
    };
    let stats = lines_where("crates/core/src/", |l| contains(l, r"self.stats\b"));
    assert_none(outside_monolithic(stats), "a stats field in core");
    let writes = lines_where("crates/core/src/ crates/netdev/src/", writes_ledger_counter);
    assert_none(
        outside_monolithic(writes),
        "a counter written outside the registry",
    );
    forbid("crates/core/src/ip_core.rs", "fn absorb");
}

/// `unsafe *(\{|fn|impl|trait)`.
fn opens_unsafe(line: &str) -> bool {
    line.match_indices("unsafe").any(|(i, _)| {
        let rest = line[i + "unsafe".len()..].trim_start_matches(' ');
        ["{", "fn", "impl", "trait"]
            .iter()
            .any(|k| rest.starts_with(k))
    })
}

/// Outside the ring and the device backends, the one `unsafe` is the FIB
/// prefetch in `lpm::dir24`; four crates forbid it outright.
#[test]
fn one_unsafe_line_and_it_is_the_prefetch() {
    let found = lines_where(
        "crates/lpm/src/ crates/classifier/src/ crates/core/src/ crates/packet/src/ \
         crates/sched/src/ crates/netsim/src/ src/",
        opens_unsafe,
    );
    assert!(
        found.len() == 1 && found[0].starts_with("crates/lpm/src/dir24.rs:"),
        "expected exactly one unsafe line, in crates/lpm/src/dir24.rs:\n{}",
        found.join("\n")
    );
    for krate in ["classifier", "core", "packet", "sched"] {
        let lib = format!("crates/{krate}/src/lib.rs");
        let forbids = |l: &str| l.starts_with("#![forbid(unsafe_code)]");
        assert!(
            file(&lib).lines().any(forbids),
            "{lib} lacks #![forbid(unsafe_code)]"
        );
    }
}
