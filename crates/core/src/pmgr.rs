//! The Plugin Manager (paper §3.1): "a simple application which takes
//! arguments from the command line and translates them into calls to the
//! user-space Router Plugin Library". Here it is a command interpreter
//! over any [`ControlPlane`] — the single-threaded
//! [`Router`](crate::router::Router) or the sharded
//! [`ParallelRouter`](crate::dataplane::ParallelRouter) — used
//! interactively (the `pmgr` example binary), from configuration scripts,
//! and by the SSP daemon analogue. The command language is identical over
//! both data planes; on the parallel one every command fans out to all
//! shards and the replies are merged.
//!
//! Command language (one command per line; `#` comments):
//!
//! ```text
//! load <plugin>                      # modload
//! unload <plugin> [force]            # modunload; force frees live
//!                                    # instances and their bindings first
//! create <plugin> [k=v ...]          # create_instance → prints id
//! free <plugin> <iid>                # free_instance
//! bind <gate> <plugin> <iid> <six-tuple-filter>   # register_instance
//! unbind <gate> <plugin> <fid>       # deregister_instance
//! msg <plugin> [<iid>] <name> [args...]           # plugin-specific
//! route <addr>/<len> <ifindex>       # core routing table
//! route optimize                     # compile the IPv4 routes into the FIB
//! gate <gate> on|off
//! attach <ifindex> <plugin> <iid>    # default egress scheduler
//! info                               # loaded plugins and stats
//! stats                              # data-path + flow-cache counters,
//!                                    # with a per-shard breakdown on a
//!                                    # parallel data plane
//! metrics [json]                     # merged metrics registry (gate
//!                                    # latency histograms, classification
//!                                    # outcomes, drops, interfaces), with
//!                                    # a per-shard breakdown on a
//!                                    # parallel data plane
//! trace on|off                       # toggle the event tracer
//! trace dump [n]                     # last n (default 16) trace events
//! show filters <gate>                # installed filters at a gate
//! show instances                     # live plugin instances
//! health                             # supervision state per instance
//! faults                             # fault/quarantine/restart counters
//! shards                             # shard supervision state (parallel
//!                                    # data plane only); `processed` moves
//!                                    # once per batch, so a shard killed
//!                                    # mid-batch shows it short by that one
//! devices                            # bound network devices with rx/tx
//!                                    # packet/byte/error counters and
//!                                    # batch-size histograms (I/O plane
//!                                    # only)
//! shard restart <i>                  # rebuild shard i from the command
//!                                    # journal (operator override: skips
//!                                    # backoff, revives an exhausted
//!                                    # restart budget)
//! shard kill <i>                     # inject a panic into shard i
//!                                    # (fault-injection/testing)
//! ```

use crate::dataplane::control::ControlPlane;
use crate::gate::Gate;
use crate::message::{PluginMsg, PluginReply};
use crate::plugin::{InstanceId, PluginError};
use rp_classifier::{FilterId, FilterSpec};
use std::net::IpAddr;

/// Errors from interpreting a pmgr command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmgrError {
    /// Could not parse the command line.
    Syntax(String),
    /// The router rejected the operation.
    Plugin(String),
}

impl std::fmt::Display for PmgrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmgrError::Syntax(m) => write!(f, "syntax error: {m}"),
            PmgrError::Plugin(m) => write!(f, "error: {m}"),
        }
    }
}

impl std::error::Error for PmgrError {}

impl From<PluginError> for PmgrError {
    fn from(e: PluginError) -> Self {
        PmgrError::Plugin(e.to_string())
    }
}

/// Execute one pmgr command against a control plane, returning the
/// printed output line.
pub fn run_command<C: ControlPlane>(router: &mut C, line: &str) -> Result<String, PmgrError> {
    let line = line.split('#').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(String::new());
    }
    let toks: Vec<&str> = line.split_whitespace().collect();
    match toks[0] {
        "load" => {
            let name = arg(&toks, 1)?;
            router.cp_load_plugin(name)?;
            Ok(format!("loaded {name}"))
        }
        "unload" => {
            let name = arg(&toks, 1)?;
            match toks.get(2) {
                Some(&"force") => {
                    router.cp_force_unload_plugin(name)?;
                    Ok(format!("force-unloaded {name}"))
                }
                Some(other) => Err(PmgrError::Syntax(format!(
                    "unload <plugin> [force], got {other}"
                ))),
                None => {
                    router.cp_unload_plugin(name)?;
                    Ok(format!("unloaded {name}"))
                }
            }
        }
        "create" => {
            let name = arg(&toks, 1)?;
            let config = toks[2..].join(" ");
            let reply = router.cp_send_message(name, PluginMsg::CreateInstance { config })?;
            match reply {
                PluginReply::InstanceCreated(id) => Ok(format!("{name} instance {}", id.0)),
                other => Ok(format!("{other:?}")),
            }
        }
        "free" => {
            let name = arg(&toks, 1)?;
            let id = parse_iid(arg(&toks, 2)?)?;
            router.cp_send_message(name, PluginMsg::FreeInstance { id })?;
            Ok(format!("freed {name} instance {}", id.0))
        }
        "bind" => {
            let gate = parse_gate(arg(&toks, 1)?)?;
            let name = arg(&toks, 2)?;
            let id = parse_iid(arg(&toks, 3)?)?;
            let filter_str = toks[4..].join(" ");
            let filter: FilterSpec = filter_str
                .parse()
                .map_err(|e| PmgrError::Syntax(format!("{e}")))?;
            let reply =
                router.cp_send_message(name, PluginMsg::RegisterInstance { id, gate, filter })?;
            match reply {
                PluginReply::Registered(fid) => Ok(format!("filter {}", fid.0)),
                other => Ok(format!("{other:?}")),
            }
        }
        "unbind" => {
            let gate = parse_gate(arg(&toks, 1)?)?;
            let name = arg(&toks, 2)?;
            let fid: u64 = arg(&toks, 3)?
                .parse()
                .map_err(|_| PmgrError::Syntax("bad filter id".into()))?;
            router.cp_send_message(
                name,
                PluginMsg::DeregisterInstance {
                    gate,
                    filter: FilterId(fid),
                },
            )?;
            Ok(format!("unbound filter {fid}"))
        }
        "msg" => {
            let name = arg(&toks, 1)?;
            // Optional numeric instance id in position 2.
            let (instance, rest) = match toks.get(2).and_then(|t| t.parse::<u32>().ok()) {
                Some(n) => (Some(InstanceId(n)), 3),
                None => (None, 2),
            };
            let msg_name = arg(&toks, rest)?.to_string();
            let args = toks[rest + 1..].join(" ");
            let reply = router.cp_send_message(
                name,
                PluginMsg::Custom {
                    instance,
                    name: msg_name,
                    args,
                },
            )?;
            match reply {
                PluginReply::Text(t) => Ok(t),
                other => Ok(format!("{other:?}")),
            }
        }
        "route" => {
            let spec = arg(&toks, 1)?;
            if spec == "optimize" {
                router.cp_optimize_routes();
                return Ok("routes compiled".to_string());
            }
            let (addr, len) = spec
                .split_once('/')
                .ok_or_else(|| PmgrError::Syntax("route <addr>/<len> <if>".into()))?;
            let addr: IpAddr = addr
                .parse()
                .map_err(|_| PmgrError::Syntax(format!("bad address {addr}")))?;
            let len: u8 = len
                .parse()
                .map_err(|_| PmgrError::Syntax(format!("bad prefix length {len}")))?;
            let tx_if: u32 = arg(&toks, 2)?
                .parse()
                .map_err(|_| PmgrError::Syntax("bad interface".into()))?;
            router.cp_add_route(addr, len, tx_if);
            Ok(format!("route {spec} → if{tx_if}"))
        }
        "gate" => {
            let gate = parse_gate(arg(&toks, 1)?)?;
            let on = match arg(&toks, 2)? {
                "on" => true,
                "off" => false,
                other => return Err(PmgrError::Syntax(format!("gate … on|off, got {other}"))),
            };
            router.cp_set_gate_enabled(gate, on);
            Ok(format!("gate {gate} {}", if on { "on" } else { "off" }))
        }
        "attach" => {
            let iface: u32 = arg(&toks, 1)?
                .parse()
                .map_err(|_| PmgrError::Syntax("bad interface".into()))?;
            let name = arg(&toks, 2)?;
            let id = parse_iid(arg(&toks, 3)?)?;
            router.cp_set_default_scheduler(iface, name, id)?;
            Ok(format!("if{iface} default scheduler = {name} {}", id.0))
        }
        "show" => match arg(&toks, 1)? {
            "filters" => {
                let gate = parse_gate(arg(&toks, 2)?)?;
                let lines = router.cp_describe_filters(gate);
                if lines.is_empty() {
                    Ok(format!("no filters at gate {gate}"))
                } else {
                    Ok(lines.join("\n"))
                }
            }
            "instances" => {
                let lines = router.cp_describe_instances();
                if lines.is_empty() {
                    Ok("no instances".to_string())
                } else {
                    Ok(lines.join("\n"))
                }
            }
            other => Err(PmgrError::Syntax(format!(
                "show filters|instances, got {other}"
            ))),
        },
        "health" => {
            let reports = router.cp_health_reports();
            if reports.is_empty() {
                return Ok("no supervised instances".to_string());
            }
            Ok(reports
                .into_iter()
                .map(|sr| {
                    let r = sr.report;
                    let mut line = match sr.shard {
                        Some(s) => format!("[shard {s}] "),
                        None => String::new(),
                    };
                    line.push_str(&format!(
                        "{} {}: {} faults={}/{} restarts={}",
                        r.plugin, r.id.0, r.health, r.faults, r.total_faults, r.restarts
                    ));
                    if let Some(at) = r.restart_at_ns {
                        line.push_str(&format!(" restart_at={at}ns"));
                    }
                    if let Some(f) = r.last_fault {
                        line.push_str(&format!(" last=\"{f}\""));
                    }
                    line
                })
                .collect::<Vec<_>>()
                .join("\n"))
        }
        "shards" => {
            let rows = router.cp_shard_status();
            if rows.is_empty() {
                return Ok("no data-plane shards (single-threaded router)".to_string());
            }
            Ok(rows
                .into_iter()
                .map(|s| {
                    let mut line = format!(
                        "shard {}: {} restarts={} sent={} processed={} shed(overload={} down={})",
                        s.shard,
                        s.health,
                        s.restarts,
                        s.sent,
                        s.processed,
                        s.shed_overload,
                        s.shed_down
                    );
                    if s.restart_pending {
                        line.push_str(" restart-pending");
                    }
                    if let Some(f) = s.last_fault {
                        line.push_str(&format!(" last=\"{f}\""));
                    }
                    line
                })
                .collect::<Vec<_>>()
                .join("\n"))
        }
        "devices" => {
            let rows = router.cp_device_rows();
            if rows.is_empty() {
                return Ok("no bound devices (data plane not under an I/O plane)".to_string());
            }
            Ok(rows
                .into_iter()
                .map(|d| {
                    let s = d.stats;
                    let mut line = format!(
                        "{} if{} [{}]: rx={}pkts/{}B (err={} drop={}) tx={}pkts/{}B (err={} drop={}) \
                         rx_batch(mean={:.1} n={}) tx_batch(mean={:.1} n={})",
                        d.name,
                        d.iface,
                        d.health
                            .map_or_else(|| "unsupervised".to_string(), |h| h.to_string()),
                        s.rx_packets,
                        s.rx_bytes,
                        s.rx_errors,
                        s.rx_dropped,
                        s.tx_packets,
                        s.tx_bytes,
                        s.tx_errors,
                        s.tx_dropped,
                        s.rx_batch.mean(),
                        s.rx_batch.count,
                        s.tx_batch.mean(),
                        s.tx_batch.count,
                    );
                    if d.quarantines > 0 || d.reopens > 0 {
                        line.push_str(&format!(
                            " quarantines={} reopens={}",
                            d.quarantines, d.reopens
                        ));
                    }
                    line
                })
                .collect::<Vec<_>>()
                .join("\n"))
        }
        "shard" => {
            let verb = arg(&toks, 1)?;
            let idx: usize = arg(&toks, 2)?
                .parse()
                .map_err(|_| PmgrError::Syntax("bad shard index".into()))?;
            match verb {
                "restart" => Ok(router.cp_shard_restart(idx)?),
                "kill" => Ok(router.cp_shard_kill(idx)?),
                other => Err(PmgrError::Syntax(format!(
                    "shard restart|kill <i>, got {other}"
                ))),
            }
        }
        "faults" => {
            // Row 0 is always the merged total.
            let rows = router.cp_counter_rows();
            let s = rows.first().map(|r| r.data()).unwrap_or_default();
            Ok(format!(
                "plugin_calls={} faults={} dropped_fault={} dropped_internal={} quarantines={} restarts={}",
                s.plugin_calls,
                s.plugin_faults,
                s.dropped_fault,
                s.dropped_internal,
                s.plugin_quarantines,
                s.plugin_restarts
            ))
        }
        "stats" => {
            let rows = router.cp_counter_rows();
            Ok(rows
                .into_iter()
                .map(|r| {
                    let (d, f) = (r.data(), r.metrics.flows);
                    format!(
                        "{}: rx={} fwd={} dropped={} frag={} plugin_calls={} \
                         flows(live={} hits={} misses={} recycled={} allocated={})",
                        r.label,
                        d.received,
                        d.forwarded,
                        d.dropped_total(),
                        d.fragmented,
                        d.plugin_calls,
                        f.live,
                        f.hits,
                        f.misses,
                        f.recycled,
                        f.allocated,
                    )
                })
                .collect::<Vec<_>>()
                .join("\n"))
        }
        "metrics" => {
            let rows = router.cp_counter_rows();
            match toks.get(1) {
                Some(&"json") => {
                    // `merged` is always the total row; `shards` appears
                    // only when there is a per-shard breakdown.
                    let merged = rows
                        .first()
                        .map(|r| r.metrics.render_json())
                        .unwrap_or_else(|| "{}".to_string());
                    if rows.len() > 1 {
                        let shards = rows[1..]
                            .iter()
                            .map(|r| r.metrics.render_json())
                            .collect::<Vec<_>>()
                            .join(",");
                        Ok(format!("{{\"merged\":{merged},\"shards\":[{shards}]}}"))
                    } else {
                        Ok(format!("{{\"merged\":{merged}}}"))
                    }
                }
                Some(other) => Err(PmgrError::Syntax(format!("metrics [json], got {other}"))),
                None => Ok(rows
                    .into_iter()
                    .map(|r| format!("== {} ==\n{}", r.label, r.metrics.render_text()))
                    .collect::<Vec<_>>()
                    .join("\n")),
            }
        }
        "trace" => match arg(&toks, 1)? {
            "on" => {
                router.cp_trace_enable(true);
                Ok("trace on".to_string())
            }
            "off" => {
                router.cp_trace_enable(false);
                Ok("trace off".to_string())
            }
            "dump" => {
                let n = match toks.get(2) {
                    Some(t) => t
                        .parse()
                        .map_err(|_| PmgrError::Syntax(format!("bad count {t}")))?,
                    None => 16,
                };
                let events = router.cp_trace_dump(n);
                if events.is_empty() {
                    return Ok("no trace events".to_string());
                }
                Ok(events
                    .into_iter()
                    .map(|se| {
                        let e = se.event;
                        let origin = match se.shard {
                            Some(s) => format!("[shard {s}] "),
                            None => String::new(),
                        };
                        format!(
                            "{origin}#{} t={}ns [{}] {}",
                            e.seq,
                            e.now_ns,
                            e.category.label(),
                            e.detail
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("\n"))
            }
            other => Err(PmgrError::Syntax(format!(
                "trace on|off|dump [n], got {other}"
            ))),
        },
        "info" => {
            let loaded = router.cp_loaded_plugins().join(", ");
            let rows = router.cp_counter_rows();
            let (s, f) = rows
                .first()
                .map(|r| (r.data(), r.metrics.flows))
                .unwrap_or_default();
            Ok(format!(
                "plugins: [{loaded}]; rx={} fwd={} flows(live={} hits={} misses={})",
                s.received, s.forwarded, f.live, f.hits, f.misses
            ))
        }
        other => Err(PmgrError::Syntax(format!("unknown command {other}"))),
    }
}

/// Run a multi-line configuration script; stops at the first error.
/// Returns the non-empty output lines.
pub fn run_script<C: ControlPlane>(router: &mut C, script: &str) -> Result<Vec<String>, PmgrError> {
    let mut out = Vec::new();
    for line in script.lines() {
        let o = run_command(router, line)?;
        if !o.is_empty() {
            out.push(o);
        }
    }
    Ok(out)
}

fn arg<'a>(toks: &[&'a str], i: usize) -> Result<&'a str, PmgrError> {
    toks.get(i)
        .copied()
        .ok_or_else(|| PmgrError::Syntax(format!("missing argument {i}")))
}

fn parse_gate(s: &str) -> Result<Gate, PmgrError> {
    Gate::parse(s).ok_or_else(|| PmgrError::Syntax(format!("unknown gate {s}")))
}

fn parse_iid(s: &str) -> Result<InstanceId, PmgrError> {
    s.parse::<u32>()
        .map(InstanceId)
        .map_err(|_| PmgrError::Syntax(format!("bad instance id {s}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugins::register_builtin_factories;
    use crate::router::{Router, RouterConfig};

    fn router() -> Router {
        let mut r = Router::new(RouterConfig::default());
        register_builtin_factories(&mut r.loader);
        r
    }

    #[test]
    fn paper_section6_style_script() {
        // The flavour of the paper's §6.1 listing: modload + pmgr commands
        // configuring a DRR instance on an interface and binding a flow.
        let mut r = router();
        let out = run_script(
            &mut r,
            "# configure DRR on interface 1\n\
             load drr\n\
             create drr quantum=9180 limit=64\n\
             attach 1 drr 0\n\
             bind sched drr 0 <*, *, UDP, *, *, *>\n\
             route 2001:db8::/32 1\n\
             info\n",
        )
        .unwrap();
        assert_eq!(out[0], "loaded drr");
        assert_eq!(out[1], "drr instance 0");
        assert!(out[3].starts_with("filter "));
        assert!(out[5].contains("plugins: [drr]"));
    }

    #[test]
    fn unknown_command_and_missing_args() {
        let mut r = router();
        assert!(matches!(
            run_command(&mut r, "explode"),
            Err(PmgrError::Syntax(_))
        ));
        assert!(matches!(
            run_command(&mut r, "load"),
            Err(PmgrError::Syntax(_))
        ));
        assert!(matches!(
            run_command(&mut r, "load nonexistent"),
            Err(PmgrError::Plugin(_))
        ));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let mut r = router();
        assert_eq!(run_command(&mut r, "  # nothing ").unwrap(), "");
        assert_eq!(run_command(&mut r, "").unwrap(), "");
    }

    #[test]
    fn gate_toggle() {
        let mut r = router();
        assert!(r.gate_enabled(Gate::IpSecurity));
        run_command(&mut r, "gate ipsec off").unwrap();
        assert!(!r.gate_enabled(Gate::IpSecurity));
        run_command(&mut r, "gate ipsec on").unwrap();
        assert!(r.gate_enabled(Gate::IpSecurity));
    }

    #[test]
    fn msg_routing_with_and_without_instance() {
        let mut r = router();
        run_script(&mut r, "load stats\ncreate stats").unwrap();
        let out = run_command(&mut r, "msg stats 0 report").unwrap();
        assert!(out.contains("stats:"), "{out}");
        assert!(run_command(&mut r, "msg stats bogus").is_err());
    }

    #[test]
    fn show_commands() {
        let mut r = router();
        run_script(
            &mut r,
            "load stats
create stats
bind stats stats 0 <*, *, UDP, *, 53, *>",
        )
        .unwrap();
        let out = run_command(&mut r, "show filters stats").unwrap();
        assert!(out.contains("UDP") && out.contains("53"), "{out}");
        let out = run_command(&mut r, "show instances").unwrap();
        assert!(out.contains("stats 0:"), "{out}");
        assert_eq!(
            run_command(&mut r, "show filters fw").unwrap(),
            "no filters at gate firewall"
        );
        assert!(run_command(&mut r, "show bogus").is_err());
    }

    #[test]
    fn unbind_and_free() {
        let mut r = router();
        run_script(&mut r, "load firewall\ncreate firewall action=deny").unwrap();
        let out = run_command(&mut r, "bind fw firewall 0 <10.0.0.0/8, *, *, *, *, *>").unwrap();
        let fid: u64 = out.strip_prefix("filter ").unwrap().parse().unwrap();
        run_command(&mut r, &format!("unbind fw firewall {fid}")).unwrap();
        run_command(&mut r, "free firewall 0").unwrap();
        run_command(&mut r, "unload firewall").unwrap();
    }

    #[test]
    fn stats_command_single_router() {
        let mut r = router();
        let out = run_command(&mut r, "stats").unwrap();
        assert!(out.starts_with("total: rx=0 fwd=0"), "{out}");
        assert!(out.contains("flows(live=0"), "{out}");
    }

    #[test]
    fn metrics_command_single_router() {
        let mut r = router();
        let out = run_command(&mut r, "metrics").unwrap();
        assert!(out.starts_with("== total =="), "{out}");
        let out = run_command(&mut r, "metrics json").unwrap();
        assert!(out.starts_with("{\"merged\":{"), "{out}");
        assert!(out.contains("\"gates\""), "{out}");
        // Single router: no per-shard breakdown.
        assert!(!out.contains("\"shards\""), "{out}");
        assert!(run_command(&mut r, "metrics bogus").is_err());
    }

    #[test]
    fn route_optimize_shows_in_metrics() {
        let mut r = router();
        run_command(&mut r, "route 10.0.0.0/8 1").unwrap();
        let out = run_command(&mut r, "metrics").unwrap();
        assert!(out.contains("fib: compiled=0 "), "{out}");
        assert_eq!(
            run_command(&mut r, "route optimize").unwrap(),
            "routes compiled"
        );
        run_command(&mut r, "route 10.1.2.128/25 2").unwrap();
        let out = run_command(&mut r, "metrics").unwrap();
        assert!(
            out.contains("fib: compiled=1 tbl8_groups=1 next_hops=2 "),
            "{out}"
        );
        assert!(out.contains(" repaints=1\n"), "{out}");
    }

    #[test]
    fn shard_commands_on_single_router() {
        // The single-threaded router has no shards: status is an empty
        // (informative) answer, restart/kill are plugin errors.
        let mut r = router();
        assert_eq!(
            run_command(&mut r, "shards").unwrap(),
            "no data-plane shards (single-threaded router)"
        );
        assert!(matches!(
            run_command(&mut r, "shard restart 0"),
            Err(PmgrError::Plugin(_))
        ));
        assert!(matches!(
            run_command(&mut r, "shard kill 0"),
            Err(PmgrError::Plugin(_))
        ));
        assert!(run_command(&mut r, "shard bogus 0").is_err());
        assert!(run_command(&mut r, "shard restart x").is_err());
    }

    #[test]
    fn shard_commands_on_parallel_router() {
        use crate::dataplane::{ParallelRouter, ParallelRouterConfig};
        use crate::loader::PluginLoader;

        let mut template = PluginLoader::new();
        register_builtin_factories(&mut template);
        let mut pr = ParallelRouter::new(
            ParallelRouterConfig {
                shards: 2,
                ..ParallelRouterConfig::default()
            },
            &template,
        );
        run_script(&mut pr, "load firewall\ncreate firewall").unwrap();

        let out = run_command(&mut pr, "shards").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].starts_with("shard 0: healthy"), "{out}");
        assert!(lines[1].starts_with("shard 1: healthy"), "{out}");

        // Operator restart rebuilds from the journal and reports it.
        let out = run_command(&mut pr, "shard restart 1").unwrap();
        assert!(out.contains("shard 1 restarted"), "{out}");
        assert!(out.contains("journal commands replayed"), "{out}");
        let out = run_command(&mut pr, "shards").unwrap();
        assert!(out.contains("shard 1: degraded restarts=1"), "{out}");

        assert!(matches!(
            run_command(&mut pr, "shard restart 7"),
            Err(PmgrError::Plugin(_))
        ));
    }

    #[test]
    fn devices_command_without_io_plane() {
        // Bare data planes have no bound devices; the command still
        // answers (the informative empty reply, like `shards`).
        let mut r = router();
        assert_eq!(
            run_command(&mut r, "devices").unwrap(),
            "no bound devices (data plane not under an I/O plane)"
        );
    }

    #[test]
    fn trace_commands() {
        let mut r = router();
        assert_eq!(
            run_command(&mut r, "trace dump").unwrap(),
            "no trace events"
        );
        assert_eq!(run_command(&mut r, "trace on").unwrap(), "trace on");
        assert!(r.tracer().enabled());
        // A filter installation is a traced event.
        run_script(
            &mut r,
            "load stats\ncreate stats\nbind stats stats 0 <*, *, UDP, *, 53, *>",
        )
        .unwrap();
        let out = run_command(&mut r, "trace dump 8").unwrap();
        assert!(out.contains("[filter] filter installed"), "{out}");
        assert_eq!(run_command(&mut r, "trace off").unwrap(), "trace off");
        assert!(!r.tracer().enabled());
        assert!(run_command(&mut r, "trace bogus").is_err());
        assert!(run_command(&mut r, "trace dump bogus").is_err());
    }
}
