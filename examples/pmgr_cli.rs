//! `pmgr` — the Plugin Manager as an interactive command-line tool
//! (paper §3.1: "it can also be used to manually issue commands to
//! various plugins").
//!
//! Run with: `cargo run --example pmgr_cli`, then type commands:
//!
//! ```text
//! > load drr
//! > create drr quantum=9180
//! > attach 1 drr 0
//! > bind sched drr 0 <*, *, UDP, *, *, *>
//! > route 2001:db8::/32 1
//! > send 2001:db8::1 2001:db8::100 5000 6000   # inject a test packet
//! > info
//! > quit
//! ```

use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::run_command;
use router_plugins::core::{Router, RouterConfig};
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::Mbuf;
use std::io::{self, BufRead, Write};

fn main() {
    let mut router = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut router.loader);
    println!(
        "router-plugins pmgr. available modules: {}",
        router.loader.available().join(", ")
    );
    println!(
        "type pmgr commands; extra commands: send <src> <dst> <sport> <dport>, pump <if>, quit"
    );

    let stdin = io::stdin();
    loop {
        print!("> ");
        io::stdout().flush().ok();
        let Some(Ok(line)) = stdin.lock().lines().next() else {
            break;
        };
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.first().copied() {
            None => continue,
            Some("quit") | Some("exit") => break,
            Some("send") => {
                if toks.len() != 5 {
                    println!("usage: send <src> <dst> <sport> <dport>");
                    continue;
                }
                let parse = || -> Option<Mbuf> {
                    let src = toks[1].parse().ok()?;
                    let dst = toks[2].parse().ok()?;
                    let sport = toks[3].parse().ok()?;
                    let dport = toks[4].parse().ok()?;
                    Some(Mbuf::new(
                        PacketSpec::udp(src, dst, sport, dport, 256).build(),
                        0,
                    ))
                };
                match parse() {
                    Some(m) => println!("{:?}", router.receive(m)),
                    None => println!("bad addresses/ports"),
                }
            }
            Some("pump") => {
                let iface: u32 = toks.get(1).and_then(|t| t.parse().ok()).unwrap_or(1);
                // The interface's schedulers may serve other interfaces
                // too: report every wire the pump put packets on.
                if router.pump(iface, 64) == 0 {
                    println!("pumped 0 packets");
                }
                for i in 0..router.interface_count() as u32 {
                    let tx = router.take_tx(i);
                    if !tx.is_empty() {
                        let bytes: usize = tx.iter().map(Mbuf::len).sum();
                        println!("if{i}: {} packets ({bytes} bytes)", tx.len());
                    }
                }
            }
            _ => match run_command(&mut router, &line) {
                Ok(out) if out.is_empty() => {}
                Ok(out) => println!("{out}"),
                Err(e) => println!("{e}"),
            },
        }
    }
    println!("bye");
}
