//! `serve` — the smartsage-serve daemon.
//!
//! Stands up the online sample/gather/infer service over a synthetic
//! dataset published to the chosen store tiers, prints the bound
//! address (one greppable line), and runs until `POST /v1/shutdown`.
//!
//! ```text
//! serve --store file --graph file --port 0 --nodes 4096 --window-us 2000
//! ```

#![forbid(unsafe_code)]

use smartsage_gnn::Fanouts;
use smartsage_serve::batcher::BatchPolicy;
use smartsage_serve::engine::{DatasetConfig, Engine, EngineConfig};
use smartsage_serve::http::{HttpOptions, Server};
use smartsage_store::{StoreKind, TopologyKind};
use std::io::Write;
use std::time::Duration;

const USAGE: &str = "\
usage: serve [options]

  --addr HOST          bind host (default 127.0.0.1)
  --port N             bind port; 0 picks an ephemeral port (default 0)
  --store KIND         feature tier: mem|file|isp (default mem)
  --graph KIND         topology tier: mem|file|isp (default mem)
  --nodes N            population size (default 4096)
  --avg-degree F       power-law average degree (default 12)
  --dim N              feature dimension (default 32)
  --classes N          label classes (default 8)
  --hidden N           GraphSage hidden width (default 32)
  --fanouts A,B        default per-hop fan-outs (default 25,10)
  --seed N             model weight seed (default 1234)
  --cache-pages N      file/isp page-cache capacity in pages (default 1024; 0 = uncached)
  --shards N           modeled storage devices the dataset is partitioned
                       across; responses are identical at every count (default 1)
  --page-bytes N       file/isp page size (default 4096)
  --window-us N        batcher coalescing window in microseconds (default 2000)
  --max-batch N        most requests merged per pass (default 64)
  --queue-depth N      admission queue capacity (default 256)
  --workers N          HTTP worker threads (default 16)
  --max-body-bytes N   largest accepted request body (default 1 MiB)
  --help               this text
";

fn fail_usage(msg: &str) -> ! {
    eprintln!("serve: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    let value_of = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| fail_usage(&format!("{flag} needs a value")))
            })
            .map(|s| s.as_str())
    };
    for (i, a) in args.iter().enumerate() {
        if a.starts_with("--") {
            let known = [
                "--addr",
                "--port",
                "--store",
                "--graph",
                "--nodes",
                "--avg-degree",
                "--dim",
                "--classes",
                "--hidden",
                "--fanouts",
                "--seed",
                "--cache-pages",
                "--shards",
                "--page-bytes",
                "--window-us",
                "--max-batch",
                "--queue-depth",
                "--workers",
                "--max-body-bytes",
            ];
            if !known.contains(&a.as_str()) {
                fail_usage(&format!("unknown flag '{a}'"));
            }
        } else if i == 0 || !args[i - 1].starts_with("--") {
            fail_usage(&format!("unexpected argument '{a}'"));
        }
    }
    let parse = |flag: &str, default: u64| -> u64 {
        value_of(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| fail_usage(&format!("{flag} wants an integer, got '{v}'")))
        })
    };
    let store = match value_of("--store").unwrap_or("mem") {
        "mem" => StoreKind::Mem,
        "file" => StoreKind::File,
        "isp" => StoreKind::Isp,
        other => fail_usage(&format!("--store must be mem|file|isp, got '{other}'")),
    };
    let topology = match value_of("--graph").unwrap_or("mem") {
        "mem" => TopologyKind::Mem,
        "file" => TopologyKind::File,
        "isp" => TopologyKind::Isp,
        other => fail_usage(&format!("--graph must be mem|file|isp, got '{other}'")),
    };
    let fanouts = match value_of("--fanouts") {
        None => Fanouts::paper_default(),
        Some(spec) => {
            let hops: Result<Vec<usize>, _> = spec.split(',').map(str::parse).collect();
            match hops {
                Ok(hops) if !hops.is_empty() && hops.iter().all(|&f| f > 0) => Fanouts::new(hops),
                _ => fail_usage(&format!(
                    "--fanouts wants positive integers like 25,10, got '{spec}'"
                )),
            }
        }
    };
    let avg_degree: f64 = value_of("--avg-degree").map_or(12.0, |v| {
        v.parse()
            .unwrap_or_else(|_| fail_usage(&format!("--avg-degree wants a number, got '{v}'")))
    });
    let config = EngineConfig {
        dataset: DatasetConfig {
            nodes: parse("--nodes", 4096) as usize,
            avg_degree,
            graph_seed: 42,
            feature_dim: parse("--dim", 32) as usize,
            classes: parse("--classes", 8) as usize,
            feature_seed: 7,
        },
        store,
        topology,
        fanouts,
        hidden: parse("--hidden", 32) as usize,
        model_seed: parse("--seed", 1234),
        page_bytes: parse("--page-bytes", 4096),
        cache_pages: parse("--cache-pages", 1024) as usize,
        shards: match parse("--shards", 1) {
            0 => fail_usage("--shards expects at least one device"),
            n => n as usize,
        },
    };
    let policy = BatchPolicy {
        window: Duration::from_micros(parse("--window-us", 2000)),
        max_batch: parse("--max-batch", 64) as usize,
        queue_depth: parse("--queue-depth", 256) as usize,
    };
    let options = HttpOptions {
        workers: parse("--workers", 16) as usize,
        max_body_bytes: parse("--max-body-bytes", 1 << 20) as usize,
    };
    let bind = format!(
        "{}:{}",
        value_of("--addr").unwrap_or("127.0.0.1"),
        parse("--port", 0)
    );

    let engine = match Engine::new(config.clone()) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("serve: failed to open store tiers: {e}");
            std::process::exit(1);
        }
    };
    let server = match Server::start(engine, policy, options, &bind) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: failed to bind {bind}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "smartsage-serve listening on http://{}  (store {}, graph {}, {} nodes, window {}us)",
        server.addr(),
        config.store.label(),
        config.topology.label(),
        config.dataset.nodes,
        policy.window.as_micros(),
    );
    let _ = std::io::stdout().flush();

    server.wait();
    server.shutdown();
    println!("smartsage-serve drained and stopped");
}
