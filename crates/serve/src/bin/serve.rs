//! `serve` — the smartsage-serve daemon.
//!
//! Stands up the online sample/gather/infer service over a synthetic
//! dataset published to the chosen store tiers, prints the bound
//! address (one greppable line), and runs until `POST /v1/shutdown`.
//!
//! ```text
//! serve --store file --graph file --port 0 --nodes 4096 --window-us 2000
//! ```

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
  --window-us N        batcher coalescing window in microseconds: the longest a
                       pass lingers for requests that can still arrive; it
                       starts at once when every open connection is waiting
                       in it (default 2000)
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

/// Every flag but `--help`; each takes one value.
const FLAGS: [&str; 19] = [
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

fn main() {
    // One pass: each known flag at most once, each with a value that is
    // not itself a flag.
    let mut values = std::collections::BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            print!("{USAGE}");
            return;
        }
        let Some(flag) = FLAGS.into_iter().find(|f| *f == arg) else {
            fail_usage(&if arg.starts_with("--") {
                format!("unknown flag '{arg}'")
            } else {
                format!("unexpected argument '{arg}'")
            })
        };
        let value = args
            .next()
            .filter(|v| !v.starts_with("--"))
            .unwrap_or_else(|| fail_usage(&format!("{flag} needs a value")));
        if values.insert(flag, value).is_some() {
            fail_usage(&format!("{flag} given more than once"));
        }
    }
    let value_of = |flag: &str| values.get(flag).map(String::as_str);
    let parse = |flag: &str, default: u64| -> u64 {
        value_of(flag).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| fail_usage(&format!("{flag} wants an integer, got '{v}'")))
        })
    };
    // Sizes and counts that cannot be zero: refused here, before the
    // dataset is materialized, instead of panicking inside it.
    let positive = |flag: &str, default: u64| -> u64 {
        match parse(flag, default) {
            0 => fail_usage(&format!("{flag} must be at least 1")),
            n => n,
        }
    };
    let bad_tier = |flag: &str, v: &str| format!("{flag} must be mem|file|isp, got '{v}'");
    let v = value_of("--store").unwrap_or("mem");
    let store = StoreKind::parse(v).unwrap_or_else(|| fail_usage(&bad_tier("--store", v)));
    let v = value_of("--graph").unwrap_or("mem");
    let topology = TopologyKind::parse(v).unwrap_or_else(|| fail_usage(&bad_tier("--graph", v)));
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
    // Zero, negative and non-finite degrees fail the generator's assert
    // or its allocation: refused here instead.
    let avg_degree = value_of("--avg-degree").map_or(12.0, |v| match v.parse::<f64>() {
        Ok(d) if d.is_finite() && d > 0.0 => d,
        _ => fail_usage(&format!(
            "--avg-degree wants a finite number above 0, got '{v}'"
        )),
    });
    let config = EngineConfig {
        dataset: DatasetConfig {
            nodes: positive("--nodes", 4096) as usize,
            avg_degree,
            graph_seed: 42,
            feature_dim: positive("--dim", 32) as usize,
            classes: positive("--classes", 8) as usize,
            feature_seed: 7,
        },
        store,
        topology,
        fanouts,
        hidden: positive("--hidden", 32) as usize,
        model_seed: parse("--seed", 1234),
        page_bytes: positive("--page-bytes", 4096),
        cache_pages: parse("--cache-pages", 1024) as usize,
        shards: match parse("--shards", 1) {
            0 => fail_usage("--shards expects at least one device"),
            n => n as usize,
        },
    };
    let policy = BatchPolicy {
        window: Duration::from_micros(parse("--window-us", 2000)),
        max_batch: positive("--max-batch", 64) as usize,
        queue_depth: positive("--queue-depth", 256) as usize,
    };
    let options = HttpOptions {
        workers: positive("--workers", 16) as usize,
        max_body_bytes: parse("--max-body-bytes", 1 << 20) as usize,
    };
    let port = parse("--port", 0);
    let port = u16::try_from(port)
        .unwrap_or_else(|_| fail_usage(&format!("--port must be at most 65535, got {port}")));
    let bind = format!("{}:{port}", value_of("--addr").unwrap_or("127.0.0.1"));

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
