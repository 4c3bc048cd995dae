//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch|recursive|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its workload's C units from `--seed`, sets up
//! (several times, the median is reported), runs the workload untraced for
//! `--seconds` to measure the end-to-end metrics, and checks the outputs.
//! With `--trace 1` it then runs a traced replica of the same work — the
//! public layer functions called in the pipeline's own order, each inside
//! a span — and reports the per-layer split instead; the spans are written
//! to `.bench_work/traces/<workload>-seed<N>.jsonl`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed correctness
//! check prints `"correct": false` and exits with status 1; bad arguments
//! or an I/O failure exit with status 2 and print no result. Every path is
//! relative to the working directory, which must be the repository root
//! (the golden-corpus check reads `tests/alarms/`).

mod batch;
mod checks;
mod corpus;
mod replica;
mod serve;
mod trace;

use sga_utils::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, reported untraced by every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("analyze_s", "s"),
    ("edit_p50_ms", "ms"),
    ("edit_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload under `--trace 1` (0 where
/// a layer does no work on that workload).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("cfront.parse_ms", "ms"),
    ("cfront.nodes", "count"),
    ("preanalysis.ms", "ms"),
    ("icfg.ms", "ms"),
    ("defuse.ms", "ms"),
    ("defuse.locs", "count"),
    ("defuse.avg_defs", "count"),
    ("defuse.avg_uses", "count"),
    ("depgen.ms", "ms"),
    ("depgen.edges_raw", "count"),
    ("depgen.edges", "count"),
    ("sparse.ms", "ms"),
    ("sparse.iterations", "count"),
    ("checker.ms", "ms"),
    ("checker.alarms", "count"),
    ("triage.octagon_ms", "ms"),
    ("triage.candidates", "count"),
    ("triage.octagon_discharged", "count"),
    ("triage.octagon_yield", "ratio"),
    ("triage.degraded_units", "count"),
    ("octagon.pre_ms", "ms"),
    ("octagon.dep_ms", "ms"),
    ("octagon.fix_ms", "ms"),
    ("octagon.packs", "count"),
    ("octagon.iterations", "count"),
    ("octagon.dep_edges", "count"),
    ("triage.path_ms", "ms"),
    ("triage.path_discharged", "count"),
    ("par.busy_ms", "ms"),
    ("par.idle_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("cache.store_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.bytes", "B"),
    ("serve.analyze_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.invalidated_per_edit", "count"),
    ("serve.report_ms", "ms"),
    ("report.assemble_ms", "ms"),
    ("report.bytes", "B"),
    ("report.alarms_open", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one workload run measured and checked.
pub struct Measured {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// Seed, shape, sample counts and other context for the output.
    pub info: Json,
    pub trace: Option<trace::Trace>,
}

impl Default for Measured {
    fn default() -> Measured {
        Measured {
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            info: Json::obj(),
            trace: None,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| "bad --seconds")?;
                seconds = Some(Duration::from_secs(s.max(1)));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(Duration::from_secs(25)),
        trace: trace.unwrap_or(false),
    })
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile of a non-empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Fills the per-layer metrics every workload shares: layer self times
/// from the trace and work counters from the replica.
pub fn layer_metrics(m: &mut BTreeMap<&'static str, f64>, t: &trace::Trace, c: &replica::Counters) {
    let ms = t.self_ms_by_name();
    let get = |name: &str| ms.get(name).copied().unwrap_or(0.0);
    let units = c.units.max(1) as f64;
    for (metric, value) in [
        ("cfront.parse_ms", get("cfront.parse")),
        ("cfront.nodes", c.nodes as f64),
        ("preanalysis.ms", get("preanalysis")),
        ("icfg.ms", get("icfg")),
        ("defuse.ms", get("defuse")),
        ("defuse.locs", c.defuse_locs as f64),
        ("defuse.avg_defs", c.avg_defs_sum / units),
        ("defuse.avg_uses", c.avg_uses_sum / units),
        ("depgen.ms", get("depgen")),
        ("depgen.edges_raw", c.edges_raw as f64),
        ("depgen.edges", c.edges as f64),
        ("sparse.ms", get("sparse")),
        ("sparse.iterations", c.iterations as f64),
        ("checker.ms", get("checker")),
        ("checker.alarms", c.checker_alarms as f64),
        ("triage.octagon_ms", get("triage.octagon")),
        ("triage.candidates", c.candidates as f64),
        ("triage.octagon_discharged", c.octagon_discharged as f64),
        (
            "triage.octagon_yield",
            c.octagon_discharged as f64 / c.candidates.max(1) as f64,
        ),
        ("triage.degraded_units", c.triage_degraded as f64),
        ("octagon.pre_ms", c.oct_pre_ms),
        ("octagon.dep_ms", c.oct_dep_ms),
        ("octagon.fix_ms", c.oct_fix_ms),
        ("octagon.packs", c.oct_packs as f64),
        ("octagon.iterations", c.oct_iterations as f64),
        ("octagon.dep_edges", c.oct_dep_edges as f64),
        ("triage.path_ms", get("triage.path")),
        ("triage.path_discharged", c.path_discharged as f64),
        ("cache.load_ms", get("cache.load")),
        ("cache.store_ms", get("cache.store")),
        ("report.assemble_ms", get("report.assemble")),
    ] {
        m.insert(metric, value);
    }
}

/// Sum of the self times of the analysis layers (plus `extra` span names).
pub fn layer_self_ms(t: &trace::Trace, extra: &[&str]) -> f64 {
    let ms = t.self_ms_by_name();
    replica::LAYER_SPANS
        .iter()
        .chain(extra)
        .map(|n| ms.get(n).copied().unwrap_or(0.0))
        .sum()
}

fn run(args: &Args, work: &Path) -> Result<Measured, String> {
    match args.workload.as_str() {
        "batch" => batch::run(&batch::BATCH, args, work),
        "recursive" => batch::run(&batch::RECURSIVE, args, work),
        "serve" => serve::run(args, work),
        other => Err(format!(
            "unknown workload {other} (batch, recursive or serve)"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let mut m = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(t) = m.trace.take() {
        let path = root
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match t.write_jsonl(&path) {
            Ok(()) => {
                m.info.set("trace_file", path.display().to_string());
            }
            Err(e) => m
                .errors
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    for e in &m.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    m.info.set("checks_failed", m.errors.len());
    println!("{}", m.info.to_compact());

    let (table, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &m.layers)
    } else {
        (&END_TO_END, &m.e2e)
    };
    let mut metrics = Json::obj();
    for &(name, unit) in table {
        let value = values.get(name).copied().unwrap_or(0.0);
        metrics.set(name, Json::obj().with("value", value).with("unit", unit));
    }
    let correct = m.errors.is_empty();
    let result = Json::obj()
        .with("correct", correct)
        .with("attempted", m.attempted)
        .with("failed", m.failed)
        .with("metrics", metrics);
    println!("{}", result.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables printed here and the ones `BENCHMARK.json`
    /// declares must name the same metrics, in the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(&str, &str)> = spec
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, table, "{key}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
