//! The `serve` workload: one client drives `serve::Engine` in a closed
//! loop of edit rounds, each followed by a `report()` read, with a cache
//! directory (and so the round journal) enabled.
//!
//! The edit script repeats a cycle of six rounds, so every run has the
//! same mix of the three kinds of edit:
//!
//! * three body edits of random units that keep their interface — one unit
//!   is re-analyzed, the cache misses and stores;
//! * the undo of the second body edit — the earlier source is back, the
//!   cache hits;
//! * two edits of a random unit's `bench_link_<u>`, which the next three
//!   units import, that change the global it writes — the importers are
//!   invalidated too, and their unchanged sources hit the cache.
//!
//! The 3:1:2 proportions are an assumption, not measured editor traffic;
//! a different mix moves the edit percentiles and the cache counters.

use crate::corpus::{self, Rng, SERVE};
use crate::replica::{self, Counters};
use crate::trace::{SpanId, Trace};
use crate::{checks, dir_bytes, layer_self_ms, median, peak_rss_mb, percentile, Args, Measured};
use sga_pipeline::cache::LoadOutcome;
use sga_pipeline::{assemble_report, unit_cache_key, Cache, PipelineOptions, UnitAnalysis};
use sga_serve::{cold_report, Engine};
use sga_utils::Json;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Engine cold starts per run (the median is the set-up time).
const SETUP_REPS: usize = 3;
/// Rounds in one cycle of the edit script.
const CYCLE: usize = 6;
/// Rounds between two cold batch runs (whole cycles of the script).
const BLOCK_ROUNDS: usize = 30;
/// Fewest measured rounds, so the p90 has more than ten samples above it.
const MIN_ROUNDS: usize = 120;
/// Rounds of the traced session (the first rounds of the same script).
const TRACE_ROUNDS: usize = 30;
/// Each unit's `bench_link_<u>` is imported by the next `IMPORTERS` units.
const IMPORTERS: usize = 3;

/// The corpus state and the seeded edit script over it.
struct Script {
    names: Vec<String>,
    bases: Vec<String>,
    body_k: Vec<u64>,
    /// Per unit, (global written, constant) of its `bench_link_<u>`.
    link: Vec<(usize, u64)>,
    next_k: u64,
    undo: Option<(usize, u64)>,
    rng: Rng,
}

impl Script {
    fn new(seed: u64) -> Script {
        let (names, bases): (Vec<_>, Vec<_>) = SERVE.generate(seed).into_iter().unzip();
        Script {
            body_k: vec![0; names.len()],
            link: vec![(0, 0); names.len()],
            names,
            bases,
            next_k: 0,
            undo: None,
            rng: Rng::new(seed),
        }
    }

    fn source(&self, u: usize) -> String {
        let n = self.names.len();
        let mut s = self.bases[u].clone();
        let _ = writeln!(
            s,
            "\nint bench_body(int a) {{ return a + {}; }}",
            self.body_k[u]
        );
        let (g, k) = self.link[u];
        let _ = writeln!(
            s,
            "int bench_link_{u}(int a) {{ g{g} = a; return a + {k}; }}"
        );
        for d in 1..=IMPORTERS {
            let j = (u + n - d) % n;
            let _ = writeln!(
                s,
                "int bench_use_{j}(int a) {{ return bench_link_{j}(a); }}"
            );
        }
        s
    }

    fn units(&self) -> Vec<(String, String)> {
        (0..self.names.len())
            .map(|u| (self.names[u].clone(), self.source(u)))
            .collect()
    }

    /// The edit of round `round`: `(unit, new source)`.
    fn edit(&mut self, round: usize) -> (String, String) {
        let u = match round % CYCLE {
            0 | 2 | 4 => {
                let u = self.rng.below(self.names.len());
                self.undo = Some((u, self.body_k[u]));
                self.next_k += 1;
                self.body_k[u] = self.next_k;
                u
            }
            3 => {
                let (u, k) = self.undo.take().expect("an undo follows a body edit");
                self.body_k[u] = k;
                u
            }
            _ => {
                let u = self.rng.below(self.names.len());
                let step = 1 + self.rng.below(SERVE.globals - 1);
                self.next_k += 1;
                self.link[u] = ((self.link[u].0 + step) % SERVE.globals, self.next_k);
                u
            }
        };
        (self.names[u].clone(), self.source(u))
    }
}

fn entry<'a>(report: &'a Json, name: &str) -> Option<&'a Json> {
    checks::units(report)
        .iter()
        .find(|u| u.get("name").and_then(Json::as_str) == Some(name))
}

fn options(cache: &Path) -> PipelineOptions {
    PipelineOptions {
        jobs: 1,
        canonical: true,
        cache_dir: Some(cache.to_path_buf()),
        ..PipelineOptions::default()
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(args: &Args, work: &Path) -> Result<Measured, String> {
    let mut m = Measured::default();
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // Set-up: generate the corpus and cold-start the daemon's engine on an
    // empty cache; the last engine serves the session.
    let mut setup = Vec::new();
    let mut engine = None;
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("setup{rep}"));
        if let Some(prev) = rep.checked_sub(1) {
            drop(engine.take());
            let _ = std::fs::remove_dir_all(work.join(format!("setup{prev}")));
        }
        let t = Instant::now();
        let script = Script::new(args.seed);
        corpus::write_dir(&dir.join("corpus"), &script.units()).map_err(|e| err(&e))?;
        let e =
            Engine::new(&dir.join("corpus"), &options(&dir.join("cache"))).map_err(|e| err(&e))?;
        setup.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");
    let corpus_dir = engine.dir().to_path_buf();

    // Timed: closed-loop rounds in blocks of whole script cycles, until
    // the time is up and there are enough samples. After each block, a cold
    // batch run of the corpus as it stands is an `analyze_s` sample (spread
    // over the run, so one slow stretch of the host does not set the
    // median), and it must equal the engine's accumulated report.
    let mut script = Script::new(args.seed);
    let mut edit_ms = Vec::new();
    let mut cold_s = Vec::new();
    let mut invalidated = 0usize;
    // The units each of the first `TRACE_ROUNDS` rounds re-analyzed; the
    // traced session must repeat them.
    let mut first_rounds = Vec::new();
    let start = Instant::now();
    while edit_ms.len() < MIN_ROUNDS || start.elapsed() < args.seconds {
        for _ in 0..BLOCK_ROUNDS {
            let edit = script.edit(edit_ms.len());
            let t = Instant::now();
            let outcome = engine.apply_edits(vec![edit]);
            edit_ms.push(ms_since(t));
            m.attempted += 1;
            let report = engine.report().map_err(|e| err(&e))?;
            match outcome {
                Ok(o) => {
                    invalidated += o.invalidated.len();
                    if o.edited.iter().any(|n| !o.invalidated.contains(n)) {
                        m.errors.push(format!(
                            "round {}: an edited unit was not re-analyzed",
                            edit_ms.len()
                        ));
                    }
                    if first_rounds.len() < TRACE_ROUNDS {
                        first_rounds.push(o.invalidated.clone());
                    }
                    let failed = |n: &String| entry(&report, n).is_none_or(checks::unit_failed);
                    if o.invalidated.iter().any(failed) {
                        m.failed += 1;
                    }
                }
                Err(_) => m.failed += 1,
            }
        }
        let report = engine.report().map_err(|e| err(&e))?;
        let t = Instant::now();
        let cold = cold_report(&corpus_dir, engine.options()).map_err(|e| err(&e))?;
        cold_s.push(t.elapsed().as_secs_f64());
        if cold.to_pretty() != report.to_pretty() {
            m.errors
                .push("the engine's report differs from a cold run of its corpus".into());
        }
    }
    let peak = peak_rss_mb();
    if let Err(e) = checks::golden_alarms(Path::new("tests/alarms")) {
        m.errors.push(e);
    }

    m.e2e.insert("setup_s", median(&setup));
    m.e2e.insert("analyze_s", median(&cold_s));
    m.e2e.insert("edit_p50_ms", percentile(&edit_ms, 50.0));
    m.e2e.insert("edit_p90_ms", percentile(&edit_ms, 90.0));
    m.e2e.insert("peak_rss_mb", peak);
    m.info = Json::obj()
        .with("workload", "serve")
        .with("seed", args.seed as f64)
        .with("shape", SERVE.to_json(args.seed))
        .with("jobs", 1usize)
        .with("triage", engine.options().triage.name())
        .with("rounds", edit_ms.len())
        .with("setup_reps", SETUP_REPS)
        .with(
            "setup_s",
            setup.iter().map(|&s| Json::from(s)).collect::<Vec<_>>(),
        )
        .with(
            "cold_s",
            cold_s.iter().map(|&s| Json::from(s)).collect::<Vec<_>>(),
        )
        .with(
            "invalidated_per_edit",
            invalidated as f64 / edit_ms.len() as f64,
        );
    drop(engine);

    if args.trace {
        traced(args, work, &first_rounds, &mut m)?;
    }
    Ok(m)
}

/// Cache hit/miss counts of the replica, and the keys it has stored.
#[derive(Default)]
struct CacheCounts {
    hits: usize,
    misses: usize,
    stored: BTreeSet<(String, u64)>,
    /// Lookups that hit a key never stored, or missed a stored one.
    wrong: Vec<String>,
}

/// One unit the way `analyze_units` handles it under a cache: look up,
/// and on a miss analyze and store.
#[allow(clippy::too_many_arguments)]
fn replica_unit(
    trace: &Trace,
    parent: SpanId,
    name: &str,
    source: &str,
    options: &PipelineOptions,
    cache: &Cache,
    counters: &mut Counters,
    cc: &mut CacheCounts,
) -> Result<UnitAnalysis, String> {
    let key = unit_cache_key(options, source);
    let found = trace.span(Some(parent), "cache.load", name, |_| cache.load(name, key));
    let seen = cc.stored.contains(&(name.to_string(), key));
    if let LoadOutcome::Hit(a) = found {
        cc.hits += 1;
        if !seen {
            cc.wrong
                .push(format!("{name}: cache hit on a source never stored"));
        }
        return Ok(*a);
    }
    cc.misses += 1;
    if seen {
        cc.wrong
            .push(format!("{name}: cache miss on a stored source"));
    }
    let a = trace.span(Some(parent), "unit", name, |u| {
        replica::analyze_unit(trace, u, name, source, options, counters)
    })?;
    trace
        .span(Some(parent), "cache.store", name, |_| {
            cache.store(name, key, &a)
        })
        .map_err(|e| format!("{name}: cache store: {e}"))?;
    cc.stored.insert((name.to_string(), key));
    Ok(a)
}

/// A second session over the first rounds of the same script: each engine
/// round is followed by the traced replica of the units it invalidated
/// (against a cache of the replica's own) and a traced `report()`. The
/// engine must re-analyze the same units as in the untimed session's
/// `first_rounds`.
fn traced(
    args: &Args,
    work: &Path,
    first_rounds: &[Vec<String>],
    m: &mut Measured,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut script = Script::new(args.seed);
    let dir = work.join("traced");
    corpus::write_dir(&dir.join("corpus"), &script.units()).map_err(|e| err(&e))?;
    let options = options(&dir.join("cache"));
    let trace = Trace::new(format!("serve-{}", std::process::id()));
    let mut engine = trace
        .span(None, "serve.cold_start", "", |_| {
            Engine::new(&dir.join("corpus"), &options)
        })
        .map_err(|e| err(&e))?;

    // Warm the replica's cache the way the cold start warmed the engine's;
    // these spans are not part of the per-round split.
    let rcache_dir = dir.join("replica-cache");
    let rcache = Cache::open(&rcache_dir).map_err(|e| err(&e))?;
    let warm = Trace::new(String::new());
    let mut warm_cc = CacheCounts::default();
    warm.span(None, "warm", "", |p| {
        for (name, source) in script.units() {
            replica_unit(
                &warm,
                p,
                &name,
                &source,
                &options,
                &rcache,
                &mut Counters::default(),
                &mut warm_cc,
            )?;
        }
        Ok::<(), String>(())
    })?;

    let mut counters = Counters::default();
    let mut cc = CacheCounts {
        stored: warm_cc.stored,
        ..CacheCounts::default()
    };
    let (mut round_ms, mut analyze_ms, mut overhead_ms, mut report_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut invalidated = 0usize;
    let mut report = Json::Null;
    for round in 0..TRACE_ROUNDS {
        let label = round.to_string();
        let edit = script.edit(round);
        let t = Instant::now();
        let outcome = trace
            .span(None, "serve.round", &label, |_| {
                engine.apply_edits(vec![edit])
            })
            .map_err(|e| err(&e))?;
        let round_t = ms_since(t);
        invalidated += outcome.invalidated.len();
        if first_rounds.get(round) != Some(&outcome.invalidated) {
            m.errors.push(format!(
                "round {round}: the two sessions re-analyzed different units"
            ));
        }
        let t = Instant::now();
        let probe_before = counters.probe_ms;
        let results = trace.span(None, "serve.replica", &label, |p| {
            outcome
                .invalidated
                .iter()
                .map(|name| {
                    let source = engine.source_of(name).unwrap_or_default();
                    replica_unit(
                        &trace,
                        p,
                        name,
                        source,
                        &options,
                        &rcache,
                        &mut counters,
                        &mut cc,
                    )
                    .map(|a| (name, a))
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let replica_t = ms_since(t) - (counters.probe_ms - probe_before);
        let t = Instant::now();
        report = trace
            .span(None, "serve.report", &label, |_| engine.report())
            .map_err(|e| err(&e))?;
        report_ms.push(ms_since(t));
        for (name, a) in &results {
            let checked = entry(&report, name)
                .ok_or_else(|| format!("{name}: missing from the engine report"))
                .and_then(|e| replica::matches_entry(a, e));
            if let Err(e) = checked {
                m.errors.push(e);
            }
        }
        round_ms.push(round_t);
        analyze_ms.push(replica_t);
        overhead_ms.push(round_t - replica_t);
    }
    let assembled = trace.span(None, "report.assemble", "", |_| {
        let mut opts = options.clone();
        opts.cache_dir = None;
        assemble_report(checks::units(&report).to_vec(), &opts)
    });
    if !matches!(assembled, Ok(r) if r.to_pretty() == report.to_pretty()) {
        m.errors
            .push("assemble_report does not reproduce the engine report".into());
    }

    m.errors.extend(warm_cc.wrong);
    m.errors.extend(cc.wrong.iter().cloned());
    m.errors.extend(counters.mismatches.iter().cloned());

    let l = &mut m.layers;
    crate::layer_metrics(l, &trace, &counters);
    l.insert(
        "report.alarms_open",
        checks::total(&report, "alarms") as f64,
    );
    let looked_up = (cc.hits + cc.misses).max(1) as f64;
    let round_total: f64 = round_ms.iter().sum();
    let replica_total: f64 = analyze_ms.iter().sum();
    l.insert("cache.hits", cc.hits as f64);
    l.insert("cache.misses", cc.misses as f64);
    l.insert("cache.hit_rate", cc.hits as f64 / looked_up);
    l.insert("cache.bytes", dir_bytes(&rcache_dir) as f64);
    l.insert("serve.analyze_ms", median(&analyze_ms));
    l.insert("serve.overhead_ms", median(&overhead_ms));
    l.insert(
        "serve.invalidated_per_edit",
        invalidated as f64 / TRACE_ROUNDS as f64,
    );
    l.insert("serve.report_ms", median(&report_ms));
    l.insert("report.bytes", report.to_pretty().len() as f64);
    l.insert("trace.overhead_ms", replica_total - round_total);
    l.insert(
        "trace.unattributed_ms",
        round_total - layer_self_ms(&trace, &["cache.load", "cache.store"]),
    );
    m.trace = Some(trace);
    Ok(())
}
