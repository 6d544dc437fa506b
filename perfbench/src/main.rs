//! Seeded end-to-end and per-layer benchmark of the `simc` synthesis flow.
//!
//! ```text
//! bash perfbench/run.sh --workload <assign-heavy|state-volume|serve-mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The program sees only generated `.g` text (see [`specs`]). With
//! `--trace 0` the run times the release `simc` binary from outside —
//! `simc verify` processes in a closed loop, or HTTP requests to
//! `simc serve` in a closed loop and then an open-loop rate ladder — with
//! the program's own statistics off.
//! With `--trace 1` a separate run over the same inputs records spans
//! around the benchmark's calls into each crate and reports per-layer
//! numbers. Every answer is checked; a wrong one counts as a failed
//! operation, is printed by name, and makes the exit code 1. A table goes
//! to stderr; the last stdout line is the JSON result.

mod cli;
mod http;
mod procfs;
mod serve;
mod specs;
mod stats;
mod trace;
mod traced;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use simc_obs::json::Value;
use simc_obs::Counter;

use serve::{Endpoint, Kind};
use specs::{Base, Spec};
use stats::{median, percentile, tail};
use trace::{Span, Tracer};

/// Setups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Consecutive chunks a run's timed operations are cut into for
/// throughput (and, on `serve-mixed`, latency); the reported value is
/// the median over the chunks, so a host stall of a few seconds moves
/// one chunk, not the result.
const CHUNKS: usize = 5;
/// Renamed copies of each base spec the CLI workloads cycle through.
const VARIANT_ROUNDS: usize = 4;
/// Where runs keep their inputs and the daemon's cache; removed at exit.
const WORK_DIR: &str = ".perfbench-work";
/// Where the traced run writes its spans.
const OUT_DIR: &str = ".perfbench-out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    AssignHeavy,
    StateVolume,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::AssignHeavy,
        Workload::StateVolume,
        Workload::ServeMixed,
    ];

    /// The named workload, or every workload for `all`.
    fn parse(name: &str) -> Option<Vec<Workload>> {
        match name {
            "all" => Some(Workload::ALL.to_vec()),
            _ => Workload::ALL
                .into_iter()
                .find(|w| w.name() == name)
                .map(|w| vec![w]),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::AssignHeavy => "assign-heavy",
            Workload::StateVolume => "state-volume",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn bases(self) -> Vec<Base> {
        match self {
            Workload::AssignHeavy | Workload::ServeMixed => specs::assign_bases(),
            Workload::StateVolume => specs::volume_bases(),
        }
    }

    /// Whole rounds a CLI run times for `--seconds`: a count fixed in
    /// advance, so the sample count, and with it the rank the tail is read
    /// at, does not depend on how fast the program is. The seconds per
    /// round were measured on a 2-core x86-64 host. At least
    /// `TAIL_BEYOND + 1` rounds, so the tail falls among the samples of
    /// the slowest base spec.
    fn timed_rounds(self, seconds: f64) -> usize {
        let round_seconds = match self {
            Workload::AssignHeavy => 1.4,
            Workload::StateVolume => 1.9,
            Workload::ServeMixed => unreachable!("serve-mixed runs a schedule, not rounds"),
        };
        ((seconds / round_seconds).round() as usize).max(stats::TAIL_BEYOND + 1)
    }

    /// Bases the untimed warm-up verifies once: every assign spec, but
    /// only the narrowest ring, so set-up stays short.
    fn warmup(self, base: &Base) -> bool {
        match self {
            Workload::AssignHeavy | Workload::ServeMixed => true,
            Workload::StateVolume => base.name == "ring-13",
        }
    }
}

struct Args {
    simc: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --simc <path> --workload <assign-heavy|state-volume|serve-mixed|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// One `Args` per workload to run.
fn parse_args() -> Result<Vec<Args>, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--simc" | "--workload" | "--seed" | "--seconds" | "--trace" => {
                values.insert(flag, value);
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let get = |flag: &str| values.get(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let workloads =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let simc = PathBuf::from(get("--simc")?);
    let seed: u64 = get("--seed")?
        .parse()
        .map_err(|_| "--seed needs an unsigned integer".to_string())?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(workloads
        .into_iter()
        .map(|workload| Args {
            simc: simc.clone(),
            workload,
            seed,
            seconds,
            trace,
        })
        .collect())
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value (0 for exact counts).
    samples: usize,
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
        note: String::new(),
    }
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    /// The metrics the JSON line carries.
    metrics: Vec<Metric>,
    /// Further named metrics printed only in the table.
    extra: Vec<Metric>,
}

fn main() -> ExitCode {
    let runs = match parse_args() {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut code = ExitCode::SUCCESS;
    for args in &runs {
        if !args.simc.is_file() {
            eprintln!("error: no simc binary at {}", args.simc.display());
            return ExitCode::from(2);
        }
        let dir =
            Path::new(WORK_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
        let steal_before = procfs::cpu_steal();
        let outcome = run(args, &dir);
        let steal_after = procfs::cpu_steal();
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir(WORK_DIR);
        let mut outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("error: {}: {e}", args.workload.name());
                return ExitCode::from(2);
            }
        };
        // Time the host withheld from this machine's CPUs during the run:
        // a diagnostic for run-to-run spread, not a result.
        if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, steal_after) {
            outcome.extra.push(metric(
                "host.steal_pct",
                100.0 * ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64),
                "%",
                0,
            ));
        }
        print_table(args, &outcome);
        let failed = outcome.failures.len() as u64;
        println!("{}", result_json(&outcome, failed));
        if failed > 0 {
            code = ExitCode::from(1);
        }
    }
    code
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let bases = args.workload.bases();
    match args.workload {
        Workload::ServeMixed => run_serve(args, dir, &bases),
        _ => run_cli(args, dir, &bases),
    }
}

/// Rounds of specs, their file paths, and warm-up failures.
type Prepared = (Vec<Vec<Spec>>, Vec<Vec<PathBuf>>, Vec<String>);

/// Generates and writes the CLI inputs, then warms up.
fn setup_cli(args: &Args, dir: &Path, bases: &[Base]) -> Result<Prepared, String> {
    let rounds = specs::rounds(bases, args.seed, args.workload.name(), VARIANT_ROUNDS);
    let paths = cli::write_specs(dir, bases, &rounds).map_err(|e| format!("writing specs: {e}"))?;
    let mut failures = Vec::new();
    for (spec, path) in rounds[0].iter().zip(&paths[0]) {
        let base = &bases[spec.base];
        if args.workload.warmup(base) {
            failures.extend(cli::verify(&args.simc, path, base).error);
        }
    }
    Ok((rounds, paths, failures))
}

fn run_cli(args: &Args, dir: &Path, bases: &[Base]) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let mut prepared = None;
    let mut out = Outcome::default();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let (rounds, paths, failures) = setup_cli(args, dir, bases)?;
        setup.push(start.elapsed().as_secs_f64());
        out.failures.extend(failures);
        prepared = Some((rounds, paths));
    }
    let (rounds, paths) = prepared.expect("at least one setup");
    if args.trace {
        let mut tracer = Tracer::new();
        let inproc = traced::run(&mut tracer, &args.simc, bases, &rounds[0], &paths[0]);
        out.attempted = rounds[0].len() as u64;
        out.failures.extend(inproc.errors.iter().cloned());
        out.metrics = layer_metrics(&inproc, &tracer, None);
        write_trace(args, &tracer, &inproc, None)?;
        return Ok(out);
    }

    // Closed loop over a fixed number of whole rounds: every base runs
    // equally often, and the sample count does not depend on speed.
    let mut walls = Vec::new();
    let mut hwm_kb = 0;
    // (verified specs, wall seconds) per round.
    let mut per_round = Vec::new();
    for round in 0..args.workload.timed_rounds(args.seconds) {
        let start = Instant::now();
        let mut completed = 0;
        for (spec, path) in rounds[round % rounds.len()]
            .iter()
            .zip(&paths[round % rounds.len()])
        {
            let run = cli::verify(&args.simc, path, &bases[spec.base]);
            out.attempted += 1;
            hwm_kb = hwm_kb.max(run.hwm_kb);
            match run.error {
                Some(e) => out.failures.push(e),
                None => {
                    walls.push(run.wall.as_secs_f64() * 1e3);
                    completed += 1;
                }
            }
        }
        per_round.push((completed, start.elapsed().as_secs_f64()));
    }
    let rates: Vec<f64> = stats::chunks(&per_round, CHUNKS)
        .into_iter()
        .map(|chunk| {
            let completed: usize = chunk.iter().map(|&(n, _)| n).sum();
            ratio(completed as f64, chunk.iter().map(|&(_, s)| s).sum())
        })
        .collect();

    let (quality, errors) = cli::batch_quality(&args.simc, dir, bases, &rounds[0], &paths[0]);
    out.attempted += rounds[0].len() as u64;
    out.failures.extend(errors);
    check_totals(&mut out, bases, quality.literals, quality.state_signals);

    let completed = walls.len();
    push_latency(&mut out, &walls);
    out.metrics.push(Metric {
        note: format!("median of {} chunks of whole rounds", rates.len()),
        ..metric(
            "throughput_per_s",
            median(&rates).unwrap_or(0.0),
            "1/s",
            completed,
        )
    });
    out.metrics.push(metric(
        "peak_rss_mb",
        hwm_kb as f64 / 1024.0,
        "MB",
        completed,
    ));
    out.metrics.push(metric(
        "setup_s",
        median(&setup).expect("setups ran"),
        "s",
        setup.len(),
    ));
    out.metrics.push(metric(
        "literals_total",
        quality.literals as f64,
        "count",
        rounds[0].len(),
    ));
    out.extra.push(metric(
        "state_signals_total",
        quality.state_signals as f64,
        "count",
        rounds[0].len(),
    ));
    push_error_rate(&mut out);
    Ok(out)
}

/// `latency_p50_ms` and `latency_tail_ms` over `samples` (ms).
fn push_latency(out: &mut Outcome, samples: &[f64]) {
    let n = samples.len();
    out.metrics.push(metric(
        "latency_p50_ms",
        median(samples).unwrap_or(0.0),
        "ms",
        n,
    ));
    let mut tail_metric = match tail(samples) {
        Some((value, pct)) => Metric {
            note: format!("p{pct:.2}"),
            ..metric("latency_tail_ms", value, "ms", n)
        },
        None => {
            let max = samples.iter().copied().fold(0.0, f64::max);
            Metric {
                note: "max: fewer than 11 samples".to_string(),
                ..metric("latency_tail_ms", max, "ms", n)
            }
        }
    };
    tail_metric.note.push_str(" (10 samples beyond)");
    out.metrics.push(tail_metric);
}

fn push_error_rate(out: &mut Outcome) {
    let rate = out.failures.len() as f64 / out.attempted.max(1) as f64;
    out.extra
        .push(metric("error_rate", rate, "ratio", out.attempted as usize));
}

/// The quality totals must equal those recorded for the base specs.
fn check_totals(out: &mut Outcome, bases: &[Base], literals: u64, state_signals: u64) {
    let want_literals: u64 = bases.iter().map(|b| b.literals).sum();
    let want_signals: u64 = bases.iter().map(|b| b.added).sum();
    out.attempted += 1;
    if literals != want_literals || state_signals != want_signals {
        out.failures.push(format!(
            "quality totals: literals_total {literals} (expected {want_literals}), \
             state_signals_total {state_signals} (expected {want_signals})"
        ));
    }
}

/// A daemon with its warm set seeded, and what seeding found.
struct Seeded {
    daemon: http::Daemon,
    literals: u64,
    state_signals: u64,
    failures: Vec<String>,
    attempted: u64,
}

/// Spawns a daemon with an empty cache and sends every warm spec to every
/// endpoint once, so warm requests in the run are cache reads.
fn seed_daemon(args: &Args, dir: &Path, bases: &[Base], warm: &[Spec]) -> Result<Seeded, String> {
    let daemon = http::Daemon::spawn(&args.simc, serve::WORKERS, dir.join("cache"))
        .map_err(|e| format!("starting simc serve: {e}"))?;
    let mut seeded = Seeded {
        daemon,
        literals: 0,
        state_signals: 0,
        failures: Vec::new(),
        attempted: 0,
    };
    for spec in warm {
        let base = &bases[spec.base];
        for endpoint in Endpoint::ALL {
            let answer = serve::send(&seeded.daemon.addr, endpoint, base, &spec.text, false);
            seeded.attempted += 1;
            seeded.failures.extend(answer.error);
            if endpoint == Endpoint::Synth {
                let num = |k| {
                    answer
                        .body
                        .as_ref()
                        .and_then(|b| b.get(k))
                        .and_then(Value::as_u64)
                        .unwrap_or(0)
                };
                seeded.literals += num("literals");
                seeded.state_signals += num("added_signals");
            }
        }
    }
    Ok(seeded)
}

/// Client-side numbers of a traced serve run.
struct ServeTrace {
    stats: Option<Value>,
    queue_depth_max: u64,
    /// Per-endpoint `(cold, warm)` latency samples, ms.
    latencies: BTreeMap<Endpoint, (Vec<f64>, Vec<f64>)>,
    late_ms: Vec<f64>,
    /// Counter deltas the daemon reported per request, summed.
    deltas: BTreeMap<String, u64>,
}

fn run_serve(args: &Args, dir: &Path, bases: &[Base]) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let mut seeded: Option<Seeded> = None;
    let (mut warm, mut plan) = (Vec::new(), Vec::new());
    let mut out = Outcome::default();
    for repeat in 0..SETUP_REPEATS {
        if let Some(previous) = seeded.take() {
            out.attempted += previous.attempted;
            out.failures.extend(previous.failures);
            if !previous.daemon.shutdown() {
                return Err("simc serve did not drain cleanly".to_string());
            }
        }
        let start = Instant::now();
        warm = specs::rounds(bases, args.seed, "serve-mixed.warm", 1).remove(0);
        plan = serve::plan(args.seed, bases, &warm, args.seconds);
        seeded = Some(seed_daemon(
            args,
            &dir.join(format!("setup-{repeat}")),
            bases,
            &warm,
        )?);
        setup.push(start.elapsed().as_secs_f64());
    }
    let seeded = seeded.expect("at least one setup");
    out.attempted += seeded.attempted;
    out.failures.extend(seeded.failures);
    let addr = seeded.daemon.addr.clone();

    let closed = plan.iter().filter(|r| r.phase == serve::CLOSED).count();
    let send = |request: &serve::Request| {
        let answer = serve::send(
            &addr,
            request.endpoint,
            &bases[request.base],
            &request.body,
            args.trace,
        );
        (answer.received, answer)
    };
    let mut tracer = Tracer::new();
    let stop = AtomicBool::new(false);
    let queue_max = AtomicU64::new(0);
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        if args.trace {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(health) = seeded.daemon.get_json("/healthz") {
                        let queued = health.get("queued").and_then(Value::as_u64).unwrap_or(0);
                        queue_max.fetch_max(queued, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
        }
        let mut results = serve::closed_loop(
            closed,
            |i| plan[i].kind == Kind::Duplicate,
            start,
            |i| send(&plan[i]),
        );
        // The ladder's schedule starts when the closed loop ends.
        let ladder_start = start.elapsed();
        let due: Vec<Duration> = plan[closed..]
            .iter()
            .map(|r| ladder_start + r.due)
            .collect();
        results.extend(serve::open_loop(&due, serve::SLOTS, start, |i| {
            send(&plan[closed + i])
        }));
        stop.store(true, Ordering::Relaxed);
        results
    });
    let hwm_kb = procfs::vm_hwm_kb(seeded.daemon.pid()).unwrap_or(0);
    let final_stats = seeded.daemon.get_json("/stats");
    if !seeded.daemon.shutdown() {
        out.failures
            .push("simc serve did not drain cleanly".to_string());
    }

    out.attempted += results.len() as u64;
    for (_, answer) in &results {
        out.failures.extend(answer.error.clone());
    }
    let at = |phase: usize| {
        results
            .iter()
            .zip(&plan)
            .filter(move |(_, r)| r.phase == phase)
    };
    let latency_ms = |(t, _): &(serve::Timing, serve::Answer)| t.latency().as_secs_f64() * 1e3;

    if args.trace {
        let offset = tracer.at(start);
        let mut latencies: BTreeMap<Endpoint, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        let mut deltas: BTreeMap<String, u64> = BTreeMap::new();
        for (i, ((timing, answer), request)) in results.iter().zip(&plan).enumerate() {
            let id = 1_000_000 + i as u64;
            let secs = |d: Duration| offset + d.as_secs_f64();
            let kind = match request.kind {
                Kind::Warm => "warm",
                Kind::Cold => "cold",
                Kind::Duplicate => "duplicate",
            };
            let root = tracer.record(Span {
                name: "serve.request".to_string(),
                tag: kind.to_string(),
                request: id,
                parent: None,
                start: secs(timing.due),
                end: secs(timing.done),
            });
            tracer.record(Span {
                name: "loadgen.wait".to_string(),
                tag: String::new(),
                request: id,
                parent: Some(root),
                start: secs(timing.due),
                end: secs(timing.sent),
            });
            tracer.record(Span {
                name: format!("serve.{}", request.endpoint.name()),
                tag: answer.flight.clone().unwrap_or_default(),
                request: id,
                parent: Some(root),
                start: secs(timing.sent),
                end: secs(timing.done),
            });
            if request.phase == serve::CLOSED {
                let cell = latencies.entry(request.endpoint).or_default();
                let ms = timing.latency().as_secs_f64() * 1e3;
                if request.kind == Kind::Warm {
                    cell.1.push(ms)
                } else {
                    cell.0.push(ms)
                }
            }
            if let Some(stats) = answer
                .body
                .as_ref()
                .and_then(|b| b.get("stats"))
                .and_then(Value::as_object)
            {
                for (name, value) in stats {
                    *deltas.entry(name.clone()).or_default() += value.as_u64().unwrap_or(0);
                }
            }
        }
        let late_ms = at(1)
            .map(|((t, _), _)| t.late().as_secs_f64() * 1e3)
            .collect();
        let serve_trace = ServeTrace {
            stats: final_stats,
            queue_depth_max: queue_max.load(Ordering::Relaxed),
            latencies,
            late_ms,
            deltas,
        };
        let paths = cli::write_specs(dir, bases, std::slice::from_ref(&warm))
            .map_err(|e| format!("writing specs: {e}"))?;
        let inproc = traced::run(&mut tracer, &args.simc, bases, &warm, &paths[0]);
        out.attempted += warm.len() as u64;
        out.failures.extend(inproc.errors.iter().cloned());
        out.metrics = layer_metrics(&inproc, &tracer, Some(&serve_trace));
        write_trace(args, &tracer, &inproc, Some(&serve_trace))?;
        return Ok(out);
    }

    // Latency and goodput per chunk of the closed loop, reported as the
    // median over the chunks.
    let measured = &results[..closed];
    let (mut p50s, mut tails, mut goodputs, mut tail_pct) = (vec![], vec![], vec![], 0.0);
    for chunk in stats::chunks(measured, CHUNKS) {
        let samples: Vec<f64> = chunk.iter().map(latency_ms).collect();
        p50s.push(median(&samples).unwrap_or(0.0));
        if let Some((value, pct)) = tail(&samples) {
            tails.push(value);
            tail_pct = pct;
        }
        let good = chunk
            .iter()
            .filter(|(t, a)| {
                a.error.is_none() && t.latency().as_secs_f64() * 1e3 <= serve::LIMIT_MS
            })
            .count();
        let first = chunk.iter().map(|(t, _)| t.sent).min().unwrap_or_default();
        let last = chunk.iter().map(|(t, _)| t.done).max().unwrap_or_default();
        goodputs.push(ratio(good as f64, (last - first).as_secs_f64()));
    }
    let chunks = p50s.len();
    check_totals(&mut out, bases, seeded.literals, seeded.state_signals);
    out.metrics.push(Metric {
        note: format!("median of {chunks} chunks"),
        ..metric("latency_p50_ms", median(&p50s).unwrap_or(0.0), "ms", closed)
    });
    out.metrics.push(Metric {
        note: format!("p{tail_pct:.2} (10 samples beyond) per chunk, median of {chunks} chunks"),
        ..metric(
            "latency_tail_ms",
            median(&tails).unwrap_or(0.0),
            "ms",
            closed,
        )
    });
    out.metrics.push(Metric {
        note: format!(
            "correct answers within {} ms per second, median of {chunks} chunks",
            serve::LIMIT_MS
        ),
        ..metric(
            "throughput_per_s",
            median(&goodputs).unwrap_or(0.0),
            "1/s",
            closed,
        )
    });
    out.metrics
        .push(metric("peak_rss_mb", hwm_kb as f64 / 1024.0, "MB", 1));
    out.metrics.push(metric(
        "setup_s",
        median(&setup).expect("setups ran"),
        "s",
        setup.len(),
    ));
    out.metrics.push(metric(
        "literals_total",
        seeded.literals as f64,
        "count",
        warm.len(),
    ));
    out.extra.push(metric(
        "state_signals_total",
        seeded.state_signals as f64,
        "count",
        warm.len(),
    ));
    push_error_rate(&mut out);
    for (name, kind) in [("cold_p50_ms", false), ("warm_p50_ms", true)] {
        let samples: Vec<f64> = at(serve::CLOSED)
            .filter(|(_, r)| (r.kind == Kind::Warm) == kind)
            .map(|(r, _)| latency_ms(r))
            .collect();
        out.extra.push(metric(
            name,
            median(&samples).unwrap_or(0.0),
            "ms",
            samples.len(),
        ));
    }
    let mut max_rate = metric("max_rate_rps", 0.0, "1/s", 0);
    for (index, &rate) in serve::LADDER.iter().enumerate() {
        let rung: Vec<_> = at(index + 1).collect();
        let samples: Vec<f64> = rung.iter().map(|(r, _)| latency_ms(r)).collect();
        let rung_tail = tail(&samples).map_or(f64::INFINITY, |(v, _)| v);
        let late: Vec<f64> = rung
            .iter()
            .map(|((t, _), _)| t.late().as_secs_f64() * 1e3)
            .collect();
        let last_quarter = median(&late[late.len() * 3 / 4..]).unwrap_or(f64::INFINITY);
        let sustained = rung.iter().all(|((_, a), _)| a.error.is_none())
            && rung_tail <= serve::LIMIT_MS
            && last_quarter <= serve::LIMIT_MS / 4.0;
        out.extra.push(Metric {
            note: format!(
                "tail {rung_tail:.1} ms, late {last_quarter:.1} ms at end{}",
                if sustained { "" } else { " (not sustained)" }
            ),
            ..metric(
                &format!("rate_{rate}_rps.tail_ms"),
                rung_tail,
                "ms",
                samples.len(),
            )
        });
        if sustained {
            max_rate.value = rate;
            max_rate.samples = samples.len();
        }
    }
    max_rate.note = format!("limit: tail <= {} ms, no growing backlog", serve::LIMIT_MS);
    out.extra.push(max_rate);
    let late: Vec<f64> = at(1)
        .map(|((t, _), _)| t.late().as_secs_f64() * 1e3)
        .collect();
    let note = format!("at {} req/s", serve::LADDER[0]);
    out.extra.push(Metric {
        note: note.clone(),
        ..metric(
            "loadgen.late_p50_ms",
            median(&late).unwrap_or(0.0),
            "ms",
            late.len(),
        )
    });
    out.extra.push(Metric {
        note,
        ..metric(
            "loadgen.late_max_ms",
            late.iter().copied().fold(0.0, f64::max),
            "ms",
            late.len(),
        )
    });
    Ok(out)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    inproc: &traced::InProcess,
    tracer: &Tracer,
    serve: Option<&ServeTrace>,
) -> Vec<Metric> {
    let table = trace::by_name(tracer.spans());
    let specs = inproc.untraced.len();
    let total = |name: &str| table.get(name).map_or(0.0, |row| row.1);
    let count = |c: Counter| traced::counter(&inproc.counters, c) as f64;
    let mut m = Vec::new();
    m.push(metric(
        "cli.overhead_ms",
        median(&inproc.cli_overhead).unwrap_or(0.0) * 1e3,
        "ms",
        specs,
    ));
    for name in traced::stage_names() {
        m.push(metric(&format!("{name}_s"), total(name), "s", specs));
    }
    for name in [
        "stg.parse",
        "stg.reach",
        "sg.canonical",
        "sg.reparse",
        "sg.regions",
        "mc.cover",
        "mc.reduce",
        "mc.synth",
        "netlist.verify",
        "formats.emit",
        "cache.key",
        "pipeline.copy",
    ] {
        m.push(metric(&format!("{name}_s"), total(name), "s", specs));
    }
    for &(_, layer) in traced::REDUCE_SPANS {
        let (calls, seconds) = inproc.reduce_spans.get(layer).copied().unwrap_or_default();
        m.push(metric(&format!("{layer}_s"), seconds, "s", specs));
        m.push(metric(
            &format!("{layer}_calls"),
            calls as f64,
            "count",
            specs,
        ));
    }
    for c in [
        Counter::ReachStates,
        Counter::ReachEdges,
        Counter::ReachFrontierDeduped,
        Counter::ArenaStatesInterned,
        Counter::ArenaPeakBytes,
        Counter::RegionDecompositions,
        Counter::RegionsFound,
        Counter::CoverCubesChecked,
        Counter::CoverCubesRejected,
        Counter::CoverSatSearches,
        Counter::BeamNodesExpanded,
        Counter::BeamModelsExamined,
        Counter::BeamDeduped,
        Counter::BeamPruned,
        Counter::BeamSignalsInserted,
        Counter::PortfolioRaces,
        Counter::SatSolves,
        Counter::SatConflicts,
        Counter::SatDecisions,
        Counter::SatPropagations,
        Counter::SatAssumptionReuses,
        Counter::VerifyStates,
        Counter::VerifyEvents,
        Counter::VerifyPeakFrontier,
    ] {
        let unit = if c == Counter::ArenaPeakBytes {
            "bytes"
        } else {
            "count"
        };
        m.push(metric(c.name(), count(c), unit, specs));
    }
    m.push(metric(
        "sg.canonical_bytes",
        inproc.canonical_bytes as f64,
        "bytes",
        specs,
    ));
    let checked = count(Counter::CoverCubesChecked);
    m.push(metric(
        "cover.accept_ratio",
        ratio(checked - count(Counter::CoverCubesRejected), checked),
        "ratio",
        specs,
    ));
    m.push(metric(
        "beam.useful_ratio",
        ratio(
            count(Counter::BeamSignalsInserted),
            count(Counter::BeamModelsExamined),
        ),
        "ratio",
        specs,
    ));
    m.push(metric(
        "sat.propagations_per_solve",
        ratio(count(Counter::SatPropagations), count(Counter::SatSolves)),
        "count",
        specs,
    ));
    let reduced = count(Counter::VerifyStubbornReduced);
    m.push(metric(
        "verify.stubborn_ratio",
        ratio(reduced, reduced + count(Counter::VerifyFullExpansions)),
        "ratio",
        specs,
    ));
    m.push(metric("netlist.gates", inproc.gates as f64, "count", specs));
    m.push(metric(
        "netlist.literals",
        inproc.literals as f64,
        "count",
        specs,
    ));

    // Cache, convert and serve counters come from the daemon when there is
    // one; the CLI workloads run without a cache.
    let daemon = |name: &str| {
        serve
            .and_then(|s| s.stats.as_ref())
            .map_or(0.0, |s| http::counter(s, name) as f64)
    };
    let from_daemon = |name: &str, c: Counter| {
        if serve.is_some() {
            daemon(name)
        } else {
            count(c)
        }
    };
    let (hits, misses) = (
        from_daemon("cache.hits", Counter::CacheHits),
        from_daemon("cache.misses", Counter::CacheMisses),
    );
    m.push(metric("cache.hits", hits, "count", specs));
    m.push(metric("cache.misses", misses, "count", specs));
    m.push(metric(
        "cache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        specs,
    ));
    m.push(metric(
        "cache.bytes_written",
        from_daemon("cache.bytes_written", Counter::CacheBytesWritten),
        "bytes",
        specs,
    ));
    m.push(metric(
        "cache.evictions",
        from_daemon("cache.evictions", Counter::CacheEvictions),
        "count",
        specs,
    ));
    m.push(metric(
        "convert.emits",
        from_daemon("convert.emits", Counter::ConvertEmits),
        "count",
        specs,
    ));
    m.push(metric(
        "convert.bytes_emitted",
        from_daemon("convert.bytes_emitted", Counter::ConvertBytesEmitted),
        "bytes",
        specs,
    ));

    for endpoint in Endpoint::ALL {
        let (cold, warm) = serve
            .and_then(|s| s.latencies.get(&endpoint))
            .cloned()
            .unwrap_or_default();
        for (kind, samples) in [("cold", cold), ("warm", warm)] {
            let name = format!("serve.{}_{kind}_ms", endpoint.name());
            m.push(metric(
                &name,
                median(&samples).unwrap_or(0.0),
                "ms",
                samples.len(),
            ));
        }
    }
    let requests = daemon("serve.requests");
    for name in [
        "serve.requests",
        "serve.computations",
        "serve.inflight_joined",
        "serve.shed_overload",
        "serve.deadline_exceeded",
        "serve.errors",
    ] {
        m.push(metric(name, daemon(name), "count", 0));
    }
    let dedup = if requests > 0.0 {
        1.0 - daemon("serve.computations") / requests
    } else {
        0.0
    };
    m.push(metric("serve.dedup_ratio", dedup, "ratio", 0));
    m.push(metric(
        "serve.queue_depth_max",
        serve.map_or(0.0, |s| s.queue_depth_max as f64),
        "count",
        0,
    ));
    let late = serve.map(|s| s.late_ms.as_slice()).unwrap_or(&[]);
    m.push(metric(
        "loadgen.late_p99_ms",
        percentile(late, 99.0),
        "ms",
        late.len(),
    ));

    let obs_total: f64 = inproc.obs_on.iter().sum();
    let untraced_total: f64 = inproc.untraced.iter().sum();
    m.push(metric(
        "obs.trace_overhead",
        ratio(obs_total, untraced_total) - 1.0,
        "ratio",
        specs,
    ));
    let coverage_min = inproc
        .coverage
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    m.push(Metric {
        note: format!("median {:.4}", median(&inproc.coverage).unwrap_or(0.0)),
        ..metric(
            "trace.coverage_min",
            if coverage_min.is_finite() {
                coverage_min
            } else {
                0.0
            },
            "ratio",
            specs,
        )
    });
    m.push(metric(
        "trace.unattributed_s",
        inproc.unattributed,
        "s",
        specs,
    ));
    m
}

/// Writes the spans, the self-time table, the program's span tree and
/// the per-request counter deltas to `OUT_DIR`, and prints the table.
fn write_trace(
    args: &Args,
    tracer: &Tracer,
    inproc: &traced::InProcess,
    serve: Option<&ServeTrace>,
) -> Result<(), String> {
    let table = trace::by_name(tracer.spans());
    let mut text = format!(
        "self time by layer ({}, seed {}):\n",
        args.workload.name(),
        args.seed
    );
    let _ = writeln!(
        text,
        "  {:<24} {:>7} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    );
    for (name, (calls, total, own)) in &table {
        let _ = writeln!(text, "  {name:<24} {calls:>7} {total:>12.6} {own:>12.6}");
    }
    text.push_str("program spans (simc_obs, traced pipeline runs):\n");
    for (path, (calls, seconds)) in &inproc.program_spans {
        let _ = writeln!(text, "  {path:<40} {calls:>7} {seconds:>12.6}");
    }
    if let Some(serve) = serve {
        text.push_str("per-request counter deltas (X-Simc-Stats), summed:\n");
        for (name, value) in &serve.deltas {
            let _ = writeln!(text, "  {name:<32} {value}");
        }
    }
    eprint!("{text}");

    let mut doc = String::from("{\n");
    let _ = writeln!(
        doc,
        "  \"workload\": {},",
        simc_obs::json::escape(args.workload.name())
    );
    let _ = writeln!(doc, "  \"seed\": {},", args.seed);
    let _ = writeln!(doc, "  \"self_time\": {{");
    let rows: Vec<String> = table
        .iter()
        .map(|(name, (calls, total, own))| {
            format!(
                "    {}: {{\"calls\": {calls}, \"total_s\": {total}, \"self_s\": {own}}}",
                simc_obs::json::escape(name)
            )
        })
        .collect();
    let _ = writeln!(doc, "{}\n  }},", rows.join(",\n"));
    if let Some(stats) = serve.and_then(|s| s.stats.as_ref()) {
        let counters: Vec<String> = stats
            .get("counters")
            .and_then(Value::as_object)
            .into_iter()
            .flatten()
            .map(|(k, v)| format!("{}: {}", simc_obs::json::escape(k), v.as_u64().unwrap_or(0)))
            .collect();
        let _ = writeln!(doc, "  \"final_stats\": {{{}}},", counters.join(", "));
    }
    let _ = writeln!(doc, "  \"spans\": {}}}", trace::to_json(tracer.spans()));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path =
        Path::new(OUT_DIR).join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

fn print_table(args: &Args, out: &Outcome) {
    eprintln!(
        "{} seed {} ({}): {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        out.attempted,
        out.failures.len()
    );
    for failure in &out.failures {
        eprintln!("  FAILED {failure}");
    }
    eprintln!(
        "  {:<32} {:>16} {:<6} {:>8}  note",
        "metric", "value", "unit", "samples"
    );
    for m in out.metrics.iter().chain(&out.extra) {
        eprintln!(
            "  {:<32} {:>16.6} {:<6} {:>8}  {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
}

fn result_json(out: &Outcome, failed: u64) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                simc_obs::json::escape(&m.name),
                simc_obs::json::escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        out.attempted.max(1),
        metrics.join(", ")
    )
}
