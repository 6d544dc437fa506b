//! The in-process part of the traced run: each spec goes through the
//! `Pipeline` stages untraced, as a `simc verify` process, through the
//! stages with tracing on, and through the crate calls the composite
//! stages make (the split), so per-layer time can be read off spans the
//! benchmark itself records around its calls. Each is repeated; spans
//! are kept from one traced run and one split, medians from the rest.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use simc_cache::domains;
use simc_formats::{Artifact, CANONICAL_MODEL};
use simc_mc::assign::{reduce_to_mc, ReduceOptions};
use simc_mc::parallel::ParallelSynth;
use simc_mc::synth::{build_from_covers, Target};
use simc_mc::{McCheck, McReport};
use simc_netlist::{verify, VerifyOptions};
use simc_obs::{self as obs, Counter, Kind};
use simc_pipeline::Pipeline;
use simc_sg::{canonical_sg, parse_sg, StateGraph};

use crate::cli;
use crate::specs::{Base, Spec};
use crate::trace::Tracer;

/// The program's `reduce/*` spans read as `mc.reduce.*` layers.
pub const REDUCE_SPANS: &[(&str, &str)] = &[
    ("regions", "mc.reduce.regions"),
    ("cover", "mc.reduce.cover"),
    ("assign_sat", "mc.reduce.sat"),
    ("assign_expand", "mc.reduce.expand"),
];

/// What the in-process part measured over one round of specs.
#[derive(Default)]
pub struct InProcess {
    /// Untraced in-process wall of the stage calls per spec, seconds
    /// (median of [`REPEATS`]).
    pub untraced: Vec<f64>,
    /// The same with `simc_obs` counters and spans on.
    pub obs_on: Vec<f64>,
    /// `simc verify` process wall minus untraced in-process wall up to
    /// verification, per spec, seconds (medians of [`REPEATS`]).
    pub cli_overhead: Vec<f64>,
    /// Share of the traced stage wall the split's layer spans cover, per
    /// spec: the split's leaf spans summed, over the stage calls' wall
    /// (medians of [`REPEATS`] runs of each).
    pub coverage: Vec<f64>,
    /// Traced stage wall the split's layer spans leave unexplained,
    /// summed over specs (per spec at least 0), seconds.
    pub unattributed: f64,
    /// The program's counters over every traced pipeline run.
    pub counters: BTreeMap<&'static str, u64>,
    /// `(calls, seconds)` of the program's `reduce/*` spans by layer.
    pub reduce_spans: BTreeMap<&'static str, (u64, f64)>,
    /// Every span path the program recorded, `(calls, seconds)`.
    pub program_spans: BTreeMap<String, (u64, f64)>,
    /// Bytes of canonical `.sg` text written by the split.
    pub canonical_bytes: u64,
    /// Gates of every implemented netlist.
    pub gates: u64,
    /// Literals of every implementation.
    pub literals: u64,
    /// One message per wrong answer.
    pub errors: Vec<String>,
}

type Stage = fn(&mut Pipeline) -> Result<(), String>;

/// The stage calls a `simc verify` and a `/v1/convert` (EDIF) make, in
/// order.
const STAGES: &[(&str, Stage)] = &[
    ("pipeline.elaborated", |p| {
        p.elaborated().map(drop).map_err(|e| e.to_string())
    }),
    ("pipeline.regioned", |p| {
        p.regioned().map(drop).map_err(|e| e.to_string())
    }),
    ("pipeline.covered", |p| {
        p.covered().map(drop).map_err(|e| e.to_string())
    }),
    ("pipeline.implemented", |p| {
        p.implemented().map(drop).map_err(|e| e.to_string())
    }),
    ("pipeline.verified", |p| match p.verified() {
        Ok(v) if v.is_ok() => Ok(()),
        Ok(_) => Err("hazardous verdict".to_string()),
        Err(e) => Err(e.to_string()),
    }),
    ("pipeline.converted", |p| {
        p.converted("edif").map(drop).map_err(|e| e.to_string())
    }),
];

/// Pipeline stage span names, in order.
pub fn stage_names() -> impl Iterator<Item = &'static str> {
    STAGES.iter().map(|&(name, _)| name)
}

/// Untraced, `simc_obs`-on and process runs per spec; medians are kept.
const REPEATS: usize = 5;

/// Runs every stage on `text`; returns the total wall and the wall up to
/// the end of verification, in seconds.
fn timed_stages(text: &str) -> Result<(f64, f64), String> {
    let start = Instant::now();
    let mut pipeline = Pipeline::from_text(text);
    let mut verified = 0.0;
    for &(name, stage) in STAGES {
        stage(&mut pipeline)?;
        if name == "pipeline.verified" {
            verified = start.elapsed().as_secs_f64();
        }
    }
    drop(pipeline);
    Ok((start.elapsed().as_secs_f64(), verified))
}

/// Runs the in-process part over `round` (one spec per base).
pub fn run(
    tracer: &mut Tracer,
    simc: &Path,
    bases: &[Base],
    round: &[Spec],
    paths: &[PathBuf],
) -> InProcess {
    let mut out = InProcess::default();
    for (request, (spec, path)) in round.iter().zip(paths).enumerate() {
        let request = request as u64;
        let base = &bases[spec.base];
        let fail = |out: &mut InProcess, what: &str, e: String| {
            out.errors.push(format!("{}: {what}: {e}", base.name))
        };

        // Untraced and `simc_obs`-on runs alternate, and a `simc verify`
        // process follows each pair, so drift hits all three alike.
        let (mut untraced, mut obs_on, mut verify_done, mut process) =
            (vec![], vec![], vec![], vec![]);
        let mut failed = None;
        for _ in 0..REPEATS {
            obs::set_stats(false);
            match timed_stages(&spec.text) {
                Ok((total, verified)) => {
                    untraced.push(total);
                    verify_done.push(verified);
                }
                Err(e) => failed = Some(("untraced pipeline", e)),
            }
            obs::reset();
            obs::set_stats(true);
            match timed_stages(&spec.text) {
                Ok((total, _)) => obs_on.push(total),
                Err(e) => failed = Some(("traced pipeline", e)),
            }
            obs::set_stats(false);
            let run = cli::verify(simc, path, base);
            process.push(run.wall.as_secs_f64());
            if let Some(e) = run.error {
                failed = Some(("simc verify", e));
            }
        }
        if let Some((what, e)) = failed {
            fail(&mut out, what, e);
            continue;
        }
        let median = |v: &[f64]| crate::stats::median(v).expect("REPEATS > 0");

        obs::reset();
        obs::set_stats(true);
        let root = tracer.open("spec", request);
        let mut pipeline = Pipeline::from_text(spec.text.clone());
        let staged = STAGES
            .iter()
            .try_for_each(|(name, stage)| tracer.time(name, request, || stage(&mut pipeline)));
        let staged_wall = tracer.close(root);
        if let Err(e) = staged {
            obs::set_stats(false);
            fail(&mut out, "traced pipeline", e);
            continue;
        }
        let implemented = pipeline.implemented().expect("memoized");
        let stats = implemented.netlist().stats();
        out.gates +=
            (stats.and_gates + stats.or_gates + stats.latch_rails + stats.other_gates) as u64;
        out.literals += u64::from(implemented.implementation().literal_count());
        drop(pipeline);
        let report = obs::report();
        for &(counter, value) in &report.counters {
            let cell = out.counters.entry(counter.name()).or_default();
            *cell = match counter.kind() {
                Kind::Sum => *cell + value,
                Kind::Max => (*cell).max(value),
            };
        }
        for span in &report.spans {
            let cell = out.program_spans.entry(span.path.clone()).or_default();
            cell.0 += span.calls;
            cell.1 += span.seconds;
        }
        for &(program, layer) in REDUCE_SPANS {
            if let Some(span) = report.span(&format!("reduce/{program}")) {
                let cell = out.reduce_spans.entry(layer).or_default();
                cell.0 += span.calls;
                cell.1 += span.seconds;
            }
        }

        obs::reset();
        let split_root = tracer.open("split", request);
        let split = split(tracer, request, &spec.text, &mut out.canonical_bytes);
        tracer.close(split_root);
        obs::set_stats(false);
        if let Err(e) = split {
            fail(&mut out, "split", e);
            continue;
        }
        let (mut staged_walls, mut split_leaves) =
            (vec![staged_wall], vec![leaves(tracer, split_root)]);
        // Both are timed again, so one run does not decide the coverage.
        obs::set_stats(true);
        for _ in 1..REPEATS {
            match coverage_pair(&spec.text) {
                Ok((staged, split)) => {
                    staged_walls.push(staged);
                    split_leaves.push(split);
                }
                Err(e) => failed = Some(("split", e)),
            }
        }
        obs::set_stats(false);
        if let Some((what, e)) = failed.take() {
            fail(&mut out, what, e);
            continue;
        }
        let (staged_wall, leaves) = (median(&staged_walls), median(&split_leaves));
        out.coverage.push(leaves / staged_wall);
        out.unattributed += (staged_wall - leaves).max(0.0);
        out.untraced.push(median(&untraced));
        out.obs_on.push(median(&obs_on));
        // `simc verify` runs the stages up to verification, not the convert.
        out.cli_overhead
            .push(median(&process) - median(&verify_done));
    }
    out
}

/// Summed wall of the direct children of span `root`.
fn leaves(tracer: &Tracer, root: usize) -> f64 {
    tracer
        .spans()
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| s.end - s.start)
        .sum()
}

/// One more traced stage run and split of `text`, on a tracer of its own
/// that is then dropped: `(stage wall, split leaves)`.
fn coverage_pair(text: &str) -> Result<(f64, f64), String> {
    let mut spare = Tracer::new();
    obs::reset();
    let root = spare.open("spec", 0);
    let mut pipeline = Pipeline::from_text(text);
    STAGES
        .iter()
        .try_for_each(|(name, stage)| spare.time(name, 0, || stage(&mut pipeline)))?;
    let staged = spare.close(root);
    drop(pipeline);
    obs::reset();
    let root = spare.open("split", 0);
    split(&mut spare, 0, text, &mut 0)?;
    spare.close(root);
    Ok((staged, leaves(&spare, root)))
}

/// The crate calls behind the pipeline stages, in the pipeline's order,
/// each in its own span under the open split root. Besides the layer
/// calls this repeats the work the stages do around them: hashing the
/// input into cache keys (done with no cache attached too) and the copies
/// they keep of shared results.
fn split(
    tracer: &mut Tracer,
    request: u64,
    text: &str,
    canonical_bytes: &mut u64,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    // elaborated
    key(tracer, request, domains::ELABORATE, text);
    let stg = tracer
        .time("stg.parse", request, || simc_stg::parse_g(text))
        .map_err(|e| err(&e))?;
    let sg = tracer
        .time("stg.reach", request, || stg.to_state_graph())
        .map_err(|e| err(&e))?;
    let (sg, canonical) = canonicalize(tracer, request, sg)?;
    *canonical_bytes += canonical.len() as u64;
    // regioned
    key(tracer, request, domains::REGIONS, &canonical);
    let regions = tracer.time("sg.regions", request, || sg.regions());
    // covered
    key(tracer, request, domains::MC_REPORT, &canonical);
    let regions = tracer.time("pipeline.copy", request, || regions.clone());
    let report = tracer.time("mc.cover", request, || {
        ParallelSynth::new(1).report(&McCheck::from_parts(&sg, regions))
    });
    // implemented
    let (working, working_canonical, working_report) = if report.satisfied() {
        tracer.time("pipeline.copy", request, || {
            (sg.clone(), canonical.clone(), report.clone())
        })
    } else {
        key(tracer, request, domains::REDUCE, &canonical);
        let reduced = tracer
            .time("mc.reduce", request, || {
                reduce_to_mc(&sg, ReduceOptions::default())
            })
            .map_err(|e| err(&e))?;
        let (working, working_canonical) = canonicalize(tracer, request, reduced.sg)?;
        *canonical_bytes += working_canonical.len() as u64;
        key(tracer, request, domains::MC_REPORT, &working_canonical);
        let regions = tracer.time("sg.regions", request, || working.regions());
        let report = tracer.time("mc.cover", request, || {
            ParallelSynth::new(1).report(&McCheck::from_parts(&working, regions))
        });
        (working, working_canonical, report)
    };
    let netlist = tracer
        .time("mc.synth", request, || {
            implementation_from_report(&working, &working_report).to_netlist()
        })
        .map_err(|e| err(&e))?;
    // verified
    key(tracer, request, domains::VERDICT, &working_canonical);
    let verdict = tracer
        .time("netlist.verify", request, || {
            verify(&netlist, &working, VerifyOptions::default())
        })
        .map_err(|e| err(&e))?;
    if !verdict.is_ok() {
        return Err("split verdict is hazardous".to_string());
    }
    // converted
    let canonical = tracer.time("pipeline.copy", request, || canonical.clone());
    key(tracer, request, domains::CONVERT, &canonical);
    tracer
        .time("formats.emit", request, || {
            simc_formats::by_id("edif").and_then(|f| f.emit(&Artifact::Netlist(&netlist)))
        })
        .map_err(|e| err(&e))?;
    Ok(())
}

/// Hashes `bytes` into a cache key, as the stage does before its lookup.
fn key(tracer: &mut Tracer, request: u64, domain: &str, bytes: &str) {
    tracer.time("cache.key", request, || {
        simc_cache::key_of(domain, &[bytes.as_bytes()])
    });
}

/// `canonical_sg` and the `parse_sg` read-back, as the pipeline does;
/// returns the graph and the canonical text.
fn canonicalize(
    tracer: &mut Tracer,
    request: u64,
    sg: StateGraph,
) -> Result<(StateGraph, String), String> {
    let canonical = tracer.time("sg.canonical", request, || {
        let canonical = canonical_sg(&sg, CANONICAL_MODEL);
        drop(sg);
        canonical
    });
    let sg = tracer
        .time("sg.reparse", request, || parse_sg(&canonical))
        .map_err(|e| e.to_string())?;
    Ok((sg, canonical))
}

/// Pairs the up/down entries of a satisfied report into the covers the
/// implementation is built from.
fn implementation_from_report(
    sg: &StateGraph,
    report: &McReport,
) -> simc_mc::synth::Implementation {
    let covers = report
        .entries()
        .chunks(2)
        .map(|pair| {
            let set = pair[0].result.clone().expect("satisfied report");
            let reset = pair[1].result.clone().expect("satisfied report");
            (pair[0].signal, set, reset)
        })
        .collect();
    build_from_covers(sg, covers, Target::CElement)
}

/// The value of one program counter (0 when never recorded).
pub fn counter(counters: &BTreeMap<&'static str, u64>, counter: Counter) -> u64 {
    counters.get(counter.name()).copied().unwrap_or(0)
}
