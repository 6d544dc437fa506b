//! Synthesis determinism: for every thread count, `ParallelSynth` must
//! produce byte-identical reports, equations and netlists to the
//! sequential path, and the (sequential) MC-reduction must keep producing
//! the pinned reduced graphs and netlists.

use proptest::prelude::*;

use simc::benchmarks::{generators, suite};
use simc::mc::assign::{reduce_to_mc, ReduceOptions};
use simc::mc::synth::{synthesize, Target};
use simc::formats::CANONICAL_MODEL;
use simc::mc::{McCheck, ParallelSynth};
use simc::sg::{canonical_sg, StateGraph};

const THREADS: [usize; 3] = [1, 2, 8];

/// The fully rendered observable output of synthesis on one graph: the MC
/// report, and (when synthesis succeeds) the equations and netlist text.
fn observable(sg: &StateGraph, synth: Option<ParallelSynth>) -> String {
    let check = McCheck::new(sg);
    let report = match synth {
        Some(p) => p.report(&check),
        None => check.report(),
    };
    let mut out = report.render(sg);
    let implementation = match synth {
        Some(p) => p.synthesize(sg, Target::CElement),
        None => synthesize(sg, Target::CElement),
    };
    if let Ok(imp) = implementation {
        out.push_str(&imp.equations());
        out.push_str(&format!("{:?}", imp.to_netlist().map(|nl| nl.stats().to_string())));
    }
    out
}

#[test]
fn suite_benchmarks_identical_across_thread_counts() {
    for b in suite::all() {
        let sg = b.stg.to_state_graph().expect("suite benchmark reaches");
        let sequential = observable(&sg, None);
        for threads in THREADS {
            let parallel = observable(&sg, Some(ParallelSynth::new(threads)));
            assert_eq!(parallel, sequential, "{}: {threads} threads diverged", b.name);
        }
    }
}

/// Pinned MC-reduction outcomes: `(input, inserted signals, literal
/// count, key of the canonical reduced graph + equations)`. The beam
/// search is deterministic, so any drift in the graphs and netlists it
/// settles on fails here.
const PINNED_REDUCTIONS: [(&str, usize, u32, &str); 10] = [
    ("nak-pa", 1, 18, "181b6a5836d9e9800bf075ad0f9cac2c"),
    ("nowick", 1, 10, "fc04541e9d1928e6b55f23bd5a82e9fb"),
    ("duplicator", 2, 22, "145cf59173209ec4ae80705119500790"),
    ("berkel2", 2, 18, "b155121f91ff9235a8bee26b1765d8cc"),
    ("mp-forward-pkt", 0, 10, "d5823ecf92220f9a8e1f43dfb0f5fba1"),
    ("luciano", 1, 12, "8259547e518fde4d99ba8dca781cc4d3"),
    ("Delement", 1, 10, "30fe023f4c3e5a5c68ef6de984eb178a"),
    ("sequencer-1", 1, 10, "30fe023f4c3e5a5c68ef6de984eb178a"),
    ("sequencer-2", 2, 22, "145cf59173209ec4ae80705119500790"),
    ("sequencer-3", 4, 36, "0d938bad3d9aa4852093d0f12b45a449"),
];

#[test]
fn mc_reduction_matches_pinned_outputs() {
    // The suite minus its two slowest members (ganesh_8, berkel3 — they
    // dominate debug-mode test time) plus the first three sequencers.
    let mut inputs: Vec<(String, simc::stg::Stg)> = suite::all()
        .into_iter()
        .filter(|b| b.name != "ganesh_8" && b.name != "berkel3")
        .map(|b| (b.name.to_string(), b.stg))
        .collect();
    for n in 1..=3 {
        inputs.push((format!("sequencer-{n}"), generators::sequencer(n).expect("builds")));
    }
    let got: Vec<(String, usize, u32, String)> = inputs
        .iter()
        .map(|(name, stg)| {
            let sg = stg.to_state_graph().expect("reaches");
            let reduced = reduce_to_mc(&sg, ReduceOptions::default()).expect("reduces");
            let implementation =
                synthesize(&reduced.sg, Target::CElement).expect("synthesizes");
            let canonical = canonical_sg(&reduced.sg, CANONICAL_MODEL);
            let key = simc::cache::key_of(
                "determinism.pin",
                &[canonical.as_bytes(), implementation.equations().as_bytes()],
            );
            (name.clone(), reduced.added, implementation.literal_count(), key.hex())
        })
        .collect();
    let pinned: Vec<(String, usize, u32, String)> = PINNED_REDUCTIONS
        .iter()
        .map(|&(name, added, literals, key)| (name.to_string(), added, literals, key.to_string()))
        .collect();
    assert_eq!(got, pinned);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_graphs_identical_across_thread_counts(
        kind in 0usize..3,
        size in 2usize..5,
    ) {
        let stg = match kind {
            0 => generators::muller_pipeline(size),
            1 => generators::independent_toggles(size),
            _ => generators::choice_ring(size),
        }
        .unwrap();
        let sg = stg.to_state_graph().unwrap();
        let sequential = observable(&sg, None);
        for threads in THREADS {
            let parallel = observable(&sg, Some(ParallelSynth::new(threads)));
            prop_assert_eq!(&parallel, &sequential, "{} threads diverged", threads);
        }
    }
}
