//! Interchange-format acceptance: the EDIF writer and reader are
//! inverses on every netlist the synthesizer produces (judged on the
//! canonical netlist form), malformed EDIF fails with typed line-carrying
//! errors, and conversions land in the shared artifact cache.

use simc::formats::{canonical_netlist, read_edif, write_edif, EdifError};
use simc::prelude::*;

/// One round trip: emit, parse back, compare canonical forms, and check
/// re-emission is byte-stable (after one parse the port order *is* the
/// net order, so emit ∘ parse must be the identity on emitted files).
fn assert_round_trips(netlist: &Netlist, label: &str) {
    let edif = write_edif(netlist).unwrap_or_else(|e| panic!("{label}: emit failed: {e}"));
    let back = read_edif(&edif).unwrap_or_else(|e| panic!("{label}: reparse failed: {e}"));
    assert_eq!(
        canonical_netlist(&back),
        canonical_netlist(netlist),
        "{label}: canonical netlist changed across the EDIF round trip"
    );
    let again = write_edif(&back).unwrap_or_else(|e| panic!("{label}: re-emit failed: {e}"));
    assert_eq!(again, edif, "{label}: EDIF emission is not idempotent");
}

#[test]
fn edif_round_trips_every_suite_benchmark() {
    for benchmark in simc::benchmarks::suite::all() {
        let sg = benchmark.stg.to_state_graph().expect("suite benchmark reaches");
        let mut pipeline = Pipeline::from_sg(sg);
        let implemented = pipeline
            .implemented()
            .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", benchmark.name));
        assert_round_trips(implemented.netlist(), benchmark.name);
    }
}

#[test]
fn edif_round_trips_rs_latch_and_complex_styles() {
    // RS2 cells (set/reset polarities in INVMASK) and CPLX cells (SOP +
    // FEEDBACK properties) exercise the property-carrying encodings the
    // C-element suite pass does not.
    let sg = simc::benchmarks::figures::figure4();
    let mut rs = Pipeline::from_sg(sg.clone()).with_target(Target::RsLatch);
    assert_round_trips(rs.implemented().expect("RS synthesis").netlist(), "figure4 --rs");

    let reduced = Pipeline::from_sg(sg).implemented().expect("reduction").working_sg().clone();
    let complex = simc::mc::complex::synthesize_complex(&reduced).expect("complex synthesis");
    assert_round_trips(&complex, "figure4 --complex");
}

#[test]
fn edif_round_trips_two_hundred_fuzzed_netlists() {
    use simc::fuzz::{random_recipe, GenConfig, Rng};
    // Fixed seed: the acceptance run is deterministic. Tight reduction
    // budgets keep adversarial cases bounded; budget refusals are skips,
    // not failures, and do not count towards the 200.
    let mut rng = Rng::new(0x51C0_DAC1_994E_D1F0);
    let reduce = ReduceOptions {
        max_signals: 4,
        max_candidates: 12,
        beam_width: 6,
        branch: 4,
    };
    let mut checked = 0u32;
    for case in 0..600 {
        if checked == 200 {
            break;
        }
        let cfg = GenConfig { csc_injection: case % 2 == 1, ..GenConfig::default() };
        let recipe = random_recipe(&mut rng, cfg);
        let Ok(sg) = simc::fuzz::gen::to_state_graph(&recipe) else { continue };
        let mut pipeline = Pipeline::from_sg(sg).with_reduce_options(reduce);
        match pipeline.implemented() {
            Ok(implemented) => {
                assert_round_trips(implemented.netlist(), &format!("fuzz case {case}"));
                checked += 1;
            }
            Err(e) if e.kind() == ErrorKind::ResourceLimit => continue,
            Err(e) => panic!("fuzz case {case}: synthesis failed: {e}"),
        }
    }
    assert_eq!(checked, 200, "generator did not yield 200 synthesizable cases");
}

/// A valid emitted deck to corrupt, plus its line count.
fn reference_edif() -> String {
    let sg = simc::benchmarks::figures::toggle();
    let mut pipeline = Pipeline::from_sg(sg);
    write_edif(pipeline.implemented().expect("toggle synthesizes").netlist())
        .expect("toggle emits")
}

#[test]
fn malformed_edif_fails_with_typed_line_errors() {
    // Syntax-level defects: the s-expression layer reports them with the
    // line the tokenizer was on.
    let syntax_cases: &[(&str, &str)] = &[
        ("(edif simc\n(edifVersion 2 0 0", "unbalanced"),
        ("(edif simc)\n(trailing)", "trailing"),
        ("(edif \"unterminated\n)", "unterminated string"),
        ("", "empty"),
    ];
    for (text, label) in syntax_cases {
        match read_edif(text) {
            Err(EdifError::Syntax { .. }) => {}
            other => panic!("{label}: expected a syntax error, got {other:?}"),
        }
    }

    // Model-level defects: well-formed s-expressions that do not describe
    // a netlist. Each error must carry the line of the offending node and
    // render it (`at line N`) for the CLI/HTTP diagnostics.
    let reference = reference_edif();
    let model_cases: &[(String, &str)] = &[
        (reference.replace("(cellRef top ", "(cellRef missing "), "dangling design cellRef"),
        (reference.replace("(cellRef C2 ", "(cellRef XYZZY "), "unknown cell reference"),
        (reference.replace("(portRef q ", "(portRef zz "), "unknown port reference"),
        (reference.replace("(design top ", "(designx top "), "missing design"),
    ];
    for (text, label) in model_cases {
        let error = match read_edif(text) {
            Err(e @ EdifError::Model { .. }) => e,
            other => panic!("{label}: expected a model error, got {other:?}"),
        };
        let rendered = error.to_string();
        assert!(
            rendered.contains(&format!("at line {}", error.line())),
            "{label}: error does not render its line: {rendered}"
        );
    }
}

#[test]
fn conversions_are_served_from_the_shared_cache() {
    use std::sync::Arc;
    let cache: Arc<dyn Cache> = Arc::new(MemCache::new(8 << 20));
    let sg = simc::benchmarks::figures::toggle();
    let convert = |cache: &Arc<dyn Cache>| {
        let mut pipeline =
            Pipeline::from_sg(sg.clone()).with_cache(Arc::clone(cache));
        pipeline.converted("edif").expect("conversion succeeds")
    };
    simc::obs::set_counters(true);
    let cold = convert(&cache);
    // The warm conversion must be answered entirely by the cache: same
    // bytes, and the emit counter does not move.
    let before = simc::obs::report().counter(simc::obs::Counter::ConvertEmits);
    let warm = convert(&cache);
    let after = simc::obs::report().counter(simc::obs::Counter::ConvertEmits);
    assert_eq!(cold, warm, "cached conversion differs from cold");
    assert_eq!(after, before, "warm conversion re-emitted instead of hitting the cache");
}
