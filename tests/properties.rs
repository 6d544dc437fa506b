//! Property-based tests over the workspace invariants, driven by the
//! synthetic workload generators.

use std::sync::Mutex;

use proptest::prelude::*;

use simc::benchmarks::generators;
use simc::fuzz::{self, GenConfig, Recipe, Shape};
use simc::mc::synth::{synthesize, Target};
use simc::mc::McCheck;
use simc::netlist::{verify, VerifyOptions};
use simc::obs::{self, Counter};
use simc::sg::{StateGraph, Transition};

/// Serializes the observability property test against itself; the other
/// tests in this binary still run concurrently and may bump global
/// counters, so its assertions are delta-based and pollution-tolerant.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn pipeline_sg(n: usize) -> StateGraph {
    generators::muller_pipeline(n)
        .expect("generator builds")
        .to_state_graph()
        .expect("pipeline reaches")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Region decomposition partitions excitation: every state is in
    /// exactly one ER of each signal it excites, none otherwise.
    #[test]
    fn regions_partition_excitation(n in 1usize..5, k in 1usize..4) {
        let sg = if n % 2 == 0 {
            generators::independent_toggles(k).unwrap().to_state_graph().unwrap()
        } else {
            pipeline_sg(n)
        };
        let regions = sg.regions();
        for s in sg.state_ids() {
            for sig in sg.signal_ids() {
                let containing = regions
                    .ers()
                    .filter(|(_, er)| er.signal() == sig && er.contains(s))
                    .count();
                prop_assert_eq!(containing, usize::from(sg.is_excited(s, sig)));
            }
        }
    }

    /// The paper's value sets partition the state space per signal.
    #[test]
    fn value_sets_partition(n in 1usize..5) {
        let sg = pipeline_sg(n);
        let regions = sg.regions();
        for sig in sg.signal_ids() {
            let total = regions.zero_set(&sg, sig).len()
                + regions.zero_star_set(&sg, sig).len()
                + regions.one_set(&sg, sig).len()
                + regions.one_star_set(&sg, sig).len();
            prop_assert_eq!(total, sg.state_count());
        }
    }

    /// Theorem 4 / Corollary 1: wherever the MC requirement holds, CSC
    /// and persistency hold.
    #[test]
    fn mc_implies_csc_and_persistency(n in 1usize..5, k in 1usize..4) {
        for sg in [
            pipeline_sg(n),
            generators::independent_toggles(k).unwrap().to_state_graph().unwrap(),
            generators::choice_ring(k).unwrap().to_state_graph().unwrap(),
        ] {
            let check = McCheck::new(&sg);
            if check.report().satisfied() {
                prop_assert!(sg.analysis().has_csc());
                prop_assert!(check.regions().is_output_persistent(&sg));
            }
        }
    }

    /// Theorem 3 end to end: MC-satisfying specs synthesize to verified
    /// hazard-free circuits in both implementation styles.
    #[test]
    fn theorem3_on_generated_specs(n in 1usize..4, k in 1usize..3) {
        for sg in [
            pipeline_sg(n),
            generators::independent_toggles(k).unwrap().to_state_graph().unwrap(),
        ] {
            let check = McCheck::new(&sg);
            prop_assume!(check.report().satisfied());
            for target in [Target::CElement, Target::RsLatch] {
                let implementation = synthesize(&sg, target).unwrap();
                let netlist = implementation.to_netlist().unwrap();
                let verdict = verify(&netlist, &sg, VerifyOptions::default()).unwrap();
                prop_assert!(verdict.is_ok(), "{:?}", verdict.violations);
            }
        }
    }

    /// MC cover cubes really are monotonous covers (self-check of the SAT
    /// search against the definitional checker).
    #[test]
    fn mc_cubes_satisfy_definition(n in 1usize..5) {
        let sg = pipeline_sg(n);
        let check = McCheck::new(&sg);
        for (er, region) in check.regions().ers() {
            if !sg.signal(region.signal()).kind().is_non_input() {
                continue;
            }
            if let Ok(cube) = check.mc_cube(er) {
                prop_assert!(check.is_monotonous_cover(er, cube));
                prop_assert!(check.is_correct_cover(er, cube));
            }
        }
    }

    /// Lemma 3 cubes cover their regions and only shrink under literal
    /// addition: the maximal cube is contained in every candidate's span.
    #[test]
    fn lemma3_cube_covers_region(n in 1usize..5) {
        let sg = pipeline_sg(n);
        let check = McCheck::new(&sg);
        for (er, region) in check.regions().ers() {
            let cube = check.lemma3_cube(er);
            for &s in region.states() {
                prop_assert!(check.covers_state(cube, s));
            }
        }
    }

    /// Starred-code round trip: rendering every state and rebuilding
    /// reproduces the graph exactly (state/edge counts and codes).
    #[test]
    fn starred_code_round_trip(n in 1usize..5) {
        let sg = pipeline_sg(n);
        let signals: Vec<(String, simc::sg::SignalKind)> = sg
            .signal_ids()
            .map(|s| (sg.signal(s).name().to_string(), sg.signal(s).kind()))
            .collect();
        let signal_refs: Vec<(&str, simc::sg::SignalKind)> =
            signals.iter().map(|(n, k)| (n.as_str(), *k)).collect();
        let codes: Vec<String> = sg.state_ids().map(|s| sg.starred_code(s)).collect();
        let code_refs: Vec<&str> = codes.iter().map(String::as_str).collect();
        let rebuilt = StateGraph::from_starred_codes(
            &signal_refs,
            &code_refs,
            &sg.starred_code(sg.initial()),
        )
        .unwrap();
        prop_assert_eq!(rebuilt.state_count(), sg.state_count());
        prop_assert_eq!(rebuilt.edge_count(), sg.edge_count());
    }

    /// Observability invariants: child span time never exceeds its
    /// parent's, Sum counters are monotone under additional work, and the
    /// SAT conflict counter tracks `Solver::conflict_count` exactly when
    /// no concurrent test is also solving.
    #[test]
    fn observability_invariants(n in 1usize..4, pigeons in 3u32..6) {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        obs::set_stats(true);

        // -- Span nesting: the children of a span account for at most its
        // own wall-clock time. The names are unique to this test, so
        // concurrent tests cannot contribute to these paths.
        {
            let parent = obs::span("prop_parent");
            for _ in 0..2 {
                let child = obs::span("prop_child");
                let sg = pipeline_sg(n);
                let _ = sg.regions();
                child.finish();
            }
            parent.finish();
        }
        let report = obs::report();
        let parent = report.span("prop_parent").expect("parent span recorded");
        let child_sum: f64 =
            report.children("prop_parent").iter().map(|s| s.seconds).sum();
        // Tiny float grace: child times are measured independently.
        prop_assert!(
            child_sum <= parent.seconds + 1e-6,
            "children sum {child_sum}s exceeds parent {}s",
            parent.seconds
        );
        prop_assert!(parent.calls >= 1);

        // -- Monotonicity: doing more work never decreases a Sum counter.
        let before: Vec<u64> =
            Counter::ALL.iter().map(|&c| obs::value(c)).collect();
        let sg = pipeline_sg(n);
        let check = McCheck::new(&sg);
        let _ = check.report();
        for (&c, &b) in Counter::ALL.iter().zip(&before) {
            if c.kind() == obs::Kind::Sum {
                prop_assert!(obs::value(c) >= b, "{} decreased", c.name());
            }
        }
        prop_assert!(
            obs::value(Counter::CoverCubesChecked)
                > before[Counter::ALL.iter().position(|&c| c == Counter::CoverCubesChecked).unwrap()],
            "MC check recorded no cover cubes"
        );

        // -- SAT cross-check on an unsatisfiable pigeonhole instance.
        let solves_before = obs::value(Counter::SatSolves);
        let conflicts_before = obs::value(Counter::SatConflicts);
        let holes = pigeons - 1;
        let mut solver = simc::sat::Solver::new();
        let vars: Vec<Vec<simc::sat::Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| solver.new_var()).collect())
            .collect();
        for p in &vars {
            solver.add_clause(p.iter().map(|&v| simc::sat::Lit::pos(v)));
        }
        for (i, p1) in vars.iter().enumerate() {
            for p2 in vars.iter().skip(i + 1) {
                for (&v1, &v2) in p1.iter().zip(p2) {
                    solver.add_clause([
                        simc::sat::Lit::neg(v1),
                        simc::sat::Lit::neg(v2),
                    ]);
                }
            }
        }
        prop_assert!(!solver.solve().is_sat());
        let own_conflicts = solver.conflict_count();
        let solve_delta = obs::value(Counter::SatSolves) - solves_before;
        let conflict_delta = obs::value(Counter::SatConflicts) - conflicts_before;
        obs::set_stats(false);
        prop_assert!(own_conflicts > 0, "pigeonhole must conflict");
        if solve_delta == 1 {
            // No concurrent solver ran: the counter must agree exactly.
            prop_assert_eq!(conflict_delta, own_conflicts);
        } else {
            prop_assert!(conflict_delta >= own_conflicts);
        }
    }

    /// Delta-debugging shrinker invariants: the result of shrinking still
    /// satisfies the failing predicate, is never larger than the
    /// original, is 1-minimal, and still builds a valid state graph.
    #[test]
    fn shrinker_preserves_failure_and_minimality(
        seed in any::<u64>(),
        signals in 1usize..6,
        concurrency in 0u64..101,
        predicate in 0usize..3,
    ) {
        let mut rng = fuzz::Rng::new(seed);
        let cfg = GenConfig { signals, concurrency, csc_injection: predicate == 0 };
        let recipe = fuzz::random_recipe(&mut rng, cfg);

        fn has_double(s: &Shape) -> bool {
            match s {
                Shape::Leaf { double, .. } => *double,
                Shape::Seq(c) | Shape::Par(c) => c.iter().any(has_double),
            }
        }
        fn has_par(s: &Shape) -> bool {
            match s {
                Shape::Leaf { .. } => false,
                Shape::Par(_) => true,
                Shape::Seq(c) => c.iter().any(has_par),
            }
        }
        // Structural stand-ins for "fails some oracle": each depends on a
        // feature shrinking tries hard to remove.
        let fails = |r: &Recipe| match predicate {
            0 => has_double(&r.shape),
            1 => has_par(&r.shape),
            _ => r.leaf_count() >= 2,
        };
        prop_assume!(fails(&recipe));

        let (shrunk, steps) = fuzz::shrink(&recipe, fails);
        prop_assert!(fails(&shrunk), "shrunk recipe no longer fails: {shrunk:?}");
        prop_assert!(shrunk.size() <= recipe.size());
        prop_assert!(steps == 0 || shrunk.size() < recipe.size());
        // 1-minimal: no single further transform still fails.
        for variant in fuzz::one_step_shrinks(&shrunk) {
            prop_assert!(!fails(&variant), "not 1-minimal: {variant:?}");
        }
        // The repro still builds and stays well-formed.
        let sg = fuzz::gen::to_state_graph(&shrunk).expect("shrunken recipe builds");
        prop_assert!(sg.analysis().is_semimodular());
    }

    /// Campaign mutators preserve the generator invariants — every
    /// mutant is a live, 1-safe, buildable recipe — and the shrinker
    /// stays strictly size-decreasing on *mutated* inputs, not just
    /// fresh ones (mutants reach shapes, e.g. >2-child nodes after
    /// splices, that fresh generation never produces).
    #[test]
    fn mutants_stay_well_formed_and_shrinkable(
        seed in any::<u64>(),
        base_signals in 1usize..5,
        donor_signals in 1usize..6,
        strategy in 0usize..4,
    ) {
        let base = fuzz::random_recipe(
            &mut fuzz::Rng::new(seed),
            GenConfig { signals: base_signals, concurrency: 50, csc_injection: seed.is_multiple_of(3) },
        );
        let donor = fuzz::random_recipe(
            &mut fuzz::Rng::new(seed ^ 0xD0_0D),
            GenConfig { signals: donor_signals, concurrency: 70, csc_injection: seed.is_multiple_of(2) },
        );
        let strategy = [
            fuzz::Mutation::Splice,
            fuzz::Mutation::Resize,
            fuzz::Mutation::LeafInject,
            fuzz::Mutation::PhaseFlip,
        ][strategy];
        let mut rng = fuzz::Rng::new(seed ^ 0xCAFE);
        let mutant = fuzz::mutate::apply(&mut rng, strategy, &base, &donor);

        // Live and 1-safe by construction: the STG builds and its state
        // graph is semimodular.
        prop_assert!(mutant.kinds.len() <= fuzz::MAX_MUTANT_SIGNALS);
        let sg = fuzz::gen::to_state_graph(&mutant)
            .expect("mutant recipe must build a valid STG");
        prop_assert!(sg.analysis().is_semimodular(), "{strategy:?} mutant lost semimodularity");

        // Strict decrease on the mutated input: every one-step shrink of
        // the mutant is strictly smaller, so delta-debugging terminates.
        for variant in fuzz::one_step_shrinks(&mutant) {
            prop_assert!(
                variant.size() < mutant.size(),
                "{strategy:?}: shrink variant {variant:?} not smaller than {mutant:?}"
            );
        }
        // And a full shrink run bottoms out at a 1-minimal recipe.
        let (shrunk, steps) = fuzz::shrink(&mutant, |r| r.leaf_count() >= 1);
        prop_assert!(steps == 0 || shrunk.size() < mutant.size());
        prop_assert!(fuzz::one_step_shrinks(&shrunk).is_empty());
    }

    /// Firing any enabled transition toggles exactly that signal's bit.
    #[test]
    fn firing_is_single_bit(n in 1usize..5) {
        let sg = pipeline_sg(n);
        for s in sg.state_ids() {
            for &(t, next) in sg.succs(s) {
                let diff = sg.code(s).bits() ^ sg.code(next).bits();
                prop_assert_eq!(diff, 1 << t.signal.index());
                prop_assert_eq!(sg.fire(s, t), Some(next));
                let reverse = Transition { signal: t.signal, dir: t.dir.opposite() };
                prop_assert_eq!(sg.fire(s, reverse), None);
            }
        }
    }
}

/// Partial-order reduction soundness: the stubborn-set reduced verifier
/// returns the same verdict and the same violation list as full
/// exploration, on every suite benchmark and on 200 fixed-seed
/// fuzz-generated specs. Reduction may only change *how many* composed
/// states are visited, never what is reported.
#[test]
fn reduced_verification_matches_full_exploration() {
    use simc::mc::assign::{reduce_to_mc, ReduceOptions};

    fn check_both(name: &str, sg: &StateGraph) {
        let Ok(implementation) = synthesize(sg, Target::CElement) else { return };
        let Ok(netlist) = implementation.to_netlist() else { return };
        let opts = VerifyOptions { max_states: 1 << 18, ..VerifyOptions::default() };
        let reduced = verify(&netlist, sg, VerifyOptions { reduction: true, ..opts });
        let full = verify(&netlist, sg, VerifyOptions { reduction: false, ..opts });
        match (reduced, full) {
            (Ok(r), Ok(f)) => {
                assert_eq!(r.is_ok(), f.is_ok(), "{name}: verdicts disagree");
                assert_eq!(
                    format!("{:?}", r.violations),
                    format!("{:?}", f.violations),
                    "{name}: violation lists disagree"
                );
                assert!(
                    r.explored <= f.explored,
                    "{name}: reduction explored more ({} > {})",
                    r.explored,
                    f.explored
                );
            }
            // Budget blow-ups must at least agree in kind.
            (r, f) => assert_eq!(r.is_err(), f.is_err(), "{name}: error-ness disagrees"),
        }
    }

    for b in simc::benchmarks::suite::all() {
        let sg = b.stg.to_state_graph().expect("suite benchmark reaches");
        let reduced = reduce_to_mc(&sg, ReduceOptions::default())
            .expect("suite benchmark reduces");
        check_both(b.name, &reduced.sg);
    }

    let mut rng = fuzz::Rng::new(0x50EED_DAC94);
    let budget = ReduceOptions {
        max_signals: 4,
        max_candidates: 12,
        beam_width: 6,
        branch: 4,
    };
    let mut checked = 0;
    let mut case = 0;
    while checked < 200 {
        case += 1;
        let cfg = GenConfig {
            signals: 1 + case % 5,
            concurrency: (case as u64 * 37) % 101,
            csc_injection: case % 3 == 0,
        };
        let recipe = fuzz::random_recipe(&mut rng, cfg);
        let Ok(sg) = fuzz::gen::to_state_graph(&recipe) else { continue };
        let working = if McCheck::new(&sg).report().satisfied() {
            sg
        } else {
            match reduce_to_mc(&sg, budget) {
                Ok(reduced) => reduced.sg,
                Err(_) => continue,
            }
        };
        check_both(&format!("fuzz case {case}"), &working);
        checked += 1;
    }
}

/// Fixed-seed fuzz regression: the reference campaign stays clean and
/// its outcome is byte-identical across thread counts — pinning both the
/// oracle results and the determinism of the parallel synthesis path.
#[test]
fn fuzz_regression_fixed_seed_across_threads() {
    let mut summaries = Vec::new();
    for threads in [1, 2, 8] {
        let report = fuzz::run(fuzz::FuzzConfig {
            seed: 0xDAC94,
            iters: 40,
            threads,
            ..fuzz::FuzzConfig::default()
        });
        assert!(report.is_ok(), "threads={threads}: {}", report.summary());
        assert!(report.faults_injected > 0, "threads={threads}: no faults exercised");
        summaries.push(report.summary());
    }
    assert_eq!(summaries[0], summaries[1]);
    assert_eq!(summaries[1], summaries[2]);
}
