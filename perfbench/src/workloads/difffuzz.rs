//! `difffuzz`: `cheriot_diff::run_seed` over consecutive seeds on one
//! thread.
//!
//! The only workload that runs the stepwise `exec` path and the
//! non-chained block tier: each seed builds a fresh `Machine` per
//! (core, dispatch) pair, six in all, and runs the golden oracle. Its
//! programs are short and trap-heavy, so it catches a change that speeds
//! up chained dispatch by slowing the other tiers or `Machine::new`.

use super::{kv, Measured, Traced};
use crate::clock::Stopwatch;
use crate::stats::median;
use crate::trace::Tracer;
use cheriot_diff::{
    build_engine, core_models, generate, run_pair, run_seed, Coverage, DiffConfig, Golden,
    DISPATCH_MODES,
};

/// Consecutive seeds per pass.
pub const PASS_SEEDS: u64 = 64;

/// Passes a run makes at least.
const MIN_PASSES: usize = 3;

/// One seed's deterministic result.
fn seed_key(
    seed: u64,
    pairs: u64,
    instructions: u64,
    cov: &Coverage,
    diverged: bool,
) -> (String, String) {
    kv(
        format!("seed.{seed}"),
        format!(
            "{pairs}/{instructions}/{:#x}/{}",
            cov.opcodes,
            if diverged { "diverged" } else { "ok" }
        ),
    )
}

pub fn measure(seed: u64, seconds: u64) -> Measured {
    let cfg = DiffConfig::default();
    let clock = Stopwatch::start();
    let mut problems = Vec::new();
    let (mut setup_s, mut per_seed_ms) = (Vec::new(), Vec::new());
    let (mut pass_cpu, mut pass_wall) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<(String, String)>> = None;
    let (mut pairs, mut instructions, mut divergences) = (0u64, 0u64, 0u64);
    let mut coverage = Coverage::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while clock.wall_s() < seconds as f64 || pass_cpu.len() < MIN_PASSES {
        // Set-up, timed on its own before each pass: generating the
        // pass's programs. One program takes about a microsecond, too
        // short to time alone, and its size depends on its seed; a
        // pass's worth is a figure that runs at different seeds can
        // compare.
        let sw = Stopwatch::start();
        for sd in seed..seed + PASS_SEEDS {
            std::hint::black_box(generate(sd, &cfg.profile));
        }
        setup_s.push(sw.cpu_s());

        let psw = Stopwatch::start();
        let mut keys = Vec::new();
        for sd in seed..seed + PASS_SEEDS {
            let sw = Stopwatch::start();
            let r = run_seed(sd, &cfg, None);
            per_seed_ms.push(sw.cpu_s() * 1e3);
            attempted += r.pairs;
            failed += u64::from(r.divergence.is_some());
            if first.is_none() {
                pairs += r.pairs;
                instructions += r.instructions;
                divergences += u64::from(r.divergence.is_some());
                coverage.merge(&r.coverage);
            }
            if let Some(d) = &r.divergence {
                problems.push(format!(
                    "seed {sd} diverged on {} {} at {}",
                    d.core, d.dispatch, d.checkpoint
                ));
            }
            keys.push(seed_key(
                sd,
                r.pairs,
                r.instructions,
                &r.coverage,
                r.divergence.is_some(),
            ));
        }
        pass_cpu.push(psw.cpu_s());
        pass_wall.push(psw.wall_s());
        match &first {
            None => first = Some(keys),
            Some(f) if *f != keys => {
                problems.push("a repeated pass gave different per-seed results".into())
            }
            Some(_) => {}
        }
    }
    let seeds_per_s = (pass_cpu.len() as f64 * PASS_SEEDS as f64) / pass_cpu.iter().sum::<f64>();
    let replica = first.expect("at least one pass ran");
    Measured {
        attempted,
        failed,
        unit: "pair",
        problems,
        fingerprint: vec![
            kv("pairs", pairs),
            kv("golden_instructions", instructions),
            kv("opcodes_covered", coverage.opcode_count()),
            kv("divergences", divergences),
        ],
        replica,
        setup_s,
        throughput: seeds_per_s,
        throughput_of: "seeds per host CPU-second over all passes",
        latencies_ms: per_seed_ms.clone(),
        request: "run_seed call (host CPU time)",
        named: vec![
            ("fuzz_seeds_per_s", seeds_per_s, "1/s"),
            ("fuzz_seed_p50_ms", median(&per_seed_ms), "ms"),
        ],
        pass_wall_s: median(&pass_wall),
    }
}

pub fn trace(seed: u64) -> Traced {
    let cfg = DiffConfig::default();
    let mut tr = Tracer::new(true);
    let mut replica = Vec::new();
    let (mut pairs, mut golden_instructions) = (0u64, 0u64);
    let pass = tr.enter("pass", 0);
    for sd in seed..seed + PASS_SEEDS {
        let r = tr.enter("req.seed", sd);
        let s = tr.enter("diff.generate", sd);
        let prog = generate(sd, &cfg.profile);
        tr.exit(s);
        let (mut seed_pairs, mut seed_instr, mut diverged) = (0u64, 0u64, false);
        let mut cov = Coverage::default();
        for (core_name, core) in core_models() {
            let s = tr.enter("diff.golden_dry", sd);
            let mut dry = Golden::new(core, &prog.instrs());
            dry.run(cfg.budget_cycles, None);
            tr.exit(s);
            seed_instr += dry.stats.instructions;
            cov.merge(&dry.coverage);
            let fork_at = (dry.cycles >= 4).then_some(dry.cycles / 2);
            for (dispatch_name, dispatch) in DISPATCH_MODES {
                seed_pairs += 1;
                let name = match dispatch_name {
                    "stepwise" => "diff.pair_stepwise",
                    "cached" => "diff.pair_blocks",
                    _ => "diff.pair_chained",
                };
                let s = tr.enter(name, sd);
                let ok = run_pair(
                    &prog,
                    core,
                    core_name,
                    dispatch_name,
                    dispatch,
                    cfg.budget_cycles,
                    fork_at,
                    None,
                )
                .is_ok();
                tr.exit(s);
                diverged |= !ok;
            }
        }
        tr.exit(r);
        pairs += seed_pairs;
        golden_instructions += seed_instr;
        replica.push(seed_key(sd, seed_pairs, seed_instr, &cov, diverged));
    }
    tr.exit(pass);

    // `run_pair` builds its engine machines internally, out of reach of a
    // span; time the same constructions on their own, outside the pass.
    let probe = tr.enter("req.probe", 0);
    for sd in seed..seed + PASS_SEEDS {
        let instrs = generate(sd, &cfg.profile).instrs();
        for (_, core) in core_models() {
            for (_, dispatch) in DISPATCH_MODES {
                let s = tr.enter("core.machine.new", sd);
                std::hint::black_box(build_engine(&instrs, core, dispatch, None));
                tr.exit(s);
            }
        }
    }
    tr.exit(probe);
    Traced {
        tracer: tr,
        values: vec![
            ("diff.pairs", pairs as f64),
            ("diff.golden_instructions", golden_instructions as f64),
        ],
        replica,
        base: format!("{PASS_SEEDS} seeds from {seed} ({pairs} pairs); core.machine.new from a separate probe of the same {pairs} engine builds"),
    }
}
