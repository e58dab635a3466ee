//! `coremark`: the CoreMark capability + load-filter kernel in the
//! default chained dispatch, in timed segments of a fixed simulated-cycle
//! budget that alternate Ibex and Flute.
//!
//! Every block is built once and then hit millions of times, so
//! dispatch, the block cache and the capability checks do nearly all the
//! work; snapshots, CoW, the allocator, devices and the fabric do none.

use super::{kv, Measured, Traced};
use crate::clock::Stopwatch;
use crate::stats::median;
use crate::trace::Tracer;
use cheriot_cap::Capability;
use cheriot_core::insn::{Instr, Reg};
use cheriot_core::{layout, CoreModel, ExitReason, Machine, MachineConfig};
use cheriot_workloads::coremark::generate_program;
use cheriot_workloads::{run_coremark_for_cycles_dispatch, CoreMarkConfig, DispatchMode};

/// Simulated cycles per timed segment. A round of two takes 0.3 to
/// 0.7 s of host time: long enough to average out the host's second-scale
/// speed swings, so that the median round moves with them no more than
/// the mean does, and short enough that a run holds 40 to 99 rounds,
/// one band of the tail ladder.
pub const SEGMENT_CYCLES: u64 = 30_000_000;

/// Rounds (one segment per core) a run makes at least.
const MIN_ROUNDS: usize = 3;

/// The kernel's data region, as `cheriot-workloads` lays it out: the
/// generated code addresses it through `a0`/`gp`. A wrong copy here
/// changes the simulated counts, which the run checks against the
/// workload crate's own entry point.
const DATA_BASE: u32 = layout::SRAM_BASE + 0x1000;
const DATA_LEN: u64 = 0x6000;

/// The two cores, in the order each round runs them.
fn cores() -> [(&'static str, CoreModel); 2] {
    [("ibex", CoreModel::ibex()), ("flute", CoreModel::flute())]
}

/// The kernel: Table 3's capabilities + load-filter configuration at
/// every seed, with only the iteration count raised so that the cycle
/// budget always ends a segment. The kernel takes no input, so a seed
/// other than the default re-runs it under the checks that hold for any
/// seed.
pub fn config() -> CoreMarkConfig {
    CoreMarkConfig {
        iterations: 50_000_000,
        ..CoreMarkConfig::capabilities_with_filter()
    }
}

/// Builds a machine with the kernel loaded, as the workload crate's
/// `run_coremark_for_cycles_dispatch` does, with spans around
/// construction and load.
fn machine(
    core: CoreModel,
    cfg: &CoreMarkConfig,
    prog: &[Instr],
    tr: &mut Tracer,
    req: u64,
) -> Machine {
    let mut mc = MachineConfig::new(core);
    mc.load_filter = cfg.load_filter;
    (mc.block_cache, mc.block_chain) = DispatchMode::Chained.config_flags();
    mc.hw_revoker = false;
    mc.hwm_enabled = false;
    mc.cheri_enabled = true;
    let s = tr.enter("core.machine.new", req);
    let mut m = Machine::new(mc);
    tr.exit(s);
    let s = tr.enter("core.machine.load", req);
    let entry = m.load_program(prog);
    m.set_entry(entry);
    let region = Capability::root_mem_rw()
        .with_address(DATA_BASE)
        .set_bounds(DATA_LEN)
        .expect("the data region is representable");
    m.cpu.write(Reg::A0, region);
    m.cpu.write(Reg::GP, region);
    tr.exit(s);
    m
}

/// The simulated results of one segment.
fn counts(m: &Machine) -> [u64; 4] {
    [
        m.cycles,
        m.stats.instructions,
        m.stats.cap_loads,
        m.stats.filter_strips,
    ]
}

fn fingerprint(per_core: &[[u64; 4]; 2]) -> Vec<(String, String)> {
    let mut fp = Vec::new();
    for ((name, _), c) in cores().iter().zip(per_core) {
        fp.push(kv(format!("{name}.cycles"), c[0]));
        fp.push(kv(format!("{name}.instructions"), c[1]));
        fp.push(kv(format!("{name}.cap_loads"), c[2]));
        fp.push(kv(format!("{name}.filter_strips"), c[3]));
    }
    fp
}

pub fn measure(seconds: u64) -> Measured {
    let cfg = config();
    let mut problems = Vec::new();
    // One segment per core through the workload crate's own entry point:
    // it warms the host caches and fixes the counts every timed segment
    // must reproduce.
    let reference = cores().map(|(_, core)| {
        run_coremark_for_cycles_dispatch(core, &cfg, SEGMENT_CYCLES, DispatchMode::Chained)
    });

    let mut tr = Tracer::new(false);
    let clock = Stopwatch::start();
    let mut setup_s = Vec::new();
    let (mut total_cpu, mut total_instrs) = (0.0, 0u64);
    let mut latencies_ms = Vec::new();
    let mut round_wall = Vec::new();
    let mut first: Option<[[u64; 4]; 2]> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    while clock.wall_s() < seconds as f64 || setup_s.len() < MIN_ROUNDS {
        let sw = Stopwatch::start();
        let prog = generate_program(&cfg);
        let mut ms = cores().map(|(_, core)| machine(core, &cfg, &prog, &mut tr, 0));
        setup_s.push(sw.cpu_s());
        let (mut cpu, mut instrs) = (0.0, 0u64);
        let mut round = [[0u64; 4]; 2];
        for (i, m) in ms.iter_mut().enumerate() {
            let seg = Stopwatch::start();
            let exit = m.run(SEGMENT_CYCLES);
            cpu += seg.cpu_s();
            attempted += 1;
            round[i] = counts(m);
            instrs += round[i][1];
            let name = cores()[i].0;
            if exit != ExitReason::CycleLimit {
                failed += 1;
                problems.push(format!("{name} segment ended early: {exit:?}"));
            } else if (round[i][0], round[i][1]) != reference[i] {
                failed += 1;
                problems.push(format!(
                    "{name} segment counted (cycles, instructions) = ({}, {}), \
                     the workload crate's entry point ({}, {})",
                    round[i][0], round[i][1], reference[i].0, reference[i].1
                ));
            }
        }
        match &first {
            None => first = Some(round),
            Some(f) if *f != round => {
                problems.push(format!(
                    "segment counts changed between rounds: {f:?} vs {round:?}"
                ));
            }
            Some(_) => {}
        }
        total_cpu += cpu;
        total_instrs += instrs;
        latencies_ms.push(cpu * 1e3);
        round_wall.push(sw.wall_s());
    }
    let fp = fingerprint(&first.expect("at least one round ran"));
    let coremark_mips = total_instrs as f64 / total_cpu / 1e6;
    Measured {
        attempted,
        failed,
        unit: "segment",
        problems,
        replica: fp.clone(),
        fingerprint: fp,
        setup_s,
        throughput: coremark_mips,
        throughput_of: "million simulated instructions per host CPU-second over all rounds",
        latencies_ms,
        request: "round (one Ibex and one Flute segment, host CPU time)",
        named: vec![("coremark_mips", coremark_mips, "MIPS")],
        pass_wall_s: median(&round_wall),
    }
}

pub fn trace() -> Traced {
    let cfg = config();
    let mut tr = Tracer::new(true);
    let pass = tr.enter("pass", 0);
    let s = tr.enter("workloads.coremark.generate", 0);
    let prog = generate_program(&cfg);
    tr.exit(s);
    let mut per_core = [[0u64; 4]; 2];
    let mut bc = cheriot_core::BlockCacheStats::default();
    for (i, (_, core)) in cores().into_iter().enumerate() {
        let req = i as u64;
        let seg = tr.enter("req.segment", req);
        let mut m = machine(core, &cfg, &prog, &mut tr, req);
        let s = tr.enter("core.machine.run", req);
        m.run(SEGMENT_CYCLES);
        tr.exit(s);
        tr.exit(seg);
        per_core[i] = counts(&m);
        let b = m.block_stats();
        bc.misses += b.misses;
        bc.hits += b.hits;
        bc.chain_hits += b.chain_hits;
        bc.sentry_ic_hits += b.sentry_ic_hits;
        bc.sentry_ic_misses += b.sentry_ic_misses;
        bc.invalidated += b.invalidated;
    }
    tr.exit(pass);
    let sum = |k: usize| per_core.iter().map(|c| c[k] as f64).sum::<f64>();
    let instructions = sum(1);
    let mut values = vec![
        ("core.machine.run_calls", 2.0),
        ("core.machine.instructions", instructions),
        ("core.machine.sim_cycles", sum(0)),
        ("core.machine.cap_loads", sum(2)),
        ("core.machine.filter_strips", sum(3)),
    ];
    values.extend(blockcache_values(&bc, instructions));
    Traced {
        tracer: tr,
        values,
        replica: fingerprint(&per_core),
        base: format!("one Ibex and one Flute segment of {SEGMENT_CYCLES} cycles, from generation"),
    }
}

/// Block-cache counts and ratios, each ratio over the transitions or
/// dispatches it is a share of.
pub fn blockcache_values(
    b: &cheriot_core::BlockCacheStats,
    instructions: f64,
) -> Vec<(&'static str, f64)> {
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    vec![
        ("core.blockcache.builds", b.misses as f64),
        ("core.blockcache.hits", b.hits as f64),
        ("core.blockcache.chain_hits", b.chain_hits as f64),
        (
            "core.blockcache.chain_ratio",
            ratio(b.chain_hits, b.chain_hits + b.hits + b.misses),
        ),
        (
            "core.blockcache.sentry_ic_hit_ratio",
            ratio(b.sentry_ic_hits, b.sentry_ic_hits + b.sentry_ic_misses),
        ),
        (
            "core.blockcache.instrs_per_build",
            if b.misses == 0 {
                0.0
            } else {
                instructions / b.misses as f64
            },
        ),
        ("core.blockcache.invalidated", b.invalidated as f64),
    ]
}
