//! `campaign`: `cheriot_fault::run_campaigns` with the snapshot engine on
//! one worker, over a batch of consecutive seeds.
//!
//! Each seed is short straight-line malloc/free churn, so blocks are
//! built and run about once: the work is snapshot restore and capture,
//! the CoW write barrier, the allocator and the invariant checks. It is
//! the opposite use of the block cache from `coremark` and the
//! write-heavy use of the memory layer.

use super::{kv, Measured, Traced};
use crate::clock::Stopwatch;
use crate::stats::median;
use crate::trace::{ledger, Tracer};
use cheriot_alloc::{AllocStats, HeapAllocator, RevokerKind, TemporalPolicy};
use cheriot_cap::Capability;
use cheriot_core::insn::Reg;
use cheriot_core::layout::{CODE_BASE, SRAM_BASE};
use cheriot_core::{CoreModel, ExitReason, Machine, MachineConfig, Snapshot};
use cheriot_fault::campaign::{build_workload, CampaignConfig, CampaignReport, Outcome};
use cheriot_fault::{FaultPlan, Injector, InvariantChecker, InvariantViolation, PlanConfig};
use cheriot_rtos::run_with_heap_service;

/// Consecutive seeds per `run_campaigns` call. A batch takes 0.3 to
/// 0.6 s of host time, for the same reasons as a CoreMark round.
pub const BATCH: u32 = 2048;

/// Batches a run makes at least.
const MIN_BATCHES: usize = 3;

/// The guest's capability directory (offset from SRAM start, slots), as
/// `cheriot-fault` lays it out. A wrong copy changes the replica's
/// results, which the traced pass checks against `run_campaigns`.
const DIR_OFFSET: u32 = 0x100;
const DIR_SLOTS: u32 = 24;

pub fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed_base: seed,
        count: BATCH,
        threads: 1,
        ..CampaignConfig::default()
    }
}

/// One seed's deterministic result.
fn seed_key(seed: u64, outcome: Outcome, cycles: u64, faults: u32) -> (String, String) {
    kv(
        format!("seed.{seed}"),
        format!("{outcome}/{cycles}/{faults}"),
    )
}

fn fingerprint(rep: &CampaignReport) -> Vec<(String, String)> {
    let mut fp: Vec<(String, String)> = Outcome::ALL
        .iter()
        .map(|&o| kv(format!("outcome.{o}"), rep.count(o)))
        .collect();
    fp.push(kv(
        "faulted_cycles",
        rep.results.iter().map(|r| r.cycles).sum::<u64>(),
    ));
    fp.push(kv(
        "faults_applied",
        rep.results
            .iter()
            .map(|r| u64::from(r.faults_applied))
            .sum::<u64>(),
    ));
    fp.push(kv("restores", rep.snapshot_restores));
    fp.push(kv("restore_bytes", rep.snapshot_bytes_copied));
    fp
}

fn replica_of(rep: &CampaignReport) -> Vec<(String, String)> {
    let mut r: Vec<(String, String)> = rep
        .results
        .iter()
        .map(|s| seed_key(s.seed, s.outcome, s.cycles, s.faults_applied))
        .collect();
    r.push(kv("restores", rep.snapshot_restores));
    r.push(kv("restore_bytes", rep.snapshot_bytes_copied));
    r
}

pub fn measure(seed: u64, seconds: u64) -> Measured {
    let cfg = config(seed);
    let mut problems = Vec::new();
    let mut off = Tracer::new(false);
    let clock = Stopwatch::start();
    let mut first: Option<CampaignReport> = None;
    let (mut setup_s, mut cpu, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    while clock.wall_s() < seconds as f64 || cpu.len() < MIN_BATCHES {
        // Set-up, timed on its own before each batch: the control run
        // (`run_campaigns` over zero seeds does only that) and the
        // snapshot worker's boot.
        let sw = Stopwatch::start();
        let control = cheriot_fault::run_campaigns(&CampaignConfig {
            count: 0,
            ..cfg.clone()
        });
        let worker = boot(&mut off);
        setup_s.push(sw.cpu_s());
        drop(worker);
        if !control.control_violations.is_empty() {
            problems.push(format!(
                "control run violations: {:?}",
                control.control_violations
            ));
        }

        let sw = Stopwatch::start();
        let rep = cheriot_fault::run_campaigns(&cfg);
        cpu.push(sw.cpu_s());
        wall.push(sw.wall_s());
        attempted += rep.results.len() as u64;
        failed += u64::from(rep.count(Outcome::Panicked) + rep.count(Outcome::SimError))
            + rep.control_violations.len() as u64;
        match &first {
            None => {
                if rep.failed() {
                    problems.push(format!(
                        "campaign failed: {} panicked, {} silent divergences, {} control violations",
                        rep.count(Outcome::Panicked),
                        rep.count(Outcome::SilentDivergence),
                        rep.control_violations.len()
                    ));
                }
                first = Some(rep);
            }
            Some(f) => {
                if replica_of(f) != replica_of(&rep) {
                    problems.push("a repeated batch gave different per-seed results".into());
                }
            }
        }
    }
    let first = first.expect("at least one batch ran");
    let seeds_per_s = (cpu.len() as f64 * f64::from(BATCH)) / cpu.iter().sum::<f64>();
    Measured {
        attempted,
        failed,
        unit: "seed",
        problems,
        fingerprint: fingerprint(&first),
        replica: replica_of(&first),
        setup_s,
        throughput: seeds_per_s,
        throughput_of: "seeds per host CPU-second over all batches",
        latencies_ms: cpu.iter().map(|s| s * 1e3).collect(),
        request: "run_campaigns call over the batch (host CPU time)",
        named: vec![("campaign_seeds_per_s", seeds_per_s, "1/s")],
        pass_wall_s: median(&wall),
    }
}

/// The snapshot worker: one reusable machine, the boot state every seed
/// restarts from, and the post-load fork point.
struct Worker {
    m: Machine,
    boot_heap: HeapAllocator,
    boot_snap: Snapshot,
    seed_snap: Snapshot,
    dir_lo: u32,
    dir_len: u32,
}

fn directory() -> (u32, u32, Capability) {
    let dir_lo = SRAM_BASE + DIR_OFFSET;
    let dir_len = DIR_SLOTS * 8;
    let cap = Capability::root_mem_rw()
        .with_address(dir_lo)
        .set_bounds(u64::from(dir_len))
        .expect("the directory capability is representable");
    (dir_lo, dir_len, cap)
}

fn boot(tr: &mut Tracer) -> Worker {
    let s = tr.enter("core.machine.new", 0);
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    tr.exit(s);
    let s = tr.enter("alloc.heap.new", 0);
    let boot_heap = HeapAllocator::new(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    tr.exit(s);
    let (dir_lo, dir_len, cap) = directory();
    m.cpu.write(Reg::GP, cap);
    let s = tr.enter("core.snapshot.capture", 0);
    let boot_snap = m.snapshot();
    let seed_snap = boot_snap.clone();
    tr.exit(s);
    Worker {
        m,
        boot_heap,
        boot_snap,
        seed_snap,
        dir_lo,
        dir_len,
    }
}

/// Everything a run shows the outside world.
#[derive(PartialEq)]
struct Observed {
    exit: ExitReason,
    console: Vec<u8>,
    gpio_out: u32,
    gpio_writes: u64,
}

fn observe(exit: ExitReason, m: &mut Machine) -> Observed {
    Observed {
        exit,
        console: std::mem::take(&mut m.console),
        gpio_out: m.gpio_out,
        gpio_writes: m.gpio_writes,
    }
}

/// Pass-wide tallies the ledger reports.
#[derive(Default)]
struct Tally {
    alloc: AllocStats,
    invariant_checks: u64,
    faults_applied: u64,
}

impl Tally {
    fn add_heap(&mut self, h: &HeapAllocator) {
        let s = h.stats();
        self.alloc.allocs += s.allocs;
        self.alloc.frees += s.frees;
        self.alloc.revocation_passes += s.revocation_passes;
    }
}

/// The fault-free control run under the cadence checker.
fn control(seed: u64, cfg: &CampaignConfig) -> Vec<InvariantViolation> {
    let mut m = Machine::new(MachineConfig::new(CoreModel::ibex()));
    let mut heap = HeapAllocator::new(&mut m, TemporalPolicy::Quarantine(RevokerKind::Hardware));
    let Ok(entry) = m.try_load_program(&build_workload(seed)) else {
        return vec![InvariantViolation {
            kind: cheriot_fault::InvariantKind::TagProvenance,
            cycle: 0,
            addr: None,
            detail: "control run failed to load".into(),
        }];
    };
    m.set_entry(entry);
    let (dir_lo, dir_len, cap) = directory();
    m.cpu.write(Reg::GP, cap);
    let mut checker = InvariantChecker::new(cfg.cadence.max(1));
    checker.watch_region(dir_lo, dir_lo + dir_len);
    let mut violations = Vec::new();
    loop {
        let next_stop = checker.next_due().min(cfg.max_cycles).max(m.cycles + 1);
        let budget = next_stop - m.cycles;
        let r = run_with_heap_service(&mut m, &mut heap, budget);
        violations.extend(checker.check(&m, &heap));
        match r {
            ExitReason::CycleLimit if m.cycles < cfg.max_cycles => continue,
            _ => break,
        }
    }
    violations
}

/// One seed through the fork engine, as `run_campaigns` runs it.
fn run_seed(
    w: &mut Worker,
    seed: u64,
    cfg: &CampaignConfig,
    tr: &mut Tracer,
    t: &mut Tally,
) -> (Outcome, u64, u32) {
    let sim_error = (Outcome::SimError, 0, 0);
    let s = tr.enter("core.snapshot.restore", seed);
    w.m.restore_from(&w.boot_snap);
    tr.exit(s);
    let s = tr.enter("fault.build_workload", seed);
    let program = build_workload(seed);
    tr.exit(s);
    let s = tr.enter("core.machine.load", seed);
    let loaded = w.m.try_load_program(&program);
    if let Ok(entry) = loaded {
        w.m.set_entry(entry);
    }
    tr.exit(s);
    if loaded.is_err() {
        return sim_error;
    }
    let s = tr.enter("core.snapshot.capture", seed);
    w.m.snapshot_into(&mut w.seed_snap);
    tr.exit(s);

    let s = tr.enter("alloc.heap.clone", seed);
    let mut heap = w.boot_heap.clone();
    tr.exit(s);
    let s = tr.enter("fault.reference", seed);
    let r_ref = run_with_heap_service(&mut w.m, &mut heap, cfg.max_cycles);
    tr.exit(s);
    t.add_heap(&heap);
    if !matches!(r_ref, ExitReason::Halted(_)) {
        return sim_error;
    }
    let reference = observe(r_ref, &mut w.m);
    let ref_cycles = w.m.cycles.max(1);
    let ref_instructions = w.m.stats.instructions;

    let s = tr.enter("core.snapshot.restore", seed);
    w.m.restore_from(&w.seed_snap);
    tr.exit(s);
    let s = tr.enter("alloc.heap.clone", seed);
    let mut heap = w.boot_heap.clone();
    tr.exit(s);

    // The faulted phase.
    let m = &mut w.m;
    let s = tr.enter("fault.plan", seed);
    m.set_watchdog(Some(
        ref_instructions.saturating_mul(4).saturating_add(100_000),
    ));
    let (hb, he) = heap.heap_range();
    let used_he = he.min(hb + 32 * 1024);
    let plan = FaultPlan::generate(
        seed,
        &PlanConfig {
            classes: cfg.classes.clone(),
            count: cfg.faults_per_run,
            window: (ref_cycles / 10, ref_cycles.saturating_mul(9) / 10),
            region: (w.dir_lo, used_he),
            heap: (hb, used_he),
            code: (CODE_BASE, m.code_end()),
        },
    );
    let mut injector = Injector::new(plan);
    let mut checker = InvariantChecker::new(cfg.cadence.max(1));
    checker.watch_region(w.dir_lo, w.dir_lo + w.dir_len);
    tr.exit(s);
    let mut violations: Vec<InvariantViolation> = Vec::new();
    let deadline = cfg.max_cycles;
    let exit = loop {
        let next_stop = injector
            .next_cycle()
            .unwrap_or(u64::MAX)
            .min(checker.next_due())
            .min(deadline)
            .max(m.cycles + 1);
        let s = tr.enter("fault.faulted", seed);
        let r = run_with_heap_service(m, &mut heap, next_stop - m.cycles);
        tr.exit(s);
        let s = tr.enter("fault.inject", seed);
        injector.poll(m);
        tr.exit(s);
        if checker.due(m.cycles) {
            let s = tr.enter("fault.invariant", seed);
            violations.extend(checker.check(m, &heap));
            tr.exit(s);
            t.invariant_checks += 1;
        }
        match r {
            ExitReason::CycleLimit if m.cycles < deadline => continue,
            other => break other,
        }
    };
    let s = tr.enter("fault.invariant", seed);
    violations.extend(checker.check(m, &heap));
    let consistent = heap.check_consistency(m).is_ok();
    tr.exit(s);
    t.invariant_checks += 1;
    t.add_heap(&heap);
    let faults = injector.applied();
    t.faults_applied += u64::from(faults);
    let outcome = if !violations.is_empty() || !consistent {
        Outcome::InvariantViolation
    } else {
        match exit {
            ExitReason::Fault(_) => Outcome::TrappedSafely,
            ExitReason::Halted(_) if observe(exit, m) == reference => Outcome::Benign,
            ExitReason::Halted(_) => Outcome::SilentDivergence,
            _ => Outcome::SimError,
        }
    };
    (outcome, m.cycles, faults)
}

pub fn trace(seed: u64) -> Traced {
    let cfg = config(seed);
    let mut tr = Tracer::new(true);
    let mut t = Tally::default();
    let pass = tr.enter("pass", 0);
    let s = tr.enter("fault.control", seed);
    let control_violations = control(seed, &cfg);
    tr.exit(s);
    let mut w = boot(&mut tr);
    let mut replica = Vec::new();
    for i in 0..u64::from(BATCH) {
        let sd = seed + i;
        let r = tr.enter("req.seed", sd);
        let (outcome, cycles, faults) = run_seed(&mut w, sd, &cfg, &mut tr, &mut t);
        tr.exit(r);
        replica.push(seed_key(sd, outcome, cycles, faults));
    }
    tr.exit(pass);
    let snap = w.m.snapshot_stats();
    replica.push(kv("restores", snap.restores));
    replica.push(kv("restore_bytes", snap.bytes_copied));
    if !control_violations.is_empty() {
        replica.push(kv("control_violations", control_violations.len()));
    }

    let rows = ledger(tr.spans());
    let incl = |n: &str| rows.get(n).map_or(0.0, |r| r.incl_s);
    let cow = w.m.sram.cow_stats();
    let values = vec![
        ("core.snapshot.restores", snap.restores as f64),
        ("core.snapshot.full_restores", snap.full_restores as f64),
        (
            "core.snapshot.restore_bytes_per_seed",
            snap.bytes_copied as f64 / f64::from(BATCH),
        ),
        ("core.mem.cow_breaks", cow.breaks as f64),
        ("core.mem.cow_bytes_copied", cow.bytes_copied as f64),
        ("core.mem.shared_pages", f64::from(w.m.sram.shared_pages())),
        (
            "core.mem.unique_bytes",
            w.m.sram.unique_resident_bytes() as f64,
        ),
        ("alloc.heap.allocs", t.alloc.allocs as f64),
        ("alloc.heap.frees", t.alloc.frees as f64),
        (
            "alloc.heap.revocation_passes",
            t.alloc.revocation_passes as f64,
        ),
        ("fault.invariant_checks", t.invariant_checks as f64),
        (
            "fault.invariant_fraction",
            incl("fault.invariant") / incl("pass").max(1e-12),
        ),
        ("fault.faults_applied", t.faults_applied as f64),
    ];
    Traced {
        tracer: tr,
        values,
        replica,
        base: format!("control run, worker boot and {BATCH} seeds from {seed}"),
    }
}
