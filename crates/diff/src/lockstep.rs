//! Lockstep execution of a generated program on the golden model and one
//! engine configuration, with full-state comparison and first-divergence
//! triage.
//!
//! The protocol leans on one architectural fact: every trap/interrupt
//! entry is an inter-instruction boundary, and both the golden model and
//! every engine dispatch mode re-check their cycle budget at those same
//! boundaries. So the golden model steps one atom at a time, and whenever
//! it crosses a comparison point (a trap, the snapshot fork, exit) the
//! engine is *driven to the same cycle count* with `Machine::run`. If the
//! two are byte-identical the engine lands exactly on the boundary; if
//! not, the cycle counters themselves disagree and the comparison reports
//! it — there is no way for a divergent engine to sneak past a
//! checkpoint.
//!
//! Comparison is **total state**, not spot checks: the whole [`Cpu`]
//! (register file with tags, PCC, all SCRs, interrupt flags, trap CSRs),
//! cycle counter, `mtimecmp`, retirement statistics, the in-flight
//! load-to-use hazard, trap/exit records — and, at exit, every SRAM byte
//! and every capability tag.

use crate::generator::Program;
use crate::golden::Golden;
use cheriot_core::insn::Reg;
use cheriot_core::machine::{layout, Machine, MachineConfig};
use cheriot_core::pipeline::CoreModel;

/// `(block_cache, block_chain)` triples the fuzzer compares.
pub const DISPATCH_MODES: [(&str, (bool, bool)); 3] = [
    ("stepwise", (false, false)),
    ("cached", (true, false)),
    ("chained", (true, true)),
];

/// A hook applied to the engine machine after program load — the planted
/// -bug harness uses this to corrupt one instruction on the engine side
/// only.
pub type Tweak<'a> = &'a (dyn Fn(&mut Machine) + Sync);

/// One field-level disagreement between golden and engine state.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Which piece of architectural state disagreed.
    pub field: String,
    /// The golden model's value.
    pub golden: String,
    /// The engine's value.
    pub engine: String,
}

/// The first cycle at which a re-run disagreed, for triage.
#[derive(Clone, Debug)]
pub struct FirstDivergence {
    /// Golden cycle count right after the diverging atom.
    pub cycle: u64,
    /// PC of the instruction the golden model executed at that atom.
    pub pc: u32,
    /// Field-level deltas at that point.
    pub deltas: Vec<Mismatch>,
}

/// A confirmed divergence between the golden model and one engine
/// configuration.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Seed of the generating program.
    pub seed: u64,
    /// Core model name (`ibex` / `flute`).
    pub core: String,
    /// Dispatch mode name (`stepwise` / `cached` / `chained`).
    pub dispatch: String,
    /// Which checkpoint caught it (`trap@<cycle>`, `fork@<cycle>`,
    /// `exit@<cycle>`).
    pub checkpoint: String,
    /// Everything that disagreed at the checkpoint.
    pub mismatches: Vec<Mismatch>,
    /// Instruction-level triage from a fresh re-run.
    pub first: Option<FirstDivergence>,
    /// Instruction count of the program that produced this report (after
    /// shrinking, if shrinking ran).
    pub program_len: usize,
    /// The (possibly shrunk) program, disassembled one instruction per
    /// line.
    pub listing: Vec<String>,
}

/// Builds an engine machine for `core` and `dispatch`, loads `prog`, and
/// applies the optional tweak.
pub fn build_engine(
    prog: &[cheriot_core::insn::Instr],
    core: CoreModel,
    dispatch: (bool, bool),
    tweak: Option<Tweak>,
) -> Machine {
    let mut cfg = MachineConfig::new(core);
    cfg.block_cache = dispatch.0;
    cfg.block_chain = dispatch.1;
    debug_assert!(cfg.load_filter, "golden model assumes the load filter");
    debug_assert!(cfg.hwm_enabled, "golden model assumes stack HWM tracking");
    let mut m = Machine::new(cfg);
    m.load_program(prog);
    m.set_entry(layout::CODE_BASE);
    if let Some(t) = tweak {
        t(&mut m);
    }
    m
}

/// Drives `m` forward until it reaches (or passes) `target` cycles or
/// halts. A cycle-faithful engine stops exactly on the boundary.
fn drive(m: &mut Machine, target: u64) {
    while m.exit_status().is_none() && m.cycles < target {
        m.run(target - m.cycles);
    }
}

/// Runs `prog` in lockstep on the golden model and the `(core, dispatch)`
/// engine. `budget` bounds the run; `fork_at` (cycles) round-trips the
/// engine through snapshot/restore at the first boundary past it. Returns
/// the surviving golden model on success so callers can harvest coverage.
#[allow(clippy::too_many_arguments)]
pub fn run_pair(
    prog: &Program,
    core: CoreModel,
    core_name: &str,
    dispatch_name: &str,
    dispatch: (bool, bool),
    budget: u64,
    fork_at: Option<u64>,
    tweak: Option<Tweak>,
) -> Result<Golden, Box<Divergence>> {
    let instrs = prog.instrs();
    let mut g = Golden::new(core, &instrs);
    let mut m = build_engine(&instrs, core, dispatch, tweak);
    let mut forked = fork_at.is_none();

    let diverged = |checkpoint: String, mismatches: Vec<Mismatch>| {
        Box::new(Divergence {
            seed: prog.seed,
            core: core_name.to_string(),
            dispatch: dispatch_name.to_string(),
            checkpoint,
            mismatches,
            first: triage(prog, core, dispatch, budget, tweak),
            program_len: instrs.len(),
            listing: instrs.iter().map(|i| format!("{i:?}")).collect(),
        })
    };

    while g.halted.is_none() && g.cycles < budget {
        let trapped = g.step();
        let fork_here = !forked && fork_at.is_some_and(|f| g.cycles >= f);
        if trapped || fork_here {
            drive(&mut m, g.cycles);
            let mm = compare(&g, &m, false);
            if !mm.is_empty() {
                let kind = if trapped { "trap" } else { "fork" };
                return Err(diverged(format!("{kind}@{}", g.cycles), mm));
            }
            if fork_here {
                // Snapshot/restore round-trip mid-run: the forked machine
                // must be indistinguishable from the original.
                m = m.snapshot().to_machine();
                forked = true;
                let mm = compare(&g, &m, false);
                if !mm.is_empty() {
                    return Err(diverged(format!("snapshot@{}", g.cycles), mm));
                }
            }
        }
    }
    drive(&mut m, g.cycles);
    let mm = compare(&g, &m, true);
    if !mm.is_empty() {
        return Err(diverged(format!("exit@{}", g.cycles), mm));
    }
    Ok(g)
}

/// Full architectural-state comparison; `with_memory` additionally walks
/// all of SRAM (bytes and capability tags) — done at exit, where it
/// proves the whole run, not just the live registers.
pub fn compare(g: &Golden, m: &Machine, with_memory: bool) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let mut diff = |field: &str, gv: String, ev: String| {
        if gv != ev {
            out.push(Mismatch {
                field: field.to_string(),
                golden: gv,
                engine: ev,
            });
        }
    };

    diff("cycles", g.cycles.to_string(), m.cycles.to_string());
    if g.cpu != m.cpu {
        for i in 0..16u8 {
            let r = Reg(i);
            let gv = g.cpu.read(r);
            let ev = m.cpu.read(r);
            if gv != ev {
                diff(&format!("x{i}"), format!("{gv:?}"), format!("{ev:?}"));
            }
        }
        diff(
            "pcc",
            format!("{:?}", g.cpu.pcc),
            format!("{:?}", m.cpu.pcc),
        );
        diff(
            "mtcc",
            format!("{:?}", g.cpu.mtcc),
            format!("{:?}", m.cpu.mtcc),
        );
        diff(
            "mtdc",
            format!("{:?}", g.cpu.mtdc),
            format!("{:?}", m.cpu.mtdc),
        );
        diff(
            "mscratchc",
            format!("{:?}", g.cpu.mscratchc),
            format!("{:?}", m.cpu.mscratchc),
        );
        diff(
            "mepcc",
            format!("{:?}", g.cpu.mepcc),
            format!("{:?}", m.cpu.mepcc),
        );
        diff(
            "interrupts_enabled",
            format!("{}", g.cpu.interrupts_enabled),
            format!("{}", m.cpu.interrupts_enabled),
        );
        diff(
            "prev_interrupts_enabled",
            format!("{}", g.cpu.prev_interrupts_enabled),
            format!("{}", m.cpu.prev_interrupts_enabled),
        );
        diff("mcause", g.cpu.mcause.to_string(), m.cpu.mcause.to_string());
        diff("mtval", g.cpu.mtval.to_string(), m.cpu.mtval.to_string());
        diff("mshwm", g.cpu.mshwm.to_string(), m.cpu.mshwm.to_string());
        diff("mshwmb", g.cpu.mshwmb.to_string(), m.cpu.mshwmb.to_string());
    }
    diff("mtimecmp", g.mtimecmp.to_string(), m.mtimecmp.to_string());
    diff("stats", format!("{:?}", g.stats), format!("{:?}", m.stats));
    diff(
        "pending_load_use",
        format!("{:?}", g.pending_use),
        format!("{:?}", m.pending_load_use()),
    );
    diff(
        "exit",
        format!("{:?}", g.halted),
        format!("{:?}", m.exit_status()),
    );
    diff(
        "last_trap",
        format!("{:?}", g.last_trap),
        format!("{:?}", m.last_trap()),
    );

    if with_memory {
        let base = layout::SRAM_BASE;
        let gb = g.mem.bytes();
        let mut buf = [0u8; 4096];
        for page in 0..(gb.len() / buf.len()) {
            let addr = base + (page * buf.len()) as u32;
            m.sram
                .read_bytes(addr, &mut buf)
                .expect("SRAM page is readable");
            let gp = &gb[page * buf.len()..(page + 1) * buf.len()];
            if gp != buf {
                let off = gp.iter().zip(&buf).position(|(a, b)| a != b).unwrap_or(0);
                diff(
                    &format!("mem[{:#x}]", addr + off as u32),
                    gp[off].to_string(),
                    buf[off].to_string(),
                );
                break;
            }
        }
        // Merge the two models' tagged granules in address order: the
        // first granule tagged on only one side is the lowest mismatch.
        let gt = g.mem.tags();
        let mut gix = 0;
        loop {
            let golden = gt[gix..].iter().position(|&t| t).map(|k| gix + k);
            let engine = m
                .sram
                .next_tagged(base + gix as u32 * 8, (gt.len() - gix) as u32)
                .map(|a| (a - base) as usize / 8);
            let first = match (golden, engine) {
                (None, None) => break,
                (Some(x), Some(y)) if x == y => {
                    gix = x + 1;
                    continue;
                }
                (Some(x), Some(y)) => x.min(y),
                (Some(x), None) | (None, Some(x)) => x,
            };
            let addr = base + first as u32 * 8;
            let (gv, ev) = (golden == Some(first), engine == Some(first));
            diff(&format!("tag[{addr:#x}]"), gv.to_string(), ev.to_string());
            break;
        }
    }
    out
}

/// Instruction-granular re-run: fresh golden + fresh engine, compared
/// after *every* atom, to name the first diverging instruction.
fn triage(
    prog: &Program,
    core: CoreModel,
    dispatch: (bool, bool),
    budget: u64,
    tweak: Option<Tweak>,
) -> Option<FirstDivergence> {
    let instrs = prog.instrs();
    let mut g = Golden::new(core, &instrs);
    let mut m = build_engine(&instrs, core, dispatch, tweak);
    while g.halted.is_none() && g.cycles < budget {
        let pc = g.cpu.pc();
        g.step();
        drive(&mut m, g.cycles);
        let deltas = compare(&g, &m, false);
        if !deltas.is_empty() {
            return Some(FirstDivergence {
                cycle: g.cycles,
                pc,
                deltas,
            });
        }
    }
    let pc = g.cpu.pc();
    drive(&mut m, g.cycles);
    let deltas = compare(&g, &m, true);
    if !deltas.is_empty() {
        return Some(FirstDivergence {
            cycle: g.cycles,
            pc,
            deltas,
        });
    }
    None
}
