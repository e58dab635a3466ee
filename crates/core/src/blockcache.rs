//! Predecoded basic-block cache: decode-once execution for the run loop.
//!
//! The interpreter's per-instruction cost is dominated not by executing the
//! instruction but by re-deriving everything around it: the PCC fetch
//! check, the code-region range/alignment checks, the bounds-checked code
//! lookup, and the cost-model matches (`instr_cycles`, `mem_beats`,
//! `sources`) — all recomputed for the same loop body millions of times.
//! This module caches that work per *basic block*: on first execution of a
//! PC the machine decodes forward until a control-flow/trap-boundary
//! instruction ([`crate::insn::Instr::is_block_boundary`]) and stores the
//! run of [`PredecodedInsn`]s; subsequent visits dispatch straight down the
//! block.
//!
//! Every block is one contiguous run `[start, end)` of code words, and
//! the cached and chained dispatch modes build identical blocks. Two
//! dispatch accelerators layer on top (DESIGN.md §13), both per-slot
//! sidecar state invalidated wholesale by the generation counter:
//!
//! * **Successor links**: each slot carries up to two weak links
//!   `(generation, next_pc, PCC fingerprint) → successor slot` recorded by
//!   the chained dispatch loop; a matching link lets the loop jump block to
//!   block without re-running the PCC fetch check or touching the slot
//!   table's lookup path.
//! * **Sentry inline caches**: a slot whose block ends in `cjalr` caches
//!   the last observed `(target capability word) → (target PCC, posture
//!   effect, successor slot)` so repeat sentry calls — the RTOS cross-call
//!   shape — skip the whole capability validation re-run.
//!
//! Coherence is exact and conservative:
//!
//! * Any overwrite of loaded code ([`crate::machine::Machine::patch_code`]
//!   — self-modifying code and `cheriot-fault` code-region injections)
//!   invalidates every cached block covering the patched address.
//! * Appending code ([`crate::machine::Machine::try_load_program`]) drops
//!   blocks that ended exactly at the old end of code, so a block truncated
//!   by running out of instructions re-extends over the new code.
//! * Every invalidation bumps a generation counter
//!   ([`BlockCacheStats::generation`]) that external layers (fault
//!   campaigns, tests) can watch to confirm their mutations took effect.
//!   Links and inline caches embed the generation they were recorded
//!   under and die on any mismatch, so a single counter bump retires every
//!   link in the machine at once — no per-link invalidation walk.
//!
//! The cache stores `Arc<Block>` so a [`crate::machine::Machine`] stays
//! `Send` (fault campaigns fan machines out across `thread::scope`) and so
//! the run loop can hold a block while mutating the machine through
//! `&mut self`. Links and inline caches live in the per-machine slot
//! sidecar, *never* inside the shared `Arc<Block>`: forked machines execute
//! the same `Arc<Block>`s concurrently across threads, so mutable dispatch
//! state inside a block would be a data race (and would leak one fork's
//! control-flow history into another).

use crate::insn::{Instr, Reg};
use crate::machine::layout;
use crate::pipeline::CoreModel;
use cheriot_cap::Capability;
use std::sync::Arc;

/// Maximum instructions per cached block. Also bounds the invalidation
/// scan window: a patch at `addr` can only be covered by blocks starting
/// within `MAX_BLOCK_LEN - 1` slots before it.
pub const MAX_BLOCK_LEN: usize = 64;

/// One instruction with everything the dispatch loop needs precomputed.
#[derive(Clone, Copy, Debug)]
pub struct PredecodedInsn {
    /// Address of this instruction (`start + 4 * index` within its block).
    pub pc: u32,
    /// The decoded instruction.
    pub instr: Instr,
    /// Base cycle cost from the core model, with the load-filter CLC
    /// penalty already folded in (both are fixed at machine construction).
    pub base_cycles: u64,
    /// Memory-unit beats (cycles unavailable to the background revoker).
    pub mem_beats: u64,
    /// Source registers, for the load-to-use hazard check.
    pub srcs: [Option<Reg>; 2],
    /// Must the dispatch loop consult the pending load-to-use hazard
    /// before this instruction? True only when the previous instruction in
    /// the block is a load (the only setters of the hazard), or for the
    /// first instruction (the hazard can cross a block entry).
    pub check_hazard: bool,
}

/// A predecoded basic block: the instructions of the contiguous code run
/// `[start, end)`, ending at a control-flow/trap boundary, the end of
/// loaded code or [`MAX_BLOCK_LEN`].
#[derive(Debug)]
pub struct Block {
    /// Address of the first instruction.
    pub start: u32,
    /// Address one past the last instruction (exclusive).
    pub end: u32,
    /// The instructions, in address order. Never empty.
    pub insns: Box<[PredecodedInsn]>,
    /// Upper bound on the cycles one full pass over the block can accrue
    /// on non-trapping paths: every instruction's `base_cycles`, the
    /// worst-case load-to-use stall wherever the hazard is checked, and
    /// the worst control-flow penalty of the final instruction. The
    /// chained dispatch loop uses it to prove, at block entry, that no
    /// cycle-budget or timer-interrupt boundary can fire *inside* the
    /// block — and then runs the block's fast prefix without the
    /// per-instruction checks (DESIGN.md §13).
    pub worst_cycles: u64,
    /// Length of the *fast prefix* `insns[..fast_end]`: the longest run
    /// from the block start of instructions the inline arms can handle
    /// (`statically_fast`). Zero when the block opens with an
    /// instruction they cannot.
    pub fast_end: u32,
}

impl Block {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Blocks are never empty; this exists for clippy's `len`/`is_empty`
    /// pairing convention.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Does the block cover `addr`?
    #[inline]
    pub fn covers(&self, addr: u32) -> bool {
        self.start <= addr && addr < self.end
    }
}

/// Hit/miss/invalidation counters plus the coherence generation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Block dispatches served from the cache by the outer lookup path.
    pub hits: u64,
    /// Blocks built (first execution of a start PC).
    pub misses: u64,
    /// Cached blocks discarded by invalidation.
    pub invalidated: u64,
    /// Bumped on every invalidation event (patch, append, flush), even
    /// when no cached block was affected: observers compare generations to
    /// confirm a code mutation was seen by the cache. Successor links and
    /// sentry inline caches record the generation they were made under
    /// and are dead the moment it moves.
    pub generation: u64,
    /// Block-to-block transitions taken through a successor link (no
    /// dispatcher return, no PCC fetch re-check).
    pub chain_hits: u64,
    /// Successor links recorded.
    pub chain_links: u64,
    /// `cjalr` dispatches served by a slot's sentry inline cache.
    pub sentry_ic_hits: u64,
    /// `cjalr` dispatches that missed the inline cache (including the
    /// install miss).
    pub sentry_ic_misses: u64,
}

/// One weak successor link: valid only while the recorded generation is
/// current *and* the departing PCC fingerprint matches, in which case the
/// target block is known to sit at `target_slot` already verified for
/// fetch under these PCC bounds.
#[derive(Clone, Copy, Debug, Default)]
struct BlockLink {
    /// Recorded generation + 1 (0 = empty slot).
    gen_plus1: u64,
    /// The successor's start address this link was recorded for.
    next_pc: u32,
    /// PCC fetch fingerprint ([`Capability::fetch_fingerprint`]) the
    /// successor was verified under.
    fp_base: u32,
    fp_top: u64,
    /// Slot index of the successor block.
    target_slot: u32,
}

impl BlockLink {
    #[inline]
    fn matches(&self, gen: u64, next_pc: u32, fp: (u32, u64)) -> bool {
        self.gen_plus1 == gen + 1
            && self.next_pc == next_pc
            && self.fp_base == fp.0
            && self.fp_top == fp.1
    }
}

/// Monomorphic inline cache for a block ending in `cjalr`: the last
/// successfully jumped-to target capability and everything the dispatch
/// loop needs to replay the jump without re-validating.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SentryIc {
    /// Memory-word encoding of the target capability (its tag was set —
    /// untagged targets fault and are never cached). `to_word` covers the
    /// address, bounds, otype and permissions, so a word match implies the
    /// identical unseal/jump result.
    pub cap_word: u64,
    /// The PCC `cjalr` installed for this target (unsealed, offset folded).
    pub target_pcc: Capability,
    /// Interrupt-posture effect of the sentry: `Some(enable)` switches the
    /// posture, `None` leaves it alone (unsealed targets, inherit
    /// sentries).
    pub posture: Option<bool>,
    /// Slot of the successor block, verified for fetch under `fp`.
    pub target_slot: u32,
    /// Fetch fingerprint of `target_pcc`.
    pub fp: (u32, u64),
}

/// Per-slot dispatch sidecar: two successor links (taken / fall-through of
/// the block *starting* at this slot) and the sentry inline cache.
#[derive(Clone, Copy, Debug, Default)]
struct SlotLinks {
    links: [BlockLink; 2],
    /// Generation + 1 the inline cache was recorded under (0 = empty).
    ic_gen_plus1: u64,
    ic: Option<SentryIc>,
}

/// PC-indexed store of predecoded blocks (one slot per code word, keyed by
/// the block's start address).
///
/// `Clone` is cheap sharing, not duplication: the slot table holds
/// `Arc<Block>`, so a clone bumps one refcount per resident block and the
/// decoded instructions themselves are shared. Snapshots rely on this so
/// forked machines inherit predecoded blocks instead of re-decoding. The
/// links sidecar is plain `Copy` data and is cloned by value — each
/// machine then mutates only its own copy.
#[derive(Clone, Debug, Default)]
pub struct BlockCache {
    slots: Vec<Option<Arc<Block>>>,
    /// Successor links + sentry inline caches, parallel to `slots`.
    links: Vec<SlotLinks>,
    /// Counters; the machine exposes them via
    /// [`crate::machine::Machine::block_stats`].
    pub stats: BlockCacheStats,
}

impl BlockCache {
    /// Slot index for a code address, if it is in the code region and
    /// word-aligned.
    fn slot_of(addr: u32) -> Option<usize> {
        if addr < layout::CODE_BASE || !addr.is_multiple_of(4) {
            return None;
        }
        Some(((addr - layout::CODE_BASE) / 4) as usize)
    }

    /// The cached block starting at slot `idx`, if any.
    #[inline]
    pub fn lookup(&self, idx: usize) -> Option<Arc<Block>> {
        self.slots.get(idx)?.clone()
    }

    /// Moves the cached block starting at slot `idx` out of the table.
    /// The dispatch loop owns the block while executing it — a move in
    /// and out instead of an atomic refcount round-trip per executed
    /// block — and returns it with [`BlockCache::restore`]. Nothing that
    /// runs between the two can touch the cache (invalidation only
    /// happens through external `Machine` APIs, never mid-run).
    #[inline]
    pub fn take(&mut self, idx: usize) -> Option<Arc<Block>> {
        self.slots.get_mut(idx)?.take()
    }

    /// Returns a block taken by [`BlockCache::take`] (or freshly built by
    /// the miss path) to its slot.
    #[inline]
    pub fn restore(&mut self, idx: usize, block: Arc<Block>) {
        self.slots[idx] = Some(block);
    }

    /// Stores `block` at slot `idx`, growing the slot table to cover
    /// `code_words` instruction words.
    pub fn insert(&mut self, idx: usize, block: Arc<Block>, code_words: usize) {
        if self.slots.len() < code_words {
            self.slots.resize(code_words, None);
        }
        if self.links.len() < self.slots.len() {
            self.links.resize(self.slots.len(), SlotLinks::default());
        }
        self.stats.misses += 1;
        self.slots[idx] = Some(block);
    }

    /// Looks up a live successor link out of slot `from`: current
    /// generation, same successor address, same PCC fingerprint. Returns
    /// the successor's slot.
    #[inline]
    pub(crate) fn link_lookup(
        &self,
        from: usize,
        gen: u64,
        next_pc: u32,
        fp: (u32, u64),
    ) -> Option<usize> {
        let sl = self.links.get(from)?;
        sl.links
            .iter()
            .find(|l| l.matches(gen, next_pc, fp))
            .map(|l| l.target_slot as usize)
    }

    /// Records a successor link out of slot `from` (most-recent-first,
    /// two-way: a conditional branch keeps both its edges linked).
    #[inline]
    pub(crate) fn link_insert(
        &mut self,
        from: usize,
        gen: u64,
        next_pc: u32,
        fp: (u32, u64),
        target_slot: usize,
    ) {
        let Some(sl) = self.links.get_mut(from) else {
            return;
        };
        let fresh = BlockLink {
            gen_plus1: gen + 1,
            next_pc,
            fp_base: fp.0,
            fp_top: fp.1,
            target_slot: target_slot as u32,
        };
        if !sl.links[0].matches(gen, next_pc, fp) {
            sl.links[1] = sl.links[0];
        }
        sl.links[0] = fresh;
        self.stats.chain_links += 1;
    }

    /// The sentry inline cache of slot `from`, if current and keyed by the
    /// same capability word.
    #[inline]
    pub(crate) fn ic_lookup(&self, from: usize, gen: u64, cap_word: u64) -> Option<SentryIc> {
        let sl = self.links.get(from)?;
        if sl.ic_gen_plus1 != gen + 1 {
            return None;
        }
        sl.ic.filter(|ic| ic.cap_word == cap_word)
    }

    /// Installs (or replaces — the cache is monomorphic) slot `from`'s
    /// sentry inline cache.
    #[inline]
    pub(crate) fn ic_insert(&mut self, from: usize, gen: u64, ic: SentryIc) {
        if let Some(sl) = self.links.get_mut(from) {
            sl.ic_gen_plus1 = gen + 1;
            sl.ic = Some(ic);
        }
    }

    /// Drops every cached block covering `addr` (there can be several:
    /// slow-path entry mid-block builds overlapping suffix blocks).
    /// Returns the number discarded. Always bumps the generation: the *code* changed
    /// whether or not a block cached it — and the bump alone retires every
    /// successor link and inline cache.
    pub fn invalidate_covering(&mut self, addr: u32) -> u64 {
        self.stats.generation += 1;
        let Some(slot) = Self::slot_of(addr & !3) else {
            return 0;
        };
        if self.slots.is_empty() {
            return 0;
        }
        let lo = slot.saturating_sub(MAX_BLOCK_LEN - 1);
        let hi = slot.min(self.slots.len() - 1);
        let mut removed = 0;
        for s in lo..=hi {
            if let Some(b) = &self.slots[s] {
                if b.covers(addr) {
                    self.slots[s] = None;
                    removed += 1;
                }
            }
        }
        self.stats.invalidated += removed;
        removed
    }

    /// Called after code is appended at `old_end` (the previous exclusive
    /// end of the code region): drops blocks that ended exactly there, so a
    /// block truncated by the end of loaded code is rebuilt over the new
    /// instructions. Returns the number discarded.
    pub fn on_append(&mut self, old_end: u32) -> u64 {
        self.stats.generation += 1;
        let Some(end_slot) = Self::slot_of(old_end) else {
            return 0;
        };
        let lo = end_slot.saturating_sub(MAX_BLOCK_LEN);
        let mut removed = 0;
        for s in lo..end_slot.min(self.slots.len()) {
            if let Some(b) = &self.slots[s] {
                if b.end == old_end {
                    self.slots[s] = None;
                    removed += 1;
                }
            }
        }
        self.stats.invalidated += removed;
        removed
    }

    /// Discards every cached block (full flush), bumping the generation
    /// (which also retires every link and inline cache).
    pub fn clear(&mut self) {
        let resident = self.resident() as u64;
        for s in &mut self.slots {
            *s = None;
        }
        self.stats.invalidated += resident;
        self.stats.generation += 1;
    }

    /// Number of blocks currently cached.
    pub fn resident(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

/// Decodes the block starting at code slot `start_idx`: forward until a
/// control-flow/trap boundary, the end of `code` or [`MAX_BLOCK_LEN`].
/// `start_idx` must be within `code`.
pub fn build_block(code: &[Instr], start_idx: usize, core: &CoreModel, load_filter: bool) -> Block {
    let start = layout::CODE_BASE + 4 * start_idx as u32;
    let mut insns = Vec::with_capacity(8);
    let mut prev_is_load = true; // a hazard can cross the block entry
                                 // Accumulates [`Block::worst_cycles`]: every `base_cycles` plus a
                                 // worst-case stall wherever the hazard is consulted.
    let mut worst_cycles = 0u64;
    for (idx, &instr) in code.iter().enumerate().skip(start_idx) {
        let mut base_cycles = core.instr_cycles(&instr);
        if load_filter {
            // Same folding as the stepwise loop: the revocation-bit lookup
            // lengthens capability loads where the pipeline cannot hide it.
            if let Instr::Clc { .. } = instr {
                base_cycles += core.filter_load_to_use;
            }
        }
        worst_cycles += base_cycles + if prev_is_load { core.load_to_use } else { 0 };
        insns.push(PredecodedInsn {
            pc: layout::CODE_BASE + 4 * idx as u32,
            instr,
            base_cycles,
            mem_beats: core.mem_beats(&instr),
            srcs: instr.sources(),
            check_hazard: prev_is_load,
        });
        prev_is_load = matches!(instr, Instr::Load { .. } | Instr::Clc { .. });
        if instr.is_block_boundary() || insns.len() >= MAX_BLOCK_LEN {
            break;
        }
    }
    // The final instruction may pay a taken-branch or jump penalty on top
    // of its base cost.
    worst_cycles += core.branch_taken_penalty.max(core.jump_penalty);
    let fast_end = insns
        .iter()
        .position(|d| !statically_fast(&d.instr))
        .unwrap_or(insns.len()) as u32;
    Block {
        start,
        end: start + 4 * insns.len() as u32,
        insns: insns.into_boxed_slice(),
        worst_cycles,
        fast_end,
    }
}

/// Can the chained dispatch loop's inline arms ([`exec_fast` in
/// `machine.rs`]) handle this instruction? Must stay in lockstep with the
/// arms in the conservative direction only: `false` for a handled
/// instruction merely shortens the fast prefix, while the arms themselves
/// decide dynamically (SRAM hit, passing capability check) whether to
/// execute or bail, so a statically-fast instruction that cannot be
/// handled at runtime still falls back correctly.
fn statically_fast(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Lui { .. }
            | Instr::OpImm { .. }
            | Instr::Op { .. }
            | Instr::MulDiv { .. }
            | Instr::Load { .. }
            | Instr::Clc { .. }
            | Instr::Store { .. }
            | Instr::Csc { .. }
            | Instr::CGet { .. }
            | Instr::CSetAddr { .. }
            | Instr::CIncAddr { .. }
            | Instr::CIncAddrImm { .. }
            | Instr::CSetBounds { .. }
            | Instr::CSetBoundsImm { .. }
            | Instr::CAndPerm { .. }
            | Instr::CClearTag { .. }
            | Instr::CMove { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, BranchCond};

    fn nopish(n: usize) -> Vec<Instr> {
        vec![Instr::NOP; n]
    }

    #[test]
    fn block_ends_at_control_flow() {
        let mut code = nopish(3);
        code.push(Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: -12,
        });
        code.extend(nopish(4));
        let b = build_block(&code, 0, &CoreModel::ibex(), true);
        assert_eq!(b.len(), 4, "three nops plus the branch");
        assert_eq!(b.start, layout::CODE_BASE);
        assert_eq!(b.end, layout::CODE_BASE + 16);
    }

    #[test]
    fn block_truncates_at_code_end_and_max_len() {
        let code = nopish(5);
        let b = build_block(&code, 2, &CoreModel::flute(), false);
        assert_eq!(b.len(), 3, "runs to the end of loaded code");
        let long = nopish(MAX_BLOCK_LEN * 2);
        let b = build_block(&long, 0, &CoreModel::flute(), false);
        assert_eq!(b.len(), MAX_BLOCK_LEN);
    }

    #[test]
    fn clc_filter_penalty_is_baked_in() {
        let clc = Instr::Clc {
            rd: Reg::A0,
            rs1: Reg::A1,
            offset: 0,
        };
        let core = CoreModel::ibex();
        let with = build_block(&[clc], 0, &core, true);
        let without = build_block(&[clc], 0, &core, false);
        assert_eq!(
            with.insns[0].base_cycles,
            without.insns[0].base_cycles + core.filter_load_to_use
        );
    }

    #[test]
    fn forward_jal_ends_a_block() {
        // addi; j +8; [jumped over]; addi; halt
        let code = vec![
            Instr::NOP,
            Instr::Jal {
                rd: Reg::ZERO,
                offset: 8,
            },
            Instr::NOP,
            Instr::NOP,
            Instr::Halt,
        ];
        let core = CoreModel::ibex();
        let b = build_block(&code, 0, &core, true);
        assert_eq!(b.len(), 2, "nop, then the jump ends the block");
        assert_eq!(b.end, layout::CODE_BASE + 8);
        assert_eq!(b.insns[1].base_cycles, core.instr_cycles(&code[1]));
        assert!(b.covers(layout::CODE_BASE + 4));
        assert!(!b.covers(layout::CODE_BASE + 8));
    }

    #[test]
    fn blocks_are_contiguous_with_fast_prefix_up_to_first_slow_insn() {
        let load = Instr::Load {
            width: crate::insn::MemWidth::W,
            signed: false,
            rd: Reg::A0,
            rs1: Reg::SP,
            offset: 0,
        };
        let auipcc = Instr::Auipcc {
            rd: Reg::A1,
            imm: 0,
        };
        let j = Instr::Jal {
            rd: Reg::ZERO,
            offset: 8,
        };
        let mut code = vec![Instr::NOP, load, Instr::NOP, auipcc, Instr::NOP, j];
        code.extend([auipcc, Instr::NOP, Instr::Halt, j, Instr::NOP]);
        code.extend(nopish(MAX_BLOCK_LEN + 3));
        for core in [CoreModel::ibex(), CoreModel::flute()] {
            for start in 0..code.len() {
                let b = build_block(&code, start, &core, true);
                assert_eq!(b.start, layout::CODE_BASE + 4 * start as u32);
                assert_eq!(b.end, b.start + 4 * b.len() as u32, "start {start}");
                for (i, d) in b.insns.iter().enumerate() {
                    assert_eq!(d.pc, b.start + 4 * i as u32);
                    assert_eq!(d.instr, code[start + i]);
                }
                let first_slow = b.insns.iter().position(|d| !statically_fast(&d.instr));
                assert_eq!(
                    b.fast_end as usize,
                    first_slow.unwrap_or(b.len()),
                    "start {start}"
                );
            }
        }
        let b = build_block(&code, 0, &CoreModel::ibex(), true);
        assert_eq!((b.len(), b.fast_end), (6, 3), "auipcc is not fast");
        let b = build_block(&code, 6, &CoreModel::ibex(), true);
        assert_eq!((b.len(), b.fast_end), (3, 0), "block opening slow");
    }

    #[test]
    fn backward_and_linking_jumps_end_blocks() {
        let back = vec![
            Instr::NOP,
            Instr::Jal {
                rd: Reg::ZERO,
                offset: -4,
            },
        ];
        let b = build_block(&back, 0, &CoreModel::ibex(), true);
        assert_eq!(b.len(), 2, "backward jump stays a boundary");
        let call = vec![
            Instr::NOP,
            Instr::Jal {
                rd: Reg::RA,
                offset: 8,
            },
            Instr::NOP,
            Instr::NOP,
        ];
        let b = build_block(&call, 0, &CoreModel::ibex(), true);
        assert_eq!(b.len(), 2, "linking jump (call) stays a boundary");
    }

    #[test]
    fn invalidate_covering_hits_overlapping_blocks() {
        let mut cache = BlockCache::default();
        let code = nopish(16);
        let core = CoreModel::ibex();
        // Two overlapping blocks: one from slot 0, a suffix from slot 2.
        cache.insert(0, Arc::new(build_block(&code, 0, &core, true)), 16);
        cache.insert(2, Arc::new(build_block(&code, 2, &core, true)), 16);
        assert_eq!(cache.resident(), 2);
        let removed = cache.invalidate_covering(layout::CODE_BASE + 3 * 4);
        assert_eq!(removed, 2, "both blocks cover slot 3");
        assert_eq!(cache.resident(), 0);
        assert_eq!(cache.stats.invalidated, 2);
        assert_eq!(cache.stats.generation, 1);
    }

    #[test]
    fn invalidation_window_spans_a_full_length_block() {
        // A maximal block starting MAX_BLOCK_LEN - 1 slots before the
        // patched word still covers it and must drop; the block one slot
        // earlier ends just short of it and must stay.
        let code = nopish(2 * MAX_BLOCK_LEN);
        let core = CoreModel::ibex();
        let mut cache = BlockCache::default();
        let n = code.len();
        cache.insert(0, Arc::new(build_block(&code, 0, &core, true)), n);
        cache.insert(1, Arc::new(build_block(&code, 1, &core, true)), n);
        let patched = layout::CODE_BASE + 4 * MAX_BLOCK_LEN as u32;
        assert_eq!(cache.invalidate_covering(patched), 1);
        assert!(cache.lookup(0).is_some(), "ends one word before the patch");
        assert!(cache.lookup(1).is_none(), "last word is the patched one");
    }

    #[test]
    fn invalidation_outside_any_block_still_bumps_generation() {
        let mut cache = BlockCache::default();
        assert_eq!(cache.invalidate_covering(layout::CODE_BASE), 0);
        assert_eq!(cache.stats.generation, 1);
        assert_eq!(cache.invalidate_covering(0x100), 0); // below code region
        assert_eq!(cache.stats.generation, 2);
    }

    #[test]
    fn on_append_drops_only_blocks_truncated_at_old_end() {
        let mut cache = BlockCache::default();
        let mut code = nopish(4);
        code.push(Instr::Jal {
            rd: Reg::ZERO,
            offset: 0,
        });
        code.extend(nopish(3)); // slots 5..8 fall through to the code end
        let core = CoreModel::ibex();
        cache.insert(0, Arc::new(build_block(&code, 0, &core, true)), 8);
        cache.insert(5, Arc::new(build_block(&code, 5, &core, true)), 8);
        let old_end = layout::CODE_BASE + 4 * code.len() as u32;
        let removed = cache.on_append(old_end);
        assert_eq!(removed, 1, "only the block ending at the old code end");
        assert!(cache.lookup(0).is_some());
        assert!(cache.lookup(5).is_none());
    }

    #[test]
    fn links_are_generation_guarded_and_two_way() {
        let mut cache = BlockCache::default();
        let code = nopish(16);
        let core = CoreModel::ibex();
        cache.insert(0, Arc::new(build_block(&code, 0, &core, true)), 16);
        let gen = cache.stats.generation;
        let fp = (0x8000_0000u32, 0x8001_0000u64);
        cache.link_insert(0, gen, 0x8000_0040, fp, 4);
        cache.link_insert(0, gen, 0x8000_0080, fp, 8);
        assert_eq!(cache.link_lookup(0, gen, 0x8000_0040, fp), Some(4));
        assert_eq!(cache.link_lookup(0, gen, 0x8000_0080, fp), Some(8));
        assert_eq!(cache.stats.chain_links, 2);
        // Different fingerprint: no match.
        let other_fp = (0x8000_0000u32, 0x8000_8000u64);
        assert_eq!(cache.link_lookup(0, gen, 0x8000_0040, other_fp), None);
        // Any invalidation event retires every link at once.
        cache.invalidate_covering(0x100);
        let gen = cache.stats.generation;
        assert_eq!(cache.link_lookup(0, gen, 0x8000_0040, fp), None);
        assert_eq!(cache.link_lookup(0, gen, 0x8000_0080, fp), None);
    }

    #[test]
    fn re_linking_the_same_edge_keeps_the_other_way() {
        let mut cache = BlockCache::default();
        let code = nopish(16);
        let core = CoreModel::ibex();
        cache.insert(0, Arc::new(build_block(&code, 0, &core, true)), 16);
        let gen = cache.stats.generation;
        let fp = (0x8000_0000u32, 0x8001_0000u64);
        cache.link_insert(0, gen, 0x8000_0040, fp, 4);
        cache.link_insert(0, gen, 0x8000_0080, fp, 8);
        // Refreshing the hot edge must not evict the cold one.
        cache.link_insert(0, gen, 0x8000_0040, fp, 4);
        assert_eq!(cache.link_lookup(0, gen, 0x8000_0080, fp), Some(8));
    }

    #[test]
    fn boundary_set_matches_issue_list() {
        use Instr::*;
        let enders = [
            Branch {
                cond: BranchCond::Eq,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: 0,
            },
            Jal {
                rd: Reg::RA,
                offset: 8,
            },
            Jalr {
                rd: Reg::RA,
                rs1: Reg::A0,
                offset: 0,
            },
            Mret,
            Ecall,
            Ebreak,
            Wfi,
            Fence,
            Halt,
            Csr {
                op: crate::insn::CsrOp::Rw,
                rd: Reg::A0,
                rs1: Reg::A1,
                csr: crate::insn::CsrId::Mcycle,
            },
            CSpecialRw {
                rd: Reg::A0,
                rs1: Reg::A1,
                scr: crate::insn::ScrId::Mtcc,
            },
        ];
        for i in enders {
            assert!(i.is_block_boundary(), "{i:?} must end a block");
        }
        let straight = [
            Instr::NOP,
            Lui {
                rd: Reg::A0,
                imm: 1,
            },
            Op {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            },
            Clc {
                rd: Reg::A0,
                rs1: Reg::A1,
                offset: 0,
            },
            Csc {
                rs2: Reg::A0,
                rs1: Reg::A1,
                offset: 0,
            },
        ];
        for i in straight {
            assert!(!i.is_block_boundary(), "{i:?} must not end a block");
        }
    }
}
