//! The exit-state compare reports the lowest granule whose tag differs
//! between the golden model and the engine, whichever side holds the
//! extra tag, in the same `tag[<addr>]` / `true` / `false` form as a
//! granule-by-granule walk of both tag maps.

use cheriot_cap::Capability;
use cheriot_core::insn::{Instr, Reg};
use cheriot_core::machine::{layout, Machine};
use cheriot_core::pipeline::CoreModel;
use cheriot_diff::{build_engine, compare, Golden};

/// Granule the program stores a capability to, on both models.
const SLOT: u32 = layout::SRAM_BASE + 0x4000;

/// Golden model and stepwise engine after both ran one `csc` of a tagged
/// capability to `SLOT`: identical state, one tag set on each side.
fn stored_pair() -> (Golden, Machine) {
    let prog = [
        Instr::Csc {
            rs2: Reg::A1,
            rs1: Reg::A2,
            offset: 0,
        },
        Instr::Halt,
    ];
    let core = CoreModel::ibex();
    let mut g = Golden::new(core, &prog);
    let mut m = build_engine(&prog, core, (false, false), None);
    let value = Capability::root_mem_rw()
        .with_address(SLOT + 0x100)
        .set_bounds(32)
        .unwrap();
    let pointer = Capability::root_mem_rw().with_address(SLOT);
    for (r, c) in [(Reg::A1, value), (Reg::A2, pointer)] {
        g.cpu.write(r, c);
        m.cpu.write(r, c);
    }
    while g.halted.is_none() {
        g.step();
    }
    while m.exit_status().is_none() {
        m.step();
    }
    assert!(m.sram.tag_at(SLOT), "the store must leave a tagged granule");
    assert!(compare(&g, &m, true).is_empty());
    (g, m)
}

/// The tag mismatches `compare` reports once the engine gains a tag at
/// `extra` and loses the one at `SLOT`; bytes stay equal on both sides.
fn tag_mismatches(extra: u32) -> Vec<(String, String, String)> {
    let (g, mut m) = stored_pair();
    m.sram.write_cap_word(extra, 0, true).unwrap();
    let (word, _) = m.sram.read_cap_word(SLOT).unwrap();
    m.sram.write_cap_word(SLOT, word, false).unwrap();
    compare(&g, &m, true)
        .into_iter()
        .map(|mm| (mm.field, mm.golden, mm.engine))
        .collect()
}

fn expect(addr: u32, golden: bool) -> Vec<(String, String, String)> {
    vec![(
        format!("tag[{addr:#x}]"),
        golden.to_string(),
        (!golden).to_string(),
    )]
}

#[test]
fn engine_only_tag_below_is_reported_first() {
    let extra = SLOT - 0x808;
    assert_eq!(tag_mismatches(extra), expect(extra, false));
}

#[test]
fn golden_only_tag_below_is_reported_first() {
    let extra = SLOT + 0x808;
    assert_eq!(tag_mismatches(extra), expect(SLOT, true));
}

#[test]
fn mismatch_on_first_and_last_granule() {
    assert_eq!(
        tag_mismatches(layout::SRAM_BASE),
        expect(layout::SRAM_BASE, false)
    );
    let last = layout::SRAM_BASE + 512 * 1024 - 8;
    assert_eq!(tag_mismatches(last), expect(SLOT, true));
}
