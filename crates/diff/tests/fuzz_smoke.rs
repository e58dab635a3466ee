//! Campaign smoke: a small all-features fuzz run must find zero
//! divergences across every dispatch mode and core model, while reaching
//! near-total opcode coverage — the same bar CI's `diff-fuzz-smoke` job
//! holds the release binary to.

use cheriot_core::Machine;
use cheriot_diff::{run_fuzz, run_fuzz_with, DiffConfig, Profile, OPCODE_NAMES};

#[test]
fn full_profile_campaign_is_divergence_free() {
    let report = run_fuzz(&DiffConfig {
        seed_base: 1,
        count: 48,
        threads: 4,
        ..DiffConfig::default()
    });
    assert_eq!(report.pairs_run, 48 * 6, "6 engine configs per seed");
    assert!(
        report.passed(),
        "differential divergences:\n{}",
        report.render_text()
    );
    // The acceptance bar: >90% of implemented opcodes exercised.
    assert!(
        report.coverage.opcode_count() * 10 > OPCODE_NAMES.len() as u32 * 9,
        "coverage too low: {}/{} ({:?} missed)",
        report.coverage.opcode_count(),
        OPCODE_NAMES.len(),
        report.coverage.opcode_names(false),
    );
    // Interrupt machinery must actually have fired: both postures seen,
    // at least one asynchronous cause among the traps.
    assert_eq!(report.coverage.postures, 3, "both interrupt postures");
    assert!(
        report
            .coverage
            .trap_causes
            .iter()
            .any(|c| c & 0x8000_0000 != 0),
        "no interrupt was ever delivered: {:?}",
        report.coverage.trap_causes
    );
}

#[test]
fn binary_safe_campaign_is_divergence_free() {
    let report = run_fuzz(&DiffConfig {
        seed_base: 1000,
        count: 24,
        threads: 4,
        profile: Profile::binary_safe(),
        ..DiffConfig::default()
    });
    assert!(
        report.passed(),
        "differential divergences:\n{}",
        report.render_text()
    );
}

#[test]
fn json_report_shape() {
    let report = run_fuzz(&DiffConfig {
        count: 2,
        ..DiffConfig::default()
    });
    let json = report.to_json();
    assert!(json.contains("\"passed\": true"), "{json}");
    assert!(json.contains("\"opcodes_total\": 36"), "{json}");
    assert!(json.contains("\"divergences\": []"), "{json}");
}

#[test]
fn unchecked_fast_prefix_is_divergence_free_without_hw_revoker() {
    // The chained loop runs a block's fast prefix without per-instruction
    // boundary checks only when no tracer is installed and there is no
    // hardware revoker to step. The default engine configuration has the
    // revoker, so this campaign turns it off on the engine side to put
    // that loop — and its bail-and-resume path — under the golden model.
    let no_revoker = |m: &mut Machine| m.cfg.hw_revoker = false;
    let report = run_fuzz_with(
        &DiffConfig {
            seed_base: 1,
            count: 256,
            threads: 2,
            ..DiffConfig::default()
        },
        Some(&no_revoker),
    );
    assert_eq!(report.pairs_run, 256 * 6, "6 engine configs per seed");
    assert!(
        report.passed(),
        "differential divergences:\n{}",
        report.render_text()
    );
}
