//! Recorded outputs: the deterministic results each workload must
//! reproduce at the default seed.
//!
//! The file is flat `key = value` lines; `#` starts a comment. Keys are
//! `<workload>.<result>`. Values are compared as exact strings, because
//! every recorded result is a simulated count and a change that only
//! speeds the simulator up must leave each one identical.

use std::collections::BTreeMap;

/// Parses the recorded-results file.
pub fn parse(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`: {raw}", n + 1))?;
        let (k, v) = (k.trim(), v.trim());
        if k.is_empty() || v.is_empty() {
            return Err(format!("line {}: empty key or value: {raw}", n + 1));
        }
        if out.insert(k.to_string(), v.to_string()).is_some() {
            return Err(format!("line {}: duplicate key {k}", n + 1));
        }
    }
    Ok(out)
}

/// Compares a workload's measured results with the recorded ones: every
/// recorded `<workload>.*` key must be measured with the same value, and
/// every measured key must be recorded. Returns one line per mismatch.
pub fn compare(
    recorded: &BTreeMap<String, String>,
    workload: &str,
    measured: &[(String, String)],
) -> Vec<String> {
    let prefix = format!("{workload}.");
    let measured: BTreeMap<String, &String> = measured
        .iter()
        .map(|(k, v)| (format!("{prefix}{k}"), v))
        .collect();
    let mut problems = Vec::new();
    for (key, v) in &measured {
        match recorded.get(key) {
            Some(r) if r == *v => {}
            Some(r) => problems.push(format!("{key}: measured {v}, recorded {r}")),
            None => problems.push(format!("{key}: measured {v}, nothing recorded")),
        }
    }
    for (key, r) in recorded.range(prefix.clone()..) {
        if !key.starts_with(&prefix) {
            break;
        }
        if !measured.contains_key(key) {
            problems.push(format!("{key}: recorded {r}, not measured"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured() -> Vec<(String, String)> {
        vec![
            ("ibex.cycles".into(), "100".into()),
            ("ibex.instructions".into(), "70".into()),
        ]
    }

    #[test]
    fn matching_results_pass() {
        let rec =
            parse("# c\ncoremark.ibex.cycles = 100\ncoremark.ibex.instructions=70\n").unwrap();
        assert!(compare(&rec, "coremark", &measured()).is_empty());
    }

    #[test]
    fn a_tampered_value_fails() {
        let rec = parse("coremark.ibex.cycles = 100\ncoremark.ibex.instructions = 71\n").unwrap();
        let p = compare(&rec, "coremark", &measured());
        assert_eq!(p.len(), 1);
        assert!(p[0].contains("coremark.ibex.instructions"), "{p:?}");
    }

    #[test]
    fn missing_and_extra_keys_fail() {
        let rec = parse("coremark.ibex.cycles = 100\ncoremark.flute.cycles = 9\n").unwrap();
        let p = compare(&rec, "coremark", &measured());
        assert_eq!(p.len(), 2, "{p:?}");
    }

    #[test]
    fn other_workloads_keys_are_ignored() {
        let rec =
            parse("coremark.ibex.cycles = 100\ncoremark.ibex.instructions = 70\nfarm.acks = 5\n")
                .unwrap();
        assert!(compare(&rec, "coremark", &measured()).is_empty());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse("novalue\n").is_err());
        assert!(parse("a = 1\na = 2\n").is_err());
        assert!(parse("a =\n").is_err());
    }
}
