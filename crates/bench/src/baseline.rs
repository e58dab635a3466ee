//! The `BENCH_simperf.json` trajectory file: a single-line flat JSON
//! object mapping metric names to numbers, committed to the repo so
//! every perf-relevant change has a baseline to beat.
//!
//! Several harnesses own disjoint key sets in the same file
//! (`sim_throughput` the MIPS/campaign keys, `farm_throughput` the
//! fleet keys), so writers must *upsert*: update their own keys and
//! preserve everyone else's. Reading and writing go through the
//! workspace's JSON codec ([`cheriot_core::trace::json`]), which keeps
//! each number's text, so untouched keys are rewritten byte for byte.

use cheriot_core::trace::json::{self, Json};
use std::io::{Error, ErrorKind};
use std::path::Path;

/// Parses a baseline file's text, which must be a flat object of
/// numbers; read keys with [`Json::get`] and [`Json::as_f64`].
///
/// # Errors
///
/// The parse error, or a description of the first value that is not a
/// number.
pub fn parse_baseline(text: &str) -> Result<Json, String> {
    flat_fields(text).map(Json::Obj)
}

fn flat_fields(text: &str) -> Result<Vec<(String, Json)>, String> {
    let Json::Obj(fields) = json::parse(text)? else {
        return Err("expected a flat JSON object".to_string());
    };
    if let Some((key, _)) = fields.iter().find(|(_, v)| !matches!(v, Json::Num(_))) {
        return Err(format!("key `{key}` is not a number"));
    }
    Ok(fields)
}

/// Updates (or appends) `entries` in the baseline file at `path`,
/// preserving every key some other harness owns. A missing file starts
/// from an empty object. Returns the full line written.
///
/// # Errors
///
/// I/O errors reading or writing the file, and [`ErrorKind::InvalidData`]
/// if the existing file is not a flat JSON object of numbers; the file is
/// then left untouched rather than truncated to the new keys.
pub fn upsert_baseline(path: &Path, entries: &[(&str, Json)]) -> std::io::Result<String> {
    let mut fields = match std::fs::read_to_string(path) {
        Ok(text) => flat_fields(&text)
            .map_err(|e| Error::new(ErrorKind::InvalidData, format!("{}: {e}", path.display())))?,
        Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    for (key, value) in entries {
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some(field) => field.1 = value.clone(),
            None => fields.push((key.to_string(), value.clone())),
        }
    }
    let line = Json::Obj(fields).render_line();
    std::fs::write(path, &line)?;
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cheriot-bench-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn parse_baseline_reads_flat_keys() {
        let doc = parse_baseline("{\"mips\": 12.5, \"neg\": -3, \"last\": 7}\n").unwrap();
        assert_eq!(doc.get("mips").and_then(Json::as_f64), Some(12.5));
        assert_eq!(doc.get("neg").and_then(Json::as_f64), Some(-3.0));
        assert_eq!(doc.get("last").and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get("absent"), None);
        assert!(parse_baseline("[1, 2]").is_err());
        assert!(parse_baseline("{\"a\": \"1\"}").is_err());
    }

    #[test]
    fn upsert_updates_own_keys_and_preserves_others() {
        let path = scratch("upsert.json");
        std::fs::write(&path, "{\"theirs\": 5.00, \"ours\": 1.00}\n").unwrap();
        let line = upsert_baseline(
            &path,
            &[("ours", Json::fixed(2.0, 2)), ("new", Json::fixed(3.0, 2))],
        )
        .unwrap();
        assert_eq!(line, "{\"theirs\": 5.00, \"ours\": 2.00, \"new\": 3.00}\n");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), line);
    }

    #[test]
    fn upsert_starts_from_empty_when_missing() {
        let path = scratch("fresh.json");
        let _ = std::fs::remove_file(&path);
        let line = upsert_baseline(&path, &[("only", Json::fixed(9.99, 2))]).unwrap();
        assert_eq!(line, "{\"only\": 9.99}\n");
    }

    #[test]
    fn committed_baseline_upserts_with_its_own_values_byte_identically() {
        let committed = include_str!("../../../BENCH_simperf.json");
        let Json::Obj(fields) = parse_baseline(committed).unwrap() else {
            panic!("flat object")
        };
        let entries: Vec<(&str, Json)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let path = scratch("committed.json");
        std::fs::write(&path, committed).unwrap();
        assert_eq!(upsert_baseline(&path, &entries).unwrap(), committed);
    }

    #[test]
    fn upsert_refuses_a_malformed_file_and_leaves_it_untouched() {
        for (name, text) in [
            ("truncated.json", "{\"theirs\": 5.00, \"ours\": 1."),
            ("nested.json", "{\"theirs\": {\"x\": 1}, \"ours\": 1.00}\n"),
            ("array.json", "[1, 2]\n"),
        ] {
            let path = scratch(name);
            std::fs::write(&path, text).unwrap();
            let err = upsert_baseline(&path, &[("ours", Json::fixed(2.0, 2))]).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{name}: {err}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "{name}");
        }
    }
}
