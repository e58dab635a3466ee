//! Exporters: Chrome `trace_event` JSON, flat CSV, and the text summary.
//!
//! The Chrome format is the JSON array flavour documented for
//! `chrome://tracing` / Perfetto: compartment spans become `"B"`/`"E"`
//! duration events on one track per thread, and point events (traps,
//! allocator activity, revoker epochs, load-filter strips) become `"i"`
//! instant events on synthetic tracks. Timestamps map simulated cycles to
//! microseconds 1:1, so "1 ms" in the viewer is 1000 simulated cycles.

use crate::event::{EventKind, TraceEvent};
use crate::json;
use crate::metrics::MetricsRegistry;

/// Synthetic track for machine-level point events (traps, interrupts,
/// posture changes, load-filter strips, retired instructions).
pub const TRACK_MACHINE: u32 = 0xffff;
/// Synthetic track for heap events (malloc/free/quarantine).
pub const TRACK_HEAP: u32 = 0xfffe;
/// Synthetic track for revoker epoch events.
pub const TRACK_REVOKER: u32 = 0xfffd;
/// Synthetic track for device-bus events (MMIO dispatches, DMA
/// transfers, device IRQ latches). Event names carry the device's
/// registered display name (`uart: mmio_write`).
pub const TRACK_DEVICE: u32 = 0xfffc;

fn args_json(kind: &EventKind) -> String {
    let fields: Vec<String> = kind
        .fields()
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn record(out: &mut Vec<String>, name: &str, ph: &str, ts: u64, tid: u32, args: String) {
    out.push(format!(
        "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"args\":{args}}}",
        json::escape(name)
    ));
}

/// Render events as a Chrome `trace_event` JSON document
/// (`{"traceEvents":[...]}`), loadable in `chrome://tracing` or Perfetto.
///
/// The registry supplies display names for compartments and threads; pass
/// a default registry if no names were registered.
pub fn chrome_trace_json(events: &[TraceEvent], metrics: &MetricsRegistry) -> String {
    let mut out: Vec<String> = Vec::with_capacity(events.len() + 8);

    // Track-name metadata. Collect the thread ids that actually appear.
    let mut tids: Vec<u32> = events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::CompartmentEnter { thread, .. }
            | EventKind::CompartmentExit { thread, .. }
            | EventKind::ThreadSwitch { thread, .. } => Some(thread),
            _ => None,
        })
        .collect();
    tids.sort_unstable();
    tids.dedup();
    out.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"cheriot-sim\"}}"
            .to_string(),
    );
    for tid in &tids {
        out.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            json::escape(&metrics.thread_name(*tid))
        ));
    }
    for (tid, name) in [
        (TRACK_MACHINE, "machine"),
        (TRACK_HEAP, "heap"),
        (TRACK_REVOKER, "revoker"),
        (TRACK_DEVICE, "devices"),
    ] {
        out.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }

    for ev in events {
        let ts = ev.cycles;
        let args = args_json(&ev.kind);
        match ev.kind {
            EventKind::CompartmentEnter { thread, to, .. } => {
                record(&mut out, &metrics.comp_name(to), "B", ts, thread, args);
            }
            EventKind::CompartmentExit { thread, to, .. } => {
                record(&mut out, &metrics.comp_name(to), "E", ts, thread, args);
            }
            EventKind::ThreadSwitch { thread, .. } => {
                record(&mut out, "thread_switch", "i", ts, thread, args);
            }
            EventKind::Malloc { .. }
            | EventKind::Claim { .. }
            | EventKind::Free { .. }
            | EventKind::QuarantinePush { .. }
            | EventKind::QuarantineRelease { .. } => {
                record(&mut out, ev.kind.name(), "i", ts, TRACK_HEAP, args);
            }
            EventKind::RevokerStart { .. } | EventKind::RevokerFinish { .. } => {
                record(&mut out, ev.kind.name(), "i", ts, TRACK_REVOKER, args);
            }
            EventKind::MmioRead { dev, .. }
            | EventKind::MmioWrite { dev, .. }
            | EventKind::DmaTransfer { dev, .. }
            | EventKind::DeviceIrq { dev, .. } => {
                let name = format!("{}: {}", metrics.device_name(dev), ev.kind.name());
                record(&mut out, &name, "i", ts, TRACK_DEVICE, args);
            }
            _ => {
                record(&mut out, ev.kind.name(), "i", ts, TRACK_MACHINE, args);
            }
        }
    }

    format!("{{\"traceEvents\":[\n{}\n]}}\n", out.join(",\n"))
}

/// Render events as a flat CSV (`cycles,event,args`) with `;`-joined
/// `key=value` args.
pub fn csv(events: &[TraceEvent]) -> String {
    let mut out = String::from("cycles,event,args\n");
    for ev in events {
        let args: Vec<String> = ev
            .kind
            .fields()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.push_str(&format!(
            "{},{},{}\n",
            ev.cycles,
            ev.kind.name(),
            args.join(";")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycles: 5,
                kind: EventKind::ThreadSwitch {
                    thread: 0,
                    compartment: 0,
                },
            },
            TraceEvent {
                cycles: 10,
                kind: EventKind::CompartmentEnter {
                    thread: 0,
                    from: 0,
                    to: 1,
                },
            },
            TraceEvent {
                cycles: 20,
                kind: EventKind::Malloc { base: 64, size: 16 },
            },
            TraceEvent {
                cycles: 30,
                kind: EventKind::CompartmentExit {
                    thread: 0,
                    from: 0,
                    to: 1,
                },
            },
        ]
    }

    #[test]
    fn chrome_json_has_b_e_pairs_and_metadata() {
        let mut m = MetricsRegistry::new();
        m.set_comp_name(1, "alloc");
        m.set_thread_name(0, "net");
        let json = chrome_trace_json(&span_events(), &m);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"alloc\",\"ph\":\"B\",\"ts\":10"));
        assert!(json.contains("\"name\":\"alloc\",\"ph\":\"E\",\"ts\":30"));
        assert!(json.contains("\"name\":\"malloc\",\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"net\""));
        // Balanced B/E.
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 1);
    }

    #[test]
    fn csv_rows() {
        let text = csv(&span_events());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "cycles,event,args");
        assert_eq!(lines[2], "10,compartment_enter,thread=0;from=0;to=1");
        assert_eq!(lines[3], "20,malloc,base=64;size=16");
    }
}
