//! # cheriot-trace — structured tracing, metrics, and profiling
//!
//! A zero-cost-when-disabled observability layer for the CHERIoT
//! simulator stack. The host machine owns an `Option<Box<Tracer>>`; every
//! emission site is one branch on that `Option`, so a machine with no
//! tracer installed pays nothing beyond the (pre-existing) branch.
//!
//! * [`event`] — the typed event vocabulary ([`TraceEvent`] /
//!   [`EventKind`]): instruction retire, traps, interrupt delivery and
//!   posture changes, compartment-switch spans, thread scheduling,
//!   allocator and quarantine activity, revoker epochs, load-filter hits.
//! * [`metrics`] — counters, log2 histograms, and per-compartment /
//!   per-thread cycle attribution derived from switch spans.
//! * [`export`] — Chrome `trace_event` JSON (for `chrome://tracing` /
//!   Perfetto), flat CSV, and a text summary table.
//! * [`json`] — the workspace's one JSON codec: the typed [`json::Json`]
//!   tree every report renders through and every JSON input (machine
//!   manifests, the benchmark trajectory file) is parsed by.
//!
//! The [`Tracer`] ties these together: it forwards each emitted event to
//! the metrics registry, then buffers it according to its recording
//! policy (instruction-retire events are high-volume and can be buffered
//! or merely counted) in one event buffer, bounded or not.

#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;

pub use event::{EventKind, TraceEvent};
pub use metrics::{DeviceActivity, Histogram, MetricsRegistry};

use std::collections::VecDeque;

/// Front-end the simulated machine talks to: recording policy + metrics
/// registry + event buffer.
#[derive(Debug)]
pub struct Tracer {
    /// Recorded events, oldest first. Holds at most `depth`; recording
    /// into a full buffer evicts the oldest event.
    buf: VecDeque<TraceEvent>,
    /// Buffer capacity: `usize::MAX` is unbounded, 0 records nothing.
    depth: usize,
    /// Events accepted into the buffer over the tracer's lifetime.
    recorded: u64,
    /// Counters, histograms and cycle attribution (always fed).
    pub metrics: MetricsRegistry,
    /// Buffer instruction-retire events? They dominate event volume, so
    /// timeline traces usually leave them out (the metrics instruction
    /// counter still advances).
    record_instrs: bool,
    /// Buffer everything that is not an instruction-retire event?
    record_others: bool,
}

impl Tracer {
    fn new(depth: usize, record_instrs: bool, record_others: bool) -> Tracer {
        Tracer {
            buf: VecDeque::new(),
            depth,
            recorded: 0,
            metrics: MetricsRegistry::new(),
            record_instrs,
            record_others,
        }
    }

    /// The classic instruction ring: keep the last `depth`
    /// instruction-retire events, buffer nothing else.
    pub fn instr_ring(depth: usize) -> Tracer {
        Tracer::new(depth, true, false)
    }

    /// Timeline configuration: buffer every structured event except
    /// instruction retires. The right choice for Chrome-trace export of
    /// long runs.
    pub fn timeline() -> Tracer {
        Tracer::new(usize::MAX, false, true)
    }

    /// Buffer absolutely everything, instruction retires included. Only
    /// for short runs.
    pub fn full() -> Tracer {
        Tracer::new(usize::MAX, true, true)
    }

    /// Emit one event stamped at `cycles`. Metrics always observe it; the
    /// buffer receives it subject to the recording policy. Never inlined:
    /// emission sites sit in the engine's hot loops, and each must stay
    /// one branch on the machine's tracer `Option` plus a call.
    #[inline(never)]
    pub fn emit(&mut self, cycles: u64, kind: EventKind) {
        let ev = TraceEvent { cycles, kind };
        self.metrics.observe_event(&ev);
        let record = match kind {
            EventKind::InstrRetired { .. } => self.record_instrs,
            _ => self.record_others,
        };
        if record && self.depth > 0 {
            if self.buf.len() == self.depth {
                self.buf.pop_front();
            }
            self.buf.push_back(ev);
            self.recorded += 1;
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.iter().copied().collect()
    }

    /// Total events the buffer accepted (not the number still buffered).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Close out a run: settle cycle attribution up to the machine's
    /// final cycle counter.
    pub fn finish(&mut self, cycles: u64) {
        self.metrics.settle(cycles);
    }

    /// Export the buffered events as Chrome `trace_event` JSON.
    pub fn chrome_json(&self) -> String {
        export::chrome_trace_json(&self.events(), &self.metrics)
    }

    /// Export the buffered events as flat CSV.
    pub fn csv(&self) -> String {
        export::csv(&self.events())
    }

    /// Render the metrics registry as a text summary table.
    pub fn summary(&self) -> String {
        self.metrics.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_policy_filters_instrs() {
        let mut t = Tracer::timeline();
        t.emit(1, EventKind::InstrRetired { pc: 0x1000_0000 });
        t.emit(
            2,
            EventKind::Trap {
                pc: 0x1000_0004,
                mcause: 11,
            },
        );
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.metrics.counter("instr_retired"), 1);
        assert_eq!(t.metrics.counter("trap"), 1);
    }

    #[test]
    fn instr_ring_keeps_last_n_instrs_only() {
        let mut t = Tracer::instr_ring(2);
        for i in 0..4u32 {
            t.emit(
                i as u64,
                EventKind::InstrRetired {
                    pc: 0x1000_0000 + 4 * i,
                },
            );
        }
        t.emit(9, EventKind::InterruptPosture { enabled: false });
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::InstrRetired { pc: 0x1000_0008 });
        assert_eq!(evs[1].kind, EventKind::InstrRetired { pc: 0x1000_000c });
        assert_eq!(t.recorded(), 4, "evicted events still count as recorded");
        assert_eq!(t.metrics.counter("interrupt_posture"), 1);

        let mut none = Tracer::instr_ring(0);
        none.emit(1, EventKind::InstrRetired { pc: 0x1000_0000 });
        assert!(none.events().is_empty());
        assert_eq!(none.recorded(), 0);
        assert_eq!(none.metrics.counter("instr_retired"), 1);
    }
}
