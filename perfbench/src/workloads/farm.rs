//! `farm`: a forked fleet under seeded host traffic, as
//! `cheriot_farm::run_farm` runs it, on 2 workers.
//!
//! Host traffic is injected on a fixed schedule of simulated rounds, not
//! host time. This is the only workload that exercises the NIC and DMA
//! devices, the fabric, the parallel scheduler and its barrier.
//! `Machine::run` is entered in 5k-cycle slices, so per-call overhead
//! matters more than steady-state dispatch, and forks read the warm
//! image's shared pages: the read-mostly use of the CoW layer.
//!
//! The untraced run times whole `run_farm` calls, and their boot and fork
//! on their own for `setup_s`. `run_farm` reports no per-round times, so
//! the traced pass drives the fleet round by round through the same
//! public calls `run_farm` makes and must reproduce its results.

use super::{kv, Measured, Traced};
use crate::clock::Stopwatch;
use crate::stats::median;
use crate::trace::{ledger, Tracer};
use cheriot_core::sched::work_steal_with;
use cheriot_core::{ExitReason, Machine, Snapshot};
use cheriot_farm::farm::comp;
use cheriot_farm::guest::{self, Mailbox};
use cheriot_farm::{boot_node_image, run_farm, FarmConfig, FarmReport, NetFabric};
use cheriot_soc::{net_flush_rx, net_host_rx_pending, net_push_rx, net_rx_dropped, net_take_tx};
use cheriot_trace::metrics::MetricsRegistry;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// A fleet small enough that a 30 s run holds 60 to 90 whole
/// `run_farm` calls, enough for a median and a p75 tail.
pub const DEVICES: usize = 64;
pub const WORKERS: usize = 2;
pub const ROUNDS: u32 = 50;

/// RX flushes per quantum, as `run_farm` interleaves them.
const RX_FLUSHES_PER_QUANTUM: u64 = 4;

/// `run_farm` calls a run makes at least.
const MIN_CALLS: usize = 3;

pub fn config(seed: u64) -> FarmConfig {
    FarmConfig {
        devices: DEVICES,
        workers: WORKERS,
        rounds: ROUNDS,
        seed,
        ..FarmConfig::default()
    }
}

struct Instance {
    m: Machine,
    inbox: Vec<Vec<u8>>,
    mb: Mailbox,
    dead: Option<ExitReason>,
}

struct QuantumOut {
    tx: Vec<Vec<u8>>,
    cycles: u64,
    instructions: u64,
    run_calls: u64,
    mb: Mailbox,
    exit: Option<ExitReason>,
    spans: Tracer,
}

/// The deterministic outcome of one farm run.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Outcome {
    total_cycles: u64,
    acks: u64,
    cross_instance_frames: u64,
    deliveries: u64,
    settle_rounds: u32,
    published: u64,
    lost: u64,
    rx_dropped: u64,
    dead: usize,
}

impl Outcome {
    fn passed(&self) -> bool {
        self.lost == 0 && self.rx_dropped == 0 && self.dead == 0 && self.cross_instance_frames > 0
    }

    fn of(r: &FarmReport) -> Outcome {
        Outcome {
            total_cycles: r.total_cycles,
            acks: r.fabric.acks,
            cross_instance_frames: r.fabric.cross_instance_frames,
            deliveries: r.fabric.deliveries,
            settle_rounds: r.settle_rounds,
            published: r.fabric.published_guest + r.fabric.published_host,
            lost: r.messages_lost,
            rx_dropped: r.net_rx_dropped,
            dead: r.dead_devices,
        }
    }

    fn fingerprint(&self) -> Vec<(String, String)> {
        vec![
            kv("total_cycles", self.total_cycles),
            kv("acks", self.acks),
            kv("cross_instance_frames", self.cross_instance_frames),
            kv("deliveries", self.deliveries),
            kv("settle_rounds", self.settle_rounds),
            kv("passed", self.passed()),
        ]
    }
}

/// One traced farm run: its outcome and layer counts.
struct Episode {
    outcome: Outcome,
    /// Per-layer counts, by metric name.
    values: Vec<(&'static str, f64)>,
    /// Parallel-phase spans, for the barrier-idle account.
    quanta: Vec<usize>,
}

/// The warm image and the forked fleet, set up as `run_farm` sets them
/// up: one image booted, every device forked from it and given its id.
struct Fleet {
    snap: Snapshot,
    instances: Vec<Mutex<Instance>>,
    fork_bytes: u64,
}

fn fork_fleet(cfg: &FarmConfig, tr: &mut Tracer) -> Result<Fleet, String> {
    let s = tr.enter("farm.registry.boot", 0);
    let snap = boot_node_image(cfg.core, topics(cfg), cfg.dispatch, cfg.sram_size, cfg.cow);
    tr.exit(s);
    let snap = snap?;
    let mut instances: Vec<Mutex<Instance>> = Vec::with_capacity(cfg.devices);
    let mut fork_bytes = 0u64;
    for i in 0..cfg.devices {
        let s = tr.enter("core.snapshot.fork", i as u64);
        let mut m = snap.to_machine();
        tr.exit(s);
        fork_bytes += m.snapshot_stats().bytes_copied;
        let s = tr.enter("core.machine.dma", i as u64);
        let id = m.dma_write(guest::MB_ID, &(i as u32 + 1).to_le_bytes());
        tr.exit(s);
        id.map_err(|e| format!("assigning id to device {i}: {e:?}"))?;
        instances.push(Mutex::new(Instance {
            m,
            inbox: Vec::new(),
            mb: Mailbox::default(),
            dead: None,
        }));
    }
    Ok(Fleet {
        snap,
        instances,
        fork_bytes,
    })
}

/// Topic partitions, as `run_farm` chooses them for `topics: 0`.
fn topics(cfg: &FarmConfig) -> u32 {
    (cfg.devices as u32 / 4).max(1)
}

/// One farm run driven round by round through the calls `run_farm`
/// makes, with spans around each.
fn episode(cfg: &FarmConfig, tr: &mut Tracer) -> Result<Episode, String> {
    let Fleet {
        snap,
        instances,
        fork_bytes,
    } = fork_fleet(cfg, tr)?;
    let topics = topics(cfg);

    let s = tr.enter("farm.fabric.new", 0);
    let mut fabric = NetFabric::new(cfg.devices, topics, cfg.seed);
    let mut fleet = MetricsRegistry::new();
    fleet.set_comp_name(comp::NET, "net");
    fleet.set_comp_name(comp::APP, "app");
    fleet.set_comp_name(comp::IDLE, "idle");
    tr.exit(s);
    let base_cycles = snap.cycles() * cfg.devices as u64;
    let (mut run_calls, mut instructions, mut frames_tx, mut route_calls) =
        (0u64, 0u64, 0u64, 0u64);
    let mut quanta = Vec::new();
    let mut quiesced = false;
    let mut settle_used = 0u32;
    let total_rounds = cfg.rounds + cfg.settle_rounds;
    let mut round = 0u32;
    while round < total_rounds {
        let req = u64::from(round);
        let r = tr.enter("req.round", req);
        let q = tr.enter("farm.round.quantum", req);
        quanta.extend(q);
        let mut outs = quantum(cfg, &instances, tr, req);
        for out in &mut outs {
            run_calls += out.run_calls;
            instructions += out.instructions;
            frames_tx += out.tx.len() as u64;
            tr.adopt(std::mem::replace(&mut out.spans, Tracer::new(false)), q);
        }
        tr.exit(q);

        let s = tr.enter("farm.round.serial", req);
        for (i, out) in outs.into_iter().enumerate() {
            let inst = &mut *instances[i].lock().expect("instance lock");
            let moved_frames = !out.tx.is_empty()
                || out.mb.rx_pub != inst.mb.rx_pub
                || out.mb.rx_ack != inst.mb.rx_ack;
            let comp_id = if moved_frames {
                comp::NET
            } else if out.mb.heartbeat != inst.mb.heartbeat {
                comp::APP
            } else {
                comp::IDLE
            };
            fleet.charge_compartment(comp_id, out.cycles);
            fleet.observe("quantum_cycles", out.cycles);
            if let Some(exit) = out.exit {
                inst.dead = Some(exit);
            }
            inst.mb = out.mb;
            for frame in &out.tx {
                let rs = tr.enter("farm.fabric.route", req);
                let deliveries = fabric.route(i, frame);
                route_calls += 1;
                for (dst, bytes) in deliveries {
                    if dst == i {
                        inst.inbox.push(bytes.to_vec());
                    } else {
                        instances[dst]
                            .lock()
                            .expect("instance lock")
                            .inbox
                            .push(bytes.to_vec());
                    }
                }
                tr.exit(rs);
            }
        }
        round += 1;
        if round < cfg.rounds {
            let hs = tr.enter("farm.fabric.host_publish", req);
            for _ in 0..cfg.host_rate {
                for (dst, bytes) in fabric.host_publish() {
                    instances[dst]
                        .lock()
                        .expect("instance lock")
                        .inbox
                        .push(bytes.to_vec());
                }
            }
            tr.exit(hs);
        }
        tr.exit(s);
        let mut drained = false;
        if round >= cfg.rounds {
            let s = tr.enter("farm.round.drain", req);
            if !quiesced {
                quiesced = true;
                for inst in &instances {
                    let inst = &mut *inst.lock().expect("instance lock");
                    inst.m
                        .dma_write(guest::MB_QUIESCE, &1u32.to_le_bytes())
                        .map_err(|e| format!("raising quiesce: {e:?}"))?;
                }
            } else {
                settle_used = round - cfg.rounds;
                drained = fabric.in_flight() == 0
                    && instances.iter().all(|inst| {
                        let inst = &mut *inst.lock().expect("instance lock");
                        inst.inbox.is_empty() && net_host_rx_pending(&mut inst.m) == 0
                    });
            }
            tr.exit(s);
        }
        tr.exit(r);
        if drained {
            break;
        }
    }

    let s = tr.enter("farm.aggregate", 0);
    let (mut total_cycles, mut rx_dropped, mut dead) = (0u64, 0u64, 0usize);
    let (mut cow_breaks, mut cow_bytes, mut shared_pages, mut unique_bytes) =
        (0u64, 0u64, 0u64, 0u64);
    for inst in &instances {
        let inst = &mut *inst.lock().expect("instance lock");
        rx_dropped += u64::from(net_rx_dropped(&mut inst.m));
        total_cycles += inst.m.cycles;
        let cow = inst.m.sram.cow_stats();
        cow_breaks += cow.breaks;
        cow_bytes += cow.bytes_copied;
        shared_pages += u64::from(inst.m.sram.shared_pages());
        unique_bytes += inst.m.sram.unique_resident_bytes();
        dead += usize::from(inst.dead.is_some());
    }
    tr.exit(s);
    let stats = fabric.stats();
    let outcome = Outcome {
        total_cycles: total_cycles.saturating_sub(base_cycles),
        acks: stats.acks,
        cross_instance_frames: stats.cross_instance_frames,
        deliveries: stats.deliveries,
        settle_rounds: settle_used,
        published: stats.published_guest + stats.published_host,
        lost: fabric.in_flight(),
        rx_dropped,
        dead,
    };
    let values = vec![
        ("core.machine.run_calls", run_calls as f64),
        ("core.machine.instructions", instructions as f64),
        ("core.machine.sim_cycles", outcome.total_cycles as f64),
        (
            "core.snapshot.fork_bytes_per_device",
            fork_bytes as f64 / cfg.devices as f64,
        ),
        ("core.mem.cow_breaks", cow_breaks as f64),
        ("core.mem.cow_bytes_copied", cow_bytes as f64),
        ("core.mem.shared_pages", shared_pages as f64),
        ("core.mem.unique_bytes", unique_bytes as f64),
        ("soc.net.frames_tx", frames_tx as f64),
        ("soc.net.rx_dropped", rx_dropped as f64),
        ("farm.fabric.route_calls", route_calls as f64),
        ("farm.fabric.deliveries", stats.deliveries as f64),
        (
            "farm.fabric.cross_instance_frames",
            stats.cross_instance_frames as f64,
        ),
    ];
    Ok(Episode {
        outcome,
        values,
        quanta,
    })
}

/// The parallel phase of one round: every instance takes its inbox, runs
/// one quantum in RX-flushed slices, and hands back what it sent.
fn quantum(
    cfg: &FarmConfig,
    instances: &[Mutex<Instance>],
    tr: &Tracer,
    req: u64,
) -> Vec<QuantumOut> {
    let next_tid = AtomicU32::new(1);
    work_steal_with(
        cfg.devices,
        cfg.workers,
        || next_tid.fetch_add(1, Ordering::Relaxed),
        |tid, i| {
            let mut wt = tr.worker(*tid);
            let item = wt.enter("req.device", req);
            let inst = &mut *instances[i].lock().expect("instance lock");
            let mut out = QuantumOut {
                tx: Vec::new(),
                cycles: 0,
                instructions: 0,
                run_calls: 0,
                mb: inst.mb,
                exit: None,
                spans: Tracer::new(false),
            };
            if inst.dead.is_none() {
                let s = wt.enter("soc.net.push_rx", i as u64);
                for frame in inst.inbox.drain(..) {
                    let _ = net_push_rx(&mut inst.m, frame);
                }
                wt.exit(s);
                let (before, before_instr) = (inst.m.cycles, inst.m.stats.instructions);
                let slice = (cfg.quantum / RX_FLUSHES_PER_QUANTUM).max(1);
                let mut exit = ExitReason::CycleLimit;
                for _ in 0..RX_FLUSHES_PER_QUANTUM {
                    let s = wt.enter("soc.net.flush_rx", i as u64);
                    net_flush_rx(&mut inst.m);
                    wt.exit(s);
                    let s = wt.enter("core.machine.run", i as u64);
                    exit = inst.m.run(slice);
                    wt.exit(s);
                    out.run_calls += 1;
                    if exit != ExitReason::CycleLimit {
                        break;
                    }
                }
                out.cycles = inst.m.cycles - before;
                out.instructions = inst.m.stats.instructions - before_instr;
                let s = wt.enter("soc.net.take_tx", i as u64);
                out.tx = net_take_tx(&mut inst.m);
                wt.exit(s);
                let s = wt.enter("core.machine.dma", i as u64);
                let mut raw = [0u8; guest::MB_LEN];
                if inst.m.dma_read(guest::MB_BASE, &mut raw).is_ok() {
                    out.mb = Mailbox::parse(&raw);
                }
                wt.exit(s);
                out.exit = (exit != ExitReason::CycleLimit).then_some(exit);
            }
            wt.exit(item);
            out.spans = wt;
            out
        },
    )
}

pub fn measure(seed: u64, seconds: u64) -> Result<Measured, String> {
    let cfg = config(seed);
    let mut off = Tracer::new(false);
    let mut problems = Vec::new();
    let mut first: Option<Outcome> = None;
    let clock = Stopwatch::start();
    let (mut setup_s, mut calls_ms) = (Vec::new(), Vec::new());
    let (mut device_s, mut acks) = (0.0, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    while clock.wall_s() < seconds as f64 || calls_ms.len() < MIN_CALLS {
        // Set-up, timed on its own: the boot and fork `run_farm` starts
        // with, through the same calls.
        let sw = Stopwatch::start();
        let fleet = fork_fleet(&cfg, &mut off)?;
        setup_s.push(sw.cpu_s());
        drop(fleet);

        let sw = Stopwatch::start();
        let report = run_farm(&cfg)?;
        let wall_s = sw.wall_s();
        let outcome = Outcome::of(&report);
        attempted += outcome.published;
        failed += outcome.lost + outcome.rx_dropped + outcome.dead as u64;
        calls_ms.push(wall_s * 1e3);
        device_s += report.device_seconds;
        acks += outcome.acks;
        match &first {
            None => {
                if !outcome.passed() {
                    problems.push(format!("run_farm did not pass: {outcome:?}"));
                }
                first = Some(outcome);
            }
            Some(f) if *f != outcome => problems.push(format!(
                "a repeated run_farm call gave {outcome:?}, the first {f:?}"
            )),
            Some(_) => {}
        }
    }
    let first = first.expect("at least one run_farm call");
    let wall_s = calls_ms.iter().sum::<f64>() * 1e-3;
    let device_s_per_s = device_s / wall_s;
    Ok(Measured {
        attempted,
        failed,
        unit: "message",
        problems,
        fingerprint: first.fingerprint(),
        replica: first.fingerprint(),
        setup_s,
        throughput: device_s_per_s,
        throughput_of: "simulated device-seconds per wall second of run_farm, over all calls",
        latencies_ms: calls_ms.clone(),
        request: "run_farm call (wall time)",
        named: vec![
            ("farm_device_s_per_s", device_s_per_s, "1"),
            ("farm_msgs_per_s", acks as f64 / wall_s, "1/s"),
        ],
        pass_wall_s: median(&calls_ms) * 1e-3,
    })
}

pub fn trace(seed: u64) -> Result<Traced, String> {
    let cfg = config(seed);
    let mut tr = Tracer::new(true);
    let pass = tr.enter("pass", 0);
    let ep = episode(&cfg, &mut tr)?;
    tr.exit(pass);
    let spans = tr.spans();
    // Barrier idle: in each parallel phase, worker time not spent on an
    // instance while the phase's slowest worker finishes.
    let mut busy = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.name == "req.device") {
        if let Some(p) = s.parent {
            busy[p] += s.end - s.start;
        }
    }
    let idle_ns: u64 = ep
        .quanta
        .iter()
        .map(|&q| {
            let capacity = (spans[q].end - spans[q].start) * WORKERS as u64;
            capacity.saturating_sub(busy[q])
        })
        .sum();
    let rows = ledger(spans);
    let incl = |n: &str| rows.get(n).map_or(0.0, |r| r.incl_s);
    let (quantum_s, serial_s) = (incl("farm.round.quantum"), incl("farm.round.serial"));
    let idle_s = idle_ns as f64 * 1e-9;
    let mut values = ep.values.clone();
    values.extend([
        ("farm.round.barrier_idle_s", idle_s),
        (
            "farm.serial_fraction",
            serial_s / (quantum_s + serial_s).max(1e-12),
        ),
        (
            "farm.barrier_idle_fraction",
            idle_s / (quantum_s * WORKERS as f64).max(1e-12),
        ),
    ]);
    Ok(Traced {
        tracer: tr,
        values,
        replica: ep.outcome.fingerprint(),
        base: format!(
            "one farm run: boot, fork of {DEVICES} devices, {ROUNDS} traffic rounds and {} settle rounds on {WORKERS} workers",
            ep.outcome.settle_rounds
        ),
    })
}
