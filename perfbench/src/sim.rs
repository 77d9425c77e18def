//! The simulator workloads: a matrix of (trace × design point × standard)
//! cells, each one `sdimm_system::runner::run` call.
//!
//! Three passes touch the cells, all one at a time on one thread:
//!
//! * the **timed** pass repeats the whole matrix until the run's seconds
//!   are used up (host time, tracing off);
//! * the **verification** pass reruns each completed cell through
//!   `run_audited`, replays its DRAM command streams through the DDR
//!   auditor, digests them, and checks the simulated statistics equal the
//!   timed pass's;
//! * the **traced** pass (`--trace 1`) replays the runner's layer calls
//!   one by one — LLC, then `Machine::request_traces`, then one plain
//!   `run` — inside spans, so each layer's host time is measured from
//!   outside the program.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dram_sim::spec::DramStandard;
use oram::types::OramConfig;
use sdimm_audit::ddr::DdrAuditor;
use sdimm_audit::oracle::{check_protocol, ProtocolKind};
use sdimm_system::llc::Llc;
use sdimm_system::machine::{Machine, MachineKind, SystemConfig};
use sdimm_system::runner::{self, RunResult};
use sdimm_telemetry::TraceSink;
use workloads::{spec, Trace};

use crate::report::{geomean, median, percentile, ratio, Digest, HostSpeed, Outcome, Spans};

/// One matrix cell: a trace run on one design point under one standard.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into [`SimSpec::traces`].
    pub trace: usize,
    /// Design point.
    pub kind: MachineKind,
    /// Memory standard of every DRAM channel.
    pub standard: DramStandard,
}

/// A generated simulator workload: the inputs and the cells that use them.
#[derive(Debug)]
pub struct SimSpec {
    /// Global ORAM tree.
    pub oram: OramConfig,
    /// Logical data blocks the traces address.
    pub data_blocks: u64,
    /// Low-power rank-subtree layout for the SDIMM design points.
    pub low_power: bool,
    /// Records that only warm the LLC.
    pub warmup: usize,
    /// Records simulated cycle-accurately per cell.
    pub measure: usize,
    /// Machine seed (ORAM leaf randomness), derived from the bench seed.
    pub machine_seed: u64,
    /// The generated traces.
    pub traces: Vec<Trace>,
    /// Cells, trace-major.
    pub cells: Vec<Cell>,
}

/// Mixes the benchmark seed with a stream index (splitmix64 finalizer),
/// so each trace gets its own seed and nearby bench seeds diverge.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The crossover trace subset: pointer-chasing, high-MLP, streaming.
const TRACES: [&str; 3] = spec::CROSSOVER;

fn generate(seed: u64, len: usize) -> Vec<Trace> {
    TRACES
        .iter()
        .enumerate()
        .map(|(i, name)| spec::generate(name, len, derive_seed(seed, i as u64)))
        .collect()
}

/// `paper-matrix`: the paper's double-channel evaluation on the full
/// tree (24 levels, 7 cached, 2^19 blocks, DDR3-1600), full LLC warm-up.
pub fn paper_matrix(seed: u64) -> SimSpec {
    let (warmup, measure) = (50_000, 500);
    let kinds = [
        MachineKind::NonSecure { channels: 2 },
        MachineKind::Freecursive { channels: 2 },
        MachineKind::Independent { sdimms: 4, channels: 2 },
        MachineKind::Split { ways: 4, channels: 2 },
        MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
    ];
    SimSpec {
        oram: OramConfig { levels: 24, cached_levels: 7, ..OramConfig::default() },
        data_blocks: 1 << 19,
        low_power: false,
        warmup,
        measure,
        machine_seed: derive_seed(seed, 100),
        traces: generate(seed, warmup + measure),
        cells: cells(&kinds, &[DramStandard::Ddr3_1600]),
    }
}

/// `standards-lowpower`: the quick tree (18 levels, 7 cached, 2^15
/// blocks) on single-channel design points, low-power layout on, over
/// DDR4-2400, LPDDR4-3200 and HBM2.
pub fn standards_lowpower(seed: u64) -> SimSpec {
    let (warmup, measure) = (3_000, 200);
    let kinds = [
        MachineKind::NonSecure { channels: 1 },
        MachineKind::Freecursive { channels: 1 },
        MachineKind::Independent { sdimms: 2, channels: 1 },
        MachineKind::Split { ways: 2, channels: 1 },
    ];
    let standards = [DramStandard::Ddr4_2400, DramStandard::Lpddr4_3200, DramStandard::Hbm2];
    SimSpec {
        oram: OramConfig { levels: 18, cached_levels: 7, ..OramConfig::default() },
        data_blocks: 1 << 15,
        low_power: true,
        warmup,
        measure,
        machine_seed: derive_seed(seed, 100),
        traces: generate(seed, warmup + measure),
        cells: cells(&kinds, &standards),
    }
}

fn cells(kinds: &[MachineKind], standards: &[DramStandard]) -> Vec<Cell> {
    let mut out = Vec::new();
    for trace in 0..TRACES.len() {
        for &standard in standards {
            for &kind in kinds {
                out.push(Cell { trace, kind, standard });
            }
        }
    }
    out
}

impl SimSpec {
    /// The system configuration of `cell`.
    pub fn cfg(&self, cell: &Cell) -> SystemConfig {
        SystemConfig {
            kind: cell.kind,
            oram: self.oram.clone(),
            data_blocks: self.data_blocks,
            standard: cell.standard,
            low_power: self.low_power,
            seed: self.machine_seed,
        }
    }

    /// `MACHINE / trace / standard`.
    pub fn label(&self, cell: &Cell) -> String {
        format!(
            "{} / {} / {}",
            cell.kind.name(),
            self.traces[cell.trace].name,
            cell.standard.name()
        )
    }

    /// One timed cell run; a panic becomes `Err(message)`.
    fn run_cell(&self, cell: &Cell) -> Result<RunResult, String> {
        let cfg = self.cfg(cell);
        let trace = &self.traces[cell.trace];
        catch_unwind(AssertUnwindSafe(|| runner::run(&cfg, trace, self.warmup, self.measure)))
            .map_err(panic_message)
    }

    /// Builds every cell's machine once (the set-up half of `setup_s`; the
    /// machines are dropped). A machine that cannot be built is left to
    /// fail in its cell.
    pub fn build_machines(&self) {
        for cell in &self.cells {
            let cfg = self.cfg(cell);
            let _ = catch_unwind(AssertUnwindSafe(|| std::hint::black_box(Machine::new(cfg))));
        }
    }
}

/// Text of a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic with a non-string payload".to_string())
}

/// Result of the timed pass.
#[derive(Debug)]
pub struct Timed {
    /// First-pass outcome of every cell.
    pub results: Vec<Result<RunResult, String>>,
    /// Host seconds of each completed cell, one entry per pass.
    pub cell_secs: Vec<Vec<f64>>,
    /// The same, each scaled by the host-speed factor sampled just before it.
    pub cell_scaled: Vec<Vec<f64>>,
    /// Whole passes over the matrix.
    pub passes: usize,
    /// Cells that completed in the first pass but later panicked or
    /// produced different simulated statistics.
    pub failures: Vec<(usize, String)>,
    /// Host speed, sampled before every cell run.
    pub speed: HostSpeed,
}

impl Timed {
    /// Median host seconds of cell `i` over the passes.
    pub fn cell_median(&self, i: usize) -> f64 {
        median(&self.cell_secs[i])
    }

    /// Median host seconds of cell `i` over the passes, at reference speed.
    pub fn cell_scaled_median(&self, i: usize) -> f64 {
        median(&self.cell_scaled[i])
    }
}

/// Repeats the matrix until `seconds` have passed (at least one whole
/// pass; passes are never cut short, so every cell gets the same number
/// of repeats). Cells that panic in the first pass are not retried.
pub fn timed(spec: &SimSpec, seconds: f64) -> Timed {
    let start = Instant::now();
    let mut results: Vec<Result<RunResult, String>> = Vec::new();
    let mut cell_secs = vec![Vec::new(); spec.cells.len()];
    let mut cell_scaled = vec![Vec::new(); spec.cells.len()];
    let mut passes = 0;
    let mut failures = Vec::new();
    let mut speed = HostSpeed::default();
    loop {
        for (i, cell) in spec.cells.iter().enumerate() {
            if results.get(i).is_some_and(Result::is_err) {
                continue;
            }
            let k = speed.sample();
            let t = Instant::now();
            let out = spec.run_cell(cell);
            let dt = t.elapsed().as_secs_f64();
            if out.is_ok() {
                cell_secs[i].push(dt);
                cell_scaled[i].push(dt * k);
            }
            match (results.get(i), out) {
                (None, out) => results.push(out),
                (Some(Ok(first)), Ok(again)) if sim_stats(first) != sim_stats(&again) => {
                    failures.push((i, "simulated statistics changed between timed passes".into()))
                }
                (Some(_), Err(msg)) => {
                    failures.push((i, format!("panicked in a later pass: {msg}")))
                }
                _ => {}
            }
        }
        passes += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Timed { results, cell_secs, cell_scaled, passes, failures, speed }
}

/// Everything the verification pass found.
#[derive(Debug, Default)]
pub struct Verification {
    /// Identity digest over every verified cell's command streams and
    /// simulated statistics, in cell order.
    pub digest: u64,
    /// Cells whose streams were audited.
    pub cells: usize,
    /// DRAM commands replayed through the auditor.
    pub commands: u64,
    /// Per failing cell: (cell index, what failed).
    pub failures: Vec<(usize, String)>,
}

/// The simulated statistics a faster simulator must leave unchanged.
fn sim_stats(r: &RunResult) -> [u64; 5] {
    [r.cycles, r.records, r.llc_misses, r.dram_lines, r.energy.total_nj().to_bits()]
}

/// Reruns each cell that completed in `reference` with DRAM command
/// capture, audits and digests its streams, and checks its simulated
/// statistics match `reference`.
pub fn verify(spec: &SimSpec, reference: &[Result<RunResult, String>]) -> Verification {
    let mut v = Verification::default();
    let mut digest = Digest::default();
    for (i, (cell, expected)) in spec.cells.iter().zip(reference).enumerate() {
        let Ok(expected) = expected else { continue };
        let cfg = spec.cfg(cell);
        let trace = &spec.traces[cell.trace];
        let audited = catch_unwind(AssertUnwindSafe(|| {
            runner::run_audited(&cfg, trace, spec.warmup, spec.measure, TraceSink::disabled(), 0)
        }));
        let (result, capture) = match audited {
            Ok(out) => out,
            Err(p) => {
                v.failures.push((i, format!("verification run panicked: {}", panic_message(p))));
                continue;
            }
        };
        v.cells += 1;
        let mut cell_digest = Digest::default();
        cell_digest.bytes(spec.label(cell).as_bytes());
        for (ch, stream) in capture.streams.iter().enumerate() {
            match DdrAuditor::check_stream_indexed(&capture.channel_cfg, stream) {
                Ok(summary) => v.commands += summary.commands,
                Err((idx, violation)) => v
                    .failures
                    .push((i, format!("DDR auditor: channel {ch} command {idx}: {violation}"))),
            }
            cell_digest.u64(stream.len() as u64);
            for rec in stream {
                cell_digest.cmd(rec);
            }
        }
        for s in sim_stats(&result) {
            cell_digest.u64(s);
        }
        if sim_stats(&result) != sim_stats(expected) {
            v.failures.push((
                i,
                format!(
                    "simulated statistics differ from the timed run: {:?} vs {:?}",
                    sim_stats(&result),
                    sim_stats(expected)
                ),
            ));
        }
        digest.u64(cell_digest.value());
    }
    v.digest = digest.value();
    v
}

/// The oracle configuration exercising the same protocol as `kind`.
fn oracle_kind(kind: &MachineKind) -> Option<ProtocolKind> {
    match *kind {
        MachineKind::NonSecure { .. } => None,
        MachineKind::PathOram { .. } => Some(ProtocolKind::PathOram { sealed: false }),
        MachineKind::Freecursive { .. } => Some(ProtocolKind::Freecursive { tiny_plb: false }),
        MachineKind::Independent { sdimms, .. } => Some(ProtocolKind::Independent { sdimms }),
        MachineKind::Split { ways, .. } => Some(ProtocolKind::Split { ways }),
        MachineKind::IndepSplit { groups, ways, .. } => {
            Some(ProtocolKind::IndepSplit { groups, ways })
        }
    }
}

/// Runs the shadow-memory oracle once per protocol kind in `kinds`
/// (plus `extra`) on a small tree. Returns each kind that diverged or
/// panicked, with the reason, and prints one line per kind.
pub fn oracle(
    kinds: &[MachineKind],
    extra: &[ProtocolKind],
    seed: u64,
) -> Vec<(ProtocolKind, String)> {
    let cfg = OramConfig { levels: 10, stash_limit: 100, ..OramConfig::default() };
    let mut protocols: Vec<ProtocolKind> = Vec::new();
    for p in kinds.iter().filter_map(oracle_kind).chain(extra.iter().cloned()) {
        if !protocols.contains(&p) {
            protocols.push(p);
        }
    }
    let mut bad = Vec::new();
    for p in protocols {
        let out = catch_unwind(AssertUnwindSafe(|| check_protocol(&p, &cfg, 512, 300, seed)));
        match out {
            Ok(Ok(rep)) => println!("oracle {p}: {} requests in lockstep, clean", rep.steps),
            Ok(Err(m)) => {
                println!("oracle {p}: MISMATCH {m}");
                bad.push((p, m.to_string()));
            }
            Err(payload) => {
                let msg = panic_message(payload);
                println!("oracle {p}: PANIC {msg}");
                bad.push((p, msg));
            }
        }
    }
    bad
}

/// Cells whose protocol the oracle flagged.
pub fn oracle_failures(spec: &SimSpec, bad: &[(ProtocolKind, String)]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, cell) in spec.cells.iter().enumerate() {
        if let Some(p) = oracle_kind(&cell.kind) {
            if let Some((_, why)) = bad.iter().find(|(k, _)| *k == p) {
                out.push((i, format!("oracle {p}: {why}")));
            }
        }
    }
    out
}

/// Per-layer totals over the cells of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Cells replayed without a panic.
    pub cells: u64,
    /// Outcome of each cell's plain `run` (the verification reference).
    pub results: Vec<Result<RunResult, String>>,
    /// Host seconds in the LLC replay.
    pub llc_s: f64,
    /// Host seconds in `Machine::request_traces`.
    pub plan_s: f64,
    /// Host seconds in the plain `run`.
    pub run_s: f64,
    /// Measured records and the LLC misses among them.
    pub records: u64,
    /// Demand LLC misses in the measured window.
    pub misses: u64,
    /// LLC requests planned: demand misses plus dirty write-backs.
    pub requests: u64,
    /// Request traces (chained `accessORAM` parts) the planner returned.
    pub parts: u64,
    /// DRAM lines the replayed plans carry.
    pub plan_lines: u64,
    /// DRAM lines the timed-equivalent run reports.
    pub run_lines: u64,
    /// Peak stash occupancy over every cell.
    pub stash_peak: u64,
    /// PLB hits and misses summed over cells.
    pub plb_hits: u64,
    /// PLB misses summed over cells.
    pub plb_misses: u64,
    /// DRAM scheduler invocations summed over channels and cells.
    pub sched: u64,
    /// Row hits / all row outcomes summed over channels and cells.
    pub row_hits: u64,
    /// Row outcomes (hits + misses + conflicts).
    pub row_outcomes: u64,
    /// Row activations.
    pub activations: u64,
    /// Executor backend conflicts.
    pub backend_conflicts: u64,
    /// Sum and count of per-cell bus utilization gauges.
    pub bus_util_sum: f64,
    /// Cells that reported a bus utilization.
    pub bus_util_cells: u64,
    /// Cells whose replayed plan lines differ from `RunResult::dram_lines`.
    pub crosscheck_failures: Vec<(usize, String)>,
}

/// Replays each cell's layer calls in the order the runner makes them,
/// each inside a span: the LLC over the trace (giving the miss list),
/// `Machine::request_traces` on a fresh machine over that list, then
/// one plain `run` whose metrics supply the counters.
pub fn traced(spec: &SimSpec, spans: &mut Spans) -> Layers {
    let mut l = Layers::default();
    for (i, cell) in spec.cells.iter().enumerate() {
        let cfg = spec.cfg(cell);
        let trace = &spec.traces[cell.trace];
        let cell_span = spans.open("cell", None);
        let replay = catch_unwind(AssertUnwindSafe(|| {
            let (requests, llc_span) = spans.time("llc", Some(cell_span), || {
                let mut llc = Llc::table2();
                for r in &trace.records[..spec.warmup] {
                    llc.warm(r.addr, r.is_write);
                }
                let mut requests = Vec::new();
                for r in &trace.records[spec.warmup..spec.warmup + spec.measure] {
                    let a = llc.access(r.addr, r.is_write);
                    if !a.hit {
                        requests.push((r.addr, r.is_write));
                        if let Some(victim) = a.writeback {
                            requests.push((victim, true));
                        }
                    }
                }
                (requests, llc.stats().misses)
            });
            let (requests, misses) = requests;
            let mut machine = Machine::new(cfg.clone());
            let ((parts, lines), plan_span) = spans.time("plan", Some(cell_span), || {
                let (mut parts, mut lines) = (0u64, 0u64);
                for &(addr, is_write) in &requests {
                    let traces = machine.request_traces(addr, is_write);
                    parts += traces.len() as u64;
                    lines += traces.iter().map(|t| t.dram_lines()).sum::<u64>();
                }
                (parts, lines)
            });
            let stash_peak = machine.stash_peak() as u64;
            drop(machine);
            let (result, run_span) = spans.time("run", Some(cell_span), || {
                runner::run(&cfg, trace, spec.warmup, spec.measure)
            });
            (
                requests.len() as u64,
                misses,
                parts,
                lines,
                stash_peak,
                result,
                llc_span,
                plan_span,
                run_span,
            )
        }));
        spans.close(cell_span);
        let (requests, misses, parts, lines, stash_peak, r, llc_span, plan_span, run_span) =
            match replay {
                Ok(out) => out,
                Err(p) => {
                    l.results.push(Err(panic_message(p)));
                    continue;
                }
            };
        l.llc_s += spans.secs(llc_span);
        l.plan_s += spans.secs(plan_span);
        l.run_s += spans.secs(run_span);
        l.records += r.records;
        l.misses += misses;
        l.requests += requests;
        l.parts += parts;
        l.plan_lines += lines;
        l.run_lines += r.dram_lines;
        if lines != r.dram_lines || misses != r.llc_misses {
            l.crosscheck_failures.push((
                i,
                format!(
                    "planning replay issued {lines} lines for {misses} misses; the run reports {} lines for {} misses",
                    r.dram_lines, r.llc_misses
                ),
            ));
        }
        l.stash_peak = l.stash_peak.max(stash_peak);
        let m = &r.metrics;
        l.cells += 1;
        l.plb_hits += m.counter("plb.hits");
        l.plb_misses += m.counter("plb.misses");
        l.backend_conflicts += m.counter("exec.backend_conflicts");
        if m.get("bus.utilization").is_some() {
            l.bus_util_sum += m.gauge("bus.utilization");
            l.bus_util_cells += 1;
        }
        for ch in 0..cell.kind.executor_channels() {
            let c = |k: &str| m.counter(&format!("dram.chan{ch}.{k}"));
            l.sched += c("scheduler_invocations");
            l.row_hits += c("row_hits");
            l.row_outcomes += c("row_hits") + c("row_misses") + c("row_conflicts");
            l.activations += c("activations");
        }
        l.results.push(Ok(r));
    }
    l
}

/// Prints each failing cell once and marks it in `failed`.
pub fn report_failures(spec: &SimSpec, failures: &[(usize, String)], failed: &mut [bool]) {
    for (i, why) in failures {
        println!("FAILED {}: {why}", spec.label(&spec.cells[*i]));
        failed[*i] = true;
    }
}

/// Host figures of a timed pass: (records/s, LLC misses/s, p50 and p99
/// host µs per miss over cells), from each completed cell's time `secs(i)`.
fn host_figures(t: &Timed, secs: impl Fn(usize) -> f64) -> [f64; 4] {
    let done: Vec<(usize, &RunResult)> =
        t.results.iter().enumerate().filter_map(|(i, r)| r.as_ref().ok().map(|r| (i, r))).collect();
    let total: f64 = done.iter().map(|(i, _)| secs(*i)).sum();
    let records: u64 = done.iter().map(|(_, r)| r.records).sum();
    let misses: u64 = done.iter().map(|(_, r)| r.llc_misses).sum();
    let per_miss: Vec<f64> =
        done.iter().map(|(i, r)| ratio(secs(*i) * 1e6, r.llc_misses as f64)).collect();
    [
        ratio(records as f64, total),
        ratio(misses as f64, total),
        percentile(&per_miss, 0.5),
        percentile(&per_miss, 0.99),
    ]
}

/// Adds the host end-to-end metrics of a timed pass to `out`: each
/// completed cell's median over the passes of its host time scaled to
/// the reference host speed, pooled over cells. Prints the unscaled
/// figures beside them.
pub fn host_metrics(t: &Timed, out: &mut Outcome) {
    let [rps, aps, p50, p99] = host_figures(t, |i| t.cell_median(i));
    println!(
        "unscaled host figures: records_per_s {rps:.1}, accesses_per_s {aps:.1}, access_p50_us {p50:.1}, \
         access_p99_us {p99:.1}; median host speed factor {:.4} from {} reference samples",
        t.speed.factor(),
        t.speed.len()
    );
    let [rps, aps, p50, p99] = host_figures(t, |i| t.cell_scaled_median(i));
    let n = t.results.iter().filter(|r| r.is_ok()).count();
    let how =
        format!("{n} completed cells, median of {} passes, at reference host speed", t.passes);
    out.push("records_per_s", rps, "records/s", "host", format!("pooled over {how}"));
    out.push(
        "accesses_per_s",
        aps,
        "accesses/s",
        "host",
        format!("LLC misses served, pooled over {how}"),
    );
    out.push("access_p50_us", p50, "us", "host", format!("host us per LLC miss, over {how}"));
    out.push("access_p99_us", p99, "us", "host", format!("host us per LLC miss, over {how}"));
}

/// Adds the simulated end-to-end metrics of the completed cells to `out`.
pub fn sim_metrics(results: &[Result<RunResult, String>], note: &str, out: &mut Outcome) {
    let done: Vec<&RunResult> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let cpr: Vec<f64> = done.iter().map(|r| r.cycles_per_record()).collect();
    let epr: Vec<f64> = done.iter().map(|r| r.energy_per_record_nj()).collect();
    let n = done.len();
    out.push(
        "sim_cycles_per_record",
        geomean(&cpr),
        "cycles",
        "simulated",
        format!("bus cycles, geomean over {n} completed cells{note}"),
    );
    out.push(
        "sim_energy_nj_per_record",
        geomean(&epr),
        "nJ",
        "simulated",
        format!("geomean over {n} completed cells{note}"),
    );
}

/// Adds the per-layer metrics of a traced pass to `out`.
pub fn per_layer(l: &Layers, out: &mut Outcome) {
    let engine_s = (l.run_s - l.llc_s - l.plan_s).max(0.0);
    let req = l.requests as f64;
    out.push("llc.host_s", l.llc_s, "s", "host", "LLC warm + access replay");
    out.push(
        "llc.miss_rate",
        ratio(l.misses as f64, l.records as f64),
        "ratio",
        "simulated",
        "demand misses per measured record",
    );
    out.push("plan.host_s", l.plan_s, "s", "host", "Machine::request_traces over the miss list");
    out.push(
        "plan.us_per_request",
        ratio(l.plan_s * 1e6, req),
        "us",
        "host",
        format!("{} LLC requests", l.requests),
    );
    out.push(
        "plan.accesses_per_request",
        ratio(l.parts as f64, req),
        "count",
        "simulated",
        "request traces per LLC request",
    );
    out.push(
        "plan.dram_lines_per_request",
        ratio(l.plan_lines as f64, req),
        "lines",
        "simulated",
        "",
    );
    out.push("oram.stash_peak", l.stash_peak as f64, "blocks", "simulated", "max over cells");
    out.push(
        "oram.plb_hit_rate",
        ratio(l.plb_hits as f64, (l.plb_hits + l.plb_misses) as f64),
        "ratio",
        "simulated",
        "pooled over cells",
    );
    out.push("engine.host_s", engine_s, "s", "host", "run - LLC - planning");
    out.push(
        "engine.ns_per_dram_line",
        ratio(engine_s * 1e9, l.run_lines as f64),
        "ns",
        "host",
        format!("{} DRAM lines", l.run_lines),
    );
    out.push(
        "dram.sched_invocations_per_line",
        ratio(l.sched as f64, l.run_lines as f64),
        "count",
        "simulated",
        "",
    );
    out.push(
        "dram.row_hit_rate",
        ratio(l.row_hits as f64, l.row_outcomes as f64),
        "ratio",
        "simulated",
        "",
    );
    out.push(
        "dram.activations_per_line",
        ratio(l.activations as f64, l.run_lines as f64),
        "count",
        "simulated",
        "",
    );
    out.push(
        "exec.backend_conflicts",
        l.backend_conflicts as f64,
        "count",
        "simulated",
        "summed over cells",
    );
    out.push(
        "bus.utilization",
        ratio(l.bus_util_sum, l.bus_util_cells as f64),
        "ratio",
        "simulated",
        format!("mean over {} cells", l.bus_util_cells),
    );
}

/// Paper Fig 9 reductions in normalized execution time over
/// FREECURSIVE-2ch, printed beside the simulated ones as a shape
/// reference only.
const FIG9_PAPER: [(&str, f64); 3] = [("INDEP-4", 20.3), ("SPLIT-4", 20.4), ("INDEP-SPLIT", 47.4)];

/// Prints the Fig 9 accuracy context for a matrix holding
/// FREECURSIVE-2ch (no-op otherwise).
pub fn print_fig9_context(spec: &SimSpec, results: &[Result<RunResult, String>]) {
    let cpr = |name: &str| -> Vec<Option<f64>> {
        (0..spec.traces.len())
            .map(|t| {
                spec.cells.iter().zip(results).find_map(|(c, r)| {
                    (c.trace == t && c.kind.name() == name)
                        .then(|| r.as_ref().ok().map(RunResult::cycles_per_record))
                        .flatten()
                })
            })
            .collect()
    };
    let base = cpr("FREECURSIVE-2ch");
    if base.iter().all(Option::is_none) {
        return;
    }
    println!("accuracy context: Fig 9 reduction in cycles/record over FREECURSIVE-2ch");
    println!("  (shape reference only; the model is unvalidated against hardware, no error figure is claimed)");
    for (name, paper) in FIG9_PAPER {
        let ratios: Option<Vec<f64>> =
            cpr(name).iter().zip(&base).map(|(x, b)| Some(x.as_ref()? / b.as_ref()?)).collect();
        let sim = match ratios {
            Some(r) if !r.is_empty() => format!("{:.1}%", (1.0 - geomean(&r)) * 100.0),
            _ => "n/a (cells failed)".to_string(),
        };
        println!("  {name:<12} paper {paper:>5.1}%   simulated {sim}");
    }
}
