//! Parallel experiment matrix runner.

use std::sync::Mutex;

use sdimm_system::machine::{MachineKind, SystemConfig};
use sdimm_system::runner::{run_with, RunResult, RunSpec};
use sdimm_telemetry::Instruments;
use workloads::spec;

use crate::audit::{self, DdrAuditLog};
use crate::cli::TelemetryArgs;
use crate::scale::Scale;

/// One measured cell of an experiment matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// Machine/design-point name.
    pub machine: String,
    /// The full run result.
    pub result: RunResult,
}

/// Runs every (workload × machine) combination in parallel and returns
/// the cells in deterministic (workload-major) order.
///
/// Concurrency is bounded by [`std::thread::available_parallelism`]:
/// jobs are pulled from a shared queue by a fixed pool of workers, so a
/// large matrix never spawns more threads than the machine has cores.
///
/// `make_cfg` builds the system configuration for a machine kind —
/// letting callers vary cached levels, low-power mode, etc. Each cell
/// gets its own trace process id (`pid_base` + its matrix order), named
/// `"<machine> / <workload>"`, so one Chrome trace (and one
/// flight-recorder ring per cell) holds the whole matrix side by side.
/// Callers invoking this repeatedly on one bundle should advance
/// `pid_base` past the previous matrix's cell count to keep process ids
/// distinct. Every disabled instrument costs one branch per touchpoint.
///
/// With `--audit` ([`TelemetryArgs::audit`]) every cell's DRAM command
/// streams are replayed through the differential DDR auditor as the
/// cell finishes, inside its worker, and dropped at once, so memory
/// stays bounded by one cell's traffic per worker. The matrix's ORAM
/// protocols are then lockstep-checked against a shadow memory, and any
/// violation fails the process (see [`audit::conclude`]).
pub fn run_matrix(
    args: &TelemetryArgs,
    workload_names: &[&str],
    kinds: &[MachineKind],
    scale: Scale,
    make_cfg: impl Fn(MachineKind) -> SystemConfig + Sync,
    instruments: &Instruments,
    pid_base: u32,
) -> Vec<Cell> {
    let warmup = scale.warmup();
    let measure = scale.measure();
    let trace_len = scale.trace_len();

    // (order, workload index, workload name, machine kind)
    let jobs: Vec<(usize, usize, &str, MachineKind)> = workload_names
        .iter()
        .enumerate()
        .flat_map(|(wi, wname)| kinds.iter().copied().map(move |kind| (wi, *wname, kind)))
        .enumerate()
        .map(|(order, (wi, wname, kind))| (order, wi, wname, kind))
        .collect();
    instruments.live.add_cells(jobs.len());

    let workers =
        std::thread::available_parallelism().map_or(4, |n| n.get()).min(jobs.len().max(1));
    let next_job = Mutex::new(0usize);
    let results: Mutex<Vec<(usize, Cell)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let ddr: Mutex<DdrAuditLog> = Mutex::new(DdrAuditLog::default());

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let idx = {
                    // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
                    let mut cursor = next_job.lock().expect("job cursor poisoned");
                    let idx = *cursor;
                    *cursor += 1;
                    idx
                };
                let Some(&(order, wi, wname, kind)) = jobs.get(idx) else {
                    break;
                };
                let trace = spec::generate(wname, trace_len, 42 + wi as u64);
                let cfg = make_cfg(kind);
                let pid = pid_base + order as u32;
                let (result, capture) = run_with(&RunSpec {
                    instruments: instruments.clone(),
                    pid,
                    capture_cmds: args.audit,
                    ..RunSpec::new(&cfg, &trace, warmup, measure)
                });
                if args.audit {
                    let cell = format!("{} / {}", kind.name(), wname);
                    let log = audit::audit_cell(&capture, &cell, pid, instruments);
                    // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
                    ddr.lock().expect("audit log poisoned").absorb(log);
                }
                // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
                results.lock().expect("results poisoned").push((
                    order,
                    Cell { workload: wname.to_string(), machine: kind.name(), result },
                ));
            });
        }
    });

    if args.audit {
        // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
        audit::conclude(&ddr.into_inner().expect("audit log poisoned"), kinds, instruments);
    }
    // lint: panic-ok(lock poisoning means a worker panicked; propagating the panic is intended)
    let mut cells = results.into_inner().expect("results poisoned");
    cells.sort_by_key(|(order, _)| *order);
    cells.into_iter().map(|(_, c)| c).collect()
}

/// Geometric mean of a slice (0.0 for empty input).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_mixes() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_empty_is_zero() {
        assert_eq!(geomean(&[]), 0.0);
    }
}
