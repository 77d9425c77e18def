//! `--audit` for the figure binaries.
//!
//! [`run_matrix`](crate::harness::run_matrix) replays every cell's DRAM
//! command streams through the differential DDR3 auditor as the cell
//! finishes ([`audit_cell`]), then [`conclude`] lockstep-checks each ORAM
//! protocol kind appearing in the matrix against a shadow memory. Any
//! violation fails the process (exit 1); under the `audit-strict`
//! feature it aborts at the first DDR violation after dumping the
//! Chrome trace for Perfetto triage.

use std::collections::HashSet;

use sdimm_audit::ddr::{violation_recorder, DdrAuditor, BLACKBOX_CONTEXT};
use sdimm_audit::oracle::{check_protocol, ProtocolKind};
use sdimm_system::machine::MachineKind;
use sdimm_system::runner::Capture;
use sdimm_telemetry::Instruments;

/// Tree depth of the oracle's lockstep runs: deep enough to exercise
/// recursion and eviction, small enough to stay a per-run rounding
/// error next to the experiment itself.
const ORACLE_LEVELS: u32 = 10;

/// Blocks and requests per oracle lockstep run.
const ORACLE_BLOCKS: u64 = 512;
const ORACLE_STEPS: usize = 300;

/// Aggregate result of replaying a matrix's DRAM command streams
/// through the differential DDR3 auditor.
#[derive(Debug, Clone, Default)]
pub struct DdrAuditLog {
    /// Matrix cells audited.
    pub cells: u64,
    /// DDR commands replayed across every channel of every cell.
    pub commands: u64,
    /// Refresh commands observed (a zero here on a long run means the
    /// capture itself is broken — refresh is always on in the machines).
    pub refreshes: u64,
    /// One formatted line per violating cell (empty on a clean matrix).
    pub violations: Vec<String>,
    /// Flight-recorder black-box dumps written for violating cells
    /// (one formatted `path` line per dump; empty on a clean matrix).
    pub blackbox_dumps: Vec<String>,
}

impl DdrAuditLog {
    /// Adds another log's counts and findings to this one.
    pub fn absorb(&mut self, other: DdrAuditLog) {
        self.cells += other.cells;
        self.commands += other.commands;
        self.refreshes += other.refreshes;
        self.violations.extend(other.violations);
        self.blackbox_dumps.extend(other.blackbox_dumps);
    }
}

/// Replays one cell's captured command streams through [`DdrAuditor`].
/// A violating channel gets a black box rebuilt from the captured
/// stream, dumped under the flight-recorder prefix (or
/// `audit-violation-pid<N>`); under `audit-strict` the run stops *at*
/// the violation, black box first.
#[cfg_attr(feature = "audit-strict", allow(unused_variables))]
pub fn audit_cell(
    capture: &Capture,
    cell: &str,
    pid: u32,
    instruments: &Instruments,
) -> DdrAuditLog {
    let mut log = DdrAuditLog { cells: 1, ..DdrAuditLog::default() };
    for (ch, stream) in capture.streams.iter().enumerate() {
        match DdrAuditor::check_stream_indexed(&capture.channel_cfg, stream) {
            Ok(summary) => {
                log.commands += summary.commands;
                log.refreshes += summary.refreshes;
            }
            Err((idx, v)) => {
                let line = format!("{cell} channel {ch}: {v}");
                // Black box from the captured stream, not the live
                // per-cell ring: the context window is guaranteed present
                // even if the cell's ring was disabled or had wrapped past
                // the offending commands.
                let recorder = violation_recorder(
                    stream,
                    ch.min(u8::MAX as usize) as u8,
                    idx,
                    BLACKBOX_CONTEXT,
                );
                #[cfg(feature = "audit-strict")]
                sdimm_audit::strict::abort_with_blackbox(&instruments.sink, &recorder, &line);
                #[cfg(not(feature = "audit-strict"))]
                {
                    let prefix = if instruments.flight.is_enabled() {
                        format!("{}-violation-pid{pid}", instruments.flight.prefix())
                    } else {
                        format!("audit-violation-pid{pid}")
                    };
                    if recorder.arm_dump() {
                        match recorder.dump_to_files(&prefix, &line, pid) {
                            Some(Ok((txt, json))) => {
                                log.blackbox_dumps.push(txt);
                                log.blackbox_dumps.push(json);
                            }
                            Some(Err(e)) => {
                                log.blackbox_dumps.push(format!("(dump to {prefix} failed: {e})"))
                            }
                            None => {}
                        }
                    }
                    log.violations.push(line);
                }
            }
        }
    }
    log
}

/// Reports a matrix's DDR audit, runs one oracle lockstep check per
/// distinct protocol in `kinds`, and exits with status 1 on any
/// finding so an audited figure run can gate CI. With the
/// `audit-strict` feature the first finding aborts immediately via
/// [`sdimm_audit::strict::abort_with_trace`].
#[cfg_attr(not(feature = "audit-strict"), allow(unused_variables))]
pub fn conclude(ddr: &DdrAuditLog, kinds: &[MachineKind], instruments: &Instruments) {
    let mut failed = false;
    for v in &ddr.violations {
        eprintln!("audit: DDR violation: {v}");
        failed = true;
    }
    for p in &ddr.blackbox_dumps {
        eprintln!("audit: black box at {p}");
    }
    // Under audit-strict a DDR violation already aborted inside the
    // worker (black box first); reaching this point with violations
    // means the feature is off and the run fails at the end instead.
    #[cfg(feature = "audit-strict")]
    if let Some(v) = ddr.violations.first() {
        sdimm_audit::strict::abort_with_trace(&instruments.sink, v);
    }

    // One oracle lockstep run per distinct protocol in the matrix. The
    // non-secure baseline has no ORAM to check.
    let mut seen: HashSet<String> = HashSet::new();
    let oracle_cfg = oram::types::OramConfig {
        levels: ORACLE_LEVELS,
        stash_limit: 100,
        ..oram::types::OramConfig::default()
    };
    for kind in kinds {
        let Some(proto) = oracle_kind(kind) else { continue };
        if !seen.insert(proto.to_string()) {
            continue;
        }
        match check_protocol(&proto, &oracle_cfg, ORACLE_BLOCKS, ORACLE_STEPS, 42) {
            Ok(rep) => eprintln!(
                "audit: oracle {}: {} requests in lockstep, stash peak {}",
                rep.protocol, rep.steps, rep.stash_peak
            ),
            Err(m) => {
                eprintln!("audit: ORACLE MISMATCH: {m}");
                #[cfg(feature = "audit-strict")]
                sdimm_audit::strict::abort_with_trace(&instruments.sink, &m.to_string());
                #[cfg(not(feature = "audit-strict"))]
                {
                    failed = true;
                }
            }
        }
    }

    if failed {
        eprintln!("audit: FAILED — see violations above");
        // Sanctioned exit: the audit gate failing must fail the run.
        #[allow(clippy::disallowed_methods)]
        std::process::exit(1);
    }
    eprintln!(
        "audit: clean — {} cells, {} DDR commands replayed ({} refreshes), {} protocol(s) in lockstep",
        ddr.cells,
        ddr.commands,
        ddr.refreshes,
        seen.len()
    );
}

/// The oracle configuration matching a machine kind, if it has an ORAM.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_kind_covers_every_machine() {
        assert!(oracle_kind(&MachineKind::NonSecure { channels: 1 }).is_none());
        assert_eq!(
            oracle_kind(&MachineKind::Independent { sdimms: 4, channels: 2 }),
            Some(ProtocolKind::Independent { sdimms: 4 })
        );
        assert_eq!(
            oracle_kind(&MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 }),
            Some(ProtocolKind::IndepSplit { groups: 2, ways: 2 })
        );
    }
}
