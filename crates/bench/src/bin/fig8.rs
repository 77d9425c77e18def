//! Fig 8: normalized execution time of single-channel SDIMM designs
//! (INDEP-2, SPLIT-2) vs Freecursive, with and without the 7-level
//! on-chip ORAM cache (paper: ~32-35.7% reduction).

use sdimm_bench::{table, Scale, TelemetryArgs};
use sdimm_system::machine::MachineKind;
use workloads::spec;

fn main() {
    let telemetry = TelemetryArgs::from_env("fig8");
    let instruments = telemetry.instruments();
    let _live = sdimm_bench::LiveView::spawn(instruments.live.clone());
    let scale = Scale::from_env();
    let kinds = [
        MachineKind::Freecursive { channels: 1 },
        MachineKind::Independent { sdimms: 2, channels: 1 },
        MachineKind::Split { ways: 2, channels: 1 },
    ];
    let mut all_cells = Vec::new();
    for cached in [7u32, 0] {
        let cells = sdimm_bench::run_matrix(
            &telemetry,
            &spec::ALL,
            &kinds,
            scale,
            |kind| scale.system(kind, cached, telemetry.standard),
            &instruments,
            all_cells.len() as u32,
        );
        table::print_normalized(
            &format!("Fig 8: single-channel SDIMM designs, {cached}-level ORAM cache"),
            &cells,
            "FREECURSIVE-1ch",
            |c| c.result.cycles_per_record(),
        );
        table::print_latency_percentiles(&format!("Fig 8, {cached}-level ORAM cache"), &cells);
        all_cells.extend(cells);
    }
    sdimm_bench::leakage::write_if_requested(&telemetry, &kinds, scale, &instruments);
    telemetry.write_outputs(&all_cells, &instruments);
}
