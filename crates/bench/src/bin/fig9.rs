//! Fig 9: normalized execution time of double-channel SDIMM designs
//! (INDEP-4, SPLIT-4, INDEP-SPLIT) vs Freecursive (paper: 20.3%, 20.4%,
//! and 47.4% improvement respectively).

use sdimm_bench::{table, Scale, TelemetryArgs};
use sdimm_system::machine::MachineKind;
use workloads::spec;

fn main() {
    let telemetry = TelemetryArgs::from_env("fig9");
    let instruments = telemetry.instruments();
    let _live = sdimm_bench::LiveView::spawn(instruments.live.clone());
    let scale = Scale::from_env();
    let kinds = [
        MachineKind::Freecursive { channels: 2 },
        MachineKind::Independent { sdimms: 4, channels: 2 },
        MachineKind::Split { ways: 4, channels: 2 },
        MachineKind::IndepSplit { groups: 2, ways: 2, channels: 2 },
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
            &format!("Fig 9: double-channel SDIMM designs, {cached}-level ORAM cache"),
            &cells,
            "FREECURSIVE-2ch",
            |c| c.result.cycles_per_record(),
        );
        table::print_latency_percentiles(&format!("Fig 9, {cached}-level ORAM cache"), &cells);
        all_cells.extend(cells);
    }
    sdimm_bench::leakage::write_if_requested(&telemetry, &kinds, scale, &instruments);
    telemetry.write_outputs(&all_cells, &instruments);
}
