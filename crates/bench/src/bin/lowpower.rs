//! Experiment X2 (IV-B): the low-power rank-localized layout costs <=4%
//! performance while letting idle ranks power down.

use sdimm_bench::{table, Scale, TelemetryArgs};
use sdimm_system::machine::{MachineKind, SystemConfig};
use workloads::spec;

fn main() {
    let telemetry = TelemetryArgs::from_env("lowpower");
    let instruments = telemetry.instruments();
    let _live = sdimm_bench::LiveView::spawn(instruments.live.clone());
    let mut all_cells = Vec::new();
    let scale = Scale::from_env();
    let kind = MachineKind::Independent { sdimms: 2, channels: 1 };

    for low_power in [false, true] {
        let cells = sdimm_bench::run_matrix(
            &telemetry,
            &spec::ALL[..5],
            &[kind],
            scale,
            |kind| SystemConfig { low_power, ..scale.system(kind, 7, telemetry.standard) },
            &instruments,
            all_cells.len() as u32,
        );
        table::print_raw(
            &format!("X2: INDEP-2, low_power={low_power}"),
            &cells,
            "bus cycles / record",
            |c| c.result.cycles_per_record(),
        );
        table::print_raw(
            &format!("X2: INDEP-2 energy, low_power={low_power}"),
            &cells,
            "nJ / record",
            |c| c.result.energy_per_record_nj(),
        );
        all_cells.extend(cells);
    }
    sdimm_bench::leakage::write_if_requested(&telemetry, &[kind], scale, &instruments);
    telemetry.write_outputs(&all_cells, &instruments);
}
