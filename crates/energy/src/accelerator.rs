//! Energy accounting for the hardware accelerator (ASIC and FPGA targets).

use crate::device::DeviceModel;
use pclass_core::hw::ClassificationReport;

/// Wraps a [`DeviceModel`] with the accelerator-specific accounting used by
/// Tables 6 and 7: energy per classified packet and packets per second at
/// the device's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorEnergyModel {
    device: DeviceModel,
}

impl AcceleratorEnergyModel {
    /// Model for the 65 nm ASIC implementation (226 MHz).
    pub fn asic() -> AcceleratorEnergyModel {
        AcceleratorEnergyModel {
            device: DeviceModel::asic_65nm(),
        }
    }

    /// Model for the Virtex-5 FPGA implementation (77 MHz).
    pub fn fpga() -> AcceleratorEnergyModel {
        AcceleratorEnergyModel {
            device: DeviceModel::fpga_virtex5(),
        }
    }

    /// The device description.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Total normalised energy to classify the whole trace of a report.
    pub fn trace_energy_j(&self, report: &ClassificationReport) -> f64 {
        self.device.normalized_energy_j(report.cycles)
    }

    /// Average normalised energy per classified packet (Table 6).
    pub fn energy_per_packet_j(&self, report: &ClassificationReport) -> f64 {
        if report.packets() == 0 {
            return 0.0;
        }
        self.trace_energy_j(report) / report.packets() as f64
    }

    /// Packets classified per second at the device clock (Table 7).
    pub fn packets_per_second(&self, report: &ClassificationReport) -> f64 {
        report.packets_per_second(self.device.frequency_hz)
    }

    /// The line rate in packets per second a given worst-case cycle count
    /// guarantees (minimum bandwidth under worst-case traffic, §5.2): the
    /// pipeline hides the root cycle, so the steady-state inter-packet gap
    /// is `worst_case_cycles - 1` clocks (minimum 1).
    pub fn guaranteed_packets_per_second(&self, worst_case_cycles: u32) -> f64 {
        let gap = worst_case_cycles.saturating_sub(1).max(1);
        self.device.frequency_hz / f64::from(gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclass_core::hw::{ClassificationReport, PacketCycles};
    use pclass_types::MatchResult;

    fn fake_report(packets: usize, cycles_per_packet: u32) -> ClassificationReport {
        ClassificationReport {
            results: vec![MatchResult::NoMatch; packets],
            per_packet: vec![
                PacketCycles {
                    internal_fetches: cycles_per_packet.saturating_sub(1),
                    leaf_fetches: 1,
                    rules_examined: 1,
                };
                packets
            ],
            cycles: 1 + u64::from(cycles_per_packet) * packets as u64,
            memory_accesses: u64::from(cycles_per_packet) * packets as u64,
        }
    }

    #[test]
    fn asic_energy_per_packet_matches_table6_band() {
        // One to two cycles per packet -> ~0.8e-10 to 1.6e-10 J (Table 6
        // reports 7.6e-11 to 2.1e-10 for the ASIC).
        let model = AcceleratorEnergyModel::asic();
        let report = fake_report(1000, 1);
        let e = model.energy_per_packet_j(&report);
        assert!(e > 5e-11 && e < 3e-10, "asic energy {e}");
    }

    #[test]
    fn fpga_energy_per_packet_matches_table6_band() {
        let model = AcceleratorEnergyModel::fpga();
        let report = fake_report(1000, 1);
        let e = model.energy_per_packet_j(&report);
        assert!(e > 1e-8 && e < 6e-8, "fpga energy {e}");
    }

    #[test]
    fn throughput_reaches_line_rate_for_two_cycle_worst_case() {
        let asic = AcceleratorEnergyModel::asic();
        // Worst case 2 cycles -> one packet per cycle -> 226 Mpps, above the
        // 125 Mpps OC-768 requirement quoted in the introduction.
        assert!(asic.guaranteed_packets_per_second(2) >= 226e6);
        assert!(
            asic.guaranteed_packets_per_second(5) >= 31.25e6,
            "must still beat OC-192"
        );
        let fpga = AcceleratorEnergyModel::fpga();
        assert!(fpga.guaranteed_packets_per_second(2) >= 77e6);
    }

    #[test]
    fn trace_energy_and_pps_are_consistent() {
        let model = AcceleratorEnergyModel::asic();
        let report = fake_report(500, 2);
        let total = model.trace_energy_j(&report);
        let per_packet = model.energy_per_packet_j(&report);
        assert!((total / 500.0 - per_packet).abs() < 1e-18);
        assert!(model.packets_per_second(&report) > 0.0);
        let empty = fake_report(0, 1);
        assert_eq!(model.energy_per_packet_j(&empty), 0.0);
    }
}
