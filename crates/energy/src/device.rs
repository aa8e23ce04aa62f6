//! Device models and technology normalisation (Table 5 and Eq. 8).

/// Process/voltage description of a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechnologyNode {
    /// Feature size in nanometres.
    pub process_nm: f64,
    /// Core supply voltage in volts.
    pub voltage_v: f64,
}

impl TechnologyNode {
    /// The 65 nm / 1 V reference point the paper normalises to.
    pub const REFERENCE: TechnologyNode = TechnologyNode {
        process_nm: 65.0,
        voltage_v: 1.0,
    };
}

/// Normalises a power figure to the reference technology using Eq. 8 of the
/// paper: `P' = P * S^2 * U`, where `S` is the process scaling factor and
/// `U` the voltage scaling factor.
pub fn normalize_power(power_w: f64, node: TechnologyNode) -> f64 {
    let s = TechnologyNode::REFERENCE.process_nm / node.process_nm;
    let u = TechnologyNode::REFERENCE.voltage_v / node.voltage_v;
    power_w * s * s * u
}

/// A device running one of the classification engines (Table 5).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Human-readable name.
    pub name: &'static str,
    /// Technology node.
    pub node: TechnologyNode,
    /// Clock frequency in hertz.
    pub frequency_hz: f64,
    /// Power drawn by the modelled logic at `frequency_hz`, in watts,
    /// *before* normalisation (the FPGA figure includes its block RAMs, the
    /// ASIC and StrongARM figures cover the datapath logic only, exactly as
    /// in the paper).
    pub power_w: f64,
    /// Equivalent 2-input NAND gate count, when reported.
    pub area_gates: Option<u64>,
    /// FPGA slices used, when applicable.
    pub slices: Option<(u32, f64)>,
    /// FPGA block RAMs used, when applicable.
    pub block_rams: Option<(u32, f64)>,
}

impl DeviceModel {
    /// The 65 nm ASIC implementation of the accelerator: 226 MHz, 19.79 mW
    /// raw (18.32 mW normalised), 51,488 gates.
    pub fn asic_65nm() -> DeviceModel {
        DeviceModel {
            name: "ASIC (65 nm)",
            node: TechnologyNode {
                process_nm: 65.0,
                voltage_v: 1.08,
            },
            frequency_hz: 226e6,
            power_w: 0.019_79,
            area_gates: Some(51_488),
            slices: None,
            block_rams: None,
        }
    }

    /// The Virtex-5 SX95T FPGA implementation: 77 MHz, 1.811 W including the
    /// 134 block RAMs that hold the search structure, 3,280 slices.
    pub fn fpga_virtex5() -> DeviceModel {
        DeviceModel {
            name: "FPGA (Virtex5SX95T)",
            node: TechnologyNode {
                process_nm: 65.0,
                voltage_v: 1.0,
            },
            frequency_hz: 77e6,
            power_w: 1.811,
            area_gates: None,
            slices: Some((3_280, 0.22)),
            block_rams: Some((134, 0.54)),
        }
    }

    /// The StrongARM SA-1100 network-processor engine the software
    /// algorithms run on: 180 nm, 1.8 V, 200 MHz.  The raw power figure is
    /// chosen so that its Eq.-8 normalisation reproduces the 42.45 mW entry
    /// of Table 5.
    pub fn strongarm_sa1100() -> DeviceModel {
        DeviceModel {
            name: "StrongARM SA-1100",
            node: TechnologyNode {
                process_nm: 180.0,
                voltage_v: 1.8,
            },
            frequency_hz: 200e6,
            power_w: 0.586,
            area_gates: Some(17_600_998),
            slices: None,
            block_rams: None,
        }
    }

    /// Power normalised to 65 nm / 1 V (Eq. 8) — the asterisked column of
    /// Table 5.
    pub fn normalized_power_w(&self) -> f64 {
        normalize_power(self.power_w, self.node)
    }

    /// Power when the device is clocked at a different frequency, assuming
    /// dynamic power scales linearly with frequency (how the paper derives
    /// the 11.65 mW @ 133 MHz ASIC figure from the 226 MHz characterisation).
    pub fn power_at_frequency_w(&self, frequency_hz: f64) -> f64 {
        self.power_w * frequency_hz / self.frequency_hz
    }

    /// Energy of running for `cycles` clock cycles at the nominal frequency,
    /// using the *normalised* power (joules).
    pub fn normalized_energy_j(&self, cycles: u64) -> f64 {
        self.normalized_power_w() * cycles as f64 / self.frequency_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_matches_table5() {
        // ASIC: 19.79 mW at 1.08 V, 65 nm -> 18.32 mW normalised.
        let asic = DeviceModel::asic_65nm();
        assert!((asic.normalized_power_w() * 1e3 - 18.32).abs() < 0.05);
        // StrongARM: 586 mW at 1.8 V, 180 nm -> ~42.45 mW normalised.
        let arm = DeviceModel::strongarm_sa1100();
        assert!((arm.normalized_power_w() * 1e3 - 42.45).abs() < 0.5);
        // FPGA is already at the reference point, so normalisation is a
        // no-op.
        let fpga = DeviceModel::fpga_virtex5();
        assert!((fpga.normalized_power_w() - fpga.power_w).abs() < 1e-12);
    }

    #[test]
    fn frequency_scaling_reproduces_paper_figures() {
        // §5.3: the ASIC consumes 11.65 mW at 133 MHz.
        let asic = DeviceModel::asic_65nm();
        let at_133 = asic.power_at_frequency_w(133e6);
        assert!((at_133 * 1e3 - 11.65).abs() < 0.1, "got {at_133}");
    }

    #[test]
    fn energy_per_packet_matches_table6_order_of_magnitude() {
        // Table 6: ASIC ~7.6e-11 J per packet for the small rulesets (1–2
        // cycles per packet), FPGA ~2.4e-8 J.
        let asic = DeviceModel::asic_65nm();
        let e = asic.normalized_energy_j(1);
        assert!(e > 5e-11 && e < 2e-10, "asic energy {e}");
        let fpga = DeviceModel::fpga_virtex5();
        let e = fpga.normalized_energy_j(1);
        assert!(e > 1e-8 && e < 5e-8, "fpga energy {e}");
    }

    #[test]
    fn eq8_is_quadratic_in_process_and_linear_in_voltage() {
        let p = normalize_power(
            1.0,
            TechnologyNode {
                process_nm: 130.0,
                voltage_v: 2.0,
            },
        );
        let expected = (65.0f64 / 130.0).powi(2) * (1.0 / 2.0);
        assert!((p - expected).abs() < 1e-12);
    }
}
