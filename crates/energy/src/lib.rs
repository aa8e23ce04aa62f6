//! Energy and power models for the packet-classification study.
//!
//! The paper compares three very different execution substrates:
//!
//! * the unmodified software algorithms running on a **StrongARM SA-1100**
//!   (180 nm, 1.8 V, 200 MHz), with energy obtained from Sim-Panalyzer;
//! * the hardware accelerator synthesised for a **65 nm ASIC** (1.08 V,
//!   226 MHz) with power from Synopsys PrimePower;
//! * the hardware accelerator on a **Xilinx Virtex-5 SX95T FPGA** (1.0 V,
//!   77 MHz) with power from XPower;
//!
//! plus commercial **TCAM** and **SRAM** parts from Cypress datasheets.
//!
//! Because the devices are built in different technologies, the paper
//! normalises power to a common 65 nm / 1 V point with Eq. 8
//! (`P' = P · S² · U`); [`device::normalize_power`] implements exactly that
//! and [`device::DeviceModel`] carries both the raw and the normalised
//! figures of Table 5.
//!
//! The software side replaces the micro-architectural simulator with an
//! *operation-level* model: [`sa1100::Sa1100Model`] converts the operation
//! counters emitted by the instrumented classifiers and tree builders
//! (`pclass-algos::counters`) into cycles and joules.  The absolute constants
//! are calibrated to the SA-1100's published characteristics, not to the
//! authors' exact Sim-Panalyzer setup, so the `reproduce` tables are to be
//! compared with the paper's in *shapes and ratios* (who wins, by roughly
//! what factor) rather than in absolute joules.

//!
//! # Example
//!
//! Convert an operation count into SA-1100 joules and compare device
//! power at the paper's common 65 nm / 1 V normalisation point:
//!
//! ```
//! use pclass_algos::OpCounters;
//! use pclass_energy::device::DeviceModel;
//! use pclass_energy::sa1100::Sa1100Model;
//!
//! let sa1100 = Sa1100Model::new();
//! let ops = OpCounters { loads: 1_000, alu: 500, branches: 200, ..Default::default() };
//! assert!(sa1100.normalized_energy_j(&ops) > 0.0);
//!
//! // Normalisation (Eq. 8) makes the 65 nm ASIC directly comparable to
//! // the 180 nm StrongARM.
//! let asic = DeviceModel::asic_65nm();
//! let arm = DeviceModel::strongarm_sa1100();
//! assert!(asic.normalized_power_w() < arm.normalized_power_w());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
pub mod device;
pub mod sa1100;
pub mod tcam_datasheet;

pub use accelerator::AcceleratorEnergyModel;
pub use device::{normalize_power, DeviceModel, TechnologyNode};
pub use sa1100::{CycleCosts, Sa1100Model};
pub use tcam_datasheet::{SramPart, TcamPart};
